//! Seeded trace fuzzing for the `check` binary.
//!
//! A [`FuzzPlan`] is a small, fully declarative description of a
//! synthetic workload: a list of [`Segment`]s, each one memory-access
//! idiom the prefetchers care about (dense spatial streams, planted
//! pointer chains walked through dependent loads, index-driven indirect
//! gathers, aliasing re-reference windows, store bursts). Plans are
//! generated from a seed via the testkit's [`Arbitrary`] and
//! materialized deterministically into a concrete trace + functional
//! memory + heap range by [`materialize`] — the same plan always yields
//! the same case, so a failing seed is a complete reproducer, and the
//! testkit's greedy shrinker can minimize the plan itself.

use grp_cpu::{HintSet, RefId, Trace};
use grp_mem::{Addr, HeapRange, Memory};
use grp_testkit::proptest::Arbitrary;
use grp_testkit::Rng;

/// Address-space slice reserved for each segment (1 MiB).
const SEGMENT_SPAN: u64 = 1 << 20;
/// First heap byte; everything a plan touches lives above this.
const HEAP_BASE: u64 = 0x10_0000;

/// One access idiom within a fuzz plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// A dense forward stream: `count` loads with a fixed word stride,
    /// optionally carrying the spatial hint (exercises SRP/GRP region
    /// allocation and, when hinted, variable-size regions).
    Spatial {
        /// Number of loads.
        count: u16,
        /// Stride between consecutive loads, in 8-byte words.
        stride_words: u8,
        /// Attach the spatial hint (GRP prefetches; SRP ignores hints).
        hinted: bool,
        /// Emit a `SetLoopBound` pseudo-instruction before the stream.
        loop_bound: bool,
    },
    /// A linked-list walk over `nodes` planted in memory, each load
    /// data-dependent on the previous one (exercises pointer scans and
    /// the MSHR pointer-depth plumbing).
    Pointer {
        /// Chain length.
        nodes: u16,
        /// Distance between consecutive nodes, in 64-byte blocks.
        node_stride_blocks: u8,
        /// Attach the pointer hint.
        hinted: bool,
    },
    /// An index-array-driven gather: loads of `idx[i]` then
    /// `data[idx[i]]`, preceded by explicit indirect-prefetch
    /// pseudo-instructions (§3.3.3).
    Indirect {
        /// Gather length.
        elems: u16,
        /// Cluster indices in runs of 8 (row-friendly) instead of
        /// scattering them pseudo-randomly.
        clustered: bool,
    },
    /// Repeated re-references within a small block window from two
    /// interleaved walks — heavy on hits, merges, and MSHR aliasing.
    Alias {
        /// Number of accesses.
        count: u16,
        /// Window size in blocks.
        window_blocks: u8,
    },
    /// A burst of stores with a fixed stride (exercises dirty lines,
    /// writebacks, and store handling in the replay window).
    Stores {
        /// Number of stores.
        count: u16,
        /// Stride between consecutive stores, in 8-byte words.
        stride_words: u8,
    },
}

impl Segment {
    fn clamp(self) -> Segment {
        // Keep generated cases small enough that a full 12-scheme sweep
        // per case stays fast, and keep every field inside the bounds
        // the materializer's address layout assumes. `fold` is the
        // identity on in-range values so clamping is idempotent —
        // materializing an already-clamped plan must not shift it.
        fn fold16(v: u16, max: u16) -> u16 {
            v.wrapping_sub(1) % max + 1
        }
        fn fold8(v: u8, max: u8) -> u8 {
            v.wrapping_sub(1) % max + 1
        }
        match self {
            Segment::Spatial {
                count,
                stride_words,
                hinted,
                loop_bound,
            } => Segment::Spatial {
                count: fold16(count, 320),
                stride_words: fold8(stride_words, 16),
                hinted,
                loop_bound,
            },
            Segment::Pointer {
                nodes,
                node_stride_blocks,
                hinted,
            } => Segment::Pointer {
                nodes: fold16(nodes, 160),
                node_stride_blocks: fold8(node_stride_blocks, 8),
                hinted,
            },
            Segment::Indirect { elems, clustered } => Segment::Indirect {
                elems: fold16(elems, 160),
                clustered,
            },
            Segment::Alias {
                count,
                window_blocks,
            } => Segment::Alias {
                count: fold16(count, 320),
                window_blocks: fold8(window_blocks, 32),
            },
            Segment::Stores {
                count,
                stride_words,
            } => Segment::Stores {
                count: fold16(count, 320),
                stride_words: fold8(stride_words, 16),
            },
        }
    }
}

impl Arbitrary for Segment {
    fn arbitrary(rng: &mut Rng) -> Segment {
        let seg = match rng.gen_range(0..5u32) {
            0 => Segment::Spatial {
                count: rng.gen(),
                stride_words: rng.gen(),
                hinted: rng.gen(),
                loop_bound: rng.gen(),
            },
            1 => Segment::Pointer {
                nodes: rng.gen(),
                node_stride_blocks: rng.gen(),
                hinted: rng.gen(),
            },
            2 => Segment::Indirect {
                elems: rng.gen(),
                clustered: rng.gen(),
            },
            3 => Segment::Alias {
                count: rng.gen(),
                window_blocks: rng.gen(),
            },
            _ => Segment::Stores {
                count: rng.gen(),
                stride_words: rng.gen(),
            },
        };
        seg.clamp()
    }

    fn shrink_value(&self) -> Vec<Segment> {
        // Halve the dominant size field toward 1 and drop boolean
        // embellishments; every candidate is already clamp-legal.
        let mut out = Vec::new();
        match *self {
            Segment::Spatial {
                count,
                stride_words,
                hinted,
                loop_bound,
            } => {
                if count > 1 {
                    out.push(Segment::Spatial {
                        count: count / 2,
                        stride_words,
                        hinted,
                        loop_bound,
                    });
                }
                if hinted || loop_bound {
                    out.push(Segment::Spatial {
                        count,
                        stride_words,
                        hinted: false,
                        loop_bound: false,
                    });
                }
                if stride_words > 1 {
                    out.push(Segment::Spatial {
                        count,
                        stride_words: 1,
                        hinted,
                        loop_bound,
                    });
                }
            }
            Segment::Pointer {
                nodes,
                node_stride_blocks,
                hinted,
            } => {
                if nodes > 1 {
                    out.push(Segment::Pointer {
                        nodes: nodes / 2,
                        node_stride_blocks,
                        hinted,
                    });
                }
                if hinted {
                    out.push(Segment::Pointer {
                        nodes,
                        node_stride_blocks,
                        hinted: false,
                    });
                }
            }
            Segment::Indirect { elems, clustered } => {
                if elems > 1 {
                    out.push(Segment::Indirect {
                        elems: elems / 2,
                        clustered,
                    });
                }
                if clustered {
                    out.push(Segment::Indirect {
                        elems,
                        clustered: false,
                    });
                }
            }
            Segment::Alias {
                count,
                window_blocks,
            } => {
                if count > 1 {
                    out.push(Segment::Alias {
                        count: count / 2,
                        window_blocks,
                    });
                }
                if window_blocks > 1 {
                    out.push(Segment::Alias {
                        count,
                        window_blocks: window_blocks / 2,
                    });
                }
            }
            Segment::Stores {
                count,
                stride_words,
            } => {
                if count > 1 {
                    out.push(Segment::Stores {
                        count: count / 2,
                        stride_words,
                    });
                }
            }
        }
        out
    }
}

/// A complete randomized workload description. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzPlan {
    /// The access idioms, materialized in order into disjoint 1 MiB
    /// address slices.
    pub segments: Vec<Segment>,
    /// Compute instructions inserted between consecutive accesses
    /// (varies memory-level parallelism).
    pub compute_gap: u8,
    /// Seed for the materializer's internal layout choices (indirect
    /// index permutations); part of the plan so cases reproduce.
    pub layout_seed: u64,
}

impl Arbitrary for FuzzPlan {
    fn arbitrary(rng: &mut Rng) -> FuzzPlan {
        let n = rng.gen_range(1..=4usize);
        FuzzPlan {
            segments: (0..n).map(|_| Segment::arbitrary(rng)).collect(),
            compute_gap: rng.gen_range(0..24u32) as u8,
            layout_seed: rng.gen(),
        }
    }

    fn shrink_value(&self) -> Vec<FuzzPlan> {
        let mut out = Vec::new();
        // Structural shrinks first: fewer segments is the biggest win.
        if self.segments.len() > 1 {
            out.push(FuzzPlan {
                segments: self.segments[..1].to_vec(),
                ..self.clone()
            });
            for i in 0..self.segments.len() {
                let mut c = self.clone();
                c.segments.remove(i);
                out.push(c);
            }
        }
        // Then per-segment field shrinks.
        for i in 0..self.segments.len() {
            for cand in self.segments[i].shrink_value() {
                let mut c = self.clone();
                c.segments[i] = cand;
                out.push(c);
            }
        }
        if self.compute_gap > 0 {
            out.push(FuzzPlan {
                compute_gap: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// A materialized fuzz case, ready for the timing simulator.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The access trace (already `finish()`ed).
    pub trace: Trace,
    /// Functional memory with pointer chains and index arrays planted.
    pub mem: Memory,
    /// Heap range covering every planted structure.
    pub heap: HeapRange,
}

/// Deterministically turns a plan into a runnable case. The same plan
/// always produces the identical trace, memory image, and heap range.
pub fn materialize(plan: &FuzzPlan) -> FuzzCase {
    let mut trace = Trace::new();
    let mut mem = Memory::new();
    let mut layout = Rng::seed_from_u64(plan.layout_seed);
    let gap = plan.compute_gap as u32;

    for (si, seg) in plan.segments.iter().enumerate() {
        let base = HEAP_BASE + si as u64 * SEGMENT_SPAN;
        let ref_id = RefId(si as u32 * 4);
        match seg.clone().clamp() {
            Segment::Spatial {
                count,
                stride_words,
                hinted,
                loop_bound,
            } => {
                let hints = if hinted {
                    HintSet::none().with_spatial()
                } else {
                    HintSet::none()
                };
                if loop_bound {
                    trace.push_set_loop_bound(count as u32);
                }
                for i in 0..count as u64 {
                    trace.push_load(
                        Addr(base + i * stride_words as u64 * 8),
                        8,
                        ref_id,
                        hints,
                        None,
                    );
                    trace.push_compute(gap);
                }
            }
            Segment::Pointer {
                nodes,
                node_stride_blocks,
                hinted,
            } => {
                // Plant the chain: each node's first word points at the
                // next node, the last at null.
                let stride = node_stride_blocks as u64 * 64;
                for i in 0..nodes as u64 {
                    let node = base + i * stride;
                    let next = if i + 1 < nodes as u64 {
                        base + (i + 1) * stride
                    } else {
                        0
                    };
                    mem.write_u64(Addr(node), next);
                }
                let hints = if hinted {
                    HintSet::none().with_pointer()
                } else {
                    HintSet::none()
                };
                let mut dep = None;
                for i in 0..nodes as u64 {
                    let seq = trace.push_load(Addr(base + i * stride), 8, ref_id, hints, dep);
                    dep = Some(seq);
                    trace.push_compute(gap);
                }
            }
            Segment::Indirect { elems, clustered } => {
                // idx[] at `base` (u32 each); data[] half a span above.
                let data_base = base + SEGMENT_SPAN / 2;
                for i in 0..elems as u64 {
                    let idx = if clustered {
                        (i / 8) * 8 + (i % 8)
                    } else {
                        layout.gen_range(0..elems as u64)
                    } as u32;
                    mem.write_u32(Addr(base + i * 4), idx);
                }
                let idx_ref = RefId(si as u32 * 4 + 1);
                for i in 0..elems as u64 {
                    let index_addr = Addr(base + i * 4);
                    trace.push_indirect_prefetch(Addr(data_base), 8, index_addr, ref_id);
                    let seq = trace.push_load(
                        index_addr,
                        4,
                        idx_ref,
                        HintSet::none().with_spatial(),
                        None,
                    );
                    let idx = mem.read_u32(index_addr) as u64;
                    trace.push_load(
                        Addr(data_base + idx * 8),
                        8,
                        ref_id,
                        HintSet::none(),
                        Some(seq),
                    );
                    trace.push_compute(gap);
                }
            }
            Segment::Alias {
                count,
                window_blocks,
            } => {
                // Two interleaved strided walks folded into one small
                // window; every third access is a store.
                let window_words = window_blocks as u64 * 8;
                for i in 0..count as u64 {
                    let off = (i * 7 + (i % 2) * 3) % window_words;
                    let addr = Addr(base + off * 8);
                    if i % 3 == 2 {
                        trace.push_store(addr, 8, ref_id, HintSet::none());
                    } else {
                        trace.push_load(addr, 8, ref_id, HintSet::none(), None);
                    }
                    trace.push_compute(gap);
                }
            }
            Segment::Stores {
                count,
                stride_words,
            } => {
                for i in 0..count as u64 {
                    trace.push_store(
                        Addr(base + i * stride_words as u64 * 8),
                        8,
                        ref_id,
                        HintSet::none(),
                    );
                    trace.push_compute(gap);
                }
            }
        }
    }
    trace.finish();
    let heap = HeapRange {
        start: Addr(HEAP_BASE),
        end: Addr(HEAP_BASE + plan.segments.len().max(1) as u64 * SEGMENT_SPAN),
    };
    FuzzCase { trace, mem, heap }
}

/// A fixed case the random segment generator cannot produce: thousands
/// of sparse misses, one per 4 KiB region, piling entries onto the
/// engines' region queue far faster than DRAM can drain them. Run with
/// invariants attached it deterministically exposes an unbounded-queue
/// fault, so the `check` gate's injection teeth never depend on which
/// random plans a seed happens to draw.
pub fn region_pressure_case() -> FuzzCase {
    let mut trace = Trace::new();
    let span = 4_000u64;
    for i in 0..span {
        trace.push_load(
            Addr(HEAP_BASE + i * 4096),
            8,
            RefId(0),
            HintSet::none(),
            None,
        );
        trace.push_compute(64);
    }
    trace.finish();
    let heap = HeapRange {
        start: Addr(HEAP_BASE),
        end: Addr(HEAP_BASE + span * 4096),
    };
    FuzzCase {
        trace,
        mem: Memory::new(),
        heap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_testkit::proptest::prelude::*;

    #[test]
    fn materialization_is_deterministic() {
        let mut rng = Rng::seed_from_u64(0x5eed_f422);
        for _ in 0..20 {
            let plan = FuzzPlan::arbitrary(&mut rng);
            let a = materialize(&plan);
            let b = materialize(&plan);
            assert_eq!(a.trace.events(), b.trace.events());
            assert_eq!(a.heap, b.heap);
        }
    }

    #[test]
    fn plans_cover_every_idiom() {
        let mut rng = Rng::seed_from_u64(0x5eed_c073);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let plan = FuzzPlan::arbitrary(&mut rng);
            for seg in &plan.segments {
                let i = match seg {
                    Segment::Spatial { .. } => 0,
                    Segment::Pointer { .. } => 1,
                    Segment::Indirect { .. } => 2,
                    Segment::Alias { .. } => 3,
                    Segment::Stores { .. } => 4,
                };
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "idiom coverage: {seen:?}");
    }

    #[test]
    fn shrinking_reaches_a_single_small_segment() {
        // A plan "fails" whenever it contains a Pointer segment; the
        // shrinker must reduce to one minimal pointer chain.
        let strat = any::<FuzzPlan>();
        let mut rng = Rng::seed_from_u64(0x5eed_0001);
        let plan = loop {
            let p = FuzzPlan::arbitrary(&mut rng);
            if p.segments
                .iter()
                .any(|s| matches!(s, Segment::Pointer { .. }))
            {
                break p;
            }
        };
        let fails = |p: &FuzzPlan| -> Result<(), String> {
            if p.segments
                .iter()
                .any(|s| matches!(s, Segment::Pointer { .. }))
            {
                Err("has pointer segment".into())
            } else {
                Ok(())
            }
        };
        let (min, _msg, _tested) = greedy_shrink(&strat, plan, "seed".into(), 2048, fails);
        assert_eq!(min.segments.len(), 1, "minimal plan: {min:?}");
        match &min.segments[0] {
            Segment::Pointer { nodes, hinted, .. } => {
                assert_eq!(*nodes, 1, "chain shrinks to one node");
                assert!(!hinted, "boolean embellishments dropped");
            }
            other => panic!("unexpected survivor {other:?}"),
        }
    }

    #[test]
    fn pointer_chains_are_planted_correctly() {
        let plan = FuzzPlan {
            segments: vec![Segment::Pointer {
                nodes: 4,
                node_stride_blocks: 2,
                hinted: true,
            }],
            compute_gap: 0,
            layout_seed: 1,
        };
        let case = materialize(&plan);
        let stride = 2 * 64;
        for i in 0..3u64 {
            assert_eq!(
                case.mem.read_u64(Addr(HEAP_BASE + i * stride)),
                HEAP_BASE + (i + 1) * stride
            );
        }
        assert_eq!(case.mem.read_u64(Addr(HEAP_BASE + 3 * stride)), 0);
        assert!(case.heap.contains(Addr(HEAP_BASE + 3 * stride)));
    }
}
