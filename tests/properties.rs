//! Property-based tests over the core data structures and the
//! end-to-end pipeline, using randomly generated programs and access
//! patterns.

use grp::compiler::{analyze, AnalysisConfig};
use grp::core::{run_trace, Scheme, SimConfig};
use grp::cpu::{HintSet, RefId, Trace};
use grp::ir::build::*;
use grp::ir::interp::Interpreter;
use grp::ir::{ElemTy, HintMap, HintView, ProgramBuilder};
use grp::mem::{Addr, BlockAddr, Cache, CacheConfig, HeapRange, InsertPriority, Memory};
use grp_testkit::proptest;
use grp_testkit::proptest::prelude::*;

fn heap() -> HeapRange {
    HeapRange {
        start: Addr(0x10_0000),
        end: Addr(0x4000_0000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache never loses blocks it holds except through eviction, and
    /// occupancy never exceeds capacity.
    #[test]
    fn cache_occupancy_bounded(ops in proptest::collection::vec((0u64..4096, any::<bool>()), 1..400)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 16 * 1024, ways: 4 });
        let capacity = 16 * 1024 / 64;
        for (blk, write) in ops {
            let b = BlockAddr(blk);
            if c.access(b, write) == grp::mem::LookupResult::Miss {
                c.fill(b, InsertPriority::Mru, false, write);
                prop_assert!(c.contains(b), "fill makes the block resident");
            }
            prop_assert!(c.resident_lines() <= capacity);
        }
    }

    /// Prefetch-marked lines are conserved: every prefetch fill is later
    /// counted useful, useless, or still-resident.
    #[test]
    fn prefetch_accounting_conserved(ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..300)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 8 * 1024, ways: 2 });
        let mut fills = 0u64;
        for (blk, is_pf) in ops {
            let b = BlockAddr(blk);
            if is_pf {
                if !c.contains(b) {
                    c.fill(b, InsertPriority::Lru, true, false);
                    fills += 1;
                }
            } else if c.access(b, false) == grp::mem::LookupResult::Miss {
                c.fill(b, InsertPriority::Mru, false, false);
            }
        }
        let s = c.stats();
        prop_assert_eq!(
            fills,
            s.useful_prefetches + s.useless_prefetches + c.resident_unused_prefetches()
        );
    }

    /// Replaying any load/store mix is causal: cycles at least cover the
    /// retire bandwidth, and every scheme commits the same instructions.
    #[test]
    fn replay_is_causal_and_scheme_invariant(
        refs in proptest::collection::vec((0u64..1u64 << 22, any::<bool>(), 0u32..12), 1..300)
    ) {
        let mut t = Trace::new();
        for (off, is_store, gap) in &refs {
            let a = Addr(0x10_0000 + (off & !7));
            if *is_store {
                t.push_store(a, 8, RefId(1), HintSet::none());
            } else {
                t.push_load(a, 8, RefId(0), HintSet::none().with_spatial(), None);
            }
            t.push_compute(*gap);
        }
        t.finish();
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let base = run_trace(&t, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let grp = run_trace(&t, &mem, heap(), Scheme::GrpVar, &cfg);
        let min_cycles = t.instructions() / cfg.window.width;
        prop_assert!(base.cycles >= min_cycles);
        prop_assert!(grp.cycles >= min_cycles);
        prop_assert_eq!(base.instructions, t.instructions());
        prop_assert_eq!(grp.instructions, t.instructions());
        // Prefetching must not slow a trace beyond the prioritizer bound.
        prop_assert!(grp.cycles <= base.cycles * 13 / 10);
    }

    /// Randomly-shaped affine loop nests interpret successfully, produce
    /// the statically-predictable number of loads, and every derived
    /// spatial hint corresponds to a real site.
    #[test]
    fn random_affine_nests_compile_and_run(
        n1 in 1i64..24,
        n2 in 1i64..24,
        stride in 1i64..4,
        use_2d in any::<bool>(),
    ) {
        let mut pb = ProgramBuilder::new("gen");
        let a = pb.array("a", ElemTy::F64, &[(n1 * 4) as u64, (n2 * 4) as u64]);
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        let idx2: Vec<_> = if use_2d {
            vec![var(i), mul(c(stride), var(j))]
        } else {
            vec![c(0), add(var(i), var(j))]
        };
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(n1),
            1,
            vec![for_(
                j,
                c(0),
                c(n2),
                1,
                vec![assign(s, add(var(s), load(arr(a, idx2))))],
            )],
        )]);
        let hints = analyze(&prog, &AnalysisConfig::default());
        let mut mem = Memory::new();
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x100_0000));
        let base = Interpreter::new(&prog, &bind).run(&mut mem).unwrap();
        let trace = HintView::new(&base, &hints, &prog, &bind).unwrap().to_trace();
        prop_assert_eq!(trace.loads(), (n1 * n2) as u64);
        // Simulate it too: must not panic and must retire everything.
        let r = run_trace(&trace, &mem, heap(), Scheme::GrpVar, &SimConfig::paper());
        prop_assert_eq!(r.instructions, trace.instructions());
    }

    /// Linked lists of arbitrary layout traverse correctly under the
    /// recursive-pointer pipeline.
    #[test]
    fn random_list_layouts_traverse(perm in proptest::collection::vec(0usize..64, 2..64)) {
        // Deduplicate to build a node order.
        let mut order: Vec<usize> = Vec::new();
        for p in perm {
            if !order.contains(&p) {
                order.push(p);
            }
        }
        let mut pb = ProgramBuilder::new("list");
        let sid = pb.peek_struct_id();
        let node = pb.add_struct(
            "n",
            vec![
                grp::ir::types::field("next", ElemTy::ptr_to(sid)),
                grp::ir::types::field("v", ElemTy::I64),
            ],
        );
        let head = pb.var("head");
        let p = pb.var("p");
        let s = pb.var("s");
        let prog = pb.finish(vec![
            assign(p, var(head)),
            while_(
                ne(var(p), c(0)),
                vec![
                    assign(s, add(var(s), load(fld(var(p), node, grp::ir::FieldId(1))))),
                    assign(p, load(fld(var(p), node, grp::ir::FieldId(0)))),
                ],
            ),
        ]);
        let mut mem = Memory::new();
        let slab = Addr(0x100_0000);
        let addrs: Vec<Addr> = order.iter().map(|k| slab.offset(*k as i64 * 64)).collect();
        for w in addrs.windows(2) {
            mem.write_u64(w[0], w[1].0);
        }
        mem.write_u64(*addrs.last().unwrap(), 0);
        let mut bind = prog.bindings();
        bind.bind_var(head, addrs[0].0 as i64);
        let hints = analyze(&prog, &AnalysisConfig::default());
        let base = Interpreter::new(&prog, &bind).run(&mut mem).unwrap();
        let trace = HintView::new(&base, &hints, &prog, &bind).unwrap().to_trace();
        prop_assert_eq!(trace.loads() as usize, 2 * addrs.len());
        let r = run_trace(&trace, &mem, heap(), Scheme::GrpVar, &SimConfig::paper());
        prop_assert!(r.cycles > 0);
    }

    /// The hint map grows safely for arbitrary site ids and the hint bits
    /// round-trip.
    #[test]
    fn hint_map_round_trips(ids in proptest::collection::vec(0u32..10_000, 1..100)) {
        let mut m = HintMap::empty();
        for id in &ids {
            m.add_spatial(RefId(*id));
        }
        for id in &ids {
            prop_assert!(m.hint(RefId(*id)).spatial());
        }
    }
}
