//! Compiler hints as a replay-time view over one hint-free trace.
//!
//! The paper's hints are static annotations on one program (§3.3): the
//! dynamic reference stream is the same under every compiler
//! configuration. So the interpreter ([`crate::interp`]) runs a kernel
//! once, hint-free, and records beside its trace a side table of `For`
//! loop entries ([`BaseTrace`]). A [`HintView`] over that base trace and
//! one [`HintMap`] yields the event stream the kernel records under that
//! map:
//!
//! * every load and store carries its site's [`grp_cpu::HintSet`];
//! * a loop the map marks emits `SetLoopBound(trip)` at entry, and the
//!   compute batch pending there splits around it;
//! * an index load with an indirect directive is preceded by one
//!   `IndirectPrefetch` each time the site moves to a new index block.
//!
//! This module is the one place hints are applied to a trace.

use grp_cpu::{RefId, Trace, TraceEvent};
use grp_mem::Addr;

use crate::hintmap::HintMap;
use crate::interp::InterpError;
use crate::program::{Bindings, LoopId, Program};

/// One dynamic entry into a `For` loop, recorded by the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopEntry {
    /// Index, in the base trace's events, of the event the entry comes
    /// before: the compute batch pending at entry, or the next memory
    /// event when no batch is pending (the event count at the trace end).
    pub at: u64,
    /// Instructions of that pending batch issued before the entry.
    pub ops: u32,
    /// The loop entered.
    pub loop_id: LoopId,
    /// Its trip count, saturated to `u32`.
    pub trip: u32,
}

/// What one hint-free interpretation yields: the trace and, in trace
/// order, the loop entries a [`HintView`] may turn into `SetLoopBound`s.
#[derive(Debug, Clone, Default)]
pub struct BaseTrace {
    trace: Trace,
    loops: Vec<LoopEntry>,
}

impl BaseTrace {
    pub(crate) fn new(trace: Trace, loops: Vec<LoopEntry>) -> Self {
        Self { trace, loops }
    }

    /// The hint-free trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The recorded loop entries, in trace order.
    pub fn loops(&self) -> &[LoopEntry] {
        &self.loops
    }

    /// The hint-free trace, dropping the loop entries.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

/// One compiler configuration's hints over a [`BaseTrace`]: the event
/// stream of that configuration, produced on the fly. Collect it with
/// [`HintView::to_trace`] or replay it directly.
#[derive(Debug, Clone)]
pub struct HintView<'a> {
    base: &'a BaseTrace,
    hints: &'a HintMap,
    /// The loop entries of the loops `hints` marks, in trace order.
    marks: Vec<LoopEntry>,
    /// Per site: the indexed array's base address and element size.
    indirect: Vec<Option<(Addr, u32)>>,
}

impl<'a> HintView<'a> {
    /// The view of `hints` over `base`, resolving each indirect
    /// directive's target array through `bind`.
    ///
    /// # Errors
    ///
    /// [`InterpError::UnboundArray`] naming a directive's target array
    /// when `bind` gives it no base address.
    pub fn new(
        base: &'a BaseTrace,
        hints: &'a HintMap,
        prog: &Program,
        bind: &Bindings,
    ) -> Result<Self, InterpError> {
        let mut indirect = Vec::new();
        for (r, spec) in hints.iter_indirect() {
            let target = bind
                .array_base(spec.target)
                .ok_or_else(|| InterpError::UnboundArray(prog.array(spec.target).name.clone()))?;
            let i = r.0 as usize;
            if indirect.len() <= i {
                indirect.resize(i + 1, None);
            }
            indirect[i] = Some((target, spec.elem_size));
        }
        let marks = base
            .loops
            .iter()
            .filter(|e| hints.emits_bound(e.loop_id))
            .copied()
            .collect();
        Ok(Self {
            base,
            hints,
            marks,
            indirect,
        })
    }

    /// Dynamic load count (hints add no loads).
    pub fn loads(&self) -> u64 {
        self.base.trace.loads()
    }

    /// Dynamic load plus store count.
    pub fn memory_refs(&self) -> u64 {
        self.base.trace.memory_refs()
    }

    /// The hinted event stream, in trace order.
    pub fn events(&self) -> ViewEvents<'_> {
        ViewEvents {
            events: self.base.trace.events(),
            marks: &self.marks,
            hints: self.hints,
            indirect: &self.indirect,
            i: 0,
            mark: 0,
            next_at: self.marks.first().map_or(u64::MAX, |e| e.at),
            done: 0,
            held: None,
            last_block: vec![None; self.indirect.len()],
        }
    }

    /// The hinted stream collected into a finished trace.
    pub fn to_trace(&self) -> Trace {
        self.events().collect()
    }
}

/// Iterator over a [`HintView`]'s events.
#[derive(Debug, Clone)]
pub struct ViewEvents<'a> {
    events: &'a [TraceEvent],
    marks: &'a [LoopEntry],
    hints: &'a HintMap,
    indirect: &'a [Option<(Addr, u32)>],
    /// Next base event.
    i: usize,
    /// Next marked loop entry.
    mark: usize,
    /// Its base-event index (`u64::MAX` past the last).
    next_at: u64,
    /// Instructions of base event `i`'s compute batch already yielded
    /// ahead of a `SetLoopBound`.
    done: u32,
    /// A load waiting behind the `IndirectPrefetch` just yielded.
    held: Option<TraceEvent>,
    /// Per indirect site: the index block of its last prefetch.
    last_block: Vec<Option<u64>>,
}

impl ViewEvents<'_> {
    /// The `IndirectPrefetch` due before a load of site `ref_id` at
    /// `addr`: one per index block the site enters.
    fn indirect_before(&mut self, addr: Addr, ref_id: RefId) -> Option<TraceEvent> {
        let r = ref_id.0 as usize;
        let (base, elem_size) = (*self.indirect.get(r)?)?;
        let blk = addr.block().0;
        if self.last_block[r] == Some(blk) {
            return None;
        }
        self.last_block[r] = Some(blk);
        Some(TraceEvent::IndirectPrefetch {
            base,
            elem_size,
            index_addr: addr,
            ref_id,
        })
    }
}

impl Iterator for ViewEvents<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        if let Some(ev) = self.held.take() {
            return Some(ev);
        }
        loop {
            // A marked loop entry before base event `i`: the part of the
            // pending batch issued before the entry, then the bound.
            if self.i as u64 == self.next_at {
                let e = self.marks[self.mark];
                if e.ops > self.done {
                    let n = e.ops - self.done;
                    self.done = e.ops;
                    return Some(TraceEvent::Compute(n));
                }
                self.mark += 1;
                self.next_at = self.marks.get(self.mark).map_or(u64::MAX, |e| e.at);
                return Some(TraceEvent::SetLoopBound(e.trip));
            }
            let ev = *self.events.get(self.i)?;
            self.i += 1;
            return Some(match ev {
                TraceEvent::Compute(n) => {
                    let rest = n - std::mem::take(&mut self.done);
                    if rest == 0 {
                        // The whole batch went out ahead of a bound.
                        continue;
                    }
                    TraceEvent::Compute(rest)
                }
                TraceEvent::Load {
                    addr,
                    size,
                    ref_id,
                    dep,
                    ..
                } => {
                    let load = TraceEvent::Load {
                        addr,
                        size,
                        ref_id,
                        hints: self.hints.hint(ref_id),
                        dep,
                    };
                    match self.indirect_before(addr, ref_id) {
                        Some(prefetch) => {
                            self.held = Some(load);
                            prefetch
                        }
                        None => load,
                    }
                }
                TraceEvent::Store {
                    addr, size, ref_id, ..
                } => TraceEvent::Store {
                    addr,
                    size,
                    ref_id,
                    hints: self.hints.hint(ref_id),
                },
                other => other,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::hintmap::IndirectSpec;
    use crate::interp::Interpreter;
    use crate::types::ElemTy;
    use crate::ProgramBuilder;
    use grp_cpu::HintSet;
    use grp_mem::Memory;

    fn ld(addr: u64, ref_id: u32) -> TraceEvent {
        TraceEvent::Load {
            addr: Addr(addr),
            size: 8,
            ref_id: RefId(ref_id),
            hints: HintSet::none(),
            dep: None,
        }
    }

    fn entry(at: u64, ops: u32, loop_id: u32, trip: u32) -> LoopEntry {
        LoopEntry {
            at,
            ops,
            loop_id: LoopId(loop_id),
            trip,
        }
    }

    /// A base trace of `events` (pushed as a producer would) and `loops`.
    fn base(events: &[TraceEvent], loops: Vec<LoopEntry>) -> BaseTrace {
        BaseTrace::new(events.iter().copied().collect(), loops)
    }

    /// A one-array program, so views can be built without indirection.
    fn plain_program() -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.array("a", ElemTy::F64, &[4]);
        let prog = pb.finish(vec![]);
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x1000));
        (prog, bind)
    }

    fn view_events(base: &BaseTrace, hints: &HintMap) -> Vec<TraceEvent> {
        let (prog, bind) = plain_program();
        HintView::new(base, hints, &prog, &bind)
            .expect("view")
            .events()
            .collect()
    }

    fn marking(loops: &[u32]) -> HintMap {
        let mut hints = HintMap::empty();
        for &l in loops {
            hints.mark_loop_bound(LoopId(l));
        }
        hints
    }

    #[test]
    fn a_mark_splits_the_pending_compute_batch() {
        let b = base(
            &[TraceEvent::Compute(10), ld(0x100, 0)],
            vec![entry(0, 4, 0, 7)],
        );
        assert_eq!(
            view_events(&b, &marking(&[0])),
            vec![
                TraceEvent::Compute(4),
                TraceEvent::SetLoopBound(7),
                TraceEvent::Compute(6),
                ld(0x100, 0),
            ]
        );
        // An unmarked loop leaves the batch whole.
        assert_eq!(view_events(&b, &marking(&[1])), b.trace().events());
    }

    #[test]
    fn two_marks_in_one_batch() {
        // Entries at 0 and 10 ops of a 10-op batch: the bound comes
        // first, then the whole batch before the second bound, and no
        // empty tail.
        let b = base(
            &[TraceEvent::Compute(10), ld(0x100, 0)],
            vec![entry(0, 0, 0, 3), entry(0, 10, 1, 5)],
        );
        assert_eq!(
            view_events(&b, &marking(&[0, 1])),
            vec![
                TraceEvent::SetLoopBound(3),
                TraceEvent::Compute(10),
                TraceEvent::SetLoopBound(5),
                ld(0x100, 0),
            ]
        );
        // Two entries in the middle of a batch cut it in three.
        let b = base(
            &[TraceEvent::Compute(9), ld(0x100, 0)],
            vec![entry(0, 2, 0, 3), entry(0, 5, 0, 4)],
        );
        assert_eq!(
            view_events(&b, &marking(&[0])),
            vec![
                TraceEvent::Compute(2),
                TraceEvent::SetLoopBound(3),
                TraceEvent::Compute(3),
                TraceEvent::SetLoopBound(4),
                TraceEvent::Compute(4),
                ld(0x100, 0),
            ]
        );
    }

    #[test]
    fn marks_before_the_first_event_and_at_the_trace_end() {
        let b = base(
            &[ld(0x100, 0), TraceEvent::Compute(2)],
            vec![entry(0, 0, 0, 1), entry(2, 0, 0, 9)],
        );
        let got = view_events(&b, &marking(&[0]));
        assert_eq!(
            got,
            vec![
                TraceEvent::SetLoopBound(1),
                ld(0x100, 0),
                TraceEvent::Compute(2),
                TraceEvent::SetLoopBound(9),
            ]
        );
        let (prog, bind) = plain_program();
        let hints = marking(&[0]);
        let t = HintView::new(&b, &hints, &prog, &bind).unwrap().to_trace();
        assert_eq!(t.events(), got.as_slice());
        assert_eq!(t.instructions(), b.trace().instructions() + 2);
    }

    #[test]
    fn hints_attach_per_site() {
        let b = base(
            &[
                ld(0x100, 0),
                TraceEvent::Store {
                    addr: Addr(0x200),
                    size: 4,
                    ref_id: RefId(1),
                    hints: HintSet::none(),
                },
            ],
            vec![],
        );
        let mut hints = HintMap::empty();
        hints.add_spatial(RefId(0));
        hints.add_pointer(RefId(1));
        let got = view_events(&b, &hints);
        assert!(matches!(got[0], TraceEvent::Load { hints, .. } if hints.spatial()));
        assert!(matches!(got[1], TraceEvent::Store { hints, .. } if hints.pointer()));
    }

    #[test]
    fn indirect_prefetch_once_per_block_per_site() {
        let mut pb = ProgramBuilder::new("ind");
        let a = pb.array("a", ElemTy::F64, &[1024]);
        let prog = pb.finish(vec![]);
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x6_0000));
        // Site 0 walks 4-byte indices across two blocks; site 1 reads
        // the same blocks and gets its own prefetches.
        let events: Vec<TraceEvent> = [0x7_0000u64, 0x7_0004, 0x7_0040, 0x7_0044]
            .iter()
            .flat_map(|&x| [ld(x, 0), ld(x, 1)])
            .collect();
        let b = base(&events, vec![]);
        let mut hints = HintMap::empty();
        let spec = IndirectSpec {
            target: a,
            elem_size: 8,
        };
        hints.set_indirect(RefId(0), spec);
        hints.set_indirect(RefId(1), spec);
        let got: Vec<TraceEvent> = HintView::new(&b, &hints, &prog, &bind)
            .unwrap()
            .events()
            .collect();
        let prefetches: Vec<(u64, u32)> = got
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => {
                    assert_eq!((base, elem_size), (Addr(0x6_0000), 8));
                    Some((index_addr.0, ref_id.0))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            prefetches,
            vec![(0x7_0000, 0), (0x7_0000, 1), (0x7_0040, 0), (0x7_0040, 1)]
        );
        // Each prefetch sits right before the load it was derived from.
        assert_eq!(got[0], prefetch_for(&got[1]));
        assert_eq!(got.len(), events.len() + 4);
    }

    fn prefetch_for(load: &TraceEvent) -> TraceEvent {
        match *load {
            TraceEvent::Load { addr, ref_id, .. } => TraceEvent::IndirectPrefetch {
                base: Addr(0x6_0000),
                elem_size: 8,
                index_addr: addr,
                ref_id,
            },
            _ => panic!("not a load"),
        }
    }

    #[test]
    fn the_empty_hint_map_view_is_the_base_trace() {
        for w in [
            vec![TraceEvent::Compute(3), ld(0x100, 0), TraceEvent::Compute(1)],
            vec![ld(0x100, 0)],
            vec![],
        ] {
            let b = base(&w, vec![entry(0, 0, 0, 4), entry(1, 0, 1, 2)]);
            let (prog, bind) = plain_program();
            let empty = HintMap::empty();
            let view = HintView::new(&b, &empty, &prog, &bind).unwrap();
            assert_eq!(view.events().collect::<Vec<_>>(), b.trace().events());
            let t = view.to_trace();
            assert_eq!(t.instructions(), b.trace().instructions());
            assert_eq!(t.loads(), view.loads());
        }
    }

    #[test]
    fn an_unbound_indirect_target_fails_by_name() {
        let mut pb = ProgramBuilder::new("ub");
        let data = pb.array("data", ElemTy::F64, &[8]);
        let prog = pb.finish(vec![]);
        let bind = prog.bindings();
        let mut hints = HintMap::empty();
        hints.set_indirect(
            RefId(0),
            IndirectSpec {
                target: data,
                elem_size: 8,
            },
        );
        let b = BaseTrace::default();
        let err = HintView::new(&b, &hints, &prog, &bind).unwrap_err();
        assert_eq!(err, InterpError::UnboundArray("data".into()));
    }

    #[test]
    fn interpreted_loop_entries_become_bounds_when_marked() {
        // for i in 0..32 { s = a[i] } with 100 ops of work before it.
        let mut pb = ProgramBuilder::new("vb");
        let a = pb.array("a", ElemTy::F64, &[32]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![
            work(100),
            for_(
                i,
                c(0),
                c(32),
                1,
                vec![assign(s, load(arr(a, vec![var(i)])))],
            ),
        ]);
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x5_0000));
        let b = Interpreter::new(&prog, &bind)
            .run(&mut Memory::new())
            .unwrap();
        assert_eq!(b.loops(), &[entry(0, 100, 0, 32)]);
        let mut hints = HintMap::sized(prog.num_refs, prog.num_loops);
        hints.mark_loop_bound(LoopId(0));
        let t = HintView::new(&b, &hints, &prog, &bind).unwrap().to_trace();
        assert_eq!(
            &t.events()[..2],
            &[TraceEvent::Compute(100), TraceEvent::SetLoopBound(32)]
        );
        assert_eq!(t.loads(), 32);
        assert_eq!(t.instructions(), b.trace().instructions() + 1);
    }
}
