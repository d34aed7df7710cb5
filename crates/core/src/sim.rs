//! The trace-replay simulator: core window + memory system.

use grp_cpu::{PackedTrace, Trace, TraceEvent, Window};
use grp_mem::{HeapRange, Memory, TrafficStats};

use crate::config::{Scheme, SimConfig};
use crate::engine::region::{RegionConfig, RegionPrefetcher};
use crate::engine::stride::{StrideConfig, StridePrefetcher};
use crate::engine::{NoPrefetcher, Prefetcher};
use crate::faults::FaultPlan;
use crate::memsys::MemSystem;
use crate::obs::{NullObserver, Observer};
use crate::result::RunResult;

/// Builds the prefetch engine a scheme calls for.
pub fn engine_for(scheme: Scheme, cfg: &SimConfig) -> Box<dyn Prefetcher> {
    match scheme {
        Scheme::NoPrefetch | Scheme::PerfectL1 | Scheme::PerfectL2 => Box::new(NoPrefetcher),
        Scheme::Stride => Box::new(StridePrefetcher::new(StrideConfig::default())),
        Scheme::Srp => Box::new(RegionPrefetcher::new(RegionConfig::srp(cfg.prefetch_queue))),
        Scheme::GrpFix => Box::new(RegionPrefetcher::new(region_cfg(cfg, false))),
        // The §5.4 policy variants are GRP/Var with a different *compiler*
        // policy; the engine is the full variable-size one.
        Scheme::GrpVar | Scheme::GrpAggressive | Scheme::GrpConservative => {
            Box::new(RegionPrefetcher::new(region_cfg(cfg, true)))
        }
        Scheme::HwPointer => Box::new(RegionPrefetcher::new(RegionConfig::hw_pointer(
            cfg.prefetch_queue,
            cfg.hw_pointer_depth,
        ))),
        Scheme::SrpPointer => {
            let mut rc = RegionConfig::srp(cfg.prefetch_queue);
            rc.pointer_mode = crate::engine::region::PointerMode::AllMisses(cfg.hw_pointer_depth);
            Box::new(RegionPrefetcher::new(rc))
        }
        Scheme::GrpPointer => Box::new(RegionPrefetcher::new(RegionConfig::grp_pointer(
            cfg.prefetch_queue,
            cfg.recursive_depth,
        ))),
    }
}

fn region_cfg(cfg: &SimConfig, varsize: bool) -> RegionConfig {
    let mut rc = RegionConfig::grp(cfg.prefetch_queue, varsize, cfg.recursive_depth);
    rc.fifo = cfg.fifo_queue;
    rc
}

/// A replayable event stream: yields a trace's events in trace order.
///
/// The materialized [`Trace`] and the packed [`PackedTrace`] both
/// implement it, so the replay loop ([`Replay::run`]) is written once
/// and the two representations cannot drift apart.
pub trait EventSource {
    /// Dynamic load count (sizes the dependency-completion table).
    fn loads(&self) -> u64;
    /// The events, in trace order.
    fn iter_events(&self) -> impl Iterator<Item = TraceEvent> + '_;
}

impl EventSource for Trace {
    fn loads(&self) -> u64 {
        Trace::loads(self)
    }

    fn iter_events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events().iter().copied()
    }
}

impl EventSource for PackedTrace {
    fn loads(&self) -> u64 {
        PackedTrace::loads(self)
    }

    fn iter_events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events()
    }
}

/// Replays a hinted trace through the timing model.
///
/// `mem` supplies the data values the pointer-scan and indirect engines
/// read; `heap` bounds the pointer base-and-bounds test. Shorthand for
/// `Replay::new(mem, heap, scheme, cfg).run(trace).0`.
pub fn run_trace(
    trace: &Trace,
    mem: &Memory,
    heap: HeapRange,
    scheme: Scheme,
    cfg: &SimConfig,
) -> RunResult {
    Replay::new(mem, heap, scheme, cfg).run(trace).0
}

/// One replay of an [`EventSource`] through the timing model, with
/// optional extras: a caller-supplied engine (ablations), an
/// [`Observer`], and a [`FaultPlan`].
///
/// ```
/// # use grp_core::{FaultPlan, LifecycleTracer, Replay, Scheme, SimConfig};
/// # use grp_cpu::{HintSet, PackedTrace, RefId, Trace};
/// # use grp_mem::{Addr, HeapRange, Memory};
/// # let mut t = Trace::new();
/// # for i in 0..256u64 {
/// #     t.push_load(Addr(0x10_0000 + i * 8), 8, RefId(0), HintSet::none(), None);
/// # }
/// # t.finish();
/// # let (mem, cfg) = (Memory::new(), SimConfig::paper());
/// # let heap = HeapRange { start: Addr(0x10_0000), end: Addr(0x20_0000) };
/// let plan = FaultPlan::none();
/// let (a, _) = Replay::new(&mem, heap, Scheme::Srp, &cfg).run(&t);
/// let (b, tracer) = Replay::new(&mem, heap, Scheme::Srp, &cfg)
///     .observer(LifecycleTracer::new())
///     .faults(&plan)
///     .run(&PackedTrace::pack(&t).unwrap());
/// assert_eq!(a, b);
/// assert_eq!(tracer.issued(), a.prefetches_issued);
/// ```
pub struct Replay<'a, O = NullObserver> {
    mem: &'a Memory,
    heap: HeapRange,
    scheme: Scheme,
    cfg: &'a SimConfig,
    engine: Option<Box<dyn Prefetcher>>,
    obs: O,
    faults: Option<&'a FaultPlan>,
    bug: Option<PlantedBug>,
}

/// A deliberate bug [`Replay::plant`] arms, so the `check` gate can
/// prove it has teeth.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// Both caches evict the MRU way instead of the LRU way; the oracle
    /// differential must catch it.
    EvictMru,
    /// A dropped prefetch fill forgets to release its L2 MSHR register;
    /// the end-of-run structural check and lifecycle conservation must
    /// catch it.
    DropLeak,
}

impl<'a> Replay<'a> {
    /// A plain replay of `scheme` on `cfg`: the scheme's own engine
    /// ([`engine_for`]), no observer, no faults.
    pub fn new(mem: &'a Memory, heap: HeapRange, scheme: Scheme, cfg: &'a SimConfig) -> Self {
        Replay {
            mem,
            heap,
            scheme,
            cfg,
            engine: None,
            obs: NullObserver,
            faults: None,
            bug: None,
        }
    }
}

impl<'a, O: Observer> Replay<'a, O> {
    /// Replays through `engine` instead of the scheme's own.
    pub fn engine(mut self, engine: Box<dyn Prefetcher>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Threads `obs` through the replay; [`Replay::run`] hands it back.
    /// With [`NullObserver`] (the default) the loop monomorphizes to
    /// the unobserved replay.
    pub fn observer<P: Observer>(self, obs: P) -> Replay<'a, P> {
        Replay {
            mem: self.mem,
            heap: self.heap,
            scheme: self.scheme,
            cfg: self.cfg,
            engine: self.engine,
            obs,
            faults: self.faults,
            bug: self.bug,
        }
    }

    /// Arms `plan`. An empty plan yields a bit-identical result to the
    /// unfaulted run; every injected fault is reported through the
    /// observer's fault hooks.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Plants `bug` in the memory system (`None` plants nothing): the
    /// seam behind the `check` gate's `--inject` teeth tests.
    #[doc(hidden)]
    pub fn plant(mut self, bug: Option<PlantedBug>) -> Self {
        self.bug = bug;
        self
    }

    /// Replays `src` and returns the result with the observer.
    pub fn run<S: EventSource + ?Sized>(self, src: &S) -> (RunResult, O) {
        let (scheme, cfg) = (self.scheme, self.cfg);
        let engine = self.engine.unwrap_or_else(|| engine_for(scheme, cfg));
        let mut window = Window::new(cfg.window);
        let mut ms = MemSystem::with_observer(
            *cfg,
            scheme.ideal_mode(),
            engine,
            self.mem,
            self.heap,
            self.obs,
        );
        if let Some(plan) = self.faults {
            ms.install_faults(plan);
        }
        if let Some(bug) = self.bug {
            ms.plant(bug);
        }
        let mut events = 0u64;
        let mut load_completions: Vec<u64> = Vec::with_capacity(src.loads() as usize);
        let mut load_latency_sum = 0u64;

        for ev in src.iter_events() {
            match ev {
                TraceEvent::Compute(n) => window.dispatch_compute(n as u64),
                TraceEvent::Load {
                    addr,
                    ref_id,
                    hints,
                    dep,
                    ..
                } => {
                    let d = window.prepare_dispatch(1);
                    // An address dependency delays issue until the
                    // producing load's value returns (pointer chasing
                    // serializes).
                    let issue = match dep {
                        Some(seq) => d.max(load_completions[seq as usize]),
                        None => d,
                    };
                    let done = ms.load(addr, issue, ref_id, hints);
                    load_latency_sum += done - issue;
                    load_completions.push(done);
                    window.push(1, done);
                }
                TraceEvent::Store {
                    addr,
                    ref_id,
                    hints,
                    ..
                } => {
                    let d = window.prepare_dispatch(1);
                    // Stores retire through the write buffer: the window
                    // entry completes immediately; the fill proceeds in
                    // background.
                    ms.store(addr, d, ref_id, hints);
                    window.push(1, d + 1);
                }
                TraceEvent::SetLoopBound(b) => {
                    let d = window.prepare_dispatch(1);
                    ms.set_loop_bound(b);
                    window.push(1, d + 1);
                }
                TraceEvent::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ..
                } => {
                    let d = window.prepare_dispatch(1);
                    ms.indirect_prefetch(base, elem_size, index_addr, d);
                    window.push(1, d + 1);
                }
            }
            // Epoch heartbeat: counted per committed trace event, stamped
            // with retired-instruction and core-cycle progress. Compiled
            // out (with the counter) when the observer is the no-op
            // default.
            if O::ENABLED {
                events += 1;
                ms.epoch_tick(events, window.dispatched(), window.now());
            }
        }

        let cycles = window.finish();
        ms.finish(cycles);

        let result = RunResult {
            scheme,
            cycles,
            instructions: window.retired(),
            l1: *ms.l1().stats(),
            l2: *ms.l2().stats(),
            traffic: TrafficStats::from_dram(ms.dram().stats()),
            engine: ms.engine().stats(),
            prefetches_issued: ms.prefetches_issued(),
            late_prefetch_merges: ms.l2_mshrs().late_prefetch_merges(),
            resident_unused_prefetches: ms.l2().resident_unused_prefetches(),
            attribution: ms.attribution().clone(),
            load_latency_sum,
        };
        (result, ms.into_observer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use grp_cpu::{HintSet, RefId};
    use grp_mem::Addr;

    fn heap() -> HeapRange {
        HeapRange {
            start: Addr(0x10_0000),
            end: Addr(0x100_0000),
        }
    }

    /// A streaming trace: `n` sequential 8-byte loads with `gap` compute
    /// instructions between them.
    fn stream_trace(n: u64, gap: u32, hints: HintSet) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push_load(Addr(0x20_0000 + i * 8), 8, RefId(0), hints, None);
            t.push_compute(gap);
        }
        t.finish();
        t
    }

    #[test]
    fn srp_beats_no_prefetch_on_streams() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = stream_trace(20_000, 4, HintSet::none());
        let base = run_trace(&trace, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let srp = run_trace(&trace, &mem, heap(), Scheme::Srp, &cfg);
        assert!(
            srp.cycles < base.cycles * 9 / 10,
            "SRP speeds up streaming: {} vs {}",
            srp.cycles,
            base.cycles
        );
        assert!(srp.traffic.prefetch_blocks > 0);
    }

    #[test]
    fn grp_matches_srp_on_hinted_streams_without_it_on_unhinted() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let hinted = stream_trace(20_000, 4, HintSet::none().with_spatial());
        let unhinted = stream_trace(20_000, 4, HintSet::none());
        let grp_hinted = run_trace(&hinted, &mem, heap(), Scheme::GrpFix, &cfg);
        let grp_unhinted = run_trace(&unhinted, &mem, heap(), Scheme::GrpFix, &cfg);
        let base = run_trace(&unhinted, &mem, heap(), Scheme::NoPrefetch, &cfg);
        assert!(grp_hinted.cycles < base.cycles * 9 / 10);
        assert_eq!(
            grp_unhinted.traffic.prefetch_blocks, 0,
            "GRP without hints prefetches nothing"
        );
        assert!(grp_unhinted.cycles >= base.cycles * 99 / 100);
    }

    #[test]
    fn perfect_hierarchies_bound_everything() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = stream_trace(5_000, 4, HintSet::none());
        let base = run_trace(&trace, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let l2 = run_trace(&trace, &mem, heap(), Scheme::PerfectL2, &cfg);
        let l1 = run_trace(&trace, &mem, heap(), Scheme::PerfectL1, &cfg);
        assert!(l1.cycles <= l2.cycles);
        assert!(l2.cycles <= base.cycles);
        assert_eq!(l1.traffic.total_blocks(), 0);
        assert_eq!(l2.traffic.total_blocks(), 0);
    }

    #[test]
    fn stride_prefetching_helps_strided_streams() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        // Stride of 256 bytes with real compute between accesses (dense
        // all-miss streams saturate the MSHRs and leave no room for any
        // prefetcher): the stride engine must learn and cover it.
        let mut t = Trace::new();
        for i in 0..20_000u64 {
            t.push_load(
                Addr(0x20_0000 + i * 256),
                8,
                RefId(0),
                HintSet::none(),
                None,
            );
            t.push_compute(48);
        }
        t.finish();
        let base = run_trace(&t, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let stride = run_trace(&t, &mem, heap(), Scheme::Stride, &cfg);
        assert!(
            stride.cycles < base.cycles * 95 / 100,
            "stride engine learned the stream: {} vs {}",
            stride.cycles,
            base.cycles
        );
    }

    #[test]
    fn dependent_chain_is_slower_than_independent_loads() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        // Independent loads to distinct blocks.
        let mut ind = Trace::new();
        for i in 0..512u64 {
            ind.push_load(
                Addr(0x20_0000 + i * 4096),
                8,
                RefId(0),
                HintSet::none(),
                None,
            );
            ind.push_compute(2);
        }
        ind.finish();
        // Chained loads: each depends on the previous.
        let mut chain = Trace::new();
        let mut prev = None;
        for i in 0..512u64 {
            let s = chain.push_load(
                Addr(0x80_0000 + i * 4096),
                8,
                RefId(1),
                HintSet::none(),
                prev,
            );
            prev = Some(s);
            chain.push_compute(2);
        }
        chain.finish();
        let r_ind = run_trace(&ind, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let r_chain = run_trace(&chain, &mem, heap(), Scheme::NoPrefetch, &cfg);
        assert!(
            r_chain.cycles > r_ind.cycles * 2,
            "dependent chain serializes: {} vs {}",
            r_chain.cycles,
            r_ind.cycles
        );
    }

    #[test]
    fn srp_consumes_much_more_traffic_than_baseline() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        // Sparse access pattern: one block per region — SRP prefetches
        // 63 useless blocks per miss.
        let mut t = Trace::new();
        for i in 0..2_000u64 {
            t.push_load(
                Addr(0x20_0000 + i * 4096),
                8,
                RefId(0),
                HintSet::none(),
                None,
            );
            t.push_compute(64);
        }
        t.finish();
        let base = run_trace(&t, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let srp = run_trace(&t, &mem, heap(), Scheme::Srp, &cfg);
        assert!(
            srp.traffic_vs(&base) > 2.0,
            "sparse SRP wastes bandwidth: {}",
            srp.traffic_vs(&base)
        );
        // But performance must not collapse (prioritizer protects demand).
        assert!(srp.cycles < base.cycles * 21 / 20);
    }

    #[test]
    fn indirect_prefetch_drops_negative_indices_in_replay() {
        // Regression: an index block holding negative (corrupt or
        // uninitialized) i32 values used to wrap `base + idx * elem_size`
        // into a garbage high address and prefetch it. The engine must
        // drop out-of-range targets and count them, while still issuing
        // the valid entries from the same block.
        let mut mem = Memory::new();
        let index_addr = Addr(0x20_0000);
        for w in 0..16u64 {
            let v: i32 = match w % 4 {
                0 => i32::MIN,
                1 => -0x20_0000, // scaled past the base: target < 0
                _ => (w as i32) * 3,
            };
            mem.write_i32(Addr(index_addr.0 + w * 4), v);
        }
        let cfg = SimConfig::paper();
        let mut t = Trace::new();
        t.push_load(index_addr, 4, RefId(0), HintSet::none(), None);
        t.push_indirect_prefetch(Addr(0x40_0000), 4, index_addr, RefId(0));
        // Follow-on loads give the engine access slots to drain its queue.
        for i in 0..256u64 {
            t.push_load(Addr(0x60_0000 + i * 64), 8, RefId(1), HintSet::none(), None);
            t.push_compute(8);
        }
        t.finish();
        for scheme in [Scheme::GrpVar, Scheme::GrpPointer] {
            let r = run_trace(&t, &mem, heap(), scheme, &cfg);
            // 16 words per index block: 8 negative (w % 4 in {0, 1}),
            // 8 valid.
            assert_eq!(r.engine.indirect_dropped, 8, "{scheme:?}");
            assert_eq!(r.engine.indirect_entries, 8, "{scheme:?}");
        }
    }

    #[test]
    fn packed_replay_is_bit_identical_to_materialized() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        // A trace exercising every packed representation feature: deps
        // (chained loads), stores, pseudo-events adjacent to computes.
        let mut t = Trace::new();
        let mut prev = None;
        for i in 0..4_000u64 {
            let s = t.push_load(
                Addr(0x20_0000 + (i * 8) % 0x4_0000),
                8,
                RefId((i % 7) as u32),
                HintSet::none().with_spatial(),
                if i % 5 == 0 { prev } else { None },
            );
            prev = Some(s);
            if i % 3 == 0 {
                t.push_store(Addr(0x30_0000 + i * 16), 8, RefId(9), HintSet::none());
            }
            if i % 64 == 0 {
                t.push_compute(10);
                t.push_set_loop_bound((i % 1000) as u32);
                t.push_compute(5);
            }
            if i % 97 == 0 {
                t.push_indirect_prefetch(Addr(0x20_0000), 8, Addr(0x20_1000), RefId(11));
            }
            t.push_compute(4);
        }
        t.finish();
        let pt = PackedTrace::pack(&t).expect("pack");
        for scheme in Scheme::ALL {
            let materialized = run_trace(&t, &mem, heap(), scheme, &cfg);
            let packed = Replay::new(&mem, heap(), scheme, &cfg).run(&pt).0;
            assert_eq!(materialized, packed, "{scheme:?}");
        }
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_unfaulted_run() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = stream_trace(5_000, 4, HintSet::none().with_spatial());
        for scheme in [
            Scheme::NoPrefetch,
            Scheme::Srp,
            Scheme::GrpVar,
            Scheme::Stride,
        ] {
            let plain = run_trace(&trace, &mem, heap(), scheme, &cfg);
            let none = FaultPlan::none();
            let faulted = Replay::new(&mem, heap(), scheme, &cfg)
                .faults(&none)
                .run(&trace)
                .0;
            assert_eq!(plain, faulted, "{scheme:?}: empty plan must be inert");
        }
    }

    #[test]
    fn faulted_runs_complete_and_degrade_gracefully() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = stream_trace(10_000, 4, HintSet::none().with_spatial());
        let srp = run_trace(&trace, &mem, heap(), Scheme::Srp, &cfg);
        for (name, plan) in FaultPlan::builtin() {
            let faulted = Replay::new(&mem, heap(), Scheme::Srp, &cfg)
                .faults(&plan)
                .run(&trace)
                .0;
            // Demand correctness: the same loads retire, stats stay sane.
            assert_eq!(faulted.instructions, srp.instructions, "{name}");
            // Faults only remove capacity/timeliness, so a faulted
            // prefetcher never beats its unfaulted self.
            assert!(
                faulted.cycles >= srp.cycles,
                "{name}: faults cannot speed up a run"
            );
            // Graceful degradation: under the same fault plan, the
            // prefetching scheme lands in the vicinity of the
            // no-prefetch baseline — faults take away the benefit but
            // the prioritizer keeps prefetch traffic from compounding
            // the damage. Delayed fills are the one fault that can
            // actively hurt: a demand merging into an in-flight
            // prefetch MSHR inherits the delayed fill time (the block
            // is held hostage), so those plans get a wider bound.
            let faulted_base = Replay::new(&mem, heap(), Scheme::NoPrefetch, &cfg)
                .faults(&plan)
                .run(&trace)
                .0;
            let delays_fills = plan
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::DelayFills { .. }));
            let (num, den) = if delays_fills { (3, 1) } else { (5, 4) };
            assert!(
                faulted.cycles <= faulted_base.cycles * num / den,
                "{name}: degrades toward the no-prefetch baseline: {} vs faulted base {}",
                faulted.cycles,
                faulted_base.cycles
            );
        }
    }

    #[test]
    fn dropped_fills_are_refetched_on_demand() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = stream_trace(5_000, 4, HintSet::none());
        let (_, plan) = FaultPlan::builtin()
            .into_iter()
            .find(|(n, _)| *n == "dropped-fills")
            .unwrap();
        let srp = run_trace(&trace, &mem, heap(), Scheme::Srp, &cfg);
        let dropped = Replay::new(&mem, heap(), Scheme::Srp, &cfg)
            .faults(&plan)
            .run(&trace)
            .0;
        // Every prefetch loses its data, so the stream's misses come
        // back; the run degrades toward (and lands near) no-prefetch.
        assert!(
            dropped.l2.demand_misses > srp.l2.demand_misses,
            "dropping fills costs misses: {} vs {}",
            dropped.l2.demand_misses,
            srp.l2.demand_misses
        );
    }

    #[test]
    fn run_result_metrics_are_consistent() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = stream_trace(5_000, 16, HintSet::none());
        let base = run_trace(&trace, &mem, heap(), Scheme::NoPrefetch, &cfg);
        let srp = run_trace(&trace, &mem, heap(), Scheme::Srp, &cfg);
        assert_eq!(base.instructions, trace.instructions());
        assert!(base.ipc() > 0.0);
        assert!(srp.speedup_vs(&base) > 1.0);
        assert!(srp.coverage_vs(&base) > 0.5, "streaming coverage is high");
        assert!(srp.accuracy() > 0.5, "streaming accuracy is high");
        // Prefetching shortens the average load latency.
        assert!(
            srp.avg_load_latency(trace.loads()) < base.avg_load_latency(trace.loads()),
            "SRP {} vs base {}",
            srp.avg_load_latency(trace.loads()),
            base.avg_load_latency(trace.loads())
        );
    }
}
