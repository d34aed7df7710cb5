//! System-level reference oracle and the differential observer.
//!
//! [`OracleSystem`] re-implements the scheme-independent memory semantics
//! of [`MemSystem`](crate::MemSystem) — L1/L2 lookup, MSHR merge and
//! wait-for-free-register loops, DRAM demand issue, fill propagation and
//! writeback — on top of the deliberately naive `grp_mem::oracle` models,
//! with no prefetch engine, no observer seam, no binary heap, and no
//! bit-twiddling. [`OracleObserver`] drives it from inside a no-prefetch
//! [`Replay`](crate::Replay) of any [`EventSource`](crate::EventSource):
//! every demand access is compared (branch taken and completion cycle),
//! then the end state (cache and DRAM stats, per-site attribution, final
//! cache contents). That turns "the optimization was correct once" into
//! a standing gate on the one replay loop production uses.

use grp_cpu::RefId;
use grp_mem::oracle::{OracleCache, OracleDram, OracleMshr};
use grp_mem::{Addr, BlockAddr, Cache, Dram, DramStats, InsertPriority, RequestKind};

use crate::config::SimConfig;
use crate::faults::{FaultAction, FaultPlan, FaultState};
use crate::obs::{AccessClass, Observer};
use crate::result::RunResult;

/// Success summary from [`OracleObserver::verdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffReport {
    /// Demand accesses (loads + stores) compared event-for-event.
    pub accesses: u64,
    /// Final core cycle count.
    pub cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OracleFillLevel {
    L2,
    L1 { dirty: bool },
}

#[derive(Debug, Clone, Copy)]
struct OracleFill {
    time: u64,
    block: BlockAddr,
    level: OracleFillLevel,
}

impl OracleFill {
    /// Same total order the optimized system's fill heap uses: time,
    /// then block, with L1 fills before L2 fills on a full tie.
    fn key(&self) -> (u64, u64, bool) {
        (
            self.time,
            self.block.0,
            matches!(self.level, OracleFillLevel::L2),
        )
    }
}

/// The naive no-prefetch memory system: same contract as
/// [`MemSystem`](crate::MemSystem) with a
/// [`NoPrefetcher`](crate::engine::NoPrefetcher), obviously
/// simple machinery.
#[derive(Debug, Clone)]
pub struct OracleSystem {
    cfg: SimConfig,
    l1: OracleCache,
    l2: OracleCache,
    l1_mshrs: OracleMshr,
    l2_mshrs: OracleMshr,
    dram: OracleDram,
    /// Pending fills as a plain unordered vector; processing repeatedly
    /// extracts the minimum-key element.
    fills: Vec<OracleFill>,
    /// High-water mark of observed time. Like the optimized system, the
    /// oracle never rewinds: an access issued at `t < cursor` (dependent
    /// loads can reorder issue times) still sees every fill applied up
    /// to the cursor.
    cursor: u64,
    attribution: Vec<u64>,
    /// Mirror of the optimized system's fault plan, applied at the same
    /// simulation points (before each fill, and when time advances) so a
    /// faulted differential run stays comparable.
    faults: Option<FaultState>,
}

impl OracleSystem {
    /// Builds the oracle with the same geometry as the system under test.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            l1: OracleCache::new(cfg.l1),
            l2: OracleCache::new(cfg.l2),
            l1_mshrs: OracleMshr::new(cfg.l1_mshrs),
            l2_mshrs: OracleMshr::new(cfg.l2_mshrs),
            dram: OracleDram::new(cfg.dram),
            fills: Vec::new(),
            cursor: 0,
            attribution: Vec::new(),
            faults: None,
            cfg,
        }
    }

    /// Arms the same fault plan as the optimized system under test.
    /// Prefetch-only faults (delayed/dropped fills, queue pressure) have
    /// no effect on the oracle's no-prefetch semantics; channel stalls,
    /// outages, and the MSHR squeeze are mirrored exactly.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    fn apply_faults(&mut self, now: u64) {
        if self.faults.is_none() {
            return;
        }
        while let Some(action) = self.faults.as_mut().unwrap().next_action(now) {
            match action {
                FaultAction::StallChannel {
                    channel,
                    until,
                    demands_too,
                } => self.dram.stall_channel(channel, until, demands_too),
                FaultAction::SetMshrSqueeze(n) => self.l2_mshrs.set_capacity_squeeze(n),
                FaultAction::SetQueuePressure(_) => {}
            }
        }
    }

    /// The naive L1 model.
    pub fn l1(&self) -> &OracleCache {
        &self.l1
    }

    /// The naive L2 model.
    pub fn l2(&self) -> &OracleCache {
        &self.l2
    }

    /// The naive DRAM model.
    pub fn dram(&self) -> &OracleDram {
        &self.dram
    }

    /// Per-reference L2 demand-miss counts, indexed by ref id.
    pub fn attribution(&self) -> &[u64] {
        &self.attribution
    }

    fn pop_fill_due(&mut self, t: u64) -> Option<OracleFill> {
        let (i, f) = self.fills.iter().enumerate().min_by_key(|(_, f)| f.key())?;
        if f.time > t {
            return None;
        }
        let f = *f;
        self.fills.swap_remove(i);
        Some(f)
    }

    /// Applies every pending fill due at or before `max(cursor, t)`, in
    /// fill-key order, then advances the cursor — time never rewinds,
    /// matching the optimized system's monotone clock.
    pub fn advance_to(&mut self, t: u64) {
        let horizon = self.cursor.max(t);
        while let Some(f) = self.pop_fill_due(horizon) {
            // Fault actions interleave with fills by timestamp, exactly
            // as in the optimized system's advance loop.
            self.apply_faults(f.time);
            self.process_fill(f);
        }
        self.apply_faults(horizon);
        self.cursor = horizon;
    }

    fn schedule_fill(&mut self, time: u64, block: BlockAddr, level: OracleFillLevel) {
        self.fills.push(OracleFill { time, block, level });
        match level {
            OracleFillLevel::L1 { .. } => self.l1_mshrs.set_fill_time(block, time),
            OracleFillLevel::L2 => self.l2_mshrs.set_fill_time(block, time),
        }
    }

    fn insert_l2(&mut self, block: BlockAddr, fill_time: u64) {
        if let Some((vb, dirty, _)) = self.l2.fill(block, InsertPriority::Mru, false, false) {
            if dirty {
                self.dram.issue(vb, RequestKind::Writeback, fill_time);
            }
        }
    }

    fn insert_l1(&mut self, block: BlockAddr, dirty: bool, fill_time: u64) {
        if let Some((vb, vdirty, _)) = self.l1.fill(block, InsertPriority::Mru, false, dirty) {
            if vdirty && !self.l2.set_dirty(vb) {
                self.dram.issue(vb, RequestKind::Writeback, fill_time);
            }
        }
    }

    fn process_fill(&mut self, f: OracleFill) {
        match f.level {
            OracleFillLevel::L1 { dirty } => {
                self.l1_mshrs.complete(f.block);
                self.insert_l1(f.block, dirty, f.time);
            }
            OracleFillLevel::L2 => {
                let entry = self
                    .l2_mshrs
                    .complete(f.block)
                    .expect("oracle: L2 fill without MSHR entry");
                self.insert_l2(f.block, f.time);
                if entry.demand {
                    self.l1_mshrs.complete(f.block);
                    self.insert_l1(f.block, entry.dirty_on_fill, f.time);
                }
            }
        }
    }

    /// Performs a demand access issued at cycle `t`; returns how it
    /// resolved and its completion cycle.
    pub fn access(&mut self, addr: Addr, t: u64, ref_id: RefId, write: bool) -> (AccessClass, u64) {
        self.advance_to(t);
        let block = addr.block();
        let mut now = t;

        if self.l1.access(block, write) {
            return (AccessClass::L1Hit, now + self.cfg.l1_latency);
        }
        if let Some(ft) = self.l1_mshrs.fill_time(block) {
            self.l1_mshrs.allocate_or_merge(block, true, write);
            return (AccessClass::L1Merge, ft.max(now + self.cfg.l1_latency));
        }
        while self.l1_mshrs.is_full() {
            let wake = self
                .l1_mshrs
                .earliest_fill_time()
                .expect("oracle: full L1 MSHRs imply pending completions")
                .max(now + 1);
            self.advance_to(wake);
            now = wake;
        }
        let l2_time = now + self.cfg.l1_latency;

        if self.l2.access(block, false) {
            let done = l2_time + self.cfg.l2_latency;
            self.l1_mshrs.allocate_or_merge(block, true, write);
            self.schedule_fill(done, block, OracleFillLevel::L1 { dirty: write });
            return (AccessClass::L2Hit, done);
        }

        let ri = ref_id.0 as usize;
        if self.attribution.len() <= ri {
            self.attribution.resize(ri + 1, 0);
        }
        self.attribution[ri] += 1;

        if let Some(ft) = self.l2_mshrs.fill_time(block) {
            self.l2_mshrs.allocate_or_merge(block, true, write);
            self.l1_mshrs.allocate_or_merge(block, true, write);
            self.l1_mshrs.set_fill_time(block, ft);
            return (AccessClass::L2Merge, ft.max(l2_time + self.cfg.l2_latency));
        }
        let mut issue = l2_time + self.cfg.l2_latency;
        while self.l2_mshrs.is_full() {
            let wake = self
                .l2_mshrs
                .earliest_fill_time()
                .expect("oracle: full L2 MSHRs imply pending completions")
                .max(issue + 1);
            self.advance_to(wake);
            issue = wake;
        }
        let req = self.dram.issue(block, RequestKind::Demand, issue);
        self.l1_mshrs.allocate_or_merge(block, true, write);
        self.l1_mshrs.set_fill_time(block, req.complete_at);
        self.l2_mshrs.allocate_or_merge(block, true, write);
        self.schedule_fill(req.complete_at, block, OracleFillLevel::L2);
        (AccessClass::DramDemand, req.complete_at)
    }

    /// Drains every remaining pending fill, in fill-key order.
    pub fn finish(&mut self, final_cycle: u64) {
        self.advance_to(final_cycle);
        self.advance_to(u64::MAX);
    }
}

/// The no-prefetch oracle differential as an [`Observer`].
///
/// Attach it to a [`Scheme::NoPrefetch`](crate::Scheme::NoPrefetch)
/// replay with the same fault plan armed on both, then call
/// [`OracleObserver::verdict`] with the replay's result:
///
/// ```
/// # use grp_core::{OracleObserver, Replay, Scheme, SimConfig};
/// # use grp_cpu::{HintSet, PackedTrace, RefId, Trace};
/// # use grp_mem::{Addr, HeapRange, Memory};
/// # let mut t = Trace::new();
/// # for i in 0..256u64 {
/// #     t.push_load(Addr(0x10_0000 + i * 8), 8, RefId(0), HintSet::none(), None);
/// # }
/// # t.finish();
/// # let (mem, cfg) = (Memory::new(), SimConfig::paper());
/// # let heap = HeapRange { start: Addr(0x10_0000), end: Addr(0x20_0000) };
/// let (result, oracle) = Replay::new(&mem, heap, Scheme::NoPrefetch, &cfg)
///     .observer(OracleObserver::new(&cfg, None))
///     .run(&PackedTrace::pack(&t).unwrap());
/// assert_eq!(oracle.verdict(&result).unwrap().accesses, 256);
/// ```
///
/// Each access reaches the oracle at the issue cycle the replay
/// computed, which equals the oracle's own until the first divergence;
/// the observer records that divergence and stops driving the oracle.
#[derive(Debug, Clone)]
pub struct OracleObserver {
    oracle: OracleSystem,
    accesses: u64,
    divergence: Option<String>,
    /// The optimized side's DRAM stats and final L1/L2 contents.
    end: Option<(DramStats, Contents, Contents)>,
}

/// Resident blocks with their dirty bits, in block order.
type Contents = Vec<(BlockAddr, bool)>;

impl OracleObserver {
    /// An oracle for a replay on `cfg`. `plan` must be the fault plan
    /// armed on that replay, if any: the oracle mirrors it.
    pub fn new(cfg: &SimConfig, plan: Option<&FaultPlan>) -> Self {
        let mut oracle = OracleSystem::new(*cfg);
        if let Some(plan) = plan {
            oracle.install_faults(plan);
        }
        OracleObserver {
            oracle,
            accesses: 0,
            divergence: None,
            end: None,
        }
    }

    /// Checks the observed replay, whose result is `result`: every access
    /// agreed, then the L1/L2 stats, DRAM stats, per-site attribution, and
    /// final cache contents with dirty bits all match the oracle's.
    ///
    /// # Errors
    ///
    /// A message naming the first diverging access or end-state field.
    pub fn verdict(mut self, result: &RunResult) -> Result<DiffReport, String> {
        if let Some(e) = self.divergence {
            return Err(e);
        }
        let (dram, l1, l2) = self.end.ok_or("the replay never reached its end state")?;
        let oracle = &mut self.oracle;
        oracle.finish(result.cycles);
        agree("L1 stats", &result.l1, oracle.l1().stats())?;
        agree("L2 stats", &result.l2, oracle.l2().stats())?;
        agree("DRAM stats", &dram, oracle.dram().stats())?;
        if result.attribution.counts() != oracle.attribution() {
            return Err("per-site miss attribution diverges".to_string());
        }
        contents_agree("L1", &l1, &oracle.l1().resident_blocks())?;
        contents_agree("L2", &l2, &oracle.l2().resident_blocks())?;
        Ok(DiffReport {
            accesses: self.accesses,
            cycles: result.cycles,
        })
    }
}

impl Observer for OracleObserver {
    fn demand_access(
        &mut self,
        addr: Addr,
        ref_id: RefId,
        write: bool,
        issue: u64,
        class: AccessClass,
        done: u64,
    ) {
        if self.divergence.is_some() {
            return;
        }
        self.accesses += 1;
        let (oclass, odone) = self.oracle.access(addr, issue, ref_id, write);
        if (oclass, odone) != (class, done) {
            let kind = if write { "store" } else { "load" };
            self.divergence = Some(format!(
                "access {} diverges ({kind} {:#x} issued at {issue}): \
                 optimized {class:?}@{done}, oracle {oclass:?}@{odone}",
                self.accesses, addr.0
            ));
        }
    }

    fn end_state(&mut self, l1: &Cache, l2: &Cache, dram: &Dram) {
        self.end = Some((*dram.stats(), l1.resident_blocks(), l2.resident_blocks()));
    }
}

fn agree<T: PartialEq + std::fmt::Debug>(what: &str, real: &T, oracle: &T) -> Result<(), String> {
    if real != oracle {
        return Err(format!(
            "{what} diverge:\n  optimized {real:?}\n  oracle    {oracle:?}"
        ));
    }
    Ok(())
}

fn contents_agree(
    level: &str,
    real: &[(BlockAddr, bool)],
    oracle: &[(BlockAddr, bool)],
) -> Result<(), String> {
    if real == oracle {
        return Ok(());
    }
    let i = real
        .iter()
        .zip(oracle.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(real.len().min(oracle.len()));
    Err(format!(
        "{level} final contents diverge at sorted index {i}: \
         optimized has {} lines ({:?}…), oracle has {} lines ({:?}…)",
        real.len(),
        real.get(i),
        oracle.len(),
        oracle.get(i)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::sim::{EventSource, PlantedBug, Replay};
    use grp_cpu::{HintSet, PackedTrace, Trace};
    use grp_mem::{HeapRange, Memory};

    fn heap() -> HeapRange {
        HeapRange {
            start: Addr(0x10_0000),
            end: Addr(0x100_0000),
        }
    }

    /// The differential of one no-prefetch replay of `src`, with `plan`
    /// armed on both systems and `bug` planted in the optimized one.
    fn differential<S: EventSource + ?Sized>(
        src: &S,
        plan: Option<&FaultPlan>,
        bug: Option<PlantedBug>,
    ) -> Result<DiffReport, String> {
        let (mem, cfg) = (Memory::new(), SimConfig::paper());
        let mut replay = Replay::new(&mem, heap(), Scheme::NoPrefetch, &cfg)
            .observer(OracleObserver::new(&cfg, plan))
            .plant(bug);
        if let Some(plan) = plan {
            replay = replay.faults(plan);
        }
        let (result, oracle) = replay.run(src);
        oracle.verdict(&result)
    }

    /// A mixed workload exercising every access path: streaming loads,
    /// conflict-evicting strides, dependent chains, and stores.
    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..4_000u64 {
            t.push_load(Addr(0x20_0000 + i * 8), 8, RefId(0), HintSet::none(), None);
            if i % 3 == 0 {
                t.push_store(
                    Addr(0x40_0000 + (i % 512) * 64),
                    8,
                    RefId(1),
                    HintSet::none(),
                );
            }
            t.push_compute((i % 7) as u32);
        }
        let mut prev = None;
        for i in 0..256u64 {
            let s = t.push_load(
                Addr(0x60_0000 + i * 4096),
                8,
                RefId(2),
                HintSet::none(),
                prev,
            );
            prev = Some(s);
        }
        t.finish();
        t
    }

    fn packed_mixed_trace() -> PackedTrace {
        PackedTrace::pack(&mixed_trace()).expect("mixed trace packs")
    }

    #[test]
    fn differential_passes_on_mixed_trace() {
        let rep = differential(&mixed_trace(), None, None)
            .expect("optimized system must match the oracle");
        assert!(rep.accesses > 5_000);
        assert!(rep.cycles > 0);
        let packed = differential(&packed_mixed_trace(), None, None)
            .expect("a packed replay must match the oracle");
        assert_eq!(packed, rep, "both trace forms check the same replay");
    }

    #[test]
    fn differential_passes_under_mshr_pressure() {
        // Dense all-miss loads saturate both MSHR files, exercising the
        // wait-for-free-register loops in both systems.
        let mut t = Trace::new();
        for i in 0..2_000u64 {
            t.push_load(
                Addr(0x20_0000 + i * 4096),
                8,
                RefId(0),
                HintSet::none(),
                None,
            );
        }
        t.finish();
        differential(&t, None, None).expect("MSHR-pressure trace must match");
    }

    #[test]
    fn differential_passes_under_every_builtin_fault_plan() {
        // The degradation contract: demand correctness survives every
        // built-in fault plan. The same plan is armed on both systems,
        // so stalls, outages, and MSHR squeezes land identically.
        let (trace, packed) = (mixed_trace(), packed_mixed_trace());
        for (name, plan) in FaultPlan::builtin() {
            differential(&trace, Some(&plan), None)
                .unwrap_or_else(|e| panic!("faulted differential '{name}' failed: {e}"));
            differential(&packed, Some(&plan), None)
                .unwrap_or_else(|e| panic!("packed faulted differential '{name}' failed: {e}"));
        }
    }

    #[test]
    fn differential_catches_injected_replacement_bug() {
        let bug = Some(PlantedBug::EvictMru);
        for err in [
            differential(&mixed_trace(), None, bug),
            differential(&packed_mixed_trace(), None, bug),
        ] {
            let err = err.expect_err("evict-MRU fault must be detected");
            assert!(err.contains("diverge"), "error names the divergence: {err}");
        }
    }
}
