//! System-level reference oracle and differential runner.
//!
//! [`OracleSystem`] re-implements the scheme-independent memory semantics
//! of [`MemSystem`](crate::MemSystem) — L1/L2 lookup, MSHR merge and
//! wait-for-free-register loops, DRAM demand issue, fill propagation and
//! writeback — on top of the deliberately naive `grp_mem::oracle` models,
//! with no prefetch engine, no observer seam, no binary heap, and no
//! bit-twiddling. Replaying a trace under no-prefetch through both
//! systems and comparing *every access* (hit/miss classification and
//! completion cycle) plus the end state (cycles, stats, final cache
//! contents) turns "the optimization was correct once" into a standing
//! gate: [`differential_check`] reports the first diverging access.

use grp_cpu::{RefId, Trace, TraceEvent, Window};
use grp_mem::oracle::{OracleCache, OracleDram, OracleMshr};
use grp_mem::{Addr, BlockAddr, HeapRange, InsertPriority, Memory, RequestKind};

use crate::config::{IdealMode, SimConfig};
use crate::engine::NoPrefetcher;
use crate::faults::{FaultAction, FaultPlan, FaultState};
use crate::memsys::MemSystem;

/// How a demand access resolved, at the granularity both systems can
/// classify from their externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Hit in the L1 data cache.
    L1Hit,
    /// L1 miss merged into an outstanding L1-level fetch.
    L1Merge,
    /// L1 miss, L2 hit.
    L2Hit,
    /// L2 miss merged into an outstanding L2-level fetch.
    L2Merge,
    /// L2 miss sent to DRAM.
    DramDemand,
}

/// A deliberately injected bug, applied to the **optimized** system so
/// the gate can prove the oracle layer detects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleFault {
    /// No fault: the differential must pass.
    None,
    /// Caches evict the MRU way instead of the LRU way.
    EvictMru,
}

/// Success summary from [`differential_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffReport {
    /// Demand accesses (loads + stores) compared event-for-event.
    pub accesses: u64,
    /// Final core cycle count (identical in both systems).
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
/// [`MemSystem`](crate::MemSystem) with a [`NoPrefetcher`], obviously
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

/// Classifies one optimized-system access from its stats deltas. Each
/// demand access bumps `l1.demand_accesses` exactly once and touches the
/// L2/DRAM counters only on the corresponding path, so the deltas
/// identify the path taken without instrumenting the hot loop.
fn classify_deltas(dl1_miss: u64, dl2_acc: u64, dl2_miss: u64, d_dram: u64) -> AccessClass {
    if dl1_miss == 0 {
        AccessClass::L1Hit
    } else if dl2_acc == 0 {
        AccessClass::L1Merge
    } else if dl2_miss == 0 {
        AccessClass::L2Hit
    } else if d_dram == 0 {
        AccessClass::L2Merge
    } else {
        AccessClass::DramDemand
    }
}

/// Replays `trace` under no-prefetch through both the optimized
/// [`MemSystem`](crate::MemSystem) and the naive [`OracleSystem`],
/// asserting event-for-event agreement: per-access classification and
/// completion cycle, final cycle count, cache/DRAM stats, per-site miss
/// attribution, and final cache contents (blocks + dirty bits).
///
/// `fault` injects a deliberate bug into the optimized side; with
/// anything but [`OracleFault::None`] the check is expected to fail.
///
/// # Errors
///
/// Returns a message naming the first diverging access (or end-state
/// field) on any mismatch.
pub fn differential_check(
    trace: &Trace,
    mem: &Memory,
    heap: HeapRange,
    cfg: &SimConfig,
    fault: OracleFault,
) -> Result<DiffReport, String> {
    differential_check_faulted(trace, mem, heap, cfg, fault, None)
}

/// [`differential_check`] with a [`FaultPlan`] armed on *both* systems.
///
/// This is the graceful-degradation contract's correctness leg: even
/// under channel stalls, outages, and MSHR squeezes, the optimized
/// system's demand behaviour must match the naive oracle event for
/// event. Prefetch-only faults (delayed/dropped fills, queue pressure)
/// are inert under no-prefetch and trivially preserve agreement.
///
/// # Errors
///
/// Returns a message naming the first diverging access (or end-state
/// field) on any mismatch.
pub fn differential_check_faulted(
    trace: &Trace,
    mem: &Memory,
    heap: HeapRange,
    cfg: &SimConfig,
    fault: OracleFault,
    plan: Option<&FaultPlan>,
) -> Result<DiffReport, String> {
    let mut ms = MemSystem::new(*cfg, IdealMode::None, Box::new(NoPrefetcher), mem, heap);
    if fault == OracleFault::EvictMru {
        ms.inject_fault_evict_mru();
    }
    let mut oracle = OracleSystem::new(*cfg);
    if let Some(plan) = plan {
        ms.install_faults(plan);
        oracle.install_faults(plan);
    }

    let mut win_real = Window::new(cfg.window);
    let mut win_oracle = Window::new(cfg.window);
    let mut completions_real: Vec<u64> = Vec::with_capacity(trace.loads() as usize);
    let mut completions_oracle: Vec<u64> = Vec::with_capacity(trace.loads() as usize);
    let mut accesses = 0u64;

    for (idx, ev) in trace.events().iter().enumerate() {
        match ev {
            TraceEvent::Compute(n) => {
                win_real.dispatch_compute(*n as u64);
                win_oracle.dispatch_compute(*n as u64);
            }
            TraceEvent::Load {
                addr,
                ref_id,
                hints,
                dep,
                ..
            } => {
                let d_real = win_real.prepare_dispatch(1);
                let d_oracle = win_oracle.prepare_dispatch(1);
                let issue_real = match dep {
                    Some(seq) => d_real.max(completions_real[*seq as usize]),
                    None => d_real,
                };
                let issue_oracle = match dep {
                    Some(seq) => d_oracle.max(completions_oracle[*seq as usize]),
                    None => d_oracle,
                };
                let before = snapshot(&ms);
                let done_real = ms.load(*addr, issue_real, *ref_id, *hints);
                let class_real = delta_class(&ms, before);
                let (class_oracle, done_oracle) =
                    oracle.access(*addr, issue_oracle, *ref_id, false);
                accesses += 1;
                compare_access(
                    idx,
                    "load",
                    *addr,
                    (class_real, done_real),
                    (class_oracle, done_oracle),
                )?;
                completions_real.push(done_real);
                completions_oracle.push(done_oracle);
                win_real.push(1, done_real);
                win_oracle.push(1, done_oracle);
            }
            TraceEvent::Store {
                addr,
                ref_id,
                hints,
                ..
            } => {
                let d_real = win_real.prepare_dispatch(1);
                let d_oracle = win_oracle.prepare_dispatch(1);
                let before = snapshot(&ms);
                let done_real = ms.store(*addr, d_real, *ref_id, *hints);
                let class_real = delta_class(&ms, before);
                let (class_oracle, done_oracle) = oracle.access(*addr, d_oracle, *ref_id, true);
                accesses += 1;
                compare_access(
                    idx,
                    "store",
                    *addr,
                    (class_real, done_real),
                    (class_oracle, done_oracle),
                )?;
                win_real.push(1, d_real + 1);
                win_oracle.push(1, d_oracle + 1);
            }
            TraceEvent::SetLoopBound(b) => {
                let d_real = win_real.prepare_dispatch(1);
                let d_oracle = win_oracle.prepare_dispatch(1);
                ms.set_loop_bound(*b);
                oracle.advance_to(d_oracle);
                win_real.push(1, d_real + 1);
                win_oracle.push(1, d_oracle + 1);
            }
            TraceEvent::IndirectPrefetch {
                base,
                elem_size,
                index_addr,
                ..
            } => {
                let d_real = win_real.prepare_dispatch(1);
                let d_oracle = win_oracle.prepare_dispatch(1);
                ms.indirect_prefetch(*base, *elem_size, *index_addr, d_real);
                oracle.advance_to(d_oracle);
                win_real.push(1, d_real + 1);
                win_oracle.push(1, d_oracle + 1);
            }
        }
    }

    let cycles_real = win_real.finish();
    let cycles_oracle = win_oracle.finish();
    ms.finish(cycles_real);
    oracle.finish(cycles_oracle);

    if cycles_real != cycles_oracle {
        return Err(format!(
            "final cycles diverge: optimized {cycles_real}, oracle {cycles_oracle}"
        ));
    }
    if ms.l1().stats() != oracle.l1().stats() {
        return Err(format!(
            "L1 stats diverge:\n  optimized {:?}\n  oracle    {:?}",
            ms.l1().stats(),
            oracle.l1().stats()
        ));
    }
    if ms.l2().stats() != oracle.l2().stats() {
        return Err(format!(
            "L2 stats diverge:\n  optimized {:?}\n  oracle    {:?}",
            ms.l2().stats(),
            oracle.l2().stats()
        ));
    }
    if ms.dram().stats() != oracle.dram().stats() {
        return Err(format!(
            "DRAM stats diverge:\n  optimized {:?}\n  oracle    {:?}",
            ms.dram().stats(),
            oracle.dram().stats()
        ));
    }
    if ms.attribution().counts() != oracle.attribution() {
        return Err("per-site miss attribution diverges".to_string());
    }
    let l1_real = ms.l1().resident_blocks();
    let l1_oracle = oracle.l1().resident_blocks();
    if l1_real != l1_oracle {
        return Err(first_contents_diff("L1", &l1_real, &l1_oracle));
    }
    let l2_real = ms.l2().resident_blocks();
    let l2_oracle = oracle.l2().resident_blocks();
    if l2_real != l2_oracle {
        return Err(first_contents_diff("L2", &l2_real, &l2_oracle));
    }
    Ok(DiffReport {
        accesses,
        cycles: cycles_real,
    })
}

/// (l1 misses, l2 accesses, l2 misses, dram demand blocks) before an access.
type StatsSnap = (u64, u64, u64, u64);

fn snapshot(ms: &MemSystem<'_>) -> StatsSnap {
    (
        ms.l1().stats().demand_misses,
        ms.l2().stats().demand_accesses,
        ms.l2().stats().demand_misses,
        ms.dram().stats().demand_blocks,
    )
}

fn delta_class(ms: &MemSystem<'_>, before: StatsSnap) -> AccessClass {
    let after = snapshot(ms);
    classify_deltas(
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        after.3 - before.3,
    )
}

fn compare_access(
    idx: usize,
    kind: &str,
    addr: Addr,
    real: (AccessClass, u64),
    oracle: (AccessClass, u64),
) -> Result<(), String> {
    if real != oracle {
        return Err(format!(
            "access diverges at trace event {idx} ({kind} {:#x}): \
             optimized {:?}@{}, oracle {:?}@{}",
            addr.0, real.0, real.1, oracle.0, oracle.1
        ));
    }
    Ok(())
}

fn first_contents_diff(
    level: &str,
    real: &[(BlockAddr, bool)],
    oracle: &[(BlockAddr, bool)],
) -> String {
    let i = real
        .iter()
        .zip(oracle.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(real.len().min(oracle.len()));
    format!(
        "{level} final contents diverge at sorted index {i}: \
         optimized has {} lines ({:?}…), oracle has {} lines ({:?}…)",
        real.len(),
        real.get(i),
        oracle.len(),
        oracle.get(i)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_cpu::HintSet;

    fn heap() -> HeapRange {
        HeapRange {
            start: Addr(0x10_0000),
            end: Addr(0x100_0000),
        }
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

    #[test]
    fn differential_passes_on_mixed_trace() {
        let mem = Memory::new();
        let rep = differential_check(
            &mixed_trace(),
            &mem,
            heap(),
            &SimConfig::paper(),
            OracleFault::None,
        )
        .expect("optimized system must match the oracle");
        assert!(rep.accesses > 5_000);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn differential_passes_under_mshr_pressure() {
        // Dense all-miss loads saturate both MSHR files, exercising the
        // wait-for-free-register loops in both systems.
        let mem = Memory::new();
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
        differential_check(&t, &mem, heap(), &SimConfig::paper(), OracleFault::None)
            .expect("MSHR-pressure trace must match");
    }

    #[test]
    fn differential_passes_under_every_builtin_fault_plan() {
        // The degradation contract: demand correctness survives every
        // built-in fault plan. The same plan is armed on both systems,
        // so stalls, outages, and MSHR squeezes land identically.
        let mem = Memory::new();
        let trace = mixed_trace();
        for (name, plan) in FaultPlan::builtin() {
            differential_check_faulted(
                &trace,
                &mem,
                heap(),
                &SimConfig::paper(),
                OracleFault::None,
                Some(&plan),
            )
            .unwrap_or_else(|e| panic!("faulted differential '{name}' failed: {e}"));
        }
    }

    #[test]
    fn differential_catches_injected_replacement_bug() {
        let mem = Memory::new();
        let err = differential_check(
            &mixed_trace(),
            &mem,
            heap(),
            &SimConfig::paper(),
            OracleFault::EvictMru,
        )
        .expect_err("evict-MRU fault must be detected");
        assert!(err.contains("diverge"), "error names the divergence: {err}");
    }
}
