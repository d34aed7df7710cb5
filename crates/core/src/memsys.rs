//! The full memory system: L1D, unified L2, MSHRs, DRAM, and the access
//! prioritizer that schedules prefetches into idle memory channels.
//!
//! Figure 2 of the paper: demand misses flow L1 → L2 → memory controller;
//! the prefetch engine's queue feeds an *access prioritizer* that
//! "forwards prefetch requests only when there are no outstanding demand
//! misses from the L2 cache" and only onto idle channels. Prefetched data
//! is inserted in the LRU way of its L2 set.
//!
//! The implementation is event-light: DRAM completion times are computed
//! analytically at issue, so every load's completion cycle is known when
//! it issues; pending fills are applied in time order before any later
//! action ([`MemSystem::advance_to`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grp_mem::FastSet;

use grp_cpu::{HintSet, RefId};
use grp_mem::{
    Addr, BlockAddr, Cache, Dram, HeapRange, InsertPriority, Memory, MshrFile, MshrOutcome,
    RequestKind,
};

use crate::config::{IdealMode, SimConfig};
use crate::engine::Prefetcher;
use crate::faults::{FaultAction, FaultPlan, FaultState};
use crate::obs::{AccessClass, EngineEventKind, EpochSnapshot, NullObserver, Observer};
use crate::sim::PlantedBug;

/// Per-reference L2 demand-miss attribution (Table 6's miss-cause data).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissAttribution {
    counts: Vec<u64>,
}

impl MissAttribution {
    fn record(&mut self, r: RefId) {
        let i = r.0 as usize;
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Misses attributed to reference site `r`.
    pub fn misses_of(&self, r: RefId) -> u64 {
        self.counts.get(r.0 as usize).copied().unwrap_or(0)
    }

    /// All counts, indexed by ref id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `n` sites with the most misses, descending.
    pub fn top(&self, n: usize) -> Vec<(RefId, u64)> {
        let mut v: Vec<(RefId, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (RefId(i as u32), *c))
            .collect();
        v.sort_by_key(|(_, c)| Reverse(*c));
        v.truncate(n);
        v
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillLevel {
    /// L2 fill (from DRAM); `demand` fills propagate to L1.
    L2,
    /// L1 fill only (L2 hit path). `dirty` implements write-allocate.
    L1 { dirty: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingFill {
    time: u64,
    block: BlockAddr,
    level: FillLevel,
}

impl Ord for PendingFill {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by time via Reverse at the call sites; tie-break on
        // block/level for determinism.
        (self.time, self.block.0, matches!(self.level, FillLevel::L2)).cmp(&(
            other.time,
            other.block.0,
            matches!(other.level, FillLevel::L2),
        ))
    }
}

impl PartialOrd for PendingFill {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The memory system driven by the simulator.
///
/// Generic over an [`Observer`]; the default [`NullObserver`] disables
/// every hook at compile time, so the un-observed replay path is the
/// same machine code it was before the observer layer existed.
pub struct MemSystem<'m, O: Observer = NullObserver> {
    cfg: SimConfig,
    ideal: IdealMode,
    l1: Cache,
    l2: Cache,
    l1_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    dram: Dram,
    engine: Box<dyn Prefetcher>,
    fills: BinaryHeap<Reverse<PendingFill>>,
    mem: &'m Memory,
    heap: HeapRange,
    cursor: u64,
    attribution: MissAttribution,
    prefetches_issued: u64,
    obs: O,
    /// Scratch buffer for draining engine-side lifecycle events (kept
    /// across drains to reuse its allocation).
    engine_events: Vec<crate::obs::EngineEvent>,
    /// Last-seen committed-event / dispatched-instruction counts from the
    /// replay loop, snapshotted into epochs.
    epoch_events: u64,
    epoch_instructions: u64,
    /// Armed fault plan, if any. `None` on the unfaulted path, whose only
    /// cost is one branch per fill/advance step.
    faults: Option<FaultState>,
    /// Blocks whose in-flight prefetch fill was marked dropped at issue
    /// time. Only probed by key, never iterated.
    dropped_marks: FastSet<u64>,
    /// Deliberately injected bug (`--inject drop-leak`): a dropped fill
    /// forgets to release its MSHR register. Never set in production.
    fault_drop_leak: bool,
}

impl<O: Observer> std::fmt::Debug for MemSystem<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("cursor", &self.cursor)
            .field("l1", self.l1.stats())
            .field("l2", self.l2.stats())
            .finish_non_exhaustive()
    }
}

impl<'m> MemSystem<'m> {
    /// Builds the system with observation disabled. `mem` is the
    /// functional memory whose contents the pointer-scan and indirect
    /// engines read; `heap` bounds the pointer base-and-bounds test.
    pub fn new(
        cfg: SimConfig,
        ideal: IdealMode,
        engine: Box<dyn Prefetcher>,
        mem: &'m Memory,
        heap: HeapRange,
    ) -> Self {
        Self::with_observer(cfg, ideal, engine, mem, heap, NullObserver)
    }
}

impl<'m, O: Observer> MemSystem<'m, O> {
    /// Builds the system with an attached observer. When `O::ENABLED`,
    /// the engine is switched into trace-buffering mode so queued and
    /// squashed candidates reach the observer.
    pub fn with_observer(
        cfg: SimConfig,
        ideal: IdealMode,
        mut engine: Box<dyn Prefetcher>,
        mem: &'m Memory,
        heap: HeapRange,
        obs: O,
    ) -> Self {
        if O::ENABLED {
            engine.set_trace_buffer(true);
        }
        Self {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l1_mshrs: MshrFile::new(cfg.l1_mshrs),
            l2_mshrs: MshrFile::new(cfg.l2_mshrs),
            dram: Dram::new(cfg.dram),
            engine,
            // Outstanding fills are bounded by the two MSHR files.
            fills: BinaryHeap::with_capacity(cfg.l1_mshrs + cfg.l2_mshrs),
            mem,
            heap,
            cursor: 0,
            attribution: MissAttribution::default(),
            prefetches_issued: 0,
            cfg,
            ideal,
            obs,
            engine_events: Vec::new(),
            epoch_events: 0,
            epoch_instructions: 0,
            faults: None,
            dropped_marks: FastSet::default(),
            fault_drop_leak: false,
        }
    }

    /// Arms a fault plan. The plan's timed actions are applied in
    /// timestamp order, interleaved with pending fills, as simulated time
    /// advances; an empty plan leaves every run bit-identical to an
    /// unfaulted one. Call before replaying any accesses.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Consumes the system, returning the observer for result export.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// L1 data cache state/stats.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// L2 cache state/stats.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// DRAM state/stats.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The prefetch engine.
    pub fn engine(&self) -> &dyn Prefetcher {
        self.engine.as_ref()
    }

    /// L2 MSHR file (late-prefetch accounting lives here).
    pub fn l2_mshrs(&self) -> &MshrFile {
        &self.l2_mshrs
    }

    /// Per-site demand miss attribution.
    pub fn attribution(&self) -> &MissAttribution {
        &self.attribution
    }

    /// Prefetch blocks actually issued to DRAM.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// L1 MSHR file.
    pub fn l1_mshrs(&self) -> &MshrFile {
        &self.l1_mshrs
    }

    /// Plants a deliberate bug; the seam behind
    /// [`Replay::plant`](crate::Replay::plant).
    pub(crate) fn plant(&mut self, bug: PlantedBug) {
        match bug {
            PlantedBug::EvictMru => {
                self.l1.set_fault_evict_mru(true);
                self.l2.set_fault_evict_mru(true);
            }
            PlantedBug::DropLeak => self.fault_drop_leak = true,
        }
    }

    /// Applies every fault action due at or before `now`, in timestamp
    /// order. Both the real system and the oracle mirror call this at
    /// the same simulation points (before each fill, and when time
    /// advances), so faulted differential runs stay comparable.
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
                FaultAction::SetQueuePressure(n) => {
                    self.engine.set_queue_pressure(n);
                    if O::ENABLED {
                        // Pressure trimming squashes queued candidates.
                        self.drain_engine_events(now);
                    }
                }
            }
            if O::ENABLED {
                self.obs.fault_injected(&action, now);
            }
        }
    }

    /// Forwards engine-buffered lifecycle events (queued/squashed) to the
    /// observer, stamped with `now`. Called after every engine call so
    /// event order tracks simulation order.
    fn drain_engine_events(&mut self, now: u64) {
        if !O::ENABLED {
            return;
        }
        let mut v = std::mem::take(&mut self.engine_events);
        self.engine.drain_trace_events(&mut v);
        for ev in v.drain(..) {
            match ev.kind {
                EngineEventKind::Queued => self.obs.prefetch_queued(ev.block, now),
                EngineEventKind::Squashed(r) => self.obs.prefetch_squashed(ev.block, r, now),
            }
        }
        self.engine_events = v;
    }

    /// Replay-loop heartbeat: records the committed-event and dispatched-
    /// instruction counts and emits an epoch snapshot every
    /// `epoch_interval` events. Free when the observer is disabled.
    pub fn epoch_tick(&mut self, events: u64, instructions: u64, core_cycle: u64) {
        if !O::ENABLED {
            return;
        }
        self.epoch_events = events;
        self.epoch_instructions = instructions;
        if let Some(interval) = self.obs.epoch_interval() {
            if events > 0 && events.is_multiple_of(interval) {
                self.emit_epoch(core_cycle.max(self.cursor));
            }
        }
        if self.obs.wants_structural_checks() {
            // Structural walks piggyback on the epoch cadence (or a
            // default one when the observer samples no epochs).
            let interval = self.obs.epoch_interval().unwrap_or(4096);
            if events > 0 && events.is_multiple_of(interval) {
                self.run_structural_checks(false);
            }
        }
    }

    /// Walks every component's structural invariants plus the
    /// cross-component stats identities, reporting violations through
    /// [`Observer::structural_violation`]. `at_end` additionally requires
    /// all in-flight state to have drained.
    fn run_structural_checks(&mut self, at_end: bool) {
        let mut violations: Vec<String> = Vec::new();
        for (tag, res) in [
            ("l1", self.l1.check_well_formed()),
            ("l2", self.l2.check_well_formed()),
            ("l1-mshr", self.l1_mshrs.check_invariants()),
            ("l2-mshr", self.l2_mshrs.check_invariants()),
            ("dram", self.dram.check_invariants()),
            ("engine", self.engine.validate()),
        ] {
            if let Err(e) = res {
                violations.push(format!("{tag}: {e}"));
            }
        }
        if self.ideal == IdealMode::None {
            let l1 = *self.l1.stats();
            let l2 = *self.l2.stats();
            let dram = *self.dram.stats();
            // Every L1 miss either merges into an in-flight L1 fetch or
            // performs exactly one L2 lookup.
            if l1.demand_misses != self.l1_mshrs.merges() + l2.demand_accesses {
                violations.push(format!(
                    "stats: L1 misses {} != L1-MSHR merges {} + L2 accesses {}",
                    l1.demand_misses,
                    self.l1_mshrs.merges(),
                    l2.demand_accesses
                ));
            }
            if self.prefetches_issued != dram.prefetch_blocks {
                violations.push(format!(
                    "stats: prefetches issued {} != DRAM prefetch blocks {}",
                    self.prefetches_issued, dram.prefetch_blocks
                ));
            }
            if dram.demand_blocks > l2.demand_misses {
                violations.push(format!(
                    "stats: DRAM demand blocks {} exceed L2 demand misses {}",
                    dram.demand_blocks, l2.demand_misses
                ));
            }
        }
        if at_end {
            if self.l1_mshrs.occupancy() != 0 {
                violations.push(format!(
                    "end: {} L1 MSHR entries never completed",
                    self.l1_mshrs.occupancy()
                ));
            }
            if self.l2_mshrs.occupancy() != 0 {
                violations.push(format!(
                    "end: {} L2 MSHR entries never completed",
                    self.l2_mshrs.occupancy()
                ));
            }
            if !self.fills.is_empty() {
                violations.push(format!("end: {} fills never applied", self.fills.len()));
            }
        }
        for v in violations {
            self.obs.structural_violation(&v);
        }
    }

    fn emit_epoch(&mut self, cycle: u64) {
        let l2 = self.l2.stats();
        let dram = self.dram.stats();
        let snap = EpochSnapshot {
            events: self.epoch_events,
            instructions: self.epoch_instructions,
            cycles: cycle,
            l2_demand_accesses: l2.demand_accesses,
            l2_demand_misses: l2.demand_misses,
            useful_prefetches: l2.useful_prefetches,
            useless_prefetches: l2.useless_prefetches,
            late_prefetch_merges: self.l2_mshrs.late_prefetch_merges(),
            prefetches_issued: self.prefetches_issued,
            queue_occupancy: self.engine.queue_occupancy(),
            l2_mshr_occupancy: self.l2_mshrs.occupancy(),
            l2_mshr_prefetches: self.l2_mshrs.prefetch_inflight(),
            demand_blocks: dram.demand_blocks,
            prefetch_blocks: dram.prefetch_blocks,
            writeback_blocks: dram.writeback_blocks,
            row_hits: dram.row_hits,
            row_misses: dram.row_misses,
            channel_busy_cycles: self.dram.channel_busy_cycles().to_vec(),
        };
        self.obs.epoch(&snap);
    }

    fn schedule_fill(&mut self, time: u64, block: BlockAddr, level: FillLevel) {
        self.fills.push(Reverse(PendingFill { time, block, level }));
        // The in-flight block set lives in the MSHR files (they already
        // track exactly these blocks); only the fill time is recorded.
        match level {
            FillLevel::L1 { .. } => self.l1_mshrs.set_fill_time(block, time),
            FillLevel::L2 => self.l2_mshrs.set_fill_time(block, time),
        }
    }

    fn insert_l2(&mut self, block: BlockAddr, prefetch: bool, fill_time: u64) {
        let prio = if prefetch && !self.cfg.prefetch_mru_insert {
            InsertPriority::Lru
        } else {
            InsertPriority::Mru
        };
        let out = self.l2.fill_ext(block, prio, prefetch, false);
        if O::ENABLED {
            if out.merged_useful {
                // A demand fill landed on a resident prefetched line: the
                // prefetch won the race and counts as used.
                self.obs.prefetch_first_use(block, fill_time);
            }
            if let Some(v) = out.victim {
                if v.was_unused_prefetch {
                    self.obs.prefetch_evicted_unused(v.block, fill_time);
                }
            }
        }
        if let Some(v) = out.victim {
            if v.dirty {
                self.dram.issue(v.block, RequestKind::Writeback, fill_time);
            }
        }
    }

    fn insert_l1(&mut self, block: BlockAddr, dirty: bool, fill_time: u64) {
        if let Some(v) = self.l1.fill(block, InsertPriority::Mru, false, dirty) {
            if v.dirty && !self.l2.set_dirty(v.block) {
                // Victim no longer in L2 (non-inclusive hierarchy):
                // write it back to memory directly.
                self.dram.issue(v.block, RequestKind::Writeback, fill_time);
            }
        }
    }

    fn process_fill(&mut self, f: PendingFill) {
        match f.level {
            FillLevel::L1 { dirty } => {
                self.l1_mshrs.complete(f.block);
                self.insert_l1(f.block, dirty, f.time);
            }
            FillLevel::L2 => {
                let marked =
                    !self.dropped_marks.is_empty() && self.dropped_marks.remove(&f.block.0);
                if marked && self.fault_drop_leak {
                    // Injected bug: forget the MSHR register along with
                    // the data. Caught by the end-of-run structural check
                    // and the invariant observer's conservation identity.
                    return;
                }
                let entry = self
                    .l2_mshrs
                    .complete(f.block)
                    .expect("L2 fill without MSHR entry");
                if marked && !entry.demand {
                    // Fault: the fill's data was lost in transit. The
                    // register is released on schedule but no line is
                    // installed. A demand that merged into the entry
                    // cancels the drop — demand correctness outranks the
                    // injected fault.
                    if O::ENABLED {
                        self.obs.prefetch_fill_dropped(f.block, f.time);
                    }
                    return;
                }
                if O::ENABLED {
                    // Before insert_l2, so the tracer records the fill
                    // before any first-use/eviction it triggers.
                    self.obs.l2_fill(f.block, entry.prefetch_fill, f.time);
                }
                self.insert_l2(f.block, entry.prefetch_fill, f.time);
                if entry.demand {
                    // Piggyback the L1 fill for the demand path.
                    self.l1_mshrs.complete(f.block);
                    self.insert_l1(f.block, entry.dirty_on_fill, f.time);
                }
                if entry.pointer_level > 0 {
                    self.engine.on_fill(
                        f.block,
                        entry.pointer_level,
                        self.mem,
                        self.heap,
                        &self.l2,
                    );
                    if O::ENABLED {
                        self.drain_engine_events(f.time);
                    }
                }
            }
        }
    }

    /// True when a prefetch may take another MSHR. The MSHRs "track all
    /// outstanding accesses, regardless of type" (§3.1); a demand miss
    /// that finds the file full waits for the earliest in-flight access —
    /// which is precisely the paper's "contention only from prefetches
    /// the memory controller has already issued".
    fn prefetch_mshr_headroom(&self) -> bool {
        // Keep two registers free so an arriving demand miss never waits
        // on a file saturated by prefetches. Measured against the
        // *effective* capacity so an injected squeeze throttles
        // prefetching instead of tripping the allocation assert below.
        self.l2_mshrs.occupancy() + 2 < self.l2_mshrs.effective_capacity()
    }

    /// Attempts one prefetch issue at `now`. Returns true on success.
    fn try_issue_prefetch(&mut self, now: u64) -> bool {
        if self.ideal != IdealMode::None {
            return false;
        }
        if !self.engine.has_candidates() {
            return false;
        }
        // §3.1: demand misses take priority. In this model demands are
        // forwarded to the controller the moment they are detected (there
        // is no demand queue at the prioritizer), so "no outstanding
        // demand misses [waiting]" reduces to two conditions: the target
        // channel must be idle (checked per candidate below) and MSHRs
        // must keep headroom so an arriving demand is never rejected
        // because prefetches hold every register.
        if !self.prefetch_mshr_headroom() {
            return false;
        }
        let cand = self
            .engine
            .next_candidate(&self.l2, &self.l2_mshrs, &self.dram, now);
        if O::ENABLED {
            // A scan can squash stale candidates even when it fails.
            self.drain_engine_events(now);
        }
        let Some(c) = cand else {
            return false;
        };
        let outcome = self
            .l2_mshrs
            .allocate_or_merge(c.block, false, None, c.pointer_level, false);
        debug_assert_eq!(outcome, MshrOutcome::Allocated);
        let req = self.dram.issue(c.block, RequestKind::Prefetch, now);
        self.prefetches_issued += 1;
        // Per-prefetch fill faults: a delay window makes the fill land
        // late; a drop window marks it to lose its data on arrival.
        let mut delayed = 0u64;
        if let Some(st) = self.faults.as_ref() {
            delayed = st.fill_delay(now);
            if st.fill_dropped(now) {
                self.dropped_marks.insert(c.block.0);
            }
        }
        let complete_at = req.complete_at + delayed;
        if O::ENABLED {
            let channel = self.dram.channel_of(c.block);
            self.obs
                .prefetch_issued(c.block, now, channel, req.row_hit, complete_at);
            if delayed > 0 {
                self.obs.prefetch_fill_delayed(c.block, delayed, now);
            }
        }
        self.schedule_fill(complete_at, c.block, FillLevel::L2);
        true
    }

    /// Advances internal time to `t`: applies fills and issues prefetches
    /// into idle-channel gaps, in time order.
    pub fn advance_to(&mut self, t: u64) {
        let mut now = self.cursor;
        loop {
            // Apply every fill due at or before `now` in one pass (the
            // heap is time-ordered, so this drains without re-entering
            // the issue logic between fills).
            while let Some(Reverse(f)) = self.fills.peek().copied() {
                if f.time > now {
                    break;
                }
                self.fills.pop();
                // Fault actions interleave with fills by timestamp, so
                // e.g. a stall lands before any writeback a later fill
                // triggers (and identically so in the oracle mirror).
                self.apply_faults(f.time);
                self.process_fill(f);
            }
            self.apply_faults(now);
            // Issue as many prefetches as possible at `now`.
            while self.try_issue_prefetch(now) {}
            // Find the next interesting time ≤ t. For the issue side, ask
            // the engine when one of *its candidates'* channels frees up
            // rather than stepping cycle-by-cycle through idle times on
            // channels no candidate maps to.
            let next_fill = self.fills.peek().map(|Reverse(f)| f.time);
            let next_issue = if self.engine.has_candidates() && self.prefetch_mshr_headroom() {
                Some(self.engine.next_issue_time(&self.dram).max(now + 1))
            } else {
                None
            };
            let next = match (next_fill, next_issue) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > t {
                break;
            }
            now = next;
        }
        // Catch up to the target time so the caller's next DRAM issue
        // sees every fault action due by then.
        self.apply_faults(self.cursor.max(t));
        self.cursor = self.cursor.max(t);
    }

    /// Performs a load issued at cycle `t`; returns its completion cycle.
    pub fn load(&mut self, addr: Addr, t: u64, ref_id: RefId, hints: HintSet) -> u64 {
        self.access(addr, t, ref_id, hints, false)
    }

    /// Performs a store issued at cycle `t` (non-blocking for the core);
    /// returns the fill-completion cycle for bookkeeping.
    pub fn store(&mut self, addr: Addr, t: u64, ref_id: RefId, hints: HintSet) -> u64 {
        self.access(addr, t, ref_id, hints, true)
    }

    fn access(&mut self, addr: Addr, t: u64, ref_id: RefId, hints: HintSet, write: bool) -> u64 {
        let (class, done) = self.resolve(addr, t, ref_id, hints, write);
        if O::ENABLED {
            self.obs.demand_access(addr, ref_id, write, t, class, done);
        }
        done
    }

    /// The body of [`MemSystem::access`]: returns the branch the access
    /// took and its completion cycle.
    fn resolve(
        &mut self,
        addr: Addr,
        t: u64,
        ref_id: RefId,
        hints: HintSet,
        write: bool,
    ) -> (AccessClass, u64) {
        self.advance_to(t);
        if self.ideal == IdealMode::PerfectL1 {
            return (AccessClass::L1Hit, t + self.cfg.l1_latency);
        }
        let block = addr.block();
        let mut now = t;

        // L1 lookup.
        if self.l1.access(block, write) == grp_mem::LookupResult::Hit {
            return (AccessClass::L1Hit, now + self.cfg.l1_latency);
        }
        // Merge into an outstanding L1-level fetch.
        if let Some(ft) = self.l1_mshrs.fill_time(block) {
            self.l1_mshrs.allocate_or_merge(block, true, None, 0, write);
            return (AccessClass::L1Merge, ft.max(now + self.cfg.l1_latency));
        }
        // Wait out a full L1 MSHR file.
        while self.l1_mshrs.is_full() {
            let wake = self
                .l1_mshrs
                .earliest_fill_time()
                .expect("full L1 MSHRs imply pending completions")
                .max(now + 1);
            self.advance_to(wake);
            now = wake;
        }
        let l2_time = now + self.cfg.l1_latency;

        if self.ideal == IdealMode::PerfectL2 {
            let done = l2_time + self.cfg.l2_latency;
            self.l1_mshrs.allocate_or_merge(block, true, None, 0, write);
            self.schedule_fill(done, block, FillLevel::L1 { dirty: write });
            return (AccessClass::L2Hit, done);
        }

        // L2 lookup.
        let l2_out = self.l2.access_ext(block, false);
        if l2_out.hit {
            if O::ENABLED && l2_out.first_prefetch_use {
                self.obs.prefetch_first_use(block, l2_time);
            }
            let done = l2_time + self.cfg.l2_latency;
            self.l1_mshrs.allocate_or_merge(block, true, None, 0, write);
            self.schedule_fill(done, block, FillLevel::L1 { dirty: write });
            return (AccessClass::L2Hit, done);
        }

        // L2 demand miss.
        self.attribution.record(ref_id);
        if O::ENABLED {
            self.obs.l2_demand_miss(block, l2_time);
        }
        let plevel = self
            .engine
            .on_demand_miss(block, addr, ref_id, hints, write, &self.l2);
        if O::ENABLED {
            self.drain_engine_events(l2_time);
        }

        // Merge with an in-flight fetch (possibly a late prefetch).
        if let Some(ft) = self.l2_mshrs.fill_time(block) {
            if O::ENABLED && self.l2_mshrs.get(block).is_some_and(|e| e.prefetch_fill) {
                self.obs.late_prefetch_merge(block, l2_time);
            }
            self.l2_mshrs
                .allocate_or_merge(block, true, None, plevel, write);
            self.l1_mshrs.allocate_or_merge(block, true, None, 0, write);
            // The L1 fill piggybacks on the L2 fill (process_fill), so the
            // L1-side wait also resolves at `ft`.
            self.l1_mshrs.set_fill_time(block, ft);
            return (AccessClass::L2Merge, ft.max(l2_time + self.cfg.l2_latency));
        }
        // Wait out a full L2 MSHR file.
        let mut issue = l2_time + self.cfg.l2_latency;
        while self.l2_mshrs.is_full() {
            let wake = self
                .l2_mshrs
                .earliest_fill_time()
                .expect("full L2 MSHRs imply pending completions")
                .max(issue + 1);
            self.advance_to(wake);
            issue = wake;
        }
        let req = self.dram.issue(block, RequestKind::Demand, issue);
        self.l1_mshrs.allocate_or_merge(block, true, None, 0, write);
        // The L1 fill piggybacks on the L2 demand fill at completion.
        self.l1_mshrs.set_fill_time(block, req.complete_at);
        // Waiting out the full MSHR file can let a prefetch for this very
        // block issue; the allocate below then merges into it — a late
        // prefetch, same as the fill-time merge path above.
        if O::ENABLED && self.l2_mshrs.get(block).is_some_and(|e| e.prefetch_fill) {
            self.obs.late_prefetch_merge(block, issue);
        }
        self.l2_mshrs
            .allocate_or_merge(block, true, None, plevel, write);
        self.schedule_fill(req.complete_at, block, FillLevel::L2);
        (AccessClass::DramDemand, req.complete_at)
    }

    /// Executes the `SetLoopBound` pseudo-instruction.
    pub fn set_loop_bound(&mut self, bound: u32) {
        self.engine.set_loop_bound(bound);
    }

    /// Executes the explicit indirect-prefetch instruction at cycle `t`.
    pub fn indirect_prefetch(&mut self, base: Addr, elem_size: u32, index_addr: Addr, t: u64) {
        self.advance_to(t);
        if self.ideal != IdealMode::None {
            return;
        }
        let (mem, l2) = (self.mem, &self.l2);
        self.engine
            .indirect_prefetch(base, elem_size, index_addr, mem, l2);
        if O::ENABLED {
            self.drain_engine_events(t);
        }
    }

    /// Drains all pending fills (and any prefetches issuable before the
    /// final cycle), then returns self for stats extraction.
    pub fn finish(&mut self, final_cycle: u64) {
        self.advance_to(final_cycle);
        // Apply remaining in-flight fills without issuing new prefetches.
        let mut last_fill = 0u64;
        while let Some(Reverse(f)) = self.fills.pop() {
            last_fill = last_fill.max(f.time);
            self.apply_faults(f.time);
            self.process_fill(f);
        }
        if O::ENABLED {
            let end = self.cursor.max(last_fill);
            if self.obs.epoch_interval().is_some() {
                // Close the time-series with a final snapshot so the last
                // partial epoch is never lost.
                self.emit_epoch(end);
            }
            if self.obs.wants_structural_checks() {
                self.run_structural_checks(true);
            }
            self.obs.end_state(&self.l1, &self.l2, &self.dram);
            self.obs.run_end(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::engine::region::{RegionConfig, RegionPrefetcher};
    use crate::engine::NoPrefetcher;

    fn heap() -> HeapRange {
        HeapRange {
            start: Addr(0x10_0000),
            end: Addr(0x100_0000),
        }
    }

    fn sys<'m>(mem: &'m Memory, engine: Box<dyn Prefetcher>) -> MemSystem<'m> {
        MemSystem::new(SimConfig::paper(), IdealMode::None, engine, mem, heap())
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let mem = Memory::new();
        let mut ms = sys(&mem, Box::new(NoPrefetcher));
        let a = Addr(0x20_0000);
        let t1 = ms.load(a, 0, RefId(0), HintSet::none());
        assert!(t1 > 100, "cold miss goes to DRAM: {t1}");
        let t2 = ms.load(a, t1, RefId(0), HintSet::none());
        assert_eq!(t2, t1 + 3, "warm hit costs L1 latency");
    }

    #[test]
    fn l2_hit_costs_l1_plus_l2() {
        let mem = Memory::new();
        let mut ms = sys(&mem, Box::new(NoPrefetcher));
        let a = Addr(0x20_0000);
        let t1 = ms.load(a, 0, RefId(0), HintSet::none());
        // Evict from L1 by filling its set: L1 is 512 sets × 2 ways; same
        // set repeats every 512 blocks (32 KB).
        let way_stride = 512 * 64;
        let t2 = ms.load(a.offset(way_stride), t1, RefId(0), HintSet::none());
        let t3 = ms.load(a.offset(2 * way_stride), t2, RefId(0), HintSet::none());
        // `a` now evicted from L1 but resident in L2.
        let t4 = ms.load(a, t3, RefId(0), HintSet::none());
        assert_eq!(t4, t3 + 3 + 12, "L1 miss, L2 hit");
    }

    #[test]
    fn perfect_l1_never_touches_memory() {
        let mem = Memory::new();
        let mut ms = MemSystem::new(
            SimConfig::paper(),
            Scheme::PerfectL1.ideal_mode(),
            Box::new(NoPrefetcher),
            &mem,
            heap(),
        );
        let t = ms.load(Addr(0x20_0000), 0, RefId(0), HintSet::none());
        assert_eq!(t, 3);
        assert_eq!(ms.dram().stats().demand_blocks, 0);
    }

    #[test]
    fn perfect_l2_misses_l1_but_hits_l2() {
        let mem = Memory::new();
        let mut ms = MemSystem::new(
            SimConfig::paper(),
            Scheme::PerfectL2.ideal_mode(),
            Box::new(NoPrefetcher),
            &mem,
            heap(),
        );
        let t = ms.load(Addr(0x20_0000), 0, RefId(0), HintSet::none());
        assert_eq!(t, 15);
        ms.finish(t);
        assert_eq!(ms.dram().stats().demand_blocks, 0);
        // Second access hits L1 (it was filled).
        let t2 = ms.load(Addr(0x20_0000), 20, RefId(0), HintSet::none());
        assert_eq!(t2, 23);
    }

    #[test]
    fn srp_prefetches_fill_l2_and_later_loads_hit() {
        let mem = Memory::new();
        let engine = RegionPrefetcher::new(RegionConfig::srp(32));
        let mut ms = sys(&mem, Box::new(engine));
        let a = Addr(0x20_0000);
        let t1 = ms.load(a, 0, RefId(0), HintSet::none());
        // Give the engine idle time to stream the region in.
        ms.advance_to(t1 + 200_000);
        assert!(ms.prefetches_issued() > 0, "SRP issued prefetches");
        // The next block of the region should now be an L2 hit.
        let t2 = ms.load(a.offset(64), t1 + 200_000, RefId(0), HintSet::none());
        assert_eq!(t2, t1 + 200_000 + 15, "prefetched block hits in L2");
        assert!(ms.l2().stats().useful_prefetches > 0);
    }

    #[test]
    fn no_prefetch_baseline_issues_no_prefetch_traffic() {
        let mem = Memory::new();
        let mut ms = sys(&mem, Box::new(NoPrefetcher));
        let mut t = 0;
        for i in 0..32 {
            t = ms.load(Addr(0x20_0000 + i * 64), t, RefId(0), HintSet::none());
        }
        ms.finish(t);
        assert_eq!(ms.dram().stats().prefetch_blocks, 0);
        assert_eq!(ms.dram().stats().demand_blocks, 32);
    }

    #[test]
    fn prefetches_use_idle_channels_while_demand_in_flight() {
        // A demand miss occupies one channel; the region engine streams
        // prefetches onto the three idle channels immediately.
        let mem = Memory::new();
        let engine = RegionPrefetcher::new(RegionConfig::srp(32));
        let mut ms = sys(&mem, Box::new(engine));
        let t1 = ms.load(Addr(0x20_0000), 0, RefId(0), HintSet::none());
        ms.advance_to(t1 - 1);
        assert!(
            ms.prefetches_issued() > 0,
            "idle channels carry prefetches before the demand returns"
        );
        ms.advance_to(t1 + 100_000);
        assert!(ms.prefetches_issued() >= 63);
    }

    #[test]
    fn prefetches_leave_mshr_headroom_for_demands() {
        let mem = Memory::new();
        let engine = RegionPrefetcher::new(RegionConfig::srp(32));
        let mut ms = sys(&mem, Box::new(engine));
        let t1 = ms.load(Addr(0x20_0000), 0, RefId(0), HintSet::none());
        // Let the engine stream for a while, then check that a demand
        // miss never found the MSHR file saturated by prefetches.
        ms.advance_to(t1 + 1_000);
        let t2 = ms.load(Addr(0x90_0000), t1 + 1_000, RefId(1), HintSet::none());
        // The far miss must complete in one DRAM round trip from issue
        // (plus at most one in-service transfer of bus contention).
        assert!(
            t2 < t1 + 1_000 + 400,
            "demand was not starved by prefetch MSHR pressure: {t2}"
        );
    }

    #[test]
    fn late_prefetch_merge_partially_hides_latency() {
        let mem = Memory::new();
        let engine = RegionPrefetcher::new(RegionConfig::srp(32));
        let mut ms = sys(&mem, Box::new(engine));
        let a = Addr(0x20_0000);
        let t1 = ms.load(a, 0, RefId(0), HintSet::none());
        // Poke while the prefetch for a+64 is still on the wires (it
        // issued almost immediately, completing around t1's timeframe).
        let poke = t1 - 40;
        let t2 = ms.load(a.offset(64), poke, RefId(1), HintSet::none());
        // The load completes when the in-flight prefetch returns — sooner
        // than a fresh DRAM round trip from `poke`.
        let fresh_roundtrip = 3 + 12 + 92; // min possible
        assert!(
            t2 < poke + fresh_roundtrip,
            "late prefetch hid some latency: {} vs {}",
            t2,
            poke + fresh_roundtrip
        );
        assert!(ms.l2_mshrs().late_prefetch_merges() > 0);
    }

    #[test]
    fn store_miss_write_allocates_and_writes_back() {
        let mem = Memory::new();
        let mut ms = sys(&mem, Box::new(NoPrefetcher));
        let a = Addr(0x20_0000);
        let t = ms.store(a, 0, RefId(0), HintSet::none());
        ms.advance_to(t + 10);
        // Dirty line now in L1. Evict it through its set: 2-way L1.
        let way = 512 * 64;
        let t2 = ms.load(a.offset(way), t + 10, RefId(0), HintSet::none());
        let t3 = ms.load(a.offset(2 * way), t2, RefId(0), HintSet::none());
        ms.finish(t3 + 100_000);
        // The dirty L1 victim marked its L2 copy dirty; eventually L2
        // eviction would write back. At minimum the L2 line is dirty:
        assert!(ms.l2().contains(a.block()));
    }

    #[test]
    fn attribution_counts_per_site() {
        let mem = Memory::new();
        let mut ms = sys(&mem, Box::new(NoPrefetcher));
        let mut t = 0;
        for i in 0..4 {
            t = ms.load(Addr(0x20_0000 + i * 4096), t, RefId(7), HintSet::none());
        }
        ms.load(Addr(0x90_0000), t, RefId(3), HintSet::none());
        assert_eq!(ms.attribution().misses_of(RefId(7)), 4);
        assert_eq!(ms.attribution().misses_of(RefId(3)), 1);
        let top = ms.attribution().top(1);
        assert_eq!(top[0].0, RefId(7));
    }

    /// Records the class every demand access reports.
    #[derive(Default)]
    struct Classes(Vec<AccessClass>);

    impl Observer for Classes {
        fn demand_access(
            &mut self,
            _: Addr,
            _: RefId,
            _: bool,
            _: u64,
            class: AccessClass,
            _: u64,
        ) {
            self.0.push(class);
        }
    }

    #[test]
    fn demand_access_hook_reports_the_branch_taken() {
        // One access down each of the five branches. SRP supplies the
        // in-flight prefetch that an L2 merge needs.
        let mem = Memory::new();
        let engine = RegionPrefetcher::new(RegionConfig::srp(32));
        let mut ms = MemSystem::with_observer(
            SimConfig::paper(),
            IdealMode::None,
            Box::new(engine),
            &mem,
            heap(),
            Classes::default(),
        );
        let a = Addr(0x20_0000);
        let t1 = ms.load(a, 0, RefId(0), HintSet::none());
        ms.load(a, 1, RefId(0), HintSet::none());
        // The region's next block is a prefetch still on the wires.
        ms.load(a.offset(64), t1 - 40, RefId(1), HintSet::none());
        ms.load(a, t1 + 10, RefId(0), HintSet::none());
        // Once the region has streamed in, a later block hits in L2.
        ms.store(a.offset(192), t1 + 200_000, RefId(2), HintSet::none());
        use AccessClass::*;
        assert_eq!(
            ms.observer().0,
            [DramDemand, L1Merge, L2Merge, L1Hit, L2Hit],
            "one report per access, naming its branch"
        );
    }

    #[test]
    fn mshr_pressure_serializes_excess_misses() {
        // 16 independent misses with only 8 L2 MSHRs: the 9th call's
        // completion must wait for an earlier fill.
        let mem = Memory::new();
        let mut ms = sys(&mem, Box::new(NoPrefetcher));
        let mut completions = Vec::new();
        for i in 0..16u64 {
            completions.push(ms.load(Addr(0x20_0000 + i * 4096), 0, RefId(0), HintSet::none()));
        }
        let first = completions[0];
        let last = *completions.last().unwrap();
        assert!(
            last > first + 50,
            "16 misses cannot all overlap with 8 MSHRs: {first} {last}"
        );
    }
}
