//! Zero-cost observability layer: the [`Observer`] trait plus the two
//! production observers ([`LifecycleTracer`], [`EpochSampler`]).
//!
//! The simulator core ([`crate::MemSystem`]) is generic over an
//! `O: Observer` parameter that defaults to [`NullObserver`]. Every hook
//! call site is guarded by `if O::ENABLED { ... }`, and `NullObserver`
//! sets `ENABLED = false`, so with observers disabled the entire layer
//! monomorphizes to nothing — the replay hot path is byte-for-byte the
//! code it was before this module existed.
//!
//! Event model. Observers see the full prefetch lifecycle:
//!
//! ```text
//! queued ──► issued ──► filled ──► first-demand-use
//!    │          │          │
//!    │          │          └────► evicted-unused / resident-at-end
//!    │          └───► late (demand merged into the in-flight MSHR)
//!    └───► squashed (stale / dropped / demand-hit)
//! ```
//!
//! plus every demand access with the branch it took, L2 demand misses
//! (for coverage), per-fill events, epoch boundaries, the final memory
//! hierarchy, and the end-of-run sweep.

use std::collections::HashMap;
use std::fmt;

use grp_cpu::RefId;
use grp_mem::{Addr, BlockAddr, Cache, Dram};

use crate::faults::FaultAction;

/// The branch a demand access took through
/// [`MemSystem`](crate::MemSystem), as reported to
/// [`Observer::demand_access`].
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

/// Why a queued-but-not-issued prefetch candidate was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashReason {
    /// The block was already resident in L2 or in flight in an MSHR when
    /// the engine went to issue it (staleness check at issue time).
    Stale,
    /// The candidate was dropped because its queue entry was evicted to
    /// make room (engine capacity pressure).
    Dropped,
    /// A demand miss to the same region cleared the pending bit before
    /// the candidate could issue.
    DemandHit,
}

impl SquashReason {
    /// Stable lowercase label used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            SquashReason::Stale => "stale",
            SquashReason::Dropped => "dropped",
            SquashReason::DemandHit => "demand_hit",
        }
    }
}

/// What happened to a candidate inside a prefetch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEventKind {
    /// A block address was enqueued as a prefetch candidate.
    Queued,
    /// A queued candidate was discarded before issue.
    Squashed(SquashReason),
}

/// A buffered engine-side lifecycle event, drained by the memory system
/// after each engine call and stamped with the current cycle.
#[derive(Debug, Clone, Copy)]
pub struct EngineEvent {
    /// The candidate block address.
    pub block: BlockAddr,
    /// What happened to it.
    pub kind: EngineEventKind,
}

impl EngineEvent {
    /// A queued-candidate event.
    pub fn queued(block: BlockAddr) -> Self {
        EngineEvent {
            block,
            kind: EngineEventKind::Queued,
        }
    }

    /// A squashed-candidate event.
    pub fn squashed(block: BlockAddr, reason: SquashReason) -> Self {
        EngineEvent {
            block,
            kind: EngineEventKind::Squashed(reason),
        }
    }
}

/// One row of the epoch metrics time-series: a snapshot of the running
/// counters every N committed trace events.
///
/// All counters are cumulative since the start of the run (so rates can
/// be computed both "so far" and per-epoch by differencing rows).
#[derive(Debug, Clone, Default)]
pub struct EpochSnapshot {
    /// Committed trace events so far.
    pub events: u64,
    /// Dispatched instruction slots so far (IPC numerator).
    pub instructions: u64,
    /// Core cycle at the snapshot (IPC denominator).
    pub cycles: u64,
    /// L2 demand accesses so far.
    pub l2_demand_accesses: u64,
    /// L2 demand misses so far.
    pub l2_demand_misses: u64,
    /// Prefetched L2 lines touched by demand before eviction, so far.
    pub useful_prefetches: u64,
    /// Prefetched L2 lines evicted untouched, so far.
    pub useless_prefetches: u64,
    /// Demand misses merged into an in-flight prefetch MSHR, so far.
    pub late_prefetch_merges: u64,
    /// Prefetch requests issued to DRAM so far.
    pub prefetches_issued: u64,
    /// Prefetch-engine queue occupancy at the snapshot (live candidates).
    pub queue_occupancy: usize,
    /// L2 MSHR entries in flight at the snapshot.
    pub l2_mshr_occupancy: usize,
    /// L2 MSHR entries that are prefetch fills at the snapshot.
    pub l2_mshr_prefetches: usize,
    /// Demand blocks transferred from DRAM so far.
    pub demand_blocks: u64,
    /// Prefetch blocks transferred from DRAM so far.
    pub prefetch_blocks: u64,
    /// Writeback blocks transferred to DRAM so far.
    pub writeback_blocks: u64,
    /// DRAM row-buffer hits so far.
    pub row_hits: u64,
    /// DRAM row-buffer misses so far.
    pub row_misses: u64,
    /// Per-channel DRAM data-bus busy cycles so far.
    pub channel_busy_cycles: Vec<u64>,
}

impl EpochSnapshot {
    /// Instructions per cycle so far (0.0 before the first cycle).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 demand miss rate so far (0.0 with no accesses).
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_demand_accesses == 0 {
            0.0
        } else {
            self.l2_demand_misses as f64 / self.l2_demand_accesses as f64
        }
    }

    /// Running prefetch accuracy: (useful + late) / all resolved
    /// prefetched lines. Lines still resident or in flight are not yet
    /// resolved, so this converges to [`crate::RunResult::accuracy`] at
    /// the end of the run only up to the resident tail.
    pub fn running_accuracy(&self) -> f64 {
        let good = self.useful_prefetches + self.late_prefetch_merges;
        let denom = good + self.useless_prefetches;
        if denom == 0 {
            0.0
        } else {
            good as f64 / denom as f64
        }
    }

    /// Running prefetch coverage in the canonical sense: the fraction of
    /// would-be demand misses served by a prefetched line,
    /// useful / (useful + demand misses).
    pub fn running_coverage(&self) -> f64 {
        let denom = self.useful_prefetches + self.l2_demand_misses;
        if denom == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / denom as f64
        }
    }

    /// Fraction of cycles so far that channel `ch`'s data bus was busy.
    pub fn channel_busy_fraction(&self, ch: usize) -> f64 {
        if self.cycles == 0 || ch >= self.channel_busy_cycles.len() {
            0.0
        } else {
            self.channel_busy_cycles[ch] as f64 / self.cycles as f64
        }
    }
}

/// Simulator-wide observer hooks. Every method has an empty default so
/// an observer implements only what it cares about.
///
/// Implementors that do real work keep the default `ENABLED = true`;
/// [`NullObserver`] overrides it to `false`, which lets every call site
/// in the memory system const-fold away under monomorphization.
pub trait Observer {
    /// Whether this observer's hooks should be invoked at all. Call
    /// sites guard with `if O::ENABLED`, so a `false` here removes the
    /// entire observability layer from the compiled hot path.
    const ENABLED: bool = true;

    /// Epoch length in committed trace events, or `None` for no epoch
    /// sampling. Only consulted when `ENABLED`.
    fn epoch_interval(&self) -> Option<u64> {
        None
    }

    /// A prefetch candidate entered an engine queue at `now`.
    fn prefetch_queued(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
    }

    /// A queued candidate was discarded before issue.
    fn prefetch_squashed(&mut self, block: BlockAddr, reason: SquashReason, now: u64) {
        let _ = (block, reason, now);
    }

    /// A prefetch request was issued to DRAM channel `channel` at `now`;
    /// its fill completes at `complete_at`.
    fn prefetch_issued(
        &mut self,
        block: BlockAddr,
        now: u64,
        channel: usize,
        row_hit: bool,
        complete_at: u64,
    ) {
        let _ = (block, now, channel, row_hit, complete_at);
    }

    /// A fill arrived at L2 at `now`. `prefetch` is true when the fill
    /// still carries prefetch attribution (a late-merged demand clears
    /// it before the fill lands).
    fn l2_fill(&mut self, block: BlockAddr, prefetch: bool, now: u64) {
        let _ = (block, prefetch, now);
    }

    /// A demand access touched a prefetched L2 line for the first time.
    fn prefetch_first_use(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
    }

    /// A prefetched L2 line was evicted without ever being used.
    fn prefetch_evicted_unused(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
    }

    /// A demand miss merged into an in-flight prefetch MSHR (the
    /// prefetch was correct but late).
    fn late_prefetch_merge(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
    }

    /// A fault-injection action from the armed [`crate::FaultPlan`] was
    /// applied at `now`. Faults are first-class observable events, so
    /// lifecycle conservation is never waived under a fault plan.
    fn fault_injected(&mut self, action: &FaultAction, now: u64) {
        let _ = (action, now);
    }

    /// An in-flight prefetch fill lost its data to an injected fault:
    /// the MSHR register was released on schedule but no line was
    /// installed (the explicit `dropped` conservation leg).
    fn prefetch_fill_dropped(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
    }

    /// A prefetch issued at `now` will land `extra` cycles later than
    /// the DRAM timing says, due to an injected delay window.
    fn prefetch_fill_delayed(&mut self, block: BlockAddr, extra: u64, now: u64) {
        let _ = (block, extra, now);
    }

    /// An L2 demand miss was recorded (after attribution).
    fn l2_demand_miss(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
    }

    /// A demand access to `addr` (a store when `write`) issued at
    /// `issue` took the `class` branch and completes at `done`. The
    /// perfect-L1 and perfect-L2 modes report `L1Hit` and `L2Hit`.
    fn demand_access(
        &mut self,
        addr: Addr,
        ref_id: RefId,
        write: bool,
        issue: u64,
        class: AccessClass,
        done: u64,
    ) {
        let _ = (addr, ref_id, write, issue, class, done);
    }

    /// An epoch boundary was reached; `snap` holds the running counters.
    fn epoch(&mut self, snap: &EpochSnapshot) {
        let _ = snap;
    }

    /// The memory hierarchy once every in-flight fill has drained, just
    /// before [`Observer::run_end`]: final contents and counters.
    fn end_state(&mut self, l1: &Cache, l2: &Cache, dram: &Dram) {
        let _ = (l1, l2, dram);
    }

    /// The run finished (all in-flight fills drained) at `final_cycle`.
    fn run_end(&mut self, final_cycle: u64) {
        let _ = final_cycle;
    }

    /// When true, the memory system walks its component structures
    /// (cache sets, MSHR files, DRAM bank state, engine queues) at every
    /// epoch boundary and at run end, reporting any broken invariant via
    /// [`Observer::structural_violation`]. Off by default: the walk is
    /// O(cache size), far too slow for the perf path.
    fn wants_structural_checks(&self) -> bool {
        false
    }

    /// A structural invariant was found violated during a check pass.
    fn structural_violation(&mut self, msg: &str) {
        let _ = msg;
    }
}

/// The default observer: compiles every hook away (`ENABLED = false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// Composes two observers; every event is forwarded to both.
///
/// The epoch interval is the minimum of the two components' intervals
/// (an epoch fires when either wants one; both see the snapshot).
#[derive(Debug, Clone, Default)]
pub struct ObserverPair<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for ObserverPair<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn epoch_interval(&self) -> Option<u64> {
        match (self.0.epoch_interval(), self.1.epoch_interval()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn prefetch_queued(&mut self, block: BlockAddr, now: u64) {
        self.0.prefetch_queued(block, now);
        self.1.prefetch_queued(block, now);
    }

    fn prefetch_squashed(&mut self, block: BlockAddr, reason: SquashReason, now: u64) {
        self.0.prefetch_squashed(block, reason, now);
        self.1.prefetch_squashed(block, reason, now);
    }

    fn prefetch_issued(
        &mut self,
        block: BlockAddr,
        now: u64,
        channel: usize,
        row_hit: bool,
        complete_at: u64,
    ) {
        self.0
            .prefetch_issued(block, now, channel, row_hit, complete_at);
        self.1
            .prefetch_issued(block, now, channel, row_hit, complete_at);
    }

    fn l2_fill(&mut self, block: BlockAddr, prefetch: bool, now: u64) {
        self.0.l2_fill(block, prefetch, now);
        self.1.l2_fill(block, prefetch, now);
    }

    fn prefetch_first_use(&mut self, block: BlockAddr, now: u64) {
        self.0.prefetch_first_use(block, now);
        self.1.prefetch_first_use(block, now);
    }

    fn prefetch_evicted_unused(&mut self, block: BlockAddr, now: u64) {
        self.0.prefetch_evicted_unused(block, now);
        self.1.prefetch_evicted_unused(block, now);
    }

    fn late_prefetch_merge(&mut self, block: BlockAddr, now: u64) {
        self.0.late_prefetch_merge(block, now);
        self.1.late_prefetch_merge(block, now);
    }

    fn fault_injected(&mut self, action: &FaultAction, now: u64) {
        self.0.fault_injected(action, now);
        self.1.fault_injected(action, now);
    }

    fn prefetch_fill_dropped(&mut self, block: BlockAddr, now: u64) {
        self.0.prefetch_fill_dropped(block, now);
        self.1.prefetch_fill_dropped(block, now);
    }

    fn prefetch_fill_delayed(&mut self, block: BlockAddr, extra: u64, now: u64) {
        self.0.prefetch_fill_delayed(block, extra, now);
        self.1.prefetch_fill_delayed(block, extra, now);
    }

    fn l2_demand_miss(&mut self, block: BlockAddr, now: u64) {
        self.0.l2_demand_miss(block, now);
        self.1.l2_demand_miss(block, now);
    }

    fn demand_access(
        &mut self,
        addr: Addr,
        ref_id: RefId,
        write: bool,
        issue: u64,
        class: AccessClass,
        done: u64,
    ) {
        self.0
            .demand_access(addr, ref_id, write, issue, class, done);
        self.1
            .demand_access(addr, ref_id, write, issue, class, done);
    }

    fn epoch(&mut self, snap: &EpochSnapshot) {
        self.0.epoch(snap);
        self.1.epoch(snap);
    }

    fn end_state(&mut self, l1: &Cache, l2: &Cache, dram: &Dram) {
        self.0.end_state(l1, l2, dram);
        self.1.end_state(l1, l2, dram);
    }

    fn run_end(&mut self, final_cycle: u64) {
        self.0.run_end(final_cycle);
        self.1.run_end(final_cycle);
    }

    fn wants_structural_checks(&self) -> bool {
        self.0.wants_structural_checks() || self.1.wants_structural_checks()
    }

    fn structural_violation(&mut self, msg: &str) {
        self.0.structural_violation(msg);
        self.1.structural_violation(msg);
    }
}

/// Power-of-two-bucketed latency histogram (cycles).
///
/// Bucket `i` holds values `v` with `2^(i-1) < v <= 2^i - 1`-ish: the
/// bucket index is the bit length of `v`, capped at 31 (bucket 0 is
/// exactly `v == 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHist {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHist {
    /// The bucket index for one sample: `v`'s bit length, capped at 31
    /// (bucket 0 is exactly `v == 0`). Public so external shard
    /// implementations (e.g. the bench harness's lock-free telemetry
    /// counters) bucket identically and can merge via
    /// [`LatencyHist::absorb_parts`].
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
        .min(31)
    }

    /// Record one latency sample (in cycles).
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `p`-quantile (`0.0..=1.0`): the inclusive upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(p · count)`, clamped to the largest sample seen. Exact to
    /// within one power-of-two bucket — the same resolution the
    /// histogram stores. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = Self::bucket_range(i);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram's samples into this one (bucket-wise
    /// add) — server mode accumulates per-batch queue-wait histograms
    /// into one fleet-lifetime distribution this way.
    pub fn absorb(&mut self, other: &LatencyHist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// [`LatencyHist::absorb`] from raw parts: folds in bucket counts
    /// produced elsewhere under the [`LatencyHist::bucket_index`]
    /// contract (e.g. a lock-free atomic shard snapshotted bucket by
    /// bucket). The sample count is derived from the buckets — not
    /// taken on trust — so a snapshot torn between a bucket update and
    /// a separate count update can never make `count()` disagree with
    /// the bucket totals. `sum`/`max` are advisory (mean/percentile
    /// clamping) and folded as given.
    pub fn absorb_parts(&mut self, buckets: &[u64; 32], sum: u64, max: u64) {
        let mut added = 0u64;
        for (b, o) in self.buckets.iter_mut().zip(buckets.iter()) {
            *b += o;
            added += o;
        }
        self.count += added;
        self.sum += sum;
        self.max = self.max.max(max);
    }

    /// Raw bucket counts; bucket `i` covers bit-length-`i` values.
    pub fn buckets(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// Inclusive cycle range covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            1 => (1, 1),
            31 => (1 << 30, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }
}

impl fmt::Display for LatencyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )?;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_range(i);
            if lo == hi {
                write!(f, " [{lo}]={c}")?;
            } else if i == 31 {
                write!(f, " [{lo}+]={c}")?;
            } else {
                write!(f, " [{lo}-{hi}]={c}")?;
            }
        }
        Ok(())
    }
}

/// Final disposition of one tracked prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// Filled into L2 and later touched by a demand access.
    FirstUse,
    /// A demand miss merged into the in-flight MSHR before the fill.
    Late,
    /// Filled into L2 and evicted without a demand touch.
    EvictedUnused,
    /// Filled into L2 and still resident, untouched, at end of run.
    ResidentAtEnd,
    /// Issued to DRAM but the fill had not landed at end of run.
    InFlightAtEnd,
    /// Issued to DRAM but the fill's data was lost to an injected fault
    /// (the MSHR register was released; no line was installed).
    Dropped,
    /// Discarded by the engine before issue.
    Squashed(SquashReason),
    /// Still sitting in the engine queue at end of run.
    QueuedAtEnd,
}

impl PrefetchOutcome {
    /// Stable label used in JSONL / trace exports.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchOutcome::FirstUse => "first_use",
            PrefetchOutcome::Late => "late",
            PrefetchOutcome::EvictedUnused => "evicted_unused",
            PrefetchOutcome::ResidentAtEnd => "resident_at_end",
            PrefetchOutcome::InFlightAtEnd => "in_flight_at_end",
            PrefetchOutcome::Dropped => "dropped",
            PrefetchOutcome::Squashed(SquashReason::Stale) => "squashed_stale",
            PrefetchOutcome::Squashed(SquashReason::Dropped) => "squashed_dropped",
            PrefetchOutcome::Squashed(SquashReason::DemandHit) => "squashed_demand_hit",
            PrefetchOutcome::QueuedAtEnd => "queued_at_end",
        }
    }
}

/// One prefetch's full lifecycle: timestamps for each stage it reached.
#[derive(Debug, Clone)]
pub struct PrefetchRecord {
    /// Block address this record tracks.
    pub block: BlockAddr,
    /// Cycle the candidate was queued in the engine.
    pub queued_at: u64,
    /// Cycle the request was issued to DRAM, if it got that far.
    pub issued_at: Option<u64>,
    /// Cycle the fill landed in L2, if it got that far.
    pub filled_at: Option<u64>,
    /// DRAM channel the request used, if issued.
    pub channel: Option<usize>,
    /// Whether the DRAM access was a row-buffer hit, if issued.
    pub row_hit: Option<bool>,
    /// Final disposition (filled in by `run_end` for still-open records).
    pub outcome: Option<PrefetchOutcome>,
    /// Cycle the outcome was decided.
    pub outcome_at: Option<u64>,
}

/// The prefetch-lifecycle tracer: one [`PrefetchRecord`] per tracked
/// prefetch, timeliness histograms, and counters that reproduce
/// [`crate::RunResult`]'s accuracy/coverage inputs exactly.
#[derive(Debug, Clone, Default)]
pub struct LifecycleTracer {
    records: Vec<PrefetchRecord>,
    /// block -> index of the open (undecided) record for that block.
    open: HashMap<u64, usize>,
    fill_to_use: LatencyHist,
    queue_residency: LatencyHist,
    issue_to_fill: LatencyHist,
    demand_misses: u64,
    issued: u64,
    first_used: u64,
    late: u64,
    evicted_unused: u64,
    resident_at_end: u64,
    in_flight_at_end: u64,
    squashed: u64,
    queued_at_end: u64,
    dropped: u64,
    delayed: u64,
    faults_seen: u64,
    final_cycle: u64,
}

impl LifecycleTracer {
    /// A fresh tracer with no records.
    pub fn new() -> Self {
        Self::default()
    }

    /// All lifecycle records, in creation order.
    pub fn records(&self) -> &[PrefetchRecord] {
        &self.records
    }

    /// Fill-to-first-use latency histogram (timeliness headroom).
    pub fn fill_to_use(&self) -> &LatencyHist {
        &self.fill_to_use
    }

    /// Queue-entry-to-issue residency histogram.
    pub fn queue_residency(&self) -> &LatencyHist {
        &self.queue_residency
    }

    /// Issue-to-fill (DRAM service) latency histogram.
    pub fn issue_to_fill(&self) -> &LatencyHist {
        &self.issue_to_fill
    }

    /// Prefetches issued to DRAM.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Prefetched lines touched by demand before eviction.
    pub fn first_used(&self) -> u64 {
        self.first_used
    }

    /// Demand misses merged into an in-flight prefetch MSHR.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Prefetched lines evicted untouched.
    pub fn evicted_unused(&self) -> u64 {
        self.evicted_unused
    }

    /// Prefetched lines still resident and untouched at end of run.
    pub fn resident_at_end(&self) -> u64 {
        self.resident_at_end
    }

    /// Prefetches whose fill had not landed at end of run.
    pub fn in_flight_at_end(&self) -> u64 {
        self.in_flight_at_end
    }

    /// Candidates squashed before issue.
    pub fn squashed(&self) -> u64 {
        self.squashed
    }

    /// Candidates still queued at end of run.
    pub fn queued_at_end(&self) -> u64 {
        self.queued_at_end
    }

    /// Issued prefetches whose fill data was lost to an injected fault.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Issued prefetches whose fill was delayed by an injected fault.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Fault-plan actions applied during the run.
    pub fn faults_seen(&self) -> u64 {
        self.faults_seen
    }

    /// L2 demand misses observed.
    pub fn demand_misses(&self) -> u64 {
        self.demand_misses
    }

    /// Final cycle stamped by [`Observer::run_end`].
    pub fn final_cycle(&self) -> u64 {
        self.final_cycle
    }

    /// Prefetch accuracy from trace counters: identical inputs (and so a
    /// bit-identical result) to [`crate::RunResult::accuracy`].
    pub fn accuracy(&self) -> f64 {
        let good = self.first_used + self.late;
        let denom = good + self.evicted_unused + self.resident_at_end;
        if denom == 0 {
            0.0
        } else {
            good as f64 / denom as f64
        }
    }

    /// Miss coverage versus a baseline's demand-miss count: identical
    /// arithmetic to [`crate::RunResult::coverage_vs`] given the
    /// baseline's `l2_misses()` (negative when prefetching added misses).
    pub fn coverage_vs_misses(&self, base_misses: u64) -> f64 {
        if base_misses == 0 {
            0.0
        } else {
            (base_misses as f64 - self.demand_misses as f64) / base_misses as f64
        }
    }

    fn open_record(&mut self, block: BlockAddr) -> Option<&mut PrefetchRecord> {
        let idx = *self.open.get(&block.0)?;
        Some(&mut self.records[idx])
    }

    /// Serialize every record as one JSON object per line.
    ///
    /// Fields: `block`, `queued`, `issued`, `filled`, `channel`,
    /// `row_hit`, `outcome`, `outcome_at`; absent stages are `null`.
    /// Record order is creation order, so same-seed runs produce
    /// byte-identical output.
    pub fn jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            write!(out, "{{\"block\":{},\"queued\":{}", r.block.0, r.queued_at).unwrap();
            match r.issued_at {
                Some(t) => write!(out, ",\"issued\":{t}").unwrap(),
                None => out.push_str(",\"issued\":null"),
            }
            match r.filled_at {
                Some(t) => write!(out, ",\"filled\":{t}").unwrap(),
                None => out.push_str(",\"filled\":null"),
            }
            match r.channel {
                Some(c) => write!(out, ",\"channel\":{c}").unwrap(),
                None => out.push_str(",\"channel\":null"),
            }
            match r.row_hit {
                Some(h) => write!(out, ",\"row_hit\":{h}").unwrap(),
                None => out.push_str(",\"row_hit\":null"),
            }
            match r.outcome {
                Some(o) => write!(out, ",\"outcome\":\"{}\"", o.label()).unwrap(),
                None => out.push_str(",\"outcome\":null"),
            }
            match r.outcome_at {
                Some(t) => write!(out, ",\"outcome_at\":{t}").unwrap(),
                None => out.push_str(",\"outcome_at\":null"),
            }
            out.push_str("}\n");
        }
        out
    }
}

impl Observer for LifecycleTracer {
    fn prefetch_queued(&mut self, block: BlockAddr, now: u64) {
        // Only one open record per block: re-queues of a block whose
        // prefetch is still in flight or resident keep the original
        // record (the engine-side candidate will be squashed as stale
        // or silently absorbed, never issued twice).
        if self.open.contains_key(&block.0) {
            return;
        }
        let idx = self.records.len();
        self.records.push(PrefetchRecord {
            block,
            queued_at: now,
            issued_at: None,
            filled_at: None,
            channel: None,
            row_hit: None,
            outcome: None,
            outcome_at: None,
        });
        self.open.insert(block.0, idx);
    }

    fn prefetch_squashed(&mut self, block: BlockAddr, reason: SquashReason, now: u64) {
        // A squash can only close a record that never issued; squashes
        // reported for a block whose open record is already in flight
        // refer to a redundant engine-side candidate, not the tracked
        // prefetch.
        let Some(&idx) = self.open.get(&block.0) else {
            return;
        };
        if self.records[idx].issued_at.is_some() {
            return;
        }
        let r = &mut self.records[idx];
        r.outcome = Some(PrefetchOutcome::Squashed(reason));
        r.outcome_at = Some(now);
        self.squashed += 1;
        self.open.remove(&block.0);
    }

    fn prefetch_issued(
        &mut self,
        block: BlockAddr,
        now: u64,
        channel: usize,
        row_hit: bool,
        complete_at: u64,
    ) {
        let _ = complete_at;
        self.issued += 1;
        if self.open_record(block).is_none() {
            // Engines that issue without a queue phase (e.g. stride
            // streams issuing directly) get a record created at issue.
            let idx = self.records.len();
            self.records.push(PrefetchRecord {
                block,
                queued_at: now,
                issued_at: None,
                filled_at: None,
                channel: None,
                row_hit: None,
                outcome: None,
                outcome_at: None,
            });
            self.open.insert(block.0, idx);
        }
        let r = self.open_record(block).expect("record just ensured");
        debug_assert!(
            r.issued_at.is_none(),
            "double issue for block {:#x}",
            block.0
        );
        r.issued_at = Some(now);
        r.channel = Some(channel);
        r.row_hit = Some(row_hit);
        let queued_at = r.queued_at;
        // Demand-miss-driven enqueues are stamped at the cycle the L2
        // sees the miss, which can postdate the issue the engine makes
        // from the already-visible candidate: clamp to zero residency.
        self.queue_residency.record(now.saturating_sub(queued_at));
    }

    fn l2_fill(&mut self, block: BlockAddr, prefetch: bool, now: u64) {
        let _ = prefetch;
        let Some(&idx) = self.open.get(&block.0) else {
            return;
        };
        let r = &mut self.records[idx];
        if r.issued_at.is_none() || r.filled_at.is_some() {
            return;
        }
        r.filled_at = Some(now);
        let issued_at = r.issued_at.unwrap();
        let late = r.outcome == Some(PrefetchOutcome::Late);
        self.issue_to_fill.record(now - issued_at);
        if late {
            // The late merge already decided the outcome; the fill just
            // closes the record (the line lands as a demand line, so no
            // first-use can follow).
            self.records[idx].outcome_at = Some(now);
            self.open.remove(&block.0);
        }
    }

    fn prefetch_first_use(&mut self, block: BlockAddr, now: u64) {
        let Some(&idx) = self.open.get(&block.0) else {
            debug_assert!(false, "first use without open record for {:#x}", block.0);
            return;
        };
        let r = &mut self.records[idx];
        debug_assert!(r.filled_at.is_some() && r.outcome.is_none());
        r.outcome = Some(PrefetchOutcome::FirstUse);
        r.outcome_at = Some(now);
        let filled_at = r.filled_at.unwrap_or(now);
        // A demand access's L2 timestamp can slightly predate the fill's
        // DRAM timestamp when an earlier event already advanced the fill
        // cursor past it; clamp those to zero headroom.
        self.fill_to_use.record(now.saturating_sub(filled_at));
        self.first_used += 1;
        self.open.remove(&block.0);
    }

    fn prefetch_evicted_unused(&mut self, block: BlockAddr, now: u64) {
        let Some(&idx) = self.open.get(&block.0) else {
            debug_assert!(
                false,
                "unused eviction without open record for {:#x}",
                block.0
            );
            return;
        };
        let r = &mut self.records[idx];
        debug_assert!(r.filled_at.is_some() && r.outcome.is_none());
        r.outcome = Some(PrefetchOutcome::EvictedUnused);
        r.outcome_at = Some(now);
        self.evicted_unused += 1;
        self.open.remove(&block.0);
    }

    fn late_prefetch_merge(&mut self, block: BlockAddr, now: u64) {
        let Some(&idx) = self.open.get(&block.0) else {
            debug_assert!(false, "late merge without open record for {:#x}", block.0);
            return;
        };
        let r = &mut self.records[idx];
        debug_assert!(r.issued_at.is_some() && r.filled_at.is_none() && r.outcome.is_none());
        r.outcome = Some(PrefetchOutcome::Late);
        // outcome_at is stamped when the fill closes the record; if the
        // run ends first, run_end stamps it.
        let _ = now;
        self.late += 1;
    }

    fn fault_injected(&mut self, action: &FaultAction, now: u64) {
        let _ = (action, now);
        self.faults_seen += 1;
    }

    fn prefetch_fill_dropped(&mut self, block: BlockAddr, now: u64) {
        let Some(&idx) = self.open.get(&block.0) else {
            debug_assert!(false, "dropped fill without open record for {:#x}", block.0);
            return;
        };
        let r = &mut self.records[idx];
        // A demand merge cancels the drop before this hook can fire, so
        // the record is always still issued-and-undecided here.
        debug_assert!(r.issued_at.is_some() && r.outcome.is_none());
        r.outcome = Some(PrefetchOutcome::Dropped);
        r.outcome_at = Some(now);
        self.dropped += 1;
        self.open.remove(&block.0);
    }

    fn prefetch_fill_delayed(&mut self, block: BlockAddr, extra: u64, now: u64) {
        let _ = (block, extra, now);
        self.delayed += 1;
    }

    fn l2_demand_miss(&mut self, block: BlockAddr, now: u64) {
        let _ = (block, now);
        self.demand_misses += 1;
    }

    fn run_end(&mut self, final_cycle: u64) {
        self.final_cycle = final_cycle;
        // Sweep in record order (not HashMap order) for determinism.
        for r in &mut self.records {
            if r.outcome.is_some() && r.outcome_at.is_some() {
                continue;
            }
            match r.outcome {
                Some(PrefetchOutcome::Late) => {
                    // Late merge whose fill never landed before the end.
                    r.outcome_at = Some(final_cycle);
                }
                Some(_) => {}
                None => {
                    let o = if r.filled_at.is_some() {
                        self.resident_at_end += 1;
                        PrefetchOutcome::ResidentAtEnd
                    } else if r.issued_at.is_some() {
                        self.in_flight_at_end += 1;
                        PrefetchOutcome::InFlightAtEnd
                    } else {
                        self.queued_at_end += 1;
                        PrefetchOutcome::QueuedAtEnd
                    };
                    r.outcome = Some(o);
                    r.outcome_at = Some(final_cycle);
                }
            }
        }
        self.open.clear();
    }
}

/// The epoch metrics sampler: collects one [`EpochSnapshot`] every
/// `interval` committed trace events (plus a final one at end of run).
#[derive(Debug, Clone)]
pub struct EpochSampler {
    interval: u64,
    snapshots: Vec<EpochSnapshot>,
}

impl EpochSampler {
    /// A sampler snapshotting every `interval` committed events.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "epoch interval must be positive");
        EpochSampler {
            interval,
            snapshots: Vec::new(),
        }
    }

    /// The configured epoch length in events.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Snapshots collected so far, oldest first.
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.snapshots
    }

    /// Consume the sampler, returning its snapshots.
    pub fn into_snapshots(self) -> Vec<EpochSnapshot> {
        self.snapshots
    }
}

impl Observer for EpochSampler {
    fn epoch_interval(&self) -> Option<u64> {
        Some(self.interval)
    }

    fn epoch(&mut self, snap: &EpochSnapshot) {
        self.snapshots.push(snap.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x: u64) -> BlockAddr {
        BlockAddr(x)
    }

    #[test]
    fn hist_buckets_and_display() {
        let mut h = LatencyHist::default();
        for v in [0, 1, 2, 3, 4, 100, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1 << 20);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2..3
        assert_eq!(h.buckets()[3], 1); // 4..7
        assert_eq!(h.buckets()[7], 1); // 64..127
        assert_eq!(h.buckets()[21], 1); // 2^20
                                        // Percentiles resolve to bucket upper bounds, clamped to max.
        assert_eq!(LatencyHist::default().percentile(0.5), 0, "empty hist");
        assert_eq!(h.percentile(0.0), 0); // rank clamps to the first sample
        assert_eq!(h.percentile(0.5), 3); // 4th of 7 samples sits in bucket 2..3
        assert_eq!(h.percentile(0.99), 1 << 20);
        assert_eq!(h.percentile(1.0), 1 << 20);
        let mut one = LatencyHist::default();
        one.record(5);
        assert_eq!(one.percentile(0.5), 5, "upper bound clamps to max seen");
        // absorb folds sample-for-sample: equivalent to recording both.
        let mut folded = one.clone();
        folded.absorb(&h);
        assert_eq!(folded.count(), h.count() + 1);
        assert_eq!(folded.sum(), h.sum() + 5);
        assert_eq!(folded.max(), h.max());
        assert_eq!(folded.buckets()[3], h.buckets()[3] + 1); // 5 lands in 4..7
        let s = format!("{h}");
        assert!(s.contains("n=7"), "{s}");
        assert!(s.contains("[64-127]=1"), "{s}");
    }

    #[test]
    fn hist_absorb_parts_matches_absorb() {
        // bucket_index is the single bucketing contract.
        assert_eq!(LatencyHist::bucket_index(0), 0);
        assert_eq!(LatencyHist::bucket_index(1), 1);
        assert_eq!(LatencyHist::bucket_index(2), 2);
        assert_eq!(LatencyHist::bucket_index(3), 2);
        assert_eq!(LatencyHist::bucket_index(4), 3);
        assert_eq!(LatencyHist::bucket_index(u64::MAX), 31);
        let mut other = LatencyHist::default();
        for v in [0, 7, 9000, 1 << 40] {
            other.record(v);
        }
        let mut via_absorb = LatencyHist::default();
        via_absorb.record(12);
        let mut via_parts = via_absorb.clone();
        via_absorb.absorb(&other);
        via_parts.absorb_parts(other.buckets(), other.sum(), other.max());
        assert_eq!(via_parts.count(), via_absorb.count());
        assert_eq!(via_parts.sum(), via_absorb.sum());
        assert_eq!(via_parts.max(), via_absorb.max());
        assert_eq!(via_parts.buckets(), via_absorb.buckets());
        // The count is derived from the buckets, never taken on trust:
        // absorbing parts twice doubles count in lockstep with buckets.
        let before = via_parts.count();
        via_parts.absorb_parts(other.buckets(), other.sum(), other.max());
        assert_eq!(via_parts.count(), before + other.count());
        assert_eq!(
            via_parts.buckets().iter().sum::<u64>(),
            via_parts.count(),
            "bucket totals always equal count"
        );
    }

    #[test]
    fn full_lifecycle_first_use() {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(b(0x40), 10);
        t.prefetch_issued(b(0x40), 20, 1, true, 60);
        t.l2_fill(b(0x40), true, 60);
        t.prefetch_first_use(b(0x40), 100);
        t.run_end(200);
        assert_eq!(t.first_used(), 1);
        assert_eq!(t.issued(), 1);
        assert_eq!(t.records().len(), 1);
        let r = &t.records()[0];
        assert_eq!(r.outcome, Some(PrefetchOutcome::FirstUse));
        assert_eq!(r.outcome_at, Some(100));
        assert_eq!(t.queue_residency().sum(), 10);
        assert_eq!(t.issue_to_fill().sum(), 40);
        assert_eq!(t.fill_to_use().sum(), 40);
        assert_eq!(t.accuracy(), 1.0);
    }

    #[test]
    fn late_merge_closes_on_fill() {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(b(0x80), 0);
        t.prefetch_issued(b(0x80), 5, 0, false, 105);
        t.late_prefetch_merge(b(0x80), 50);
        t.l2_fill(b(0x80), false, 105);
        t.run_end(300);
        assert_eq!(t.late(), 1);
        let r = &t.records()[0];
        assert_eq!(r.outcome, Some(PrefetchOutcome::Late));
        assert_eq!(r.outcome_at, Some(105));
    }

    #[test]
    fn squash_only_closes_unissued() {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(b(0x100), 0);
        t.prefetch_squashed(b(0x100), SquashReason::DemandHit, 8);
        assert_eq!(t.squashed(), 1);
        // Re-queue after squash opens a fresh record.
        t.prefetch_queued(b(0x100), 20);
        t.prefetch_issued(b(0x100), 25, 0, true, 60);
        // A stale squash for an issued record is ignored.
        t.prefetch_squashed(b(0x100), SquashReason::Stale, 30);
        t.run_end(100);
        assert_eq!(t.squashed(), 1);
        assert_eq!(t.in_flight_at_end(), 1);
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn end_sweep_is_conservative() {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(b(0x40), 0); // stays queued
        t.prefetch_queued(b(0x80), 0);
        t.prefetch_issued(b(0x80), 2, 0, true, 40); // in flight
        t.prefetch_queued(b(0xc0), 0);
        t.prefetch_issued(b(0xc0), 3, 1, true, 40);
        t.l2_fill(b(0xc0), true, 40); // resident
        t.run_end(50);
        assert_eq!(t.queued_at_end(), 1);
        assert_eq!(t.in_flight_at_end(), 1);
        assert_eq!(t.resident_at_end(), 1);
        assert_eq!(
            t.issued(),
            t.first_used()
                + t.late()
                + t.evicted_unused()
                + t.resident_at_end()
                + t.in_flight_at_end()
                + t.dropped()
        );
    }

    #[test]
    fn dropped_fill_closes_record_with_dropped_leg() {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(b(0x40), 0);
        t.prefetch_issued(b(0x40), 5, 0, true, 105);
        t.prefetch_fill_delayed(b(0x40), 60, 5);
        t.prefetch_fill_dropped(b(0x40), 165);
        t.run_end(300);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.delayed(), 1);
        let r = &t.records()[0];
        assert_eq!(r.outcome, Some(PrefetchOutcome::Dropped));
        assert_eq!(r.outcome_at, Some(165));
        assert_eq!(r.filled_at, None, "no data ever landed");
        assert_eq!(
            t.issued(),
            t.first_used()
                + t.late()
                + t.evicted_unused()
                + t.resident_at_end()
                + t.in_flight_at_end()
                + t.dropped()
        );
        assert!(t.jsonl().contains("\"outcome\":\"dropped\""));
    }

    #[test]
    fn jsonl_shape() {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(b(0x40), 1);
        t.run_end(9);
        let s = t.jsonl();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("\"block\":64"), "{s}");
        assert!(s.contains("\"issued\":null"), "{s}");
        assert!(s.contains("\"outcome\":\"queued_at_end\""), "{s}");
    }

    #[test]
    fn epoch_snapshot_metrics() {
        let snap = EpochSnapshot {
            events: 100,
            instructions: 200,
            cycles: 400,
            l2_demand_accesses: 50,
            l2_demand_misses: 10,
            useful_prefetches: 6,
            useless_prefetches: 2,
            late_prefetch_merges: 2,
            channel_busy_cycles: vec![100, 0],
            ..Default::default()
        };
        assert_eq!(snap.ipc(), 0.5);
        assert_eq!(snap.l2_miss_rate(), 0.2);
        assert_eq!(snap.running_accuracy(), 0.8);
        assert_eq!(snap.running_coverage(), 6.0 / 16.0);
        assert_eq!(snap.channel_busy_fraction(0), 0.25);
        assert_eq!(snap.channel_busy_fraction(5), 0.0);
    }

    #[test]
    fn pair_forwards_and_merges_interval() {
        let pair = ObserverPair(LifecycleTracer::new(), EpochSampler::new(500));
        assert_eq!(pair.epoch_interval(), Some(500));
        let mut pair = ObserverPair(EpochSampler::new(100), EpochSampler::new(300));
        assert_eq!(pair.epoch_interval(), Some(100));
        pair.epoch(&EpochSnapshot::default());
        assert_eq!(pair.0.snapshots().len(), 1);
        assert_eq!(pair.1.snapshots().len(), 1);
    }
}
