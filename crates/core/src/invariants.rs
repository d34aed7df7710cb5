//! Live-run invariant checking, riding the [`Observer`] seam.
//!
//! [`InvariantObserver`] validates properties every scheme must satisfy
//! while a run is in progress: the prefetch in-flight lifecycle (no
//! double issue, every issued prefetch eventually fills, conservation at
//! run end), epoch-snapshot sanity (queue/MSHR occupancy bounds, counter
//! monotonicity, DRAM accounting identities), and — via
//! [`Observer::wants_structural_checks`] — the memory system's
//! structural walks over cache sets, MSHR files, DRAM bank state, and
//! the engine's queue. Violations are collected as messages rather than
//! panics so a fuzz harness can shrink a failing case before reporting.
//!
//! Compose with other observers through
//! [`ObserverPair`](crate::ObserverPair):
//!
//! ```
//! use grp_core::{InvariantObserver, LifecycleTracer, ObserverPair, SimConfig};
//! let cfg = SimConfig::paper();
//! let obs = ObserverPair(LifecycleTracer::new(), InvariantObserver::new(&cfg));
//! # let _ = obs;
//! ```

use std::collections::HashSet;

use grp_mem::BlockAddr;

use crate::config::SimConfig;
use crate::obs::{EpochSnapshot, Observer};

/// Cap on stored violation messages; further violations only count.
const MAX_STORED: usize = 32;

/// An [`Observer`] that checks run-wide invariants as the simulation
/// progresses. See the module docs for the property list.
#[derive(Debug, Clone)]
pub struct InvariantObserver {
    queue_capacity: usize,
    l2_mshr_capacity: usize,
    channels: usize,
    interval: u64,
    /// Prefetched blocks issued to DRAM and not yet filled.
    inflight: HashSet<u64>,
    issued: u64,
    prefetch_fills: u64,
    late_upgrades: u64,
    dropped: u64,
    last_epoch: Option<EpochSnapshot>,
    violations: Vec<String>,
    total_violations: u64,
}

impl InvariantObserver {
    /// Builds the checker from the run's configuration (queue and MSHR
    /// capacities, channel count), sampling every 1024 events.
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            queue_capacity: cfg.prefetch_queue,
            l2_mshr_capacity: cfg.l2_mshrs,
            channels: cfg.dram.channels,
            interval: 1024,
            inflight: HashSet::new(),
            issued: 0,
            prefetch_fills: 0,
            late_upgrades: 0,
            dropped: 0,
            last_epoch: None,
            violations: Vec::new(),
            total_violations: 0,
        }
    }

    /// Overrides the epoch/structural-check cadence (events per check).
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval.max(1);
        self
    }

    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.total_violations == 0
    }

    /// Stored violation messages (first [`MAX_STORED`]).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total violations observed, including ones past the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    fn report(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(msg);
        }
    }

    fn check_monotone(&mut self, snap: &EpochSnapshot) {
        let Some(prev) = self.last_epoch.take() else {
            return;
        };
        let pairs: [(&str, u64, u64); 12] = [
            ("events", prev.events, snap.events),
            ("cycles", prev.cycles, snap.cycles),
            ("instructions", prev.instructions, snap.instructions),
            (
                "l2_demand_accesses",
                prev.l2_demand_accesses,
                snap.l2_demand_accesses,
            ),
            (
                "l2_demand_misses",
                prev.l2_demand_misses,
                snap.l2_demand_misses,
            ),
            (
                "useful_prefetches",
                prev.useful_prefetches,
                snap.useful_prefetches,
            ),
            (
                "late_prefetch_merges",
                prev.late_prefetch_merges,
                snap.late_prefetch_merges,
            ),
            (
                "prefetches_issued",
                prev.prefetches_issued,
                snap.prefetches_issued,
            ),
            ("demand_blocks", prev.demand_blocks, snap.demand_blocks),
            (
                "prefetch_blocks",
                prev.prefetch_blocks,
                snap.prefetch_blocks,
            ),
            ("row_hits", prev.row_hits, snap.row_hits),
            ("row_misses", prev.row_misses, snap.row_misses),
        ];
        for (name, before, after) in pairs {
            if after < before {
                self.report(format!(
                    "epoch: cumulative counter {name} went backwards: {before} -> {after}"
                ));
            }
        }
        for (ch, (b, a)) in prev
            .channel_busy_cycles
            .iter()
            .zip(snap.channel_busy_cycles.iter())
            .enumerate()
        {
            if a < b {
                self.report(format!(
                    "epoch: channel {ch} busy cycles went backwards: {b} -> {a}"
                ));
            }
        }
    }
}

impl Observer for InvariantObserver {
    fn epoch_interval(&self) -> Option<u64> {
        Some(self.interval)
    }

    fn wants_structural_checks(&self) -> bool {
        true
    }

    fn structural_violation(&mut self, msg: &str) {
        self.report(format!("structural: {msg}"));
    }

    fn prefetch_issued(
        &mut self,
        block: BlockAddr,
        now: u64,
        _channel: usize,
        _row_hit: bool,
        complete_at: u64,
    ) {
        if complete_at <= now {
            self.report(format!(
                "lifecycle: prefetch of {:#x} completes at {complete_at}, \
                 not after its issue at {now}",
                block.0
            ));
        }
        if !self.inflight.insert(block.0) {
            self.report(format!(
                "lifecycle: prefetch of {:#x} issued while already in flight",
                block.0
            ));
        }
        self.issued += 1;
    }

    fn l2_fill(&mut self, block: BlockAddr, prefetch: bool, _now: u64) {
        if prefetch {
            self.prefetch_fills += 1;
            if !self.inflight.remove(&block.0) {
                self.report(format!(
                    "lifecycle: prefetch fill of {:#x} with no in-flight prefetch",
                    block.0
                ));
            }
        } else {
            // A demand fill completes a late-upgraded prefetch if one was
            // in flight for this block.
            self.inflight.remove(&block.0);
        }
    }

    fn late_prefetch_merge(&mut self, block: BlockAddr, _now: u64) {
        self.late_upgrades += 1;
        if !self.inflight.contains(&block.0) {
            self.report(format!(
                "lifecycle: late merge into {:#x} with no in-flight prefetch",
                block.0
            ));
        }
    }

    fn prefetch_fill_dropped(&mut self, block: BlockAddr, _now: u64) {
        self.dropped += 1;
        if !self.inflight.remove(&block.0) {
            self.report(format!(
                "lifecycle: dropped fill of {:#x} with no in-flight prefetch",
                block.0
            ));
        }
    }

    fn epoch(&mut self, snap: &EpochSnapshot) {
        if snap.queue_occupancy > self.queue_capacity {
            self.report(format!(
                "epoch: engine queue occupancy {} exceeds capacity {}",
                snap.queue_occupancy, self.queue_capacity
            ));
        }
        if snap.l2_mshr_occupancy > self.l2_mshr_capacity {
            self.report(format!(
                "epoch: L2 MSHR occupancy {} exceeds capacity {}",
                snap.l2_mshr_occupancy, self.l2_mshr_capacity
            ));
        }
        if snap.l2_mshr_prefetches > snap.l2_mshr_occupancy {
            self.report(format!(
                "epoch: {} prefetch MSHR entries among {} occupied",
                snap.l2_mshr_prefetches, snap.l2_mshr_occupancy
            ));
        }
        if snap.channel_busy_cycles.len() != self.channels {
            self.report(format!(
                "epoch: busy-cycle vector has {} slots for {} channels",
                snap.channel_busy_cycles.len(),
                self.channels
            ));
        }
        if snap.prefetch_blocks != snap.prefetches_issued {
            self.report(format!(
                "epoch: DRAM prefetch blocks {} != prefetches issued {}",
                snap.prefetch_blocks, snap.prefetches_issued
            ));
        }
        if snap.l2_demand_misses > snap.l2_demand_accesses {
            self.report(format!(
                "epoch: L2 misses {} exceed accesses {}",
                snap.l2_demand_misses, snap.l2_demand_accesses
            ));
        }
        let total = snap.demand_blocks + snap.prefetch_blocks + snap.writeback_blocks;
        if snap.row_hits + snap.row_misses != total {
            self.report(format!(
                "epoch: row hits {} + misses {} != total DRAM accesses {total}",
                snap.row_hits, snap.row_misses
            ));
        }
        self.check_monotone(snap);
        self.last_epoch = Some(snap.clone());
    }

    fn run_end(&mut self, _final_cycle: u64) {
        if !self.inflight.is_empty() {
            self.report(format!(
                "end: {} issued prefetches never filled",
                self.inflight.len()
            ));
        }
        // Every issued prefetch resolves exactly once: as a prefetch
        // fill, as a demand fill after a late-merge upgrade, or — under
        // an injected fault — as an explicitly dropped fill. The
        // identity is never waived under a fault plan; the dropped leg
        // accounts for the faults instead.
        if self.issued != self.prefetch_fills + self.late_upgrades + self.dropped {
            self.report(format!(
                "end: conservation broken: issued {} != prefetch fills {} \
                 + late upgrades {} + dropped {}",
                self.issued, self.prefetch_fills, self.late_upgrades, self.dropped
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::sim::{engine_for, Replay};
    use grp_cpu::{HintSet, RefId, Trace};
    use grp_mem::{Addr, HeapRange, Memory};

    fn heap() -> HeapRange {
        HeapRange {
            start: Addr(0x10_0000),
            end: Addr(0x100_0000),
        }
    }

    fn hinted_stream(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push_load(
                Addr(0x20_0000 + i * 8),
                8,
                RefId(0),
                HintSet::none().with_spatial(),
                None,
            );
            t.push_compute(4);
        }
        t.finish();
        t
    }

    #[test]
    fn clean_runs_have_no_violations() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        let trace = hinted_stream(20_000);
        for scheme in [
            Scheme::NoPrefetch,
            Scheme::Srp,
            Scheme::GrpVar,
            Scheme::Stride,
        ] {
            let obs = InvariantObserver::new(&cfg).with_interval(256);
            let (_, obs) = Replay::new(&mem, heap(), scheme, &cfg)
                .observer(obs)
                .run(&trace);
            assert!(
                obs.ok(),
                "{scheme:?} violates invariants: {:?}",
                obs.violations()
            );
            if scheme == Scheme::Srp {
                assert!(obs.issued > 0, "SRP must actually prefetch");
            }
        }
    }

    #[test]
    fn unbounded_queue_fault_is_detected() {
        let mem = Memory::new();
        let cfg = SimConfig::paper();
        // Sparse misses across many regions pile up queue entries; with
        // the drop loop disabled the queue exceeds its LIFO bound of 32.
        let mut t = Trace::new();
        for i in 0..4_000u64 {
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
        let mut engine = engine_for(Scheme::Srp, &cfg);
        engine.inject_fault_unbounded_queue();
        let obs = InvariantObserver::new(&cfg).with_interval(64);
        let (_, obs) = Replay::new(&mem, heap(), Scheme::Srp, &cfg)
            .engine(engine)
            .observer(obs)
            .run(&t);
        assert!(!obs.ok(), "unbounded queue must be detected");
        assert!(
            obs.violations()
                .iter()
                .any(|v| v.contains("exceeds capacity")),
            "violation names the bound: {:?}",
            obs.violations()
        );
    }

    #[test]
    fn violation_storage_is_capped() {
        let cfg = SimConfig::paper();
        let mut obs = InvariantObserver::new(&cfg);
        for i in 0..100 {
            obs.report(format!("synthetic {i}"));
        }
        assert_eq!(obs.violations().len(), MAX_STORED);
        assert_eq!(obs.total_violations(), 100);
    }
}
