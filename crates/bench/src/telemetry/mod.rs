//! Harness-wide telemetry: metrics registry and the structured logger.
//!
//! Two cooperating pieces (each documented in its own module):
//!
//! * [`registry`] — named counters / gauges / histograms recorded
//!   through lock-free handles and copied at scrape time into a
//!   [`registry::Snapshot`].
//! * [`log`] — leveled NDJSON diagnostics on stderr with process-wide
//!   ids for request/span correlation.
//!
//! Rendering a snapshot as Prometheus-style text or JSON lives in
//! [`exposition`], together with the re-parsing validator that
//! `check --metrics` uses. Where a cell's wall time went is not
//! telemetry: it rides the cell's own record
//! ([`crate::sched::CellResult::stages`]).
//!
//! Production code records through the process-global [`registry()`];
//! tests build a fresh [`registry::Registry`] so assertions never see
//! another test's counts. Timestamps appear only in log lines and in
//! the explicitly-marked `scraped_at_unix_micros` snapshot field —
//! every other output is deterministic.

pub mod exposition;
pub mod log;
pub mod registry;

use std::sync::{Arc, OnceLock};

use grp_core::{FaultAction, Observer};
use grp_mem::BlockAddr;

pub use registry::{Counter, Gauge, Hist, Registry, Snapshot};

/// The process-global metrics registry (bins and global subsystems
/// like the trace cache; tests use [`Registry::new`] instead).
pub fn registry() -> &'static Arc<Registry> {
    static REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Arc::new(Registry::new()))
}

/// An [`Observer`] that counts fault-injection events into a metrics
/// registry: applied fault actions by kind (`grp_fault_events_total`)
/// plus the two fill-perturbation legs
/// (`grp_fault_fills_dropped_total`, `grp_fault_fills_delayed_total`).
/// Pair it with a functional observer via [`grp_core::ObserverPair`]
/// when a run needs both.
#[derive(Debug)]
pub struct TelemetryObserver {
    stall: Counter,
    mshr: Counter,
    queue: Counter,
    dropped: Counter,
    delayed: Counter,
}

impl TelemetryObserver {
    /// Counts into `reg` under the `grp_fault_*` families.
    pub fn new(reg: &Registry) -> Self {
        let action = |kind: &str| reg.counter("grp_fault_events_total", &[("action", kind)]);
        TelemetryObserver {
            stall: action("stall_channel"),
            mshr: action("mshr_squeeze"),
            queue: action("queue_pressure"),
            dropped: reg.counter("grp_fault_fills_dropped_total", &[]),
            delayed: reg.counter("grp_fault_fills_delayed_total", &[]),
        }
    }
}

impl Observer for TelemetryObserver {
    fn fault_injected(&mut self, action: &FaultAction, _now: u64) {
        match action {
            FaultAction::StallChannel { .. } => self.stall.inc(),
            FaultAction::SetMshrSqueeze(_) => self.mshr.inc(),
            FaultAction::SetQueuePressure(_) => self.queue.inc(),
        }
    }

    fn prefetch_fill_dropped(&mut self, _block: BlockAddr, _now: u64) {
        self.dropped.inc();
    }

    fn prefetch_fill_delayed(&mut self, _block: BlockAddr, _extra: u64, _now: u64) {
        self.delayed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_are_stable_and_shared() {
        assert!(Arc::ptr_eq(registry(), registry()));
    }

    #[test]
    fn telemetry_observer_counts_fault_events() {
        let reg = Registry::new();
        let mut obs = TelemetryObserver::new(&reg);
        obs.fault_injected(
            &FaultAction::StallChannel {
                channel: 0,
                until: 10,
                demands_too: false,
            },
            1,
        );
        obs.fault_injected(&FaultAction::SetMshrSqueeze(2), 2);
        obs.fault_injected(&FaultAction::SetMshrSqueeze(4), 3);
        obs.fault_injected(&FaultAction::SetQueuePressure(1), 4);
        obs.prefetch_fill_dropped(BlockAddr(0x40), 5);
        obs.prefetch_fill_delayed(BlockAddr(0x80), 60, 6);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("grp_fault_events_total{action=\"stall_channel\"}"),
            1
        );
        assert_eq!(
            snap.counter("grp_fault_events_total{action=\"mshr_squeeze\"}"),
            2
        );
        assert_eq!(
            snap.counter("grp_fault_events_total{action=\"queue_pressure\"}"),
            1
        );
        assert_eq!(snap.family_total("grp_fault_events_total"), 4);
        assert_eq!(snap.counter("grp_fault_fills_dropped_total"), 1);
        assert_eq!(snap.counter("grp_fault_fills_delayed_total"), 1);
    }
}
