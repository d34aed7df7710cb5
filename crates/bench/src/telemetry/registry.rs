//! Process-wide metrics registry: named counters, gauges, and
//! histograms behind lock-free handles, read at scrape time.
//!
//! The update path is wait-free after handle creation: a [`Counter`] /
//! [`Gauge`] / [`Hist`] handle wraps an `Arc` of atomics, and every
//! `add`/`set`/`record` is a relaxed atomic op. Handle *creation* takes
//! the registry's map lock once; hot loops hold handles. Every batch
//! and session that records into a registry reuses its cells, so its
//! size depends on the metric ids, not on the traffic.
//!
//! Scraping ([`Registry::snapshot`]) copies the cells: counters and
//! gauges by value (a gauge keeps its last write), histograms through
//! [`LatencyHist::absorb_parts`] — the same bucket
//! contract as the simulator's observer-layer histograms, so fleet
//! queue-wait percentiles come from the same machinery as the epoch
//! sampler's latency accounting. A histogram snapshot derives its
//! count from the bucket totals, so "bucket counts sum to the total"
//! holds even for a scrape racing concurrent `record` calls.
//!
//! Metric identity is the canonical string `name` or
//! `name{k1="v1",k2="v2"}` with label keys sorted — snapshots are
//! `BTreeMap`s, so every exposition is deterministically ordered.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use grp_core::LatencyHist;

/// Renders the canonical metric id: `name` bare, or
/// `name{k1="v1",…}` with label keys sorted so the same labels in any
/// order produce the same id. Label values escape `\` and `"`.
pub fn metric_id(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// The family (metric name) of a canonical id: everything before the
/// first `{`.
pub fn family(id: &str) -> &str {
    id.split('{').next().unwrap_or(id)
}

/// A monotonically increasing counter handle (clone-cheap).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `v` (relaxed atomic; wait-free).
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (for tests; scrapes go through the registry).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle storing an `f64` (as bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge (relaxed atomic store of the value's bits).
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lock-free histogram cell: 32 power-of-two buckets under the
/// [`LatencyHist::bucket_index`] contract plus advisory sum/max.
#[derive(Debug, Default)]
pub struct AtomicHist {
    buckets: [AtomicU64; 32],
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    /// Merges this cell's current contents into `h` (scrape-time).
    fn merge_into(&self, h: &mut LatencyHist) {
        let mut buckets = [0u64; 32];
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        h.absorb_parts(
            &buckets,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
    }
}

/// A histogram handle (clone-cheap).
#[derive(Debug, Clone)]
pub struct Hist(Arc<AtomicHist>);

impl Hist {
    /// Records one sample (three relaxed atomic ops; wait-free).
    pub fn record(&self, v: u64) {
        self.0.buckets[LatencyHist::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }
}

/// The registry: named metric cells, copied into a [`Snapshot`] at
/// scrape time. Updates through handles are wait-free; the maps are
/// only locked to create or enumerate handles.
///
/// Cheap to create (tests use a fresh one per case); long-lived code
/// shares one through [`crate::telemetry::registry`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, Arc<AtomicU64>>>,
    hists: Mutex<HashMap<String, Arc<AtomicHist>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter handle for `name` + `labels`, creating the cell on
    /// first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter_id(&metric_id(name, labels))
    }

    /// The counter handle for an already-canonical id (as produced by
    /// [`metric_id`] and carried in snapshots/expositions). Restart
    /// carryover uses this to re-seed counters from a previous scrape
    /// without re-deriving name/label pairs.
    pub fn counter_id(&self, id: &str) -> Counter {
        Counter(
            self.counters
                .lock()
                .expect("counter map")
                .entry(id.to_string())
                .or_default()
                .clone(),
        )
    }

    /// The gauge handle for `name` + `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = metric_id(name, labels);
        Gauge(
            self.gauges
                .lock()
                .expect("gauge map")
                .entry(id)
                .or_default()
                .clone(),
        )
    }

    /// The histogram handle for `name` + `labels`.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        let id = metric_id(name, labels);
        Hist(
            self.hists
                .lock()
                .expect("hist map")
                .entry(id)
                .or_default()
                .clone(),
        )
    }

    /// Copies every cell into one deterministic [`Snapshot`]. Safe to
    /// call while recorders are updating: counters and histogram buckets
    /// are monotone, and a histogram's count is derived from its
    /// buckets, so a concurrent scrape sees a consistent (if slightly
    /// stale) view — never a torn one.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (id, cell) in self.counters.lock().expect("counter map").iter() {
            snap.counters
                .insert(id.clone(), cell.load(Ordering::Relaxed));
        }
        for (id, cell) in self.gauges.lock().expect("gauge map").iter() {
            snap.gauges
                .insert(id.clone(), f64::from_bits(cell.load(Ordering::Relaxed)));
        }
        for (id, cell) in self.hists.lock().expect("hist map").iter() {
            cell.merge_into(snap.hists.entry(id.clone()).or_default());
        }
        snap
    }
}

/// A deterministically ordered view of the registry at one scrape.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter id → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge id → last written value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram id → distribution.
    pub hists: BTreeMap<String, LatencyHist>,
}

impl Snapshot {
    /// The counter value for a canonical id (0 when absent).
    pub fn counter(&self, id: &str) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Sum of every counter in `name`'s family across all label sets.
    pub fn family_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| family(id) == name)
            .map(|(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_canonical_and_label_order_free() {
        assert_eq!(metric_id("x_total", &[]), "x_total");
        assert_eq!(
            metric_id("x_total", &[("b", "2"), ("a", "1")]),
            "x_total{a=\"1\",b=\"2\"}"
        );
        assert_eq!(
            metric_id("x_total", &[("a", "1"), ("b", "2")]),
            metric_id("x_total", &[("b", "2"), ("a", "1")])
        );
        assert_eq!(
            metric_id("q", &[("k", "say \"hi\"")]),
            "q{k=\"say \\\"hi\\\"\"}"
        );
        assert_eq!(family("x_total{a=\"1\"}"), "x_total");
        assert_eq!(family("x_total"), "x_total");
    }

    #[test]
    fn every_recorder_shares_the_registry_cells() {
        let reg = Registry::new();
        reg.counter("jobs_total", &[("k", "gzip")]).add(3);
        reg.counter("jobs_total", &[("k", "gzip")]).add(4);
        reg.counter("jobs_total", &[("k", "mcf")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs_total{k=\"gzip\"}"), 7);
        assert_eq!(snap.counter("jobs_total{k=\"mcf\"}"), 1);
        assert_eq!(snap.family_total("jobs_total"), 8);
        assert_eq!(snap.counter("absent_total"), 0);
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let reg = Registry::new();
        reg.gauge("workers", &[]).set(2.0);
        reg.gauge("workers", &[]).set(8.0);
        assert_eq!(reg.snapshot().gauges["workers"], 8.0);
    }

    #[test]
    fn hists_snapshot_through_absorb_parts() {
        let reg = Registry::new();
        let ha = reg.hist("wait_micros", &[]);
        let hb = reg.hist("wait_micros", &[]);
        for v in [0, 5, 100] {
            ha.record(v);
        }
        hb.record(1 << 20);
        let snap = reg.snapshot();
        let h = &snap.hists["wait_micros"];
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 105 + (1 << 20));
        assert_eq!(h.max(), 1 << 20);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
        // Serial reference: same samples through one LatencyHist.
        let mut want = LatencyHist::default();
        for v in [0u64, 5, 100, 1 << 20] {
            want.record(v);
        }
        assert_eq!(h.buckets(), want.buckets());
        assert_eq!(h.percentile(0.5), want.percentile(0.5));
    }

    #[test]
    fn handles_are_shared_within_a_registry() {
        let s = Registry::new();
        let c1 = s.counter("n_total", &[]);
        let c2 = s.counter("n_total", &[]);
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2, "same cell behind both handles");
        let g = s.gauge("v", &[]);
        g.set(1.5);
        assert_eq!(s.gauge("v", &[]).get(), 1.5);
    }
}
