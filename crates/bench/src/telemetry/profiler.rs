//! Phase-scoped hierarchical wall-clock profiler.
//!
//! Spans are RAII guards ([`Profiler::span`] /
//! [`Profiler::span_cell`]): opening pushes the phase name onto a
//! thread-local stack (so nested spans record under a `parent/child`
//! path) and dropping accumulates the elapsed wall time under
//! `(path, kernel, scheme)`. The profiler is process-global and
//! **disabled by default**: a disabled span is one relaxed atomic load
//! and no clock read, so instrumented production paths (the
//! `sched::run_cell` body wraps its build / interpret / pack / replay
//! phases) stay perf-neutral unless `perf --profile` turns it on —
//! spans sit around whole phases, never inside per-event loops.
//!
//! Reports ([`Profiler::report`]) are deterministically ordered: the
//! canonical harness phase order (`build`, `interpret`, `pack`,
//! `cache_load`, `cache_store`, `replay`, `export`) first, then
//! alphabetical, with kernel/scheme ties broken lexicographically —
//! the same profile always prints and serializes identically.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// The canonical harness phases, in report order.
pub const PHASES: [&str; 7] = [
    "build",
    "interpret",
    "pack",
    "cache_load",
    "cache_store",
    "replay",
    "export",
];

fn phase_rank(path: &str) -> usize {
    let root = path.split('/').next().unwrap_or(path);
    PHASES
        .iter()
        .position(|p| *p == root)
        .unwrap_or(PHASES.len())
}

/// One attribution key: the span path plus optional cell attribution.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanKey {
    /// `/`-joined phase path (`"replay"`, `"replay/cache_load"`, …).
    pub path: String,
    /// Kernel attribution (empty when not cell-scoped).
    pub kernel: String,
    /// Scheme label attribution (empty when not cell-scoped).
    pub scheme: String,
}

/// Accumulated cost for one [`SpanKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Total wall seconds across all spans with this key.
    pub seconds: f64,
    /// Number of spans.
    pub count: u64,
}

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The profiler: a global span accumulator (see module docs).
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: AtomicBool,
    stats: Mutex<HashMap<SpanKey, SpanStat>>,
}

impl Profiler {
    /// A fresh, disabled profiler (tests; production shares
    /// [`crate::telemetry::profiler`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns span recording on or off (off = spans cost one atomic
    /// load).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens an unattributed span for `phase`. The guard records on
    /// drop; scope guards strictly (RAII) so the thread-local path
    /// stack stays consistent.
    pub fn span(&self, phase: &'static str) -> Span<'_> {
        self.open(phase, "", "")
    }

    /// Opens a span attributed to one `(kernel, scheme)` cell.
    pub fn span_cell(&self, phase: &'static str, kernel: &str, scheme: &str) -> Span<'_> {
        self.open(phase, kernel, scheme)
    }

    fn open(&self, phase: &'static str, kernel: &str, scheme: &str) -> Span<'_> {
        if !self.enabled() {
            return Span {
                profiler: self,
                key: None,
                start: None,
            };
        }
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(phase);
            s.join("/")
        });
        Span {
            profiler: self,
            key: Some(SpanKey {
                path,
                kernel: kernel.to_string(),
                scheme: scheme.to_string(),
            }),
            start: Some(Instant::now()),
        }
    }

    fn close(&self, key: SpanKey, seconds: f64) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let mut stats = self.stats.lock().expect("profiler stats");
        let st = stats.entry(key).or_default();
        st.seconds += seconds;
        st.count += 1;
    }

    /// A deterministic report of everything recorded so far.
    pub fn report(&self) -> ProfileReport {
        let stats = self.stats.lock().expect("profiler stats");
        let mut rows: Vec<(SpanKey, SpanStat)> =
            stats.iter().map(|(k, v)| (k.clone(), *v)).collect();
        rows.sort_by(|a, b| (phase_rank(&a.0.path), &a.0).cmp(&(phase_rank(&b.0.path), &b.0)));
        ProfileReport { rows }
    }

    /// Clears all recorded spans (tests and repeated harness runs).
    pub fn reset(&self) {
        self.stats.lock().expect("profiler stats").clear();
    }
}

/// RAII span guard: records its elapsed wall time on drop.
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub struct Span<'a> {
    profiler: &'a Profiler,
    key: Option<SpanKey>,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let (Some(key), Some(start)) = (self.key.take(), self.start) {
            self.profiler.close(key, start.elapsed().as_secs_f64());
        }
    }
}

/// A deterministic, phase-ordered profile report.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// `(key, stat)` rows in canonical order.
    pub rows: Vec<(SpanKey, SpanStat)>,
}

impl ProfileReport {
    /// Seconds attributed to top-level spans (path without `/`) —
    /// children are inside their parents' wall time, so this is the
    /// coverage numerator against a measured wall clock.
    pub fn covered_seconds(&self) -> f64 {
        self.rows
            .iter()
            .filter(|(k, _)| !k.path.contains('/'))
            .map(|(_, s)| s.seconds)
            .sum()
    }

    /// Total seconds per root phase, summed over kernels/schemes, in
    /// canonical phase order.
    pub fn phase_totals(&self) -> Vec<(String, SpanStat)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: HashMap<String, SpanStat> = HashMap::new();
        for (k, s) in &self.rows {
            if k.path.contains('/') {
                continue;
            }
            let t = totals.entry(k.path.clone()).or_insert_with(|| {
                order.push(k.path.clone());
                SpanStat::default()
            });
            t.seconds += s.seconds;
            t.count += s.count;
        }
        order.into_iter().map(|p| (p.clone(), totals[&p])).collect()
    }

    /// The full report as JSON: phase totals plus the per-cell
    /// attribution table, in canonical order.
    pub fn to_json(&self, wall_seconds: f64) -> Json {
        let covered = self.covered_seconds();
        let phases: Vec<Json> = self
            .phase_totals()
            .into_iter()
            .map(|(p, s)| {
                Json::object()
                    .set("phase", p.as_str())
                    .set("seconds", s.seconds)
                    .set("spans", s.count)
            })
            .collect();
        let cells: Vec<Json> = self
            .rows
            .iter()
            .filter(|(k, _)| !k.kernel.is_empty())
            .map(|(k, s)| {
                Json::object()
                    .set("phase", k.path.as_str())
                    .set("bench", k.kernel.as_str())
                    .set("scheme", k.scheme.as_str())
                    .set("seconds", s.seconds)
                    .set("spans", s.count)
            })
            .collect();
        Json::object()
            .set("wall_seconds", wall_seconds)
            .set("covered_seconds", covered)
            .set("coverage", covered / wall_seconds.max(1e-9))
            .set("phases", Json::Array(phases))
            .set("cells", Json::Array(cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let p = Profiler::new();
        {
            let _s = p.span("build");
        }
        assert!(p.report().rows.is_empty());
        assert_eq!(p.report().covered_seconds(), 0.0);
    }

    #[test]
    fn spans_accumulate_and_nest() {
        let p = Profiler::new();
        p.set_enabled(true);
        {
            let _outer = p.span("replay");
            let _inner = p.span("cache_load");
        }
        {
            let _again = p.span_cell("replay", "gzip", "SRP");
        }
        let report = p.report();
        let paths: Vec<&str> = report.rows.iter().map(|(k, _)| k.path.as_str()).collect();
        assert_eq!(paths, ["replay", "replay", "replay/cache_load"]);
        // Nested spans are excluded from coverage (inside the parent).
        let covered = report.covered_seconds();
        let top: f64 = report
            .rows
            .iter()
            .filter(|(k, _)| k.path == "replay")
            .map(|(_, s)| s.seconds)
            .sum();
        assert!((covered - top).abs() < 1e-12);
        let (key, stat) = &report.rows[1];
        assert_eq!(key.kernel, "gzip");
        assert_eq!(key.scheme, "SRP");
        assert_eq!(stat.count, 1);
        p.reset();
        assert!(p.report().rows.is_empty());
    }

    #[test]
    fn report_order_is_canonical_and_deterministic() {
        let p = Profiler::new();
        p.set_enabled(true);
        for (phase, kernel) in [
            ("export", ""),
            ("build", "mcf"),
            ("build", "gzip"),
            ("replay", "gzip"),
        ] {
            let _s = p.span_cell(phase, kernel, "none");
            drop(_s);
        }
        let a: Vec<(String, String)> = p
            .report()
            .rows
            .iter()
            .map(|(k, _)| (k.path.clone(), k.kernel.clone()))
            .collect();
        assert_eq!(
            a,
            [
                ("build".into(), "gzip".into()),
                ("build".into(), "mcf".into()),
                ("replay".into(), "gzip".into()),
                ("export".into(), "".into()),
            ]
        );
        // phase_totals aggregates per root phase in the same order.
        let totals = p.report().phase_totals();
        let names: Vec<&str> = totals.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(names, ["build", "replay", "export"]);
        assert_eq!(totals[0].1.count, 2);
    }

    #[test]
    fn json_shape_carries_coverage_and_cells() {
        let p = Profiler::new();
        p.set_enabled(true);
        {
            let _s = p.span_cell("replay", "gzip", "SRP");
        }
        let doc = p.report().to_json(1.0);
        assert!(doc.get("coverage").and_then(|v| v.as_f64()).is_some());
        let cells = doc.get("cells").and_then(|c| c.as_array()).expect("cells");
        let first = cells.first().expect("one cell");
        assert_eq!(first.get("bench").and_then(|v| v.as_str()), Some("gzip"));
        assert_eq!(first.get("phase").and_then(|v| v.as_str()), Some("replay"));
    }
}
