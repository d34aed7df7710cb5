//! `BENCH_perf.json` trajectory handling: crash-safe load/append with
//! concurrent-writer serialization, plus shape validation for both
//! entry kinds (serial harness entries and fleet-scheduler entries).
//!
//! Two harness bugs lived here before this module existed:
//!
//! * the perf bin mapped **every** `read_to_string` error to "start a
//!   fresh trajectory", so a transient `EACCES` (or a path that is a
//!   directory) silently discarded the recorded history on the next
//!   atomic write — [`load_entries`] now treats only
//!   `ErrorKind::NotFound` as fresh and refuses everything else;
//! * two concurrent `perf` processes appending to one file raced
//!   read-modify-write, losing one entry — [`append_entry`] serializes
//!   writers through a `<path>.lock` file (created with `create_new`,
//!   retried with a deadline) around the read+rename critical section.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::sched::{CellResult, FleetStats};

/// Reads the entry list from a trajectory file.
///
/// A missing file is a fresh trajectory (`Ok(vec![])`). **Any other
/// read error is fatal**: an unreadable-but-existing file must never be
/// mistaken for an empty history, because the caller's next atomic
/// write would replace the real file with a one-entry trajectory.
///
/// # Errors
///
/// Non-`NotFound` I/O errors, malformed JSON, or a document without an
/// `entries` array — all naming `path`.
pub fn load_entries(path: &str) -> Result<Vec<Json>, String> {
    load_entries_with(crate::iofault::global().map(|a| a.as_ref()), path)
}

/// [`load_entries`] with an explicit I/O fault state (tests). An
/// injected read `EIO` is indistinguishable from a real one: it must
/// surface as "refusing to reset", never as a fresh trajectory.
///
/// # Errors
///
/// As [`load_entries`], plus any injected read fault.
pub fn load_entries_with(
    faults: Option<&crate::iofault::IoFaultState>,
    path: &str,
) -> Result<Vec<Json>, String> {
    let text = match crate::iofault::read_to_string(faults, std::path::Path::new(path)) {
        Ok(t) => t,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(format!(
                "cannot read {path}: {e} — refusing to reset the recorded trajectory"
            ))
        }
    };
    let doc = Json::parse(&text)
        .map_err(|e| format!("{path} is not valid JSON ({e}); refusing to overwrite"))?;
    doc.get("entries")
        .and_then(|e| e.as_array())
        .map(|a| a.to_vec())
        .ok_or_else(|| format!("{path} exists but has no 'entries' array"))
}

/// Appends one entry to the trajectory at `path`, serialized against
/// concurrent appenders via a lock file and landed through
/// [`crate::artifact::atomic_write`].
///
/// # Errors
///
/// Lock acquisition timeout, any [`load_entries`] failure, or the
/// final write failing.
pub fn append_entry(path: &str, entry: Json) -> Result<(), String> {
    append_entry_with(crate::iofault::global().map(|a| a.as_ref()), path, entry)
}

/// [`append_entry`] with an explicit I/O fault state (tests). A fault
/// anywhere in the read-modify-write leaves the previous trajectory
/// intact — the entry is reported lost, never the history.
///
/// # Errors
///
/// As [`append_entry`], plus any injected fault.
pub fn append_entry_with(
    faults: Option<&crate::iofault::IoFaultState>,
    path: &str,
    entry: Json,
) -> Result<(), String> {
    let _lock = LockFile::acquire(path, Duration::from_secs(10))?;
    let mut entries = load_entries_with(faults, path)?;
    entries.push(entry);
    let doc = Json::object()
        .set("version", 1u64)
        .set("entries", Json::Array(entries));
    crate::artifact::atomic_write_with(faults, path, doc.render())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// A held `<target>.lock` file; removed on drop. `create_new` makes
/// creation the atomic acquire; a writer that dies without cleanup
/// leaves a stale lock that times out loudly (naming the lock path)
/// rather than deadlocking silently.
#[derive(Debug)]
struct LockFile {
    path: PathBuf,
}

impl LockFile {
    fn acquire(target: &str, timeout: Duration) -> Result<Self, String> {
        let path = PathBuf::from(format!("{target}.lock"));
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "timed out waiting for {} (held by another writer, or stale \
                             from a crashed one — remove it to proceed)",
                            path.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("cannot create lock {}: {e}", path.display())),
            }
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The host an entry is measured on: CPU count, CPU model (from
/// `/proc/cpuinfo`, `unknown` where there is none) and the compiler that
/// built the harness. Timings from different hosts do not compare.
pub fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim() == "model name")
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::object()
        .set("nproc", nproc)
        .set("cpu_model", cpu_model)
        .set("rustc", env!("GRP_RUSTC_VERSION"))
}

/// The `kernels` row of one cell: its replay throughput, plus with
/// `worker` the worker that ran it (the fleet entry shape). `None` for a
/// failed cell, which has no throughput to record.
pub fn cell_row(cell: &CellResult, worker: bool) -> Option<Json> {
    let r = cell.outcome.as_ref().ok()?;
    let secs = cell.replay_seconds.max(1e-9);
    let row = Json::object()
        .set("bench", cell.kernel)
        .set("scheme", cell.scheme.label())
        .set("events", cell.events)
        .set("sim_cycles", r.cycles)
        .set("replay_seconds", cell.replay_seconds)
        .set("events_per_sec", cell.events as f64 / secs)
        .set("sim_cycles_per_sec", r.cycles as f64 / secs);
    Some(if worker {
        row.set("worker", cell.worker as u64)
    } else {
        row
    })
}

/// The canonical harness phases, in `perf --profile` report order: a
/// group leader's setup stages ([`crate::sched::SetupStages::named`]),
/// each cell's replay, and the harness's own export.
pub const PHASES: [&str; 7] = [
    "build",
    "interpret",
    "pack",
    "cache_load",
    "cache_store",
    "replay",
    "export",
];

/// `perf --profile`'s phase breakdown: streamed [`CellResult`]s folded
/// per phase and per cell ([`Profile::add`]), plus the harness's own
/// export seconds. A cell counts one span in each phase it spent time
/// in. Rows are ordered by canonical phase, then kernel and scheme, so
/// the same profile always prints and serializes identically.
#[derive(Debug, Default)]
pub struct Profile {
    /// `(phase rank, kernel, scheme)` → `(seconds, spans)`; the export
    /// row has an empty kernel and scheme.
    rows: BTreeMap<(usize, &'static str, &'static str), (f64, u64)>,
}

impl Profile {
    /// Folds in one cell's setup stages and replay.
    pub fn add(&mut self, cell: &CellResult) {
        let replay = ("replay", cell.replay_seconds);
        for (phase, secs) in cell.stages.named().into_iter().chain([replay]) {
            self.record(phase, cell.kernel, cell.scheme.label(), secs);
        }
    }

    /// Adds the harness's own export seconds.
    pub fn add_export(&mut self, secs: f64) {
        self.record("export", "", "", secs);
    }

    fn record(&mut self, phase: &str, kernel: &'static str, scheme: &'static str, secs: f64) {
        if secs > 0.0 {
            let rank = PHASES.iter().position(|p| *p == phase).expect("a phase");
            let row = self.rows.entry((rank, kernel, scheme)).or_default();
            row.0 += secs;
            row.1 += 1;
        }
    }

    /// Seconds attributed to any phase: the coverage numerator against
    /// a measured wall clock.
    pub fn covered_seconds(&self) -> f64 {
        self.rows.values().map(|r| r.0).sum()
    }

    /// `(phase, seconds, spans)` per phase any cell spent time in,
    /// summed over cells, in canonical order.
    pub fn phase_totals(&self) -> Vec<(&'static str, f64, u64)> {
        let mut totals: Vec<(&'static str, f64, u64)> = Vec::new();
        for (&(rank, _, _), &(secs, spans)) in &self.rows {
            match totals.last_mut() {
                Some(t) if t.0 == PHASES[rank] => {
                    t.1 += secs;
                    t.2 += spans;
                }
                _ => totals.push((PHASES[rank], secs, spans)),
            }
        }
        totals
    }

    /// The report as JSON: phase totals plus the per-cell attribution
    /// rows, in canonical order.
    pub fn to_json(&self, wall_seconds: f64) -> Json {
        let covered = self.covered_seconds();
        let phases = self.phase_totals().into_iter().map(|(phase, secs, spans)| {
            Json::object()
                .set("phase", phase)
                .set("seconds", secs)
                .set("spans", spans)
        });
        let cells = self
            .rows
            .iter()
            .filter(|((_, kernel, _), _)| !kernel.is_empty())
            .map(|(&(rank, kernel, scheme), &(secs, spans))| {
                Json::object()
                    .set("phase", PHASES[rank])
                    .set("bench", kernel)
                    .set("scheme", scheme)
                    .set("seconds", secs)
                    .set("spans", spans)
            });
        Json::object()
            .set("wall_seconds", wall_seconds)
            .set("covered_seconds", covered)
            .set("coverage", covered / wall_seconds.max(1e-9))
            .set("phases", Json::Array(phases.collect()))
            .set("cells", Json::Array(cells.collect()))
    }
}

/// Builds the fleet-scheduler entry shape: the common trajectory fields
/// (so every existing reader still parses it) plus `kind: "fleet"`,
/// worker accounting, and queue-wait percentiles. `kernels` rows carry
/// a `worker` field on top of the serial per-cell fields.
pub fn fleet_entry(
    label: &str,
    scale: &str,
    schemes: &[&str],
    stats: &FleetStats,
    kernels: Vec<Json>,
) -> Json {
    let q = &stats.queue_wait_micros;
    Json::object()
        .set("label", label)
        .set("kind", "fleet")
        .set("scale", scale)
        .set(
            "schemes",
            Json::Array(schemes.iter().map(|s| Json::from(*s)).collect()),
        )
        .set("workers", stats.workers as u64)
        .set("cells", stats.cells as u64)
        .set("errors", stats.errors as u64)
        .set("steals", stats.steals)
        .set(
            "traces",
            Json::object()
                .set("interpreted", stats.traces_interpreted)
                .set("loaded", stats.traces_loaded),
        )
        .set("wall_seconds", stats.wall_seconds)
        .set("setup_seconds", stats.setup_seconds)
        .set("replay_seconds", stats.replay_seconds)
        .set("events", stats.events)
        .set("sim_cycles", stats.sim_cycles)
        .set("events_per_sec", stats.events_per_sec())
        .set("sim_cycles_per_sec", stats.sim_cycles_per_sec())
        .set(
            "per_worker",
            Json::Array(
                (0..stats.workers)
                    .map(|w| {
                        Json::object()
                            .set("worker", w as u64)
                            .set("cells", stats.cells_per_worker[w] as u64)
                            .set("busy_seconds", stats.busy_seconds[w])
                            .set("utilization", stats.utilization(w))
                    })
                    .collect(),
            ),
        )
        .set(
            "queue_wait_micros",
            Json::object()
                .set("p50", q.percentile(0.50))
                .set("p90", q.percentile(0.90))
                .set("p99", q.percentile(0.99))
                .set("max", q.max())
                .set("mean", q.mean()),
        )
        .set("kernels", Json::Array(kernels))
}

/// What [`check_trajectory`] found in a well-formed trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Entries validated.
    pub entries: usize,
    /// Comparisons the file invites but its hosts do not support: an
    /// entry whose `host` block differs from the previous entry of the
    /// same kind and scale, and a count of entries without a `host`
    /// block (recorded on a host nobody wrote down).
    pub warnings: Vec<String>,
}

/// Validates a trajectory file's structure (both entry kinds),
/// returning the entry count and host warnings. Each entry is compared
/// with the previous entry of the same kind and scale.
///
/// # Errors
///
/// Describes the first malformed field, naming the entry index.
pub fn check_trajectory(path: &str) -> Result<Checked, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("malformed: {e}"))?;
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_array())
        .ok_or("missing 'entries' array")?;
    if entries.is_empty() {
        return Err("no entries recorded".to_string());
    }
    for (i, e) in entries.iter().enumerate() {
        for key in ["label", "scale"] {
            e.get(key)
                .and_then(|v| v.as_str())
                .ok_or(format!("entry {i}: missing string '{key}'"))?;
        }
        for key in ["events_per_sec", "sim_cycles_per_sec", "replay_seconds"] {
            let v = e
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or(format!("entry {i}: missing number '{key}'"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("entry {i}: '{key}' is not positive"));
            }
        }
        let kernels = e
            .get("kernels")
            .and_then(|k| k.as_array())
            .ok_or(format!("entry {i}: missing 'kernels' array"))?;
        for (j, k) in kernels.iter().enumerate() {
            k.get("bench")
                .and_then(|v| v.as_str())
                .ok_or(format!("entry {i} kernel {j}: missing 'bench'"))?;
            k.get("scheme")
                .and_then(|v| v.as_str())
                .ok_or(format!("entry {i} kernel {j}: missing 'scheme'"))?;
            k.get("events_per_sec")
                .and_then(|v| v.as_f64())
                .ok_or(format!("entry {i} kernel {j}: missing 'events_per_sec'"))?;
        }
        if e.get("kind").and_then(|v| v.as_str()) == Some("fleet") {
            check_fleet_entry(i, e, kernels.len())?;
        }
        if let Some(host) = e.get("host") {
            for key in ["cpu_model", "rustc"] {
                host.get(key)
                    .and_then(|v| v.as_str())
                    .ok_or(format!("entry {i}: host block missing string '{key}'"))?;
            }
            host.get("nproc")
                .and_then(|v| v.as_u64())
                .ok_or(format!("entry {i}: host block missing 'nproc'"))?;
        }
    }
    Ok(Checked {
        entries: entries.len(),
        warnings: host_warnings(entries),
    })
}

/// Host warnings over validated `entries` (see [`Checked::warnings`]).
fn host_warnings(entries: &[Json]) -> Vec<String> {
    let shape = |e: &Json| {
        let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
        (s("kind"), s("scale"))
    };
    let host = |e: &Json| e.get("host").map(Json::render);
    let mut warnings = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let prev = entries[..i].iter().rposition(|p| shape(p) == shape(e));
        if let (Some(j), Some(h)) = (prev, host(e)) {
            match host(&entries[j]) {
                Some(hp) if hp != h => warnings.push(format!(
                    "entries {j} and {i} ran on different hosts ({hp} vs {h}); \
                     their timings do not compare"
                )),
                _ => {}
            }
        }
    }
    let unrecorded = entries.iter().filter(|e| e.get("host").is_none()).count();
    if unrecorded > 0 {
        warnings.push(format!(
            "{unrecorded} of {} entries carry no host block (unrecorded host)",
            entries.len()
        ));
    }
    warnings
}

/// The fleet-specific fields of one `kind: "fleet"` entry.
fn check_fleet_entry(i: usize, e: &Json, kernel_rows: usize) -> Result<(), String> {
    let workers = e
        .get("workers")
        .and_then(|v| v.as_u64())
        .ok_or(format!("entry {i}: fleet entry missing 'workers'"))?;
    if workers == 0 {
        return Err(format!("entry {i}: fleet entry has zero workers"));
    }
    let cells = e
        .get("cells")
        .and_then(|v| v.as_u64())
        .ok_or(format!("entry {i}: fleet entry missing 'cells'"))?;
    if cells as usize != kernel_rows {
        return Err(format!(
            "entry {i}: fleet 'cells' ({cells}) disagrees with kernels rows ({kernel_rows})"
        ));
    }
    let per_worker = e
        .get("per_worker")
        .and_then(|v| v.as_array())
        .ok_or(format!("entry {i}: fleet entry missing 'per_worker'"))?;
    if per_worker.len() as u64 != workers {
        return Err(format!(
            "entry {i}: per_worker has {} rows for {workers} workers",
            per_worker.len()
        ));
    }
    let mut worker_cells = 0u64;
    for (w, row) in per_worker.iter().enumerate() {
        let util = row
            .get("utilization")
            .and_then(|v| v.as_f64())
            .ok_or(format!("entry {i} worker {w}: missing 'utilization'"))?;
        if !(0.0..=1.0 + 1e-9).contains(&util) {
            return Err(format!(
                "entry {i} worker {w}: utilization {util} out of [0,1]"
            ));
        }
        row.get("busy_seconds")
            .and_then(|v| v.as_f64())
            .ok_or(format!("entry {i} worker {w}: missing 'busy_seconds'"))?;
        worker_cells += row
            .get("cells")
            .and_then(|v| v.as_u64())
            .ok_or(format!("entry {i} worker {w}: missing 'cells'"))?;
    }
    if worker_cells != cells {
        return Err(format!(
            "entry {i}: per-worker cells sum to {worker_cells}, entry says {cells}"
        ));
    }
    let q = e.get("queue_wait_micros").ok_or(format!(
        "entry {i}: fleet entry missing 'queue_wait_micros'"
    ))?;
    let pct = |key: &str| -> Result<f64, String> {
        q.get(key)
            .and_then(|v| v.as_f64())
            .ok_or(format!("entry {i}: queue_wait_micros missing '{key}'"))
    };
    let (p50, p90, p99) = (pct("p50")?, pct("p90")?, pct("p99")?);
    if !(p50 <= p90 && p90 <= p99) {
        return Err(format!(
            "entry {i}: queue-wait percentiles not monotone (p50={p50} p90={p90} p99={p99})"
        ));
    }
    // Each kernels row must name the worker that ran the cell.
    let kernels = e
        .get("kernels")
        .and_then(|k| k.as_array())
        .expect("checked");
    for (j, k) in kernels.iter().enumerate() {
        let w = k
            .get("worker")
            .and_then(|v| v.as_u64())
            .ok_or(format!("entry {i} kernel {j}: fleet row missing 'worker'"))?;
        if w >= workers {
            return Err(format!("entry {i} kernel {j}: worker {w} out of range"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SetupStages;
    use grp_core::{LatencyHist, Scheme};
    use grp_workloads::Scale;

    /// A cell whose record carries only `stages` and `replay` seconds.
    fn staged(
        kernel: &'static str,
        scheme: Scheme,
        stages: SetupStages,
        replay: f64,
    ) -> CellResult {
        CellResult {
            id: 0,
            kernel,
            scheme,
            scale: Scale::Test,
            outcome: Err(String::new()),
            events: 0,
            setup_seconds: 0.0,
            stages,
            replay_seconds: replay,
            queue_micros: 0,
            worker: 0,
            busy_seconds: 0.0,
            stolen: false,
            traces_interpreted: 0,
            traces_loaded: 0,
        }
    }

    /// mcf's group leader, gzip's leader and another gzip cell, folded
    /// out of order and after the export.
    fn sample_profile() -> Profile {
        let mut p = Profile::default();
        p.add_export(0.5);
        let mcf = SetupStages {
            build: 1.0,
            cache_store: 2.0,
            ..SetupStages::default()
        };
        p.add(&staged("mcf", Scheme::Srp, mcf, 3.0));
        p.add(&staged("gzip", Scheme::Srp, SetupStages::default(), 2.0));
        let gzip = SetupStages {
            build: 1.0,
            interpret: 1.0,
            ..SetupStages::default()
        };
        p.add(&staged("gzip", Scheme::NoPrefetch, gzip, 1.0));
        p
    }

    #[test]
    fn profile_orders_phases_canonically() {
        let p = sample_profile();
        assert_eq!(
            p.phase_totals(),
            [
                ("build", 2.0, 2),
                ("interpret", 1.0, 1),
                ("cache_store", 2.0, 1),
                ("replay", 6.0, 3),
                ("export", 0.5, 1),
            ]
        );
        assert_eq!(p.covered_seconds(), 11.5);
    }

    #[test]
    fn profile_json_carries_coverage_and_cell_rows() {
        let doc = sample_profile().to_json(23.0);
        let num = |key: &str| doc.get(key).and_then(|v| v.as_f64());
        assert_eq!(num("wall_seconds"), Some(23.0));
        assert_eq!(num("covered_seconds"), Some(11.5));
        assert_eq!(num("coverage"), Some(0.5));
        let phases = doc
            .get("phases")
            .and_then(|c| c.as_array())
            .expect("phases");
        assert_eq!(phases.len(), 5);
        // Cell rows: canonical phase, then kernel and scheme; the export
        // belongs to no cell.
        let cells = doc.get("cells").and_then(|c| c.as_array()).expect("cells");
        let key = |row: &Json, k: &str| row.get(k).and_then(|v| v.as_str()).map(String::from);
        let rows: Vec<_> = cells
            .iter()
            .map(|r| (key(r, "phase"), key(r, "bench"), key(r, "scheme")))
            .collect();
        let want = [
            ("build", "gzip", "none"),
            ("build", "mcf", "SRP"),
            ("interpret", "gzip", "none"),
            ("cache_store", "mcf", "SRP"),
            ("replay", "gzip", "SRP"),
            ("replay", "gzip", "none"),
            ("replay", "mcf", "SRP"),
        ]
        .map(|(p, b, s)| (Some(p.into()), Some(b.into()), Some(s.into())));
        assert_eq!(rows, want);
        assert_eq!(cells[0].get("spans").and_then(|v| v.as_u64()), Some(1));
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grp-traj-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn entry(label: &str) -> Json {
        Json::object()
            .set("label", label)
            .set("scale", "test")
            .set("events_per_sec", 1.0)
            .set("sim_cycles_per_sec", 1.0)
            .set("replay_seconds", 1.0)
            .set("kernels", Json::Array(vec![]))
    }

    #[test]
    fn missing_file_is_a_fresh_trajectory() {
        let dir = scratch("fresh");
        let path = dir.join("nope.json");
        assert_eq!(load_entries(path.to_str().unwrap()), Ok(Vec::new()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_existing_path_must_not_reset_history() {
        // Regression: every read error used to map to Vec::new(), so a
        // transient failure (here: the path is a *directory*, EISDIR)
        // discarded the whole recorded history on the next write. Now
        // only NotFound means "start fresh".
        let dir = scratch("unreadable");
        let path = dir.to_str().unwrap();
        let err = load_entries(path).unwrap_err();
        assert!(err.contains("refusing to reset"), "{err}");
        assert!(err.contains(path), "error names the path: {err}");
        // And append_entry refuses too, leaving the directory intact.
        let err = append_entry(path, entry("x")).unwrap_err();
        assert!(err.contains("refusing to reset"), "{err}");
        assert!(dir.is_dir(), "the unreadable target is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_json_is_fatal_not_fresh() {
        let dir = scratch("malformed");
        let path = dir.join("t.json");
        std::fs::write(&path, "{\"entries\": [tru").unwrap();
        let err = load_entries(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        let err = load_entries("/dev/null").err();
        assert!(err.is_some(), "empty file is malformed, not fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_round_trips_and_accumulates() {
        let dir = scratch("append");
        let path = dir.join("t.json");
        let p = path.to_str().unwrap();
        append_entry(p, entry("a")).expect("first");
        append_entry(p, entry("b")).expect("second");
        let entries = load_entries(p).expect("load");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].get("label").and_then(|l| l.as_str()), Some("b"));
        assert_eq!(check_trajectory(p).map(|c| c.entries), Ok(2));
        assert!(!path.with_extension("json.lock").exists(), "lock released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_both_survive() {
        // Regression for the read-modify-write race: two writers
        // appending at once used to lose one entry (both read N
        // entries, both wrote N+1). The lock file serializes them.
        let dir = scratch("race");
        let path = dir.join("t.json");
        let p: String = path.to_str().unwrap().to_string();
        const PER_THREAD: usize = 8;
        std::thread::scope(|s| {
            for t in 0..2 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        append_entry(&p, entry(&format!("t{t}-{i}"))).expect("append");
                    }
                });
            }
        });
        let entries = load_entries(&p).expect("load");
        assert_eq!(
            entries.len(),
            2 * PER_THREAD,
            "every concurrent append must survive"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_never_reset_or_tear_the_trajectory() {
        use crate::iofault::{IoFaultEvent, IoFaultKind, IoFaultPlan, IoFaultState};
        let dir = scratch("iofault");
        let path = dir.join("t.json");
        let p = path.to_str().unwrap();
        append_entry(p, entry("a")).expect("seed the history");

        // Read EIO: refuses to reset, never "fresh".
        let st = IoFaultState::new(&IoFaultPlan::new(vec![IoFaultEvent {
            op: 0,
            kind: IoFaultKind::ReadError,
        }]));
        let err = load_entries_with(Some(&st), p).unwrap_err();
        assert!(err.contains("refusing to reset"), "{err}");

        // Every write-side fault: append errors, history intact.
        for kind in [
            IoFaultKind::ShortWrite,
            IoFaultKind::WriteNoSpace,
            IoFaultKind::FsyncFail,
            IoFaultKind::RenameFail,
        ] {
            let st = IoFaultState::new(&IoFaultPlan::new(vec![IoFaultEvent {
                // op 0 is the load's read (unarmed for writes); the
                // write-class counters are independent, so op 0 is
                // this append's staged write.
                op: 0,
                kind,
            }]));
            let err = append_entry_with(Some(&st), p, entry("lost")).unwrap_err();
            assert!(err.contains("cannot write"), "{kind:?}: {err}");
            let entries = load_entries(p).expect("history readable");
            assert_eq!(
                entries.len(),
                1,
                "{kind:?}: history intact, entry reported lost"
            );
            assert!(
                !path.with_extension("json.lock").exists(),
                "{kind:?}: lock released on the error path"
            );
        }
        // A clean retry still appends.
        append_entry(p, entry("b")).expect("retry");
        assert_eq!(load_entries(p).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_times_out_with_a_named_path() {
        let dir = scratch("stale");
        let path = dir.join("t.json");
        let p = path.to_str().unwrap();
        std::fs::write(format!("{p}.lock"), "12345").unwrap();
        let err = LockFile::acquire(p, Duration::from_millis(30)).unwrap_err();
        assert!(err.contains(".lock"), "{err}");
        assert!(err.contains("stale"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fleet_stats() -> FleetStats {
        let mut q = LatencyHist::default();
        for v in [1u64, 10, 100, 1000] {
            q.record(v);
        }
        FleetStats {
            workers: 2,
            cells: 2,
            errors: 0,
            wall_seconds: 1.0,
            events: 100,
            sim_cycles: 500,
            replay_seconds: 1.5,
            setup_seconds: 0.25,
            traces_interpreted: 1,
            traces_loaded: 0,
            busy_seconds: vec![0.9, 0.8],
            cells_per_worker: vec![1, 1],
            steals: 1,
            queue_wait_micros: q,
        }
    }

    fn fleet_cell(worker: u64) -> Json {
        Json::object()
            .set("bench", "twolf")
            .set("scheme", "none")
            .set("events", 50u64)
            .set("sim_cycles", 250u64)
            .set("replay_seconds", 0.75)
            .set("events_per_sec", 66.6)
            .set("worker", worker)
    }

    #[test]
    fn fleet_entry_shape_validates() {
        let dir = scratch("fleet");
        let path = dir.join("t.json");
        let p = path.to_str().unwrap();
        let e = fleet_entry(
            "fleet-test",
            "test",
            &["none"],
            &fleet_stats(),
            vec![fleet_cell(0), fleet_cell(1)],
        );
        append_entry(p, e).expect("append fleet entry");
        assert_eq!(check_trajectory(p).map(|c| c.entries), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_entry_inconsistencies_are_flagged() {
        let dir = scratch("fleet-bad");
        let path = dir.join("t.json");
        let p = path.to_str().unwrap();
        // Worker index out of range in a cell row.
        let bad = fleet_entry(
            "fleet-bad",
            "test",
            &["none"],
            &fleet_stats(),
            vec![fleet_cell(0), fleet_cell(9)],
        );
        append_entry(p, bad).expect("append");
        let err = check_trajectory(p).unwrap_err();
        assert!(err.contains("worker 9 out of range"), "{err}");
        // Cells count disagreeing with rows.
        let mut stats = fleet_stats();
        stats.cells = 3;
        stats.cells_per_worker = vec![2, 1];
        std::fs::remove_file(&path).unwrap();
        append_entry(
            p,
            fleet_entry(
                "fleet-bad2",
                "test",
                &["none"],
                &stats,
                vec![fleet_cell(0), fleet_cell(1)],
            ),
        )
        .expect("append");
        let err = check_trajectory(p).unwrap_err();
        assert!(err.contains("disagrees with kernels rows"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_from_different_hosts_are_flagged() {
        let dir = scratch("hosts");
        let path = dir.join("t.json");
        let p = path.to_str().unwrap();
        let host = |cpu: &str| {
            Json::object()
                .set("nproc", 2u64)
                .set("cpu_model", cpu)
                .set("rustc", "rustc 1.0.0")
        };
        append_entry(p, entry("old")).expect("append");
        append_entry(p, entry("a").set("host", host("cpu-a"))).expect("append");
        append_entry(p, entry("b").set("host", host("cpu-a"))).expect("append");
        let checked = check_trajectory(p).expect("valid");
        assert_eq!(
            checked.warnings,
            vec!["1 of 3 entries carry no host block (unrecorded host)".to_string()]
        );
        append_entry(p, entry("c").set("host", host("cpu-b"))).expect("append");
        let warnings = check_trajectory(p).expect("valid").warnings;
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(
            warnings[0].starts_with("entries 2 and 3 ran on different hosts"),
            "{warnings:?}"
        );
        // A host block must be whole.
        append_entry(p, entry("d").set("host", Json::object().set("nproc", 2u64))).expect("append");
        let err = check_trajectory(p).unwrap_err();
        assert!(
            err.contains("host block missing string 'cpu_model'"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_block_names_this_host() {
        let h = host_json();
        assert!(h.get("nproc").and_then(|v| v.as_u64()).is_some());
        assert!(h.get("cpu_model").and_then(|v| v.as_str()).is_some());
        let rustc = h.get("rustc").and_then(|v| v.as_str()).unwrap_or("");
        assert!(!rustc.is_empty());
    }

    #[test]
    fn committed_trajectory_still_validates() {
        // The committed history includes entries written by older
        // harness versions (e.g. the `packed-tier` entry's
        // `replay_tier` field, no longer emitted): the checker must keep
        // accepting them.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        let text = std::fs::read_to_string(path).expect("committed trajectory");
        assert!(
            text.contains("\"replay_tier\""),
            "history keeps its packed-tier entry"
        );
        let n = check_trajectory(path)
            .expect("committed trajectory validates")
            .entries;
        assert!(n >= 4, "{n} entries");
    }
}
