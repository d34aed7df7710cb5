//! Work-stealing cell scheduler: shards `(kernel, scheme, config)`
//! simulation *cells* across OS threads. The unit of work is a **trace
//! group**: the cells of one batch that replay the same kernel at the
//! same scale. Hints never change what a kernel executes, so every
//! scheme of a kernel replays one hint-free interpretation: the seven
//! hint-free schemes replay its trace, and each GRP compiler
//! configuration replays a [`HintView`] over it. The 18 × 12 grid holds
//! 18 groups and interprets 18 times.
//!
//! * A group's first cell obtains its traces **once** (`obtain_group`:
//!   with a trace cache, one load per compiler configuration; on a miss,
//!   or without a cache, one build → interpret, then a pack and store of
//!   each missing configuration) and holds them in an `Arc`; the group's
//!   other cells go to the *front* of that worker's deque as replay
//!   tasks. A worker takes a new group only once its deque holds no
//!   replays, so every live trace is one a worker is using right now.
//! * Built workloads are shared **read-only** between workers through
//!   [`WorkloadCache`] (`Arc<BuiltWorkload>` keyed by `(kernel, scale)`),
//!   so a kernel is never rebuilt — whichever worker gets there first
//!   builds, everyone else waits on that one build.
//! * Groups are ordered **largest-first** by a static cost model
//!   ([`group_weight`]: one interpretation plus the group's replays) and
//!   dealt round-robin into per-worker deques; an idle worker steals
//!   from the *back* of a victim's deque — an undealt group, or the last
//!   replay task of the victim's current group — so big early groups
//!   stay with their owner and stragglers spread out.
//! * Cancellation, deadlines, panic isolation and replies stay **per
//!   cell**: every cell passes the pickup gate on its own, and every job
//!   gets exactly one [`CellResult`], even when its group's trace could
//!   not be obtained.
//! * Results stream to the caller **as cells complete** over a channel
//!   (`on_complete` runs on the calling thread), so artifacts can be
//!   written incrementally instead of at end-of-run.
//!
//! Determinism: scheduling order and steal order are timing-dependent,
//! but every cell is an internally-deterministic replay of a trace that
//! replay never mutates (the post-interpretation `Memory` is read-only)
//! — per-cell `RunResult`s are bit-identical to the reference
//! `BuiltWorkload::run` for any worker count and any steal interleaving.
//! `crates/bench/tests/fleet.rs` enforces this over the full 18×12 grid.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use grp_compiler::{analyze, AnalysisConfig};
use grp_core::{EventSource, LatencyHist, Replay, RunResult, Scheme, SimConfig};
use grp_cpu::{PackedTrace, TraceEvent};
use grp_ir::{BaseTrace, HintMap, HintView};
use grp_mem::{HeapRange, Memory};
use grp_workloads::{BuiltWorkload, Scale};

use crate::telemetry::registry::{Registry, Shard};
use crate::tracecache::TraceCache;

/// How cells run: optionally through a cross-process [`TraceCache`] of
/// packed, pre-interpreted traces (`--trace-cache <dir>`), and
/// optionally recording fleet metrics. Both knobs are observationally
/// pure: per-cell `RunResult`s are bit-identical with and without them
/// (enforced by the scheduler determinism tests and `check` phase 0).
#[derive(Debug, Clone, Default)]
pub struct ReplayMode {
    /// Inert: read nowhere. A cell replays whichever trace form its
    /// trace group holds, so there is no tier to choose.
    /// The field is kept only so existing struct literals of
    /// `ReplayMode` keep compiling.
    pub packed: bool,
    /// Persist and reuse packed traces + memory images across
    /// processes, one entry per `(kernel, scale, compiler
    /// configuration)`. A group whose entries all hit skips build,
    /// interpretation and hint derivation entirely; stale or corrupt
    /// entries read as misses and are rebuilt, never trusted.
    pub trace_cache: Option<Arc<TraceCache>>,
    /// Metrics registry the fleet records into (`grp_fleet_*`,
    /// `grp_replay_*`, `grp_sim_*` families; one shard per worker,
    /// merged at scrape). `None` — the default — records nothing and
    /// adds nothing to the replay path.
    pub telemetry: Option<Arc<Registry>>,
}

impl ReplayMode {
    /// This mode with fleet metrics recorded into `reg`.
    pub fn with_telemetry(mut self, reg: Arc<Registry>) -> Self {
        self.telemetry = Some(reg);
        self
    }
}

/// One schedulable unit: a single `(kernel, scheme, config)` simulation.
#[derive(Debug, Clone, Copy)]
pub struct CellJob {
    /// Caller's correlation id, echoed in [`CellResult::id`] (the serve
    /// protocol uses it to match replies to requests).
    pub id: u64,
    /// Registry kernel name (`"bzip2"`, …). Unknown names surface as an
    /// `Err` outcome for this cell only, never a panic.
    pub kernel: &'static str,
    /// The scheme to replay.
    pub scheme: Scheme,
    /// Problem size; part of the workload-cache key.
    pub scale: Scale,
    /// Platform configuration for the timing simulation.
    pub cfg: SimConfig,
    /// Wall-clock deadline: a cell whose deadline has passed **at
    /// pickup** is failed with a [`DEADLINE_EXCEEDED`]-prefixed error
    /// instead of running (a cell already executing runs to completion
    /// — the in-simulation `--max-cycles` watchdog bounds that side).
    /// `None` (the default) never expires.
    pub deadline: Option<Instant>,
}

/// Error prefix for a cell whose [`CellJob::deadline`] passed before
/// pickup. The serve layer surfaces it verbatim as the named
/// `deadline_exceeded` reply.
pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";

/// Error text for a cell skipped because its batch was cancelled
/// (client disconnected mid-batch).
pub const CANCELLED: &str = "cancelled: client disconnected before this cell ran";

/// Shared cancel flag for one batch of cells: flipping it makes every
/// not-yet-picked-up cell in the batch fail with [`CANCELLED`] instead
/// of running, so a dead client stops costing simulation time without
/// killing the session or other connections.
#[derive(Debug, Default)]
pub struct BatchCtl {
    cancelled: AtomicBool,
}

impl BatchCtl {
    /// A fresh, un-cancelled control.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancels the remaining (unstarted) cells of the batch.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`BatchCtl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// A completed cell, streamed to `on_complete` in completion order.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// [`CellJob::id`], echoed.
    pub id: u64,
    /// Kernel name, echoed.
    pub kernel: &'static str,
    /// Scheme, echoed.
    pub scheme: Scheme,
    /// Scale, echoed.
    pub scale: Scale,
    /// The simulation result, or why this cell failed (unknown kernel,
    /// or a panic inside build/trace/replay). One poisoned cell never
    /// takes down the fleet.
    pub outcome: Result<RunResult, String>,
    /// Trace events replayed (0 on error).
    pub events: u64,
    /// Seconds spent obtaining the traces before replay: non-zero only
    /// for the cell that obtained its group's traces (and includes the
    /// workload build only for the worker that actually built it).
    pub setup_seconds: f64,
    /// Seconds spent in the replay loop alone — the comparable unit to the
    /// serial perf harness's replay column.
    pub replay_seconds: f64,
    /// Microseconds the cell waited from scheduler start to pickup.
    pub queue_micros: u64,
    /// Index of the worker that ran the cell.
    pub worker: usize,
}

/// Aggregate accounting for one [`run_cells`] invocation.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Workers spawned.
    pub workers: usize,
    /// Cells completed (success + error).
    pub cells: usize,
    /// Cells whose outcome was `Err`.
    pub errors: usize,
    /// Wall-clock seconds from scheduler start to last cell done.
    pub wall_seconds: f64,
    /// Total trace events replayed across all cells.
    pub events: u64,
    /// Total simulated cycles across all cells.
    pub sim_cycles: u64,
    /// Sum of per-cell replay seconds (aggregate busy replay time).
    pub replay_seconds: f64,
    /// Sum of per-cell setup seconds (builds + hint derivation).
    pub setup_seconds: f64,
    /// Kernel interpretations: one per trace group with a compiler
    /// configuration the trace cache could not serve.
    pub traces_interpreted: u64,
    /// Traces loaded from the trace cache (one per hit configuration).
    pub traces_loaded: u64,
    /// Per-worker busy seconds (time executing cells, not idle/steal).
    pub busy_seconds: Vec<f64>,
    /// Per-worker completed-cell counts.
    pub cells_per_worker: Vec<usize>,
    /// Cells a worker took from another worker's deque.
    pub steals: u64,
    /// Queue-wait distribution (microseconds from scheduler start to
    /// cell pickup), reusing the observer layer's power-of-two
    /// histogram so percentiles come from the same machinery as the
    /// epoch sampler's latency accounting.
    pub queue_wait_micros: LatencyHist,
}

impl FleetStats {
    /// Aggregate fleet throughput: trace events replayed per wall
    /// second across all workers (the "millions of users" headline).
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }

    /// Aggregate simulated cycles per wall second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds.max(1e-9)
    }

    /// Worker `w`'s busy fraction of the wall clock.
    pub fn utilization(&self, w: usize) -> f64 {
        (self.busy_seconds[w] / self.wall_seconds.max(1e-9)).min(1.0)
    }
}

/// Built workloads shared read-only across workers (and, in server
/// mode, across request batches), keyed by `(kernel, scale)`.
///
/// Each slot is a [`OnceLock`]: the first worker to need a workload
/// builds it, concurrent requesters block on that one build instead of
/// duplicating it, and every user gets the same `Arc`.
#[derive(Debug, Default)]
pub struct WorkloadCache {
    map: Mutex<HashMap<(&'static str, Scale), Arc<OnceLock<Arc<BuiltWorkload>>>>>,
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built workload for `(kernel, scale)`, building it exactly
    /// once on first use.
    ///
    /// # Errors
    ///
    /// Names the unknown kernel when it is not in the registry.
    pub fn get_or_build(&self, kernel: &str, scale: Scale) -> Result<Arc<BuiltWorkload>, String> {
        let w = grp_workloads::by_name(kernel).ok_or_else(|| {
            format!("unknown workload '{kernel}' (valid: registry names, e.g. gzip, mcf, bzip2)")
        })?;
        let slot = self
            .map
            .lock()
            .expect("workload cache")
            .entry((w.name, scale))
            .or_default()
            .clone();
        Ok(slot.get_or_init(|| Arc::new(w.build(scale))).clone())
    }

    /// The cached workload, if already built (never builds).
    pub fn get(&self, kernel: &str, scale: Scale) -> Option<Arc<BuiltWorkload>> {
        let w = grp_workloads::by_name(kernel)?;
        self.map
            .lock()
            .expect("workload cache")
            .get(&(w.name, scale))
            .and_then(|slot| slot.get().cloned())
    }

    /// Seeds the cache with an already-built workload. A previously-built
    /// entry wins: the cache never swaps a workload out from under
    /// readers.
    pub fn insert(&self, kernel: &'static str, scale: Scale, built: Arc<BuiltWorkload>) {
        let slot = self
            .map
            .lock()
            .expect("workload cache")
            .entry((kernel, scale))
            .or_default()
            .clone();
        let _ = slot.set(built);
    }

    /// Number of built workloads resident.
    pub fn built_count(&self) -> usize {
        self.map
            .lock()
            .expect("workload cache")
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

/// A kernel's shares of the Small-scale 18 × 12 grid, in per mille:
/// `(replay wall, trace events)`. Measured with `perf --scale small
/// --fleet --profile --jobs 2` on a 2-vCPU Xeon host; unknown kernels
/// weigh least.
fn kernel_shares(kernel: &str) -> (u64, u64) {
    match kernel {
        "bzip2" => (274, 124),
        "swim" => (147, 101),
        "crafty" => (123, 245),
        "applu" => (111, 145),
        "art" => (71, 112),
        "gzip" => (49, 45),
        "apsi" => (35, 29),
        "gap" => (32, 21),
        "mesa" => (28, 17),
        "mgrid" => (25, 40),
        "sphinx" => (24, 10),
        "wupwise" => (17, 46),
        "equake" => (15, 17),
        "vpr" => (13, 14),
        "twolf" => (11, 12),
        "parser" => (10, 8),
        "mcf" => (8, 11),
        "ammp" => (7, 4),
        _ => (1, 1),
    }
}

/// One interpretation's cost per per-mille of the grid's events, in
/// [`cell_weight`] units: 216 interpretations of the grid took 19.4 s on
/// the calibration host, i.e. 1.62 s per full pass over the 18 kernels
/// = 162 units per mille.
const INTERPRET_WEIGHT_PER_EVENT_PERMILLE: u64 = 162;

/// Static cost of replaying one cell, in units of 10 µs of replay on
/// the calibration host: the kernel's per-mille share of the grid's
/// replay wall times the scheme's replay centiseconds summed over the
/// 18 kernels (none 117, stride 191, SRP and SRP+ptr 413 — one class,
/// their mean —, GRP/Fix 273, GRP/cons 271, GRP/Var 242, GRP/aggr 238,
/// hw-ptr 148, GRP-ptr 124, perfect-L2 88, perfect-L1 58). Interpretation
/// is not in it: a trace group pays that once ([`group_weight`]). Only
/// *load balance* depends on this — results never do — so a stale table
/// degrades tail latency, not correctness.
pub fn cell_weight(kernel: &str, scheme: Scheme) -> u64 {
    let s: u64 = match scheme {
        Scheme::Srp | Scheme::SrpPointer => 413,
        Scheme::GrpFix => 273,
        Scheme::GrpConservative => 271,
        Scheme::GrpVar => 242,
        Scheme::GrpAggressive => 238,
        Scheme::Stride => 191,
        Scheme::HwPointer => 148,
        Scheme::GrpPointer => 124,
        Scheme::NoPrefetch => 117,
        Scheme::PerfectL2 => 88,
        Scheme::PerfectL1 => 58,
    };
    kernel_shares(kernel).0 * s
}

/// Static cost of a trace group of `kernel` — one interpretation (in
/// proportion to the kernel's trace events) plus one replay per scheme
/// (12 for a full grid row) — in [`cell_weight`] units. The scheduler
/// deals groups by it.
pub fn group_weight(kernel: &str, schemes: impl IntoIterator<Item = Scheme>) -> u64 {
    let interpret = kernel_shares(kernel).1 * INTERPRET_WEIGHT_PER_EVENT_PERMILLE;
    interpret
        + schemes
            .into_iter()
            .map(|s| cell_weight(kernel, s))
            .sum::<u64>()
}

/// The full `names × schemes` grid as cell jobs (row-major ids), ready
/// for [`run_cells`].
pub fn grid_jobs(
    names: &[&'static str],
    schemes: &[Scheme],
    scale: Scale,
    cfg: SimConfig,
) -> Vec<CellJob> {
    let mut jobs = Vec::with_capacity(names.len() * schemes.len());
    for (i, &kernel) in names.iter().enumerate() {
        for (j, &scheme) in schemes.iter().enumerate() {
            jobs.push(CellJob {
                id: (i * schemes.len() + j) as u64,
                kernel,
                scheme,
                scale,
                cfg,
                deadline: None,
            });
        }
    }
    jobs
}

/// Runs every job across `workers` threads with work stealing, calling
/// `on_complete` on the **calling thread** as each cell finishes
/// (completion order, not submission order — correlate via
/// [`CellResult::id`]).
///
/// Worker panics inside a cell are caught and surfaced as that cell's
/// `Err` outcome; the fleet always runs to completion.
pub fn run_cells<F: FnMut(CellResult)>(
    jobs: &[CellJob],
    workers: usize,
    cache: &WorkloadCache,
    on_complete: F,
) -> FleetStats {
    run_cells_mode(jobs, workers, cache, &ReplayMode::default(), on_complete)
}

/// [`run_cells`] under an explicit [`ReplayMode`] (trace cache and/or
/// telemetry). Per-cell results are bit-identical to the default mode;
/// only setup/replay timing shifts.
pub fn run_cells_mode<F: FnMut(CellResult)>(
    jobs: &[CellJob],
    workers: usize,
    cache: &WorkloadCache,
    mode: &ReplayMode,
    on_complete: F,
) -> FleetStats {
    run_cells_ctl(jobs, workers, cache, mode, None, on_complete)
}

/// The key of the trace group a cell joins: every scheme of a kernel at
/// one scale replays views of one interpretation, so a batch
/// interprets each kernel at most once.
fn group_key(job: &CellJob) -> (&'static str, Scale) {
    (job.kernel, job.scale)
}

/// Why a group's trace could not be obtained, shared by its cells.
enum Unavailable {
    /// `obtain_group` returned an error (unknown kernel, unpackable
    /// trace); every cell reports it verbatim.
    Failed(String),
    /// Build or interpretation panicked with this message.
    Panicked(String),
}

impl Unavailable {
    /// The error reported for `job`, one of the group's cells.
    fn for_cell(&self, job: &CellJob) -> String {
        match self {
            Unavailable::Failed(e) => e.clone(),
            Unavailable::Panicked(m) => format!("cell {}/{} panicked: {m}", job.kernel, job.scheme),
        }
    }
}

/// A group's traces, shared by the replay tasks of its cells.
type SharedTrace = Arc<Result<GroupTrace, Unavailable>>;

/// One entry of a worker's deque.
enum Task {
    /// The not-yet-started cells of one trace group, heaviest first:
    /// the first cell that passes the pickup gate obtains the traces.
    Group(VecDeque<CellJob>),
    /// One cell replaying a trace its group already obtained.
    Replay(CellJob, SharedTrace),
}

/// [`run_cells_mode`] with an optional per-batch [`BatchCtl`]: at cell
/// pickup a cancelled batch fails the cell with [`CANCELLED`] and an
/// expired [`CellJob::deadline`] fails it with a
/// [`DEADLINE_EXCEEDED`]-prefixed error — in both cases the cell is
/// skipped (never simulated) but still streamed to `on_complete`, so
/// every job gets exactly one reply and a batch can never hang or lose
/// a cell. A skipped first cell hands its group's trace to the next
/// cell of the group.
pub fn run_cells_ctl<F: FnMut(CellResult)>(
    jobs: &[CellJob],
    workers: usize,
    cache: &WorkloadCache,
    mode: &ReplayMode,
    ctl: Option<&BatchCtl>,
    mut on_complete: F,
) -> FleetStats {
    let workers = workers.max(1).min(jobs.len().max(1));

    // Group by kernel and scale (first-seen order), heaviest cell first within
    // a group; then deal the groups largest-first (stable, so equal-
    // weight groups keep submission order) round-robin, so every worker
    // starts on one of the heaviest remaining groups.
    let mut groups: Vec<Vec<CellJob>> = Vec::new();
    let mut keys = Vec::new();
    for job in jobs {
        let key = group_key(job);
        match keys.iter().position(|k| *k == key) {
            Some(g) => groups[g].push(*job),
            None => {
                keys.push(key);
                groups.push(vec![*job]);
            }
        }
    }
    for g in &mut groups {
        g.sort_by_key(|j| std::cmp::Reverse(cell_weight(j.kernel, j.scheme)));
    }
    groups
        .sort_by_key(|g| std::cmp::Reverse(group_weight(g[0].kernel, g.iter().map(|j| j.scheme))));
    let queues: Vec<Mutex<VecDeque<Task>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, group) in groups.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("deal")
            .push_back(Task::Group(group.into()));
    }

    let steals = AtomicU64::new(0);
    let traces_interpreted = AtomicU64::new(0);
    let traces_loaded = AtomicU64::new(0);
    let busy: Vec<Mutex<(f64, usize)>> = (0..workers).map(|_| Mutex::new((0.0, 0))).collect();
    // One registry shard per worker: each worker records lock-free into
    // its own handles; merging happens only when someone scrapes.
    let shards: Option<Vec<Arc<Shard>>> = mode
        .telemetry
        .as_ref()
        .map(|reg| (0..workers).map(|_| reg.shard()).collect());
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<CellResult>();

    let mut stats = FleetStats {
        workers,
        cells: 0,
        errors: 0,
        wall_seconds: 0.0,
        events: 0,
        sim_cycles: 0,
        replay_seconds: 0.0,
        setup_seconds: 0.0,
        traces_interpreted: 0,
        traces_loaded: 0,
        busy_seconds: vec![0.0; workers],
        cells_per_worker: vec![0; workers],
        steals: 0,
        queue_wait_micros: LatencyHist::default(),
    };

    std::thread::scope(|s| {
        for me in 0..workers {
            let tx = tx.clone();
            let (queues, busy, steals) = (&queues, &busy, &steals);
            let (traces_interpreted, traces_loaded) = (&traces_interpreted, &traces_loaded);
            let shard = shards.as_ref().map(|s| s[me].clone());
            s.spawn(move || loop {
                // Own deque first (front: the current group's replays,
                // then the biggest still-local group)…
                let mut task = queues[me].lock().expect("own deque").pop_front();
                // …then steal from the back of the first non-empty victim.
                if task.is_none() {
                    for off in 1..queues.len() {
                        let victim = (me + off) % queues.len();
                        if let Some(t) = queues[victim].lock().expect("victim deque").pop_back() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            if let Some(shard) = &shard {
                                shard.counter("grp_fleet_steals_total", &[]).inc();
                            }
                            task = Some(t);
                            break;
                        }
                    }
                }
                let Some(task) = task else { return };
                let queue_micros = start.elapsed().as_micros() as u64;
                let t0 = Instant::now();
                let (job, shared, rest) = match task {
                    Task::Replay(job, shared) => (job, Some(shared), VecDeque::new()),
                    Task::Group(mut cells) => {
                        let job = cells.pop_front().expect("groups are never empty");
                        (job, None, cells)
                    }
                };
                // Pickup gate: a cancelled batch or an expired deadline
                // skips the simulation but still produces a named-error
                // result, so the caller sees every cell exactly once. A
                // skipped group leader puts the rest of its group back at
                // the front of this deque; the next cell there leads it.
                let (outcome, events, setup_seconds, replay_seconds) =
                    if let Some(e) = pickup_gate(&job, ctl) {
                        if !rest.is_empty() {
                            queues[me]
                                .lock()
                                .expect("own deque")
                                .push_front(Task::Group(rest));
                        }
                        (Err(e), 0, 0.0, 0.0)
                    } else {
                        let (shared, setup_seconds) = match shared {
                            Some(shared) => (shared, 0.0),
                            None => {
                                let shared = obtain_shared(&job, &rest, cache, mode);
                                if let Ok(group) = shared.as_ref() {
                                    let interpreted = u64::from(group.interpreted());
                                    let loaded = group.loaded();
                                    traces_interpreted.fetch_add(interpreted, Ordering::Relaxed);
                                    traces_loaded.fetch_add(loaded, Ordering::Relaxed);
                                    if let Some(shard) = &shard {
                                        for (source, n) in
                                            [("interpret", interpreted), ("cache", loaded)]
                                        {
                                            if n > 0 {
                                                shard
                                                    .counter(
                                                        "grp_fleet_traces_total",
                                                        &[("source", source)],
                                                    )
                                                    .add(n);
                                            }
                                        }
                                    }
                                }
                                // The group's other cells replay these
                                // traces: pushed to the front (in order) so
                                // this worker runs them next, and idle
                                // workers steal them from the back.
                                let mut q = queues[me].lock().expect("own deque");
                                for c in rest.into_iter().rev() {
                                    q.push_front(Task::Replay(c, shared.clone()));
                                }
                                drop(q);
                                (shared, t0.elapsed().as_secs_f64())
                            }
                        };
                        let (outcome, events, replay_seconds) = replay_shared(&job, &shared);
                        (outcome, events, setup_seconds, replay_seconds)
                    };
                let busy_secs = t0.elapsed().as_secs_f64();
                {
                    let mut b = busy[me].lock().expect("busy");
                    b.0 += busy_secs;
                    b.1 += 1;
                }
                if let Some(shard) = &shard {
                    record_cell(shard, me, &job, &outcome, events, busy_secs, queue_micros);
                }
                // The receiver outlives every sender (rx drains below in
                // this scope); a send failure means the caller vanished.
                let _ = tx.send(CellResult {
                    id: job.id,
                    kernel: job.kernel,
                    scheme: job.scheme,
                    scale: job.scale,
                    outcome,
                    events,
                    setup_seconds,
                    replay_seconds,
                    queue_micros,
                    worker: me,
                });
            });
        }
        drop(tx);
        // Collector: the calling thread streams completions to the
        // caller while workers are still running.
        for r in rx {
            stats.cells += 1;
            stats.events += r.events;
            stats.replay_seconds += r.replay_seconds;
            stats.setup_seconds += r.setup_seconds;
            stats.queue_wait_micros.record(r.queue_micros);
            match &r.outcome {
                Ok(res) => stats.sim_cycles += res.cycles,
                Err(_) => stats.errors += 1,
            }
            on_complete(r);
        }
    });

    stats.wall_seconds = start.elapsed().as_secs_f64();
    stats.steals = steals.load(Ordering::Relaxed);
    stats.traces_interpreted = traces_interpreted.load(Ordering::Relaxed);
    stats.traces_loaded = traces_loaded.load(Ordering::Relaxed);
    for (w, b) in busy.iter().enumerate() {
        let b = b.lock().expect("busy");
        stats.busy_seconds[w] = b.0;
        stats.cells_per_worker[w] = b.1;
    }
    if let Some(shards) = &shards {
        // Run-level accounting goes through the first shard (the
        // collector runs on the calling thread, after workers joined).
        let s0 = &shards[0];
        s0.counter("grp_fleet_runs_total", &[]).inc();
        s0.counter("grp_fleet_wall_micros_total", &[])
            .add((stats.wall_seconds * 1e6) as u64);
        for w in 0..workers {
            s0.gauge(
                "grp_fleet_worker_utilization",
                &[("worker", &w.to_string())],
            )
            .set(stats.utilization(w));
        }
    }
    stats
}

/// The named error for a cell that must not run: its batch was
/// cancelled, or its deadline passed before pickup.
fn pickup_gate(job: &CellJob, ctl: Option<&BatchCtl>) -> Option<String> {
    if ctl.is_some_and(|c| c.is_cancelled()) {
        Some(CANCELLED.to_string())
    } else if job.deadline.is_some_and(|d| Instant::now() >= d) {
        Some(format!(
            "{DEADLINE_EXCEEDED}: wall-clock deadline passed before cell {}/{} started",
            job.kernel, job.scheme
        ))
    } else {
        None
    }
}

/// Obtains the traces of the group `job` leads, for the compiler
/// configurations of `job` and the group's other cells `rest`, turning
/// an error or a panic into an [`Unavailable`] the group's cells share.
fn obtain_shared(
    job: &CellJob,
    rest: &VecDeque<CellJob>,
    cache: &WorkloadCache,
    mode: &ReplayMode,
) -> SharedTrace {
    let mut schemes: Vec<Scheme> = Vec::new();
    for s in std::iter::once(job).chain(rest).map(|j| j.scheme) {
        if !schemes
            .iter()
            .any(|k| k.compiler_config() == s.compiler_config())
        {
            schemes.push(s);
        }
    }
    let body = || obtain_group(job.kernel, job.scale, &schemes, mode, cache);
    Arc::new(match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(group)) => Ok(group),
        Ok(Err(e)) => Err(Unavailable::Failed(e)),
        Err(payload) => Err(Unavailable::Panicked(panic_message(&*payload))),
    })
}

/// Replays `job` over its group's traces, converting a panic into an
/// `Err` naming the cell. Returns `(outcome, events, replay_seconds)`.
fn replay_shared(job: &CellJob, shared: &SharedTrace) -> (Result<RunResult, String>, u64, f64) {
    let group = match shared.as_ref() {
        Ok(group) => group,
        Err(why) => return (Err(why.for_cell(job)), 0, 0.0),
    };
    match catch_unwind(AssertUnwindSafe(|| {
        group.replay(job.kernel, job.scheme, &job.cfg)
    })) {
        Ok((result, events, secs)) => (Ok(result), events, secs),
        Err(payload) => (
            Err(Unavailable::Panicked(panic_message(&*payload)).for_cell(job)),
            0,
            0.0,
        ),
    }
}

/// Records one completed cell into the owning worker's shard.
fn record_cell(
    shard: &Shard,
    worker: usize,
    job: &CellJob,
    outcome: &Result<RunResult, String>,
    events: u64,
    busy_secs: f64,
    queue_micros: u64,
) {
    let scheme = job.scheme.to_string();
    let cell = [("bench", job.kernel), ("scheme", scheme.as_str())];
    shard.counter("grp_fleet_cells_total", &cell).inc();
    shard.counter("grp_replay_events_total", &[]).add(events);
    match outcome {
        Ok(res) => {
            shard.counter("grp_sim_cycles_total", &[]).add(res.cycles);
        }
        Err(_) => {
            shard.counter("grp_fleet_cell_errors_total", &cell).inc();
        }
    }
    shard
        .counter(
            "grp_fleet_busy_micros_total",
            &[("worker", &worker.to_string())],
        )
        .add((busy_secs * 1e6) as u64);
    shard
        .hist("grp_fleet_queue_wait_micros", &[])
        .record(queue_micros);
}

/// Where the cells of one compiler configuration replay from.
enum Source {
    /// A trace-cache hit, replayed without unpacking, with the memory
    /// image and heap stored beside it.
    Loaded(PackedTrace, Memory, HeapRange),
    /// The hint-free interpretation's own trace.
    Base,
    /// This configuration's hints, replayed as a view over the
    /// interpretation.
    View(HintMap),
}

/// A kernel's one interpretation: the hint-free base trace and the
/// post-interpretation memory the pointer and indirect engines read.
struct Interpreted {
    built: Arc<BuiltWorkload>,
    base: BaseTrace,
    mem: Memory,
}

/// One trace group's traces, ready to replay under any scheme whose
/// compiler configuration the group covers: a cache hit per
/// configuration the cache served, and views over one interpretation
/// for the rest. Replay only reads it, so one `GroupTrace` serves every
/// cell of a trace group.
struct GroupTrace {
    interpreted: Option<Interpreted>,
    sources: Vec<(Option<AnalysisConfig>, Source)>,
}

impl GroupTrace {
    /// True when the kernel was interpreted (some configuration missed
    /// the cache, or there is none).
    fn interpreted(&self) -> bool {
        self.interpreted.is_some()
    }

    /// Configurations served by the trace cache.
    fn loaded(&self) -> u64 {
        self.sources
            .iter()
            .filter(|(_, s)| matches!(s, Source::Loaded(..)))
            .count() as u64
    }

    /// Replays `scheme` on `cfg` through the one [`Replay`] loop from
    /// its configuration's source. Returns the result, the events the
    /// replay walked, and the replay seconds. `kernel` only labels the
    /// profiler span.
    ///
    /// # Panics
    ///
    /// Panics if the group does not cover `scheme`'s configuration.
    fn replay(&self, kernel: &str, scheme: Scheme, cfg: &SimConfig) -> (RunResult, u64, f64) {
        let cc = scheme.compiler_config();
        let source = self
            .sources
            .iter()
            .find(|(c, _)| *c == cc)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("{kernel}: no trace for {scheme}'s compiler configuration"));
        let prof = crate::telemetry::profiler();
        let slabel = if prof.enabled() {
            scheme.to_string()
        } else {
            String::new()
        };
        let t = Instant::now();
        let _s = prof.span_cell("replay", kernel, &slabel);
        let interpreted = || {
            let it = self
                .interpreted
                .as_ref()
                .expect("base and view sources come with the interpretation");
            (it, Replay::new(&it.mem, it.built.heap, scheme, cfg))
        };
        let (result, events) = match source {
            Source::Loaded(pt, mem, heap) => (
                Replay::new(mem, *heap, scheme, cfg).run(pt).0,
                pt.event_count(),
            ),
            Source::Base => {
                let (it, replay) = interpreted();
                let trace = it.base.trace();
                (replay.run(trace).0, trace.events().len() as u64)
            }
            Source::View(hints) => {
                let (it, replay) = interpreted();
                let view = Counted::new(it.built.view(&it.base, hints));
                (replay.run(&view).0, view.events.get())
            }
        };
        (result, events, t.elapsed().as_secs_f64())
    }
}

/// An event source that counts the events one replay walks: a view's
/// length is known only by walking it.
struct Counted<S> {
    src: S,
    events: Cell<u64>,
}

impl<S> Counted<S> {
    fn new(src: S) -> Self {
        Self {
            src,
            events: Cell::new(0),
        }
    }
}

impl<S: EventSource> EventSource for Counted<S> {
    fn loads(&self) -> u64 {
        self.src.loads()
    }

    fn iter_events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.src
            .iter_events()
            .inspect(|_| self.events.set(self.events.get() + 1))
    }
}

/// Obtains one kernel's traces for the compiler configurations of
/// `schemes` (distinct configurations; each scheme labels its
/// configuration's profiler spans) under `mode`. With a trace cache,
/// each configuration is loaded first; the workload is taken from (or
/// built into) `cache` only when some configuration misses, and the
/// kernel is then interpreted **once**: the hint-free configuration
/// replays the base trace, every GRP configuration a [`HintView`] over
/// it. A missing configuration is packed (from its view) only to store
/// it.
///
/// # Errors
///
/// Unknown kernel, an indirect directive with no bound target, or a
/// trace that cannot pack.
fn obtain_group(
    kernel: &str,
    scale: Scale,
    schemes: &[Scheme],
    mode: &ReplayMode,
    cache: &WorkloadCache,
) -> Result<GroupTrace, String> {
    // Phase spans attribute this group's cost in `perf --profile`
    // reports; when the global profiler is off (the default) each
    // span is one atomic load and no clock read.
    let prof = crate::telemetry::profiler();
    let label = |scheme: Scheme| {
        if prof.enabled() {
            scheme.to_string()
        } else {
            String::new()
        }
    };
    // Cache fast path: packed trace + post-interpretation memory +
    // heap straight from disk. A stale/corrupt entry reads as a miss.
    let mut hits: Vec<Option<Source>> = schemes
        .iter()
        .map(|&scheme| {
            let tc = mode.trace_cache.as_ref()?;
            let _s = prof.span_cell("cache_load", kernel, &label(scheme));
            let (pt, mem, heap) = tc.load(kernel, scale, scheme.compiler_config().as_ref())?;
            Some(Source::Loaded(pt, mem, heap))
        })
        .collect();
    let mut interpreted = None;
    if hits.iter().any(Option::is_none) {
        let lead = label(schemes[0]);
        let built = {
            let _s = prof.span_cell("build", kernel, &lead);
            cache.get_or_build(kernel, scale)?
        };
        let (base, mem) = {
            let _s = prof.span_cell("interpret", kernel, &lead);
            built.interpret()
        };
        for (&scheme, hit) in schemes.iter().zip(&mut hits) {
            if hit.is_some() {
                continue;
            }
            let cc = scheme.compiler_config();
            let source = match &cc {
                Some(cc) => Source::View(analyze(&built.program, cc)),
                None => Source::Base,
            };
            let view = match &source {
                Source::View(hints) => Some(
                    HintView::new(&base, hints, &built.program, &built.bindings)
                        .map_err(|e| format!("{kernel}/{scheme}: {e}"))?,
                ),
                _ => None,
            };
            if let Some(tc) = &mode.trace_cache {
                let pt = {
                    let _s = prof.span_cell("pack", kernel, &label(scheme));
                    match &view {
                        Some(view) => PackedTrace::pack_events(view.events(), view.memory_refs()),
                        None => PackedTrace::pack(base.trace()),
                    }
                    .map_err(|e| format!("{kernel}/{scheme}: trace does not pack: {e}"))?
                };
                // Best-effort: a full disk must degrade to "no cache",
                // not fail the cell.
                let _s = prof.span_cell("cache_store", kernel, &label(scheme));
                if let Err(e) = tc.store(kernel, scale, cc.as_ref(), &pt, &mem, built.heap) {
                    crate::telemetry::log::log_kv(
                        crate::telemetry::log::Level::Warn,
                        "sched",
                        "trace-cache store failed; continuing uncached",
                        &[("bench", kernel.into()), ("error", e.to_string().into())],
                    );
                }
            }
            *hit = Some(source);
        }
        interpreted = Some(Interpreted { built, base, mem });
    }
    let sources = schemes
        .iter()
        .zip(hits)
        .map(|(s, hit)| {
            (
                s.compiler_config(),
                hit.expect("every configuration obtained"),
            )
        })
        .collect();
    Ok(GroupTrace {
        interpreted,
        sources,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_order_heavy_cells_first() {
        assert!(cell_weight("bzip2", Scheme::Srp) > cell_weight("parser", Scheme::Srp));
        assert!(cell_weight("bzip2", Scheme::Srp) > cell_weight("bzip2", Scheme::NoPrefetch));
        assert!(cell_weight("swim", Scheme::Srp) > cell_weight("mcf", Scheme::Srp));
        // A group pays one interpretation on top of its replays.
        let hint_free = [Scheme::NoPrefetch, Scheme::Stride, Scheme::Srp];
        let replays: u64 = hint_free.iter().map(|&s| cell_weight("crafty", s)).sum();
        assert!(group_weight("crafty", hint_free) > replays);
        assert!(group_weight("crafty", []) > 0);
        // crafty interprets the most events, so its interpretation
        // outweighs bzip2's even though bzip2 replays slower.
        assert!(group_weight("crafty", []) > group_weight("bzip2", []));
    }

    /// Every cell of `jobs` run alone through the reference
    /// `BuiltWorkload::run`, which shares no scheduler code, by id.
    fn per_cell(jobs: &[CellJob]) -> HashMap<u64, RunResult> {
        let cache = WorkloadCache::new();
        jobs.iter()
            .map(|j| {
                let built = cache.get_or_build(j.kernel, j.scale).expect("registered");
                (j.id, built.run(j.scheme, &j.cfg))
            })
            .collect()
    }

    #[test]
    fn grid_interprets_once_per_kernel_and_matches_the_reference() {
        // 2 kernels × 12 schemes: the 7 hint-free schemes replay each
        // kernel's one interpretation and the 5 GRP configurations
        // replay views over it, so the grid interprets twice.
        let cfg = SimConfig::paper();
        let jobs = grid_jobs(&["twolf", "mcf"], &Scheme::ALL, Scale::Test, cfg);
        let want = per_cell(&jobs);
        for workers in [1, 3] {
            let mut got = HashMap::new();
            let stats = run_cells(&jobs, workers, &WorkloadCache::new(), |r| {
                let prev = got.insert(r.id, r.outcome.expect("cell ok"));
                assert!(prev.is_none(), "cell {} answered twice", r.id);
            });
            assert_eq!(stats.traces_interpreted, 2, "{workers} worker(s)");
            assert_eq!(stats.traces_loaded, 0);
            assert_eq!(stats.cells, jobs.len());
            assert_eq!(got, want, "grouped replay diverged at {workers} worker(s)");
        }
    }

    #[test]
    fn a_skipped_group_leader_hands_the_trace_on() {
        // SRP is the heaviest cell of twolf's hint-free group, so it
        // leads; its deadline has passed, so the next cell obtains the
        // trace and every other cell still runs exactly once.
        let cfg = SimConfig::paper();
        let mut jobs = grid_jobs(
            &["twolf"],
            &[Scheme::NoPrefetch, Scheme::Srp, Scheme::Stride],
            Scale::Test,
            cfg,
        );
        jobs[1].deadline = Some(Instant::now());
        let want = per_cell(&jobs);
        for workers in [1, 2] {
            let mut seen = Vec::new();
            let stats = run_cells_ctl(
                &jobs,
                workers,
                &WorkloadCache::new(),
                &ReplayMode::default(),
                None,
                |r| seen.push(r),
            );
            assert_eq!(stats.cells, 3);
            assert_eq!(stats.traces_interpreted, 1);
            seen.sort_by_key(|r| r.id);
            assert_eq!(seen.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2]);
            let err = seen[1].outcome.as_ref().unwrap_err();
            assert!(err.starts_with(DEADLINE_EXCEEDED), "{err}");
            for r in [&seen[0], &seen[2]] {
                assert_eq!(r.outcome.as_ref().ok(), want.get(&r.id));
            }
        }

        // Cancelling after the first reply: the rest of the group is
        // answered once each — replayed, or failed as cancelled.
        let jobs = grid_jobs(&["twolf"], &Scheme::ALL, Scale::Test, cfg);
        let want = per_cell(&jobs);
        let ctl = BatchCtl::new();
        let mut seen = HashMap::new();
        let stats = run_cells_ctl(
            &jobs,
            1,
            &WorkloadCache::new(),
            &ReplayMode::default(),
            Some(&ctl),
            |r| {
                ctl.cancel();
                assert!(seen.insert(r.id, r.outcome).is_none(), "answered twice");
            },
        );
        assert_eq!(stats.cells, jobs.len());
        assert_eq!(seen.len(), jobs.len());
        for (id, outcome) in &seen {
            match outcome {
                Ok(r) => assert_eq!(Some(r), want.get(id)),
                Err(e) => assert_eq!(e, CANCELLED),
            }
        }
    }

    #[test]
    fn a_group_whose_trace_fails_answers_each_cell_by_name() {
        // crafty's program bound to mcf's data panics mid-interpretation:
        // every cell of crafty's group gets its own named error, once,
        // while twolf's cell is unaffected.
        let cfg = SimConfig::paper();
        let schemes = [
            Scheme::NoPrefetch,
            Scheme::Stride,
            Scheme::Srp,
            Scheme::PerfectL1,
        ];
        let mut jobs = grid_jobs(&["crafty"], &schemes, Scale::Test, cfg);
        jobs.extend(grid_jobs(
            &["twolf"],
            &[Scheme::NoPrefetch],
            Scale::Test,
            cfg,
        ));
        jobs.last_mut().expect("twolf").id = 99;
        for workers in [1, 2] {
            let cache = WorkloadCache::new();
            let mut poisoned = grp_workloads::by_name("crafty").unwrap().build(Scale::Test);
            poisoned.bindings = grp_workloads::by_name("mcf")
                .unwrap()
                .build(Scale::Test)
                .bindings;
            cache.insert("crafty", Scale::Test, Arc::new(poisoned));
            let mut seen = HashMap::new();
            let stats = run_cells(&jobs, workers, &cache, |r| {
                assert!(seen.insert(r.id, r).is_none(), "answered twice");
            });
            assert_eq!(stats.cells, jobs.len(), "{workers} worker(s)");
            assert_eq!(stats.errors, schemes.len());
            assert_eq!(stats.traces_interpreted, 1, "only twolf's trace");
            for job in &jobs[..schemes.len()] {
                let err = seen[&job.id].outcome.as_ref().unwrap_err();
                let name = format!("cell crafty/{} panicked", job.scheme);
                assert!(err.starts_with(&name), "{err}");
            }
            assert!(seen[&99].outcome.is_ok());
        }
    }

    #[test]
    fn cache_builds_once_and_shares() {
        let cache = WorkloadCache::new();
        let a = cache.get_or_build("crafty", Scale::Test).expect("build");
        let b = cache.get_or_build("crafty", Scale::Test).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "same Arc for repeated requests");
        assert_eq!(cache.built_count(), 1);
        assert!(cache.get("crafty", Scale::Test).is_some());
        assert!(
            cache.get("crafty", Scale::Small).is_none(),
            "scale is part of the key"
        );
        let err = cache.get_or_build("nope", Scale::Test).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn cache_insert_seeds_without_replacing() {
        let cache = WorkloadCache::new();
        let built = Arc::new(grp_workloads::by_name("twolf").unwrap().build(Scale::Test));
        cache.insert("twolf", Scale::Test, built.clone());
        let got = cache.get_or_build("twolf", Scale::Test).expect("seeded");
        assert!(
            Arc::ptr_eq(&built, &got),
            "seeded workload is reused, not rebuilt"
        );
        // A second insert must not swap the workload out from under readers.
        let other = Arc::new(grp_workloads::by_name("twolf").unwrap().build(Scale::Test));
        cache.insert("twolf", Scale::Test, other);
        let still = cache
            .get_or_build("twolf", Scale::Test)
            .expect("still seeded");
        assert!(Arc::ptr_eq(&built, &still));
    }

    #[test]
    fn run_cells_streams_every_cell_and_isolates_errors() {
        let cfg = SimConfig::paper();
        let jobs = vec![
            CellJob {
                id: 7,
                kernel: "twolf",
                scheme: Scheme::NoPrefetch,
                scale: Scale::Test,
                cfg,
                deadline: None,
            },
            CellJob {
                id: 8,
                kernel: "not-a-kernel",
                scheme: Scheme::Srp,
                scale: Scale::Test,
                cfg,
                deadline: None,
            },
            CellJob {
                id: 9,
                kernel: "twolf",
                scheme: Scheme::Srp,
                scale: Scale::Test,
                cfg,
                deadline: None,
            },
        ];
        let cache = WorkloadCache::new();
        let mut seen = Vec::new();
        let stats = run_cells(&jobs, 2, &cache, |r| seen.push(r));
        assert_eq!(stats.cells, 3);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.queue_wait_micros.count(), 3);
        assert_eq!(stats.cells_per_worker.iter().sum::<usize>(), 3);
        seen.sort_by_key(|r| r.id);
        assert_eq!(seen.iter().map(|r| r.id).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert!(seen[0].outcome.is_ok());
        let err = seen[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("not-a-kernel"), "{err}");
        assert!(seen[2].outcome.is_ok());
        // The two twolf cells shared one build.
        assert_eq!(cache.built_count(), 1);
        // Replays really ran and were accounted.
        assert!(stats.events > 0);
        assert!(stats.sim_cycles > 0);
        assert!(stats.wall_seconds > 0.0);
    }

    #[test]
    fn replay_modes_are_bit_identical_and_cache_hits_skip_builds() {
        let cfg = SimConfig::paper();
        let schemes = [Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar];
        let jobs = grid_jobs(&["twolf", "crafty"], &schemes, Scale::Test, cfg);
        // One interpretation per kernel; with a cache, one entry per
        // trace key: the hint-free trace (none and SRP share it) and the
        // GRP/Var trace of each kernel.
        let (kernels, keys) = (2, 4);
        let collect = |mode: &ReplayMode, cache: &WorkloadCache| {
            let mut out: Vec<(u64, RunResult)> = Vec::new();
            let stats = run_cells_mode(&jobs, 2, cache, mode, |r| {
                out.push((r.id, r.outcome.expect("cell ok")));
            });
            assert_eq!(stats.errors, 0);
            out.sort_by_key(|(id, _)| *id);
            (out, stats.traces_interpreted, stats.traces_loaded)
        };
        let (baseline, interpreted, _) = collect(&ReplayMode::default(), &WorkloadCache::new());
        assert_eq!(interpreted, kernels, "one interpretation per kernel");

        let dir = std::env::temp_dir().join(format!("grp-sched-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tc = Arc::new(TraceCache::new(&dir));
        let cached = ReplayMode {
            trace_cache: Some(tc.clone()),
            ..ReplayMode::default()
        };
        assert_eq!(
            collect(&cached, &WorkloadCache::new()),
            (baseline.clone(), kernels, 0),
            "cache (cold) diverged"
        );
        // Warm cache: every cell must be served from disk — one load per
        // trace key, zero builds — and replay the loaded packed trace to
        // the same results.
        let warm_cache = WorkloadCache::new();
        assert_eq!(
            collect(&cached, &warm_cache),
            (baseline.clone(), 0, keys),
            "cache (warm, packed) diverged"
        );
        assert_eq!(
            warm_cache.built_count(),
            0,
            "a warm trace cache must skip workload builds entirely"
        );
        // One missing entry: twolf is interpreted once for its GRP/Var
        // view, its hint-free cells still replay the hit, and the view
        // is stored back byte for byte.
        let grp_var = Scheme::GrpVar.compiler_config();
        let entry = tc.entry_path("twolf", Scale::Test, grp_var.as_ref());
        let stored = std::fs::read(&entry).expect("entry stored cold");
        std::fs::remove_file(&entry).expect("drop one entry");
        assert_eq!(
            collect(&cached, &WorkloadCache::new()),
            (baseline, 1, keys - 1),
            "cache (one miss) diverged"
        );
        assert_eq!(std::fs::read(&entry).expect("entry restored"), stored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadlines_yield_named_errors_never_lost_replies() {
        let cfg = SimConfig::paper();
        // Deterministic: every deadline is already in the past, so every
        // cell must come back as a deadline_exceeded error — exactly one
        // reply per job, none simulated, none hung.
        let past = Instant::now();
        let mut jobs = grid_jobs(
            &["twolf", "crafty"],
            &[Scheme::NoPrefetch, Scheme::Srp],
            Scale::Test,
            cfg,
        );
        for j in &mut jobs {
            j.deadline = Some(past);
        }
        let cache = WorkloadCache::new();
        let mut seen = Vec::new();
        let stats = run_cells_ctl(&jobs, 2, &cache, &ReplayMode::default(), None, |r| {
            seen.push(r)
        });
        assert_eq!(stats.cells, jobs.len(), "every job answered");
        assert_eq!(stats.errors, jobs.len());
        for r in &seen {
            let err = r.outcome.as_ref().unwrap_err();
            assert!(err.starts_with(DEADLINE_EXCEEDED), "{err}");
            assert!(err.contains(r.kernel), "error names the cell: {err}");
        }
        assert_eq!(cache.built_count(), 0, "expired cells never build");
        // A generous deadline changes nothing about the results.
        for j in &mut jobs {
            j.deadline = Some(Instant::now() + std::time::Duration::from_secs(3600));
        }
        let stats = run_cells_ctl(&jobs, 2, &cache, &ReplayMode::default(), None, |_| {});
        assert_eq!(stats.errors, 0, "live deadlines run normally");
    }

    #[test]
    fn cancelled_batch_fails_remaining_cells_without_running_them() {
        let cfg = SimConfig::paper();
        let jobs = grid_jobs(
            &["twolf"],
            &[Scheme::NoPrefetch, Scheme::Srp],
            Scale::Test,
            cfg,
        );
        let cache = WorkloadCache::new();
        let ctl = BatchCtl::new();
        ctl.cancel(); // cancelled before any pickup: all cells skip
        let mut seen = Vec::new();
        let stats = run_cells_ctl(&jobs, 2, &cache, &ReplayMode::default(), Some(&ctl), |r| {
            seen.push(r)
        });
        assert_eq!(stats.cells, jobs.len(), "cancelled cells still reply");
        assert_eq!(stats.errors, jobs.len());
        for r in &seen {
            assert_eq!(r.outcome.as_ref().unwrap_err(), CANCELLED);
        }
        assert_eq!(cache.built_count(), 0, "cancelled cells never build");
    }

    #[test]
    fn grid_jobs_cover_the_whole_grid_with_unique_ids() {
        let jobs = grid_jobs(
            &["twolf", "mcf"],
            &[Scheme::NoPrefetch, Scheme::Stride, Scheme::Srp],
            Scale::Test,
            SimConfig::paper(),
        );
        assert_eq!(jobs.len(), 6);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "ids are unique");
    }
}
