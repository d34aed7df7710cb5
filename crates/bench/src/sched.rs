//! Work-stealing cell scheduler: shards `(kernel, scheme, config)`
//! simulation *cells* across OS threads. The unit of work is one cell,
//! a single `(kernel, scheme)` simulation, so a wide scheme row of one
//! heavy kernel spreads across workers instead of serializing behind
//! its build (bzip2 alone is a quarter of the small-scale replay wall).
//!
//! * Built workloads are shared **read-only** between workers through
//!   [`WorkloadCache`] (`Arc<BuiltWorkload>` keyed by `(kernel, scale)`),
//!   so two schemes of the same kernel never rebuild — whichever worker
//!   gets there first builds, everyone else waits on that one build.
//! * Cells are ordered **largest-first** by a static cost model
//!   ([`cell_weight`], calibrated against measured per-cell replay
//!   times) and dealt round-robin into per-worker
//!   deques; an idle worker steals from the *back* of a victim's deque,
//!   so big early cells stay with their owner and stragglers spread out.
//! * Results stream to the caller **as cells complete** over a channel
//!   (`on_complete` runs on the calling thread), so artifacts can be
//!   written incrementally instead of at end-of-run.
//!
//! Determinism: scheduling order and steal order are timing-dependent,
//! but every cell is an independent, internally-deterministic
//! simulation over its own `Memory` clone — per-cell `RunResult`s are
//! bit-identical to the serial path for any worker count and any steal
//! interleaving. `crates/bench/tests/fleet.rs` enforces this over the
//! full 18×12 grid.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use grp_core::{LatencyHist, Replay, RunResult, Scheme, SimConfig};
use grp_cpu::PackedTrace;
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
    /// Inert: read nowhere. A cell replays whichever trace form it
    /// already holds (see [`run_cell`]), so there is no tier to choose.
    /// The field is kept only so existing struct literals of
    /// `ReplayMode` keep compiling.
    pub packed: bool,
    /// Persist and reuse packed traces + memory images across
    /// processes. A cache hit skips build + interpretation + hint
    /// derivation entirely; stale or corrupt entries read as misses
    /// and are rebuilt, never trusted.
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
    /// Seconds spent building/tracing before replay (includes the
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

    /// Seeds the cache with an already-built workload (e.g. from a
    /// suite's memo table). A previously-built entry wins: the cache
    /// never swaps a workload out from under readers.
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

/// Static relative cost of one cell, calibrated against measured
/// per-cell replay seconds under the packed tier at Small scale (bzip2
/// is ~26% of the replay wall; SRP-class schemes replay ~2.3× slower
/// than the no-prefetch baseline — the packed tier narrowed the old 6×
/// gap by cutting per-event dispatch overhead, which baseline cells
/// paid proportionally more of). Kernel weights are replay-wall
/// percentages; scheme weights are ~10× the per-scheme ratio to the
/// no-prefetch baseline. Only *load balance* depends on this — results
/// never do — so a stale table degrades tail latency, not correctness.
pub fn cell_weight(kernel: &str, scheme: Scheme) -> u64 {
    let k: u64 = match kernel {
        "bzip2" => 26,
        "swim" => 13,
        "crafty" => 13,
        "applu" => 11,
        "art" => 7,
        "gzip" => 6,
        "apsi" => 4,
        "gap" => 4,
        "mesa" => 3,
        "mgrid" => 3,
        "sphinx" => 2,
        "wupwise" => 2,
        "vpr" => 2,
        _ => 1,
    };
    let s: u64 = match scheme {
        Scheme::Srp | Scheme::SrpPointer => 23,
        Scheme::GrpAggressive => 18,
        Scheme::GrpFix | Scheme::GrpVar | Scheme::GrpConservative => 16,
        Scheme::HwPointer | Scheme::GrpPointer => 14,
        Scheme::Stride => 13,
        Scheme::NoPrefetch => 10,
        Scheme::PerfectL1 | Scheme::PerfectL2 => 4,
    };
    k * s
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

/// [`run_cells_mode`] with an optional per-batch [`BatchCtl`]: at cell
/// pickup a cancelled batch fails the cell with [`CANCELLED`] and an
/// expired [`CellJob::deadline`] fails it with a
/// [`DEADLINE_EXCEEDED`]-prefixed error — in both cases the cell is
/// skipped (never simulated) but still streamed to `on_complete`, so
/// every job gets exactly one reply and a batch can never hang or lose
/// a cell.
pub fn run_cells_ctl<F: FnMut(CellResult)>(
    jobs: &[CellJob],
    workers: usize,
    cache: &WorkloadCache,
    mode: &ReplayMode,
    ctl: Option<&BatchCtl>,
    mut on_complete: F,
) -> FleetStats {
    let workers = workers.max(1).min(jobs.len().max(1));

    // Largest-first deal: sort by descending weight (stable, so equal-
    // weight cells keep submission order), then round-robin so every
    // worker starts on one of the heaviest remaining cells.
    let mut ordered: Vec<CellJob> = jobs.to_vec();
    ordered.sort_by_key(|j| std::cmp::Reverse(cell_weight(j.kernel, j.scheme)));
    let queues: Vec<Mutex<VecDeque<CellJob>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in ordered.into_iter().enumerate() {
        queues[i % workers].lock().expect("deal").push_back(job);
    }

    let steals = AtomicU64::new(0);
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
        busy_seconds: vec![0.0; workers],
        cells_per_worker: vec![0; workers],
        steals: 0,
        queue_wait_micros: LatencyHist::default(),
    };

    std::thread::scope(|s| {
        for me in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let busy = &busy;
            let steals = &steals;
            let cache_ref = cache;
            let shard = shards.as_ref().map(|s| s[me].clone());
            s.spawn(move || loop {
                // Own deque first (front: biggest still-local cell)…
                let mut job = queues[me].lock().expect("own deque").pop_front();
                // …then steal from the back of the first non-empty victim.
                if job.is_none() {
                    for off in 1..queues.len() {
                        let victim = (me + off) % queues.len();
                        if let Some(j) = queues[victim].lock().expect("victim deque").pop_back() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            if let Some(shard) = &shard {
                                shard.counter("grp_fleet_steals_total", &[]).inc();
                            }
                            job = Some(j);
                            break;
                        }
                    }
                }
                let Some(job) = job else { return };
                let queue_micros = start.elapsed().as_micros() as u64;
                let t0 = Instant::now();
                // Pickup gate: a cancelled batch or an expired deadline
                // skips the simulation but still produces a named-error
                // result, so the caller sees every cell exactly once.
                let (outcome, events, setup_seconds, replay_seconds) =
                    if ctl.is_some_and(|c| c.is_cancelled()) {
                        (Err(CANCELLED.to_string()), 0, 0.0, 0.0)
                    } else if job.deadline.is_some_and(|d| Instant::now() >= d) {
                        (
                            Err(format!(
                                "{DEADLINE_EXCEEDED}: wall-clock deadline passed before cell \
                                 {}/{} started",
                                job.kernel, job.scheme
                            )),
                            0,
                            0.0,
                            0.0,
                        )
                    } else {
                        execute_cell(&job, cache_ref, mode)
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

/// Runs one `(kernel, scheme)` cell under `mode`, preferring the trace
/// cache when one is configured. `get_built` supplies the built
/// workload and is only invoked on a cache miss — a hit skips the
/// build, interpretation, and hint derivation entirely.
///
/// The cell replays whichever trace form it holds: a cache hit replays
/// the loaded [`PackedTrace`] directly; a miss replays the interpreted
/// `Trace` and packs it only to store it. Both go through the one
/// [`Replay`] loop, so the result does not depend on which.
///
/// Returns `(result, events, setup_seconds, replay_seconds)`.
///
/// # Errors
///
/// Unknown kernel (from `get_built`) or a trace that cannot pack.
pub fn run_cell(
    kernel: &str,
    scale: Scale,
    scheme: Scheme,
    cfg: &SimConfig,
    mode: &ReplayMode,
    get_built: impl FnOnce() -> Result<Arc<BuiltWorkload>, String>,
) -> Result<(RunResult, u64, f64, f64), String> {
    let cc = scheme.compiler_config();
    // Phase spans attribute this cell's cost in `perf --profile`
    // reports; when the global profiler is off (the default) each
    // span is one atomic load and no clock read.
    let prof = crate::telemetry::profiler();
    let slabel = if prof.enabled() {
        scheme.to_string()
    } else {
        String::new()
    };
    let t0 = Instant::now();
    // Cache fast path: packed trace + post-interpretation memory +
    // heap straight from disk. A stale/corrupt entry reads as a miss.
    if let Some(cache) = &mode.trace_cache {
        let hit = {
            let _s = prof.span_cell("cache_load", kernel, &slabel);
            cache.load(kernel, scale, cc.as_ref())
        };
        if let Some((pt, mem, heap)) = hit {
            let setup_seconds = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _s = prof.span_cell("replay", kernel, &slabel);
            let result = Replay::new(&mem, heap, scheme, cfg).run(&pt).0;
            return Ok((
                result,
                pt.event_count(),
                setup_seconds,
                t1.elapsed().as_secs_f64(),
            ));
        }
    }
    let built = {
        let _s = prof.span_cell("build", kernel, &slabel);
        get_built()?
    };
    let (trace, mem) = {
        let _s = prof.span_cell("interpret", kernel, &slabel);
        built.trace(cc.as_ref())
    };
    if let Some(cache) = &mode.trace_cache {
        let pt = {
            let _s = prof.span_cell("pack", kernel, &slabel);
            PackedTrace::pack(&trace)
                .map_err(|e| format!("{kernel}/{scheme}: trace does not pack: {e}"))?
        };
        // Best-effort: a full disk must degrade to "no cache", not
        // fail the cell.
        let _s = prof.span_cell("cache_store", kernel, &slabel);
        if let Err(e) = cache.store(kernel, scale, cc.as_ref(), &pt, &mem, built.heap) {
            crate::telemetry::log::log_kv(
                crate::telemetry::log::Level::Warn,
                "sched",
                "trace-cache store failed; continuing uncached",
                &[("bench", kernel.into()), ("error", e.to_string().into())],
            );
        }
    }
    let setup_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let _s = prof.span_cell("replay", kernel, &slabel);
    let result = Replay::new(&mem, built.heap, scheme, cfg).run(&trace).0;
    Ok((
        result,
        trace.events().len() as u64,
        setup_seconds,
        t1.elapsed().as_secs_f64(),
    ))
}

/// Builds (via the cache), traces, and replays one cell under `mode`,
/// converting panics into an `Err` naming the cell.
fn execute_cell(
    job: &CellJob,
    cache: &WorkloadCache,
    mode: &ReplayMode,
) -> (Result<RunResult, String>, u64, f64, f64) {
    let body = || {
        run_cell(job.kernel, job.scale, job.scheme, &job.cfg, mode, || {
            cache.get_or_build(job.kernel, job.scale)
        })
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok((result, events, setup, replay))) => (Ok(result), events, setup, replay),
        Ok(Err(e)) => (Err(e), 0, 0.0, 0.0),
        Err(payload) => (
            Err(format!(
                "cell {}/{} panicked: {}",
                job.kernel,
                job.scheme,
                panic_message(&*payload)
            )),
            0,
            0.0,
            0.0,
        ),
    }
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
        let collect = |mode: &ReplayMode, cache: &WorkloadCache| {
            let mut out: Vec<(u64, RunResult)> = Vec::new();
            let stats = run_cells_mode(&jobs, 2, cache, mode, |r| {
                out.push((r.id, r.outcome.expect("cell ok")));
            });
            assert_eq!(stats.errors, 0);
            out.sort_by_key(|(id, _)| *id);
            out
        };
        let baseline = collect(&ReplayMode::default(), &WorkloadCache::new());

        let dir = std::env::temp_dir().join(format!("grp-sched-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tc = Arc::new(TraceCache::new(&dir));
        let cached = ReplayMode {
            trace_cache: Some(tc.clone()),
            ..ReplayMode::default()
        };
        assert_eq!(
            collect(&cached, &WorkloadCache::new()),
            baseline,
            "cache (cold) diverged"
        );
        // Warm cache: every cell must be served from disk — zero builds —
        // and replay the loaded packed trace to the same results.
        let warm_cache = WorkloadCache::new();
        assert_eq!(
            collect(&cached, &warm_cache),
            baseline,
            "cache (warm, packed) diverged"
        );
        assert_eq!(
            warm_cache.built_count(),
            0,
            "a warm trace cache must skip workload builds entirely"
        );
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
