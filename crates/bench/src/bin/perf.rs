//! Perf-tracking harness: replays the workload registry and records
//! simulator throughput, appending one entry per run to the repo-root
//! `BENCH_perf.json` trajectory so hot-path optimizations can be
//! claimed against a recorded baseline.
//!
//! ```text
//! cargo run --release -p grp-bench --bin perf -- --scale small
//!     [--label <name>]      entry label (default "current")
//!     [--out <path>]        trajectory file (default BENCH_perf.json)
//!     [--schemes <csv>]     scheme labels (default none,stride,SRP,GRP/Var)
//!     [--no-write]          print the table, skip the JSON append
//!     [--trace-cache <dir>] persist/reuse packed pre-interpreted
//!                           traces across processes (hits replay the
//!                           packed trace directly; results identical)
//!     [--profile]           enable the phase profiler: print a
//!                           build/interpret/pack/replay/export wall
//!                           breakdown, embed it in the entry under
//!                           "profile", and (serial mode) fail unless
//!                           the phases cover >= 95% of the wall clock
//!     runs the grid on one worker: each kernel is interpreted once and
//!     its schemes' cells replay that trace one after another
//! cargo run --release -p grp-bench --bin perf -- --fleet --scale small
//!     [--jobs N]            worker count (default: available parallelism)
//!     [--schemes <csv>]     scheme labels (default: all 12 — the full grid)
//!     [--stream-out <path>] stream per-cell rows to an artifact as
//!                           cells complete (crash leaves a valid partial)
//!     shard the kernel × scheme grid across workers at cell granularity
//!     via the work-stealing scheduler and append a fleet-shaped entry
//! cargo run -p grp-bench --bin perf -- --check <path>
//!     validate an existing trajectory file (both entry shapes), warn
//!     where an entry's host differs from the previous entry of the
//!     same kind and scale, and exit
//! ```
//!
//! Both modes run the kernel × scheme grid through the cell scheduler
//! ([`grp_bench::sched`]): each kernel is built and interpreted once,
//! and every scheme of it replays that trace (or a hint view over it).
//! Setup (build, interpretation, packing, cache loads) is untimed in the
//! headline metric; the replay loop alone — the trace-replay inner loop
//! that bounds every sweep — is timed per cell, reporting trace
//! events/sec and simulated cycles/sec. Serial mode is the 1-worker
//! grid. Fleet mode runs it on `--jobs` workers and adds aggregate fleet
//! throughput (total events per *wall* second across all workers),
//! per-worker utilization, and queue-wait percentiles.

use std::time::Instant;

use grp_bench::args::{jobs_from_args, parse_replay_args, parse_schemes_args};
use grp_bench::json::Json;
use grp_bench::obs_export::flag_value;
use grp_bench::sched::{self, ReplayMode, WorkloadCache};
use grp_bench::suite::scale_from_args;
use grp_bench::telemetry::{self, log};
use grp_bench::traj;
use grp_core::Scheme;
use grp_workloads::all;

/// Default serial scheme set: one representative of each engine hot
/// path (no engine, stride stream buffers, hint-blind regions, full
/// GRP). Fleet mode defaults to the full 12-scheme grid instead.
const DEFAULT_SCHEMES: [Scheme; 4] = [
    Scheme::NoPrefetch,
    Scheme::Stride,
    Scheme::Srp,
    Scheme::GrpVar,
];

struct KernelRow {
    bench: &'static str,
    scheme: Scheme,
    events: u64,
    sim_cycles: u64,
    replay_seconds: f64,
    worker: Option<usize>,
}

impl KernelRow {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.replay_seconds.max(1e-9)
    }

    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.replay_seconds.max(1e-9)
    }

    fn json(&self) -> Json {
        let mut j = Json::object()
            .set("bench", self.bench)
            .set("scheme", self.scheme.label())
            .set("events", self.events)
            .set("sim_cycles", self.sim_cycles)
            .set("replay_seconds", self.replay_seconds)
            .set("events_per_sec", self.events_per_sec())
            .set("sim_cycles_per_sec", self.cycles_per_sec());
        if let Some(w) = self.worker {
            j = j.set("worker", w as u64);
        }
        j
    }

    fn print(&self) {
        println!(
            "{:<10} {:<9} {:>12} {:>14} {:>10.3} {:>12.0}{}",
            self.bench,
            self.scheme.label(),
            self.events,
            self.sim_cycles,
            self.replay_seconds,
            self.events_per_sec(),
            match self.worker {
                Some(w) => format!(" {w:>3}"),
                None => String::new(),
            }
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(path) = flag_value(&args, "--check") {
        match traj::check_trajectory(&path) {
            Ok(checked) => {
                println!("{path}: OK ({} entries)", checked.entries);
                for w in &checked.warnings {
                    println!("warning: {w}");
                }
            }
            Err(e) => {
                log::error("perf", &format!("{path}: {e}"));
                std::process::exit(1);
            }
        }
        return;
    }

    let usage_err = |e: String| -> ! {
        log::error("perf", &e);
        std::process::exit(2);
    };
    log::init_from_args(&args).unwrap_or_else(|e| usage_err(e));
    let fleet = grp_bench::args::strict_flag(&args, "--fleet").unwrap_or_else(|e| usage_err(e));
    let profile = grp_bench::args::strict_flag(&args, "--profile").unwrap_or_else(|e| usage_err(e));
    let scale = scale_from_args();
    let label = flag_value(&args, "--label").unwrap_or_else(|| {
        if fleet {
            "fleet".to_string()
        } else {
            "current".to_string()
        }
    });
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    let schemes: Vec<Scheme> = parse_schemes_args(&args)
        .unwrap_or_else(|e| usage_err(e))
        .unwrap_or_else(|| {
            if fleet {
                Scheme::ALL.to_vec()
            } else {
                DEFAULT_SCHEMES.to_vec()
            }
        });
    let write = !args.iter().any(|a| a == "--no-write");
    let mode = parse_replay_args(&args).unwrap_or_else(|e| usage_err(e));

    let wall_start = Instant::now();
    if profile {
        telemetry::profiler().set_enabled(true);
    }

    println!(
        "GRP perf harness — {:?} scale, {}, schemes: {}",
        scale,
        if fleet { "fleet mode" } else { "serial" },
        schemes
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "{:<10} {:<9} {:>12} {:>14} {:>10} {:>12}{}",
        "bench",
        "scheme",
        "events",
        "sim cycles",
        "replay s",
        "events/s",
        if fleet { "   w" } else { "" }
    );

    let mut entry = if fleet {
        run_fleet(scale, &label, &schemes, &mode, &args)
    } else {
        run_serial(scale, &label, &schemes, &mode)
    }
    .set("host", traj::host_json());

    if profile {
        let wall = wall_start.elapsed().as_secs_f64();
        let report = telemetry::profiler().report();
        entry = entry.set("profile", report.to_json(wall));
        let coverage = print_profile(&report, wall);
        // The coverage gate only holds serially: fleet workers' summed
        // busy time legitimately exceeds one wall clock.
        if !fleet && coverage < 0.95 {
            log::error(
                "perf",
                &format!(
                    "profile coverage {:.1}% < 95% — phases do not account for the wall clock",
                    100.0 * coverage
                ),
            );
            std::process::exit(1);
        }
    }

    if !write {
        return;
    }
    traj::append_entry(&out, entry).unwrap_or_else(|e| {
        log::error("perf", &e.to_string());
        std::process::exit(1);
    });
    println!("appended entry '{label}' to {out}");
}

/// Prints the phase-attributed wall breakdown and returns coverage
/// (top-level span seconds / measured wall seconds).
fn print_profile(report: &grp_bench::telemetry::profiler::ProfileReport, wall: f64) -> f64 {
    let covered = report.covered_seconds();
    let coverage = covered / wall.max(1e-9);
    println!("\nprofile: phase breakdown ({:.3}s wall)", wall);
    for (phase, stat) in report.phase_totals() {
        println!(
            "  {:<12} {:>9.3}s  {:>5.1}%  ({} span{})",
            phase,
            stat.seconds,
            100.0 * stat.seconds / wall.max(1e-9),
            stat.count,
            if stat.count == 1 { "" } else { "s" }
        );
    }
    println!(
        "  covered: {covered:.3}s of {wall:.3}s wall ({:.1}%)",
        100.0 * coverage
    );
    coverage
}

/// Serial mode: the 1-worker grid through the cell scheduler, so each
/// kernel is interpreted once for all of its schemes and cells replay
/// one after another on one worker. Builds, interpretation, packing
/// and cache loads count as setup; the replay column times the replay
/// loop alone.
fn run_serial(
    scale: grp_bench::SuiteScale,
    label: &str,
    schemes: &[Scheme],
    mode: &ReplayMode,
) -> Json {
    let (rows, stats, _) = run_grid(scale, schemes, mode, None, None);
    let wall_seconds = stats.wall_seconds;
    let setup_seconds = stats.setup_seconds;
    // Summary + entry construction is the export phase (no-op span
    // unless --profile enabled the profiler).
    let _export = telemetry::profiler().span("export");

    let events: u64 = rows.iter().map(|r| r.events).sum();
    let sim_cycles: u64 = rows.iter().map(|r| r.sim_cycles).sum();
    let replay_seconds: f64 = rows.iter().map(|r| r.replay_seconds).sum();
    let events_per_sec = events as f64 / replay_seconds.max(1e-9);
    let cycles_per_sec = sim_cycles as f64 / replay_seconds.max(1e-9);
    println!(
        "\ntotal: {events} events in {replay_seconds:.3}s replay \
         ({setup_seconds:.3}s setup, {wall_seconds:.3}s wall)"
    );
    println!("throughput: {events_per_sec:.0} events/s, {cycles_per_sec:.0} simulated cycles/s");

    Json::object()
        .set("label", label)
        .set("scale", format!("{scale:?}").to_lowercase())
        .set(
            "schemes",
            Json::Array(schemes.iter().map(|s| Json::from(s.label())).collect()),
        )
        .set("wall_seconds", wall_seconds)
        .set("setup_seconds", setup_seconds)
        .set("replay_seconds", replay_seconds)
        .set("events", events)
        .set("sim_cycles", sim_cycles)
        .set("events_per_sec", events_per_sec)
        .set("sim_cycles_per_sec", cycles_per_sec)
        .set(
            "kernels",
            Json::Array(rows.iter().map(|r| r.json()).collect()),
        )
}

/// Fleet mode: shard the kernel × scheme grid across workers through
/// the work-stealing cell scheduler, streaming rows (and optionally a
/// partial-results artifact) as cells complete.
fn run_fleet(
    scale: grp_bench::SuiteScale,
    label: &str,
    schemes: &[Scheme],
    mode: &ReplayMode,
    args: &[String],
) -> Json {
    let workers = jobs_from_args().unwrap_or_else(grp_bench::args::default_jobs);
    let stream_out = flag_value(args, "--stream-out");
    let (rows, stats, built) = run_grid(scale, schemes, mode, Some(workers), stream_out.as_deref());
    let _export = telemetry::profiler().span("export");

    let q = &stats.queue_wait_micros;
    println!(
        "\nfleet: {} cells on {} workers in {:.3}s wall ({} steals, {built} built workloads, \
         {} traces interpreted, {} loaded)",
        stats.cells,
        stats.workers,
        stats.wall_seconds,
        stats.steals,
        stats.traces_interpreted,
        stats.traces_loaded,
    );
    for w in 0..stats.workers {
        println!(
            "  worker {w}: {} cells, {:.3}s busy, {:.0}% utilized",
            stats.cells_per_worker[w],
            stats.busy_seconds[w],
            100.0 * stats.utilization(w)
        );
    }
    println!(
        "queue wait: p50={}us p90={}us p99={}us max={}us",
        q.percentile(0.50),
        q.percentile(0.90),
        q.percentile(0.99),
        q.max()
    );
    println!(
        "aggregate: {:.0} events/s across the fleet ({:.0} events/s per busy replay second)",
        stats.events_per_sec(),
        stats.events as f64 / stats.replay_seconds.max(1e-9),
    );

    let scheme_labels: Vec<&str> = schemes.iter().map(|s| s.label()).collect();
    traj::fleet_entry(
        label,
        &format!("{scale:?}").to_lowercase(),
        &scheme_labels,
        &stats,
        rows.iter().map(|r| r.json()).collect(),
    )
}

/// Runs the registry × `schemes` grid through the cell scheduler on
/// `fleet_workers` workers (`None`: serial, one worker), printing each
/// row as its cell completes and streaming the partial grid to
/// `stream_out`, if set. Exits on a failed cell. Returns the rows in
/// grid order, for a byte-stable artifact regardless of completion
/// order, with the fleet accounting and the number of workloads built.
/// Fleet rows name the worker that ran them.
fn run_grid(
    scale: grp_bench::SuiteScale,
    schemes: &[Scheme],
    mode: &ReplayMode,
    fleet_workers: Option<usize>,
    stream_out: Option<&str>,
) -> (Vec<KernelRow>, sched::FleetStats, usize) {
    let names: Vec<&'static str> = all().iter().map(|w| w.name).collect();
    let cfg = grp_core::SimConfig::paper();
    let jobs = sched::grid_jobs(&names, schemes, scale.workload_scale(), cfg);
    let total = jobs.len();
    let cache = WorkloadCache::new();

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let workers = fleet_workers.unwrap_or(1);
    let stats = sched::run_cells_mode(&jobs, workers, &cache, mode, |cell| {
        match &cell.outcome {
            Ok(r) => {
                let row = KernelRow {
                    bench: cell.kernel,
                    scheme: cell.scheme,
                    events: cell.events,
                    sim_cycles: r.cycles,
                    replay_seconds: cell.replay_seconds,
                    worker: fleet_workers.map(|_| cell.worker),
                };
                row.print();
                rows.push(row);
            }
            Err(e) => failures.push(format!("{}/{}: {e}", cell.kernel, cell.scheme)),
        }
        // Stream the partial grid through the atomic-write layer: a
        // crash mid-run leaves a complete, parseable prefix artifact
        // rather than nothing (or a torn file) at end-of-run.
        if let Some(path) = stream_out {
            let doc = Json::object()
                .set("complete", rows.len() as u64)
                .set("total", total as u64)
                .set(
                    "cells",
                    Json::Array(rows.iter().map(|r| r.json()).collect()),
                );
            grp_bench::artifact::atomic_write(path, doc.render()).unwrap_or_else(|e| {
                log::error("perf", &format!("cannot stream to {path}: {e}"));
                std::process::exit(1);
            });
        }
    });
    if !failures.is_empty() {
        log::error(
            "perf",
            &format!("{} cell(s) failed: {}", failures.len(), failures.join("; ")),
        );
        std::process::exit(1);
    }
    rows.sort_by_key(|r| {
        (
            names
                .iter()
                .position(|n| *n == r.bench)
                .unwrap_or(usize::MAX),
            schemes
                .iter()
                .position(|s| *s == r.scheme)
                .unwrap_or(usize::MAX),
        )
    });
    (rows, stats, cache.built_count())
}
