//! Fleet-scheduler determinism regression tests: sharding the full
//! kernel × scheme grid across work-stealing workers must produce
//! per-cell results **bit-identical** to the serial path — for any
//! worker count, any steal order, and with built workloads shared
//! read-only across the schemes of a kernel.

use std::collections::HashMap;
use std::sync::Arc;

use grp_bench::sched::{self, ReplayMode, WorkloadCache};
use grp_bench::telemetry::{registry::metric_id, Registry};
use grp_bench::{experiments, Suite, SuiteScale};
use grp_core::{RunResult, Scheme, SimConfig};
use grp_workloads::{all, Scale};

/// The serial reference: every cell of the full grid run one at a time
/// on the calling thread, sharing one build per kernel.
fn serial_grid(cfg: &SimConfig) -> HashMap<(&'static str, Scheme), RunResult> {
    let mut reference = HashMap::new();
    for w in all() {
        let built = w.build(Scale::Test);
        for scheme in Scheme::ALL {
            reference.insert((w.name, scheme), built.run(scheme, cfg));
        }
    }
    reference
}

/// The tentpole acceptance test: the full 18 × 12 grid through the
/// fleet scheduler at worker counts 1, 3, and available parallelism —
/// every cell's `RunResult` must equal the serial reference to the bit,
/// every cell must complete exactly once, and the schemes of a kernel
/// must share one build.
#[test]
fn fleet_grid_bit_identical_to_serial_for_every_worker_count() {
    let cfg = SimConfig::paper();
    let reference = serial_grid(&cfg);
    let names: Vec<&'static str> = all().iter().map(|w| w.name).collect();
    let jobs = sched::grid_jobs(&names, &Scheme::ALL, Scale::Test, cfg);
    assert_eq!(jobs.len(), names.len() * Scheme::ALL.len());

    let parallelism = grp_bench::args::default_jobs();
    for workers in [1, 3, parallelism] {
        let cache = WorkloadCache::new();
        let mut seen: HashMap<(&'static str, Scheme), RunResult> = HashMap::new();
        let stats = sched::run_cells(&jobs, workers, &cache, |cell| {
            let r = cell
                .outcome
                .unwrap_or_else(|e| panic!("{}/{} failed: {e}", cell.kernel, cell.scheme));
            let prev = seen.insert((cell.kernel, cell.scheme), r);
            assert!(
                prev.is_none(),
                "{}/{} completed twice under {workers} worker(s)",
                cell.kernel,
                cell.scheme
            );
        });
        assert_eq!(
            stats.cells,
            jobs.len(),
            "cell count with {workers} worker(s)"
        );
        assert_eq!(stats.errors, 0);
        assert_eq!(
            cache.built_count(),
            names.len(),
            "one build per kernel with {workers} worker(s)"
        );
        assert_eq!(
            seen.len(),
            reference.len(),
            "grid coverage with {workers} worker(s)"
        );
        for (key, want) in &reference {
            assert_eq!(
                seen.get(key),
                Some(want),
                "{}/{} diverged from serial under {workers} worker(s)",
                key.0,
                key.1
            );
        }
    }
}

/// An unknown kernel fails its own cells with a named error while every
/// other cell still completes and stays bit-identical to serial.
#[test]
fn unknown_kernel_fails_alone() {
    let cfg = SimConfig::paper();
    let names = ["gzip", "no-such-kernel", "mcf"];
    let schemes = [Scheme::NoPrefetch, Scheme::Srp];
    let jobs = sched::grid_jobs(&names, &schemes, Scale::Test, cfg);

    let cache = WorkloadCache::new();
    let mut ok = 0usize;
    let mut failed: Vec<(&'static str, String)> = Vec::new();
    let stats = sched::run_cells(&jobs, 2, &cache, |cell| match cell.outcome {
        Ok(r) => {
            let want = grp_workloads::by_name(cell.kernel)
                .expect("known kernel")
                .build(Scale::Test)
                .run(cell.scheme, &cfg);
            assert_eq!(r, want, "{}/{} diverged", cell.kernel, cell.scheme);
            ok += 1;
        }
        Err(e) => failed.push((cell.kernel, e)),
    });
    assert_eq!(ok, 4, "both schemes of both real kernels complete");
    assert_eq!(failed.len(), 2, "both cells of the bogus kernel fail");
    assert_eq!(stats.errors, 2);
    for (kernel, e) in &failed {
        assert_eq!(*kernel, "no-such-kernel");
        assert!(e.contains("no-such-kernel"), "error names the kernel: {e}");
    }
}

/// Results stream through `on_complete` exactly once per job with the
/// caller's ids, and per-cell timing/attribution fields are populated.
#[test]
fn streaming_delivers_every_cell_exactly_once() {
    let cfg = SimConfig::paper();
    let names = ["gzip", "mcf", "art"];
    let schemes = [Scheme::NoPrefetch, Scheme::Stride, Scheme::GrpVar];
    let jobs = sched::grid_jobs(&names, &schemes, Scale::Test, cfg);
    let expected_ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();

    let cache = WorkloadCache::new();
    let mut delivered: Vec<u64> = Vec::new();
    let stats = sched::run_cells(&jobs, 3, &cache, |cell| {
        assert!(cell.outcome.is_ok());
        assert!(cell.events > 0, "events populated for {}", cell.kernel);
        assert!(cell.replay_seconds >= 0.0);
        assert!(cell.worker < 3, "worker id in range");
        delivered.push(cell.id);
    });
    delivered.sort_unstable();
    let mut want = expected_ids;
    want.sort_unstable();
    assert_eq!(delivered, want, "every id delivered exactly once");
    assert_eq!(stats.cells, delivered.len());
    assert!(stats.queue_wait_micros.count() == delivered.len() as u64);
}

/// `Suite::precompute_cells` fills the result table with results
/// bit-identical to the reference `BuiltWorkload::run`, which shares no
/// scheduler code.
#[test]
fn suite_precompute_cells_matches_serial_suite() {
    let names = ["gzip", "swim", "equake"];
    let schemes = [Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar];
    let cfg = SimConfig::paper();

    let mut fleet = Suite::new(SuiteScale::Test);
    fleet
        .precompute_cells(&names, &schemes, Some(2))
        .expect("precompute_cells succeeds");
    for name in names {
        let built = grp_workloads::by_name(name).unwrap().build(Scale::Test);
        for scheme in schemes {
            assert_eq!(
                *fleet.result(name, scheme, &cfg),
                built.run(scheme, &cfg),
                "{name}/{scheme} diverged between fleet precompute and the reference"
            );
        }
    }
}

/// `all`'s path: one batch fills every cell the evaluation reads —
/// the grid and the bandwidth study's off-default channel counts —
/// interpreting each kernel once, and the sections rendered from that
/// table are the binary's stdout after its header.
#[test]
fn one_batch_fills_the_evaluation_and_renders_all_s_stdout() {
    let reg = Arc::new(Registry::new());
    let mut suite =
        Suite::new(SuiteScale::Test).with_replay(ReplayMode::default().with_telemetry(reg.clone()));
    suite
        .fill(&experiments::cells(SuiteScale::Test), Some(2))
        .expect("clean fill");
    let snap = reg.snapshot();
    assert_eq!(snap.counter("grp_fleet_runs_total"), 1, "one batch");
    assert_eq!(
        snap.counter(&metric_id(
            "grp_fleet_traces_total",
            &[("source", "interpret")]
        )),
        18,
        "one interpretation per kernel"
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--scale", "test", "--jobs", "2"])
        .output()
        .expect("run all");
    assert!(out.status.success(), "all --scale test failed");
    let want = format!(
        "GRP reproduction — full evaluation at Test scale\n\n{}",
        experiments::evaluation(&suite)
    );
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), want);
}

/// The deal is driven by [`sched::group_weight`], built on
/// [`sched::cell_weight`]; the recalibrated table must still rank the
/// measured-heavy cells first so every worker opens on one of the
/// biggest groups.
#[test]
fn dealing_stays_largest_first_under_the_packed_cost_model() {
    // (bzip2, SRP-class) is the measured heaviest cell of the grid.
    let heaviest = sched::cell_weight("bzip2", Scheme::Srp);
    for w in all() {
        for scheme in Scheme::ALL {
            assert!(
                sched::cell_weight(w.name, scheme) <= heaviest,
                "{}/{scheme} outweighs the known-heaviest cell",
                w.name
            );
        }
    }
    // Relative spot-checks straight off the measured packed replay wall.
    assert!(sched::cell_weight("bzip2", Scheme::Srp) > sched::cell_weight("swim", Scheme::Srp));
    assert!(
        sched::cell_weight("swim", Scheme::NoPrefetch)
            > sched::cell_weight("mcf", Scheme::NoPrefetch)
    );
    assert!(sched::cell_weight("gzip", Scheme::Srp) > sched::cell_weight("gzip", Scheme::GrpVar));
    assert!(
        sched::cell_weight("gzip", Scheme::GrpVar) > sched::cell_weight("gzip", Scheme::NoPrefetch)
    );
    assert!(
        sched::cell_weight("gzip", Scheme::NoPrefetch)
            > sched::cell_weight("gzip", Scheme::PerfectL1)
    );
}
