//! Reproduces the complete evaluation: every table and figure of the
//! paper's §5, sharing one memoized suite — the one command that prints
//! them. `--scale test|small|paper` selects problem size; `--jobs N` (or
//! the `GRP_JOBS` env var) caps the workers of every cell batch (the
//! precompute and the bandwidth study); `--json <path>` additionally
//! writes machine-readable per-run results. Lifecycle traces and epoch
//! metrics for one benchmark come from the `trace` binary.
//!
//! Trace cache: `--trace-cache <dir>` persists packed pre-interpreted
//! traces so a re-run (or another binary) skips build + interpretation;
//! hits replay the packed trace directly. Results are bit-identical
//! either way.
//!
//! Harness telemetry: every cell batch records into the process-global
//! registry (`grp_fleet_*`, trace-cache counters), and
//! `--registry-out <path>` writes that registry at exit as Prometheus text plus a `<path>.json` twin —
//! the same export shape `serve --metrics-out` produces.
use grp_bench::json::{run_result_json, Json};
use grp_bench::obs_export::flag_value;
use grp_bench::telemetry::{self, exposition, log};
use grp_bench::{experiments, suite::scale_from_args, Suite};
use grp_core::Scheme;
use grp_workloads::BenchClass;

fn main() {
    let scale = scale_from_args();
    let jobs = grp_bench::args::jobs_from_args();
    let argv: Vec<String> = std::env::args().collect();
    let replay = grp_bench::args::parse_replay_args(&argv)
        .unwrap_or_else(|e| {
            log::error("all", &e);
            std::process::exit(2);
        })
        // Fleet and cache counters land in the process registry so a
        // --registry-out scrape covers every cell batch of the run.
        .with_telemetry(telemetry::registry().clone());
    let mut suite = Suite::new(scale).verbose().with_replay(replay);
    println!("GRP reproduction — full evaluation at {scale:?} scale\n");
    // Warm the memo table through the work-stealing cell scheduler:
    // schemes that replay the same trace share one interpretation, and
    // a slow benchmark's replays spread across workers. --jobs /
    // GRP_JOBS caps the pool.
    suite
        .precompute_cells(&suite.all_names(), &Scheme::ALL, jobs)
        .unwrap_or_else(|e| {
            log::error("all", &e);
            std::process::exit(1);
        });
    println!("{}", experiments::figure1(&mut suite));
    let (_, t1) = experiments::table1(&mut suite);
    println!("{t1}");
    println!("{}", experiments::table2());
    println!("{}", experiments::table3(&mut suite));
    println!("{}", experiments::figure9(&mut suite));
    println!("{}", experiments::figure_perf(&mut suite, BenchClass::Int));
    println!("{}", experiments::figure_perf(&mut suite, BenchClass::App));
    println!("{}", experiments::figure_perf(&mut suite, BenchClass::Fp));
    println!("{}", experiments::figure12(&mut suite));
    println!("{}", experiments::table4(&mut suite));
    println!("{}", experiments::table5(&mut suite));
    println!("{}", experiments::table6(&mut suite));
    println!("{}", experiments::sensitivity(&mut suite));
    println!("{}", experiments::bandwidth_study_with(&mut suite));

    // Optional machine-readable dump of every (benchmark, scheme) run.
    if let Some(path) = argv
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| argv.get(i + 1))
    {
        let mut benches = Vec::new();
        for name in suite.all_names() {
            let base = suite.run(name, Scheme::NoPrefetch);
            let mut runs = Vec::new();
            for scheme in Scheme::ALL {
                let r = suite.run(name, scheme);
                runs.push(run_result_json(&r, Some(&base)));
            }
            benches.push(
                Json::object()
                    .set("bench", name)
                    .set("runs", Json::Array(runs)),
            );
        }
        let doc = Json::object()
            .set("scale", format!("{scale:?}"))
            .set("benchmarks", Json::Array(benches));
        grp_bench::artifact::atomic_write(path, doc.render()).expect("write --json output");
        log::info("all", &format!("wrote {path}"));
    }

    // Final registry scrape: everything the run recorded (suite
    // precompute, fleet scheduling, trace cache, I/O faults) in one
    // deterministic text exposition + JSON twin.
    if let Some(path) = flag_value(&argv, "--registry-out") {
        exposition::write_registry(telemetry::registry(), &path).unwrap_or_else(|e| {
            log::error("all", &format!("registry export to {path} failed: {e}"));
            std::process::exit(1);
        });
        log::info("all", &format!("wrote {path} (+ {path}.json)"));
    }
}
