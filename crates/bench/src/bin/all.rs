//! Reproduces the complete evaluation: every table and figure, sharing
//! one memoized suite. `--scale test|small|paper` selects problem size;
//! `--jobs N` (or the `GRP_JOBS` env var) caps the parallel precompute
//! workers; `--json <path>` additionally writes machine-readable
//! per-run results.
//!
//! Observability: `--trace-out <prefix>` re-runs the perf benchmarks
//! under GRP/Var with the lifecycle tracer and writes per-benchmark
//! `<prefix>-<bench>.jsonl` + `<prefix>-<bench>.trace.json`;
//! `--metrics-out <prefix>` writes `<prefix>-<bench>.metrics.json`;
//! `--epoch N` sets the sampling interval (default 4096 events).
//!
//! Trace cache: `--trace-cache <dir>` persists packed pre-interpreted
//! traces so a re-run (or another binary) skips build + interpretation;
//! hits replay the packed trace directly. Results are bit-identical
//! either way.
//!
//! Harness telemetry: the precompute fleet records into the
//! process-global registry (`grp_fleet_*`, trace-cache counters), and `--registry-out <path>` writes that
//! registry at exit as Prometheus text plus a `<path>.json` twin —
//! the same export shape `serve --metrics-out` produces.
use grp_bench::json::{run_result_json, Json};
use grp_bench::obs_export::{chrome_trace, flag_u64, flag_value, metrics_json};
use grp_bench::telemetry::{self, exposition, log};
use grp_bench::{experiments, suite::scale_from_args, Suite};
use grp_core::{EpochSampler, LifecycleTracer, ObserverPair, Scheme};
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
        // --registry-out scrape covers the whole precompute phase.
        .with_telemetry(telemetry::registry().clone());
    let mut suite = Suite::new(scale).verbose().with_replay(replay);
    println!("GRP reproduction — full evaluation at {scale:?} scale\n");
    // Warm the memo table through the work-stealing cell scheduler:
    // every (benchmark, scheme) cell is an independent unit of work, so
    // a slow benchmark no longer serializes its remaining schemes
    // behind one worker. --jobs / GRP_JOBS caps the pool.
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
    println!("{}", experiments::bandwidth_study(scale));

    // Optional machine-readable dump of every (benchmark, scheme) run.
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
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

    // Optional observability pass: traced GRP/Var runs over the perf set.
    let trace_out = flag_value(&args, "--trace-out");
    let metrics_out = flag_value(&args, "--metrics-out");
    if trace_out.is_some() || metrics_out.is_some() {
        let epoch = flag_u64(&args, "--epoch").unwrap_or(4096).max(1);
        let cfg = *suite.config();
        for name in suite.perf_names() {
            log::info("all", &format!("[observe] {name} / GRP/Var…"));
            let obs = ObserverPair(LifecycleTracer::new(), EpochSampler::new(epoch));
            let built = suite.built(name);
            let (_, ObserverPair(t, sampler)) = built.run_observed(Scheme::GrpVar, &cfg, obs);
            let epochs = sampler.snapshots();
            let write = |path: String, body: String| {
                grp_bench::artifact::atomic_write(&path, body).expect("write observability output");
                log::info("all", &format!("wrote {path}"));
            };
            if let Some(prefix) = &trace_out {
                write(format!("{prefix}-{name}.jsonl"), t.jsonl());
                write(
                    format!("{prefix}-{name}.trace.json"),
                    chrome_trace(&t, epochs).render(),
                );
            }
            if let Some(prefix) = &metrics_out {
                write(
                    format!("{prefix}-{name}.metrics.json"),
                    metrics_json(&t, epochs, Some(epoch)).render(),
                );
            }
        }
    }

    // Final registry scrape: everything the run recorded (suite
    // precompute, fleet scheduling, trace cache, I/O faults) in one
    // deterministic text exposition + JSON twin.
    if let Some(path) = flag_value(&args, "--registry-out") {
        exposition::write_registry(telemetry::registry(), &path).unwrap_or_else(|e| {
            log::error("all", &format!("registry export to {path} failed: {e}"));
            std::process::exit(1);
        });
        log::info("all", &format!("wrote {path} (+ {path}.json)"));
    }
}
