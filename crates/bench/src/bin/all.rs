//! Reproduces the complete evaluation: every table and figure of the
//! paper's §5 — the one command that prints them — read off one result
//! table that a single cell batch fills. `--scale test|small|paper`
//! selects problem size; `--jobs N` (or the `GRP_JOBS` env var) caps the
//! batch's workers; `--json <path>` additionally writes machine-readable
//! per-run results. Lifecycle traces and epoch metrics for one benchmark
//! come from the `trace` binary.
//!
//! Trace cache: `--trace-cache <dir>` persists packed pre-interpreted
//! traces so a re-run (or another binary) skips build + interpretation;
//! hits replay the packed trace directly. Results are bit-identical
//! either way.
//!
//! Harness telemetry: the cell batch records into the process-global
//! registry (`grp_fleet_*`, trace-cache counters), and
//! `--registry-out <path>` writes that registry at exit as Prometheus
//! text plus a `<path>.json` twin — the same export shape `serve
//! --metrics-out` produces.
use grp_bench::args::flag_value;
use grp_bench::json::{run_result_json, Json};
use grp_bench::telemetry::{self, exposition, log};
use grp_bench::{experiments, suite::scale_from_args, Suite};
use grp_core::Scheme;

fn main() {
    let scale = scale_from_args();
    let jobs = grp_bench::args::jobs_from_args();
    let argv: Vec<String> = std::env::args().collect();
    // Output paths are parsed before the batch runs, so a malformed
    // flag fails at once instead of after the whole evaluation.
    let json_out = flag_value(&argv, "--json");
    let registry_out = flag_value(&argv, "--registry-out");
    let replay = grp_bench::args::parse_replay_args(&argv)
        .unwrap_or_else(|e| {
            log::error("all", &e);
            std::process::exit(2);
        })
        // Fleet and cache counters land in the process registry so a
        // --registry-out scrape covers the run's cell batch.
        .with_telemetry(telemetry::registry().clone());
    let mut suite = Suite::new(scale).verbose().with_replay(replay);
    println!("GRP reproduction — full evaluation at {scale:?} scale\n");
    // Every cell the evaluation reads, in one batch through the
    // work-stealing cell scheduler: the cells of a kernel share one
    // interpretation, and a slow benchmark's replays spread across
    // workers. --jobs / GRP_JOBS caps the pool.
    suite
        .fill(&experiments::cells(scale), jobs)
        .unwrap_or_else(|e| {
            log::error("all", &e);
            std::process::exit(1);
        });
    print!("{}", experiments::evaluation(&suite));

    // Optional machine-readable dump of every (benchmark, scheme) run.
    if let Some(path) = json_out {
        let mut benches = Vec::new();
        for name in suite.all_names() {
            let base = suite.result(name, Scheme::NoPrefetch, suite.config());
            let mut runs = Vec::new();
            for scheme in Scheme::ALL {
                runs.push(run_result_json(
                    suite.result(name, scheme, suite.config()),
                    Some(base),
                ));
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
        grp_bench::artifact::atomic_write(&path, doc.render()).unwrap_or_else(|e| {
            log::error("all", &format!("cannot write {path}: {e}"));
            std::process::exit(1);
        });
        log::info("all", &format!("wrote {path}"));
    }

    // Final registry scrape: everything the run recorded (fleet
    // scheduling, trace cache, I/O faults) in one
    // deterministic text exposition + JSON twin.
    if let Some(path) = registry_out {
        exposition::write_registry(telemetry::registry(), &path).unwrap_or_else(|e| {
            log::error("all", &format!("registry export to {path} failed: {e}"));
            std::process::exit(1);
        });
        log::info("all", &format!("wrote {path} (+ {path}.json)"));
    }
}
