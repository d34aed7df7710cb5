//! Prefetch-lifecycle trace exporter. Runs one benchmark under one
//! scheme with the observer layer enabled and writes three artifacts:
//!
//! * `<prefix>.jsonl` — one JSON object per tracked prefetch (full
//!   lifecycle timestamps and final outcome);
//! * `<prefix>.trace.json` — Chrome trace-event JSON (load into
//!   Perfetto / `chrome://tracing`): DRAM channel lanes, prefetch-queue
//!   slots, L2 MSHR file, plus epoch counters;
//! * `<prefix>.metrics.json` — lifecycle summary, timeliness
//!   histograms, and the epoch metrics time-series.
//!
//! Every run self-verifies: the trace-derived counters must reproduce
//! the simulator's own `RunResult` counters (accuracy and coverage to
//! the bit), and the lifecycle conservation identity must hold — the
//! process exits nonzero otherwise.
//!
//! Usage:
//!   `cargo run -p grp-bench --bin trace -- <bench> [--scheme <label>]
//!    [--scale test|small|paper] [--trace-out <prefix>]
//!    [--metrics-out <path>] [--epoch N]`
//!   `cargo run -p grp-bench --bin trace -- --check <prefix>`
use grp_bench::json::Json;
use grp_bench::obs_export::{chrome_trace, flag_u64, flag_value, metrics_json, slug};
use grp_bench::suite::parse_scale_args;
use grp_bench::telemetry::log;
use grp_core::{EpochSampler, LifecycleTracer, ObserverPair, RunResult, Scheme, SimConfig};
use grp_workloads::by_name;

fn fail(msg: &str) -> ! {
    log::error("trace", msg);
    std::process::exit(1)
}

fn scheme_from_label(label: &str) -> Scheme {
    let want = slug(label);
    Scheme::ALL
        .into_iter()
        .find(|s| slug(s.label()) == want)
        .unwrap_or_else(|| {
            let all: Vec<_> = Scheme::ALL.iter().map(|s| s.label()).collect();
            fail(&format!(
                "unknown scheme '{label}' (valid: {})",
                all.join(", ")
            ))
        })
}

/// Compares one trace-derived counter against the simulator's; returns
/// whether they matched.
fn check_eq(failures: &mut Vec<String>, what: &str, tracer: u64, sim: u64) {
    if tracer != sim {
        failures.push(format!("{what}: tracer {tracer} != simulator {sim}"));
    }
}

fn verify_against(tracer: &LifecycleTracer, r: &RunResult, base: &RunResult) -> Vec<String> {
    let mut f = Vec::new();
    check_eq(
        &mut f,
        "prefetches issued",
        tracer.issued(),
        r.prefetches_issued,
    );
    check_eq(
        &mut f,
        "first uses",
        tracer.first_used(),
        r.l2.useful_prefetches,
    );
    check_eq(
        &mut f,
        "unused evictions",
        tracer.evicted_unused(),
        r.l2.useless_prefetches,
    );
    check_eq(
        &mut f,
        "resident at end",
        tracer.resident_at_end(),
        r.resident_unused_prefetches,
    );
    check_eq(&mut f, "late merges", tracer.late(), r.late_prefetch_merges);
    check_eq(
        &mut f,
        "demand misses",
        tracer.demand_misses(),
        r.l2.demand_misses,
    );
    let conserved = tracer.first_used()
        + tracer.late()
        + tracer.evicted_unused()
        + tracer.resident_at_end()
        + tracer.in_flight_at_end()
        + tracer.dropped();
    if tracer.issued() != conserved {
        f.push(format!(
            "conservation: issued {} != accounted {conserved}",
            tracer.issued()
        ));
    }
    if tracer.accuracy().to_bits() != r.accuracy().to_bits() {
        f.push(format!(
            "accuracy: tracer {} != simulator {}",
            tracer.accuracy(),
            r.accuracy()
        ));
    }
    let cov = tracer.coverage_vs_misses(base.l2_misses());
    if cov.to_bits() != r.coverage_vs(base).to_bits() {
        f.push(format!(
            "coverage: tracer {cov} != simulator {}",
            r.coverage_vs(base)
        ));
    }
    f
}

/// Re-parses previously written artifacts with the in-tree JSON reader
/// and re-asserts conservation from the raw per-record outcomes.
fn check_artifacts(prefix: &str) {
    let jsonl = std::fs::read_to_string(format!("{prefix}.jsonl"))
        .unwrap_or_else(|e| fail(&format!("read {prefix}.jsonl: {e}")));
    let mut issued = 0u64;
    let mut accounted = 0u64;
    let mut records = 0u64;
    for (i, line) in jsonl.lines().enumerate() {
        let rec = Json::parse(line)
            .unwrap_or_else(|e| fail(&format!("{prefix}.jsonl line {}: {e}", i + 1)));
        records += 1;
        if rec
            .get("issued")
            .map(|v| v.as_u64().is_some())
            .unwrap_or(false)
        {
            issued += 1;
        }
        let outcome = rec
            .get("outcome")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{prefix}.jsonl line {}: no outcome", i + 1)));
        if matches!(
            outcome,
            "first_use"
                | "late"
                | "evicted_unused"
                | "resident_at_end"
                | "in_flight_at_end"
                | "dropped"
        ) {
            accounted += 1;
        }
    }
    if issued != accounted {
        fail(&format!(
            "{prefix}.jsonl: conservation violated — {issued} issued but {accounted} accounted"
        ));
    }
    let metrics = std::fs::read_to_string(format!("{prefix}.metrics.json"))
        .unwrap_or_else(|e| fail(&format!("read {prefix}.metrics.json: {e}")));
    let metrics =
        Json::parse(&metrics).unwrap_or_else(|e| fail(&format!("{prefix}.metrics.json: {e}")));
    let summary = metrics
        .get("summary")
        .unwrap_or_else(|| fail("metrics: no summary"));
    let sum_issued = summary.get("issued").and_then(Json::as_u64).unwrap_or(0);
    if sum_issued != issued {
        fail(&format!(
            "metrics summary issued {sum_issued} disagrees with jsonl {issued}"
        ));
    }
    if summary.get("records").and_then(Json::as_u64) != Some(records) {
        fail("metrics summary record count disagrees with jsonl");
    }
    let trace = std::fs::read_to_string(format!("{prefix}.trace.json"))
        .unwrap_or_else(|e| fail(&format!("read {prefix}.trace.json: {e}")));
    let trace = Json::parse(&trace).unwrap_or_else(|e| fail(&format!("{prefix}.trace.json: {e}")));
    let n = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("trace.json: no traceEvents array"))
        .len();
    println!("check ok: {records} records, {issued} issued (conserved), {n} trace events");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(prefix) = flag_value(&args, "--check") {
        check_artifacts(&prefix);
        return;
    }
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "gzip".into());
    let scheme =
        scheme_from_label(&flag_value(&args, "--scheme").unwrap_or_else(|| "GRP/Var".into()));
    let scale = parse_scale_args(&args).unwrap_or_else(|e| fail(&e));
    let epoch = flag_u64(&args, "--epoch").unwrap_or(4096);
    if epoch == 0 {
        fail("--epoch must be positive");
    }
    let prefix = flag_value(&args, "--trace-out")
        .unwrap_or_else(|| format!("target/trace/{}-{}", name, slug(scheme.label())));
    let metrics_path =
        flag_value(&args, "--metrics-out").unwrap_or_else(|| format!("{prefix}.metrics.json"));

    let wl = by_name(&name).unwrap_or_else(|| fail(&format!("unknown benchmark '{name}'")));
    let built = wl.build(scale.workload_scale());
    let cfg = SimConfig::paper();
    log::info(
        "trace",
        &format!("running {name} / {} (baseline)…", Scheme::NoPrefetch),
    );
    let base = built.run(Scheme::NoPrefetch, &cfg);
    log::info(
        "trace",
        &format!("running {name} / {scheme} (traced, epoch={epoch})…"),
    );
    let obs = ObserverPair(LifecycleTracer::new(), EpochSampler::new(epoch));
    let (r, obs) = built.run_observed(scheme, &cfg, obs);
    let ObserverPair(tracer, sampler) = obs;

    let failures = verify_against(&tracer, &r, &base);
    if !failures.is_empty() {
        for f in &failures {
            log::error("trace", &format!("self-check FAILED: {f}"));
        }
        std::process::exit(1);
    }

    // Atomic writes (stage + rename): a kill mid-export can't leave a
    // truncated artifact for --check to trip over.
    let epochs = sampler.snapshots();
    grp_bench::artifact::atomic_write(format!("{prefix}.jsonl"), tracer.jsonl())
        .unwrap_or_else(|e| fail(&format!("write {prefix}.jsonl: {e}")));
    grp_bench::artifact::atomic_write(
        format!("{prefix}.trace.json"),
        chrome_trace(&tracer, epochs).render(),
    )
    .unwrap_or_else(|e| fail(&format!("write {prefix}.trace.json: {e}")));
    grp_bench::artifact::atomic_write(
        &metrics_path,
        metrics_json(&tracer, epochs, Some(epoch)).render(),
    )
    .unwrap_or_else(|e| fail(&format!("write {metrics_path}: {e}")));

    println!(
        "{name} / {scheme}: {} records, {} issued, accuracy {:.3}, coverage {:.3}, {} epochs",
        tracer.records().len(),
        tracer.issued(),
        tracer.accuracy(),
        tracer.coverage_vs_misses(base.l2_misses()),
        epochs.len()
    );
    println!("  outcomes: first_use={} late={} evicted_unused={} resident={} in_flight={} squashed={} queued_at_end={} dropped={}",
        tracer.first_used(), tracer.late(), tracer.evicted_unused(),
        tracer.resident_at_end(), tracer.in_flight_at_end(), tracer.squashed(),
        tracer.queued_at_end(), tracer.dropped());
    println!("  queue residency: {}", tracer.queue_residency());
    println!("  issue->fill:     {}", tracer.issue_to_fill());
    println!("  fill->first-use: {}", tracer.fill_to_use());
    println!("  self-check ok (trace counters match simulator, accuracy/coverage bit-exact)");
    println!("wrote {prefix}.jsonl, {prefix}.trace.json, {metrics_path}");
}
