//! Inspects one benchmark, one `--section` at a time: `lifecycle` (the
//! default, below), `schemes` (every scheme's counters and prefetch
//! lifecycle), `hints` (per-reference hint diagnostics) or `workloads`
//! (footprint, reference mix, dependences and hint density of every
//! benchmark).
//!
//! The `lifecycle` section runs one benchmark under one scheme with the
//! observer layer enabled and writes three artifacts:
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
//! Usage (`--scheme`, `--trace-out` and `--metrics-out` are
//! lifecycle-only):
//!   `cargo run -p grp-bench --bin trace -- <bench> [--section <name>]
//!    [--scheme <label>] [--scale test|small|paper] [--trace-out <prefix>]
//!    [--metrics-out <path>] [--epoch N]`
//!   `cargo run -p grp-bench --bin trace -- --check <prefix>`
use grp_bench::args::{flag_u64, flag_value};
use grp_bench::json::Json;
use grp_bench::obs_export::{chrome_trace, metrics_json, slug};
use grp_bench::report::Table;
use grp_bench::suite::{parse_scale_args, SuiteScale};
use grp_bench::telemetry::log;
use grp_compiler::{analyze, explain, AnalysisConfig};
use grp_core::{EpochSampler, LifecycleTracer, ObserverPair, RunResult, Scheme, SimConfig};
use grp_cpu::TraceStats;
use grp_workloads::{by_name, Workload};

const SECTIONS: &str = "lifecycle, schemes, hints, workloads";

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
    let wl = by_name(&name).unwrap_or_else(|| fail(&format!("unknown benchmark '{name}'")));
    let scale = parse_scale_args(&args).unwrap_or_else(|e| fail(&e));
    let epoch = flag_u64(&args, "--epoch").unwrap_or(4096);
    if epoch == 0 {
        fail("--epoch must be positive");
    }
    let section = grp_bench::args::strict_value(&args, "--section", SECTIONS)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or_else(|| "lifecycle".into());
    for flag in ["--scheme", "--trace-out", "--metrics-out"] {
        if section != "lifecycle" && args.iter().any(|a| a == flag) {
            fail(&format!("{flag} applies only to --section lifecycle"));
        }
    }
    match section.as_str() {
        "lifecycle" => lifecycle(&args, wl, scale, epoch),
        "schemes" => schemes(wl, scale, epoch),
        "hints" => hints(wl, scale),
        "workloads" => workloads(scale),
        other => fail(&format!("unknown section '{other}' (valid: {SECTIONS})")),
    }
}

/// The `lifecycle` section: one traced cell, self-checked, exported.
fn lifecycle(args: &[String], wl: &Workload, scale: SuiteScale, epoch: u64) {
    let name = wl.name;
    let scheme =
        scheme_from_label(&flag_value(args, "--scheme").unwrap_or_else(|| "GRP/Var".into()));
    let prefix = flag_value(args, "--trace-out")
        .unwrap_or_else(|| format!("target/trace/{}-{}", name, slug(scheme.label())));
    let metrics_path =
        flag_value(args, "--metrics-out").unwrap_or_else(|| format!("{prefix}.metrics.json"));

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

/// The `schemes` section: every scheme's counters on one benchmark,
/// with the prefetch lifecycle of the schemes that prefetch.
fn schemes(wl: &Workload, scale: SuiteScale, epoch: u64) {
    let built = wl.build(scale.workload_scale());
    let cfg = SimConfig::paper();
    for s in [
        Scheme::NoPrefetch,
        Scheme::Stride,
        Scheme::Srp,
        Scheme::GrpFix,
        Scheme::GrpVar,
        Scheme::HwPointer,
        Scheme::GrpPointer,
        Scheme::PerfectL2,
    ] {
        let obs = ObserverPair(LifecycleTracer::new(), EpochSampler::new(epoch));
        let (r, ObserverPair(t, sampler)) = built.run_observed(s, &cfg, obs);
        println!(
            "{:>10}: cyc={:>9} ipc={:.2} l2acc={:>7} l2miss={:>7} dem={:>6} pf={:>6} wb={:>6} useful={:>6} late={:>5} acc={:.2}",
            s.label(),
            r.cycles,
            r.ipc(),
            r.l2.demand_accesses,
            r.l2.demand_misses,
            r.traffic.demand_blocks,
            r.traffic.prefetch_blocks,
            r.traffic.writeback_blocks,
            r.l2.useful_prefetches,
            r.late_prefetch_merges,
            r.accuracy()
        );
        println!(
            "            alloc={} drop={} cand={} ptr={} ind={} hist={:?} useless={}",
            r.engine.entries_allocated,
            r.engine.entries_dropped,
            r.engine.candidates_issued,
            r.engine.pointer_entries,
            r.engine.indirect_entries,
            r.engine.region_size_hist,
            r.l2.useless_prefetches
        );
        if t.issued() > 0 {
            println!(
                "            lifecycle: first_use={} late={} evicted={} resident={} in_flight={} squashed={} queued_end={} ({} epochs)",
                t.first_used(),
                t.late(),
                t.evicted_unused(),
                t.resident_at_end(),
                t.in_flight_at_end(),
                t.squashed(),
                t.queued_at_end(),
                sampler.snapshots().len()
            );
            println!("            fill->use: {}", t.fill_to_use());
            println!("            queue-res: {}", t.queue_residency());
        }
    }
}

/// The `hints` section: per-reference hint diagnostics.
fn hints(wl: &Workload, scale: SuiteScale) {
    let built = wl.build(scale.workload_scale());
    let hints = analyze(&built.program, &AnalysisConfig::default());
    println!("{}: {}\n", wl.name, wl.description);
    for e in explain(&built.program, &hints) {
        println!("{}", e.line());
    }
}

/// The `workloads` section: the numbers that validate each kernel
/// against its SPEC counterpart's behaviour.
fn workloads(scale: SuiteScale) {
    let mut t = Table::new(vec![
        "bench",
        "insts",
        "loads",
        "stores",
        "footprint KB",
        "refs/inst",
        "dep loads %",
        "max chain",
        "hinted %",
    ]);
    for w in grp_workloads::all() {
        let built = w.build(scale.workload_scale());
        let (trace, _) = built.trace(Some(&AnalysisConfig::default()));
        let s = TraceStats::compute(&trace);
        t.row(vec![
            w.name.to_string(),
            s.instructions.to_string(),
            s.loads.to_string(),
            s.stores.to_string(),
            (s.footprint_bytes() / 1024).to_string(),
            format!("{:.3}", s.ref_density()),
            format!("{:.1}", s.dependent_ratio() * 100.0),
            s.max_dep_chain.to_string(),
            format!(
                "{:.1}",
                100.0 * s.hinted_loads as f64 / s.loads.max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());
}
