//! Lifecycle-conservation regression tests: the observer layer must
//! account for every prefetch the simulator issues, and its derived
//! accuracy/coverage must reproduce [`grp_core::RunResult`]'s own
//! metrics to the bit — on every kernel under every scheme.

use grp_bench::json::Json;
use grp_bench::obs_export::{chrome_trace, metrics_json};
use grp_core::{EpochSampler, LifecycleTracer, ObserverPair, Scheme, SimConfig};
use grp_workloads::{all, Scale};

/// Every kernel × every scheme at test scale: conservation
/// (`issued == first_used + late + evicted_unused + resident_at_end +
/// in_flight_at_end`), counter-for-counter agreement with the
/// simulator, and bit-exact accuracy/coverage.
#[test]
fn conservation_and_counter_agreement_everywhere() {
    let cfg = SimConfig::paper();
    for w in all() {
        let built = w.build(Scale::Test);
        let base = built.run(Scheme::NoPrefetch, &cfg);
        for scheme in Scheme::ALL {
            let (r, t) = built.run_observed(scheme, &cfg, LifecycleTracer::new());
            let ctx = format!("{} / {}", w.name, scheme);
            assert_eq!(
                t.issued(),
                t.first_used()
                    + t.late()
                    + t.evicted_unused()
                    + t.resident_at_end()
                    + t.in_flight_at_end(),
                "lifecycle conservation violated for {ctx}"
            );
            assert_eq!(t.issued(), r.prefetches_issued, "issued mismatch for {ctx}");
            assert_eq!(
                t.first_used(),
                r.l2.useful_prefetches,
                "first-use mismatch for {ctx}"
            );
            assert_eq!(
                t.evicted_unused(),
                r.l2.useless_prefetches,
                "unused-eviction mismatch for {ctx}"
            );
            assert_eq!(
                t.resident_at_end(),
                r.resident_unused_prefetches,
                "resident-tail mismatch for {ctx}"
            );
            assert_eq!(t.late(), r.late_prefetch_merges, "late mismatch for {ctx}");
            assert_eq!(
                t.demand_misses(),
                r.l2.demand_misses,
                "demand-miss mismatch for {ctx}"
            );
            assert_eq!(
                t.accuracy().to_bits(),
                r.accuracy().to_bits(),
                "accuracy not bit-exact for {ctx}: {} vs {}",
                t.accuracy(),
                r.accuracy()
            );
            assert_eq!(
                t.coverage_vs_misses(base.l2_misses()).to_bits(),
                r.coverage_vs(&base).to_bits(),
                "coverage not bit-exact for {ctx}"
            );
            // Every record ends with a decided outcome and timestamp.
            for rec in t.records() {
                assert!(
                    rec.outcome.is_some() && rec.outcome_at.is_some(),
                    "undecided record in {ctx}: {rec:?}"
                );
            }
        }
    }
}

/// The exported artifacts must round-trip through the in-tree JSON
/// reader: the Chrome trace document, the metrics document, and every
/// JSONL line.
#[test]
fn exports_roundtrip_through_the_json_reader() {
    let cfg = SimConfig::paper();
    let w = grp_workloads::by_name("gzip").expect("gzip exists");
    let built = w.build(Scale::Test);
    let obs = ObserverPair(LifecycleTracer::new(), EpochSampler::new(512));
    let (_, ObserverPair(t, sampler)) = built.run_observed(Scheme::GrpVar, &cfg, obs);
    assert!(t.issued() > 0, "gzip GRP/Var must issue prefetches");
    assert!(!sampler.snapshots().is_empty(), "expected epoch snapshots");

    let trace_doc = chrome_trace(&t, sampler.snapshots());
    let parsed = Json::parse(&trace_doc.render()).expect("chrome trace parses");
    // Whole-valued floats re-parse as integers, so round-trip equality
    // is at the rendered-text level.
    assert_eq!(
        parsed.render(),
        trace_doc.render(),
        "chrome trace round-trips"
    );
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(
        events.len() > t.issued() as usize,
        "slices + metadata + counters"
    );

    let metrics_doc = metrics_json(&t, sampler.snapshots(), Some(512));
    let parsed = Json::parse(&metrics_doc.render()).expect("metrics parse");
    assert_eq!(parsed.render(), metrics_doc.render(), "metrics round-trip");
    assert_eq!(
        parsed
            .get("summary")
            .and_then(|s| s.get("issued"))
            .and_then(Json::as_u64),
        Some(t.issued())
    );

    for (i, line) in t.jsonl().lines().enumerate() {
        let rec = Json::parse(line).unwrap_or_else(|e| panic!("jsonl line {}: {e}", i + 1));
        assert!(rec.get("block").is_some() && rec.get("outcome").is_some());
    }
}

/// Epoch snapshots are cumulative and monotone: later epochs never
/// report fewer events, cycles, or issued prefetches, and the epoch
/// cadence follows the configured interval.
#[test]
fn epoch_series_is_monotone_and_on_cadence() {
    let cfg = SimConfig::paper();
    let w = grp_workloads::by_name("swim").expect("swim exists");
    let built = w.build(Scale::Test);
    let (r, sampler) = built.run_observed(Scheme::GrpVar, &cfg, EpochSampler::new(256));
    let snaps = sampler.snapshots();
    assert!(
        snaps.len() >= 2,
        "expected several epochs, got {}",
        snaps.len()
    );
    for pair in snaps.windows(2) {
        assert!(pair[0].events <= pair[1].events);
        assert!(pair[0].cycles <= pair[1].cycles);
        assert!(pair[0].prefetches_issued <= pair[1].prefetches_issued);
        assert!(pair[0].l2_demand_misses <= pair[1].l2_demand_misses);
    }
    // All but the final (end-of-run) snapshot land exactly on the
    // interval boundary.
    for s in &snaps[..snaps.len() - 1] {
        assert_eq!(s.events % 256, 0, "epoch off cadence at {}", s.events);
    }
    let last = snaps.last().expect("nonempty");
    assert_eq!(
        last.prefetches_issued, r.prefetches_issued,
        "final epoch sees the complete run"
    );
    assert_eq!(last.l2_demand_misses, r.l2.demand_misses);
}
