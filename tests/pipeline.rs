//! Pipeline consistency tests: the compiler's static view, the
//! interpreter's dynamic trace, and the simulator's accounting must agree.

use grp::compiler::{analyze, census, AnalysisConfig};
use grp::core::{Scheme, SimConfig};
use grp::cpu::TraceEvent;
use grp::workloads::{all, by_name, Scale};

#[test]
fn trace_hints_match_static_hint_map() {
    for w in all() {
        let b = w.build(Scale::Test);
        let hints = analyze(&b.program, &AnalysisConfig::default());
        let (trace, _) = b.trace(Some(&AnalysisConfig::default()));
        for ev in trace.events() {
            if let TraceEvent::Load {
                ref_id, hints: h, ..
            } = ev
            {
                assert_eq!(
                    *h,
                    hints.hint(*ref_id),
                    "{}: dynamic hint mismatch at site {:?}",
                    w.name,
                    ref_id
                );
            }
        }
    }
}

#[test]
fn indirect_events_only_when_compiler_derived_them() {
    for w in all() {
        let b = w.build(Scale::Test);
        let hints = analyze(&b.program, &AnalysisConfig::default());
        let (trace, _) = b.trace(Some(&AnalysisConfig::default()));
        let has_events = trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::IndirectPrefetch { .. }));
        let has_directives = hints.indirect_count() > 0;
        assert_eq!(
            has_events, has_directives,
            "{}: indirect events vs directives disagree",
            w.name
        );
    }
}

#[test]
fn loop_bound_events_only_under_varsize() {
    for w in all() {
        let b = w.build(Scale::Test);
        let (fix_trace, _) = b.trace(Some(&AnalysisConfig::grp_fix()));
        assert!(
            !fix_trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::SetLoopBound(_))),
            "{}: GRP/Fix trace must carry no loop bounds",
            w.name
        );
    }
}

#[test]
fn census_is_consistent_with_hint_map() {
    for w in all() {
        let b = w.build(Scale::Test);
        let hints = analyze(&b.program, &AnalysisConfig::default());
        let cs = census(&b.program, &hints);
        assert_eq!(cs.mem_refs, b.program.num_refs);
        assert!(cs.spatial <= cs.mem_refs);
        assert!(cs.hinted() <= cs.mem_refs);
        assert_eq!(cs.indirect as usize, hints.indirect_count());
        assert!(
            cs.recursive <= cs.pointer + cs.recursive,
            "recursive sites are pointer-family sites"
        );
    }
}

#[test]
fn attribution_totals_match_l2_misses() {
    for name in ["swim", "mcf", "bzip2"] {
        let b = by_name(name).unwrap().build(Scale::Test);
        let r = b.run(Scheme::NoPrefetch, &SimConfig::paper());
        let attributed: u64 = r.attribution.counts().iter().sum();
        assert_eq!(
            attributed, r.l2.demand_misses,
            "{name}: every L2 demand miss is attributed to a site"
        );
    }
}

#[test]
fn traffic_ledger_balances() {
    // Demand fetches can never exceed L2 demand misses (merges reduce
    // them), and every useful prefetch corresponds to an issued one.
    for w in all() {
        let b = w.build(Scale::Test);
        let r = b.run(Scheme::GrpVar, &SimConfig::paper());
        assert!(r.traffic.demand_blocks <= r.l2.demand_misses);
        assert_eq!(r.traffic.prefetch_blocks, r.prefetches_issued);
        assert!(
            r.l2.useful_prefetches + r.l2.useless_prefetches + r.resident_unused_prefetches
                <= r.prefetches_issued,
            "{}: prefetch accounting overflows issues",
            w.name
        );
    }
}

#[test]
fn conservative_marks_subset_of_default_marks_subset_of_aggressive() {
    for w in all() {
        let b = w.build(Scale::Test);
        let cons = census(&b.program, &b.hints(&AnalysisConfig::conservative()));
        let def = census(&b.program, &b.hints(&AnalysisConfig::default()));
        let aggr = census(&b.program, &b.hints(&AnalysisConfig::aggressive()));
        assert!(
            cons.spatial <= def.spatial && def.spatial <= aggr.spatial,
            "{}: policy monotonicity violated ({} / {} / {})",
            w.name,
            cons.spatial,
            def.spatial,
            aggr.spatial
        );
    }
}
