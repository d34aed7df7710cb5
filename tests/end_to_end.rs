//! Cross-crate integration tests: the paper's headline claims must hold
//! end to end (workload → compiler → interpreter → timing simulation) at
//! test scale.

use grp::core::{geomean, Scheme, SimConfig};
use grp::workloads::{all, by_name, Scale};

fn cfg() -> SimConfig {
    SimConfig::paper()
}

#[test]
fn suite_geomeans_reproduce_table1_ordering() {
    // Table 1's shape: stride < GRP ≈ SRP on speedup; GRP ≪ SRP on traffic.
    let mut speedup = std::collections::HashMap::new();
    let mut traffic = std::collections::HashMap::new();
    let schemes = [Scheme::Stride, Scheme::Srp, Scheme::GrpFix, Scheme::GrpVar];
    let mut acc: std::collections::HashMap<Scheme, (Vec<f64>, Vec<f64>)> =
        schemes.iter().map(|s| (*s, (vec![], vec![]))).collect();
    for w in grp::workloads::perf_set() {
        let b = w.build(Scale::Test);
        let base = b.run(Scheme::NoPrefetch, &cfg());
        for s in schemes {
            let r = b.run(s, &cfg());
            let e = acc.get_mut(&s).unwrap();
            e.0.push(r.speedup_vs(&base));
            e.1.push(r.traffic_vs(&base).max(1e-9));
        }
    }
    for s in schemes {
        let (sp, tr) = &acc[&s];
        speedup.insert(s, geomean(sp));
        traffic.insert(s, geomean(tr));
    }
    // Performance: every prefetcher beats none; region schemes beat stride.
    assert!(speedup[&Scheme::Stride] > 1.0);
    assert!(speedup[&Scheme::Srp] > speedup[&Scheme::Stride]);
    assert!(speedup[&Scheme::GrpFix] > speedup[&Scheme::Stride]);
    // GRP lands within a band of SRP's performance…
    assert!(
        speedup[&Scheme::GrpVar] > speedup[&Scheme::Srp] * 0.80,
        "GRP/Var {} vs SRP {}",
        speedup[&Scheme::GrpVar],
        speedup[&Scheme::Srp]
    );
    // …while spending less bandwidth. (The separation grows with problem
    // size; at Test scale the tiny arrays bound how much SRP can waste,
    // so the threshold here is looser than the paper's 1.23 vs 2.80.)
    assert!(
        traffic[&Scheme::GrpVar] < traffic[&Scheme::Srp] * 0.90,
        "GRP/Var traffic {} vs SRP {}",
        traffic[&Scheme::GrpVar],
        traffic[&Scheme::Srp]
    );
    // And GRP/Var never spends more than GRP/Fix.
    assert!(traffic[&Scheme::GrpVar] <= traffic[&Scheme::GrpFix] * 1.02);
}

#[test]
fn perfect_caches_bound_every_benchmark() {
    for w in all() {
        let b = w.build(Scale::Test);
        let base = b.run(Scheme::NoPrefetch, &cfg());
        let l2 = b.run(Scheme::PerfectL2, &cfg());
        let l1 = b.run(Scheme::PerfectL1, &cfg());
        assert!(
            l1.cycles <= l2.cycles && l2.cycles <= base.cycles,
            "{}: ideal ordering violated ({} / {} / {})",
            w.name,
            l1.cycles,
            l2.cycles,
            base.cycles
        );
        assert_eq!(
            l1.traffic.total_blocks(),
            0,
            "{}: perfect L1 moves no data",
            w.name
        );
    }
}

#[test]
fn no_prefetcher_catastrophically_degrades_any_benchmark() {
    // The access prioritizer's core promise (§3.1): aggressive prefetching
    // must not wreck performance even where it cannot help.
    for w in grp::workloads::perf_set() {
        let b = w.build(Scale::Test);
        let base = b.run(Scheme::NoPrefetch, &cfg());
        for s in [Scheme::Stride, Scheme::Srp, Scheme::GrpVar] {
            let r = b.run(s, &cfg());
            assert!(
                r.cycles <= base.cycles * 23 / 20,
                "{} under {s}: {} vs {} cycles",
                w.name,
                r.cycles,
                base.cycles
            );
        }
    }
}

#[test]
fn grp_traffic_stays_close_to_baseline_everywhere() {
    // Table 5: GRP's worst normalized traffic in the paper is ~2×; SRP's
    // is ~25×. Check the suite-wide bound (loose at test scale).
    for w in grp::workloads::perf_set() {
        let b = w.build(Scale::Test);
        let base = b.run(Scheme::NoPrefetch, &cfg());
        let grp = b.run(Scheme::GrpVar, &cfg());
        assert!(
            grp.traffic_vs(&base) < 3.0,
            "{}: GRP traffic {:.2}×",
            w.name,
            grp.traffic_vs(&base)
        );
    }
}

#[test]
fn instructions_are_scheme_invariant() {
    // Committed instruction count depends only on the trace, never on the
    // memory system.
    let b = by_name("mgrid").unwrap().build(Scale::Test);
    let counts: Vec<u64> = [Scheme::NoPrefetch, Scheme::Srp, Scheme::PerfectL1]
        .iter()
        .map(|s| b.run(*s, &cfg()).instructions)
        .collect();
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[0], counts[2]);
}

#[test]
fn srp_plus_pointer_adds_little_over_srp() {
    // §5.2: "Applying SRP and pointer prefetching together gives little
    // benefit and sometimes degrades the performance due to much higher
    // bandwidth consumption."
    let mut degrades = 0;
    for name in ["equake", "mcf", "parser", "twolf", "ammp"] {
        let b = by_name(name).unwrap().build(Scale::Test);
        let srp = b.run(Scheme::Srp, &cfg());
        let both = b.run(Scheme::SrpPointer, &cfg());
        // Never a big win over SRP alone…
        assert!(
            both.cycles * 100 >= srp.cycles * 85,
            "{name}: SRP+ptr wins big ({} vs {})",
            both.cycles,
            srp.cycles
        );
        if both.cycles > srp.cycles {
            degrades += 1;
        }
    }
    // …and it sometimes degrades.
    assert!(degrades >= 1, "no benchmark degraded ({degrades}/5)");
}

#[test]
fn determinism_same_build_same_results() {
    let w = by_name("twolf").unwrap();
    let b1 = w.build(Scale::Test);
    let b2 = w.build(Scale::Test);
    let r1 = b1.run(Scheme::GrpVar, &cfg());
    let r2 = b2.run(Scheme::GrpVar, &cfg());
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.traffic.total_blocks(), r2.traffic.total_blocks());
    assert_eq!(r1.l2.demand_misses, r2.l2.demand_misses);
}

#[test]
fn hinted_traces_differ_only_in_annotations() {
    // Same dynamic reference stream whether or not hints are derived.
    let b = by_name("swim").unwrap().build(Scale::Test);
    let (t_plain, _) = b.trace(None);
    let (t_hinted, _) = b.trace(Some(&grp::compiler::AnalysisConfig::default()));
    assert_eq!(t_plain.loads(), t_hinted.loads());
    assert_eq!(t_plain.stores(), t_hinted.stores());
    // Pseudo-instructions (SetLoopBound / IndirectPrefetch) may differ.
}
