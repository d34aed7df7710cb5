//! Workload characterization tests: each kernel must exhibit the memory
//! behaviour its SPEC counterpart is modelled on (Table 6 of the paper,
//! §5.2 prose), measured on the actual trace.

use grp_compiler::AnalysisConfig;
use grp_cpu::TraceStats;
use grp_workloads::{by_name, Scale};

fn stats(name: &str) -> TraceStats {
    let built = by_name(name).expect("registered").build(Scale::Test);
    let (trace, _) = built.trace(Some(&AnalysisConfig::default()));
    TraceStats::compute(&trace)
}

#[test]
fn pointer_chasers_have_long_dependence_chains() {
    // ammp's single list traversal is one long chain; parser/twolf chase
    // shorter chains; mcf's tree walks are mid-length.
    let ammp = stats("ammp");
    assert!(
        ammp.max_dep_chain > 100,
        "ammp chases one long list: chain {}",
        ammp.max_dep_chain
    );
    assert!(ammp.dependent_ratio() > 0.9, "{}", ammp.dependent_ratio());

    let parser = stats("parser");
    assert!(parser.dependent_ratio() > 0.5);
    assert!(parser.max_dep_chain >= 4);

    let twolf = stats("twolf");
    assert!(twolf.dependent_ratio() > 0.5);
    assert!(
        twolf.max_dep_chain <= 8,
        "twolf's chains are short (1–3 nodes): {}",
        twolf.max_dep_chain
    );
}

#[test]
fn streaming_kernels_have_no_dependent_loads() {
    for name in [
        "wupwise", "swim", "mgrid", "applu", "apsi", "crafty", "sphinx",
    ] {
        let s = stats(name);
        assert_eq!(
            s.dependent_loads, 0,
            "{name} is affine streaming; found {} dependent loads",
            s.dependent_loads
        );
    }
}

#[test]
fn indirect_kernels_carry_indirect_prefetch_instructions() {
    for name in ["vpr", "bzip2"] {
        let s = stats(name);
        assert!(
            s.indirect_prefetches > 0,
            "{name} must emit indirect prefetch instructions"
        );
        // The data loads depend on the index loads.
        assert!(s.dependent_ratio() > 0.2, "{name}: {}", s.dependent_ratio());
    }
}

#[test]
fn varsize_kernels_emit_loop_bounds() {
    for name in ["mesa", "sphinx"] {
        let s = stats(name);
        assert!(
            s.loop_bounds > 0,
            "{name} is a Table 4 variable-region benchmark"
        );
    }
}

#[test]
fn footprints_exceed_test_scale_l1() {
    // Every perf benchmark must carry a nontrivial footprint even at
    // test scale (parser's tiny trie is the smallest at ~12 KB), and at
    // small scale all spill the L1.
    for w in grp_workloads::perf_set() {
        let built = w.build(Scale::Test);
        let (trace, _) = built.trace(None);
        let s = TraceStats::compute(&trace);
        assert!(
            s.footprint_bytes() > 10 * 1024,
            "{}: footprint only {} bytes",
            w.name,
            s.footprint_bytes()
        );
    }
}

#[test]
fn hint_density_tracks_benchmark_class() {
    // Fortran-style kernels: hints on (almost) every load; gzip/gap keep
    // a hintable/unhintable split.
    for name in ["wupwise", "mgrid", "applu"] {
        let s = stats(name);
        assert!(
            s.hinted_loads * 10 >= s.loads * 9,
            "{name}: hinted {}/{}",
            s.hinted_loads,
            s.loads
        );
    }
    for name in ["gzip", "gap"] {
        let s = stats(name);
        assert!(
            s.hinted_loads < s.loads,
            "{name} must keep unhintable references"
        );
    }
}

#[test]
fn crafty_fits_the_l2_while_others_do_not() {
    let crafty = stats("crafty");
    assert!(
        crafty.footprint_bytes() < 1024 * 1024,
        "crafty's working set fits the 1 MB L2: {}",
        crafty.footprint_bytes()
    );
    let art = {
        let built = by_name("art").unwrap().build(Scale::Small);
        let (trace, _) = built.trace(None);
        TraceStats::compute(&trace)
    };
    assert!(
        art.footprint_bytes() > 1024 * 1024,
        "art spills the L2 at small scale: {}",
        art.footprint_bytes()
    );
}
