//! Determinism regression tests.
//!
//! The paper's entire evaluation method (Tables 1–6, Figures 1/9–12)
//! compares schemes on *the same access trace*: SRP vs stride vs GRP
//! numbers are meaningless if two builds of a workload disagree. These
//! tests pin the workspace convention (seed `0x5eed_0000 ^ salt` in
//! `kernels/util.rs`, all randomness from `grp_testkit::Rng`): building
//! and simulating a kernel twice must produce bit-identical traces and
//! simulator statistics.

use grp_core::{run_trace, FaultPlan, LifecycleTracer, Replay, RunResult, Scheme, SimConfig};
use grp_workloads::{all, Scale};

/// The stats a regression would corrupt first, as one comparable
/// bundle: trace length, miss counts, and prefetch counts.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    instructions: u64,
    cycles: u64,
    l2_demand_misses: u64,
    l2_useful_prefetches: u64,
    l2_useless_prefetches: u64,
    prefetches_issued: u64,
    traffic_blocks: u64,
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        Fingerprint {
            instructions: r.instructions,
            cycles: r.cycles,
            l2_demand_misses: r.l2.demand_misses,
            l2_useful_prefetches: r.l2.useful_prefetches,
            l2_useless_prefetches: r.l2.useless_prefetches,
            prefetches_issued: r.prefetches_issued,
            traffic_blocks: r.traffic.total_blocks(),
        }
    }
}

/// Two independent builds + runs of every registered kernel must agree
/// on every simulator statistic, under both the no-prefetch baseline
/// and the full GRP scheme.
#[test]
fn every_kernel_is_bit_identical_across_builds() {
    let cfg = SimConfig::paper();
    for w in all() {
        for scheme in [Scheme::NoPrefetch, Scheme::GrpVar] {
            let a = Fingerprint::of(&w.build(Scale::Test).run(scheme, &cfg));
            let b = Fingerprint::of(&w.build(Scale::Test).run(scheme, &cfg));
            assert_eq!(
                a, b,
                "workload '{}' diverged across identically-seeded builds ({scheme:?})",
                w.name
            );
        }
    }
}

/// The interpreted trace itself (not just aggregate stats) must be
/// reproducible: same length and same per-event sequence.
#[test]
fn traces_are_reproducible_event_for_event() {
    for w in all() {
        let (ta, _) = w.build(Scale::Test).trace(None);
        let (tb, _) = w.build(Scale::Test).trace(None);
        assert_eq!(
            ta.events().len(),
            tb.events().len(),
            "workload '{}' trace length diverged",
            w.name
        );
        assert_eq!(
            format!("{:?}", ta.events()),
            format!("{:?}", tb.events()),
            "workload '{}' trace contents diverged",
            w.name
        );
    }
}

/// The exported lifecycle trace must be byte-identical across two
/// identically-seeded observed runs: the JSONL is the artifact other
/// tools diff, so even HashMap-iteration-order nondeterminism in the
/// tracer internals would corrupt it.
#[test]
fn lifecycle_jsonl_is_byte_identical_across_builds() {
    let cfg = SimConfig::paper();
    for w in [
        grp_workloads::by_name("gzip").expect("gzip exists"),
        grp_workloads::by_name("mcf").expect("mcf exists"),
        grp_workloads::by_name("ammp").expect("ammp exists"),
    ] {
        let (_, ta) =
            w.build(Scale::Test)
                .run_observed(Scheme::GrpVar, &cfg, LifecycleTracer::new());
        let (_, tb) =
            w.build(Scale::Test)
                .run_observed(Scheme::GrpVar, &cfg, LifecycleTracer::new());
        assert!(
            !ta.jsonl().is_empty(),
            "workload '{}' traced no prefetch lifecycle at all",
            w.name
        );
        assert_eq!(
            ta.jsonl(),
            tb.jsonl(),
            "workload '{}' lifecycle JSONL diverged across identically-seeded builds",
            w.name
        );
    }
}

/// Threading an observer through the replay must not perturb the
/// simulation itself: observed and unobserved runs agree on every
/// simulator statistic.
#[test]
fn observed_runs_match_unobserved_runs() {
    let cfg = SimConfig::paper();
    let w = grp_workloads::by_name("equake").expect("equake exists");
    let plain = Fingerprint::of(&w.build(Scale::Test).run(Scheme::GrpVar, &cfg));
    let (observed, _) =
        w.build(Scale::Test)
            .run_observed(Scheme::GrpVar, &cfg, LifecycleTracer::new());
    assert_eq!(plain, Fingerprint::of(&observed));
}

/// A zero-fault plan must be inert to the last bit: same `RunResult`
/// (full `Eq`, every counter), same lifecycle JSONL bytes, as the
/// plain unfaulted run — the fault seams cost nothing when idle.
#[test]
fn zero_fault_plan_is_bit_identical_to_unfaulted_run() {
    let cfg = SimConfig::paper();
    let none = FaultPlan::none();
    for name in ["gzip", "mcf", "swim"] {
        let w = grp_workloads::by_name(name).expect("registered");
        let built = w.build(Scale::Test);
        let (trace, mem) = built.trace(Scheme::GrpVar.compiler_config().as_ref());
        let plain = run_trace(&trace, &mem, built.heap, Scheme::GrpVar, &cfg);
        let replay = || Replay::new(&mem, built.heap, Scheme::GrpVar, &cfg);
        let idle = replay().faults(&none).run(&trace).0;
        assert_eq!(
            plain, idle,
            "workload '{name}': empty fault plan perturbed the run"
        );
        let (_, ta) = replay().observer(LifecycleTracer::new()).run(&trace);
        let (_, tb) = replay()
            .observer(LifecycleTracer::new())
            .faults(&none)
            .run(&trace);
        assert_eq!(
            ta.jsonl(),
            tb.jsonl(),
            "workload '{name}': empty fault plan perturbed the lifecycle JSONL"
        );
    }
}

/// Faulted runs are as reproducible as unfaulted ones: the same seeded
/// fault plan over two independent builds must agree on every counter
/// and every lifecycle JSONL byte — a failing faulted seed is a
/// complete reproducer.
#[test]
fn same_seed_faulted_runs_are_bit_identical_across_builds() {
    let cfg = SimConfig::paper();
    let plans: Vec<FaultPlan> = vec![
        FaultPlan::generate(0x5eed_fa17),
        FaultPlan::builtin()
            .into_iter()
            .find(|(n, _)| *n == "storm")
            .expect("storm builtin")
            .1,
    ];
    let w = grp_workloads::by_name("swim").expect("registered");
    for plan in &plans {
        let run = || {
            let built = w.build(Scale::Test);
            let (trace, mem) = built.trace(Scheme::GrpVar.compiler_config().as_ref());
            Replay::new(&mem, built.heap, Scheme::GrpVar, &cfg)
                .observer(LifecycleTracer::new())
                .faults(plan)
                .run(&trace)
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(
            ra, rb,
            "faulted run diverged across identically-seeded builds"
        );
        assert_eq!(
            ta.jsonl(),
            tb.jsonl(),
            "faulted lifecycle JSONL diverged across identically-seeded builds"
        );
    }
}

/// Different salts must give different streams: if two kernels ever
/// see the same stream, their "independent" data layouts correlate and
/// the cross-benchmark comparison quietly degrades.
#[test]
fn distinct_salts_give_distinct_streams() {
    use grp_workloads::kernels::util::rng;
    let a: Vec<u64> = {
        let mut r = rng(1);
        (0..4).map(|_| r.next_u64()).collect()
    };
    let b: Vec<u64> = {
        let mut r = rng(2);
        (0..4).map(|_| r.next_u64()).collect()
    };
    assert_ne!(a, b);
}
