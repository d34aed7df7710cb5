//! Trace-form identity gate: replaying a kernel's packed trace and its
//! materialized trace through the one replay entry point
//! ([`grp_core::Replay`]) must give byte-identical results for
//! **every** registered kernel under **every** scheme — and must stay
//! identical with observers, invariant checks, and fault plans armed.
//! Any divergence in any counter of any cell fails with the cell named.

use grp_core::{FaultPlan, InvariantObserver, LifecycleTracer, Replay, Scheme, SimConfig};
use grp_cpu::{PackedTrace, Trace};
use grp_workloads::{BuiltWorkload, Scale};

/// The workload's hinted trace under `scheme`, in both forms.
fn both_forms(built: &BuiltWorkload, scheme: Scheme) -> (Trace, PackedTrace, grp_mem::Memory) {
    let (trace, mem) = built.trace(scheme.compiler_config().as_ref());
    let pt = PackedTrace::pack(&trace).expect("trace packs");
    (trace, pt, mem)
}

#[test]
fn packed_replay_matches_materialized_all_kernels_all_schemes() {
    let cfg = SimConfig::paper();
    let kernels = grp_workloads::all();
    assert_eq!(kernels.len(), 18, "grid covers the full registry");
    assert_eq!(Scheme::ALL.len(), 12, "grid covers every scheme");
    for w in kernels {
        let built = w.build(Scale::Test);
        for scheme in Scheme::ALL {
            let (trace, pt, mem) = both_forms(&built, scheme);
            let replay = || Replay::new(&mem, built.heap, scheme, &cfg);
            let materialized = replay().run(&trace).0;
            let packed = replay().run(&pt).0;
            assert_eq!(
                materialized, packed,
                "{}/{scheme:?}: packed replay diverged",
                w.name
            );
        }
    }
}

/// The packed source runs under the same observers and fault plans as
/// the materialized one, call for call: identical lifecycle JSONL, a
/// clean invariant run, and identical results under every builtin plan.
#[test]
fn packed_source_is_identical_under_observers_and_faults() {
    let cfg = SimConfig::paper();
    let plans = FaultPlan::builtin();
    for name in ["gzip", "mcf", "swim"] {
        let built = grp_workloads::by_name(name)
            .expect("registered")
            .build(Scale::Test);
        for scheme in [Scheme::Srp, Scheme::GrpVar, Scheme::GrpPointer] {
            let (trace, pt, mem) = both_forms(&built, scheme);
            let replay = || Replay::new(&mem, built.heap, scheme, &cfg);

            let (ra, ta) = replay().observer(LifecycleTracer::new()).run(&trace);
            let (rb, tb) = replay().observer(LifecycleTracer::new()).run(&pt);
            assert_eq!(ra, rb, "{name}/{scheme:?}: traced results diverged");
            assert_eq!(
                ta.jsonl(),
                tb.jsonl(),
                "{name}/{scheme:?}: lifecycle JSONL diverged"
            );

            let (_, inv) = replay().observer(InvariantObserver::new(&cfg)).run(&pt);
            assert!(inv.ok(), "{name}/{scheme:?}: {:?}", inv.violations());

            for (plan_name, plan) in &plans {
                let (fa, ia) = replay()
                    .observer(InvariantObserver::new(&cfg))
                    .faults(plan)
                    .run(&trace);
                let (fb, ib) = replay()
                    .observer(InvariantObserver::new(&cfg))
                    .faults(plan)
                    .run(&pt);
                assert_eq!(
                    fa, fb,
                    "{name}/{scheme:?}/{plan_name}: faulted results diverged"
                );
                assert!(
                    ia.ok() && ib.ok(),
                    "{name}/{scheme:?}/{plan_name}: {:?}",
                    ib.violations()
                );
            }
        }
    }
}
