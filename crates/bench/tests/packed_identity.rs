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

/// The schemes whose compiler configurations span every distinct trace:
/// the hint-free one, then each GRP configuration.
const TRACE_KEYS: [Scheme; 6] = [
    Scheme::NoPrefetch,
    Scheme::GrpFix,
    Scheme::GrpVar,
    Scheme::GrpPointer,
    Scheme::GrpAggressive,
    Scheme::GrpConservative,
];

/// `checksum64` of `PackedTrace::pack(..).to_bytes()` per kernel at
/// `Scale::Test`, one column per [`TRACE_KEYS`] entry, recorded from the
/// interpreter that still emitted hints while it ran. Any change to the
/// event stream a compiler configuration yields (a hint, a
/// pseudo-instruction, a compute-batch boundary) changes a sum.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 6]); 18] = [
    ("gzip", [0x947f7a120dbcf5be, 0x8c67866aff49afb6, 0x51e7f5ffd00032e9, 0x8c67866aff49afb6, 0x51e7f5ffd00032e9, 0x51e7f5ffd00032e9]),
    ("wupwise", [0x94d783aca4901971, 0xc48ee3e138e57ead, 0x9be8050a692caefc, 0xc48ee3e138e57ead, 0x9be8050a692caefc, 0x9be8050a692caefc]),
    ("swim", [0x055792ef8d50f02c, 0xeb321c6c1893bd87, 0xeb321c6c1893bd87, 0xeb321c6c1893bd87, 0xc5ba4d6c35dd066f, 0xeb321c6c1893bd87]),
    ("mgrid", [0xd6d56851cb8995aa, 0x9b5c79ddf67e5cc8, 0x9b5c79ddf67e5cc8, 0x9b5c79ddf67e5cc8, 0x9b5c79ddf67e5cc8, 0x9b5c79ddf67e5cc8]),
    ("applu", [0xf19c01ce476ab363, 0x7b57bb8db194d222, 0x7b57bb8db194d222, 0x7b57bb8db194d222, 0x7b57bb8db194d222, 0x7b57bb8db194d222]),
    ("vpr", [0x88bedbfaec19851a, 0xcb9a640deffb9e47, 0xc8c943b08cd5fe38, 0xfb818b1da5a26246, 0xc8c943b08cd5fe38, 0xc8c943b08cd5fe38]),
    ("mesa", [0x4017ee25e09b3214, 0xf8e4993b8bec99c3, 0x64e0bf965957183a, 0xf8e4993b8bec99c3, 0x64e0bf965957183a, 0x64e0bf965957183a]),
    ("art", [0x214083024f7163ca, 0xba989937eccfa7e9, 0xc36312b16808f6fb, 0xba989937eccfa7e9, 0xc36312b16808f6fb, 0xc36312b16808f6fb]),
    ("mcf", [0xe69b6821ecdc1d06, 0xee1afc678a72a12d, 0x4dc19fc725e8b5cd, 0xee1afc678a72a12d, 0x4dc19fc725e8b5cd, 0x4dc19fc725e8b5cd]),
    ("equake", [0xa7ac1e861bd35051, 0xaa63f2d88d6f87e7, 0xcade5ad48ba29517, 0xaa63f2d88d6f87e7, 0xcade5ad48ba29517, 0xcade5ad48ba29517]),
    ("crafty", [0x264abd46465d1274, 0x586081c57803ede7, 0xce4f3f2e23597617, 0x586081c57803ede7, 0xce4f3f2e23597617, 0xce4f3f2e23597617]),
    ("ammp", [0x845d67089f18c0d6, 0x035d449c64b7fa9b, 0x035d449c64b7fa9b, 0x035d449c64b7fa9b, 0x035d449c64b7fa9b, 0x035d449c64b7fa9b]),
    ("parser", [0x1fe3bb80202b7314, 0x1a7b95d5f9059866, 0xd8a6918a988ab28a, 0x1a7b95d5f9059866, 0xd8a6918a988ab28a, 0xd8a6918a988ab28a]),
    ("gap", [0x653313784140fae8, 0xe240ba735dd9abd4, 0x5c3ca7b7181b3dc7, 0xe240ba735dd9abd4, 0x5c3ca7b7181b3dc7, 0x8deb508d703b369a]),
    ("bzip2", [0x234631e4d0b1b1c9, 0x1938a1bb8978f161, 0x9b313e4d90497b73, 0xe521a5a8573da0f0, 0x9b313e4d90497b73, 0x9b313e4d90497b73]),
    ("twolf", [0xd5544dd7077c6285, 0x1163bd3d71bc9bb8, 0x1163bd3d71bc9bb8, 0x1163bd3d71bc9bb8, 0x1163bd3d71bc9bb8, 0x1163bd3d71bc9bb8]),
    ("apsi", [0x15ab6bd9b503cecd, 0xf381f78d5dbd69dc, 0xf381f78d5dbd69dc, 0xf381f78d5dbd69dc, 0xf381f78d5dbd69dc, 0xb451dc0452e8e617]),
    ("sphinx", [0x6797f181a8b8f4df, 0xa19a7f7bf6329d1f, 0x58296da67836765d, 0xa19a7f7bf6329d1f, 0x58296da67836765d, 0x58296da67836765d]),
];

#[test]
fn packed_traces_match_the_recorded_checksums() {
    assert_eq!(GOLDEN.len(), grp_workloads::all().len());
    for (w, (name, sums)) in grp_workloads::all().iter().zip(GOLDEN) {
        assert_eq!(w.name, name, "golden rows follow the registry order");
        let built = w.build(Scale::Test);
        let (base, _) = built.interpret();
        for (scheme, want) in TRACE_KEYS.into_iter().zip(sums) {
            let cc = scheme.compiler_config();
            let (trace, _) = built.trace(cc.as_ref());
            let pt = PackedTrace::pack(&trace).expect("trace packs");
            let got = grp_cpu::checksum64(&pt.to_bytes());
            assert_eq!(
                got, want,
                "{name}/{scheme:?}: packed trace checksum {got:#018x}, recorded {want:#018x}"
            );
            // A trace-cache miss packs straight from the view.
            if let Some(cc) = cc {
                let hints = built.hints(&cc);
                let view = built.view(&base, &hints);
                let streamed = PackedTrace::pack_events(view.events(), view.memory_refs());
                assert_eq!(streamed.as_ref(), Ok(&pt), "{name}/{scheme:?}");
            }
        }
    }
}
