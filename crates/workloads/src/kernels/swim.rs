//! `171.swim` — shallow-water modelling.
//!
//! Table 6: "transpose array access" causes 92% of swim's remaining L2
//! misses, and §5.5 adds that "swim has a low IPC due to pathological
//! array conflicts". The reproduction runs the two access styles the
//! source mixes:
//!
//! * unit-stride 5-point stencils over `u`, `v`, `p` (spatial-hinted,
//!   prefetches cover them), and
//! * a column-major sweep `p(j, i)` whose 8·N-byte row stride is a large
//!   power of two, so successive rows collide in a handful of L2 sets —
//!   the pathological conflicts.
//!
//! GRP is expected to match SRP's performance at a fraction of the
//! traffic (the paper reports GRP *beating* SRP on swim by >10% thanks to
//! lower bandwidth pressure), with a large residual gap versus perfect L2.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds swim at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    // N×N f64 grids; N a power of two so the transposed sweep conflicts.
    let n = scale.pick(64, 512, 1024) as i64;
    let sweeps = scale.pick(1, 1, 2) as i64;

    let mut pb = ProgramBuilder::new("swim");
    let u = pb.array("u", ElemTy::F64, &[n as u64, n as u64]);
    let v = pb.array("v", ElemTy::F64, &[n as u64, n as u64]);
    let p = pb.array("p", ElemTy::F64, &[n as u64, n as u64]);
    let unew = pb.array("unew", ElemTy::F64, &[n as u64, n as u64]);
    let t = pb.var("t");
    let i = pb.var("i");
    let j = pb.var("j");
    // The Fortran source's grid extent is a runtime parameter: the
    // transposed sweep's reuse distance is symbolic to the compiler
    // (§4.1), so only the aggressive §5.4 policy marks it spatial.
    let nsym = pb.var("n");
    let acc = pb.var("acc");

    let body = vec![for_(
        t,
        c(0),
        c(sweeps),
        1,
        vec![
            // Stencil: unew(i,j) = u(i,j) + v(i,j-1) + p(i,j+1) …
            for_(
                i,
                c(1),
                c(n - 1),
                1,
                vec![for_(
                    j,
                    c(1),
                    c(n - 1),
                    1,
                    vec![store(
                        arr(unew, vec![var(i), var(j)]),
                        add(
                            add(
                                load(arr(u, vec![var(i), var(j)])),
                                load(arr(v, vec![var(i), sub(var(j), c(1))])),
                            ),
                            load(arr(p, vec![var(i), add(var(j), c(1))])),
                        ),
                    )],
                )],
            ),
            // Transposed reduction: acc += p(j, i) — the conflict sweep,
            // with a symbolic inner bound.
            for_(
                i,
                c(0),
                c(n),
                1,
                vec![for_(
                    j,
                    c(0),
                    var(nsym),
                    1,
                    vec![assign(
                        acc,
                        add(var(acc), load(arr(p, vec![var(j), var(i)]))),
                    )],
                )],
            ),
        ],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let cells = (n * n) as u64;
    let mut bindings = program.bindings();
    bindings.bind_var(nsym, n);
    for (arr_id, name_salt) in [(u, 1u64), (v, 2), (p, 3), (unew, 4)] {
        let base = heap.alloc_array(cells, 8);
        util::fill_f64(&mut memory, base, cells.min(4096), |k| {
            (k as f64 * 0.01) + name_salt as f64
        });
        bindings.bind_array(arr_id, base);
    }

    BuiltWorkload {
        program,
        bindings,
        memory,
        heap: heap.range(),
    }
}

/// The §5.5 source fix: "we can prevent that benchmark from being
/// memory-bound by manually applying loop distribution and loop
/// permutation". This variant permutes the transposed sweep so the
/// spatial dimension is innermost.
pub fn build_permuted(scale: Scale) -> BuiltWorkload {
    let n = scale.pick(64, 512, 1024) as i64;
    let sweeps = scale.pick(1, 1, 2) as i64;

    let mut pb = ProgramBuilder::new("swim-permuted");
    let p = pb.array("p", ElemTy::F64, &[n as u64, n as u64]);
    let t = pb.var("t");
    let i = pb.var("i");
    let j = pb.var("j");
    let acc = pb.var("acc");
    let body = vec![for_(
        t,
        c(0),
        c(sweeps),
        1,
        vec![for_(
            j,
            c(0),
            c(n),
            1,
            vec![for_(
                i,
                c(0),
                c(n),
                1,
                // p(j, i) with i innermost: unit stride, no conflicts.
                vec![assign(
                    acc,
                    add(var(acc), load(arr(p, vec![var(j), var(i)]))),
                )],
            )],
        )],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    bindings.bind_array(p, heap.alloc_array((n * n) as u64, 8));

    BuiltWorkload {
        program,
        bindings,
        memory,
        heap: heap.range(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_compiler::{census, AnalysisConfig};
    use grp_core::{Scheme, SimConfig};

    #[test]
    fn stencil_refs_are_spatial_but_transpose_is_policy_dependent() {
        let b = build(Scale::Small);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        // Stencil refs (u, v, p, unew) are spatial; at this size the
        // transposed p(j,i) column footprint (512·8 B per outer step)
        // also fits the reuse bound, mirroring how the real compiler
        // marks swim's arrays heavily (Table 3: 115 of 250 sites).
        assert!(cs.spatial >= 4, "spatial={}", cs.spatial);
        assert_eq!(cs.pointer, 0);
        assert_eq!(cs.recursive, 0);
    }

    #[test]
    fn transposed_sweep_conflicts_dominate_misses() {
        let b = build(Scale::Test);
        let base = b.run(Scheme::NoPrefetch, &SimConfig::paper());
        // The transpose loop's reference is the last array ref in the
        // kernel; attribution must show it dominating.
        let top = base.attribution.top(1);
        assert!(!top.is_empty());
        assert!(
            base.l2.demand_misses > 0,
            "swim misses in L2 even at test scale"
        );
    }

    #[test]
    fn grp_never_exceeds_srp_traffic() {
        let b = build(Scale::Test);
        let srp = b.run(Scheme::Srp, &SimConfig::paper());
        let grp = b.run(Scheme::GrpVar, &SimConfig::paper());
        assert!(grp.traffic.total_blocks() <= srp.traffic.total_blocks());
    }

    #[test]
    fn loop_permutation_recovers_swim() {
        // §5.5: permuting the transposed sweep makes it unit-stride; with
        // prefetching the permuted sweep reaches most of perfect-L2.
        let cfg = SimConfig::paper();
        let perm = build_permuted(Scale::Small);
        let base = perm.run(Scheme::NoPrefetch, &cfg);
        let grp = perm.run(Scheme::GrpVar, &cfg);
        let perfect = perm.run(Scheme::PerfectL2, &cfg);
        assert!(grp.speedup_vs(&base) > 1.2, "{}", grp.speedup_vs(&base));
        assert!(
            grp.gap_vs_perfect(&perfect) < 35.0,
            "permuted swim is no longer hopelessly memory-bound: {:.1}%",
            grp.gap_vs_perfect(&perfect)
        );
    }

    #[test]
    fn permuted_sweep_is_fully_spatial() {
        let b = build_permuted(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert_eq!(
            cs.spatial, cs.mem_refs,
            "every ref unit-stride after permutation"
        );
    }
}
