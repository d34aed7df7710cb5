//! `172.mgrid` — 3D multigrid solver.
//!
//! The hot loops apply a 27-point stencil over a 3D grid and restrict/
//! prolongate between resolutions with stride-2 accesses. Everything is
//! affine; Table 3 shows the highest hint ratio of the suite (73.9%) and
//! Table 5 shows ~80–87% coverage for SRP/GRP with high accuracy.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds mgrid at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let n = scale.pick(16, 48, 80) as i64; // n³ f64 grid
    let mut pb = ProgramBuilder::new("mgrid");
    let u = pb.array("u", ElemTy::F64, &[n as u64, n as u64, n as u64]);
    let r = pb.array("r", ElemTy::F64, &[n as u64, n as u64, n as u64]);
    let cz = pb.array(
        "cz",
        ElemTy::F64,
        &[(n / 2) as u64, (n / 2) as u64, (n / 2) as u64],
    );
    let i = pb.var("i");
    let j = pb.var("j");
    let k = pb.var("k");

    let body = vec![
        // resid: r(i,j,k) = u(i,j,k±1) combination — 7-point core.
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
                vec![for_(
                    k,
                    c(1),
                    c(n - 1),
                    1,
                    vec![store(
                        arr(r, vec![var(i), var(j), var(k)]),
                        add(
                            add(
                                load(arr(u, vec![var(i), var(j), sub(var(k), c(1))])),
                                load(arr(u, vec![var(i), var(j), add(var(k), c(1))])),
                            ),
                            add(
                                load(arr(u, vec![var(i), sub(var(j), c(1)), var(k)])),
                                load(arr(u, vec![var(i), add(var(j), c(1)), var(k)])),
                            ),
                        ),
                    )],
                )],
            )],
        ),
        // rprj3 (restriction): coarse(i,j,k) = r(2i, 2j, 2k) — stride 2.
        for_(
            i,
            c(0),
            c(n / 2),
            1,
            vec![for_(
                j,
                c(0),
                c(n / 2),
                1,
                vec![for_(
                    k,
                    c(0),
                    c(n / 2),
                    1,
                    vec![store(
                        arr(cz, vec![var(i), var(j), var(k)]),
                        load(arr(
                            r,
                            vec![mul(c(2), var(i)), mul(c(2), var(j)), mul(c(2), var(k))],
                        )),
                    )],
                )],
            )],
        ),
    ];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let cells = (n * n * n) as u64;
    let u_base = heap.alloc_array(cells, 8);
    let r_base = heap.alloc_array(cells, 8);
    let cz_base = heap.alloc_array(cells / 8, 8);
    util::fill_f64(&mut memory, u_base, cells.min(4096), |x| x as f64 * 0.5);
    bindings.bind_array(u, u_base);
    bindings.bind_array(r, r_base);
    bindings.bind_array(cz, cz_base);

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
    use grp_cpu::RefId;

    #[test]
    fn stencil_and_stride2_refs_are_spatial() {
        let b = build(Scale::Test);
        let h = b.hints(&AnalysisConfig::default());
        let cs = census(&b.program, &h);
        // 4 stencil loads + r store + restriction load/store, all spatial
        // (stride-2 over f64 = 16 B < one block).
        assert!(cs.spatial >= 6, "spatial={}", cs.spatial);
        assert_eq!(cs.pointer + cs.recursive, 0);
        // The restriction load r(2i,2j,2k) is the last ref: spatial too.
        let last = RefId(b.program.num_refs - 2);
        assert!(h.hint(last).spatial() || h.hint(RefId(b.program.num_refs - 1)).spatial());
    }

    #[test]
    fn prefetching_covers_most_misses() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        assert!(
            srp.coverage_vs(&base) > 0.5,
            "coverage {}",
            srp.coverage_vs(&base)
        );
        assert!(srp.speedup_vs(&base) > 1.05);
    }
}
