//! `168.wupwise` — lattice QCD (complex dense linear algebra).
//!
//! The hot kernels (`zgemm`/`zaxpy`) stream unit-stride over large
//! complex matrices. Table 3 shows a purely spatial hint profile (152
//! spatial, 0 pointer); Table 5 shows SRP/GRP covering ~96% of misses.
//! Complex numbers are modelled as interleaved (re, im) f64 pairs.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds wupwise at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let n = scale.pick(32, 192, 320) as i64; // matrix is n×n complex
    let reps = scale.pick(1, 2, 3) as i64;

    let mut pb = ProgramBuilder::new("wupwise");
    // m: n×n complex matrix (2 f64 per element); x, y: complex vectors.
    let m = pb.array("m", ElemTy::F64, &[n as u64, 2 * n as u64]);
    let x = pb.array("x", ElemTy::F64, &[2 * n as u64]);
    let y = pb.array("y", ElemTy::F64, &[2 * n as u64]);
    let t = pb.var("t");
    let i = pb.var("i");
    let j = pb.var("j");
    let re = pb.var("re");
    let im = pb.var("im");

    // y(i) = Σ_j m(i,j) * x(j), complex — the zgemv backbone of zgemm.
    let body = vec![for_(
        t,
        c(0),
        c(reps),
        1,
        vec![for_(
            i,
            c(0),
            c(n),
            1,
            vec![
                assign(re, f(0.0)),
                assign(im, f(0.0)),
                for_(
                    j,
                    c(0),
                    c(n),
                    1,
                    vec![
                        // (a+bi)(c+di): four loads, unit stride over the row.
                        assign(
                            re,
                            add(
                                var(re),
                                sub(
                                    mul(
                                        load(arr(m, vec![var(i), mul(c(2), var(j))])),
                                        load(arr(x, vec![mul(c(2), var(j))])),
                                    ),
                                    mul(
                                        load(arr(m, vec![var(i), add(mul(c(2), var(j)), c(1))])),
                                        load(arr(x, vec![add(mul(c(2), var(j)), c(1))])),
                                    ),
                                ),
                            ),
                        ),
                        assign(
                            im,
                            add(
                                var(im),
                                add(
                                    mul(
                                        load(arr(m, vec![var(i), mul(c(2), var(j))])),
                                        load(arr(x, vec![add(mul(c(2), var(j)), c(1))])),
                                    ),
                                    mul(
                                        load(arr(m, vec![var(i), add(mul(c(2), var(j)), c(1))])),
                                        load(arr(x, vec![mul(c(2), var(j))])),
                                    ),
                                ),
                            ),
                        ),
                    ],
                ),
                store(arr(y, vec![mul(c(2), var(i))]), var(re)),
                store(arr(y, vec![add(mul(c(2), var(i)), c(1))]), var(im)),
            ],
        )],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let m_base = heap.alloc_array((n * 2 * n) as u64, 8);
    let x_base = heap.alloc_array(2 * n as u64, 8);
    let y_base = heap.alloc_array(2 * n as u64, 8);
    util::fill_f64(&mut memory, x_base, 2 * n as u64, |k| 1.0 / (k + 1) as f64);
    bindings.bind_array(m, m_base);
    bindings.bind_array(x, x_base);
    bindings.bind_array(y, y_base);

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
    fn hint_profile_is_purely_spatial() {
        let b = build(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert!(
            cs.spatial >= 8,
            "matrix/vector refs all spatial: {}",
            cs.spatial
        );
        assert_eq!(cs.pointer, 0, "Table 3: wupwise has no pointer hints");
        assert_eq!(cs.recursive, 0);
        assert_eq!(cs.indirect, 0);
    }

    #[test]
    fn region_prefetching_covers_the_matrix_stream() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let grp = b.run(Scheme::GrpFix, &cfg);
        assert!(
            grp.speedup_vs(&base) > 1.1,
            "speedup {}",
            grp.speedup_vs(&base)
        );
        assert!(
            grp.coverage_vs(&base) > 0.5,
            "coverage {}",
            grp.coverage_vs(&base)
        );
    }
}
