//! `173.applu` — SSOR solver for CFD.
//!
//! Lower/upper triangular sweeps over five 3D solution arrays, all
//! affine and unit-stride in the innermost dimension. Table 5 reports
//! near-total coverage (96.9%) with ~89% accuracy for SRP and GRP alike;
//! Table 3 marks 57.5% of its static references.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ArrayId, ElemTy, ProgramBuilder};

/// Builds applu at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let n = scale.pick(12, 36, 56) as i64; // n³ cells × 5 fields
    let mut pb = ProgramBuilder::new("applu");
    let dims = [n as u64, n as u64, 5 * n as u64];
    let rsd = pb.array("rsd", ElemTy::F64, &dims);
    let frct = pb.array("frct", ElemTy::F64, &dims);
    let flux = pb.array("flux", ElemTy::F64, &dims);
    let i = pb.var("i");
    let j = pb.var("j");
    let k = pb.var("k");

    let fld = |a: ArrayId, di: i64, dj: i64, dk: i64| {
        arr(
            a,
            vec![add(var(i), c(di)), add(var(j), c(dj)), add(var(k), c(dk))],
        )
    };

    let body = vec![
        // jacld/blts-style lower sweep.
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
                    c(5),
                    c(5 * (n - 1)),
                    1,
                    vec![store(
                        fld(rsd, 0, 0, 0),
                        add(
                            mul(load(fld(rsd, -1, 0, 0)), load(fld(flux, 0, 0, 0))),
                            add(
                                mul(load(fld(rsd, 0, -1, 0)), load(fld(flux, 0, 0, -5))),
                                load(fld(frct, 0, 0, 0)),
                            ),
                        ),
                    )],
                )],
            )],
        ),
        // rhs-style flux update.
        for_(
            i,
            c(0),
            c(n),
            1,
            vec![for_(
                j,
                c(0),
                c(n),
                1,
                vec![for_(
                    k,
                    c(0),
                    c(5 * n - 5),
                    1,
                    vec![store(
                        fld(flux, 0, 0, 0),
                        sub(load(fld(frct, 0, 0, 5)), load(fld(frct, 0, 0, 0))),
                    )],
                )],
            )],
        ),
    ];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let cells = (n * n * 5 * n) as u64;
    for a in [rsd, frct, flux] {
        let base = heap.alloc_array(cells, 8);
        util::fill_f64(&mut memory, base, cells.min(2048), |x| x as f64 * 0.25);
        bindings.bind_array(a, base);
    }

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
    fn majority_of_refs_are_spatial() {
        let b = build(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert!(cs.spatial as f64 / cs.mem_refs as f64 > 0.5);
        assert_eq!(cs.pointer + cs.recursive + cs.indirect, 0);
    }

    #[test]
    fn conservative_policy_hurts_applu() {
        // §5.4 names applu among the benchmarks the conservative policy
        // degrades: its neighbour accesses carry outer-loop reuse.
        let b = build(Scale::Test);
        let def = census(&b.program, &b.hints(&AnalysisConfig::default()));
        let cons = census(&b.program, &b.hints(&AnalysisConfig::conservative()));
        assert!(cons.spatial <= def.spatial);
    }

    #[test]
    fn srp_and_grp_both_cover_heavily() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(srp.coverage_vs(&base) > 0.5);
        assert!(grp.coverage_vs(&base) > 0.5);
        // GRP spends no more traffic than SRP.
        assert!(grp.traffic.total_blocks() <= srp.traffic.total_blocks() * 11 / 10);
    }
}
