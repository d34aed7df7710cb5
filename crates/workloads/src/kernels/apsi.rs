//! `301.apsi` — mesoscale pollutant transport.
//!
//! Vertical/horizontal advection sweeps over several 3D meteorology
//! arrays with mixed unit and plane strides; some sweeps walk the
//! vertical dimension (large stride) carrying outer-loop spatial reuse —
//! the reason §5.4 lists apsi among the conservative policy's victims.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds apsi at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let nx = scale.pick(16, 64, 112) as i64;
    let nz = scale.pick(8, 24, 32) as i64;
    let mut pb = ProgramBuilder::new("apsi");
    let dims = [nz as u64, nx as u64, nx as u64];
    let t_field = pb.array("t", ElemTy::F64, &dims);
    let q = pb.array("q", ElemTy::F64, &dims);
    let w = pb.array("w", ElemTy::F64, &dims);
    let kz = pb.var("k");
    let i = pb.var("i");
    let j = pb.var("j");
    let acc = pb.var("acc");

    let body = vec![
        // Horizontal advection: unit stride in j.
        for_(
            kz,
            c(0),
            c(nz),
            1,
            vec![for_(
                i,
                c(1),
                c(nx - 1),
                1,
                vec![for_(
                    j,
                    c(1),
                    c(nx - 1),
                    1,
                    vec![store(
                        arr(q, vec![var(kz), var(i), var(j)]),
                        add(
                            load(arr(t_field, vec![var(kz), var(i), sub(var(j), c(1))])),
                            load(arr(t_field, vec![var(kz), var(i), add(var(j), c(1))])),
                        ),
                    )],
                )],
            )],
        ),
        // Vertical column sweep: k varies innermost → plane-sized stride,
        // spatial reuse carried by the enclosing j loop (distance = one
        // column × nz, well under the L2 bound at these sizes).
        for_(
            i,
            c(0),
            c(nx),
            1,
            vec![for_(
                j,
                c(0),
                c(nx),
                1,
                vec![for_(
                    kz,
                    c(0),
                    c(nz),
                    1,
                    vec![assign(
                        acc,
                        add(var(acc), load(arr(w, vec![var(kz), var(i), var(j)]))),
                    )],
                )],
            )],
        ),
    ];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let cells = (nz * nx * nx) as u64;
    for a in [t_field, q, w] {
        let base = heap.alloc_array(cells, 8);
        util::fill_f64(&mut memory, base, cells.min(2048), |x| (x % 97) as f64);
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
    fn default_marks_vertical_sweep_but_conservative_does_not() {
        let b = build(Scale::Test);
        let def = census(&b.program, &b.hints(&AnalysisConfig::default()));
        let cons = census(&b.program, &b.hints(&AnalysisConfig::conservative()));
        assert!(
            def.spatial > cons.spatial,
            "outer-loop reuse marking is what Conservative loses: {} vs {}",
            def.spatial,
            cons.spatial
        );
    }

    #[test]
    fn prefetching_improves_apsi() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(
            grp.speedup_vs(&base) > 1.02,
            "speedup {}",
            grp.speedup_vs(&base)
        );
    }
}
