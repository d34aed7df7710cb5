//! `177.mesa` — software OpenGL rasterizer.
//!
//! Vertex-pipeline stages process one small attribute row per vertex:
//! many invocations of a short inner loop over a ~128-byte row reached
//! through a pointer table. This is the paper's flagship variable-size
//! case: Table 4 shows GRP/Var issuing 90.3% two-block regions and
//! cutting mesa's traffic from 6.55× to 1.11× of baseline while matching
//! GRP/Fix's performance.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds mesa at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let verts = scale.pick(512, 16_000, 48_000) as i64;
    let attrs = 12i64; // 12 f64 attributes ≈ 96 B ≈ 2 blocks per vertex row
    let mut pb = ProgramBuilder::new("mesa");
    let vtab = pb.heap_array("vtab", ElemTy::ptr(), &[verts as u64]);
    let out = pb.array("out", ElemTy::F64, &[verts as u64]);
    let v = pb.var("v");
    let k = pb.var("k");
    let row = pb.var("row");
    let acc = pb.var("acc");

    let body = vec![for_(
        v,
        c(0),
        c(verts),
        1,
        vec![
            assign(row, load(arr(vtab, vec![var(v)]))),
            assign(acc, f(0.0)),
            // Short per-vertex transform loop: the var-size region case.
            for_(
                k,
                c(0),
                c(attrs),
                1,
                vec![assign(
                    acc,
                    add(var(acc), load(ptr_index(var(row), ElemTy::F64, var(k)))),
                )],
            ),
            store(arr(out, vec![var(v)]), var(acc)),
            work(24),
        ],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let vtab_base = heap.alloc_array(verts as u64, 8);
    bindings.bind_array(vtab, vtab_base);
    let out_base = heap.alloc_array(verts as u64, 8);
    bindings.bind_array(out, out_base);
    // Vertex rows live in a display-list arena in *creation* order, which
    // differs from traversal order: a 4 KB region around one row drags in
    // ~30 blocks of unrelated rows (the Table 4 waste GRP/Var avoids).
    let mut r = util::rng(77);
    let slab = heap.alloc(verts as u64 * 256, 64);
    let slots = util::permutation(&mut r, verts as u64);
    for i in 0..verts {
        let row = slab.offset(slots[i as usize] as i64 * 256);
        memory.write_u64(vtab_base.offset(i * 8), row.0);
        for k in 0..attrs {
            memory.write_f64(row.offset(k * 8), r.gen_range(-1.0..1.0));
        }
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
    fn row_loop_gets_a_size_coefficient() {
        let b = build(Scale::Test);
        let h = b.hints(&AnalysisConfig::default());
        let cs = census(&b.program, &h);
        assert!(cs.sized >= 1, "the per-vertex loop is variable-sized");
        assert!(cs.spatial >= 2);
        assert!(cs.pointer >= 1, "vtab is a heap pointer array");
    }

    #[test]
    fn var_regions_slash_mesa_traffic() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let fix = b.run(Scheme::GrpFix, &cfg);
        let var = b.run(Scheme::GrpVar, &cfg);
        assert!(
            (var.traffic.total_blocks() as f64) < fix.traffic.total_blocks() as f64 * 0.7,
            "GRP/Var traffic {} vs GRP/Fix {}",
            var.traffic.total_blocks(),
            fix.traffic.total_blocks()
        );
        // Performance stays in the same band (Table 4: 1.11 vs 6.55
        // traffic at roughly equal IPC).
        assert!(var.cycles <= fix.cycles * 23 / 20);
    }

    #[test]
    fn var_regions_are_mostly_small() {
        let b = build(Scale::Small);
        let var = b.run(Scheme::GrpVar, &SimConfig::paper());
        let hist = var.engine.region_size_hist;
        let small: u64 = hist[0..=2].iter().sum(); // ≤4-block regions
        let big = hist[6];
        assert!(small > big, "small regions dominate (Table 4): {hist:?}");
    }
}
