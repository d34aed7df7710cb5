//! `300.twolf` — standard-cell place and route.
//!
//! §5.5: "mcf and twolf contain heavy traversals of short linked lists
//! and tree data structures, making them poor matches for the GRP
//! pointer prefetching or spatially-based schemes." Net terminals hang
//! off hash buckets in 1–3 node chains scattered across the heap; every
//! hop is a dependent miss with no spatial structure. Table 5: SRP
//! coverage 15.9% at 4.2% accuracy and ~16× traffic; GRP coverage 3.2%.

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::types::field;
use grp_ir::{ElemTy, FieldId, ProgramBuilder};

/// Builds twolf at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let buckets = scale.pick(512, 30_000, 90_000) as i64;
    let lookups = scale.pick(512, 30_000, 90_000) as i64;

    let mut pb = ProgramBuilder::new("twolf");
    let sid = pb.peek_struct_id();
    let term = pb.add_struct(
        "termbox",
        vec![field("next", ElemTy::ptr_to(sid)), field("xy", ElemTy::I64)],
    );
    let next_f = FieldId(0);
    let xy_f = FieldId(1);
    let table = pb.array("table", ElemTy::ptr_to(sid), &[buckets as u64]);
    let i = pb.var("i");
    let h = pb.var("h");
    let p = pb.var("p");
    let acc = pb.var("acc");

    let body = vec![for_(
        i,
        c(0),
        c(lookups),
        1,
        vec![
            // Pseudo-random bucket choice (non-affine).
            assign(
                h,
                and_(mul(var(i), c(0x9E3779B1u32 as i64)), c(buckets - 1)),
            ),
            assign(p, load(arr(table, vec![var(h)]))),
            work(14),
            while_(
                ne(var(p), c(0)),
                vec![
                    assign(acc, add(var(acc), load(fld(var(p), term, xy_f)))),
                    assign(p, load(fld(var(p), term, next_f))),
                ],
            ),
        ],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let table_base = heap.alloc_array(buckets as u64, 8);
    bindings.bind_array(table, table_base);
    // Scatter nodes: allocate a big slab and place nodes at random slots.
    let mut r = util::rng(300);
    let slots = (buckets * 4) as u64;
    let slab = heap.alloc(slots * 64, 64);
    let perm = util::permutation(&mut r, slots);
    let mut next_slot = 0usize;
    let mut take = || {
        let a = slab.offset(perm[next_slot] as i64 * 64);
        next_slot += 1;
        a
    };
    for bkt in 0..buckets {
        let len = 1 + (r.gen_range(0..100) % 3);
        let nodes: Vec<_> = (0..len).map(|_| take()).collect();
        let head = util::link_chain(&mut memory, &nodes, 0);
        for n in &nodes {
            memory.write_i64(n.offset(8), bkt);
        }
        memory.write_u64(table_base.offset(bkt * 8), head.0);
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
    fn chains_are_pointer_hinted_but_lookups_not_spatial() {
        let b = build(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert!(cs.pointer >= 2);
        assert!(cs.recursive >= 1);
        // The hash-indexed bucket load is not affine → not spatial.
        assert!(cs.spatial <= 1, "spatial={}", cs.spatial);
    }

    #[test]
    fn nothing_helps_twolf_much() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        for s in [Scheme::Stride, Scheme::Srp, Scheme::GrpVar] {
            let r = b.run(s, &cfg);
            let sp = r.speedup_vs(&base);
            assert!(
                (0.85..1.25).contains(&sp),
                "{s}: speedup {sp} out of the nothing-works band"
            );
        }
    }

    #[test]
    fn srp_burns_bandwidth_for_nothing() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(
            srp.traffic_vs(&base) > 3.0,
            "SRP traffic explodes on twolf: {:.1}×",
            srp.traffic_vs(&base)
        );
        assert!(
            grp.traffic_vs(&base) < srp.traffic_vs(&base) / 2.0,
            "GRP stays restrained: {:.1}×",
            grp.traffic_vs(&base)
        );
    }
}
