//! `188.ammp` — molecular dynamics over linked atom lists.
//!
//! Table 6 attributes 88.6% of ammp's misses to "linked list traversal".
//! Atoms are ~200-byte records in a long singly-linked list, allocated
//! roughly in order but padded (the real allocator interleaves other
//! structures), so region prefetching pays 4 KB per node touched while
//! the compiler's `recursive pointer` hint lets GRP chase `next` fields
//! precisely (the paper credits pointer+indirect hints with bringing
//! ammp under a 15% gap).

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::types::field;
use grp_ir::{ElemTy, FieldId, ProgramBuilder};

/// Builds ammp at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let atoms = scale.pick(512, 12_000, 40_000) as usize;
    let passes = scale.pick(1, 1, 2) as i64;

    let mut pb = ProgramBuilder::new("ammp");
    let sid = pb.peek_struct_id();
    let atom = pb.add_struct(
        "atom",
        vec![
            field("next", ElemTy::ptr_to(sid)), // offset 0
            field("x", ElemTy::F64),
            field("y", ElemTy::F64),
            field("z", ElemTy::F64),
            field("fx", ElemTy::F64),
        ],
    );
    let next_f = FieldId(0);
    let x_f = FieldId(1);
    let y_f = FieldId(2);
    let fx_f = FieldId(4);
    let p = pb.var("p");
    let head = pb.var("head");
    let t = pb.var("t");
    let e = pb.var("e");

    let body = vec![for_(
        t,
        c(0),
        c(passes),
        1,
        vec![
            assign(p, var(head)),
            while_(
                ne(var(p), c(0)),
                vec![
                    assign(
                        e,
                        add(load(fld(var(p), atom, x_f)), load(fld(var(p), atom, y_f))),
                    ),
                    store(fld(var(p), atom, fx_f), var(e)),
                    work(20),
                    assign(p, load(fld(var(p), atom, next_f))),
                ],
            ),
        ],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    // ~200-byte records with interleaved allocations: pad so each node
    // sits in its own pair of blocks.
    heap.set_pad(984);
    let node_size = 5 * 8;
    let nodes: Vec<_> = (0..atoms).map(|_| heap.alloc(node_size, 8)).collect();
    let head_addr = util::link_chain(&mut memory, &nodes, 0);
    for (k, n) in nodes.iter().enumerate() {
        memory.write_f64(n.offset(8), k as f64 * 0.5);
        memory.write_f64(n.offset(16), 1.0);
    }
    let mut bindings = program.bindings();
    bindings.bind_var(head, head_addr.0 as i64);

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
    fn traversal_is_recursive_pointer_hinted() {
        let b = build(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert!(cs.recursive >= 1, "next-chase marked recursive");
        assert!(cs.pointer >= 3, "field accesses marked pointer");
        assert_eq!(cs.indirect, 0);
    }

    #[test]
    fn recursive_chase_hides_list_latency() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(
            grp.speedup_vs(&base) > 1.1,
            "recursive prefetching speedup {}",
            grp.speedup_vs(&base)
        );
    }

    #[test]
    fn grp_spends_far_less_traffic_than_srp_on_lists() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        // Paper Table 5: ammp SRP traffic 8340K vs GRP 665K (12×).
        assert!(
            srp.traffic_vs(&base) > 2.0 * grp.traffic_vs(&base),
            "SRP {:.2}× vs GRP {:.2}×",
            srp.traffic_vs(&base),
            grp.traffic_vs(&base)
        );
    }

    #[test]
    fn stride_prefetching_cannot_learn_the_list() {
        let b = build(Scale::Test);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let stride = b.run(Scheme::Stride, &cfg);
        // Padded nodes have an (accidentally) constant allocation stride,
        // so stride prefetching may catch some; it must not *hurt*.
        assert!(stride.cycles <= base.cycles * 21 / 20);
    }
}
