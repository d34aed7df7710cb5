//! `181.mcf` — network simplex minimum-cost flow.
//!
//! Table 6 attributes 60.7% of mcf's misses to "tree traversal"; §5.2
//! explains the pointer-prefetch gain (15.9%) with "a loop which
//! sequentially resets a field in each object in a heap array" — the
//! arcs array sweep. The reproduction runs both phases:
//!
//! * `refresh_potential`-style sweep over the contiguous arc array via a
//!   loop induction pointer (spatial + pointer hints), and
//! * random basis-tree walks through `parent` pointers (recursive hint,
//!   but data-dependent — the part no prefetcher fixes; the paper keeps
//!   mcf's gap at 63.9% and caps its chase depth at 3 to stay tractable).

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::types::field;
use grp_ir::{ElemTy, FieldId, ProgramBuilder};

/// Builds mcf at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let arcs = scale.pick(512, 20_000, 60_000) as i64;
    let nodes = scale.pick(256, 8_000, 24_000) as usize;
    let walks = scale.pick(128, 4_000, 12_000) as i64;

    let mut pb = ProgramBuilder::new("mcf");
    let nid = pb.peek_struct_id();
    let node = pb.add_struct(
        "node",
        vec![
            field("parent", ElemTy::ptr_to(nid)), // offset 0
            field("potential", ElemTy::I64),
        ],
    );
    let parent_f = FieldId(0);
    let pot_f = FieldId(1);

    let arc_struct = pb.add_struct(
        "arc",
        vec![
            field("cost", ElemTy::I64),         // 0
            field("tail", ElemTy::ptr_to(nid)), // 8
            field("head", ElemTy::ptr_to(nid)), // 16
            field("flow", ElemTy::I64),         // 24
            field("ident", ElemTy::I64),        // 32
        ],
    );
    let cost_f = FieldId(0);
    let tail_f = FieldId(1);
    let flow_f = FieldId(3);

    let roots = pb.array("roots", ElemTy::ptr_to(nid), &[walks as u64]);
    let p = pb.var("p");
    let arcs_base = pb.var("arcs_base");
    let arcs_end = pb.var("arcs_end");
    let w = pb.var("w");
    let nptr = pb.var("nptr");
    let acc = pb.var("acc");
    let depth = pb.var("depth");

    let arc_size = 40i64;
    let body = vec![
        // Phase 1: sweep the arc array, reading cost/tail and resetting flow.
        assign(p, var(arcs_base)),
        while_(
            lt(var(p), var(arcs_end)),
            vec![
                assign(acc, add(var(acc), load(fld(var(p), arc_struct, cost_f)))),
                assign(nptr, load(fld(var(p), arc_struct, tail_f))),
                store(fld(var(p), arc_struct, flow_f), c(0)),
                work(10),
                assign(p, add(var(p), c(arc_size))),
            ],
        ),
        // Phase 2: random tree walks to the root.
        for_(
            w,
            c(0),
            c(walks),
            1,
            vec![
                assign(nptr, load(arr(roots, vec![var(w)]))),
                assign(depth, c(0)),
                while_(
                    ne(var(nptr), c(0)),
                    vec![
                        assign(acc, add(var(acc), load(fld(var(nptr), node, pot_f)))),
                        assign(nptr, load(fld(var(nptr), node, parent_f))),
                        work(8),
                        assign(depth, add(var(depth), c(1))),
                    ],
                ),
            ],
        ),
    ];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();

    // Contiguous arc array (the heap-array sweep).
    let arcs_start = heap.alloc(arcs as u64 * arc_size as u64, 64);
    // Tree nodes: scattered allocation order (tree built by pivoting).
    let mut r = util::rng(181);
    let node_addrs: Vec<_> = (0..nodes).map(|_| heap.alloc(16, 8)).collect();
    // Random parent edges forming a forest converging on node 0.
    for (k, n) in node_addrs.iter().enumerate().skip(1) {
        let parent = node_addrs[r.gen_range(0..k)];
        memory.write_u64(*n, parent.0);
        memory.write_i64(n.offset(8), k as i64);
    }
    memory.write_u64(node_addrs[0], 0);
    // Arc tails point at random tree nodes.
    for a in 0..arcs {
        let base = arcs_start.offset(a * arc_size);
        memory.write_i64(base, a % 17); // cost
        let t = node_addrs[r.gen_range(0..nodes)];
        memory.write_u64(base.offset(8), t.0);
        memory.write_u64(base.offset(16), node_addrs[r.gen_range(0..nodes)].0);
    }
    // Walk roots: random deep nodes.
    let roots_base = heap.alloc_array(walks as u64, 8);
    for k in 0..walks {
        let idx = r.gen_range(nodes / 2..nodes);
        memory.write_u64(roots_base.offset(k * 8), node_addrs[idx].0);
    }
    bindings.bind_array(roots, roots_base);
    bindings.bind_var(arcs_base, arcs_start.0 as i64);
    bindings.bind_var(arcs_end, arcs_start.0 as i64 + arcs * arc_size);

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
    fn hint_profile_matches_paper_shape() {
        // Table 3: mcf has spatial, pointer AND recursive hints.
        let b = build(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert!(cs.spatial >= 1, "arc sweep (induction pointer) spatial");
        assert!(cs.pointer >= 2, "arc/node field accesses pointer-hinted");
        assert!(cs.recursive >= 1, "parent chase recursive");
    }

    #[test]
    fn pointer_prefetching_helps_the_arc_sweep() {
        // §5.2: mcf's pointer-prefetch gain comes from the sequential
        // field-reset loop, not the tree.
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let hw = b.run(Scheme::HwPointer, &cfg);
        assert!(hw.speedup_vs(&base) > 1.02, "{}", hw.speedup_vs(&base));
    }

    #[test]
    fn mcf_stays_far_from_perfect_l2() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let grp = b.run(Scheme::GrpVar, &cfg);
        let perfect = b.run(Scheme::PerfectL2, &cfg);
        assert!(
            grp.gap_vs_perfect(&perfect) > 15.0,
            "tree walks keep mcf memory-bound: {:.1}%",
            grp.gap_vs_perfect(&perfect)
        );
    }
}
