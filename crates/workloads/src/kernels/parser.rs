//! `197.parser` — link-grammar natural-language parser.
//!
//! Dictionary lookups walk trie/list structures; Table 3 gives parser
//! the suite's largest `recursive pointer` census (1263 sites). The
//! nodes come from a custom pool allocator, so chains are laid out in
//! *mostly* allocation order — spatial prefetching recovers much of the
//! traversal (Table 5: SRP coverage 77.5%, GRP 56.0% at 82.5% accuracy).

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::types::field;
use grp_ir::{ElemTy, FieldId, ProgramBuilder};

/// Builds parser at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let chains = scale.pick(64, 2_000, 6_000) as i64;
    let chain_len = scale.pick(8, 24, 40) as usize;

    let mut pb = ProgramBuilder::new("parser");
    let sid = pb.peek_struct_id();
    let dnode = pb.add_struct(
        "disjunct",
        vec![
            field("next", ElemTy::ptr_to(sid)),
            field("cost", ElemTy::I64),
            field("len", ElemTy::I64),
        ],
    );
    let next_f = FieldId(0);
    let cost_f = FieldId(1);
    let heads = pb.array("heads", ElemTy::ptr_to(sid), &[chains as u64]);
    let w = pb.var("w");
    let p = pb.var("p");
    let acc = pb.var("acc");

    let body = vec![for_(
        w,
        c(0),
        c(chains),
        1,
        vec![
            assign(p, load(arr(heads, vec![var(w)]))),
            while_(
                ne(var(p), c(0)),
                vec![
                    assign(acc, add(var(acc), load(fld(var(p), dnode, cost_f)))),
                    work(10),
                    assign(p, load(fld(var(p), dnode, next_f))),
                ],
            ),
        ],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let heads_base = heap.alloc_array(chains as u64, 8);
    bindings.bind_array(heads, heads_base);
    // Pool allocation: each chain's nodes are contiguous (24 B each),
    // with an occasional out-of-pool node (10%) modelling reuse of freed
    // slots — the source of the coverage gap between SRP and GRP.
    let mut r = util::rng(197);
    let mut stragglers: Vec<grp_mem::Addr> = Vec::new();
    for ch in 0..chains {
        let mut nodes = Vec::with_capacity(chain_len);
        for _ in 0..chain_len {
            if r.gen_bool(0.1) && !stragglers.is_empty() {
                let k = r.gen_range(0..stragglers.len());
                nodes.push(stragglers.swap_remove(k));
            } else {
                nodes.push(heap.alloc(24, 8));
            }
            if r.gen_bool(0.05) {
                stragglers.push(heap.alloc(24, 8));
            }
        }
        let head = util::link_chain(&mut memory, &nodes, 0);
        for (k, n) in nodes.iter().enumerate() {
            memory.write_i64(n.offset(8), k as i64);
        }
        memory.write_u64(heads_base.offset(ch * 8), head.0);
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
    fn traversal_is_recursive_and_heads_spatial() {
        let b = build(Scale::Test);
        let cs = census(&b.program, &b.hints(&AnalysisConfig::default()));
        assert!(cs.recursive >= 1);
        assert!(cs.pointer >= 2);
        assert!(cs.spatial >= 1, "heads[] array streams");
    }

    #[test]
    fn both_srp_and_grp_improve_parser() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(
            srp.speedup_vs(&base) > 1.05,
            "SRP {}",
            srp.speedup_vs(&base)
        );
        assert!(
            grp.speedup_vs(&base) > 1.05,
            "GRP {}",
            grp.speedup_vs(&base)
        );
        // GRP's traffic stays in SRP's neighbourhood or below (the pool
        // allocator makes SRP's regions efficient here; GRP adds the
        // two-blocks-per-pointer chase, so allow a small overshoot).
        assert!(grp.traffic.total_blocks() <= srp.traffic.total_blocks() * 11 / 10);
    }
}
