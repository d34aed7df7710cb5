//! `256.bzip2` — Burrows-Wheeler compression.
//!
//! Block sorting indexes the data block through a suffix-pointer array:
//! `quadrant[b[i]]`-style references whose index values are an
//! effectively random permutation. This is the paper's indirect-prefetch
//! showcase (§3.3.3/§5.2): "with indirect prefetching, the gap from a
//! perfect L2 is reduced to 12.5% from 15.9%, with only 15% of the
//! memory traffic of SRP". SRP's 4 KB regions around random single-block
//! targets are almost pure waste (Table 5: accuracy 5.3%, traffic ~10×).

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds bzip2 at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let block = scale.pick(4_096, 400_000, 1_000_000) as i64;
    let mut pb = ProgramBuilder::new("bzip2");
    let quadrant = pb.array("quadrant", ElemTy::I64, &[block as u64]);
    let ptrs = pb.array("ptr", ElemTy::I32, &[block as u64]);
    let out = pb.array("out", ElemTy::I64, &[block as u64]);
    let i = pb.var("i");
    let acc = pb.var("acc");

    let body = vec![
        // Sorted-order reconstruction: out[i] = quadrant[ptr[i]].
        for_(
            i,
            c(0),
            c(block),
            1,
            vec![
                store(
                    arr(out, vec![var(i)]),
                    load(arr(quadrant, vec![load(arr(ptrs, vec![var(i)]))])),
                ),
                work(20),
            ],
        ),
        // A sequential counting pass (spatial).
        for_(
            i,
            c(0),
            c(block),
            1,
            vec![
                assign(acc, add(var(acc), load(arr(out, vec![var(i)])))),
                work(6),
            ],
        ),
    ];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let q_base = heap.alloc_array(block as u64, 8);
    let p_base = heap.alloc_array(block as u64, 4);
    let o_base = heap.alloc_array(block as u64, 8);
    let mut r = util::rng(256);
    let perm = util::permutation(&mut r, block as u64);
    util::fill_i32(&mut memory, p_base, block as u64, |k| {
        perm[k as usize] as i32
    });
    bindings.bind_array(quadrant, q_base);
    bindings.bind_array(ptrs, p_base);
    bindings.bind_array(out, o_base);

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
    fn indirect_directive_on_the_suffix_array() {
        let b = build(Scale::Test);
        let h = b.hints(&AnalysisConfig::default());
        let cs = census(&b.program, &h);
        assert!(cs.indirect >= 1, "ptr[i] drives indirect prefetching");
        assert!(cs.spatial >= 2, "ptr/out stream affinely");
    }

    #[test]
    fn grp_beats_srp_on_bzip2() {
        // The paper's indirect-prefetch headline: GRP > SRP here.
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(
            grp.cycles <= srp.cycles,
            "GRP {} vs SRP {} cycles",
            grp.cycles,
            srp.cycles
        );
        assert!(
            grp.traffic_vs(&base) < srp.traffic_vs(&base) * 0.6,
            "GRP traffic {:.2}× vs SRP {:.2}×",
            grp.traffic_vs(&base),
            srp.traffic_vs(&base)
        );
    }

    #[test]
    fn srp_accuracy_collapses_on_random_targets() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let srp = b.run(Scheme::Srp, &cfg);
        assert!(
            srp.accuracy() < 0.5,
            "random-permutation regions are mostly waste: {:.2}",
            srp.accuracy()
        );
    }
}
