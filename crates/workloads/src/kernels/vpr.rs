//! `175.vpr` — FPGA placement.
//!
//! The placement cost loops index net data through block-lookup arrays:
//! `a[b[i]]` where consecutive `b[i]` values are *clustered* (nets listed
//! roughly in placement order). §5.2: "For vpr, the indirect references
//! show high spatial locality. SRP thus performs as well as GRP, but
//! with 50% additional traffic."

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds vpr at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let nets = scale.pick(1_024, 60_000, 200_000) as i64;
    let blocks = nets * 2;
    let mut pb = ProgramBuilder::new("vpr");
    let cost = pb.array("cost", ElemTy::F64, &[blocks as u64]);
    let netmap = pb.array("netmap", ElemTy::I32, &[nets as u64]);
    let bb = pb.array("bb", ElemTy::F64, &[nets as u64]);
    let i = pb.var("i");
    let acc = pb.var("acc");

    let body = vec![for_(
        i,
        c(0),
        c(nets),
        1,
        vec![
            // Indirect cost lookup: cost[netmap[i]].
            assign(
                acc,
                add(
                    var(acc),
                    load(arr(cost, vec![load(arr(netmap, vec![var(i)]))])),
                ),
            ),
            // Plus a streaming bounding-box term and cost arithmetic.
            store(arr(bb, vec![var(i)]), var(acc)),
            work(16),
        ],
    )];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let cost_base = heap.alloc_array(blocks as u64, 8);
    let map_base = heap.alloc_array(nets as u64, 4);
    let bb_base = heap.alloc_array(nets as u64, 8);
    // Clustered indices: runs of small forward jitter with occasional
    // jumps to a new cluster (nets grouped by placement region). The
    // jumps are where hint-blind region prefetching pays for blocks the
    // walk never reaches.
    let mut r = util::rng(175);
    let mut pos: i64 = r.gen_range(0..blocks);
    util::fill_i32(&mut memory, map_base, nets as u64, |_| {
        if r.gen_range(0..160) == 0 {
            pos = r.gen_range(0..blocks);
        } else {
            pos += r.gen_range(0..9);
        }
        (pos % blocks) as i32
    });
    bindings.bind_array(cost, cost_base);
    bindings.bind_array(netmap, map_base);
    bindings.bind_array(bb, bb_base);

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
    fn indirect_directive_is_derived() {
        let b = build(Scale::Test);
        let h = b.hints(&AnalysisConfig::default());
        let cs = census(&b.program, &h);
        assert!(cs.indirect >= 1, "netmap[i] drives an indirect prefetch");
        assert!(cs.spatial >= 2, "netmap and bb stream");
    }

    #[test]
    fn srp_matches_grp_performance_with_more_traffic() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        // Performance within a band of each other…
        let ratio = grp.cycles as f64 / srp.cycles as f64;
        assert!((0.8..1.25).contains(&ratio), "GRP/SRP cycle ratio {ratio}");
        // …but SRP pays more traffic (paper: ~2× for vpr).
        assert!(
            srp.traffic_vs(&base) > grp.traffic_vs(&base),
            "SRP {:.2}× vs GRP {:.2}×",
            srp.traffic_vs(&base),
            grp.traffic_vs(&base)
        );
    }

    #[test]
    fn indirect_prefetching_beats_no_prefetching() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(grp.speedup_vs(&base) > 1.05, "{}", grp.speedup_vs(&base));
    }
}
