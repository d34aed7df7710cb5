//! `164.gzip` — LZ77 compression.
//!
//! Two access styles drive gzip's memory behaviour: sequential
//! sliding-window copies (affine, spatial-hinted) and hash-chain history
//! probes whose addresses come from a hash of the input — *not* affine,
//! so the compiler cannot mark them. The probes still land near recently
//! written window positions, which is why hint-blind SRP covers gzip
//! well (Table 5: 76.3%) while GRP's coverage is 0.0 — the misses sit
//! exactly on the unhintable references ("the compiler misses locality
//! outside of loops", §5.2).

use crate::kernels::util;
use crate::{BuiltWorkload, Scale};
use grp_ir::build::*;
use grp_ir::{ElemTy, ProgramBuilder};

/// Builds gzip at `scale`.
pub fn build(scale: Scale) -> BuiltWorkload {
    let window = scale.pick(1 << 11, 1 << 18, 1 << 19) as i64; // 8-byte words
    let probes = scale.pick(512, 30_000, 90_000) as i64;
    let mut pb = ProgramBuilder::new("gzip");
    let win = pb.array("window", ElemTy::I64, &[window as u64]);
    let out = pb.array("out", ElemTy::I64, &[window as u64]);
    let i = pb.var("i");
    let h = pb.var("h");
    let acc = pb.var("acc");

    let body = vec![
        // Deflate copy loop: out[i] = window[i] — spatial.
        for_(
            i,
            c(0),
            c(window),
            1,
            vec![
                store(arr(out, vec![var(i)]), load(arr(win, vec![var(i)]))),
                work(16),
            ],
        ),
        // Hash-chain probes: h = (i * 2654435761) mod window — the
        // multiplicative hash makes the subscript non-affine.
        for_(
            i,
            c(0),
            c(probes),
            1,
            vec![
                assign(h, and_(mul(var(i), c(2654435761)), c(window - 1))),
                work(24),
                assign(acc, add(var(acc), load(arr(win, vec![var(h)])))),
                // Each probe also reads the following match candidate.
                assign(
                    acc,
                    add(
                        var(acc),
                        load(arr(win, vec![and_(add(var(h), c(8)), c(window - 1))])),
                    ),
                ),
            ],
        ),
    ];
    let program = pb.finish(body);

    let mut heap = util::heap();
    let mut memory = grp_mem::Memory::new();
    let mut bindings = program.bindings();
    let win_base = heap.alloc_array(window as u64, 8);
    let out_base = heap.alloc_array(window as u64, 8);
    for k in 0..(window as u64).min(8192) {
        memory.write_i64(win_base.offset(k as i64 * 8), (k * 131 % 251) as i64);
    }
    bindings.bind_array(win, win_base);
    bindings.bind_array(out, out_base);

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
    fn copy_loop_hinted_probes_not() {
        let b = build(Scale::Test);
        let h = b.hints(&AnalysisConfig::default());
        let cs = census(&b.program, &h);
        // window[i] and out[i] spatial; the two hash probes unhinted.
        assert!(cs.spatial >= 2);
        assert!(
            (cs.hinted() as u32) < cs.mem_refs,
            "hash probes stay unhinted"
        );
    }

    #[test]
    fn srp_covers_more_than_grp_on_gzip() {
        // The paper's starkest SRP>GRP case: GRP coverage 0.0 (Table 5).
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let srp = b.run(Scheme::Srp, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        assert!(
            srp.coverage_vs(&base) > grp.coverage_vs(&base),
            "SRP {:.2} vs GRP {:.2}",
            srp.coverage_vs(&base),
            grp.coverage_vs(&base)
        );
    }

    #[test]
    fn grp_traffic_stays_near_baseline() {
        let b = build(Scale::Small);
        let cfg = SimConfig::paper();
        let base = b.run(Scheme::NoPrefetch, &cfg);
        let grp = b.run(Scheme::GrpVar, &cfg);
        // Table 5: gzip GRP traffic 182K == base 182K.
        assert!(grp.traffic_vs(&base) < 1.3, "{}", grp.traffic_vs(&base));
    }
}
