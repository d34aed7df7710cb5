//! Variable-size region analysis (paper §4.4).
//!
//! "The compiler detects and marks array references within singly nested
//! loops for variable-size region prefetching. For an array access with a
//! pattern of `a(b·i + c)` and an array element size of `e`, the compiler
//! encodes `b·e` into a three-bit value `x` such that `x < 7` and `2^x`
//! is closest to `b·e` … The compiler marks the upper bound of the loop
//! induction variable `i`." At run time the engine computes the region
//! size as `loop bound << coefficient` (§3.3.2).

use grp_ir::{Expr, HintMap, MemRef};

use crate::model::{affine_of, LoopKind, ProgramModel};
use crate::policy::AnalysisConfig;

/// Runs the variable-size-region pass. Must run after the spatial pass
/// (only spatially-hinted references get size coefficients — unhinted
/// references never trigger region prefetches under GRP).
pub fn mark_variable_regions(model: &ProgramModel<'_>, _cfg: &AnalysisConfig, hints: &mut HintMap) {
    for site in &model.refs {
        // Only spatial references participate.
        if !hints.hint(site.ref_id).spatial() {
            continue;
        }
        let Some(uid) = model.innermost_loop(site) else {
            continue;
        };
        let LoopKind::For { iv, step, trip } = model.loops[uid].kind else {
            continue;
        };
        // The paper restricts the pass to singly nested loops, because a
        // reference whose subscripts involve an *outer* induction
        // variable keeps streaming across inner-loop invocations and must
        // keep the full region. Our kernels are single functions (the
        // paper's short loops live in separate callees), so we apply the
        // equivalent condition directly: the loop is singly nested, or
        // (a) no outer IV appears in the reference's subscripts (its
        // footprint restarts every inner-loop invocation) and (b) the
        // bound is a compile-time constant, so the compiler can see the
        // extent is genuinely short. Symbolic inner bounds (sparse-row
        // lengths) keep the full region: the rows may well be contiguous
        // and the stream continue across them.
        if !model.is_singly_nested(uid) && (trip.is_none() || uses_outer_iv(model, site, iv)) {
            continue;
        }
        let Some(loop_id) = model.loops[uid].id else {
            continue;
        };
        let stride_bytes = match site.mr {
            MemRef::Array { .. } | MemRef::PtrIndex { .. } => {
                match crate::model::ref_byte_stride(model, site, iv) {
                    Some(per_unit) if per_unit != 0 => {
                        per_unit.unsigned_abs() * step.unsigned_abs()
                    }
                    _ => continue,
                }
            }
            MemRef::Deref { base, .. } | MemRef::Field { base, .. } => {
                // Induction pointers: stride is the pointer increment. A
                // pointer walked in an inner loop usually keeps streaming
                // across outer iterations, so only singly nested loops
                // qualify here.
                if !model.is_singly_nested(uid) {
                    continue;
                }
                let Expr::Var(p) = base.as_ref() else {
                    continue;
                };
                match model.updates[uid].induction.get(p) {
                    Some(c) => c.unsigned_abs(),
                    None => continue,
                }
            }
        };
        if stride_bytes == 0 {
            continue;
        }
        let coeff = closest_pow2_exponent(stride_bytes);
        hints.set_size_coeff(site.ref_id, coeff);
        hints.mark_loop_bound(loop_id);
    }
}

/// True when any subscript of `site` involves an enclosing `for` IV
/// other than `inner_iv`.
fn uses_outer_iv(
    model: &ProgramModel<'_>,
    site: &crate::model::RefSite<'_>,
    inner_iv: grp_ir::VarId,
) -> bool {
    let ivs = model.enclosing_ivs(site);
    let outer: Vec<_> = ivs.into_iter().filter(|v| *v != inner_iv).collect();
    if outer.is_empty() {
        return false;
    }
    let exprs: Vec<&Expr> = match site.mr {
        MemRef::Array { indices, .. } => indices.iter().collect(),
        MemRef::PtrIndex { base, index, .. } => vec![base, index],
        MemRef::Deref { base, .. } | MemRef::Field { base, .. } => vec![base],
    };
    exprs.iter().any(|e| {
        let a = affine_of(e, &outer);
        outer.iter().any(|v| a.coeff(*v) != 0) || a.nonlinear
    })
}

/// The `x < 7` with `2^x` closest to `n` encoding of §4.4.
pub fn closest_pow2_exponent(n: u64) -> u8 {
    let mut best = 0u8;
    let mut best_dist = u64::MAX;
    for x in 0..=6u8 {
        let v = 1u64 << x;
        let dist = v.abs_diff(n);
        if dist < best_dist {
            best = x;
            best_dist = dist;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::policy::AnalysisConfig;
    use grp_cpu::RefId;
    use grp_ir::build::*;
    use grp_ir::{ElemTy, LoopId, ProgramBuilder};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn exponent_encoding_matches_paper() {
        assert_eq!(closest_pow2_exponent(1), 0);
        assert_eq!(closest_pow2_exponent(4), 2);
        assert_eq!(closest_pow2_exponent(8), 3);
        assert_eq!(closest_pow2_exponent(10), 3);
        assert_eq!(
            closest_pow2_exponent(48),
            5,
            "tie between 32 and 64 takes the smaller"
        );
        assert_eq!(closest_pow2_exponent(1000), 6, "clamped at 2^6");
    }

    #[test]
    fn singly_nested_unit_stride_gets_coeff_and_bound() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(4096),
            1,
            vec![assign(s, add(var(s), load(arr(a, vec![var(i)]))))],
        )]);
        let h = analyze(&prog, &cfg());
        assert_eq!(
            h.hint(RefId(0)).size_coeff(),
            Some(3),
            "8-byte stride → x=3"
        );
        assert!(h.emits_bound(LoopId(0)));
    }

    #[test]
    fn nested_loops_do_not_get_coefficients() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[64, 64]);
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(64),
            1,
            vec![for_(
                j,
                c(0),
                c(64),
                1,
                vec![assign(s, load(arr(a, vec![var(i), var(j)])))],
            )],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(0)).spatial());
        assert_eq!(h.hint(RefId(0)).size_coeff(), None);
        assert!(!h.emits_bound(LoopId(0)));
        assert!(!h.emits_bound(LoopId(1)));
    }

    #[test]
    fn grp_fix_disables_the_pass() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(4096),
            1,
            vec![assign(s, load(arr(a, vec![var(i)])))],
        )]);
        let h = analyze(&prog, &AnalysisConfig::grp_fix());
        assert!(h.hint(RefId(0)).spatial());
        assert_eq!(h.hint(RefId(0)).size_coeff(), None);
        assert!(!h.emits_bound(LoopId(0)));
    }

    #[test]
    fn induction_pointer_loop_gets_stride_coefficient() {
        // for-loop stepping a pointer: p starts at base, 48-byte objects.
        let mut pb = ProgramBuilder::new("t");
        let i = pb.var("i");
        let p = pb.var("p");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(128),
            1,
            vec![
                assign(s, load(deref(var(p), ElemTy::F64, 0))),
                assign(p, add(var(p), c(48))),
            ],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(0)).spatial());
        assert_eq!(
            h.hint(RefId(0)).size_coeff(),
            Some(5),
            "48-byte stride rounds to 2^5"
        );
    }

    #[test]
    fn non_spatial_reference_gets_no_coefficient() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[1 << 20]);
        let i = pb.var("i");
        let s = pb.var("s");
        // stride 1024 elements — not spatial, so no size coeff either.
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(1024),
            1,
            vec![assign(s, load(arr(a, vec![mul(c(1024), var(i))])))],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(!h.hint(RefId(0)).spatial());
        assert_eq!(h.hint(RefId(0)).size_coeff(), None);
    }
}
