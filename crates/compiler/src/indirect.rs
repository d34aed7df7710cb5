//! Indirect array-reference detection (paper §4.3).
//!
//! Looks for `a(s·b(i) + e)` where `b(i)` is a sequentially-accessed
//! index array: dependence testing detects the spatial reuse on `b(i)`,
//! and "a simple analysis detects when a sequentially accessed array is
//! used as an index into another array … and generates an indirect
//! prefetch instruction using the address of `b(i)` and the base address
//! of array `c`". The directive is attached to the index-load site; the
//! interpreter lowers it to one explicit indirect-prefetch instruction
//! per index-array cache block (§3.3.3: "each one generates up to 16
//! prefetches, one for each index within a cache block").

use grp_cpu::RefId;
use grp_ir::{Expr, HintMap, IndirectSpec, MemRef};

use crate::model::{affine_of, const_fold, LoopKind, ProgramModel};
use crate::policy::AnalysisConfig;

/// Runs the indirect pass.
pub fn mark_indirect(model: &ProgramModel<'_>, _cfg: &AnalysisConfig, hints: &mut HintMap) {
    for site in &model.refs {
        let MemRef::Array { array, indices, .. } = site.mr else {
            continue;
        };
        // The paper's pattern is one-dimensional in the indexed dimension;
        // we look at the spatial (last) subscript.
        let Some(index_expr) = indices.last() else {
            continue;
        };
        let Some((index_load, scale)) = value_affine_load(index_expr) else {
            continue;
        };
        // Every *other* subscript must not itself contain loads.
        if indices[..indices.len() - 1]
            .iter()
            .any(|e| !affine_of(e, &[]).loads.is_empty())
        {
            continue;
        }
        // The index load must be a sequentially-accessed i32 array
        // (the paper assumes a 4-byte index element, §3.3.3).
        let Some(b_ref) = sequential_i32_array_load(model, index_load) else {
            continue;
        };
        let target_decl = model.prog.array(*array);
        let elem_size = (target_decl.elem.size() as i64 * scale).unsigned_abs() as u32;
        if elem_size == 0 {
            continue;
        }
        hints.set_indirect(
            b_ref,
            IndirectSpec {
                target: *array,
                elem_size,
            },
        );
    }
}

/// Matches `s·L + e` where `L` is a single load and `s`, `e` are
/// constants (or loop-invariant additions). Returns the load's `MemRef`
/// and the scale `s`.
fn value_affine_load(e: &Expr) -> Option<(&MemRef, i64)> {
    match e {
        Expr::Load(r) => Some((r, 1)),
        Expr::Bin(op, a, b) => {
            use grp_ir::BinOp::*;
            match op {
                Add | Sub => {
                    // Exactly one side holds the load; the other must be
                    // load-free (it only shifts the base).
                    let la = contains_load(a);
                    let lb = contains_load(b);
                    match (la, lb) {
                        (true, false) => value_affine_load(a),
                        (false, true) => {
                            let (r, s) = value_affine_load(b)?;
                            Some((r, if matches!(op, Sub) { -s } else { s }))
                        }
                        _ => None,
                    }
                }
                Mul => {
                    if let Some(k) = const_fold(b) {
                        let (r, s) = value_affine_load(a)?;
                        Some((r, s * k))
                    } else if let Some(k) = const_fold(a) {
                        let (r, s) = value_affine_load(b)?;
                        Some((r, s * k))
                    } else {
                        None
                    }
                }
                Shl => {
                    let k = const_fold(b)?;
                    let (r, s) = value_affine_load(a)?;
                    Some((r, s << (k as u32).min(32)))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn contains_load(e: &Expr) -> bool {
    match e {
        Expr::Load(_) => true,
        Expr::I64(_) | Expr::F64(_) | Expr::Var(_) | Expr::ArrayBase(_) => false,
        Expr::Un(_, a) => contains_load(a),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => contains_load(a) || contains_load(b),
    }
}

/// Checks that `mr` is a load from an `i32` array whose subscript walks
/// sequentially (|stride| = 1 element) under an enclosing `for` loop.
/// Returns the index-load's site id.
fn sequential_i32_array_load(model: &ProgramModel<'_>, mr: &MemRef) -> Option<RefId> {
    let MemRef::Array { array, indices, .. } = mr else {
        return None;
    };
    let decl = model.prog.array(*array);
    if decl.elem.size() != 4 {
        return None;
    }
    let site = model.site(mr.ref_id());
    let ivs = model.enclosing_ivs(site);
    let last = affine_of(indices.last()?, &ivs);
    if last.nonlinear || !last.loads.is_empty() {
        return None;
    }
    // Sequential under some enclosing for loop: |coeff·step| == 1.
    for &uid in site.loop_path.iter().rev() {
        if let LoopKind::For { iv, step, .. } = model.loops[uid].kind {
            if last.coeff(iv).unsigned_abs() * step.unsigned_abs() == 1 {
                return Some(mr.ref_id());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::analyze;
    use crate::policy::AnalysisConfig;
    use grp_cpu::RefId;
    use grp_ir::build::*;
    use grp_ir::{ElemTy, ProgramBuilder};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn classic_a_of_b_of_i_detected() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let b = pb.array("b", ElemTy::I32, &[512]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(512),
            1,
            vec![assign(
                s,
                add(var(s), load(arr(a, vec![load(arr(b, vec![var(i)]))]))),
            )],
        )]);
        let h = analyze(&prog, &cfg());
        // Index load is RefId(0); data load is RefId(1).
        let spec = h.indirect(RefId(0)).expect("indirect detected");
        assert_eq!(spec.target, a);
        assert_eq!(spec.elem_size, 8);
        assert!(h.indirect(RefId(1)).is_none());
    }

    #[test]
    fn scaled_and_offset_pattern_detected() {
        // a[4*b[i] + 2]
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F32, &[65536]);
        let b = pb.array("b", ElemTy::I32, &[512]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(512),
            1,
            vec![assign(
                s,
                load(arr(
                    a,
                    vec![add(mul(c(4), load(arr(b, vec![var(i)]))), c(2))],
                )),
            )],
        )]);
        let h = analyze(&prog, &cfg());
        let spec = h.indirect(RefId(0)).expect("indirect detected");
        assert_eq!(spec.elem_size, 16, "scale 4 × f32 size 4");
    }

    #[test]
    fn i64_index_array_is_not_detected() {
        // The paper's engine assumes 4-byte index elements.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let b = pb.array("b", ElemTy::I64, &[512]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(512),
            1,
            vec![assign(s, load(arr(a, vec![load(arr(b, vec![var(i)]))])))],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.indirect(RefId(0)).is_none());
    }

    #[test]
    fn strided_index_access_is_not_sequential() {
        // b[8*i] skips blocks — not the paper's pattern.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let b = pb.array("b", ElemTy::I32, &[4096]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(512),
            1,
            vec![assign(
                s,
                load(arr(a, vec![load(arr(b, vec![mul(c(8), var(i))]))])),
            )],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.indirect(RefId(0)).is_none());
    }

    #[test]
    fn two_loads_in_index_are_rejected() {
        // a[b[i] + d[i]] is not the single-index-array pattern.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let b = pb.array("b", ElemTy::I32, &[512]);
        let d = pb.array("d", ElemTy::I32, &[512]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(512),
            1,
            vec![assign(
                s,
                load(arr(
                    a,
                    vec![add(load(arr(b, vec![var(i)])), load(arr(d, vec![var(i)])))],
                )),
            )],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.indirect(RefId(0)).is_none());
        assert!(h.indirect(RefId(1)).is_none());
    }

    #[test]
    fn indirect_pass_can_be_disabled() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let b = pb.array("b", ElemTy::I32, &[512]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(512),
            1,
            vec![assign(s, load(arr(a, vec![load(arr(b, vec![var(i)]))])))],
        )]);
        let mut conf = cfg();
        conf.indirect = false;
        let h = analyze(&prog, &conf);
        assert_eq!(h.indirect_count(), 0);
    }
}
