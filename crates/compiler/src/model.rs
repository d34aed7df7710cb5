//! Flattened program model shared by the analysis passes.
//!
//! [`ProgramModel::build`] walks a [`Program`] once and produces, for
//! every static reference site, its enclosing loop path and syntactic
//! role, plus per-loop summaries (induction pointers, recurrent pointers,
//! field accesses). The passes in the sibling modules are then simple
//! queries over this table — mirroring how Scale's passes share one
//! intermediate representation.

use std::collections::HashMap;

use grp_cpu::RefId;
use grp_ir::{ArrayId, BinOp, Dim, Expr, LoopId, MemRef, Program, Stmt, UnOp, VarId};

/// Loop kind and statically-known trip information.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopKind {
    /// A counted `for` loop.
    For {
        /// Induction variable.
        iv: VarId,
        /// Step.
        step: i64,
        /// Trip count when bounds are compile-time constants.
        trip: Option<u64>,
    },
    /// A `while` loop (sequence number among the program's while loops).
    While(usize),
}

/// One level of a reference's enclosing loop path.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopCtx {
    /// The loop's id (`for` loops only carry a meaningful [`LoopId`]).
    pub id: Option<LoopId>,
    /// Kind and trip info.
    pub kind: LoopKind,
    /// Enclosing loop uid, if nested.
    pub parent: Option<usize>,
    /// True when another loop nests inside this one.
    pub has_child: bool,
}

/// Pointer-update idioms recognized inside one loop (for or while).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointerUpdates {
    /// `p = p + c` — induction pointers with their byte step.
    pub induction: HashMap<VarId, i64>,
    /// `p = p->f` where `f` points to the same structure — recurrent
    /// pointers, with the RefId of the `p->f` load.
    pub recurrent: HashMap<VarId, RefId>,
}

/// A static reference site with its context.
#[derive(Debug, Clone)]
pub struct RefSite<'p> {
    /// The site id.
    pub ref_id: RefId,
    /// The syntactic reference.
    pub mr: &'p MemRef,
    /// Enclosing loops, outermost first (`loop_uid` indexes into the
    /// model's loop tables).
    pub loop_path: Vec<usize>,
    /// True when the site is the target of a store.
    pub is_store: bool,
}

/// The flattened view of one program.
#[derive(Debug)]
pub struct ProgramModel<'p> {
    /// The underlying program.
    pub prog: &'p Program,
    /// Every loop in pre-order; index = "loop uid" used by `loop_path`.
    pub loops: Vec<LoopCtx>,
    /// Pointer-update idioms per loop uid.
    pub updates: Vec<PointerUpdates>,
    /// Every static reference site, in RefId order.
    pub refs: Vec<RefSite<'p>>,
    /// Every scalar assignment `(target, rhs)`, flow-insensitively — used
    /// by the Figure 7 hint-propagation phase.
    pub assigns: Vec<(VarId, &'p Expr)>,
}

impl<'p> ProgramModel<'p> {
    /// Walks `prog` and builds the model.
    pub fn build(prog: &'p Program) -> Self {
        let mut m = ProgramModel {
            prog,
            loops: Vec::new(),
            updates: Vec::new(),
            refs: Vec::new(),
            assigns: Vec::new(),
        };
        let mut path = Vec::new();
        for s in &prog.body {
            m.walk_stmt(s, &mut path);
        }
        m.refs.sort_by_key(|r| r.ref_id);
        m
    }

    /// The site for `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn site(&self, r: RefId) -> &RefSite<'p> {
        &self.refs[r.0 as usize]
    }

    /// The innermost enclosing loop uid of a site, if any.
    pub fn innermost_loop(&self, site: &RefSite<'_>) -> Option<usize> {
        site.loop_path.last().copied()
    }

    /// The innermost enclosing *for* loop of a site (uid), if any.
    pub fn innermost_for(&self, site: &RefSite<'_>) -> Option<usize> {
        site.loop_path
            .iter()
            .rev()
            .copied()
            .find(|uid| matches!(self.loops[*uid].kind, LoopKind::For { .. }))
    }

    /// Induction variables of the site's enclosing `for` loops,
    /// outermost first.
    pub fn enclosing_ivs(&self, site: &RefSite<'_>) -> Vec<VarId> {
        site.loop_path
            .iter()
            .filter_map(|uid| match self.loops[*uid].kind {
                LoopKind::For { iv, .. } => Some(iv),
                LoopKind::While(_) => None,
            })
            .collect()
    }

    /// True when loop `uid` contains no nested loop and has no enclosing
    /// loop — the paper's "singly nested loop" (§4.4, §3.3.2).
    pub fn is_singly_nested(&self, uid: usize) -> bool {
        let l = &self.loops[uid];
        l.parent.is_none() && !l.has_child
    }

    fn walk_stmt(&mut self, s: &'p Stmt, path: &mut Vec<usize>) {
        match s {
            Stmt::Assign(v, e) => {
                self.record_pointer_update(*v, e, path);
                self.assigns.push((*v, e));
                self.walk_expr(e, path, false);
            }
            Stmt::Work(_) => {}
            Stmt::Store(r, e) => {
                self.walk_ref(r, path, true);
                self.walk_expr(e, path, false);
            }
            Stmt::For {
                id,
                iv,
                lo,
                hi,
                step,
                body,
            } => {
                self.walk_expr(lo, path, false);
                self.walk_expr(hi, path, false);
                let trip = match (const_fold(lo), const_fold(hi)) {
                    (Some(l), Some(h)) => {
                        let span = if *step > 0 { h - l } else { l - h };
                        if span <= 0 {
                            Some(0)
                        } else {
                            Some((span as u64).div_ceil(step.unsigned_abs()))
                        }
                    }
                    _ => None,
                };
                let uid = self.loops.len();
                let parent = path.last().copied();
                if let Some(p) = parent {
                    self.loops[p].has_child = true;
                }
                self.loops.push(LoopCtx {
                    id: Some(*id),
                    kind: LoopKind::For {
                        iv: *iv,
                        step: *step,
                        trip,
                    },
                    parent,
                    has_child: false,
                });
                self.updates.push(PointerUpdates::default());
                path.push(uid);
                for st in body {
                    self.walk_stmt(st, path);
                }
                path.pop();
            }
            Stmt::While { cond, body } => {
                let uid = self.loops.len();
                let widx = self
                    .loops
                    .iter()
                    .filter(|l| matches!(l.kind, LoopKind::While(_)))
                    .count();
                let parent = path.last().copied();
                if let Some(p) = parent {
                    self.loops[p].has_child = true;
                }
                self.loops.push(LoopCtx {
                    id: None,
                    kind: LoopKind::While(widx),
                    parent,
                    has_child: false,
                });
                self.updates.push(PointerUpdates::default());
                path.push(uid);
                self.walk_expr(cond, path, false);
                for st in body {
                    self.walk_stmt(st, path);
                }
                path.pop();
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.walk_expr(cond, path, false);
                for st in then_body.iter().chain(else_body.iter()) {
                    self.walk_stmt(st, path);
                }
            }
        }
    }

    /// Recognizes `p = p + c` and `p = p->f` (same-struct pointer field)
    /// in the innermost enclosing loop — Figures 5 and 6.
    fn record_pointer_update(&mut self, v: VarId, e: &'p Expr, path: &[usize]) {
        let Some(&uid) = path.last() else { return };
        match e {
            Expr::Bin(BinOp::Add, a, b) => {
                if let (Expr::Var(pv), Some(c)) = (a.as_ref(), const_fold(b)) {
                    if *pv == v {
                        self.updates[uid].induction.insert(v, c);
                    }
                }
                if let (Some(c), Expr::Var(pv)) = (const_fold(a), b.as_ref()) {
                    if *pv == v {
                        self.updates[uid].induction.insert(v, c);
                    }
                }
            }
            Expr::Load(MemRef::Field {
                base,
                strct,
                field,
                ref_id,
            }) => {
                if let Expr::Var(pv) = base.as_ref() {
                    if *pv == v {
                        let decl = self.prog.strct(*strct);
                        let is_recursive = decl.recursive_fields(*strct).contains(field);
                        if is_recursive {
                            self.updates[uid].recurrent.insert(v, *ref_id);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn walk_expr(&mut self, e: &'p Expr, path: &[usize], _is_store: bool) {
        match e {
            Expr::I64(_) | Expr::F64(_) | Expr::Var(_) | Expr::ArrayBase(_) => {}
            Expr::Load(r) => self.walk_ref(r, path, false),
            Expr::Un(_, a) => self.walk_expr(a, path, false),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.walk_expr(a, path, false);
                self.walk_expr(b, path, false);
            }
        }
    }

    fn walk_ref(&mut self, r: &'p MemRef, path: &[usize], is_store: bool) {
        match r {
            MemRef::Array { indices, .. } => {
                for e in indices {
                    self.walk_expr(e, path, false);
                }
            }
            MemRef::PtrIndex { base, index, .. } => {
                self.walk_expr(base, path, false);
                self.walk_expr(index, path, false);
            }
            MemRef::Field { base, .. } | MemRef::Deref { base, .. } => {
                self.walk_expr(base, path, false);
            }
        }
        self.refs.push(RefSite {
            ref_id: r.ref_id(),
            mr: r,
            loop_path: path.to_vec(),
            is_store,
        });
    }
}

/// Folds a compile-time-constant integer expression.
pub fn const_fold(e: &Expr) -> Option<i64> {
    match e {
        Expr::I64(v) => Some(*v),
        Expr::Un(UnOp::Neg, a) => const_fold(a).map(|v| -v),
        Expr::Bin(op, a, b) => {
            let (x, y) = (const_fold(a)?, const_fold(b)?);
            Some(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0 {
                        return None;
                    } else {
                        x / y
                    }
                }
                BinOp::Rem => {
                    if y == 0 {
                        return None;
                    } else {
                        x % y
                    }
                }
                BinOp::Shl => x << (y as u32).min(63),
                BinOp::Shr => x >> (y as u32).min(63),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            })
        }
        _ => None,
    }
}

/// Result of affine analysis of an index expression with respect to a
/// set of induction variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AffineInfo {
    /// Coefficient per induction variable (missing = 0).
    pub iv_coeffs: HashMap<VarId, i64>,
    /// Loads appearing in the expression (their values are part of the
    /// index — the `a[b[i]]` signature).
    pub loads: Vec<RefId>,
    /// True when the expression is not an affine function of the IVs
    /// (an IV multiplied by a non-constant, shifted by a variable, …).
    pub nonlinear: bool,
}

impl AffineInfo {
    fn constant() -> Self {
        Self::default()
    }

    fn poison(mut self) -> Self {
        self.nonlinear = true;
        self
    }

    /// The coefficient of `iv` (0 when absent).
    pub fn coeff(&self, iv: VarId) -> i64 {
        self.iv_coeffs.get(&iv).copied().unwrap_or(0)
    }

    /// True when no IV appears.
    pub fn is_invariant(&self) -> bool {
        self.iv_coeffs.values().all(|c| *c == 0)
    }

    fn merge_add(mut self, other: AffineInfo, sign: i64) -> AffineInfo {
        for (v, c) in other.iv_coeffs {
            *self.iv_coeffs.entry(v).or_insert(0) += sign * c;
        }
        self.loads.extend(other.loads);
        self.nonlinear |= other.nonlinear;
        self
    }

    fn scale(mut self, k: i64) -> AffineInfo {
        for c in self.iv_coeffs.values_mut() {
            *c *= k;
        }
        self
    }
}

/// Analyzes `e` as an affine function of `ivs`. Variables outside `ivs`
/// are treated as loop-invariant symbols (their contribution affects the
/// base address, not the per-iteration stride).
pub fn affine_of(e: &Expr, ivs: &[VarId]) -> AffineInfo {
    match e {
        Expr::I64(_) | Expr::F64(_) | Expr::ArrayBase(_) => AffineInfo::constant(),
        Expr::Var(v) => {
            let mut a = AffineInfo::constant();
            if ivs.contains(v) {
                a.iv_coeffs.insert(*v, 1);
            }
            a
        }
        Expr::Load(r) => {
            let mut a = AffineInfo::constant();
            a.loads.push(r.ref_id());
            a
        }
        Expr::Un(UnOp::Neg, x) => affine_of(x, ivs).scale(-1),
        Expr::Un(UnOp::Not, x) => {
            let a = affine_of(x, ivs);
            if a.is_invariant() {
                a
            } else {
                a.poison()
            }
        }
        Expr::Bin(op, x, y) => {
            let ax = affine_of(x, ivs);
            let ay = affine_of(y, ivs);
            match op {
                BinOp::Add => ax.merge_add(ay, 1),
                BinOp::Sub => ax.merge_add(ay, -1),
                BinOp::Mul => {
                    if let Some(k) = const_fold(y) {
                        let mut a = ax.scale(k);
                        a.loads.extend(ay.loads);
                        a
                    } else if let Some(k) = const_fold(x) {
                        let mut a = ay.scale(k);
                        a.loads.extend(ax.loads);
                        a
                    } else if ax.is_invariant() && ay.is_invariant() {
                        ax.merge_add(ay, 1)
                    } else {
                        ax.merge_add(ay, 1).poison()
                    }
                }
                BinOp::Shl => {
                    if let Some(k) = const_fold(y) {
                        ax.scale(1i64 << (k as u32).min(62))
                    } else if ax.is_invariant() {
                        ax.merge_add(ay, 1)
                    } else {
                        ax.merge_add(ay, 1).poison()
                    }
                }
                _ => {
                    // Division, remainder, bitwise ops: affine only when
                    // no IV is involved.
                    let merged = ax.merge_add(ay, 1);
                    if merged.is_invariant() {
                        merged
                    } else {
                        merged.poison()
                    }
                }
            }
        }
        Expr::Cmp(_, x, y) => {
            let merged = affine_of(x, ivs).merge_add(affine_of(y, ivs), 1);
            if merged.is_invariant() {
                merged
            } else {
                merged.poison()
            }
        }
    }
}

/// Element-size-resolved dims of an array (const dims only; `None` for
/// any symbolic extent).
pub fn const_dims(prog: &Program, a: ArrayId) -> Option<Vec<u64>> {
    prog.array(a)
        .dims
        .iter()
        .map(|d| match d {
            Dim::Const(n) => Some(*n),
            Dim::Sym => None,
        })
        .collect()
}

/// The per-iteration *byte* stride of an array-like reference with
/// respect to induction variable `iv` (per unit step of `iv`).
///
/// Returns `None` when the subscripts are non-affine, contain loads, or
/// when a non-innermost dimension varies under symbolic extents (the
/// row size — hence the stride — is unknown). `Some(0)` means the
/// reference is invariant in `iv`.
pub fn ref_byte_stride(model: &ProgramModel<'_>, site: &RefSite<'_>, iv: VarId) -> Option<i64> {
    let ivs = [iv];
    match site.mr {
        MemRef::Array { array, indices, .. } => {
            let decl = model.prog.array(*array);
            let elem = decl.elem.size() as i64;
            let infos: Vec<AffineInfo> = indices.iter().map(|e| affine_of(e, &ivs)).collect();
            if infos.iter().any(|a| a.nonlinear || !a.loads.is_empty()) {
                return None;
            }
            match const_dims(model.prog, *array) {
                Some(dims) => {
                    // Element strides: stride[d] = Π dims[d+1..].
                    let mut stride = vec![1i64; dims.len()];
                    for d in (0..dims.len().saturating_sub(1)).rev() {
                        stride[d] = stride[d + 1] * dims[d + 1] as i64;
                    }
                    let total: i64 = infos
                        .iter()
                        .zip(&stride)
                        .map(|(a, s)| a.coeff(iv) * s)
                        .sum();
                    Some(total * elem)
                }
                None => {
                    // Symbolic extents: only innermost-dimension movement
                    // has a known stride.
                    let n = infos.len();
                    if infos[..n - 1].iter().all(|a| a.coeff(iv) == 0) {
                        Some(infos[n - 1].coeff(iv) * elem)
                    } else {
                        None
                    }
                }
            }
        }
        MemRef::PtrIndex {
            base, elem, index, ..
        } => {
            let b = affine_of(base, &ivs);
            let i = affine_of(index, &ivs);
            if i.nonlinear || !i.loads.is_empty() || b.coeff(iv) != 0 || b.nonlinear {
                return None;
            }
            Some(i.coeff(iv) * elem.size() as i64)
        }
        MemRef::Deref { .. } | MemRef::Field { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_ir::build::*;
    use grp_ir::types::field;
    use grp_ir::{ElemTy, ProgramBuilder};

    #[test]
    fn const_fold_arithmetic() {
        assert_eq!(const_fold(&add(c(2), mul(c(3), c(4)))), Some(14));
        assert_eq!(const_fold(&shl(c(1), c(5))), Some(32));
        assert_eq!(const_fold(&var(VarId(0))), None);
        assert_eq!(const_fold(&div_(c(1), c(0))), None);
    }

    #[test]
    fn affine_simple_iv() {
        let iv = VarId(3);
        let a = affine_of(&add(mul(c(2), var(iv)), c(5)), &[iv]);
        assert_eq!(a.coeff(iv), 2);
        assert!(!a.nonlinear);
        assert!(a.loads.is_empty());
    }

    #[test]
    fn affine_symbolic_invariant_is_fine() {
        let iv = VarId(0);
        let sym = VarId(1);
        // i + n  (n loop-invariant)
        let a = affine_of(&add(var(iv), var(sym)), &[iv]);
        assert_eq!(a.coeff(iv), 1);
        assert!(!a.nonlinear);
    }

    #[test]
    fn affine_iv_times_symbol_is_nonlinear() {
        let iv = VarId(0);
        let sym = VarId(1);
        let a = affine_of(&mul(var(iv), var(sym)), &[iv]);
        assert!(a.nonlinear);
    }

    #[test]
    fn affine_records_loads() {
        let mut pb = ProgramBuilder::new("t");
        let b = pb.array("b", ElemTy::I32, &[4]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(4),
            1,
            vec![assign(s, load(arr(b, vec![var(i)])))],
        )]);
        // Build an expression with a load manually to test affine_of.
        let m = ProgramModel::build(&prog);
        assert_eq!(m.refs.len(), 1);
        let e = add(mul(c(4), load(arr(b, vec![var(i)]))), c(1));
        // (note: this standalone expr has UNASSIGNED ref ids; only the
        // loads list length matters here)
        let a = affine_of(&e, &[i]);
        assert_eq!(a.loads.len(), 1);
        assert_eq!(a.coeff(i), 0);
    }

    #[test]
    fn model_collects_loop_paths_and_trip_counts() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[8, 16]);
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(8),
            1,
            vec![for_(
                j,
                c(0),
                c(16),
                1,
                vec![assign(s, load(arr(a, vec![var(i), var(j)])))],
            )],
        )]);
        let m = ProgramModel::build(&prog);
        assert_eq!(m.loops.len(), 2);
        let site = m.site(RefId(0));
        assert_eq!(site.loop_path, vec![0, 1]);
        match &m.loops[0].kind {
            LoopKind::For { trip, .. } => assert_eq!(*trip, Some(8)),
            _ => panic!(),
        }
        assert_eq!(m.enclosing_ivs(site), vec![i, j]);
        assert_eq!(m.innermost_for(site), Some(1));
    }

    #[test]
    fn model_recognizes_induction_pointer() {
        let mut pb = ProgramBuilder::new("t");
        let p = pb.var("p");
        let e = pb.var("e");
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            lt(var(p), var(e)),
            vec![
                assign(s, load(deref(var(p), ElemTy::F64, 0))),
                assign(p, add(var(p), c(16))),
            ],
        )]);
        let m = ProgramModel::build(&prog);
        assert_eq!(m.updates[0].induction.get(&p), Some(&16));
    }

    #[test]
    fn model_recognizes_recurrent_pointer() {
        let mut pb = ProgramBuilder::new("t");
        let sid = pb.peek_struct_id();
        let node = pb.add_struct(
            "n",
            vec![field("next", ElemTy::ptr_to(sid)), field("v", ElemTy::I64)],
        );
        let p = pb.var("p");
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            ne(var(p), c(0)),
            vec![
                assign(s, load(fld(var(p), node, grp_ir::FieldId(1)))),
                assign(p, load(fld(var(p), node, grp_ir::FieldId(0)))),
            ],
        )]);
        let m = ProgramModel::build(&prog);
        assert_eq!(m.updates[0].recurrent.len(), 1);
        assert!(m.updates[0].recurrent.contains_key(&p));
    }

    #[test]
    fn singly_nested_detection() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[64]);
        let b = pb.array("b", ElemTy::F64, &[8, 8]);
        let i = pb.var("i");
        let j = pb.var("j");
        let k = pb.var("k");
        let s = pb.var("s");
        let prog = pb.finish(vec![
            for_(
                i,
                c(0),
                c(64),
                1,
                vec![assign(s, load(arr(a, vec![var(i)])))],
            ),
            for_(
                j,
                c(0),
                c(8),
                1,
                vec![for_(
                    k,
                    c(0),
                    c(8),
                    1,
                    vec![assign(s, load(arr(b, vec![var(j), var(k)])))],
                )],
            ),
        ]);
        let m = ProgramModel::build(&prog);
        assert!(m.is_singly_nested(0), "flat loop is singly nested");
        assert!(!m.is_singly_nested(1), "outer of a 2-nest is not");
        assert!(!m.is_singly_nested(2), "inner of a 2-nest is not");
    }
}
