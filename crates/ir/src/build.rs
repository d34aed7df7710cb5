//! Program construction: [`ProgramBuilder`] plus a compact expression
//! DSL.
//!
//! Reference sites ([`grp_cpu::RefId`]) and loops ([`LoopId`]) are
//! numbered by [`ProgramBuilder::finish`] in a deterministic pre-order
//! walk, so workload authors never manage ids by hand and the compiler's
//! per-site hint tables line up with the interpreter's trace events.

use grp_cpu::RefId;

use crate::program::{
    ArrayDecl, ArrayId, BinOp, CmpOp, Dim, Expr, LoopId, MemRef, Program, Stmt, UnOp, VarId,
    UNASSIGNED,
};
use crate::types::{ElemTy, Field, StructDecl, StructId};

/// Incremental builder for a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    structs: Vec<StructDecl>,
    arrays: Vec<ArrayDecl>,
    var_names: Vec<String>,
}

impl ProgramBuilder {
    /// Starts a program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The id the *next* struct declaration will receive — lets a
    /// structure's fields point to the structure itself (`struct t *next`).
    pub fn peek_struct_id(&self) -> StructId {
        StructId(self.structs.len() as u32)
    }

    /// Declares a structure.
    pub fn add_struct(&mut self, name: impl Into<String>, fields: Vec<Field>) -> StructId {
        let id = self.peek_struct_id();
        self.structs.push(StructDecl::new(name, fields));
        id
    }

    /// Declares a statically-sized global array.
    pub fn array(&mut self, name: impl Into<String>, elem: ElemTy, dims: &[u64]) -> ArrayId {
        self.array_decl(ArrayDecl {
            name: name.into(),
            elem,
            dims: dims.iter().map(|d| Dim::Const(*d)).collect(),
            heap: false,
        })
    }

    /// Declares a statically-sized heap array (`malloc`ed; participates in
    /// the §4.5 heap-array-of-pointers rule).
    pub fn heap_array(&mut self, name: impl Into<String>, elem: ElemTy, dims: &[u64]) -> ArrayId {
        self.array_decl(ArrayDecl {
            name: name.into(),
            elem,
            dims: dims.iter().map(|d| Dim::Const(*d)).collect(),
            heap: true,
        })
    }

    /// Declares an array with symbolic (runtime-bound) dimensions.
    pub fn sym_array(
        &mut self,
        name: impl Into<String>,
        elem: ElemTy,
        ndims: usize,
        heap: bool,
    ) -> ArrayId {
        self.array_decl(ArrayDecl {
            name: name.into(),
            elem,
            dims: vec![Dim::Sym; ndims],
            heap,
        })
    }

    /// Declares an array from a full declaration.
    pub fn array_decl(&mut self, decl: ArrayDecl) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(decl);
        id
    }

    /// Declares a scalar variable.
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.into());
        id
    }

    /// Finalizes the program, assigning [`RefId`]s and [`LoopId`]s in
    /// pre-order.
    pub fn finish(self, mut body: Vec<Stmt>) -> Program {
        let mut next_ref = 0u32;
        let mut next_loop = 0u32;
        for s in &mut body {
            number_stmt(s, &mut next_ref, &mut next_loop);
        }
        Program {
            name: self.name,
            structs: self.structs,
            arrays: self.arrays,
            var_names: self.var_names,
            body,
            num_refs: next_ref,
            num_loops: next_loop,
        }
    }
}

fn number_stmt(s: &mut Stmt, next_ref: &mut u32, next_loop: &mut u32) {
    match s {
        Stmt::Assign(_, e) => number_expr(e, next_ref),
        Stmt::Work(_) => {}
        Stmt::Store(r, e) => {
            number_ref(r, next_ref);
            number_expr(e, next_ref);
        }
        Stmt::For {
            id, lo, hi, body, ..
        } => {
            debug_assert_eq!(id.0, UNASSIGNED, "loop already numbered");
            *id = LoopId(*next_loop);
            *next_loop += 1;
            number_expr(lo, next_ref);
            number_expr(hi, next_ref);
            for s in body {
                number_stmt(s, next_ref, next_loop);
            }
        }
        Stmt::While { cond, body } => {
            number_expr(cond, next_ref);
            for s in body {
                number_stmt(s, next_ref, next_loop);
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            number_expr(cond, next_ref);
            for s in then_body.iter_mut().chain(else_body.iter_mut()) {
                number_stmt(s, next_ref, next_loop);
            }
        }
    }
}

fn number_expr(e: &mut Expr, next_ref: &mut u32) {
    match e {
        Expr::I64(_) | Expr::F64(_) | Expr::Var(_) | Expr::ArrayBase(_) => {}
        Expr::Load(r) => number_ref(r, next_ref),
        Expr::Un(_, a) => number_expr(a, next_ref),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
            number_expr(a, next_ref);
            number_expr(b, next_ref);
        }
    }
}

fn number_ref(r: &mut MemRef, next_ref: &mut u32) {
    // Number sub-expressions first so an index load (e.g. `b[i]` inside
    // `a[b[i]]`) receives a smaller RefId than its enclosing reference.
    match r {
        MemRef::Array { indices, .. } => {
            for e in indices {
                number_expr(e, next_ref);
            }
        }
        MemRef::PtrIndex { base, index, .. } => {
            number_expr(base, next_ref);
            number_expr(index, next_ref);
        }
        MemRef::Field { base, .. } | MemRef::Deref { base, .. } => {
            number_expr(base, next_ref);
        }
    }
    debug_assert_eq!(r.ref_id().0, UNASSIGNED, "reference already numbered");
    *r.ref_id_mut() = RefId(*next_ref);
    *next_ref += 1;
}

// ---------------------------------------------------------------------
// Expression DSL
// ---------------------------------------------------------------------

/// Integer constant.
pub fn c(v: i64) -> Expr {
    Expr::I64(v)
}

/// Float constant.
pub fn f(v: f64) -> Expr {
    Expr::F64(v)
}

/// Variable read.
pub fn var(v: VarId) -> Expr {
    Expr::Var(v)
}

/// Load through a reference.
pub fn load(r: MemRef) -> Expr {
    Expr::Load(r)
}

/// `&a[0]` as an integer value.
pub fn array_base(a: ArrayId) -> Expr {
    Expr::ArrayBase(a)
}

/// Array reference `a(i, j, …)`.
pub fn arr(a: ArrayId, indices: Vec<Expr>) -> MemRef {
    MemRef::Array {
        array: a,
        indices,
        ref_id: RefId(UNASSIGNED),
    }
}

/// Pointer-indexed reference `base[index]`.
pub fn ptr_index(base: Expr, elem: ElemTy, index: Expr) -> MemRef {
    MemRef::PtrIndex {
        base: Box::new(base),
        elem,
        index: Box::new(index),
        ref_id: RefId(UNASSIGNED),
    }
}

/// Field access `base->field`.
pub fn fld(base: Expr, strct: StructId, field: crate::types::FieldId) -> MemRef {
    MemRef::Field {
        base: Box::new(base),
        strct,
        field,
        ref_id: RefId(UNASSIGNED),
    }
}

/// Raw dereference `*(elem*)(base + offset)`.
pub fn deref(base: Expr, elem: ElemTy, offset: i64) -> MemRef {
    MemRef::Deref {
        base: Box::new(base),
        elem,
        offset,
        ref_id: RefId(UNASSIGNED),
    }
}

macro_rules! binop_fns {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(a: Expr, b: Expr) -> Expr {
                Expr::Bin(BinOp::$op, Box::new(a), Box::new(b))
            }
        )*
    };
}

binop_fns! {
    /// `a + b`.
    add => Add,
    /// `a - b`.
    sub => Sub,
    /// `a * b`.
    mul => Mul,
    /// `a / b` (integer division truncates; by zero yields 0).
    div_ => Div,
    /// `a % b` (by zero yields 0).
    rem => Rem,
    /// `a & b`.
    and_ => And,
    /// `a | b`.
    or_ => Or,
    /// `a ^ b`.
    xor_ => Xor,
    /// `a << b`.
    shl => Shl,
    /// `a >> b` (arithmetic).
    shr => Shr,
    /// `min(a, b)`.
    min_ => Min,
    /// `max(a, b)`.
    max_ => Max,
}

/// `-a`.
pub fn neg(a: Expr) -> Expr {
    Expr::Un(UnOp::Neg, Box::new(a))
}

/// `!a` (logical).
pub fn not_(a: Expr) -> Expr {
    Expr::Un(UnOp::Not, Box::new(a))
}

macro_rules! cmp_fns {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(a: Expr, b: Expr) -> Expr {
                Expr::Cmp(CmpOp::$op, Box::new(a), Box::new(b))
            }
        )*
    };
}

cmp_fns! {
    /// `a == b`.
    eq => Eq,
    /// `a != b`.
    ne => Ne,
    /// `a < b`.
    lt => Lt,
    /// `a <= b`.
    le => Le,
    /// `a > b`.
    gt => Gt,
    /// `a >= b`.
    ge => Ge,
}

/// `v = e`.
pub fn assign(v: VarId, e: Expr) -> Stmt {
    Stmt::Assign(v, e)
}

/// `*r = e`.
pub fn store(r: MemRef, e: Expr) -> Stmt {
    Stmt::Store(r, e)
}

/// `for (iv = lo; iv < hi; iv += step)` (`>` for negative step).
pub fn for_(iv: VarId, lo: Expr, hi: Expr, step: i64, body: Vec<Stmt>) -> Stmt {
    assert!(step != 0, "loop step must be nonzero");
    Stmt::For {
        id: LoopId(UNASSIGNED),
        iv,
        lo,
        hi,
        step,
        body,
    }
}

/// `n` units of abstract computation.
pub fn work(n: u32) -> Stmt {
    Stmt::Work(n)
}

/// `while (cond)`.
pub fn while_(cond: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::While { cond, body }
}

/// `if (cond) { then } else { els }`.
pub fn if_(cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::field;

    #[test]
    fn finish_numbers_refs_in_preorder() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[16]);
        let b = pb.array("b", ElemTy::I32, &[16]);
        let i = pb.var("i");
        let s = pb.var("s");
        // s += a[b[i]] — b's load must get the smaller RefId.
        let body = vec![for_(
            i,
            c(0),
            c(16),
            1,
            vec![assign(
                s,
                add(var(s), load(arr(a, vec![load(arr(b, vec![var(i)]))]))),
            )],
        )];
        let p = pb.finish(body);
        assert_eq!(p.num_refs, 2);
        assert_eq!(p.num_loops, 1);
        // Walk to verify: inner (b) is RefId 0, outer (a) is RefId 1.
        if let Stmt::For { body, id, .. } = &p.body[0] {
            assert_eq!(*id, LoopId(0));
            if let Stmt::Assign(_, Expr::Bin(_, _, rhs)) = &body[0] {
                if let Expr::Load(MemRef::Array {
                    ref_id, indices, ..
                }) = rhs.as_ref()
                {
                    assert_eq!(*ref_id, RefId(1));
                    if let Expr::Load(inner) = &indices[0] {
                        assert_eq!(inner.ref_id(), RefId(0));
                    } else {
                        panic!("inner load missing");
                    }
                } else {
                    panic!("outer load missing");
                }
            } else {
                panic!("assign shape unexpected");
            }
        } else {
            panic!("for missing");
        }
    }

    #[test]
    fn struct_self_reference_via_peek() {
        let mut pb = ProgramBuilder::new("t");
        let sid = pb.peek_struct_id();
        let got = pb.add_struct(
            "node",
            vec![field("next", ElemTy::ptr_to(sid)), field("v", ElemTy::F64)],
        );
        assert_eq!(sid, got);
        let p = pb.finish(vec![]);
        assert_eq!(p.strct(sid).recursive_fields(sid).len(), 1);
    }

    #[test]
    fn declarations_accumulate() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4, 4]);
        let h = pb.heap_array("h", ElemTy::ptr(), &[4]);
        let s = pb.sym_array("s", ElemTy::I32, 1, true);
        let v = pb.var("v");
        let p = pb.finish(vec![assign(v, c(0))]);
        assert_eq!(a, ArrayId(0));
        assert_eq!(h, ArrayId(1));
        assert_eq!(s, ArrayId(2));
        assert!(!p.array(a).heap);
        assert!(p.array(h).heap);
        assert_eq!(p.array(s).dims, vec![Dim::Sym]);
        assert_eq!(p.num_vars(), 1);
    }

    #[test]
    fn loops_number_nested() {
        let mut pb = ProgramBuilder::new("t");
        let i = pb.var("i");
        let j = pb.var("j");
        let body = vec![for_(i, c(0), c(2), 1, vec![for_(j, c(0), c(2), 1, vec![])])];
        let p = pb.finish(body);
        assert_eq!(p.num_loops, 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_step_rejected() {
        let _ = for_(VarId(0), c(0), c(1), 0, vec![]);
    }
}
