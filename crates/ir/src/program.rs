//! Programs: expressions, memory references, statements, declarations.
//!
//! A [`Program`] is one kernel — the unit the Scale compiler would
//! compile and the unit the simulator runs. Static memory reference sites
//! are numbered with [`grp_cpu::RefId`]s (assigned by
//! [`crate::ProgramBuilder::finish`]); loops are numbered with
//! [`LoopId`]s. Hints attach per `RefId`, mirroring per-instruction hints
//! in the paper's binaries.

use grp_cpu::RefId;
use grp_mem::Addr;

use crate::types::{ElemTy, FieldId, StructDecl, StructId};

/// Identifier of a scalar variable (virtual register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// Identifier of a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

/// Identifier of a `for` loop within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

/// Placeholder for ids assigned by [`crate::ProgramBuilder::finish`].
pub(crate) const UNASSIGNED: u32 = u32::MAX;

/// One dimension of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Extent known at compile time.
    Const(u64),
    /// Extent bound at run time (symbolic to the compiler). The paper's
    /// analyses become conservative for symbolic bounds (§4.1).
    Sym,
}

/// A declared array. C arrays are row-major with the *last* index
/// spatial; workloads express Fortran column-major kernels by reversing
/// their subscript order, which preserves the locality structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name (diagnostics).
    pub name: String,
    /// Element type.
    pub elem: ElemTy,
    /// Dimensions, slowest-varying first.
    pub dims: Vec<Dim>,
    /// True when the array lives on the heap (`malloc`ed). Used by the
    /// §4.5 rule marking spatial references to heap arrays of pointers
    /// with the `pointer` hint.
    pub heap: bool,
}

/// Binary arithmetic/logic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (wrapping on integers).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division truncates; division by zero yields 0).
    Div,
    /// Remainder (by zero yields 0).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (0 ↦ 1, nonzero ↦ 0).
    Not,
}

/// Comparison operators; results are integer 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// A static memory reference site.
#[derive(Debug, Clone, PartialEq)]
pub enum MemRef {
    /// `a(i, j, …)` — subscripted reference to a declared array.
    Array {
        /// The array.
        array: ArrayId,
        /// Subscripts, slowest-varying dimension first.
        indices: Vec<Expr>,
        /// Static site id (assigned by the builder).
        ref_id: RefId,
    },
    /// `base[index]` — indexing a pointer value (a heap-array row,
    /// Figure 4's `buf[i][j]` inner access).
    PtrIndex {
        /// Pointer-valued base expression.
        base: Box<Expr>,
        /// Element type of the pointed-to row.
        elem: ElemTy,
        /// Index expression.
        index: Box<Expr>,
        /// Static site id.
        ref_id: RefId,
    },
    /// `p->f` — field access through a structure pointer.
    Field {
        /// Pointer-valued base expression.
        base: Box<Expr>,
        /// The structure type.
        strct: StructId,
        /// The field.
        field: FieldId,
        /// Static site id.
        ref_id: RefId,
    },
    /// `*(T *)(p + offset)` — raw dereference (induction pointers,
    /// Figure 5's `*p`).
    Deref {
        /// Pointer-valued base expression.
        base: Box<Expr>,
        /// Element type loaded/stored.
        elem: ElemTy,
        /// Constant byte offset.
        offset: i64,
        /// Static site id.
        ref_id: RefId,
    },
}

impl MemRef {
    /// The static site id.
    pub fn ref_id(&self) -> RefId {
        match self {
            MemRef::Array { ref_id, .. }
            | MemRef::PtrIndex { ref_id, .. }
            | MemRef::Field { ref_id, .. }
            | MemRef::Deref { ref_id, .. } => *ref_id,
        }
    }

    pub(crate) fn ref_id_mut(&mut self) -> &mut RefId {
        match self {
            MemRef::Array { ref_id, .. }
            | MemRef::PtrIndex { ref_id, .. }
            | MemRef::Field { ref_id, .. }
            | MemRef::Deref { ref_id, .. } => ref_id,
        }
    }
}

/// An expression. Evaluation is side-effect-free except for the loads it
/// performs (which emit trace events).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer constant.
    I64(i64),
    /// Float constant.
    F64(f64),
    /// Read a scalar variable.
    Var(VarId),
    /// Load through a memory reference.
    Load(MemRef),
    /// The base address of a declared array (`&a[0]`), as an integer.
    ArrayBase(ArrayId),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison producing 0/1.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `v = e`.
    Assign(VarId, Expr),
    /// `*ref = e`.
    Store(MemRef, Expr),
    /// `for (iv = lo; iv < hi; iv += step)` — when `step` is negative the
    /// condition is `iv > hi`. `id` is assigned by the builder.
    For {
        /// Loop id (builder-assigned).
        id: LoopId,
        /// Induction variable.
        iv: VarId,
        /// Lower bound (evaluated once at entry).
        lo: Expr,
        /// Upper bound (evaluated once at entry).
        hi: Expr,
        /// Step; must be nonzero.
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while (cond)`.
    While {
        /// Continuation condition (nonzero = continue).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `n` units of abstract computation (ALU/FP work the kernel
    /// skeleton elides relative to the original benchmark). Purely a
    /// timing annotation: no architectural effect.
    Work(u32),
    /// `if (cond) … else …`.
    If {
        /// Condition (nonzero = then).
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch.
        else_body: Vec<Stmt>,
    },
}

/// A complete kernel.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel name.
    pub name: String,
    /// Structure declarations.
    pub structs: Vec<StructDecl>,
    /// Array declarations.
    pub arrays: Vec<ArrayDecl>,
    /// Variable names, indexed by [`VarId`] (diagnostics).
    pub var_names: Vec<String>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// Number of static reference sites ([`RefId`]s `0..num_refs`).
    pub num_refs: u32,
    /// Number of loops ([`LoopId`]s `0..num_loops`).
    pub num_loops: u32,
}

impl Program {
    /// The declaration of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn array(&self, a: ArrayId) -> &ArrayDecl {
        &self.arrays[a.0 as usize]
    }

    /// The declaration of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn strct(&self, s: StructId) -> &StructDecl {
        &self.structs[s.0 as usize]
    }

    /// Creates an empty binding set sized for this program.
    pub fn bindings(&self) -> Bindings {
        Bindings {
            array_bases: vec![None; self.arrays.len()],
            array_dims: vec![None; self.arrays.len()],
            var_inits: Vec::new(),
        }
    }

    /// Number of scalar variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }
}

/// Runtime bindings for a program: array base addresses, symbolic
/// dimension extents, and initial variable values (how workload setup
/// code passes pointers into the kernel).
#[derive(Debug, Clone)]
pub struct Bindings {
    array_bases: Vec<Option<Addr>>,
    array_dims: Vec<Option<Vec<u64>>>,
    var_inits: Vec<(VarId, i64)>,
}

impl Bindings {
    /// Binds array `a`'s base address.
    pub fn bind_array(&mut self, a: ArrayId, base: Addr) -> &mut Self {
        self.array_bases[a.0 as usize] = Some(base);
        self
    }

    /// Binds array `a`'s base address and its runtime dimension extents
    /// (required when the declaration uses [`Dim::Sym`]).
    pub fn bind_array_dims(&mut self, a: ArrayId, base: Addr, dims: &[u64]) -> &mut Self {
        self.array_bases[a.0 as usize] = Some(base);
        self.array_dims[a.0 as usize] = Some(dims.to_vec());
        self
    }

    /// Sets the initial value of a scalar variable (e.g. a pointer
    /// parameter to the head of a list built by setup code).
    pub fn bind_var(&mut self, v: VarId, value: i64) -> &mut Self {
        self.var_inits.push((v, value));
        self
    }

    /// The bound base of `a`, if any.
    pub fn array_base(&self, a: ArrayId) -> Option<Addr> {
        self.array_bases[a.0 as usize]
    }

    /// The bound dims of `a`, if any.
    pub fn array_dims(&self, a: ArrayId) -> Option<&[u64]> {
        self.array_dims[a.0 as usize].as_deref()
    }

    /// Initial variable values.
    pub fn var_inits(&self) -> &[(VarId, i64)] {
        &self.var_inits
    }

    /// Resolves the extents of `a` against declaration `decl`.
    ///
    /// # Panics
    ///
    /// Panics if a symbolic dimension has no runtime binding.
    pub fn resolve_dims(&self, a: ArrayId, decl: &ArrayDecl) -> Vec<u64> {
        match self.array_dims(a) {
            Some(d) => {
                assert_eq!(
                    d.len(),
                    decl.dims.len(),
                    "dim arity mismatch for {}",
                    decl.name
                );
                d.to_vec()
            }
            None => decl
                .dims
                .iter()
                .map(|d| match d {
                    Dim::Const(n) => *n,
                    Dim::Sym => panic!(
                        "array {} has symbolic dims but no runtime binding",
                        decl.name
                    ),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::field;

    #[test]
    fn memref_ref_id_accessors() {
        let mut r = MemRef::Array {
            array: ArrayId(0),
            indices: vec![Expr::I64(0)],
            ref_id: RefId(5),
        };
        assert_eq!(r.ref_id(), RefId(5));
        *r.ref_id_mut() = RefId(9);
        assert_eq!(r.ref_id(), RefId(9));
    }

    #[test]
    fn bindings_resolve_const_dims() {
        let p = Program {
            name: "t".into(),
            structs: vec![],
            arrays: vec![ArrayDecl {
                name: "a".into(),
                elem: ElemTy::F64,
                dims: vec![Dim::Const(4), Dim::Const(8)],
                heap: false,
            }],
            var_names: vec![],
            body: vec![],
            num_refs: 0,
            num_loops: 0,
        };
        let b = p.bindings();
        assert_eq!(b.resolve_dims(ArrayId(0), p.array(ArrayId(0))), vec![4, 8]);
    }

    #[test]
    fn bindings_resolve_symbolic_dims() {
        let p = Program {
            name: "t".into(),
            structs: vec![],
            arrays: vec![ArrayDecl {
                name: "a".into(),
                elem: ElemTy::F64,
                dims: vec![Dim::Sym],
                heap: true,
            }],
            var_names: vec![],
            body: vec![],
            num_refs: 0,
            num_loops: 0,
        };
        let mut b = p.bindings();
        b.bind_array_dims(ArrayId(0), Addr(0x1000), &[128]);
        assert_eq!(b.resolve_dims(ArrayId(0), p.array(ArrayId(0))), vec![128]);
        assert_eq!(b.array_base(ArrayId(0)), Some(Addr(0x1000)));
    }

    #[test]
    #[should_panic(expected = "symbolic dims")]
    fn unbound_symbolic_dims_panic() {
        let p = Program {
            name: "t".into(),
            structs: vec![],
            arrays: vec![ArrayDecl {
                name: "a".into(),
                elem: ElemTy::F64,
                dims: vec![Dim::Sym],
                heap: true,
            }],
            var_names: vec![],
            body: vec![],
            num_refs: 0,
            num_loops: 0,
        };
        p.bindings().resolve_dims(ArrayId(0), p.array(ArrayId(0)));
    }

    #[test]
    fn program_accessors() {
        let p = Program {
            name: "t".into(),
            structs: vec![StructDecl::new("s", vec![field("x", ElemTy::I64)])],
            arrays: vec![],
            var_names: vec!["i".into()],
            body: vec![],
            num_refs: 0,
            num_loops: 0,
        };
        assert_eq!(p.strct(StructId(0)).name, "s");
        assert_eq!(p.num_vars(), 1);
    }
}
