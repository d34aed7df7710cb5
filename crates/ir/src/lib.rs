//! Loop-structured compiler IR for the GRP reproduction.
//!
//! The paper's software half is the Scale compiler analysing C and
//! Fortran 77 sources (§4, §5.1). This crate is the reproduction's
//! stand-in source language: a small, executable, loop-structured IR
//! rich enough to express every reference pattern the paper's analyses
//! distinguish —
//!
//! * multi-dimensional affine array references (`a(i,j)`, Figure 3),
//! * heap arrays of pointers to rows (`buf[i][j]`, Figure 4),
//! * loop induction pointers (`p += c; *p`, Figure 5),
//! * recursive pointer structures (`a = a->next`, Figure 6),
//! * indirect array references (`c(b(i), j)`, §4.3).
//!
//! Programs are *executable*: [`interp::Interpreter`] runs a program
//! once against a [`grp_mem::Memory`] and records a hint-free
//! [`grp_cpu::Trace`] of loads/stores plus its `For`-loop entries
//! ([`view::BaseTrace`]). A [`view::HintView`] applies one compiler
//! configuration's [`HintMap`] to it (per-reference hints, loop-bound and
//! indirect-prefetch pseudo-instructions), yielding the event stream the
//! timing simulator replays. The compiler analyses in `grp-compiler`
//! operate on the same [`Program`] structure, so hints are *derived*, not
//! hand-written.
//!
//! # Example
//!
//! ```
//! use grp_ir::build::*;
//! use grp_ir::{ElemTy, ProgramBuilder, HintMap, HintView};
//! use grp_ir::interp::Interpreter;
//! use grp_mem::{Memory, HeapAllocator, Addr};
//!
//! // for (i = 0; i < 64; i++) sum += a[i];
//! let mut pb = ProgramBuilder::new("sum");
//! let a = pb.array("a", ElemTy::F64, &[64]);
//! let i = pb.var("i");
//! let sum = pb.var("sum");
//! let body = vec![
//!     assign(sum, f(0.0)),
//!     for_(i, c(0), c(64), 1, vec![
//!         assign(sum, add(var(sum), load(arr(a, vec![var(i)])))),
//!     ]),
//! ];
//! let prog = pb.finish(body);
//!
//! let mut mem = Memory::new();
//! let mut heap = HeapAllocator::new(Addr(0x10_0000));
//! let base = heap.alloc_array(64, 8);
//! let mut bind = prog.bindings();
//! bind.bind_array(a, base);
//! let base = Interpreter::new(&prog, &bind).run(&mut mem).unwrap();
//! assert_eq!(base.trace().loads(), 64);
//!
//! // Hints are a view over the one hint-free trace.
//! let mut hints = HintMap::sized(prog.num_refs, prog.num_loops);
//! hints.mark_loop_bound(grp_ir::LoopId(0));
//! let hinted = HintView::new(&base, &hints, &prog, &bind).unwrap().to_trace();
//! assert_eq!(hinted.instructions(), base.trace().instructions() + 1);
//! ```

#![deny(missing_docs)]

pub mod build;
pub mod hintmap;
pub mod interp;
pub mod program;
pub mod types;
pub mod view;

pub use build::ProgramBuilder;
pub use hintmap::{HintMap, IndirectSpec};
pub use program::{
    ArrayDecl, ArrayId, BinOp, Bindings, CmpOp, Dim, Expr, LoopId, MemRef, Program, Stmt, UnOp,
    VarId,
};
pub use types::{ElemTy, Field, FieldId, StructDecl, StructId};
pub use view::{BaseTrace, HintView, LoopEntry};
