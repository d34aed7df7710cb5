//! Exhaustive operator-semantics tests for the interpreter: every
//! `BinOp`/`UnOp`/`CmpOp` on integer and float paths, checked by storing
//! results into memory.

use grp_ir::build::*;
use grp_ir::interp::Interpreter;
use grp_ir::{ElemTy, HintMap, ProgramBuilder};
use grp_mem::{Addr, Memory};

/// Evaluates an integer expression by storing it to a[0].
fn eval_i64(e: grp_ir::Expr) -> i64 {
    let mut pb = ProgramBuilder::new("eval");
    let a = pb.array("a", ElemTy::I64, &[1]);
    let prog = pb.finish(vec![store(arr(a, vec![c(0)]), e)]);
    let mut mem = Memory::new();
    let mut bind = prog.bindings();
    bind.bind_array(a, Addr(0x1000));
    Interpreter::new(&prog, &bind, &HintMap::empty())
        .run(&mut mem)
        .expect("runs");
    mem.read_i64(Addr(0x1000))
}

/// Evaluates a float expression by storing it to a[0].
fn eval_f64(e: grp_ir::Expr) -> f64 {
    let mut pb = ProgramBuilder::new("eval");
    let a = pb.array("a", ElemTy::F64, &[1]);
    let prog = pb.finish(vec![store(arr(a, vec![c(0)]), e)]);
    let mut mem = Memory::new();
    let mut bind = prog.bindings();
    bind.bind_array(a, Addr(0x1000));
    Interpreter::new(&prog, &bind, &HintMap::empty())
        .run(&mut mem)
        .expect("runs");
    mem.read_f64(Addr(0x1000))
}

#[test]
fn integer_arithmetic() {
    assert_eq!(eval_i64(add(c(2), c(3))), 5);
    assert_eq!(eval_i64(sub(c(2), c(3))), -1);
    assert_eq!(eval_i64(mul(c(-4), c(3))), -12);
    assert_eq!(eval_i64(div_(c(7), c(2))), 3);
    assert_eq!(eval_i64(div_(c(7), c(0))), 0, "division by zero yields 0");
    assert_eq!(eval_i64(rem(c(7), c(4))), 3);
    assert_eq!(eval_i64(rem(c(7), c(0))), 0);
    assert_eq!(eval_i64(min_(c(3), c(-5))), -5);
    assert_eq!(eval_i64(max_(c(3), c(-5))), 3);
    assert_eq!(eval_i64(neg(c(9))), -9);
}

#[test]
fn integer_bitwise() {
    assert_eq!(eval_i64(and_(c(0b1100), c(0b1010))), 0b1000);
    assert_eq!(eval_i64(or_(c(0b1100), c(0b1010))), 0b1110);
    assert_eq!(eval_i64(xor_(c(0b1100), c(0b1010))), 0b0110);
    assert_eq!(eval_i64(shl(c(3), c(4))), 48);
    assert_eq!(eval_i64(shr(c(-16), c(2))), -4, "arithmetic shift");
    assert_eq!(eval_i64(not_(c(0))), 1);
    assert_eq!(eval_i64(not_(c(7))), 0);
}

#[test]
fn integer_comparisons() {
    assert_eq!(eval_i64(eq(c(3), c(3))), 1);
    assert_eq!(eval_i64(ne(c(3), c(3))), 0);
    assert_eq!(eval_i64(lt(c(2), c(3))), 1);
    assert_eq!(eval_i64(le(c(3), c(3))), 1);
    assert_eq!(eval_i64(gt(c(2), c(3))), 0);
    assert_eq!(eval_i64(ge(c(2), c(3))), 0);
}

#[test]
fn float_arithmetic_and_coercion() {
    assert_eq!(eval_f64(add(f(1.5), f(2.25))), 3.75);
    assert_eq!(eval_f64(mul(f(1.5), c(4))), 6.0, "mixed int/float coerces");
    assert_eq!(
        eval_f64(div_(f(1.0), f(0.0))),
        0.0,
        "guarded float division"
    );
    assert_eq!(eval_f64(min_(f(1.5), f(-2.0))), -2.0);
    assert_eq!(eval_f64(max_(f(1.5), f(-2.0))), 1.5);
    assert_eq!(eval_f64(neg(f(2.5))), -2.5);
}

#[test]
fn float_comparisons() {
    assert_eq!(eval_i64(lt(f(1.0), f(2.0))), 1);
    assert_eq!(eval_i64(ge(f(1.0), f(2.0))), 0);
    assert_eq!(eval_i64(eq(f(2.0), c(2))), 1, "mixed compare coerces");
}

#[test]
fn element_width_conversions_round_trip() {
    // Store through every element width and read back sign-correctly.
    let mut pb = ProgramBuilder::new("widths");
    let a8 = pb.array("a8", ElemTy::I8, &[1]);
    let a16 = pb.array("a16", ElemTy::I16, &[1]);
    let a32 = pb.array("a32", ElemTy::I32, &[1]);
    let f32a = pb.array("f32a", ElemTy::F32, &[1]);
    let out = pb.array("out", ElemTy::I64, &[4]);
    let prog = pb.finish(vec![
        store(arr(a8, vec![c(0)]), c(-2)),
        store(arr(a16, vec![c(0)]), c(-300)),
        store(arr(a32, vec![c(0)]), c(-70000)),
        store(arr(f32a, vec![c(0)]), f(2.5)),
        store(arr(out, vec![c(0)]), load(arr(a8, vec![c(0)]))),
        store(arr(out, vec![c(1)]), load(arr(a16, vec![c(0)]))),
        store(arr(out, vec![c(2)]), load(arr(a32, vec![c(0)]))),
        store(arr(out, vec![c(3)]), load(arr(f32a, vec![c(0)]))),
    ]);
    let mut mem = Memory::new();
    let mut bind = prog.bindings();
    bind.bind_array(a8, Addr(0x1000));
    bind.bind_array(a16, Addr(0x1100));
    bind.bind_array(a32, Addr(0x1200));
    bind.bind_array(f32a, Addr(0x1300));
    bind.bind_array(out, Addr(0x2000));
    Interpreter::new(&prog, &bind, &HintMap::empty())
        .run(&mut mem)
        .expect("runs");
    assert_eq!(mem.read_i64(Addr(0x2000)), -2, "i8 sign-extends");
    assert_eq!(mem.read_i64(Addr(0x2008)), -300, "i16 sign-extends");
    assert_eq!(mem.read_i64(Addr(0x2010)), -70000, "i32 sign-extends");
    assert_eq!(mem.read_i64(Addr(0x2018)), 2, "f32 truncates to int store");
}

#[test]
fn negative_step_loops_count_down() {
    let mut pb = ProgramBuilder::new("down");
    let a = pb.array("a", ElemTy::I64, &[8]);
    let i = pb.var("i");
    let prog = pb.finish(vec![for_(
        i,
        c(7),
        c(-1),
        -1,
        vec![store(arr(a, vec![var(i)]), var(i))],
    )]);
    let mut mem = Memory::new();
    let mut bind = prog.bindings();
    bind.bind_array(a, Addr(0x1000));
    let t = Interpreter::new(&prog, &bind, &HintMap::empty())
        .run(&mut mem)
        .expect("runs");
    assert_eq!(t.stores(), 8);
    assert_eq!(mem.read_i64(Addr(0x1000)), 0);
    assert_eq!(mem.read_i64(Addr(0x1038)), 7);
}

#[test]
fn array_base_matches_binding() {
    let mut pb = ProgramBuilder::new("base");
    let a = pb.array("a", ElemTy::I64, &[4]);
    let out = pb.array("out", ElemTy::I64, &[1]);
    let prog = pb.finish(vec![store(arr(out, vec![c(0)]), array_base(a))]);
    let mut mem = Memory::new();
    let mut bind = prog.bindings();
    bind.bind_array(a, Addr(0xABC0));
    bind.bind_array(out, Addr(0x2000));
    Interpreter::new(&prog, &bind, &HintMap::empty())
        .run(&mut mem)
        .expect("runs");
    assert_eq!(mem.read_u64(Addr(0x2000)), 0xABC0);
}
