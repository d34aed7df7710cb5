//! The IR interpreter: functional execution producing a hinted trace.
//!
//! [`Interpreter::run`] executes a [`Program`] against a
//! [`grp_mem::Memory`], recording every load and store (with the
//! compiler's per-site hints attached) into a [`grp_cpu::Trace`]. Two
//! properties matter for fidelity to the paper:
//!
//! * **Real data flow.** Loads read actual memory contents, so linked
//!   structures traverse the pointers workload setup code planted, and
//!   the timing simulator can later re-read the same memory when the GRP
//!   engine scans fetched blocks for pointers (§3.2) or reads index
//!   arrays (§3.3.3).
//! * **Address dependencies.** Every value carries the dynamic load that
//!   produced it; a load whose *address* derives from another load gets a
//!   dependency edge in the trace, so pointer chasing serializes in the
//!   timing model exactly as in hardware.

use std::error::Error;
use std::fmt;

use grp_cpu::{RefId, Trace};
use grp_mem::{Addr, Memory};

use crate::hintmap::HintMap;
use crate::program::{BinOp, Bindings, CmpOp, Expr, MemRef, Program, Stmt, UnOp};
use crate::types::ElemTy;

/// Interpretation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An array was referenced without a bound base address.
    UnboundArray(String),
    /// The trace exceeded the configured event limit (runaway loop guard).
    EventLimit(u64),
    /// The program executed more statements than the configured limit.
    StepLimit(u64),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnboundArray(name) => {
                write!(f, "array `{name}` has no bound base address")
            }
            InterpError::EventLimit(n) => write!(f, "trace exceeded {n} events"),
            InterpError::StepLimit(n) => write!(f, "execution exceeded {n} statements"),
        }
    }
}

impl Error for InterpError {}

#[derive(Debug, Clone, Copy)]
enum Num {
    I(i64),
    F(f64),
}

#[derive(Debug, Clone, Copy)]
struct Val {
    n: Num,
    tag: Option<u64>,
}

impl Val {
    fn int_untagged(v: i64) -> Self {
        Val {
            n: Num::I(v),
            tag: None,
        }
    }

    fn as_i64(self) -> i64 {
        match self.n {
            Num::I(v) => v,
            Num::F(v) => v as i64,
        }
    }

    fn as_f64(self) -> f64 {
        match self.n {
            Num::I(v) => v as f64,
            Num::F(v) => v,
        }
    }

    fn is_float(self) -> bool {
        matches!(self.n, Num::F(_))
    }
}

fn merge_tag(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

struct RefInfo {
    addr: Addr,
    elem: ElemTy,
    dep: Option<u64>,
    ref_id: RefId,
}

/// Executes a program, producing the dynamic trace.
pub struct Interpreter<'a> {
    prog: &'a Program,
    hints: &'a HintMap,
    vars: Vec<Val>,
    bases: Vec<Option<Addr>>,
    dims: Vec<Vec<u64>>,
    trace: Trace,
    ops: u32,
    steps: u64,
    max_events: u64,
    max_steps: u64,
    last_indirect_block: Vec<Option<u64>>,
}

impl<'a> Interpreter<'a> {
    /// Prepares an interpreter for `prog` with runtime `bind`ings and the
    /// compiler's `hints`.
    pub fn new(prog: &'a Program, bind: &'a Bindings, hints: &'a HintMap) -> Self {
        let mut vars = vec![Val::int_untagged(0); prog.num_vars()];
        for (v, init) in bind.var_inits() {
            vars[v.0 as usize] = Val::int_untagged(*init);
        }
        let bases = (0..prog.arrays.len())
            .map(|i| bind.array_base(crate::program::ArrayId(i as u32)))
            .collect();
        let dims = prog
            .arrays
            .iter()
            .enumerate()
            .map(|(i, decl)| {
                let id = crate::program::ArrayId(i as u32);
                if bind.array_base(id).is_some() {
                    bind.resolve_dims(id, decl)
                } else {
                    // Unbound arrays resolve lazily to an error on use;
                    // constant dims are still available for diagnostics.
                    decl.dims
                        .iter()
                        .map(|d| match d {
                            crate::program::Dim::Const(n) => *n,
                            crate::program::Dim::Sym => 0,
                        })
                        .collect()
                }
            })
            .collect();
        Self {
            prog,
            hints,
            vars,
            bases,
            dims,
            trace: Trace::new(),
            ops: 0,
            steps: 0,
            max_events: 100_000_000,
            max_steps: 1_000_000_000,
            last_indirect_block: vec![None; prog.num_refs as usize],
        }
    }

    /// Overrides the trace-event limit (runaway guard).
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Overrides the executed-statement limit.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] when an array is unbound or an execution
    /// limit is exceeded.
    pub fn run(mut self, mem: &mut Memory) -> Result<Trace, InterpError> {
        // Split borrow: body belongs to prog, which we also need in &self.
        let body = &self.prog.body;
        for s in body {
            self.exec(s, mem)?;
        }
        self.flush_ops();
        self.trace.finish();
        Ok(self.trace)
    }

    fn flush_ops(&mut self) {
        if self.ops > 0 {
            self.trace.push_compute(self.ops);
            self.ops = 0;
        }
    }

    fn check_limits(&self) -> Result<(), InterpError> {
        if self.trace.events().len() as u64 > self.max_events {
            return Err(InterpError::EventLimit(self.max_events));
        }
        if self.steps > self.max_steps {
            return Err(InterpError::StepLimit(self.max_steps));
        }
        Ok(())
    }

    fn exec(&mut self, s: &'a Stmt, mem: &mut Memory) -> Result<(), InterpError> {
        self.steps += 1;
        self.check_limits()?;
        match s {
            Stmt::Assign(v, e) => {
                let val = self.eval(e, mem)?;
                self.vars[v.0 as usize] = val;
            }
            Stmt::Work(n) => {
                self.ops = self.ops.saturating_add(*n);
            }
            Stmt::Store(r, e) => {
                let val = self.eval(e, mem)?;
                let info = self.eval_ref(r, mem)?;
                self.flush_ops();
                self.trace.push_store(
                    info.addr,
                    info.elem.size() as u8,
                    info.ref_id,
                    self.hints.hint(info.ref_id),
                );
                self.write_elem(mem, info.addr, info.elem, val);
            }
            Stmt::For {
                id,
                iv,
                lo,
                hi,
                step,
                body,
            } => {
                let lo_v = self.eval(lo, mem)?.as_i64();
                let hi_v = self.eval(hi, mem)?.as_i64();
                if self.hints.emits_bound(*id) {
                    let trip = if *step > 0 {
                        (hi_v - lo_v).max(0) as u64 / *step as u64
                            + u64::from(!((hi_v - lo_v).max(0) as u64).is_multiple_of(*step as u64))
                    } else {
                        (lo_v - hi_v).max(0) as u64 / step.unsigned_abs()
                            + u64::from(
                                !((lo_v - hi_v).max(0) as u64).is_multiple_of(step.unsigned_abs()),
                            )
                    };
                    self.flush_ops();
                    self.trace
                        .push_set_loop_bound(trip.min(u32::MAX as u64) as u32);
                }
                let mut i = lo_v;
                loop {
                    let cont = if *step > 0 { i < hi_v } else { i > hi_v };
                    if !cont {
                        break;
                    }
                    self.vars[iv.0 as usize] = Val::int_untagged(i);
                    for st in body {
                        self.exec(st, mem)?;
                    }
                    self.ops += 2; // increment + branch
                    self.steps += 1;
                    self.check_limits()?;
                    i += *step;
                }
            }
            Stmt::While { cond, body } => loop {
                let c = self.eval(cond, mem)?;
                self.ops += 1; // branch
                if c.as_i64() == 0 {
                    break;
                }
                for st in body {
                    self.exec(st, mem)?;
                }
                self.steps += 1;
                self.check_limits()?;
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, mem)?;
                self.ops += 1; // branch
                let branch = if c.as_i64() != 0 {
                    then_body
                } else {
                    else_body
                };
                for st in branch {
                    self.exec(st, mem)?;
                }
            }
        }
        Ok(())
    }

    fn eval(&mut self, e: &'a Expr, mem: &mut Memory) -> Result<Val, InterpError> {
        Ok(match e {
            Expr::I64(v) => Val::int_untagged(*v),
            Expr::F64(v) => Val {
                n: Num::F(*v),
                tag: None,
            },
            Expr::Var(v) => self.vars[v.0 as usize],
            Expr::ArrayBase(a) => {
                let base = self.base_of(*a)?;
                Val::int_untagged(base.0 as i64)
            }
            Expr::Load(r) => {
                let info = self.eval_ref(r, mem)?;
                self.maybe_emit_indirect(&info)?;
                self.flush_ops();
                let seq = self.trace.push_load(
                    info.addr,
                    info.elem.size() as u8,
                    info.ref_id,
                    self.hints.hint(info.ref_id),
                    info.dep,
                );
                let mut v = self.read_elem(mem, info.addr, info.elem);
                v.tag = Some(seq);
                v
            }
            Expr::Un(op, a) => {
                let v = self.eval(a, mem)?;
                self.ops += 1;
                match op {
                    UnOp::Neg => {
                        if v.is_float() {
                            Val {
                                n: Num::F(-v.as_f64()),
                                tag: v.tag,
                            }
                        } else {
                            Val {
                                n: Num::I(v.as_i64().wrapping_neg()),
                                tag: v.tag,
                            }
                        }
                    }
                    UnOp::Not => Val {
                        n: Num::I(i64::from(v.as_i64() == 0)),
                        tag: v.tag,
                    },
                }
            }
            Expr::Bin(op, a, b) => {
                let x = self.eval(a, mem)?;
                let y = self.eval(b, mem)?;
                self.ops += 1;
                let tag = merge_tag(x.tag, y.tag);
                let n = if x.is_float() || y.is_float() {
                    let (xf, yf) = (x.as_f64(), y.as_f64());
                    Num::F(match op {
                        BinOp::Add => xf + yf,
                        BinOp::Sub => xf - yf,
                        BinOp::Mul => xf * yf,
                        BinOp::Div => {
                            if yf == 0.0 {
                                0.0
                            } else {
                                xf / yf
                            }
                        }
                        BinOp::Rem => {
                            if yf == 0.0 {
                                0.0
                            } else {
                                xf % yf
                            }
                        }
                        BinOp::Min => xf.min(yf),
                        BinOp::Max => xf.max(yf),
                        // Bitwise ops coerce to integers.
                        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                            return Ok(Val {
                                n: Num::I(int_bin(*op, x.as_i64(), y.as_i64())),
                                tag,
                            })
                        }
                    })
                } else {
                    Num::I(int_bin(*op, x.as_i64(), y.as_i64()))
                };
                Val { n, tag }
            }
            Expr::Cmp(op, a, b) => {
                let x = self.eval(a, mem)?;
                let y = self.eval(b, mem)?;
                self.ops += 1;
                let tag = merge_tag(x.tag, y.tag);
                let r = if x.is_float() || y.is_float() {
                    let (xf, yf) = (x.as_f64(), y.as_f64());
                    match op {
                        CmpOp::Eq => xf == yf,
                        CmpOp::Ne => xf != yf,
                        CmpOp::Lt => xf < yf,
                        CmpOp::Le => xf <= yf,
                        CmpOp::Gt => xf > yf,
                        CmpOp::Ge => xf >= yf,
                    }
                } else {
                    let (xi, yi) = (x.as_i64(), y.as_i64());
                    match op {
                        CmpOp::Eq => xi == yi,
                        CmpOp::Ne => xi != yi,
                        CmpOp::Lt => xi < yi,
                        CmpOp::Le => xi <= yi,
                        CmpOp::Gt => xi > yi,
                        CmpOp::Ge => xi >= yi,
                    }
                };
                Val {
                    n: Num::I(i64::from(r)),
                    tag,
                }
            }
        })
    }

    fn base_of(&self, a: crate::program::ArrayId) -> Result<Addr, InterpError> {
        self.bases[a.0 as usize]
            .ok_or_else(|| InterpError::UnboundArray(self.prog.array(a).name.clone()))
    }

    fn eval_ref(&mut self, r: &'a MemRef, mem: &mut Memory) -> Result<RefInfo, InterpError> {
        Ok(match r {
            MemRef::Array {
                array,
                indices,
                ref_id,
            } => {
                let base = self.base_of(*array)?;
                let decl = self.prog.array(*array);
                let elem = decl.elem;
                let mut lin: i64 = 0;
                let mut dep = None;
                for (k, idx) in indices.iter().enumerate() {
                    let v = self.eval(idx, mem)?;
                    dep = merge_tag(dep, v.tag);
                    let extent = if k + 1 < indices.len() {
                        self.dims[array.0 as usize][k + 1] as i64
                    } else {
                        1
                    };
                    lin = lin.wrapping_add(v.as_i64()).wrapping_mul(extent.max(1));
                    self.ops += 2; // multiply-add address arithmetic
                }
                let addr =
                    Addr((base.0 as i64).wrapping_add(lin.wrapping_mul(elem.size() as i64)) as u64);
                RefInfo {
                    addr,
                    elem,
                    dep,
                    ref_id: *ref_id,
                }
            }
            MemRef::PtrIndex {
                base,
                elem,
                index,
                ref_id,
            } => {
                let b = self.eval(base, mem)?;
                let i = self.eval(index, mem)?;
                self.ops += 2;
                let addr = Addr(
                    (b.as_i64()).wrapping_add(i.as_i64().wrapping_mul(elem.size() as i64)) as u64,
                );
                RefInfo {
                    addr,
                    elem: *elem,
                    dep: merge_tag(b.tag, i.tag),
                    ref_id: *ref_id,
                }
            }
            MemRef::Field {
                base,
                strct,
                field,
                ref_id,
            } => {
                let b = self.eval(base, mem)?;
                self.ops += 1;
                let decl = self.prog.strct(*strct);
                let addr = Addr((b.as_i64()).wrapping_add(decl.offset_of(*field) as i64) as u64);
                RefInfo {
                    addr,
                    elem: decl.field_ty(*field),
                    dep: b.tag,
                    ref_id: *ref_id,
                }
            }
            MemRef::Deref {
                base,
                elem,
                offset,
                ref_id,
            } => {
                let b = self.eval(base, mem)?;
                self.ops += 1;
                let addr = Addr((b.as_i64()).wrapping_add(*offset) as u64);
                RefInfo {
                    addr,
                    elem: *elem,
                    dep: b.tag,
                    ref_id: *ref_id,
                }
            }
        })
    }

    fn maybe_emit_indirect(&mut self, info: &RefInfo) -> Result<(), InterpError> {
        let Some(spec) = self.hints.indirect(info.ref_id) else {
            return Ok(());
        };
        let blk = info.addr.block().0;
        let slot = &mut self.last_indirect_block[info.ref_id.0 as usize];
        if *slot == Some(blk) {
            return Ok(());
        }
        *slot = Some(blk);
        let target_base = self.base_of(spec.target)?;
        self.flush_ops();
        self.trace
            .push_indirect_prefetch(target_base, spec.elem_size, info.addr, info.ref_id);
        Ok(())
    }

    fn read_elem(&self, mem: &Memory, addr: Addr, elem: ElemTy) -> Val {
        let n = match elem {
            ElemTy::I8 => Num::I(mem.read_u8(addr) as i8 as i64),
            ElemTy::I16 => Num::I(mem.read_u16(addr) as i16 as i64),
            ElemTy::I32 => Num::I(mem.read_i32(addr) as i64),
            ElemTy::I64 => Num::I(mem.read_i64(addr)),
            ElemTy::F32 => Num::F(mem.read_f32(addr) as f64),
            ElemTy::F64 => Num::F(mem.read_f64(addr)),
            ElemTy::Ptr { .. } => Num::I(mem.read_u64(addr) as i64),
        };
        Val { n, tag: None }
    }

    fn write_elem(&self, mem: &mut Memory, addr: Addr, elem: ElemTy, v: Val) {
        match elem {
            ElemTy::I8 => mem.write_u8(addr, v.as_i64() as u8),
            ElemTy::I16 => mem.write_u16(addr, v.as_i64() as u16),
            ElemTy::I32 => mem.write_i32(addr, v.as_i64() as i32),
            ElemTy::I64 => mem.write_i64(addr, v.as_i64()),
            ElemTy::F32 => mem.write_f32(addr, v.as_f64() as f32),
            ElemTy::F64 => mem.write_f64(addr, v.as_f64()),
            ElemTy::Ptr { .. } => mem.write_u64(addr, v.as_i64() as u64),
        }
    }
}

fn int_bin(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::Rem => {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::types::field;
    use crate::ProgramBuilder;
    use grp_cpu::TraceEvent;
    use grp_mem::HeapAllocator;

    fn run_with(prog: &Program, bind: &Bindings, hints: &HintMap, mem: &mut Memory) -> Trace {
        Interpreter::new(prog, bind, hints).run(mem).unwrap()
    }

    #[test]
    fn array_sum_reads_values_and_counts_loads() {
        let mut pb = ProgramBuilder::new("sum");
        let a = pb.array("a", ElemTy::I64, &[8]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![
            assign(s, c(0)),
            for_(
                i,
                c(0),
                c(8),
                1,
                vec![assign(s, add(var(s), load(arr(a, vec![var(i)]))))],
            ),
        ]);
        let mut mem = Memory::new();
        let mut heap = HeapAllocator::new(Addr(0x10000));
        let base = heap.alloc_array(8, 8);
        for k in 0..8 {
            mem.write_i64(base.offset(k * 8), k + 1);
        }
        let mut bind = prog.bindings();
        bind.bind_array(a, base);
        let t = run_with(&prog, &bind, &HintMap::empty(), &mut mem);
        assert_eq!(t.loads(), 8);
        assert_eq!(t.stores(), 0);
        // Addresses stride by 8 bytes.
        let addrs: Vec<u64> = t
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Load { addr, .. } => Some(addr.0),
                _ => None,
            })
            .collect();
        assert_eq!(addrs[1] - addrs[0], 8);
    }

    #[test]
    fn two_dimensional_row_major_layout() {
        let mut pb = ProgramBuilder::new("2d");
        let a = pb.array("a", ElemTy::F64, &[4, 8]);
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        // a(i, j): row-major; j is spatial.
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(2),
            1,
            vec![for_(
                j,
                c(0),
                c(3),
                1,
                vec![assign(s, load(arr(a, vec![var(i), var(j)])))],
            )],
        )]);
        let mut mem = Memory::new();
        let base = Addr(0x20000);
        let mut bind = prog.bindings();
        bind.bind_array(a, base);
        let t = run_with(&prog, &bind, &HintMap::empty(), &mut mem);
        let addrs: Vec<u64> = t
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Load { addr, .. } => Some(addr.0),
                _ => None,
            })
            .collect();
        // Row 0: base, base+8, base+16; row 1 starts at base + 8*8.
        assert_eq!(addrs[0], base.0);
        assert_eq!(addrs[1], base.0 + 8);
        assert_eq!(addrs[3], base.0 + 8 * 8);
    }

    #[test]
    fn linked_list_traversal_follows_planted_pointers_with_deps() {
        let mut pb = ProgramBuilder::new("list");
        let sid = pb.peek_struct_id();
        let node = pb.add_struct(
            "node",
            vec![field("next", ElemTy::ptr_to(sid)), field("v", ElemTy::I64)],
        );
        let p = pb.var("p");
        let s = pb.var("s");
        let next = crate::types::FieldId(0);
        let vfld = crate::types::FieldId(1);
        let prog = pb.finish(vec![while_(
            ne(var(p), c(0)),
            vec![
                assign(s, add(var(s), load(fld(var(p), node, vfld)))),
                assign(p, load(fld(var(p), node, next))),
            ],
        )]);
        // Build 4 nodes.
        let mut mem = Memory::new();
        let mut heap = HeapAllocator::new(Addr(0x40000));
        let mut nodes = Vec::new();
        for k in 0..4 {
            let n = heap.alloc(16, 8);
            mem.write_i64(n.offset(8), 10 + k);
            nodes.push(n);
        }
        for w in 0..3 {
            mem.write_u64(nodes[w], nodes[w + 1].0);
        }
        mem.write_u64(nodes[3], 0);
        let mut bind = prog.bindings();
        bind.bind_var(p, nodes[0].0 as i64);
        let t = run_with(&prog, &bind, &HintMap::empty(), &mut mem);
        assert_eq!(t.loads(), 8, "4 value loads + 4 next loads");
        // Every load after the first pair depends on the previous `next` load.
        let deps: Vec<Option<u64>> = t
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Load { dep, .. } => Some(*dep),
                _ => None,
            })
            .collect();
        assert_eq!(deps[0], None, "first value load: head pointer from setup");
        assert_eq!(
            deps[2],
            Some(1),
            "second node's loads depend on first next-load"
        );
        assert_eq!(deps[7], Some(5));
    }

    #[test]
    fn stores_write_through_and_are_traced() {
        let mut pb = ProgramBuilder::new("fill");
        let a = pb.array("a", ElemTy::I32, &[16]);
        let i = pb.var("i");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(16),
            1,
            vec![store(arr(a, vec![var(i)]), mul(var(i), c(3)))],
        )]);
        let mut mem = Memory::new();
        let base = Addr(0x30000);
        let mut bind = prog.bindings();
        bind.bind_array(a, base);
        let t = run_with(&prog, &bind, &HintMap::empty(), &mut mem);
        assert_eq!(t.stores(), 16);
        assert_eq!(mem.read_i32(base.offset(4 * 5)), 15);
    }

    #[test]
    fn loop_bound_pseudo_instruction_emitted_when_marked() {
        let mut pb = ProgramBuilder::new("vb");
        let a = pb.array("a", ElemTy::F64, &[32]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(32),
            1,
            vec![assign(s, load(arr(a, vec![var(i)])))],
        )]);
        let mut hints = HintMap::sized(prog.num_refs, prog.num_loops);
        hints.mark_loop_bound(crate::program::LoopId(0));
        let mut mem = Memory::new();
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x50000));
        let t = run_with(&prog, &bind, &hints, &mut mem);
        assert_eq!(
            t.events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::SetLoopBound(32)))
                .count(),
            1
        );
    }

    #[test]
    fn indirect_prefetch_emitted_once_per_index_block() {
        let mut pb = ProgramBuilder::new("ind");
        let a = pb.array("a", ElemTy::F64, &[1024]);
        let b = pb.array("b", ElemTy::I32, &[64]);
        let i = pb.var("i");
        let s = pb.var("s");
        // s += a[b[i]]
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(64),
            1,
            vec![assign(
                s,
                add(var(s), load(arr(a, vec![load(arr(b, vec![var(i)]))]))),
            )],
        )]);
        // b's load is RefId(0) (inner-first numbering).
        let mut hints = HintMap::sized(prog.num_refs, prog.num_loops);
        hints.set_indirect(
            RefId(0),
            crate::hintmap::IndirectSpec {
                target: a,
                elem_size: 8,
            },
        );
        let mut mem = Memory::new();
        let a_base = Addr(0x60000);
        let b_base = Addr(0x70000);
        for k in 0..64 {
            mem.write_i32(b_base.offset(k * 4), (k * 7 % 1024) as i32);
        }
        let mut bind = prog.bindings();
        bind.bind_array(a, a_base);
        bind.bind_array(b, b_base);
        let t = run_with(&prog, &bind, &hints, &mut mem);
        let ind: Vec<_> = t
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::IndirectPrefetch { .. }))
            .collect();
        // 64 i32 indices span 4 blocks → 4 indirect-prefetch instructions.
        assert_eq!(ind.len(), 4);
        if let TraceEvent::IndirectPrefetch {
            base, elem_size, ..
        } = ind[0]
        {
            assert_eq!(*base, a_base);
            assert_eq!(*elem_size, 8);
        }
        // And the data loads depend on the index loads.
        let dep_count = t
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Load { dep: Some(_), .. }))
            .count();
        assert_eq!(
            dep_count, 64,
            "every a[b[i]] load depends on its index load"
        );
    }

    #[test]
    fn induction_pointer_deref() {
        let mut pb = ProgramBuilder::new("ptr");
        let p = pb.var("p");
        let e = pb.var("e");
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            lt(var(p), var(e)),
            vec![
                assign(s, add(var(s), load(deref(var(p), ElemTy::F64, 0)))),
                assign(p, add(var(p), c(16))),
            ],
        )]);
        let mut mem = Memory::new();
        let base = 0x80000i64;
        for k in 0..8 {
            mem.write_f64(Addr((base + 16 * k) as u64), k as f64);
        }
        let mut bind = prog.bindings();
        bind.bind_var(p, base);
        bind.bind_var(e, base + 16 * 8);
        let t = run_with(&prog, &bind, &HintMap::empty(), &mut mem);
        assert_eq!(t.loads(), 8);
    }

    #[test]
    fn if_branches_and_comparisons() {
        let mut pb = ProgramBuilder::new("if");
        let x = pb.var("x");
        let y = pb.var("y");
        let prog = pb.finish(vec![
            assign(x, c(5)),
            if_(
                gt(var(x), c(3)),
                vec![assign(y, c(1))],
                vec![assign(y, c(2))],
            ),
        ]);
        let mut mem = Memory::new();
        let bind = prog.bindings();
        // No memory refs; just checking it runs and counts compute.
        let t = run_with(&prog, &bind, &HintMap::empty(), &mut mem);
        assert_eq!(t.loads(), 0);
        assert!(t.instructions() > 0);
    }

    #[test]
    fn work_statements_add_compute_without_memory_events() {
        let mut pb = ProgramBuilder::new("w");
        let a = pb.array("a", ElemTy::I64, &[2]);
        let s = pb.var("s");
        let plain = pb.finish(vec![assign(s, load(arr(a, vec![c(0)])))]);
        let mut pb2 = ProgramBuilder::new("w2");
        let a2 = pb2.array("a", ElemTy::I64, &[2]);
        let s2 = pb2.var("s");
        let worked = pb2.finish(vec![work(100), assign(s2, load(arr(a2, vec![c(0)])))]);
        let mut mem = Memory::new();
        let mut b1 = plain.bindings();
        b1.bind_array(a, Addr(0x1000));
        let t1 = run_with(&plain, &b1, &HintMap::empty(), &mut mem);
        let mut b2 = worked.bindings();
        b2.bind_array(a2, Addr(0x1000));
        let t2 = run_with(&worked, &b2, &HintMap::empty(), &mut mem);
        assert_eq!(t1.loads(), t2.loads());
        assert_eq!(t2.instructions(), t1.instructions() + 100);
    }

    #[test]
    fn event_limit_guards_runaway_loops() {
        let mut pb = ProgramBuilder::new("spin");
        let a = pb.array("a", ElemTy::I64, &[1]);
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            c(1),
            vec![assign(s, load(arr(a, vec![c(0)])))],
        )]);
        let mut mem = Memory::new();
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x1000));
        let err = Interpreter::new(&prog, &bind, &HintMap::empty())
            .with_max_events(1000)
            .run(&mut mem)
            .unwrap_err();
        assert_eq!(err, InterpError::EventLimit(1000));
    }

    #[test]
    fn unbound_array_errors() {
        let mut pb = ProgramBuilder::new("ub");
        let a = pb.array("a", ElemTy::I64, &[1]);
        let s = pb.var("s");
        let prog = pb.finish(vec![assign(s, load(arr(a, vec![c(0)])))]);
        let mut mem = Memory::new();
        let bind = prog.bindings();
        let err = Interpreter::new(&prog, &bind, &HintMap::empty())
            .run(&mut mem)
            .unwrap_err();
        assert_eq!(err, InterpError::UnboundArray("a".into()));
    }

    #[test]
    fn hints_are_attached_to_trace_loads() {
        let mut pb = ProgramBuilder::new("h");
        let a = pb.array("a", ElemTy::F64, &[4]);
        let s = pb.var("s");
        let i = pb.var("i");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(4),
            1,
            vec![assign(s, load(arr(a, vec![var(i)])))],
        )]);
        let mut hints = HintMap::sized(prog.num_refs, prog.num_loops);
        hints.add_spatial(RefId(0));
        let mut mem = Memory::new();
        let mut bind = prog.bindings();
        bind.bind_array(a, Addr(0x9000));
        let t = run_with(&prog, &bind, &hints, &mut mem);
        for e in t.events() {
            if let TraceEvent::Load { hints: h, .. } = e {
                assert!(h.spatial());
            }
        }
    }
}
