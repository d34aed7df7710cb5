//! The `a[b[i]]` story (§3.3.3): build an indirect-access kernel, show
//! the compiler deriving the indirect-prefetch directive, and compare
//! hint-blind region prefetching with GRP's indirect engine.
//!
//! ```text
//! cargo run --release --example indirect_arrays [--clustered] [--scale test|small|paper]
//! ```
//!
//! By default the index array is a random permutation (the bzip2 case:
//! SRP's regions are nearly pure waste). With `--clustered`, indices
//! advance in runs (the vpr case: SRP keeps up, just less efficiently).

use grp::compiler::{analyze, AnalysisConfig};
use grp::core::{run_trace, Scheme, SimConfig};
use grp::ir::build::*;
use grp::ir::interp::Interpreter;
use grp::ir::{ElemTy, ProgramBuilder};
use grp::mem::{Addr, HeapAllocator, Memory};
use grp_bench::suite::{scale_from_args, SuiteScale};
use grp_testkit::Rng;

fn main() {
    let clustered = std::env::args().any(|a| a == "--clustered");
    let n: i64 = match scale_from_args() {
        SuiteScale::Test => 6_000,
        SuiteScale::Small => 120_000,
        SuiteScale::Paper => 360_000,
    };

    let mut pb = ProgramBuilder::new("indirect");
    let a = pb.array("a", ElemTy::F64, &[(2 * n) as u64]);
    let b = pb.array("b", ElemTy::I32, &[n as u64]);
    let i = pb.var("i");
    let s = pb.var("s");
    let program = pb.finish(vec![for_(
        i,
        c(0),
        c(n),
        1,
        vec![
            assign(
                s,
                add(var(s), load(arr(a, vec![load(arr(b, vec![var(i)]))]))),
            ),
            work(18),
        ],
    )]);

    let hints = analyze(&program, &AnalysisConfig::default());
    let spec = hints
        .indirect(grp::cpu::RefId(0))
        .expect("compiler derives the indirect directive on b[i]");
    println!(
        "derived indirect directive: target array {:?}, element size {} B",
        spec.target, spec.elem_size
    );

    let mut mem = Memory::new();
    let mut heap = HeapAllocator::new(Addr(0x1000_0000));
    let a_base = heap.alloc_array(2 * n as u64, 8);
    let b_base = heap.alloc_array(n as u64, 4);
    let mut rng = Rng::seed_from_u64(42);
    let mut pos = 0i64;
    for k in 0..n {
        let idx = if clustered {
            pos += rng.gen_range(0..9);
            (pos % (2 * n)) as i32
        } else {
            rng.gen_range(0..2 * n) as i32
        };
        mem.write_i32(b_base.offset(k * 4), idx);
    }
    let mut bind = program.bindings();
    bind.bind_array(a, a_base);
    bind.bind_array(b, b_base);

    let mut run_mem = mem.clone();
    let trace = Interpreter::new(&program, &bind, &hints)
        .run(&mut run_mem)
        .expect("kernel runs");
    println!(
        "index pattern: {} — {} indirect-prefetch instructions in the trace\n",
        if clustered {
            "clustered"
        } else {
            "random permutation"
        },
        trace
            .events()
            .iter()
            .filter(|e| matches!(e, grp::cpu::TraceEvent::IndirectPrefetch { .. }))
            .count()
    );

    let cfg = SimConfig::paper();
    let heap_range = heap.range();
    let base = run_trace(&trace, &run_mem, heap_range, Scheme::NoPrefetch, &cfg);
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>9}",
        "scheme", "cycles", "speedup", "traffic", "accuracy"
    );
    for scheme in [Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar] {
        let r = run_trace(&trace, &run_mem, heap_range, scheme, &cfg);
        println!(
            "{:<9} {:>9} {:>8.2}x {:>8.2}x {:>8.1}%",
            scheme.label(),
            r.cycles,
            r.speedup_vs(&base),
            r.traffic_vs(&base),
            r.accuracy() * 100.0
        );
    }
}
