//! A 2-D stencil written in the IR, compiled under the three §5.4
//! spatial policies — shows how the reuse-distance bound changes what
//! gets marked and what that costs.
//!
//! ```text
//! cargo run --release --example matrix_stencil [--scale test|small|paper]
//! ```

use grp::compiler::{analyze, census, AnalysisConfig, SpatialPolicy};
use grp::core::{run_trace, Scheme, SimConfig};
use grp::ir::build::*;
use grp::ir::interp::Interpreter;
use grp::ir::{ElemTy, HintView, ProgramBuilder};
use grp::mem::{HeapAllocator, Memory};
use grp_bench::suite::{scale_from_args, SuiteScale};

fn build(
    n: i64,
) -> (
    grp::ir::Program,
    grp::ir::Bindings,
    Memory,
    grp::mem::HeapRange,
) {
    let mut pb = ProgramBuilder::new("stencil");
    let a = pb.array("a", ElemTy::F64, &[n as u64, n as u64]);
    let b = pb.array("b", ElemTy::F64, &[n as u64, n as u64]);
    let i = pb.var("i");
    let j = pb.var("j");
    let program = pb.finish(vec![for_(
        i,
        c(1),
        c(n - 1),
        1,
        vec![for_(
            j,
            c(1),
            c(n - 1),
            1,
            vec![
                store(
                    arr(b, vec![var(i), var(j)]),
                    add(
                        add(
                            load(arr(a, vec![var(i), sub(var(j), c(1))])),
                            load(arr(a, vec![var(i), add(var(j), c(1))])),
                        ),
                        add(
                            load(arr(a, vec![sub(var(i), c(1)), var(j)])),
                            load(arr(a, vec![add(var(i), c(1)), var(j)])),
                        ),
                    ),
                ),
                work(6),
            ],
        )],
    )]);
    let mem = Memory::new(); // stencil inputs read as 0.0 — values are irrelevant here
    let mut heap = HeapAllocator::new(grp::mem::Addr(0x1000_0000));
    let mut bind = program.bindings();
    bind.bind_array(a, heap.alloc_array((n * n) as u64, 8));
    bind.bind_array(b, heap.alloc_array((n * n) as u64, 8));
    let range = heap.range();
    (program, bind, mem, range)
}

fn main() {
    let n: i64 = match scale_from_args() {
        SuiteScale::Test => 96,
        SuiteScale::Small => 512,
        SuiteScale::Paper => 1024,
    };
    let (program, bind, mem, heap) = build(n);
    let cfg = SimConfig::paper();

    println!("policy        spatial-marked   cycles     speedup  traffic");
    let mut base_cycles = 0u64;
    let mut base_traffic = 0u64;
    for (label, policy, scheme) in [
        ("none", None, Scheme::NoPrefetch),
        (
            "conservative",
            Some(SpatialPolicy::Conservative),
            Scheme::GrpConservative,
        ),
        ("default", Some(SpatialPolicy::Default), Scheme::GrpVar),
        (
            "aggressive",
            Some(SpatialPolicy::Aggressive),
            Scheme::GrpAggressive,
        ),
    ] {
        let cc = policy.map(|p| AnalysisConfig {
            policy: p,
            ..AnalysisConfig::default()
        });
        let hints = match &cc {
            Some(cfg) => analyze(&program, cfg),
            None => grp::ir::HintMap::empty(),
        };
        let marked = census(&program, &hints).spatial;
        let mut run_mem = mem.clone();
        let base = Interpreter::new(&program, &bind)
            .run(&mut run_mem)
            .expect("stencil runs");
        let trace = HintView::new(&base, &hints, &program, &bind)
            .expect("no indirect targets")
            .to_trace();
        let r = run_trace(&trace, &run_mem, heap, scheme, &cfg);
        if label == "none" {
            base_cycles = r.cycles;
            base_traffic = r.traffic.total_blocks().max(1);
        }
        println!(
            "{:<13} {:>14} {:>9} {:>9.2}x {:>7.2}x",
            label,
            marked,
            r.cycles,
            base_cycles as f64 / r.cycles as f64,
            r.traffic.total_blocks() as f64 / base_traffic as f64,
        );
    }
    println!("\nThe conservative policy only marks innermost-loop reuse; the");
    println!("aggressive one marks everything and pays in traffic (§5.4).");
}
