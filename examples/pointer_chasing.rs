//! Build a linked-list kernel *from scratch* with the IR, let the
//! compiler derive `pointer`/`recursive` hints, and watch the GRP engine
//! chase the chain ahead of the program.
//!
//! ```text
//! cargo run --release --example pointer_chasing [--scale test|small|paper]
//! ```

use grp::compiler::{analyze, census, AnalysisConfig};
use grp::core::{run_trace, Scheme, SimConfig};
use grp::ir::build::*;
use grp::ir::interp::Interpreter;
use grp::ir::types::field;
use grp::ir::{ElemTy, FieldId, HintView, ProgramBuilder};
use grp::mem::{HeapAllocator, Memory};
use grp_bench::suite::{scale_from_args, SuiteScale};

fn main() {
    let scale = scale_from_args();
    let node_count: u64 = match scale {
        SuiteScale::Test => 2_000,
        SuiteScale::Small => 30_000,
        SuiteScale::Paper => 120_000,
    };
    // struct node { node *next; i64 payload; } — Figure 6's idiom.
    let mut pb = ProgramBuilder::new("chase");
    let sid = pb.peek_struct_id();
    let node = pb.add_struct(
        "node",
        vec![
            field("next", ElemTy::ptr_to(sid)),
            field("payload", ElemTy::I64),
        ],
    );
    let head = pb.var("head");
    let p = pb.var("p");
    let sum = pb.var("sum");
    let program = pb.finish(vec![
        assign(p, var(head)),
        while_(
            ne(var(p), c(0)),
            vec![
                assign(sum, add(var(sum), load(fld(var(p), node, FieldId(1))))),
                work(12),
                assign(p, load(fld(var(p), node, FieldId(0)))),
            ],
        ),
    ]);

    // The compiler finds the idiom on its own.
    let hints = analyze(&program, &AnalysisConfig::default());
    let cs = census(&program, &hints);
    println!(
        "compiler census: {} refs, {} pointer-hinted, {} recursive",
        cs.mem_refs, cs.pointer, cs.recursive
    );

    // Plant the nodes in allocation order, one per pair of blocks.
    let mut mem = Memory::new();
    let mut heap = HeapAllocator::new(grp::mem::Addr(0x1000_0000));
    heap.set_pad(112);
    let nodes: Vec<_> = (0..node_count).map(|_| heap.alloc(16, 8)).collect();
    for w in nodes.windows(2) {
        mem.write_u64(w[0], w[1].0);
    }
    mem.write_u64(*nodes.last().unwrap(), 0);
    for (k, n) in nodes.iter().enumerate() {
        mem.write_i64(n.offset(8), k as i64);
    }

    let mut bind = program.bindings();
    bind.bind_var(head, nodes[0].0 as i64);
    let mut run_mem = mem.clone();
    let base = Interpreter::new(&program, &bind)
        .run(&mut run_mem)
        .expect("kernel runs");
    let trace = HintView::new(&base, &hints, &program, &bind)
        .expect("no indirect targets")
        .to_trace();
    println!(
        "trace: {} loads over {} nodes\n",
        trace.loads(),
        nodes.len()
    );

    let cfg = SimConfig::paper();
    let heap_range = heap.range();
    let base = run_trace(&trace, &run_mem, heap_range, Scheme::NoPrefetch, &cfg);
    for scheme in [Scheme::NoPrefetch, Scheme::GrpPointer, Scheme::GrpVar] {
        let r = run_trace(&trace, &run_mem, heap_range, scheme, &cfg);
        println!(
            "{:<9} cycles={:<9} speedup={:.2}x  prefetches={} (accuracy {:.0}%)",
            scheme.label(),
            r.cycles,
            r.speedup_vs(&base),
            r.prefetches_issued,
            r.accuracy() * 100.0
        );
    }
    println!("\nThe recursive hint lets the engine walk `next` pointers six");
    println!("levels ahead of the load stream — dependent misses overlap.");
}
