//! Ablation benches for the design choices DESIGN.md calls out: prefetch
//! queue depth, LIFO vs FIFO scheduling, LRU vs MRU insertion priority,
//! recursive chase depth, and DRAM channel count.
//!
//! Each configuration is benchmarked for simulator throughput, and its
//! outcome metrics (cycles, traffic) are printed once so the qualitative
//! effect of the knob is visible in the bench log.

use grp_core::{Scheme, SimConfig};
use grp_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grp_workloads::{by_name, Scale};

fn bench_queue_depth(c: &mut Criterion) {
    let built = by_name("equake").unwrap().build(Scale::Test);
    let mut g = c.benchmark_group("ablation_queue_depth");
    g.sample_size(10);
    for depth in [4usize, 16, 32, 128] {
        let mut cfg = SimConfig::paper();
        cfg.prefetch_queue = depth;
        let r = built.run(Scheme::GrpVar, &cfg);
        eprintln!(
            "queue_depth={depth}: cycles={} traffic_blocks={}",
            r.cycles,
            r.traffic.total_blocks()
        );
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| std::hint::black_box(built.run(Scheme::GrpVar, &cfg)))
        });
    }
    g.finish();
}

fn bench_queue_order(c: &mut Criterion) {
    let built = by_name("twolf").unwrap().build(Scale::Test);
    let mut g = c.benchmark_group("ablation_queue_order");
    g.sample_size(10);
    for fifo in [false, true] {
        let mut cfg = SimConfig::paper();
        cfg.fifo_queue = fifo;
        let r = built.run(Scheme::Srp, &cfg);
        eprintln!(
            "fifo={fifo}: cycles={} useful={} traffic={}",
            r.cycles,
            r.l2.useful_prefetches,
            r.traffic.total_blocks()
        );
        let name = if fifo { "fifo" } else { "lifo" };
        g.bench_with_input(BenchmarkId::from_parameter(name), &fifo, |b, _| {
            b.iter(|| std::hint::black_box(built.run(Scheme::Srp, &cfg)))
        });
    }
    g.finish();
}

fn bench_insertion_priority(c: &mut Criterion) {
    // LRU insertion bounds pollution (§3.1); MRU insertion is the ablation.
    let built = by_name("twolf").unwrap().build(Scale::Test);
    let mut g = c.benchmark_group("ablation_insertion");
    g.sample_size(10);
    for mru in [false, true] {
        let mut cfg = SimConfig::paper();
        cfg.prefetch_mru_insert = mru;
        let r = built.run(Scheme::Srp, &cfg);
        eprintln!(
            "mru_insert={mru}: cycles={} l2_misses={}",
            r.cycles, r.l2.demand_misses
        );
        let name = if mru { "mru" } else { "lru" };
        g.bench_with_input(BenchmarkId::from_parameter(name), &mru, |b, _| {
            b.iter(|| std::hint::black_box(built.run(Scheme::Srp, &cfg)))
        });
    }
    g.finish();
}

fn bench_recursion_depth(c: &mut Criterion) {
    let built = by_name("ammp").unwrap().build(Scale::Test);
    let mut g = c.benchmark_group("ablation_recursion_depth");
    g.sample_size(10);
    for depth in [1u8, 3, 6] {
        let mut cfg = SimConfig::paper();
        cfg.recursive_depth = depth;
        let r = built.run(Scheme::GrpVar, &cfg);
        eprintln!("recursion_depth={depth}: cycles={}", r.cycles);
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| std::hint::black_box(built.run(Scheme::GrpVar, &cfg)))
        });
    }
    g.finish();
}

fn bench_bandwidth(c: &mut Criterion) {
    // §5.5: art is bandwidth bound; wider channels should pay off.
    let built = by_name("art").unwrap().build(Scale::Test);
    let mut g = c.benchmark_group("ablation_channels");
    g.sample_size(10);
    for channels in [2usize, 4, 8] {
        let mut cfg = SimConfig::paper();
        cfg.dram.channels = channels;
        let r = built.run(Scheme::GrpVar, &cfg);
        eprintln!("channels={channels}: cycles={}", r.cycles);
        g.bench_with_input(BenchmarkId::from_parameter(channels), &channels, |b, _| {
            b.iter(|| std::hint::black_box(built.run(Scheme::GrpVar, &cfg)))
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_queue_depth,
    bench_queue_order,
    bench_insertion_priority,
    bench_recursion_depth,
    bench_bandwidth
);
criterion_main!(ablations);
