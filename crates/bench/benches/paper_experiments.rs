//! Micro-benches: one per table/figure of the paper's evaluation.
//!
//! Each bench regenerates its experiment at Test scale (repeated timed
//! samples make simulator throughput regressions visible); the
//! experiment's *contents* — the paper-shape numbers — are printed by
//! the `all` binary and recorded in EXPERIMENTS.md.

use grp_bench::{experiments, Suite, SuiteScale};
use grp_testkit::bench::{criterion_group, criterion_main, Criterion};
use grp_workloads::BenchClass;

fn suite() -> Suite {
    Suite::new(SuiteScale::Test)
}

fn bench_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);

    g.bench_function("fig1_perfect_caches", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::figure1(&mut s))
        })
    });
    g.bench_function("table1_summary", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::table1(&mut s))
        })
    });
    g.bench_function("table3_hint_counts", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::table3(&mut s))
        })
    });
    g.bench_function("fig9_pointer", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::figure9(&mut s))
        })
    });
    g.bench_function("fig10_int", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::figure_perf(&mut s, BenchClass::Int))
        })
    });
    g.bench_function("fig11_fp", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::figure_perf(&mut s, BenchClass::Fp))
        })
    });
    g.bench_function("fig12_traffic", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::figure12(&mut s))
        })
    });
    g.bench_function("table4_var_regions", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::table4(&mut s))
        })
    });
    g.bench_function("table5_accuracy_coverage", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::table5(&mut s))
        })
    });
    g.bench_function("table6_miss_causes", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::table6(&mut s))
        })
    });
    g.bench_function("sensitivity_policies", |b| {
        b.iter(|| {
            let mut s = suite();
            std::hint::black_box(experiments::sensitivity(&mut s))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
