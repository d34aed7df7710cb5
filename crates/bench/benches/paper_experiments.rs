//! Micro-benches of the paper's evaluation at Test scale: filling the
//! result table with every cell `all` reads (one scheduler batch), and
//! rendering every section over a filled table. Repeated timed samples
//! make simulator and renderer throughput regressions visible; the
//! experiments' *contents* — the paper-shape numbers — are printed by
//! the `all` binary and recorded in EXPERIMENTS.md.

use grp_bench::{experiments, Suite, SuiteScale};
use grp_testkit::bench::{criterion_group, criterion_main, Criterion};

fn filled() -> Suite {
    let mut suite = Suite::new(SuiteScale::Test);
    suite
        .fill(&experiments::cells(SuiteScale::Test), None)
        .expect("clean fill");
    suite
}

fn bench_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);

    g.bench_function("fill_every_cell", |b| {
        b.iter(|| std::hint::black_box(filled()))
    });
    let suite = filled();
    g.bench_function("render_every_section", |b| {
        b.iter(|| std::hint::black_box(experiments::evaluation(&suite)))
    });
    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
