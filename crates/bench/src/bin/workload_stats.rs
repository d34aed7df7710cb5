//! Workload characterization: footprint, reference mix, dependence
//! structure, and hint density per benchmark — the numbers used to
//! validate that each kernel models its SPEC counterpart's behaviour.
//! `cargo run -p grp-bench --bin workload_stats -- --scale small`
use grp_bench::{report::Table, suite::scale_from_args};
use grp_compiler::AnalysisConfig;
use grp_cpu::TraceStats;
use grp_workloads::all;

fn main() {
    let scale = scale_from_args().workload_scale();
    let mut t = Table::new(vec![
        "bench",
        "insts",
        "loads",
        "stores",
        "footprint KB",
        "refs/inst",
        "dep loads %",
        "max chain",
        "hinted %",
    ]);
    for w in all() {
        let built = w.build(scale);
        let (trace, _) = built.trace(Some(&AnalysisConfig::default()));
        let s = TraceStats::compute(&trace);
        t.row(vec![
            w.name.to_string(),
            s.instructions.to_string(),
            s.loads.to_string(),
            s.stores.to_string(),
            (s.footprint_bytes() / 1024).to_string(),
            format!("{:.3}", s.ref_density()),
            format!("{:.1}", s.dependent_ratio() * 100.0),
            s.max_dep_chain.to_string(),
            format!(
                "{:.1}",
                if s.loads == 0 {
                    0.0
                } else {
                    100.0 * s.hinted_loads as f64 / s.loads as f64
                }
            ),
        ]);
    }
    print!("{}", t.render());
}
