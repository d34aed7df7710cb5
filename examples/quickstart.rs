//! Quickstart: run one benchmark under every prefetching scheme.
//!
//! ```text
//! cargo run --release --example quickstart [bench] [--scale test|small|paper]
//! ```

use grp::core::{Scheme, SimConfig};
use grp::workloads::{all, by_name};
use grp_bench::suite::scale_from_args;

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    // First positional argument, skipping `--scale` and its value.
    let mut positional = None;
    let mut skip = false;
    for a in &args[1..] {
        if skip {
            skip = false;
            continue;
        }
        if a == "--scale" {
            skip = true;
            continue;
        }
        if !a.starts_with("--") {
            positional = Some(a.as_str());
            break;
        }
    }
    let name = positional.unwrap_or("equake");
    let Some(wl) = by_name(name) else {
        eprintln!("unknown benchmark `{name}`; known:");
        for w in all() {
            eprintln!("  {:<8} — {}", w.name, w.description);
        }
        std::process::exit(1);
    };

    println!(
        "benchmark: {} — {} ({scale:?} scale)",
        wl.name, wl.description
    );
    let built = wl.build(scale.workload_scale());
    let cfg = SimConfig::paper();

    let base = built.run(Scheme::NoPrefetch, &cfg);
    println!(
        "\n{:<11} {:>10} {:>6} {:>9} {:>9} {:>8} {:>9}",
        "scheme", "cycles", "IPC", "speedup", "L2 miss", "traffic", "accuracy"
    );
    for scheme in [
        Scheme::NoPrefetch,
        Scheme::Stride,
        Scheme::Srp,
        Scheme::GrpFix,
        Scheme::GrpVar,
        Scheme::PerfectL2,
    ] {
        let r = built.run(scheme, &cfg);
        println!(
            "{:<11} {:>10} {:>6.2} {:>8.2}x {:>9} {:>7.2}x {:>8.1}%",
            scheme.label(),
            r.cycles,
            r.ipc(),
            r.speedup_vs(&base),
            r.l2_misses(),
            r.traffic_vs(&base),
            r.accuracy() * 100.0
        );
    }
    println!("\nGRP aims to match SRP's speedup at a fraction of its traffic.");
}
