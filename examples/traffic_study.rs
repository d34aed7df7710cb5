//! The performance/traffic frontier: sweep every scheme over the whole
//! benchmark suite and print speedup against traffic — the paper's core
//! argument (Table 1) as a scatter.
//!
//! ```text
//! cargo run --release --example traffic_study [--scale test|small|paper]
//! ```

use grp::core::{geomean, Scheme};
use grp_bench::{suite::scale_from_args, Suite};

fn main() {
    const SCHEMES: [Scheme; 7] = [
        Scheme::NoPrefetch,
        Scheme::Stride,
        Scheme::HwPointer,
        Scheme::GrpPointer,
        Scheme::GrpFix,
        Scheme::GrpVar,
        Scheme::Srp,
    ];
    let mut suite = Suite::new(scale_from_args()).verbose();
    let names = suite.perf_names();
    // Every cell this study reads, in one batch.
    suite
        .precompute_cells(&names, &SCHEMES, None)
        .unwrap_or_else(|e| panic!("{e}"));
    let cfg = *suite.config();

    println!("\nsuite geometric means (17 benchmarks):\n");
    println!(
        "{:<10} {:>9} {:>9} {:>14}",
        "scheme", "speedup", "traffic", "speedup/traffic"
    );
    for scheme in &SCHEMES[1..] {
        let mut sp = Vec::new();
        let mut tr = Vec::new();
        for name in &names {
            let base = suite.result(name, Scheme::NoPrefetch, &cfg);
            let r = suite.result(name, *scheme, &cfg);
            sp.push(r.speedup_vs(base));
            tr.push(r.traffic_vs(base).max(1e-9));
        }
        let (s, t) = (geomean(&sp), geomean(&tr));
        println!(
            "{:<10} {:>8.3}x {:>8.2}x {:>13.3}",
            scheme.label(),
            s,
            t,
            s / t
        );
        let bar = "#".repeat(((s - 1.0) * 100.0).max(0.0) as usize);
        let tbar = "~".repeat(((t - 1.0) * 20.0).clamp(0.0, 60.0) as usize);
        println!("  perf    |{bar}");
        println!("  traffic |{tbar}");
    }
    println!("\nGRP's claim: SRP-class speedup at a fraction of SRP's traffic.");
}
