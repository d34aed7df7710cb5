//! One function per table/figure of the paper's Section 5.

use grp_compiler::{census, AnalysisConfig};
use grp_core::{geomean, Scheme};
use grp_workloads::BenchClass;

use crate::report::{bar_chart, f2, pct, Table};
use crate::sched::CellJob;
use crate::suite::Suite;

/// The schemes compared in the headline tables.
pub const HEADLINE: [Scheme; 5] = [
    Scheme::NoPrefetch,
    Scheme::Stride,
    Scheme::Srp,
    Scheme::GrpFix,
    Scheme::GrpVar,
];

/// Figure 1: IPC of the realistic system vs perfect-L2 and perfect-L1
/// idealizations, plus the GRP bar, per benchmark (sorted by gap size).
pub fn figure1(suite: &mut Suite) -> String {
    let mut rows: Vec<(String, f64, f64, f64, f64, f64)> = Vec::new();
    for name in suite.perf_names() {
        let base = suite.run(name, Scheme::NoPrefetch);
        let l2 = suite.run(name, Scheme::PerfectL2);
        let l1 = suite.run(name, Scheme::PerfectL1);
        let grp = suite.run(name, Scheme::GrpVar);
        let gap = base.gap_vs_perfect(&l2);
        rows.push((
            name.to_string(),
            base.ipc(),
            l2.ipc(),
            l1.ipc(),
            grp.ipc(),
            gap,
        ));
    }
    rows.sort_by(|a, b| a.5.total_cmp(&b.5));
    let mut t = Table::new(vec![
        "bench",
        "base IPC",
        "perfect-L2",
        "perfect-L1",
        "GRP/Var",
        "gap %",
    ]);
    for (n, b, l2, l1, g, gap) in &rows {
        t.row(vec![
            n.clone(),
            f2(*b),
            f2(*l2),
            f2(*l1),
            f2(*g),
            format!("{gap:.1}"),
        ]);
    }
    let gaps: Vec<f64> = rows.iter().map(|r| 1.0 - r.5 / 100.0).collect();
    let mean_gap = (1.0 - geomean(&gaps)) * 100.0;
    format!(
        "Figure 1: processor performance (perfect-cache bounds)\n{}\ngeometric-mean gap vs perfect L2: {:.1}%\n",
        t.render(),
        mean_gap
    )
}

/// One summary row of Table 1.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Scheme.
    pub scheme: Scheme,
    /// Geometric-mean speedup over no prefetching.
    pub speedup: f64,
    /// Geometric-mean traffic normalized to no prefetching.
    pub traffic: f64,
    /// Geometric-mean performance gap vs perfect L2, percent.
    pub gap: f64,
}

/// Table 1: suite-wide speedup, traffic increase, and perfect-L2 gap.
pub fn table1(suite: &mut Suite) -> (Vec<SummaryRow>, String) {
    let names = suite.perf_names();
    let mut rows = Vec::new();
    for scheme in HEADLINE {
        let mut speedups = Vec::new();
        let mut traffics = Vec::new();
        let mut gap_ratios = Vec::new();
        for name in &names {
            let base = suite.run(name, Scheme::NoPrefetch);
            let perfect = suite.run(name, Scheme::PerfectL2);
            let r = suite.run(name, scheme);
            speedups.push(r.speedup_vs(&base));
            traffics.push(r.traffic_vs(&base).max(1e-9));
            gap_ratios.push((perfect.cycles as f64 / r.cycles as f64).min(1.0));
        }
        rows.push(SummaryRow {
            scheme,
            speedup: geomean(&speedups),
            traffic: geomean(&traffics),
            gap: (1.0 - geomean(&gap_ratios)) * 100.0,
        });
    }
    let mut t = Table::new(vec![
        "scheme",
        "speedup",
        "traffic",
        "gap vs perfect L2 (%)",
    ]);
    for r in &rows {
        t.row(vec![
            r.scheme.label().to_string(),
            f2(r.speedup),
            f2(r.traffic),
            format!("{:.2}", r.gap),
        ]);
    }
    (
        rows,
        format!(
            "Table 1: summary of prefetching performance and traffic\n{}",
            t.render()
        ),
    )
}

/// Table 2: the hint taxonomy (qualitative; from §3.3).
pub fn table2() -> String {
    let mut t = Table::new(vec!["hint", "meaning", "engine action on L2 miss"]);
    t.row(vec![
        "spatial",
        "reference exhibits spatial locality",
        "queue the 4 KB region's absent blocks",
    ]);
    t.row(vec![
        "size",
        "loop bound × stride bounds the reuse extent",
        "region size = loop bound << coefficient",
    ]);
    t.row(vec![
        "indirect",
        "a[b[i]]: array indexed by an index array",
        "read index block, prefetch base + s·b[i] (≤16)",
    ]);
    t.row(vec![
        "pointer",
        "structure contains pointers the program follows",
        "scan returned line for heap addresses, 2 blocks each",
    ]);
    t.row(vec![
        "recursive",
        "program recursively follows those pointers",
        "same scan, repeated 6 levels deep",
    ]);
    format!("Table 2: compiler hints (§3.3)\n{}", t.render())
}

/// Table 3: static hint census per benchmark.
pub fn table3(suite: &mut Suite) -> String {
    let mut t = Table::new(vec![
        "bench",
        "mem refs",
        "spatial",
        "pointer",
        "recursive",
        "ratio %",
        "indirect",
    ]);
    for name in suite.all_names() {
        let built = suite.built(name);
        let hints = built.hints(&AnalysisConfig::default());
        let cs = census(&built.program, &hints);
        t.row(vec![
            name.to_string(),
            cs.mem_refs.to_string(),
            cs.spatial.to_string(),
            cs.pointer.to_string(),
            cs.recursive.to_string(),
            pct(cs.hinted_ratio()),
            cs.indirect.to_string(),
        ]);
    }
    format!(
        "Table 3: number of compiler hints for each benchmark\n{}",
        t.render()
    )
}

/// Figure 9: speedup from pointer prefetching alone (C benchmarks).
pub fn figure9(suite: &mut Suite) -> String {
    let c_benches = [
        "gzip", "vpr", "mesa", "art", "mcf", "equake", "ammp", "parser", "gap", "bzip2", "twolf",
        "sphinx",
    ];
    let mut rows = Vec::new();
    for name in c_benches {
        let base = suite.run(name, Scheme::NoPrefetch);
        let hw = suite.run(name, Scheme::HwPointer);
        let hinted = suite.run(name, Scheme::GrpPointer);
        let combined = suite.run(name, Scheme::SrpPointer);
        rows.push((
            name.to_string(),
            hw.speedup_vs(&base),
            hinted.speedup_vs(&base),
            combined.speedup_vs(&base),
        ));
    }
    let mut t = Table::new(vec![
        "bench",
        "hw pointer speedup",
        "hinted pointer speedup",
        "SRP+pointer speedup",
    ]);
    let mut bars = Vec::new();
    for (n, hw, h, comb) in &rows {
        t.row(vec![n.clone(), f2(*hw), f2(*h), f2(*comb)]);
        bars.push((n.clone(), *hw));
    }
    let max = bars.iter().map(|(_, v)| *v).fold(1.0f64, f64::max);
    format!(
        "Figure 9: performance gains from pointer prefetching (C codes)\n{}\n{}",
        t.render(),
        bar_chart(&bars, max, 40)
    )
}

/// Figures 10/11: per-benchmark IPC under each scheme, for one suite
/// class.
pub fn figure_perf(suite: &mut Suite, class: BenchClass) -> String {
    let names: Vec<&'static str> = grp_workloads::perf_set()
        .iter()
        .filter(|w| w.class == class)
        .map(|w| w.name)
        .collect();
    let mut t = Table::new(vec![
        "bench",
        "none",
        "stride",
        "SRP",
        "GRP/Var",
        "perfect-L2",
    ]);
    for name in names {
        let base = suite.run(name, Scheme::NoPrefetch);
        let stride = suite.run(name, Scheme::Stride);
        let srp = suite.run(name, Scheme::Srp);
        let grp = suite.run(name, Scheme::GrpVar);
        let l2 = suite.run(name, Scheme::PerfectL2);
        t.row(vec![
            name.to_string(),
            f2(base.ipc()),
            f2(stride.ipc()),
            f2(srp.ipc()),
            f2(grp.ipc()),
            f2(l2.ipc()),
        ]);
    }
    let figno = match class {
        BenchClass::Int => "Figure 10 (integer benchmarks)",
        BenchClass::Fp => "Figure 11 (floating-point benchmarks)",
        BenchClass::App => "Figure 10/11 appendix (applications)",
    };
    format!(
        "{figno}: IPC under region and stride prefetching\n{}",
        t.render()
    )
}

/// Figure 12: memory traffic normalized to no prefetching.
pub fn figure12(suite: &mut Suite) -> String {
    let mut t = Table::new(vec!["bench", "stride", "SRP", "GRP/Var"]);
    let mut stride_all = Vec::new();
    let mut srp_all = Vec::new();
    let mut grp_all = Vec::new();
    for name in suite.perf_names() {
        let base = suite.run(name, Scheme::NoPrefetch);
        let stride = suite.run(name, Scheme::Stride).traffic_vs(&base);
        let srp = suite.run(name, Scheme::Srp).traffic_vs(&base);
        let grp = suite.run(name, Scheme::GrpVar).traffic_vs(&base);
        stride_all.push(stride);
        srp_all.push(srp);
        grp_all.push(grp);
        t.row(vec![name.to_string(), f2(stride), f2(srp), f2(grp)]);
    }
    t.row(vec![
        "geomean".to_string(),
        f2(geomean(&stride_all)),
        f2(geomean(&srp_all)),
        f2(geomean(&grp_all)),
    ]);
    format!("Figure 12: normalized memory traffic\n{}", t.render())
}

/// Table 4: GRP/Var vs GRP/Fix traffic and the region-size distribution
/// for the three benchmarks where they differ.
pub fn table4(suite: &mut Suite) -> String {
    let mut t = Table::new(vec![
        "bench",
        "Var traffic",
        "Fix traffic",
        "size 2 %",
        "size 4 %",
        "size 8 %",
        "size 64 %",
    ]);
    for name in ["mesa", "bzip2", "sphinx"] {
        let base = suite.run(name, Scheme::NoPrefetch);
        let var = suite.run(name, Scheme::GrpVar);
        let fix = suite.run(name, Scheme::GrpFix);
        let hist = var.engine.region_size_hist;
        let total: u64 = hist.iter().sum::<u64>().max(1);
        let share = |i: usize| 100.0 * hist[i] as f64 / total as f64;
        t.row(vec![
            name.to_string(),
            f2(var.traffic_vs(&base)),
            f2(fix.traffic_vs(&base)),
            format!("{:.1}", share(1)),
            format!("{:.1}", share(2)),
            format!("{:.1}", share(3)),
            format!("{:.1}", share(6)),
        ]);
    }
    format!(
        "Table 4: GRP/Var versus GRP/Fix (traffic vs baseline; Var region-size distribution)\n{}",
        t.render()
    )
}

/// Table 5: per-benchmark miss rate, coverage, accuracy, traffic.
pub fn table5(suite: &mut Suite) -> String {
    let mut t = Table::new(vec![
        "bench",
        "miss rate %",
        "stride cov %",
        "stride acc %",
        "SRP cov %",
        "SRP acc %",
        "GRP cov %",
        "GRP acc %",
        "traffic none/stride/SRP/GRP (blocks)",
    ]);
    let mut sums = [0.0f64; 6];
    let names = suite.perf_names();
    for name in &names {
        let base = suite.run(name, Scheme::NoPrefetch);
        let stride = suite.run(name, Scheme::Stride);
        let srp = suite.run(name, Scheme::Srp);
        let grp = suite.run(name, Scheme::GrpVar);
        let cols = [
            stride.coverage_vs(&base),
            stride.accuracy(),
            srp.coverage_vs(&base),
            srp.accuracy(),
            grp.coverage_vs(&base),
            grp.accuracy(),
        ];
        for (s, c) in sums.iter_mut().zip(cols) {
            *s += c;
        }
        t.row(vec![
            name.to_string(),
            pct(base.l2.miss_ratio()),
            pct(cols[0]),
            pct(cols[1]),
            pct(cols[2]),
            pct(cols[3]),
            pct(cols[4]),
            pct(cols[5]),
            format!(
                "{}/{}/{}/{}",
                base.traffic.total_blocks(),
                stride.traffic.total_blocks(),
                srp.traffic.total_blocks(),
                grp.traffic.total_blocks()
            ),
        ]);
    }
    // The paper's "average" row: arithmetic means, like Table 5's.
    let n = names.len() as f64;
    t.row(vec![
        "average".to_string(),
        "-".to_string(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
        pct(sums[4] / n),
        pct(sums[5] / n),
        "-".to_string(),
    ]);
    format!(
        "Table 5: prefetching accuracy, coverage and memory traffic\n{}",
        t.render()
    )
}

/// Table 6: benchmarks left >15% from perfect L2 under GRP, with the
/// designed miss cause and the share of misses on the hottest site.
pub fn table6(suite: &mut Suite) -> String {
    let causes: &[(&str, &str)] = &[
        ("swim", "transposed array access (set conflicts)"),
        ("art", "bandwidth bound + transposed heap array"),
        ("mcf", "tree traversal"),
        ("ammp", "linked list traversal"),
        ("bzip2", "indirect array reference"),
        ("twolf", "linked lists and random pointers"),
        ("sphinx", "hash table lookup"),
    ];
    let mut t = Table::new(vec![
        "bench",
        "GRP gap %",
        "designed miss cause",
        "top-site share %",
    ]);
    for (name, cause) in causes {
        let grp = suite.run(name, Scheme::GrpVar);
        let perfect = suite.run(name, Scheme::PerfectL2);
        let total: u64 = grp.attribution.counts().iter().sum();
        let top = grp.attribution.top(1);
        let share = if total > 0 && !top.is_empty() {
            100.0 * top[0].1 as f64 / total as f64
        } else {
            0.0
        };
        t.row(vec![
            name.to_string(),
            format!("{:.1}", grp.gap_vs_perfect(&perfect)),
            cause.to_string(),
            format!("{share:.1}"),
        ]);
    }
    format!(
        "Table 6: level-2 miss characteristics under GRP\n{}",
        t.render()
    )
}

/// §5.4: compiler spatial-policy sensitivity (default vs aggressive vs
/// conservative), geometric means over the perf set.
pub fn sensitivity(suite: &mut Suite) -> String {
    let names = suite.perf_names();
    let mut t = Table::new(vec!["policy", "speedup", "traffic"]);
    for (label, scheme) in [
        ("conservative", Scheme::GrpConservative),
        ("default", Scheme::GrpVar),
        ("aggressive", Scheme::GrpAggressive),
    ] {
        let mut sp = Vec::new();
        let mut tr = Vec::new();
        for name in &names {
            let base = suite.run(name, Scheme::NoPrefetch);
            let r = suite.run(name, scheme);
            sp.push(r.speedup_vs(&base));
            tr.push(r.traffic_vs(&base).max(1e-9));
        }
        t.row(vec![label.to_string(), f2(geomean(&sp)), f2(geomean(&tr))]);
    }
    format!(
        "Section 5.4: compiler spatial-policy sensitivity\n{}",
        t.render()
    )
}

/// §5.5's bandwidth observation: "art is bandwidth bound … larger caches
/// and wider channels improve art appreciably." Sweeps DRAM channel
/// count for the benchmarks the paper calls memory-bound, on a fresh
/// suite at `scale` (see [`bandwidth_study_with`]).
pub fn bandwidth_study(scale: crate::suite::SuiteScale) -> String {
    bandwidth_study_with(&mut Suite::new(scale))
}

/// [`bandwidth_study`] over `suite`'s platform configuration. The
/// column at the suite's own channel count reads the GRP/Var cells
/// already in its memo table; every other cell runs as one batch
/// through the suite's own runner — its replay mode, workload cache and
/// worker count — so each benchmark is interpreted (or loaded from the
/// trace cache) once for all of them.
pub fn bandwidth_study_with(suite: &mut Suite) -> String {
    const BENCHES: [&str; 3] = ["art", "swim", "mcf"];
    const CHANNELS: [usize; 3] = [2, 4, 8];
    let base = *suite.config();
    let mut ipc = vec![0.0; BENCHES.len() * CHANNELS.len()];
    let mut jobs = Vec::new();
    for (k, kernel) in BENCHES.into_iter().enumerate() {
        for (c, channels) in CHANNELS.into_iter().enumerate() {
            let id = k * CHANNELS.len() + c;
            let memo = (channels == base.dram.channels)
                .then(|| suite.cached(kernel, Scheme::GrpVar))
                .flatten();
            if let Some(r) = memo {
                ipc[id] = r.ipc();
                continue;
            }
            let mut cfg = base;
            cfg.dram.channels = channels;
            jobs.push(CellJob {
                id: id as u64,
                kernel,
                scheme: Scheme::GrpVar,
                scale: suite.scale().workload_scale(),
                cfg,
                deadline: None,
            });
        }
    }
    suite.run_jobs(&jobs, |cell| {
        let r = cell
            .outcome
            .unwrap_or_else(|e| panic!("bandwidth study {}: {e}", cell.kernel));
        ipc[cell.id as usize] = r.ipc();
    });
    let mut t = Table::new(vec!["bench", "2 channels", "4 channels", "8 channels"]);
    for (kernel, row) in BENCHES.iter().zip(ipc.chunks(CHANNELS.len())) {
        let mut cells = vec![kernel.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        t.row(cells);
    }
    format!(
        "Section 5.5 bandwidth study: GRP/Var IPC vs DRAM channel count\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteScale;

    #[test]
    fn table2_is_static_and_complete() {
        let s = table2();
        for hint in ["spatial", "size", "indirect", "pointer", "recursive"] {
            assert!(s.contains(hint), "missing {hint}");
        }
    }

    #[test]
    fn table1_runs_at_test_scale() {
        let mut suite = Suite::new(SuiteScale::Test);
        let (rows, text) = table1(&mut suite);
        assert_eq!(rows.len(), 5);
        assert!(text.contains("GRP/Var"));
        // The no-prefetch row is the identity.
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!((rows[0].traffic - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_study_shows_channel_scaling() {
        let s = bandwidth_study(SuiteScale::Test);
        assert!(s.contains("art"));
        assert!(s.contains("8 channels"));
        // Over a suite whose memo already holds the default-channel
        // cells, the table is the same text.
        let mut suite = Suite::new(SuiteScale::Test);
        for kernel in ["art", "swim", "mcf"] {
            suite.run(kernel, Scheme::GrpVar);
        }
        assert_eq!(bandwidth_study_with(&mut suite), s);
    }

    #[test]
    fn bandwidth_study_on_a_warm_trace_cache_builds_nothing() {
        // The study's cells run under the suite's replay mode: a cold
        // suite fills the trace cache with the GRP/Var entries of the
        // three kernels, and a second suite replays them from it without
        // building a single workload, printing the same table.
        let want = bandwidth_study(SuiteScale::Test);
        let dir = std::env::temp_dir().join(format!("grp-bandwidth-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mode = crate::sched::ReplayMode {
            trace_cache: Some(std::sync::Arc::new(crate::tracecache::TraceCache::new(
                &dir,
            ))),
            ..Default::default()
        };
        let mut cold = Suite::new(SuiteScale::Test).with_replay(mode.clone());
        assert_eq!(bandwidth_study_with(&mut cold), want);
        assert_eq!(cold.workloads.built_count(), 3);
        let mut warm = Suite::new(SuiteScale::Test).with_replay(mode);
        assert_eq!(bandwidth_study_with(&mut warm), want);
        assert_eq!(
            warm.workloads.built_count(),
            0,
            "a warm cache builds nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table4_reports_three_benchmarks() {
        let mut suite = Suite::new(SuiteScale::Test);
        let s = table4(&mut suite);
        for n in ["mesa", "bzip2", "sphinx"] {
            assert!(s.contains(n));
        }
    }
}
