//! One function per table/figure of the paper's Section 5, each
//! rendering cells of a filled [`Suite`]; [`cells`] lists every cell
//! they read.

use grp_compiler::{census, AnalysisConfig};
use grp_core::{geomean, RunResult, Scheme, SimConfig};
use grp_workloads::BenchClass;

use crate::report::{bar_chart, f2, pct, Table};
use crate::sched::{self, CellJob};
use crate::suite::{Suite, SuiteScale};

/// The schemes compared in the headline tables.
pub const HEADLINE: [Scheme; 5] = [
    Scheme::NoPrefetch,
    Scheme::Stride,
    Scheme::Srp,
    Scheme::GrpFix,
    Scheme::GrpVar,
];

/// Every cell the renderers below read at `scale`: the kernel × scheme
/// grid at the paper's configuration, then the bandwidth study's
/// off-default channel counts.
pub fn cells(scale: SuiteScale) -> Vec<CellJob> {
    let cfg = SimConfig::paper();
    let names: Vec<&'static str> = grp_workloads::all().iter().map(|w| w.name).collect();
    let grid = sched::grid_jobs(&names, &Scheme::ALL, scale.workload_scale(), cfg);
    // The grid holds every kernel × scheme at `cfg`, so the study's
    // cells at `cfg` are duplicates.
    let study = bandwidth_cells(scale).into_iter().filter(|c| c.cfg != cfg);
    (0..)
        .zip(grid.into_iter().chain(study))
        .map(|(id, c)| CellJob { id, ..c })
        .collect()
}

/// Every section `all` prints, in order, each followed by a blank line.
pub fn evaluation(suite: &Suite) -> String {
    [
        figure1(suite),
        table1(suite).1,
        table2(),
        table3(suite),
        figure9(suite),
        figure_perf(suite, BenchClass::Int),
        figure_perf(suite, BenchClass::App),
        figure_perf(suite, BenchClass::Fp),
        figure12(suite),
        table4(suite),
        table5(suite),
        table6(suite),
        sensitivity(suite),
        bandwidth_table(suite),
    ]
    .iter()
    .map(|section| format!("{section}\n"))
    .collect()
}

/// `kernel` under `scheme` at the suite's own configuration.
#[track_caller]
fn at<'s>(suite: &'s Suite, kernel: &'static str, scheme: Scheme) -> &'s RunResult {
    suite.result(kernel, scheme, suite.config())
}

/// Figure 1: IPC of the realistic system vs perfect-L2 and perfect-L1
/// idealizations, plus the GRP bar, per benchmark (sorted by gap size).
pub fn figure1(suite: &Suite) -> String {
    let mut rows: Vec<(String, f64, f64, f64, f64, f64)> = Vec::new();
    for name in suite.perf_names() {
        let base = at(suite, name, Scheme::NoPrefetch);
        let l2 = at(suite, name, Scheme::PerfectL2);
        let l1 = at(suite, name, Scheme::PerfectL1);
        let grp = at(suite, name, Scheme::GrpVar);
        let gap = base.gap_vs_perfect(l2);
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
pub fn table1(suite: &Suite) -> (Vec<SummaryRow>, String) {
    let names = suite.perf_names();
    let mut rows = Vec::new();
    for scheme in HEADLINE {
        let mut speedups = Vec::new();
        let mut traffics = Vec::new();
        let mut gap_ratios = Vec::new();
        for name in &names {
            let base = at(suite, name, Scheme::NoPrefetch);
            let perfect = at(suite, name, Scheme::PerfectL2);
            let r = at(suite, name, scheme);
            speedups.push(r.speedup_vs(base));
            traffics.push(r.traffic_vs(base).max(1e-9));
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
pub fn table3(suite: &Suite) -> String {
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
pub fn figure9(suite: &Suite) -> String {
    let c_benches = [
        "gzip", "vpr", "mesa", "art", "mcf", "equake", "ammp", "parser", "gap", "bzip2", "twolf",
        "sphinx",
    ];
    let mut rows = Vec::new();
    for name in c_benches {
        let base = at(suite, name, Scheme::NoPrefetch);
        let hw = at(suite, name, Scheme::HwPointer);
        let hinted = at(suite, name, Scheme::GrpPointer);
        let combined = at(suite, name, Scheme::SrpPointer);
        rows.push((
            name.to_string(),
            hw.speedup_vs(base),
            hinted.speedup_vs(base),
            combined.speedup_vs(base),
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
pub fn figure_perf(suite: &Suite, class: BenchClass) -> String {
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
        let base = at(suite, name, Scheme::NoPrefetch);
        let stride = at(suite, name, Scheme::Stride);
        let srp = at(suite, name, Scheme::Srp);
        let grp = at(suite, name, Scheme::GrpVar);
        let l2 = at(suite, name, Scheme::PerfectL2);
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
pub fn figure12(suite: &Suite) -> String {
    let mut t = Table::new(vec!["bench", "stride", "SRP", "GRP/Var"]);
    let mut stride_all = Vec::new();
    let mut srp_all = Vec::new();
    let mut grp_all = Vec::new();
    for name in suite.perf_names() {
        let base = at(suite, name, Scheme::NoPrefetch);
        let stride = at(suite, name, Scheme::Stride).traffic_vs(base);
        let srp = at(suite, name, Scheme::Srp).traffic_vs(base);
        let grp = at(suite, name, Scheme::GrpVar).traffic_vs(base);
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
pub fn table4(suite: &Suite) -> String {
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
        let base = at(suite, name, Scheme::NoPrefetch);
        let var = at(suite, name, Scheme::GrpVar);
        let fix = at(suite, name, Scheme::GrpFix);
        let hist = var.engine.region_size_hist;
        let total: u64 = hist.iter().sum::<u64>().max(1);
        let share = |i: usize| 100.0 * hist[i] as f64 / total as f64;
        t.row(vec![
            name.to_string(),
            f2(var.traffic_vs(base)),
            f2(fix.traffic_vs(base)),
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
pub fn table5(suite: &Suite) -> String {
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
        let base = at(suite, name, Scheme::NoPrefetch);
        let stride = at(suite, name, Scheme::Stride);
        let srp = at(suite, name, Scheme::Srp);
        let grp = at(suite, name, Scheme::GrpVar);
        let cols = [
            stride.coverage_vs(base),
            stride.accuracy(),
            srp.coverage_vs(base),
            srp.accuracy(),
            grp.coverage_vs(base),
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
pub fn table6(suite: &Suite) -> String {
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
        let grp = at(suite, name, Scheme::GrpVar);
        let perfect = at(suite, name, Scheme::PerfectL2);
        let total: u64 = grp.attribution.counts().iter().sum();
        let top = grp.attribution.top(1);
        let share = if total > 0 && !top.is_empty() {
            100.0 * top[0].1 as f64 / total as f64
        } else {
            0.0
        };
        t.row(vec![
            name.to_string(),
            format!("{:.1}", grp.gap_vs_perfect(perfect)),
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
pub fn sensitivity(suite: &Suite) -> String {
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
            let base = at(suite, name, Scheme::NoPrefetch);
            let r = at(suite, name, scheme);
            sp.push(r.speedup_vs(base));
            tr.push(r.traffic_vs(base).max(1e-9));
        }
        t.row(vec![label.to_string(), f2(geomean(&sp)), f2(geomean(&tr))]);
    }
    format!(
        "Section 5.4: compiler spatial-policy sensitivity\n{}",
        t.render()
    )
}

/// The kernels the paper calls memory-bound (§5.5).
const BANDWIDTH_BENCHES: [&str; 3] = ["art", "swim", "mcf"];
/// The DRAM channel counts the bandwidth study sweeps.
const BANDWIDTH_CHANNELS: [usize; 3] = [2, 4, 8];

/// `base` with `channels` DRAM channels.
fn with_channels(base: SimConfig, channels: usize) -> SimConfig {
    let mut cfg = base;
    cfg.dram.channels = channels;
    cfg
}

/// The bandwidth study's cells: GRP/Var on each memory-bound kernel at
/// each channel count.
fn bandwidth_cells(scale: SuiteScale) -> Vec<CellJob> {
    let cfgs = BANDWIDTH_CHANNELS.map(|channels| with_channels(SimConfig::paper(), channels));
    cfgs.into_iter()
        .flat_map(|cfg| {
            sched::grid_jobs(
                &BANDWIDTH_BENCHES,
                &[Scheme::GrpVar],
                scale.workload_scale(),
                cfg,
            )
        })
        .collect()
}

/// §5.5's bandwidth observation: "art is bandwidth bound … larger caches
/// and wider channels improve art appreciably." Fills a fresh suite at
/// `scale` with the study's cells (panicking if one fails), then
/// renders [`bandwidth_table`].
pub fn bandwidth_study(scale: SuiteScale) -> String {
    let mut suite = Suite::new(scale);
    suite
        .fill(&bandwidth_cells(scale), None)
        .unwrap_or_else(|e| panic!("bandwidth study: {e}"));
    bandwidth_table(&suite)
}

/// The bandwidth study's table: GRP/Var IPC per channel count.
pub fn bandwidth_table(suite: &Suite) -> String {
    let mut t = Table::new(vec!["bench", "2 channels", "4 channels", "8 channels"]);
    for kernel in BANDWIDTH_BENCHES {
        let mut row = vec![kernel.to_string()];
        for channels in BANDWIDTH_CHANNELS {
            let cfg = with_channels(*suite.config(), channels);
            row.push(format!(
                "{:.2}",
                suite.result(kernel, Scheme::GrpVar, &cfg).ipc()
            ));
        }
        t.row(row);
    }
    format!(
        "Section 5.5 bandwidth study: GRP/Var IPC vs DRAM channel count\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One test-scale suite filled with every cell the renderers read,
    /// shared by the tests below.
    fn filled() -> &'static Suite {
        static SUITE: OnceLock<Suite> = OnceLock::new();
        SUITE.get_or_init(|| {
            let mut suite = Suite::new(SuiteScale::Test);
            suite
                .fill(&cells(SuiteScale::Test), None)
                .expect("clean fill");
            suite
        })
    }

    #[test]
    fn table2_is_static_and_complete() {
        let s = table2();
        for hint in ["spatial", "size", "indirect", "pointer", "recursive"] {
            assert!(s.contains(hint), "missing {hint}");
        }
    }

    #[test]
    fn cells_are_the_grid_plus_the_off_default_bandwidth_cells() {
        let cells = cells(SuiteScale::Test);
        // The 4-channel bandwidth cells are the grid's own GRP/Var cells.
        assert_eq!(cells.len(), 18 * Scheme::ALL.len() + 6);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u64, "ids index the list");
            assert!(
                !cells[..i]
                    .iter()
                    .any(|d| (d.kernel, d.scheme, d.cfg) == (c.kernel, c.scheme, c.cfg)),
                "{}/{} listed twice",
                c.kernel,
                c.scheme
            );
        }
    }

    #[test]
    fn table1_runs_at_test_scale() {
        let (rows, text) = table1(filled());
        assert_eq!(rows.len(), 5);
        assert!(text.contains("GRP/Var"));
        // The no-prefetch row is the identity.
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!((rows[0].traffic - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_table_over_the_union_equals_the_study() {
        // `all` renders the study from the one filled table; the
        // standalone study fills a fresh suite with its own cells.
        let s = bandwidth_study(SuiteScale::Test);
        assert!(s.contains("art"));
        assert!(s.contains("8 channels"));
        assert_eq!(bandwidth_table(filled()), s);
    }

    #[test]
    #[should_panic(expected = "sphinx/GRP/Fix at 4 DRAM channels")]
    fn a_renderer_on_a_partly_filled_suite_panics_naming_the_cell() {
        // Table 4 reads none, GRP/Var and GRP/Fix of three kernels; the
        // last kernel lacks GRP/Fix.
        let mut suite = Suite::new(SuiteScale::Test);
        let schemes = [Scheme::NoPrefetch, Scheme::GrpVar, Scheme::GrpFix];
        suite
            .precompute_cells(&["mesa", "bzip2"], &schemes, Some(2))
            .expect("clean grid");
        suite
            .precompute_cells(&["sphinx"], &schemes[..2], Some(2))
            .expect("clean grid");
        table4(&suite);
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
        let study = bandwidth_cells(SuiteScale::Test);
        let mut cold = Suite::new(SuiteScale::Test).with_replay(mode.clone());
        cold.fill(&study, Some(2)).expect("clean fill");
        assert_eq!(bandwidth_table(&cold), want);
        assert_eq!(cold.workloads.built_count(), 3);
        let mut warm = Suite::new(SuiteScale::Test).with_replay(mode);
        warm.fill(&study, Some(2)).expect("clean fill");
        assert_eq!(bandwidth_table(&warm), want);
        assert_eq!(
            warm.workloads.built_count(),
            0,
            "a warm cache builds nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table4_reports_three_benchmarks() {
        let s = table4(filled());
        for n in ["mesa", "bzip2", "sphinx"] {
            assert!(s.contains(n));
        }
    }
}
