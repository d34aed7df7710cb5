//! The evaluation's result table: one simulation per cell, `(benchmark,
//! scheme, SimConfig)`, filled in batches and then read.

use std::collections::HashMap;
use std::sync::Arc;

use grp_core::{RunResult, Scheme, SimConfig};
use grp_workloads::{all, BuiltWorkload, Scale};

use crate::sched::{self, CellJob, ReplayMode, WorkloadCache};

/// Problem-size selection for a whole experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuiteScale {
    /// Tiny (CI / unit tests).
    Test,
    /// Reduced (minutes for the full evaluation).
    #[default]
    Small,
    /// Full size (tens of minutes).
    Paper,
}

impl SuiteScale {
    /// The per-workload scale this suite scale implies.
    pub fn workload_scale(self) -> Scale {
        match self {
            SuiteScale::Test => Scale::Test,
            SuiteScale::Small => Scale::Small,
            SuiteScale::Paper => Scale::Paper,
        }
    }

    /// Parses `test` / `small` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "test" => Some(SuiteScale::Test),
            "small" => Some(SuiteScale::Small),
            "paper" => Some(SuiteScale::Paper),
            _ => None,
        }
    }
}

/// Parses `--scale <s>` from an argv slice: `Small` when the flag is
/// absent, an error naming the valid scales on a typo, a missing or
/// flag-like value, or a duplicated flag.
pub fn parse_scale_args(args: &[String]) -> Result<SuiteScale, String> {
    match crate::args::strict_value(args, "--scale", "test, small, paper")? {
        None => Ok(SuiteScale::default()),
        Some(s) => SuiteScale::parse(&s)
            .ok_or_else(|| format!("unknown scale '{s}' (valid: test, small, paper)")),
    }
}

/// Parses `--scale <s>` from argv, defaulting to `Small` when the flag
/// is absent and exiting with an error on a typo (a silent `Small`
/// fallback once burned a paper-scale run down to the small inputs).
pub fn scale_from_args() -> SuiteScale {
    let args: Vec<String> = std::env::args().collect();
    parse_scale_args(&args).unwrap_or_else(|e| {
        crate::telemetry::log::error("suite", &e);
        std::process::exit(2);
    })
}

/// The evaluation's result table: filled by cell batches through the
/// cell scheduler ([`crate::sched`]) under the suite's [`ReplayMode`],
/// sharing built workloads through one [`WorkloadCache`], then read by
/// the `experiments::*` renderers. Each result is keyed by its whole
/// cell, `(kernel, scheme, SimConfig)`.
pub struct Suite {
    scale: SuiteScale,
    cfg: SimConfig,
    pub(crate) workloads: WorkloadCache,
    /// Two-level: `SimConfig` is not `Hash`, and a kernel × scheme pair
    /// holds at most a handful of configurations.
    results: HashMap<(&'static str, Scheme), Vec<(SimConfig, RunResult)>>,
    verbose: bool,
    replay: ReplayMode,
}

impl Suite {
    /// A suite at `scale` with the paper's platform configuration.
    pub fn new(scale: SuiteScale) -> Self {
        Self {
            scale,
            cfg: SimConfig::paper(),
            workloads: WorkloadCache::new(),
            results: HashMap::new(),
            verbose: false,
            replay: ReplayMode::default(),
        }
    }

    /// Selects the trace cache and telemetry ([`ReplayMode`]) for every
    /// cell this suite runs. Results are bit-identical across modes;
    /// only setup/replay cost shifts.
    pub fn with_replay(mut self, replay: ReplayMode) -> Self {
        self.replay = replay;
        self
    }

    /// Enables progress logging to stderr.
    pub fn verbose(mut self) -> Self {
        self.verbose = true;
        self
    }

    /// The platform configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The built (setup-complete) workload, building it on first use
    /// into the cache the suite's cells share.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn built(&self, name: &'static str) -> Arc<BuiltWorkload> {
        self.workloads
            .get_or_build(name, self.scale.workload_scale())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The result of `kernel` under `scheme` on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics naming the cell if no fill ran it: readers list their
    /// cells up front ([`crate::experiments::cells`]), so a miss is a
    /// caller bug.
    #[track_caller]
    pub fn result(&self, kernel: &'static str, scheme: Scheme, cfg: &SimConfig) -> &RunResult {
        // Not a closure: the panic must report the caller's location.
        let runs = self.results.get(&(kernel, scheme));
        let Some((_, r)) = runs.and_then(|runs| runs.iter().find(|(c, _)| c == cfg)) else {
            panic!(
                "suite has no result for {kernel}/{scheme} at {} DRAM channels: \
                 fill the cell before reading it",
                cfg.dram.channels
            )
        };
        r
    }

    /// Runs `cells`, at the suite's scale, as one batch through the
    /// work-stealing cell scheduler ([`crate::sched`]) and stores their
    /// results: the cells of a kernel share one interpretation, and
    /// their replays spread across workers. `jobs` is the worker count
    /// (`None` = [`crate::args::default_jobs`]). Per-cell results are
    /// bit-identical to `BuiltWorkload::run` for any worker count and
    /// steal order.
    ///
    /// # Errors
    ///
    /// Lists every failed cell (unknown kernel or a panic inside the
    /// cell, isolated by the scheduler) while the surviving cells'
    /// results still land in the table.
    pub fn fill(&mut self, cells: &[CellJob], jobs: Option<usize>) -> Result<(), String> {
        let scale = self.scale.workload_scale();
        // Ids index `cells`, so each reply finds its cell's configuration.
        let cells: Vec<CellJob> = (0..)
            .zip(cells)
            .map(|(id, c)| CellJob { id, scale, ..*c })
            .collect();
        let (verbose, results) = (self.verbose, &mut self.results);
        let mut failures: Vec<String> = Vec::new();
        let stats = sched::run_cells_mode(
            &cells,
            jobs.unwrap_or_else(crate::args::default_jobs),
            &self.workloads,
            &self.replay,
            |cell| {
                if verbose {
                    crate::telemetry::log::log_kv(
                        crate::telemetry::log::Level::Info,
                        "suite",
                        "fleet cell done",
                        &[
                            ("bench", cell.kernel.into()),
                            ("scheme", cell.scheme.label().into()),
                            ("worker", (cell.worker as u64).into()),
                        ],
                    );
                }
                match cell.outcome {
                    Ok(r) => results
                        .entry((cell.kernel, cell.scheme))
                        .or_default()
                        .push((cells[cell.id as usize].cfg, r)),
                    Err(e) => failures.push(format!("{}/{}: {e}", cell.kernel, cell.scheme)),
                }
            },
        );
        if verbose {
            crate::telemetry::log::info(
                "suite",
                &format!(
                    "[fleet] {} cells on {} workers in {:.3}s ({} steals)",
                    stats.cells, stats.workers, stats.wall_seconds, stats.steals
                ),
            );
        }
        if failures.is_empty() {
            return Ok(());
        }
        failures.sort();
        Err(format!(
            "fill: {}/{} cell(s) failed at {:?} scale — {}",
            failures.len(),
            cells.len(),
            self.scale,
            failures.join("; ")
        ))
    }

    /// [`Suite::fill`] over the `names × schemes` grid at the suite's
    /// configuration ([`sched::grid_jobs`]).
    ///
    /// # Errors
    ///
    /// As [`Suite::fill`].
    pub fn precompute_cells(
        &mut self,
        names: &[&'static str],
        schemes: &[Scheme],
        jobs: Option<usize>,
    ) -> Result<(), String> {
        let cells = sched::grid_jobs(names, schemes, self.scale.workload_scale(), self.cfg);
        self.fill(&cells, jobs)
    }

    /// Names of the performance-figure benchmarks (crafty excluded).
    pub fn perf_names(&self) -> Vec<&'static str> {
        grp_workloads::perf_set().iter().map(|w| w.name).collect()
    }

    /// All registry names (Table 3 includes crafty).
    pub fn all_names(&self) -> Vec<&'static str> {
        all().iter().map(|w| w.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(SuiteScale::parse("test"), Some(SuiteScale::Test));
        assert_eq!(SuiteScale::parse("small"), Some(SuiteScale::Small));
        assert_eq!(SuiteScale::parse("paper"), Some(SuiteScale::Paper));
        assert_eq!(SuiteScale::parse("big"), None);
        assert_eq!(SuiteScale::Test.workload_scale(), Scale::Test);
    }

    #[test]
    fn scale_args_parse_and_error_path() {
        let argv = |s: &[&str]| -> Vec<String> { s.iter().map(|a| a.to_string()).collect() };
        // Absent flag: the documented Small default.
        assert_eq!(parse_scale_args(&argv(&["all"])), Ok(SuiteScale::Small));
        assert_eq!(
            parse_scale_args(&argv(&["all", "--scale", "paper"])),
            Ok(SuiteScale::Paper)
        );
        assert_eq!(
            parse_scale_args(&argv(&["all", "--scale", "test"])),
            Ok(SuiteScale::Test)
        );
        // Regression: a typo used to fall back silently to Small; it must
        // now surface an error that names the valid scales.
        let err = parse_scale_args(&argv(&["all", "--scale", "papr"])).unwrap_err();
        assert!(err.contains("papr"), "error names the bad value: {err}");
        assert!(
            err.contains("test, small, paper"),
            "error lists valid scales: {err}"
        );
        let err = parse_scale_args(&argv(&["all", "--scale"])).unwrap_err();
        assert!(
            err.contains("requires a value"),
            "missing value is an error: {err}"
        );
        // A duplicated flag must not silently pick one occurrence.
        let err =
            parse_scale_args(&argv(&["all", "--scale", "test", "--scale", "paper"])).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        // A value that is itself a flag must not be swallowed.
        let err = parse_scale_args(&argv(&["all", "--scale", "--verbose"])).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
        assert!(err.contains("test, small, paper"), "{err}");
    }

    #[test]
    fn parallel_precompute_is_bit_identical_to_the_reference() {
        // Every counter of every (benchmark, scheme) result must match
        // the reference `BuiltWorkload::run` exactly, for any worker
        // count — scheduling order must not leak into results.
        let names = ["twolf", "mcf", "sphinx", "crafty"];
        let schemes = [Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar];
        let cfg = SimConfig::paper();
        let mut expected = Vec::new();
        for name in names {
            let built = grp_workloads::by_name(name).unwrap().build(Scale::Test);
            for scheme in schemes {
                expected.push((name, scheme, built.run(scheme, &cfg)));
            }
        }
        for jobs in [Some(1), Some(3), None] {
            let mut par = Suite::new(SuiteScale::Test);
            par.precompute_cells(&names, &schemes, jobs)
                .expect("clean grid");
            for (name, scheme, want) in &expected {
                assert_eq!(
                    par.result(name, *scheme, &cfg),
                    want,
                    "{name}/{scheme:?} differs from the reference at jobs={jobs:?}"
                );
            }
            assert_eq!(par.results.len(), expected.len(), "one entry per cell");
        }
    }

    #[test]
    fn precompute_cells_isolates_a_panicking_cell() {
        // A cell that panics mid-interpretation is named (with its panic
        // message) while every other cell's result lands. The poisoned
        // workload is crafty's program bound to another kernel's data.
        let mut s = Suite::new(SuiteScale::Test);
        let mut poisoned = grp_workloads::by_name("crafty").unwrap().build(Scale::Test);
        poisoned.bindings = grp_workloads::by_name("mcf")
            .unwrap()
            .build(Scale::Test)
            .bindings;
        s.workloads
            .insert("crafty", Scale::Test, Arc::new(poisoned));
        let err = s
            .precompute_cells(
                &["crafty", "sphinx", "twolf"],
                &[Scheme::NoPrefetch],
                Some(2),
            )
            .unwrap_err();
        assert!(err.contains("crafty"), "error names the cell: {err}");
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("1/3"), "error counts failures: {err}");
        assert!(err.contains("Test"), "error names the scale: {err}");
        // Survivors' results landed and the suite stays usable.
        assert!(s.results.contains_key(&("sphinx", Scheme::NoPrefetch)));
        assert!(s.results.contains_key(&("twolf", Scheme::NoPrefetch)));
        assert!(!s.results.contains_key(&("crafty", Scheme::NoPrefetch)));
        assert!(s.result("sphinx", Scheme::NoPrefetch, s.config()).cycles > 0);
    }

    #[test]
    fn precompute_cells_fills_the_memo_table_and_shares_builds() {
        let mut s = Suite::new(SuiteScale::Test);
        s.precompute_cells(
            &["crafty", "sphinx"],
            &[Scheme::NoPrefetch, Scheme::PerfectL2],
            Some(2),
        )
        .expect("clean grid");
        assert_eq!(s.results.len(), 4);
        // The scheduler built into the suite's own cache: built() and a
        // later fill reuse that workload.
        assert_eq!(s.workloads.built_count(), 2);
        let before = s.workloads.get("crafty", Scale::Test).expect("cached");
        assert!(Arc::ptr_eq(&before, &s.built("crafty")));
        s.precompute_cells(&["crafty"], &[Scheme::Srp], Some(1))
            .expect("clean grid");
        assert_eq!(s.workloads.built_count(), 2, "a later fill never rebuilds");
        // And the stored results match the reference.
        let want = s
            .built("sphinx")
            .run(Scheme::PerfectL2, &SimConfig::paper());
        assert_eq!(*s.result("sphinx", Scheme::PerfectL2, s.config()), want);
        assert_eq!(s.results.len(), 5);
    }

    #[test]
    fn precompute_cells_isolates_a_failing_cell() {
        let mut s = Suite::new(SuiteScale::Test);
        let err = s
            .precompute_cells(&["nope", "twolf"], &[Scheme::NoPrefetch], Some(2))
            .unwrap_err();
        assert!(err.contains("nope"), "error names the failing cell: {err}");
        assert!(err.contains("1/2"), "error counts failures: {err}");
        // The surviving cell's result landed and the suite stays usable.
        assert!(s.results.contains_key(&("twolf", Scheme::NoPrefetch)));
        assert!(s.result("twolf", Scheme::NoPrefetch, s.config()).cycles > 0);
    }

    #[test]
    fn results_are_keyed_by_the_whole_cell() {
        // The same kernel and scheme at two DRAM channel counts are two
        // cells, filled in one batch and read back apart.
        let mut wide = SimConfig::paper();
        wide.dram.channels = 8;
        let cells: Vec<CellJob> = [SimConfig::paper(), wide]
            .into_iter()
            .flat_map(|cfg| sched::grid_jobs(&["art"], &[Scheme::GrpVar], Scale::Test, cfg))
            .collect();
        let mut s = Suite::new(SuiteScale::Test);
        s.fill(&cells, Some(2)).expect("clean fill");
        let built = s.built("art");
        for cfg in [SimConfig::paper(), wide] {
            assert_eq!(
                *s.result("art", Scheme::GrpVar, &cfg),
                built.run(Scheme::GrpVar, &cfg)
            );
        }
        assert_ne!(
            s.result("art", Scheme::GrpVar, &wide),
            s.result("art", Scheme::GrpVar, s.config())
        );
    }

    #[test]
    #[should_panic(expected = "mcf/GRP/Var at 4 DRAM channels")]
    fn reading_an_unfilled_cell_panics_naming_it() {
        let s = Suite::new(SuiteScale::Test);
        s.result("mcf", Scheme::GrpVar, s.config());
    }

    #[test]
    fn replay_modes_match_the_default_suite_path() {
        let cfg = SimConfig::paper();
        let want = grp_workloads::by_name("twolf")
            .unwrap()
            .build(Scale::Test)
            .run(Scheme::GrpVar, &cfg);
        let dir = std::env::temp_dir().join(format!("grp-suite-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tc = Arc::new(crate::tracecache::TraceCache::new(&dir));
        // Cold cache (misses replay the interpreted trace), then a
        // second suite hitting the warm cache (hits replay the packed
        // trace) — both bit-identical to the default path.
        let cached = ReplayMode {
            trace_cache: Some(tc),
            ..ReplayMode::default()
        };
        let fill = |mode: &ReplayMode| {
            let mut s = Suite::new(SuiteScale::Test).with_replay(mode.clone());
            s.precompute_cells(&["twolf"], &[Scheme::GrpVar, Scheme::NoPrefetch], Some(2))
                .expect("clean grid");
            assert_eq!(*s.result("twolf", Scheme::GrpVar, &cfg), want);
            s
        };
        fill(&cached);
        let warm = fill(&cached);
        assert_eq!(
            warm.workloads.built_count(),
            0,
            "a warm trace cache must fill the suite without building the workload"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_lists() {
        let s = Suite::new(SuiteScale::Test);
        assert_eq!(s.all_names().len(), 18);
        assert_eq!(s.perf_names().len(), 17);
        assert!(!s.perf_names().contains(&"crafty"));
    }
}
