//! Memoizing suite runner: one simulation per `(benchmark, scheme)`.

use std::collections::HashMap;
use std::sync::Arc;

use grp_core::{RunResult, Scheme, SimConfig};
use grp_workloads::{all, BuiltWorkload, Scale};

use crate::sched::{self, CellJob, CellResult, FleetStats, ReplayMode, WorkloadCache};

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

/// Memoizing runner over the benchmark registry. Every cell it runs
/// goes through the cell scheduler ([`crate::sched`]) under the suite's
/// [`ReplayMode`], sharing built workloads through one
/// [`WorkloadCache`].
pub struct Suite {
    scale: SuiteScale,
    cfg: SimConfig,
    pub(crate) workloads: WorkloadCache,
    results: HashMap<(&'static str, Scheme), RunResult>,
    verbose: bool,
    replay: ReplayMode,
    workers: usize,
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
            workers: crate::args::default_jobs(),
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

    /// The problem size every cell runs at.
    pub fn scale(&self) -> SuiteScale {
        self.scale
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

    /// Runs `jobs` through the cell scheduler under this suite's
    /// [`ReplayMode`] and workload cache, on at most the worker count
    /// the suite was last filled with ([`Suite::precompute_cells`]).
    pub(crate) fn run_jobs(
        &self,
        jobs: &[CellJob],
        on_complete: impl FnMut(CellResult),
    ) -> FleetStats {
        sched::run_cells_mode(
            jobs,
            self.workers,
            &self.workloads,
            &self.replay,
            on_complete,
        )
    }

    /// Runs (or recalls) `name` under `scheme`: a miss runs a one-cell
    /// batch through [`Suite::run_jobs`], so a trace-cache hit skips the
    /// build.
    ///
    /// # Panics
    ///
    /// Panics if the cell fails (a workload bug).
    pub fn run(&mut self, name: &'static str, scheme: Scheme) -> RunResult {
        if let Some(r) = self.results.get(&(name, scheme)) {
            return r.clone();
        }
        if self.verbose {
            crate::telemetry::log::info("suite", &format!("running {name} / {scheme}…"));
        }
        let job = sched::grid_jobs(&[name], &[scheme], self.scale.workload_scale(), self.cfg);
        let mut outcome = None;
        self.run_jobs(&job, |cell| outcome = Some(cell.outcome));
        let r = outcome
            .expect("every job gets one reply")
            .unwrap_or_else(|e| panic!("{e}"));
        self.results.insert((name, scheme), r.clone());
        r
    }

    /// The memoized result of `name` under `scheme`, if already run.
    pub fn cached(&self, name: &str, scheme: Scheme) -> Option<&RunResult> {
        let name = grp_workloads::by_name(name)?.name;
        self.results.get(&(name, scheme))
    }

    /// Warms the memo table through the work-stealing cell scheduler
    /// ([`crate::sched`]): the schemes of a kernel share one
    /// interpretation, and their replays spread across workers.
    ///
    /// `jobs` is the worker count (`None` = [`crate::args::default_jobs`]);
    /// later batches of this suite run on the same count. Per-cell
    /// results are bit-identical to `BuiltWorkload::run` for any worker
    /// count and steal order.
    ///
    /// # Errors
    ///
    /// Lists every failed cell (unknown kernel or a panic inside the
    /// cell, isolated by the scheduler) while the surviving cells'
    /// results still land in the memo table.
    pub fn precompute_cells(
        &mut self,
        names: &[&'static str],
        schemes: &[Scheme],
        jobs: Option<usize>,
    ) -> Result<(), String> {
        self.workers = jobs.unwrap_or_else(crate::args::default_jobs);
        let cells: Vec<CellJob> =
            sched::grid_jobs(names, schemes, self.scale.workload_scale(), self.cfg);
        let verbose = self.verbose;
        let mut done = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        let stats = self.run_jobs(&cells, |cell| {
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
                Ok(r) => done.push(((cell.kernel, cell.scheme), r)),
                Err(e) => failures.push(format!("{}/{}: {e}", cell.kernel, cell.scheme)),
            }
        });
        self.results.extend(done);
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
            "precompute_cells: {}/{} cell(s) failed at {:?} scale — {}",
            failures.len(),
            cells.len(),
            self.scale,
            failures.join("; ")
        ))
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
    fn suite_memoizes_runs() {
        let mut s = Suite::new(SuiteScale::Test);
        let a = s.run("crafty", Scheme::NoPrefetch);
        let b = s.run("crafty", Scheme::NoPrefetch);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(s.results.len(), 1);
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
                let got = par.run(name, *scheme);
                assert_eq!(
                    got, *want,
                    "{name}/{scheme:?} differs from the reference at jobs={jobs:?}"
                );
            }
            assert_eq!(par.results.len(), expected.len(), "no recompute");
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
        assert!(s.run("sphinx", Scheme::NoPrefetch).cycles > 0);
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
        // later miss reuse that workload.
        assert_eq!(s.workloads.built_count(), 2);
        let before = s.workloads.get("crafty", Scale::Test).expect("cached");
        assert!(Arc::ptr_eq(&before, &s.built("crafty")));
        s.run("crafty", Scheme::Srp);
        assert_eq!(s.workloads.built_count(), 2, "a miss never rebuilds");
        // And the memoized results match the reference, without a
        // recompute.
        let want = s
            .built("sphinx")
            .run(Scheme::PerfectL2, &SimConfig::paper());
        assert_eq!(s.run("sphinx", Scheme::PerfectL2), want);
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
        assert!(s.run("twolf", Scheme::NoPrefetch).cycles > 0);
    }

    #[test]
    fn replay_modes_match_the_default_suite_path() {
        let mut base = Suite::new(SuiteScale::Test);
        let want = base.run("twolf", Scheme::GrpVar);
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
        let mut cold = Suite::new(SuiteScale::Test).with_replay(cached.clone());
        assert_eq!(cold.run("twolf", Scheme::GrpVar), want);
        let mut warm = Suite::new(SuiteScale::Test).with_replay(cached.clone());
        assert_eq!(warm.run("twolf", Scheme::GrpVar), want);
        assert_eq!(
            warm.workloads.built_count(),
            0,
            "a warm trace cache must satisfy run() without building the workload"
        );
        // The cell scheduler honours the suite's mode too.
        let mut cells = Suite::new(SuiteScale::Test).with_replay(cached);
        cells
            .precompute_cells(&["twolf"], &[Scheme::GrpVar, Scheme::NoPrefetch], Some(2))
            .expect("clean grid");
        assert_eq!(cells.run("twolf", Scheme::GrpVar), want);
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
