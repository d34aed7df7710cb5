//! Memoizing suite runner: one simulation per `(benchmark, scheme)`.

use std::collections::HashMap;
use std::sync::Arc;

use grp_core::{RunResult, Scheme, SimConfig};
use grp_workloads::{all, BuiltWorkload, Scale, Workload};

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

/// Memoizing runner over the benchmark registry.
pub struct Suite {
    scale: SuiteScale,
    cfg: SimConfig,
    built: HashMap<&'static str, Arc<BuiltWorkload>>,
    results: HashMap<(&'static str, Scheme), RunResult>,
    verbose: bool,
    replay: ReplayMode,
}

impl Suite {
    /// A suite at `scale` with the paper's platform configuration.
    pub fn new(scale: SuiteScale) -> Self {
        Self {
            scale,
            cfg: SimConfig::paper(),
            built: HashMap::new(),
            results: HashMap::new(),
            verbose: false,
            replay: ReplayMode::default(),
        }
    }

    /// Selects the trace cache and telemetry ([`ReplayMode`]) for every
    /// subsequent [`Suite::run`] / [`Suite::precompute_cells`]. Results
    /// are bit-identical across modes; only setup/replay cost shifts.
    pub fn with_replay(mut self, replay: ReplayMode) -> Self {
        self.replay = replay;
        self
    }

    /// Enables progress logging to stderr.
    pub fn verbose(mut self) -> Self {
        self.verbose = true;
        self
    }

    /// Overrides the platform configuration (ablations).
    pub fn with_config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The platform configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The benchmark registry entry for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn workload(&self, name: &str) -> &'static Workload {
        grp_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// The built (setup-complete) workload, building it on first use.
    /// Held behind an `Arc` so the cell scheduler can share it
    /// read-only across workers without a rebuild or a deep clone.
    pub fn built(&mut self, name: &'static str) -> &BuiltWorkload {
        self.built_arc(name)
    }

    fn built_arc(&mut self, name: &'static str) -> &Arc<BuiltWorkload> {
        let scale = self.scale.workload_scale();
        self.built.entry(name).or_insert_with(|| {
            Arc::new(
                grp_workloads::by_name(name)
                    .expect("registered")
                    .build(scale),
            )
        })
    }

    /// Runs (or recalls) `name` under `scheme` through
    /// [`sched::run_cell`]: a trace-cache hit skips the build, so the
    /// workload is only built on a miss.
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
        let (scale, cfg, mode) = (self.scale.workload_scale(), self.cfg, self.replay.clone());
        let (r, _events, _setup, _replay) =
            sched::run_cell(name, scale, scheme, &cfg, &mode, || {
                Ok(self.built_arc(name).clone())
            })
            .unwrap_or_else(|e| panic!("{e}"));
        self.results.insert((name, scheme), r.clone());
        r
    }

    /// Warms the memo table through the **cell-granular** work-stealing
    /// scheduler ([`crate::sched`]): every `(benchmark, scheme)` cell is
    /// an independent unit of work, so a wide scheme row of one heavy
    /// kernel spreads across workers. Built workloads are shared read-only via the scheduler's
    /// [`WorkloadCache`] — seeded from, and adopted back into, this
    /// suite's built map, so schemes of the same kernel never rebuild.
    ///
    /// `jobs` is the worker count (`None` = available parallelism).
    /// Per-cell results are bit-identical to the serial [`Suite::run`]
    /// path for any worker count and steal order.
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
        let scale = self.scale.workload_scale();
        let cache = WorkloadCache::new();
        for (name, built) in &self.built {
            cache.insert(name, scale, built.clone());
        }
        let cells: Vec<CellJob> = sched::grid_jobs(names, schemes, scale, self.cfg);
        let workers = jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        let verbose = self.verbose;
        let results = &mut self.results;
        let mut failures: Vec<String> = Vec::new();
        let stats = sched::run_cells_mode(&cells, workers, &cache, &self.replay, |cell| {
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
                Ok(r) => {
                    results.insert((cell.kernel, cell.scheme), r);
                }
                Err(e) => failures.push(format!("{}/{}: {e}", cell.kernel, cell.scheme)),
            }
        });
        // Adopt scheduler-built workloads so later built()/run() calls
        // for unmemoized schemes reuse them.
        for &name in names {
            if !self.built.contains_key(name) {
                if let Some(b) = cache.get(name, scale) {
                    self.built.insert(name, b);
                }
            }
        }
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
    fn parallel_precompute_is_bit_identical_to_serial() {
        // Every counter of every (benchmark, scheme) result must match
        // the serial run() loop exactly, for any worker count —
        // scheduling order must not leak into results.
        let names = ["twolf", "mcf", "sphinx", "crafty"];
        let schemes = [Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar];
        let mut serial = Suite::new(SuiteScale::Test);
        let mut expected = Vec::new();
        for name in names {
            for scheme in schemes {
                expected.push((name, scheme, serial.run(name, scheme)));
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
                    "{name}/{scheme:?} differs between serial and jobs={jobs:?}"
                );
            }
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
        s.built.insert("crafty", Arc::new(poisoned));
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
        // The scheduler-built workloads are adopted: built() reuses them.
        assert!(s.built.contains_key("crafty"));
        let before = Arc::as_ptr(s.built.get("crafty").expect("cached"));
        let after = s.built("crafty") as *const BuiltWorkload;
        assert_eq!(before, after, "built() must reuse the scheduler's workload");
        // And the memoized results match the serial path, without a
        // recompute.
        let mut serial = Suite::new(SuiteScale::Test);
        assert_eq!(
            s.run("sphinx", Scheme::PerfectL2),
            serial.run("sphinx", Scheme::PerfectL2)
        );
        assert_eq!(s.results.len(), 4);
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
        assert!(
            !warm.built.contains_key("twolf"),
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
