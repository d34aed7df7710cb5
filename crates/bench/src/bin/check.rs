//! Correctness gate: differential oracle + seeded invariant fuzzing.
//!
//! Phases, all offline and fully deterministic:
//!
//! 1. **Kernel differential** — replays every registry benchmark at the
//!    chosen scale under no-prefetch with an [`OracleObserver`] driving
//!    the naive reference oracle from inside the replay, asserting
//!    event-for-event agreement (branch taken, completion cycle, final
//!    cache contents, traffic). With `--trace-cache` the replayed source
//!    is each kernel's cached packed trace, so cache hits are checked.
//! 1b. **Region pressure** — one fixed case of sparse single-miss
//!    regions saturating the engine queue, run through every scheme
//!    with invariants; this makes the unbounded-queue injection
//!    deterministically detectable.
//! 2. **Seeded fuzzing** — generates `--cases` random access traces
//!    (spatial / pointer / indirect / aliasing / store idioms, see
//!    [`grp_bench::fuzz`]) and runs each through *every* scheme with the
//!    full [`InvariantObserver`] attached (lifecycle conservation,
//!    occupancy bounds, structural walks); the no-prefetch replay also
//!    carries the oracle differential. A failing case is greedily shrunk
//!    to a minimal plan before reporting.
//! 3. **Fault-plan sweep** (`--faults`) — every built-in
//!    [`FaultPlan`] (channel stalls, outages, delayed/dropped fills,
//!    MSHR squeeze, queue pressure) armed on a fixed prefetch-heavy
//!    workout case: the faulted run must pass the no-prefetch oracle
//!    differential with the same plan armed on both systems, keep every
//!    invariant (lifecycle conservation gains dropped/delayed legs —
//!    never waived under faults), never panic, and an empty plan must
//!    be bit-identical to the unfaulted run.
//! 4. **Faulted fuzzing** (`--faults`) — phase 2's fuzzing over
//!    `(access plan, fault plan)` *pairs*; a failing pair shrinks as a
//!    pair, with the empty fault plan offered first so a bug that
//!    doesn't need the fault sheds it immediately.
//!
//! Every simulated run is also checked against a cycle-budget watchdog
//! (`--max-cycles`, 0 disables): a run that blows the budget is treated
//! exactly like an invariant failure, including shrinking.
//!
//! ```text
//! cargo run --release -p grp-bench --bin check -- \
//!     [--cases N] [--seed S] [--scale test|small|paper] [--faults] \
//!     [--max-cycles N] [--inject none|mru-evict|unbounded-queue|drop-leak] \
//!     [--trace-cache <dir>]
//! cargo run -p grp-bench --bin check -- --metrics <path> \
//!     [--metrics-prev <path>] [--metrics-require <fam1,fam2,…>]
//!     re-parse and validate a Prometheus text exposition written by
//!     `serve --metrics-out` / `perf`: declared families, histogram
//!     bucket invariants, optionally required families, and counter
//!     monotonicity against an earlier scrape — then exit
//! cargo run --release -p grp-bench --bin check -- --chaos \
//!     [--seed S] [--chaos-rounds N] [--chaos-dir <dir>] \
//!     [--inject torn-rename]
//!     crash-only gate: drives the real serve binary through seeded
//!     I/O-fault storms, mid-batch disconnects, and a kill -9 during a
//!     cache write, then restarts it — asserting no torn artifact,
//!     monotone counters, and bit-identical re-issued replies (see
//!     [`grp_bench::chaos`]); `--inject torn-rename` plants deliberate
//!     torn publishes so CI can prove the gate still has teeth
//! ```
//!
//! `--trace-cache <dir>` prepends **phase 0**: every registry kernel's
//! 12 cells run as one trace group through the cell scheduler and the
//! trace cache — the path `all` and `serve` run (a hit replays the
//! cached packed trace, a miss interprets and fills the cache) — and are
//! compared with a replay of the kernel's one fresh interpretation (its
//! base trace, or the scheme's hint view over it), asserting
//! bit-identical `RunResult`s — the cache identity gate at the chosen
//! scale.
//!
//! `--inject` plants a deliberate bug (an evict-MRU replacement fault,
//! an unbounded engine queue, or a dropped-fill MSHR leak) so CI can
//! assert the gate still has teeth: an injected run must exit nonzero.

use std::panic::{catch_unwind, AssertUnwindSafe};

use grp_bench::args::{default_jobs, strict_flag, strict_u64, strict_value};
use grp_bench::fuzz::{materialize, FuzzPlan, Segment};
use grp_bench::sched::{grid_jobs, run_cells_mode};
use grp_bench::suite::parse_scale_args;
use grp_bench::telemetry::{exposition, log, Registry, TelemetryObserver};
use grp_core::{
    engine_for, run_trace, DiffReport, EventSource, FaultPlan, InvariantObserver, ObserverPair,
    OracleObserver, PlantedBug, Replay, Scheme, SimConfig,
};
use grp_mem::{HeapRange, Memory};
use grp_testkit::proptest::Arbitrary;
use grp_testkit::proptest::{any, greedy_shrink};
use grp_testkit::Rng;

/// Default cycle-budget watchdog: far above any legal test-scale run,
/// low enough to catch a hung or runaway simulation in CI.
const DEFAULT_MAX_CYCLES: u64 = 500_000_000;

/// Which deliberate bug to plant (`--inject`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    None,
    /// Caches evict the MRU way instead of LRU — caught by the oracle
    /// differential (wrong victims ⇒ diverging hit/miss stream).
    MruEvict,
    /// The region engine stops bounding its queue — caught by the
    /// invariant observer's occupancy checks.
    UnboundedQueue,
    /// Dropped prefetch fills leak their L2 MSHR entry instead of
    /// releasing it — caught by lifecycle conservation (the dropped leg
    /// never closes). Only reachable under a fault plan that drops
    /// fills, so this injection implies `--faults`.
    DropLeak,
}

impl Inject {
    fn parse(s: &str) -> Option<Inject> {
        match s {
            "none" => Some(Inject::None),
            "mru-evict" => Some(Inject::MruEvict),
            "unbounded-queue" => Some(Inject::UnboundedQueue),
            "drop-leak" => Some(Inject::DropLeak),
            _ => None,
        }
    }

    /// The bug this injection plants in the memory system, if any.
    fn bug(self) -> Option<PlantedBug> {
        match self {
            Inject::MruEvict => Some(PlantedBug::EvictMru),
            Inject::DropLeak => Some(PlantedBug::DropLeak),
            Inject::None | Inject::UnboundedQueue => None,
        }
    }

    /// What a reproducer line must append so the failure actually
    /// reproduces (empty for no injection).
    fn repro_suffix(self) -> &'static str {
        match self {
            Inject::None => "",
            Inject::MruEvict => " --inject mru-evict",
            Inject::UnboundedQueue => " --inject unbounded-queue",
            Inject::DropLeak => " --inject drop-leak",
        }
    }
}

/// The graceful-degradation contract says "never panics"; this turns a
/// panic anywhere inside a check into an ordinary failure message so
/// the shrinker can minimize the offending case like any other.
fn no_panic(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Cycle-budget watchdog (0 = disabled).
fn within_budget(cycles: u64, max_cycles: u64, what: &str) -> Result<(), String> {
    if max_cycles != 0 && cycles > max_cycles {
        return Err(format!(
            "cycle budget exceeded in {what}: {cycles} > {max_cycles} (--max-cycles)"
        ));
    }
    Ok(())
}

/// A replay of `scheme` carrying `inject`'s planted bug, with `plan`
/// armed.
fn armed_replay<'a>(
    mem: &'a Memory,
    heap: HeapRange,
    scheme: Scheme,
    cfg: &'a SimConfig,
    inject: Inject,
    plan: Option<&'a FaultPlan>,
) -> Replay<'a> {
    let mut engine = engine_for(scheme, cfg);
    if inject == Inject::UnboundedQueue {
        engine.inject_fault_unbounded_queue();
    }
    let replay = Replay::new(mem, heap, scheme, cfg)
        .engine(engine)
        .plant(inject.bug());
    match plan {
        Some(plan) => replay.faults(plan),
        None => replay,
    }
}

/// The no-prefetch oracle differential of one replay of `src`.
fn kernel_differential<S: EventSource + ?Sized>(
    src: &S,
    mem: &Memory,
    heap: HeapRange,
    cfg: &SimConfig,
    inject: Inject,
) -> Result<DiffReport, String> {
    let (result, oracle) = armed_replay(mem, heap, Scheme::NoPrefetch, cfg, inject, None)
        .observer(OracleObserver::new(cfg, None))
        .run(src);
    oracle.verdict(&result)
}

/// Runs one materialized case through every scheme with invariants
/// attached and `plan` armed (`None` is the unfaulted gate); the
/// no-prefetch replay also carries the oracle differential, with the
/// same plan mirrored, and with `telemetry` the GRP/Var replay also
/// records into that registry. First failure wins.
fn check_faulted_case(
    case: &grp_bench::fuzz::FuzzCase,
    plan: Option<&FaultPlan>,
    telemetry: Option<&Registry>,
    cfg: &SimConfig,
    inject: Inject,
    max_cycles: u64,
) -> Result<(), String> {
    no_panic(|| {
        for scheme in Scheme::ALL {
            let replay = armed_replay(&case.mem, case.heap, scheme, cfg, inject, plan);
            let inv = InvariantObserver::new(cfg).with_interval(256);
            let (result, inv) = match (scheme, telemetry) {
                (Scheme::NoPrefetch, _) => {
                    let (result, ObserverPair(oracle, inv)) = replay
                        .observer(ObserverPair(OracleObserver::new(cfg, plan), inv))
                        .run(&case.trace);
                    oracle
                        .verdict(&result)
                        .map_err(|e| format!("oracle differential (no-prefetch): {e}"))?;
                    (result, inv)
                }
                (Scheme::GrpVar, Some(reg)) => {
                    let (result, ObserverPair(inv, _)) = replay
                        .observer(ObserverPair(inv, TelemetryObserver::new(reg)))
                        .run(&case.trace);
                    (result, inv)
                }
                _ => replay.observer(inv).run(&case.trace),
            };
            if !inv.ok() {
                return Err(format!(
                    "invariants under {scheme:?} ({} violations): {}",
                    inv.total_violations(),
                    inv.violations().join("; ")
                ));
            }
            within_budget(result.cycles, max_cycles, &format!("{scheme:?} replay"))?;
        }
        Ok(())
    })
}

/// [`check_faulted_case`], unfaulted, on a freshly materialized plan —
/// the shape the shrinker minimizes over.
fn check_plan(
    plan: &FuzzPlan,
    cfg: &SimConfig,
    inject: Inject,
    max_cycles: u64,
) -> Result<(), String> {
    check_faulted_case(&materialize(plan), None, None, cfg, inject, max_cycles)
}

/// Phase 4's shrink target: an access plan and a fault plan, checked
/// together.
fn check_pair(
    pair: &(FuzzPlan, FaultPlan),
    cfg: &SimConfig,
    inject: Inject,
    max_cycles: u64,
) -> Result<(), String> {
    check_faulted_case(
        &materialize(&pair.0),
        Some(&pair.1),
        None,
        cfg,
        inject,
        max_cycles,
    )
}

/// A fixed prefetch-heavy case for the built-in fault sweep: hinted
/// dense streams keep the region engines issuing (so delayed/dropped
/// fills and queue pressure actually bite), the pointer chain exercises
/// dependent-load merges into faulted fills.
fn fault_workout_case() -> grp_bench::fuzz::FuzzCase {
    materialize(&FuzzPlan {
        segments: vec![
            Segment::Spatial {
                count: 300,
                stride_words: 1,
                hinted: true,
                loop_bound: false,
            },
            Segment::Pointer {
                nodes: 120,
                node_stride_blocks: 1,
                hinted: true,
            },
            Segment::Spatial {
                count: 300,
                stride_words: 2,
                hinted: true,
                loop_bound: true,
            },
        ],
        compute_gap: 2,
        layout_seed: 0x5eed_fa17,
    })
}

/// The `--metrics` validator: re-parse a text exposition, enforce the
/// histogram bucket invariants, optionally require metric families to
/// be present, and optionally assert cumulative series are monotone
/// against an earlier scrape of the same process.
fn check_metrics(path: &str, prev: Option<&str>, require: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let parsed = exposition::validate_text(&text)?;
    if let Some(req) = require {
        for fam in req.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            if !parsed.types.contains_key(fam) {
                return Err(format!("required metric family '{fam}' missing"));
            }
        }
    }
    let mut extra = String::new();
    if let Some(prev_path) = prev {
        let prev_text = std::fs::read_to_string(prev_path)
            .map_err(|e| format!("cannot read {prev_path}: {e}"))?;
        let prev_parsed =
            exposition::validate_text(&prev_text).map_err(|e| format!("{prev_path}: {e}"))?;
        exposition::check_monotone(&prev_parsed, &parsed)?;
        extra = format!(", monotone vs {prev_path}");
    }
    Ok(format!(
        "{} families, {} counters, {} histograms{extra}",
        parsed.types.len(),
        parsed.counters.len(),
        parsed.hist_counts.len()
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage_err = |e: String| -> ! {
        log::error("check", &e);
        std::process::exit(2);
    };
    log::init_from_args(&args).unwrap_or_else(|e| usage_err(e));

    if let Some(path) = strict_value(&args, "--metrics", "a metrics exposition file")
        .unwrap_or_else(|e| usage_err(e))
    {
        let prev = strict_value(&args, "--metrics-prev", "an earlier exposition to compare")
            .unwrap_or_else(|e| usage_err(e));
        let require = strict_value(
            &args,
            "--metrics-require",
            "a comma-separated list of metric families",
        )
        .unwrap_or_else(|e| usage_err(e));
        match check_metrics(&path, prev.as_deref(), require.as_deref()) {
            Ok(summary) => println!("{path}: OK ({summary})"),
            Err(e) => {
                log::error("check", &format!("{path}: {e}"));
                std::process::exit(1);
            }
        }
        return;
    }

    if strict_flag(&args, "--chaos").unwrap_or_else(|e| usage_err(e)) {
        let seed = strict_u64(&args, "--seed", "a 64-bit seed")
            .unwrap_or_else(|e| usage_err(e))
            .unwrap_or(0x5eed_c4a0_5000_0000);
        let rounds = strict_u64(&args, "--chaos-rounds", "a storm round count")
            .unwrap_or_else(|e| usage_err(e))
            .unwrap_or(2)
            .max(1);
        let torn_rename = match strict_value(&args, "--inject", "none, torn-rename")
            .unwrap_or_else(|e| usage_err(e))
            .as_deref()
        {
            None | Some("none") => false,
            Some("torn-rename") => true,
            Some(s) => usage_err(format!(
                "unknown chaos injection '{s}' (valid: none, torn-rename)"
            )),
        };
        let dir = strict_value(&args, "--chaos-dir", "a scratch directory")
            .unwrap_or_else(|e| usage_err(e))
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("grp-chaos-{}", std::process::id()))
            });
        let serve_bin = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("serve")))
            .unwrap_or_else(|| usage_err("cannot locate this binary's directory".to_string()));
        let opts = grp_bench::chaos::ChaosOpts {
            serve_bin,
            dir,
            seed,
            rounds,
            torn_rename,
        };
        match grp_bench::chaos::run_chaos(&opts) {
            Ok(summary) => println!("chaos: OK ({summary})"),
            Err(e) => {
                log::error("check", &format!("chaos gate failed: {e}"));
                std::process::exit(1);
            }
        }
        return;
    }

    let scale = parse_scale_args(&args).unwrap_or_else(|e| usage_err(e));
    let cases = strict_u64(&args, "--cases", "a case count")
        .unwrap_or_else(|e| usage_err(e))
        .unwrap_or(64);
    let seed = strict_u64(&args, "--seed", "a 64-bit seed")
        .unwrap_or_else(|e| usage_err(e))
        .unwrap_or(0x5eed_c4ec_0000_0000);
    let max_cycles = strict_u64(&args, "--max-cycles", "a cycle budget, 0 to disable")
        .unwrap_or_else(|e| usage_err(e))
        .unwrap_or(DEFAULT_MAX_CYCLES);
    let mut faults = strict_flag(&args, "--faults").unwrap_or_else(|e| usage_err(e));
    let inject = match strict_value(
        &args,
        "--inject",
        "none, mru-evict, unbounded-queue, drop-leak",
    )
    .unwrap_or_else(|e| usage_err(e))
    {
        None => Inject::None,
        Some(s) => Inject::parse(&s).unwrap_or_else(|| {
            usage_err(format!(
                "unknown injection '{s}' (valid: none, mru-evict, unbounded-queue, drop-leak)"
            ))
        }),
    };
    if inject == Inject::DropLeak && !faults {
        println!("note: --inject drop-leak only fires under a fault plan; enabling --faults");
        faults = true;
    }

    let mode = grp_bench::args::parse_replay_args(&args).unwrap_or_else(|e| usage_err(e));

    let cfg = SimConfig::paper();
    let mut failures = 0u64;

    // Phase 0 (--trace-cache): cache identity over the full kernel ×
    // scheme grid — any diverging counter of any cell fails the gate.
    if mode.trace_cache.is_some() {
        let names: Vec<&'static str> = grp_workloads::all().iter().map(|w| w.name).collect();
        println!(
            "phase 0: trace-cache identity on {} kernels x {} schemes ({:?} scale)",
            names.len(),
            Scheme::ALL.len(),
            scale,
        );
        let cache = grp_bench::sched::WorkloadCache::new();
        for &name in &names {
            let mut bad = 0u64;
            // The expected side interprets the kernel once and replays
            // its base trace or a view per compiler configuration, so
            // every GRP cell cross-checks view replay against the
            // cached packed form.
            let built = cache
                .get_or_build(name, scale.workload_scale())
                .expect("registered");
            let want: Vec<_> = {
                let (base, mem) = built.interpret();
                Scheme::ALL
                    .iter()
                    .map(|&scheme| {
                        let replay = Replay::new(&mem, built.heap, scheme, &cfg);
                        match scheme.compiler_config() {
                            Some(cc) => replay.run(&built.view(&base, &built.hints(&cc))).0,
                            None => replay.run(base.trace()).0,
                        }
                    })
                    .collect()
            };
            // The got side runs the kernel's 12 cells as one trace
            // group through the scheduler, the path `all` and `serve`
            // run.
            let jobs = grid_jobs(&[name], &Scheme::ALL, scale.workload_scale(), cfg);
            let mut got = Vec::new();
            run_cells_mode(&jobs, default_jobs(), &cache, &mode, |cell| got.push(cell));
            got.sort_by_key(|cell| cell.id);
            for cell in got {
                match cell.outcome {
                    Ok(r) if r == want[cell.id as usize] => {}
                    Ok(_) => {
                        failures += 1;
                        bad += 1;
                        println!(
                            "  {name}/{}: DIVERGED (cached != materialized)",
                            cell.scheme.label()
                        );
                    }
                    Err(e) => {
                        failures += 1;
                        bad += 1;
                        println!("  {name}/{}: ERROR: {e}", cell.scheme.label());
                    }
                }
            }
            if bad == 0 {
                println!("  {name}: OK ({} schemes identical)", Scheme::ALL.len());
            }
        }
    }

    // Phase 1: kernel differential against the reference oracle — on
    // the no-prefetch trace phase 0 just cached, when there is a cache.
    let names: Vec<&'static str> = grp_workloads::all().iter().map(|w| w.name).collect();
    let source = if mode.trace_cache.is_some() {
        "cached packed traces"
    } else {
        "interpreted traces"
    };
    println!(
        "phase 1: oracle differential on {} kernels ({:?} scale, {source}, inject: {inject:?})",
        names.len(),
        scale
    );
    for name in &names {
        let verdict = match &mode.trace_cache {
            Some(cache) => match cache.load(name, scale.workload_scale(), None) {
                Some((pt, mem, heap)) => kernel_differential(&pt, &mem, heap, &cfg, inject),
                None => Err("no usable trace-cache entry after phase 0".to_string()),
            },
            None => {
                let built = grp_workloads::by_name(name)
                    .expect("registered")
                    .build(scale.workload_scale());
                let (trace, mem) = built.trace(None);
                kernel_differential(&trace, &mem, built.heap, &cfg, inject)
            }
        };
        match verdict {
            Ok(rep) => println!(
                "  {name}: OK ({} accesses, {} cycles)",
                rep.accesses, rep.cycles
            ),
            Err(e) => {
                failures += 1;
                println!("  {name}: DIVERGED\n    {e}");
            }
        }
    }

    // Phase 1b: a fixed region-pressure case no random plan reaches —
    // thousands of single-miss regions saturating the engine queue.
    // This is what makes the unbounded-queue injection deterministic.
    match check_faulted_case(
        &grp_bench::fuzz::region_pressure_case(),
        None,
        None,
        &cfg,
        inject,
        max_cycles,
    ) {
        Ok(()) => println!("  region-pressure: OK"),
        Err(e) => {
            failures += 1;
            println!("  region-pressure: FAILED\n    {e}");
        }
    }

    // Phase 2: seeded fuzzing through every scheme with invariants.
    println!(
        "phase 2: {cases} fuzz cases x {} schemes (base seed {seed:#x})",
        Scheme::ALL.len()
    );
    let strat = any::<FuzzPlan>();
    for case_idx in 0..cases {
        let case_seed = seed.wrapping_add(case_idx);
        let plan = FuzzPlan::arbitrary(&mut Rng::seed_from_u64(case_seed));
        let Err(first_msg) = check_plan(&plan, &cfg, inject, max_cycles) else {
            continue;
        };
        failures += 1;
        let (min_plan, msg, steps) = greedy_shrink(&strat, plan, first_msg, 512, |p| {
            check_plan(p, &cfg, inject, max_cycles)
        });
        println!(
            "  case {case_idx} (seed {case_seed:#x}): FAILED\n    {msg}\n    \
             minimal plan after {steps} shrink steps: {min_plan:?}\n    \
             reproduce: --bin check -- --cases 1 --seed {case_seed:#x} \
             --max-cycles {max_cycles}{}",
            inject.repro_suffix()
        );
    }

    if faults {
        // Phase 3: every built-in fault plan on the fixed workout case.
        // The zero-fault identity runs first: an empty plan must be
        // byte-for-byte the unfaulted simulation.
        let builtins = FaultPlan::builtin();
        println!(
            "phase 3: fault sweep — zero-fault identity + {} built-in plans x {} schemes",
            builtins.len(),
            Scheme::ALL.len()
        );
        let workout = fault_workout_case();
        for scheme in [
            Scheme::NoPrefetch,
            Scheme::Srp,
            Scheme::GrpVar,
            Scheme::Stride,
        ] {
            let plain = run_trace(&workout.trace, &workout.mem, workout.heap, scheme, &cfg);
            let none = FaultPlan::none();
            let idle = Replay::new(&workout.mem, workout.heap, scheme, &cfg)
                .faults(&none)
                .run(&workout.trace)
                .0;
            if plain != idle {
                failures += 1;
                println!("  zero-fault identity under {scheme:?}: FAILED (results differ)");
            }
        }
        println!("  zero-fault identity: checked");
        // Each builtin plan's GRP/Var replay also carries the telemetry
        // observer — the same observer serve/fleet hang off the fault
        // layer — so the sweep doubles as a gate that armed plans
        // actually produce observable fault events.
        let fault_reg = Registry::new();
        for (name, plan) in &builtins {
            match check_faulted_case(
                &workout,
                Some(plan),
                Some(&fault_reg),
                &cfg,
                inject,
                max_cycles,
            ) {
                Ok(()) => println!("  builtin '{name}': OK"),
                Err(e) => {
                    failures += 1;
                    println!("  builtin '{name}': FAILED\n    {e}");
                }
            }
        }
        let snap = fault_reg.snapshot();
        let (actions, dropped, delayed) = (
            snap.family_total("grp_fault_events_total"),
            snap.family_total("grp_fault_fills_dropped_total"),
            snap.family_total("grp_fault_fills_delayed_total"),
        );
        println!(
            "  fault telemetry: {actions} action(s) applied, \
             {dropped} fill(s) dropped, {delayed} fill(s) delayed"
        );
        if actions + dropped + delayed == 0 {
            failures += 1;
            println!("  fault telemetry: FAILED (armed builtin plans produced no fault events)");
        }

        // Phase 4: faulted fuzzing over (access plan, fault plan) pairs.
        println!(
            "phase 4: {cases} faulted fuzz pairs x {} schemes (base seed {seed:#x})",
            Scheme::ALL.len()
        );
        let pair_strat = (any::<FuzzPlan>(), any::<FaultPlan>());
        for case_idx in 0..cases {
            let case_seed = seed.wrapping_add(case_idx);
            let mut rng = Rng::seed_from_u64(case_seed);
            let plan = FuzzPlan::arbitrary(&mut rng);
            let fault_plan = FaultPlan::arbitrary(&mut rng);
            let pair = (plan, fault_plan);
            let Err(first_msg) = check_pair(&pair, &cfg, inject, max_cycles) else {
                continue;
            };
            failures += 1;
            let (min_pair, msg, steps) = greedy_shrink(&pair_strat, pair, first_msg, 512, |p| {
                check_pair(p, &cfg, inject, max_cycles)
            });
            println!(
                "  pair {case_idx} (seed {case_seed:#x}): FAILED\n    {msg}\n    \
                 minimal pair after {steps} shrink steps:\n    plan:  {:?}\n    \
                 faults: {:?}\n    \
                 reproduce: --bin check -- --faults --cases 1 --seed {case_seed:#x} \
                 --max-cycles {max_cycles}{}",
                min_pair.0,
                min_pair.1,
                inject.repro_suffix()
            );
        }
    }

    if failures > 0 {
        println!("check: {failures} failure(s)");
        std::process::exit(1);
    }
    let mode = if faults {
        " (+ fault sweep and faulted pairs)"
    } else {
        ""
    };
    println!(
        "check: all kernels agree with the oracle; {cases} fuzz cases clean across {} schemes{mode}",
        Scheme::ALL.len()
    );
}
