//! SPEC CPU2000-style workloads for the GRP reproduction.
//!
//! The paper evaluates 17 SPEC CPU2000 C/Fortran benchmarks plus the
//! *sphinx* speech recognizer (§5.1, Table 3). SPEC binaries cannot run
//! on this simulator, so each benchmark is re-expressed as a kernel in
//! the `grp-ir` language that reproduces the *dominant L2-miss behaviour
//! the paper itself documents* — Table 6's miss causes, §5.2's per-
//! benchmark discussion, and Table 3's hint profile. DESIGN.md lists the
//! substitution rationale per benchmark.
//!
//! Every kernel is built by ordinary setup code (allocating arrays,
//! planting linked structures in functional memory) plus an IR program;
//! hints are then *derived* by the `grp-compiler` analyses, never
//! hand-attached.
//!
//! # Example
//!
//! ```
//! use grp_workloads::{by_name, Scale};
//! use grp_core::{Scheme, SimConfig};
//!
//! let wl = by_name("swim").expect("swim exists");
//! let built = wl.build(Scale::Test);
//! let base = built.run(Scheme::NoPrefetch, &SimConfig::paper());
//! let grp = built.run(Scheme::GrpVar, &SimConfig::paper());
//! assert!(grp.cycles <= base.cycles * 11 / 10);
//! ```

#![deny(missing_docs)]

pub mod kernels;

use grp_compiler::{analyze, AnalysisConfig};
use grp_core::{NullObserver, Observer, Replay, RunResult, Scheme, SimConfig};
use grp_cpu::Trace;
use grp_ir::interp::Interpreter;
use grp_ir::{BaseTrace, Bindings, HintMap, HintView, Program};
use grp_mem::{HeapRange, Memory};

/// Benchmark suite classification (Figures 10 vs 11 split by this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// SPECint-style.
    Int,
    /// SPECfp-style.
    Fp,
    /// The sphinx application.
    App,
}

/// Problem-size selector.
///
/// `Paper` sizes stress the 1 MB L2 the way the SPEC reference inputs
/// stressed it; `Small` is for micro-benches; `Test` keeps unit
/// tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny: unit tests.
    Test,
    /// Reduced: benches and quick sweeps.
    Small,
    /// Full evaluation size.
    #[default]
    Paper,
}

impl Scale {
    /// A multiplier helper: picks one of three values by scale.
    pub fn pick(self, test: u64, small: u64, paper: u64) -> u64 {
        match self {
            Scale::Test => test,
            Scale::Small => small,
            Scale::Paper => paper,
        }
    }
}

/// A fully-set-up workload: program + bound data.
#[derive(Debug)]
pub struct BuiltWorkload {
    /// The kernel.
    pub program: Program,
    /// Runtime bindings (array bases, pointer parameters).
    pub bindings: Bindings,
    /// Functional memory after setup (arrays initialized, lists planted).
    pub memory: Memory,
    /// Legitimate heap range for the pointer base-and-bounds test.
    pub heap: HeapRange,
}

impl BuiltWorkload {
    /// Interprets the kernel once, hint-free: the base trace every
    /// compiler configuration's [`HintView`] reads, and the post-run
    /// memory the timing model's pointer scans read.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to interpret (a workload bug).
    pub fn interpret(&self) -> (BaseTrace, Memory) {
        let mut mem = self.memory.clone();
        let base = Interpreter::new(&self.program, &self.bindings)
            .run(&mut mem)
            .unwrap_or_else(|e| panic!("workload {} failed: {e}", self.program.name));
        (base, mem)
    }

    /// The view of `hints` over `base`, one of this kernel's
    /// interpretations.
    ///
    /// # Panics
    ///
    /// Panics if an indirect directive targets an unbound array (a
    /// workload bug).
    pub fn view<'a>(&self, base: &'a BaseTrace, hints: &'a HintMap) -> HintView<'a> {
        HintView::new(base, hints, &self.program, &self.bindings)
            .unwrap_or_else(|e| panic!("workload {} failed: {e}", self.program.name))
    }

    /// Derives hints under `cc` (or none) and returns the kernel's trace
    /// under them, with the post-run memory the timing model's pointer
    /// scans read.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to interpret (a workload bug).
    pub fn trace(&self, cc: Option<&AnalysisConfig>) -> (Trace, Memory) {
        match cc {
            Some(cfg) => self.trace_with_hints(&analyze(&self.program, cfg)),
            None => {
                let (base, mem) = self.interpret();
                (base.into_trace(), mem)
            }
        }
    }

    /// Like [`BuiltWorkload::trace`] with a caller-supplied hint map: the
    /// view of `hints` over one interpretation, collected.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to interpret (a workload bug).
    pub fn trace_with_hints(&self, hints: &HintMap) -> (Trace, Memory) {
        let (base, mem) = self.interpret();
        let trace = self.view(&base, hints).to_trace();
        (trace, mem)
    }

    /// Compiles (per the scheme's compiler configuration), interprets,
    /// and runs the timing simulation.
    pub fn run(&self, scheme: Scheme, cfg: &SimConfig) -> RunResult {
        self.run_observed(scheme, cfg, NullObserver).0
    }

    /// Like [`BuiltWorkload::run`], threading an observer through the
    /// timing simulation and returning it alongside the result. The
    /// scheme's hints are replayed as a view, never collected.
    pub fn run_observed<O: Observer>(
        &self,
        scheme: Scheme,
        cfg: &SimConfig,
        obs: O,
    ) -> (RunResult, O) {
        let (base, mem) = self.interpret();
        let replay = Replay::new(&mem, self.heap, scheme, cfg).observer(obs);
        match scheme.compiler_config() {
            Some(cc) => {
                let hints = analyze(&self.program, &cc);
                replay.run(&self.view(&base, &hints))
            }
            None => replay.run(base.trace()),
        }
    }

    /// The hint map the given compiler configuration derives.
    pub fn hints(&self, cc: &AnalysisConfig) -> HintMap {
        analyze(&self.program, cc)
    }
}

/// A registered benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Benchmark name (SPEC number omitted: "swim", "mcf", …).
    pub name: &'static str,
    /// Suite classification.
    pub class: BenchClass,
    /// One-line description of the reproduced behaviour.
    pub description: &'static str,
    builder: fn(Scale) -> BuiltWorkload,
}

impl Workload {
    /// Builds the workload at `scale`.
    pub fn build(&self, scale: Scale) -> BuiltWorkload {
        (self.builder)(scale)
    }
}

macro_rules! workload {
    ($name:literal, $class:ident, $builder:path, $desc:literal) => {
        Workload {
            name: $name,
            class: BenchClass::$class,
            description: $desc,
            builder: $builder,
        }
    };
}

/// The full benchmark registry, in the paper's Table 3 order.
pub fn all() -> &'static [Workload] {
    const ALL: &[Workload] = &[
        workload!("gzip", Int, kernels::gzip::build, "sliding-window compression: spatial window copies + hash-indexed history probes outside loops"),
        workload!("wupwise", Fp, kernels::wupwise::build, "dense complex matrix-vector kernels, unit-stride"),
        workload!("swim", Fp, kernels::swim::build, "shallow-water stencils with a transposed-array sweep (Table 6: 92% of misses)"),
        workload!("mgrid", Fp, kernels::mgrid::build, "3D multigrid stencil, unit and power-of-two strides"),
        workload!("applu", Fp, kernels::applu::build, "3D SSOR sweeps over five solution arrays"),
        workload!("vpr", Int, kernels::vpr::build, "placement cost loops: clustered indirect a[b[i]] references"),
        workload!("mesa", Fp, kernels::mesa::build, "vertex pipeline: many short singly-nested loops over small rows (Table 4 var-region case)"),
        workload!("art", Fp, kernels::art::build, "neural-net training: bandwidth-bound f32 streaming + transposed heap array (Table 6)"),
        workload!("mcf", Int, kernels::mcf::build, "network simplex: sequential arc-field resets + random tree traversals (Table 6: 60.7%)"),
        workload!("equake", Fp, kernels::equake::build, "sparse matrix-vector over heap arrays of row pointers (Fig 9's pointer-prefetch win)"),
        workload!("crafty", Int, kernels::crafty::build, "chess bitboards: L2-resident working set (dropped from perf figures, miss rate 0.4%)"),
        workload!("ammp", Fp, kernels::ammp::build, "molecular dynamics: fragmented linked-list traversal (Table 6: 88.6%)"),
        workload!("parser", Int, kernels::parser::build, "dictionary tries: recursive pointer chains with partial spatial layout"),
        workload!("gap", Int, kernels::gap::build, "group-theory workspace sweeps: large spatial scans, half outside loops"),
        workload!("bzip2", Int, kernels::bzip2::build, "suffix sorting: random-permutation indirect a[b[i]] (the indirect-prefetch showcase)"),
        workload!("twolf", Int, kernels::twolf::build, "place-and-route: short fragmented linked lists + random pointers (nothing helps)"),
        workload!("apsi", Fp, kernels::apsi::build, "mesoscale weather arrays: multi-array affine stencils"),
        workload!("sphinx", App, kernels::sphinx::build, "speech recognition: hash-table probes over a few adjacent slots (late prefetches)"),
    ];
    ALL
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    all().iter().find(|w| w.name == name)
}

/// The benchmarks presented in performance figures (the paper drops
/// crafty for its negligible 0.4% L2 miss rate).
pub fn perf_set() -> Vec<&'static Workload> {
    all().iter().filter(|w| w.name != "crafty").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eighteen_benchmarks() {
        assert_eq!(all().len(), 18);
        assert_eq!(perf_set().len(), 17);
        assert!(by_name("mcf").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn registry_matches_paper_suite_split() {
        let ints = all().iter().filter(|w| w.class == BenchClass::Int).count();
        let fps = all().iter().filter(|w| w.class == BenchClass::Fp).count();
        let apps = all().iter().filter(|w| w.class == BenchClass::App).count();
        assert_eq!(ints, 8);
        assert_eq!(fps, 9);
        assert_eq!(apps, 1);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Test.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn every_workload_builds_and_traces_at_test_scale() {
        for w in all() {
            let b = w.build(Scale::Test);
            let (trace, _mem) = b.trace(None);
            assert!(
                trace.memory_refs() > 0,
                "{} produced an empty trace",
                w.name
            );
            assert!(!b.heap.is_empty() || b.program.arrays.is_empty());
        }
    }

    #[test]
    fn every_workload_compiles_with_default_hints() {
        for w in all() {
            let b = w.build(Scale::Test);
            let hints = b.hints(&AnalysisConfig::default());
            // Each kernel must produce at least one hinted site — Table 3
            // shows a nonzero hint ratio for every benchmark.
            assert!(
                hints.iter_hinted().count() > 0,
                "{} derived no hints at all",
                w.name
            );
        }
    }
}
