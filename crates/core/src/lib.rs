//! Guided Region Prefetching — the paper's primary contribution.
//!
//! This crate implements the hardware half of the ISCA 2003 GRP paper
//! plus the simulation platform that evaluates it:
//!
//! * [`engine`] — the prefetch engines: [`engine::NoPrefetcher`],
//!   [`engine::stride::StridePrefetcher`] (predictor-directed stream
//!   buffers), and [`engine::region::RegionPrefetcher`] which realizes
//!   both SRP (Lin et al.) and GRP (this paper) depending on its
//!   [`engine::region::RegionConfig`].
//! * [`memsys`] — L1/L2/MSHRs/DRAM plus the access prioritizer that
//!   schedules prefetches into idle memory channels (Figure 2).
//! * [`sim`] — trace replay through the out-of-order window model: one
//!   loop ([`Replay`]) over either trace form ([`EventSource`]).
//! * [`config`] — the §5.1 platform configuration and the experiment
//!   [`Scheme`]s.
//! * [`result`] — per-run metrics: IPC, speedup, coverage, accuracy,
//!   traffic, and the perfect-L2 gap.
//! * [`obs`] — the zero-cost observer layer: prefetch-lifecycle tracing
//!   and epoch metrics sampling, compiled away when disabled.
//! * [`faults`] — deterministic seeded fault injection ([`FaultPlan`])
//!   and the graceful-degradation contract it verifies.
//!
//! # Example
//!
//! ```
//! use grp_core::{run_trace, Scheme, SimConfig};
//! use grp_cpu::{HintSet, RefId, Trace};
//! use grp_mem::{Addr, HeapRange, Memory};
//!
//! // A little streaming kernel, hinted spatial.
//! let mut t = Trace::new();
//! for i in 0..1000u64 {
//!     t.push_load(Addr(0x10_0000 + i * 8), 8, RefId(0),
//!                 HintSet::none().with_spatial(), None);
//!     t.push_compute(4);
//! }
//! t.finish();
//! let mem = Memory::new();
//! let heap = HeapRange { start: Addr(0x10_0000), end: Addr(0x20_0000) };
//! let base = run_trace(&t, &mem, heap, Scheme::NoPrefetch, &SimConfig::paper());
//! let grp = run_trace(&t, &mem, heap, Scheme::GrpVar, &SimConfig::paper());
//! assert!(grp.speedup_vs(&base) >= 1.0);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod engine;
pub mod faults;
pub mod invariants;
pub mod memsys;
pub mod obs;
pub mod oracle;
pub mod result;
pub mod sim;

pub use config::{IdealMode, Scheme, SimConfig};
pub use faults::{FaultAction, FaultEvent, FaultKind, FaultPlan, FaultState};
pub use invariants::InvariantObserver;
pub use memsys::{MemSystem, MissAttribution};
pub use obs::{
    AccessClass, EpochSampler, EpochSnapshot, LatencyHist, LifecycleTracer, NullObserver, Observer,
    ObserverPair, PrefetchOutcome, PrefetchRecord, SquashReason,
};
pub use oracle::{DiffReport, OracleObserver, OracleSystem};
pub use result::{geomean, RunResult};
#[doc(hidden)]
pub use sim::PlantedBug;
pub use sim::{engine_for, run_trace, EventSource, Replay};
