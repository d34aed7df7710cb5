//! Trace-driven out-of-order core model for the GRP simulator.
//!
//! The paper evaluates prefetching on a SimpleScalar `sim-outorder` core:
//! "a 1.6 GHz, 4-way issue, 64-entry RUU (reorder buffer), out-of-order
//! core" (§5.1). This crate models the parts of that core that decide how
//! much memory latency is tolerated:
//!
//! * [`Window`] — a 64-entry instruction window dispatching and retiring
//!   4 instructions per cycle in order, so a load miss blocks retirement
//!   once the window fills behind it, and independent misses overlap
//!   (memory-level parallelism) up to the window and MSHR limits.
//! * [`trace`] — the dynamic instruction trace the interpreter produces
//!   and the simulator replays, including address-dependency edges so
//!   dependent loads (pointer chasing) serialize exactly as they do in
//!   hardware.
//! * [`hints`] — the compiler-to-hardware hint channel: the paper encodes
//!   hints "with unused Alpha VAX-format floating point load opcodes"
//!   (§3.3); here they are an explicit [`hints::HintSet`] carried by trace
//!   loads, plus `SetLoopBound`/`IndirectPrefetch` pseudo-instructions.

#![deny(missing_docs)]

pub mod hints;
pub mod packed;
pub mod stats;
pub mod trace;
pub mod window;

pub use hints::HintSet;
pub use packed::{checksum64, PackError, PackedFileError, PackedTrace};
pub use stats::TraceStats;
pub use trace::{RefId, Trace, TraceEvent};
pub use window::{Window, WindowConfig};
