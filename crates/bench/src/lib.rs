//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5).
//!
//! The [`suite::Suite`] runner memoizes `(benchmark, scheme)` simulation
//! results so the tables share work; each `experiments::*` function
//! returns structured rows, and [`report`] renders them in the paper's
//! layout. `cargo run -p grp-bench --bin all -- --scale small`
//! reproduces the whole evaluation into `EXPERIMENTS`-style output.

#![deny(missing_docs)]

pub mod args;
pub mod artifact;
pub mod chaos;
pub mod experiments;
pub mod fuzz;
pub mod iofault;
pub mod json;
pub mod obs_export;
pub mod report;
pub mod sched;
pub mod serve;
pub mod suite;
pub mod telemetry;
pub mod tracecache;
pub mod traj;

pub use suite::{Suite, SuiteScale};
