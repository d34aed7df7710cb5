//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5).
//!
//! A [`suite::Suite`] is the result table: one batch through the cell
//! scheduler fills every cell [`experiments::cells`] lists, and each
//! `experiments::*` function reads it to return structured rows, which
//! [`report`] renders in the paper's layout. `cargo run -p grp-bench
//! --bin all -- --scale small` reproduces the whole evaluation into
//! `EXPERIMENTS`-style output.

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
