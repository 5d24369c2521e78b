//! Shared fixtures and the self-contained timing harness for the
//! benchmark suites.
//!
//! Each paper figure/claim has a bench in `benches/figures.rs` that
//! regenerates it at reduced scale; `benches/micro.rs` covers the
//! per-component costs: detectors, aggregation schemes, the attack
//! generator, and the MP metric. Both emit `BENCH_<suite>.json`
//! trajectories via [`Harness`] instead of depending on Criterion, so
//! `cargo bench` works offline with zero external crates.

#![warn(missing_docs)]

pub mod harness;

pub use harness::{BenchResult, Harness};

use rrs_eval::suite::{Scale, SuiteConfig, Workbench};

/// Builds the small-scale workbench every figure bench shares.
#[must_use]
pub fn bench_workbench(seed: u64) -> Workbench {
    Workbench::build(&SuiteConfig {
        scale: Scale::Small,
        seed,
        out_dir: None,
    })
}
