//! The experiment harness: one module per figure/claim of the paper's
//! evaluation (Section V), plus two extensions.
//!
//! | Module | Paper artifact | What it reproduces |
//! |---|---|---|
//! | [`fig2_4`] | Figs. 2–4 | Variance–bias scatter of the submission population under the P/SA/BF schemes with AMP/LMP/UMP marks |
//! | [`fig5`] | Fig. 5 | Procedure-2 region search against the P-scheme |
//! | [`fig6`] | Fig. 6 | MP vs average unfair-rating interval |
//! | [`fig7`] | Fig. 7 | Original vs random vs heuristic-correlation value orders |
//! | [`max_mp`] | §V-A claim | Max-MP ratio: P-scheme ≈ 1/3 of SA/BF |
//! | [`ablation`] | design ablation | Each detector disabled in turn |
//! | [`detection`] | extension | Detection quality per strategy family |
//! | [`boost`] | paper future work | Boost-side variance-bias analysis |
//! | [`scoring_ablation`] | interpretation check | Cumulative vs per-period MP scoring |
//! | [`roc`] | calibration evidence | Per-detector threshold sweeps |
//!
//! [`suite`] wires them together behind a small CLI (`experiments`
//! binary); [`report`] renders CSV tables and ASCII scatter plots.

#![warn(missing_docs)]

pub mod ablation;
pub mod boost;
pub mod detection;
pub mod fig2_4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod marks;
pub mod max_mp;
pub mod report;
pub mod roc;
pub mod scoring_ablation;
pub mod suite;

pub use report::{ExperimentReport, Table};
pub use suite::{Scale, SuiteConfig, Workbench};
