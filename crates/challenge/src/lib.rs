//! The Rating Challenge simulator.
//!
//! Reproduces the experimental apparatus of the paper's Section III: real
//! online rating data for nine flat-panel TVs is replaced by a calibrated
//! synthetic fair-rating generator ([`fairgen`]; see DESIGN.md for the
//! substitution argument), participants control 50 biased raters whose
//! goal is to boost two products and downgrade two others, and success is
//! measured by the manipulation-power (MP) metric over 30-day periods.
//!
//! * [`products`] — the nine-product catalog with per-product quality.
//! * [`fairgen`] — the fair-rating generator: Poisson arrivals with
//!   weekly modulation and promotion bursts, truncated-Gaussian values.
//! * [`challenge`] — [`RatingChallenge`]: builds the fair dataset,
//!   exposes the attacker's view, validates submissions, scores MP.
//! * [`submission`] — the challenge rules and their violations.
//! * [`scoring`] — [`ScoringSession`]: caches the clean-dataset
//!   evaluation of a scheme so populations of submissions score cheaply.

#![warn(missing_docs)]

pub mod challenge;
pub mod fairgen;
pub mod products;
pub mod scoring;
pub mod submission;

pub use challenge::{ChallengeConfig, RatingChallenge};
pub use fairgen::FairDataConfig;
pub use products::{Product, ProductCatalog};
pub use scoring::{ScoredSubmission, ScoringSession};
pub use submission::{validate_submission, SubmissionError};
