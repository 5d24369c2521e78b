//! # rrs — Reliable Rating Systems
//!
//! A faithful, from-scratch reproduction of *“Modeling Attack Behaviors in
//! Rating Systems”* (Feng, Yang, Sun, Dai — ICDCS 2008): attack behavior
//! models, a comprehensive unfair-rating generator, and the signal-based
//! reliable rating-aggregation system (P-scheme) the paper's Rating
//! Challenge was built on, plus the SA and BF baseline defenses.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`core`] — ratings, datasets, time, the MP metric, scheme traits.
//! * [`signal`] — GLRTs, AR modeling, clustering, special functions.
//! * [`detectors`] — the four unfair-rating detectors and their joint
//!   integration (paper Fig. 1).
//! * [`trust`] — beta-function trust models (paper Procedure 1).
//! * [`aggregation`] — P-scheme, SA-scheme, BF-scheme.
//! * [`attack`] — the attack generator (paper Fig. 8), Procedure 2 region
//!   search, Procedure 3 correlation mapping, and the strategy library.
//! * [`challenge`] — the Rating Challenge simulator and fair-data
//!   generator.
//! * [`eval`] — experiment harness reproducing every figure of the paper.
//! * [`obs`] — zero-dependency tracing, metrics, and decision traces for
//!   the detection pipeline (`rrs trace`, `RRS_TRACE=1`).
//! * [`serve`] — the serving front end: a zero-dependency HTTP/1.1 API
//!   with a durable write-ahead log and checkpoint/restore
//!   (`rrs serve`).
//!
//! # Quickstart
//!
//! ```
//! use rrs::challenge::{ChallengeConfig, RatingChallenge};
//! use rrs::aggregation::PScheme;
//!
//! let challenge = RatingChallenge::generate(&ChallengeConfig::small(), 7);
//! let scheme = PScheme::default();
//! let clean_mp = challenge
//!     .score_dataset(&scheme, challenge.fair_dataset())
//!     .expect("fair dataset is non-empty");
//! assert_eq!(clean_mp.total(), 0.0);
//! ```

#![warn(missing_docs)]

pub use rrs_aggregation as aggregation;
pub use rrs_attack as attack;
pub use rrs_challenge as challenge;
pub use rrs_core as core;
pub use rrs_detectors as detectors;
pub use rrs_eval as eval;
pub use rrs_obs as obs;
pub use rrs_serve as serve;
pub use rrs_signal as signal;
pub use rrs_trust as trust;

pub use rrs_core::{
    AggregationScheme, CoreError, Days, EvalContext, MpParams, MpReport, ProductId, RaterId,
    Rating, RatingDataset, RatingId, RatingSource, RatingValue, SchemeOutcome, TimeWindow,
    Timestamp,
};
