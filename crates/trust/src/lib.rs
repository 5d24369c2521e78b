//! Trust in raters: the beta-function trust model and the trust manager.
//!
//! The P-scheme cannot simply drop every rating that lands in a suspicious
//! interval — some fair ratings get caught. Instead (paper Section IV-G and
//! Procedure 1) suspicion feeds a per-rater *beta trust record*:
//! at each trust-update epoch, a rater who provided `n` ratings of which
//! `f` were marked suspicious accumulates `S += n − f` successes and
//! `F += f` failures, and their trust is `(S + 1) / (S + F + 2)` — the mean
//! of a Beta(S+1, F+1) distribution (Jøsang–Ismail beta reputation).
//!
//! [`framework`] carries the simplified generic trust-establishment
//! operators (concatenation along a path, fusion across paths) from
//! Sun & Yang, ICC'07, which the paper's trust manager specializes.

#![warn(missing_docs)]

mod beta;
pub mod framework;
mod manager;

pub use beta::BetaTrust;
pub use manager::{TrustDelta, TrustManager, TrustUpdate};
