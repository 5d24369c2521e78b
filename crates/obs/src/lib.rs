//! # rrs-obs — observability for the rrs detection pipeline
//!
//! Hermetic, zero-external-dependency tracing, metrics, and decision
//! traces for the P-scheme pipeline (signal → detectors → joint decision
//! → trust → aggregation). Four cooperating facilities:
//!
//! * [`trace`] — a span/event tracer with monotonic timing, a
//!   thread-safe in-memory sink, and parent/child structure from a
//!   thread-local span stack. Span names are dotted `stage.detail`
//!   strings (`"signal.mc"`, `"detect.integrate"`,
//!   `"trust.update_epoch"`, `"aggregate.score"`); the stage prefix is
//!   what per-stage breakdowns group by, and
//!   [`trace::collapsed_stacks`] renders a batch as flamegraph input.
//! * [`metrics`] — a registry of counters, gauges, fixed-bucket
//!   histograms, and mergeable [`sketch::QuantileSketch`]es, with a
//!   [`metrics::snapshot`] API that renders as JSON or Prometheus text
//!   exposition.
//! * [`decision`] — structured decision-trace records: per (product,
//!   interval), every detector's raw statistic, threshold and verdict,
//!   the two-path joint-decision outcome, the suspicion set, and each
//!   affected rater's α/β trust trajectory. Exported as JSONL via
//!   [`export`].
//! * [`recorder`] — a bounded anomaly flight recorder: per-product
//!   rings of recent decision records plus span context, snapshotted
//!   into a dump whenever a detector fires.
//! * [`log`] — a leveled logger (error/warn/info/debug) for CLI output,
//!   controlled by `--quiet`/`--verbosity`.
//!
//! # Enablement and cost
//!
//! The tracer, metrics, and decision buffer share **one** global switch:
//! [`enable`]/[`disable`]/[`enabled`], initialised from the `RRS_TRACE`
//! environment variable by [`init_from_env`]. When disabled (the
//! default) every instrumentation call is a single relaxed atomic load —
//! no clock reads, no locks, no allocation — so instrumented hot paths
//! run at full speed. `crates/bench/tests/overhead.rs` holds a bound on
//! that disabled-mode cost.
//!
//! The logger is independent of the switch: it is always "on" and only
//! gated by its verbosity level, because CLI output must work without
//! tracing.
//!
//! # Determinism
//!
//! Decision-trace *bodies* contain no wall-clock values — only data
//! derived deterministically from the dataset and configuration — so a
//! trace of a seeded scenario is byte-for-byte reproducible and can be
//! golden-tested. Timing lives exclusively in span records and metric
//! values, which are reported separately (bench JSON, debug output) and
//! never enter a golden-tested trace body.
//!
//! # Example
//!
//! ```
//! rrs_obs::enable();
//! {
//!     let _span = rrs_obs::trace::span("detect.example");
//!     rrs_obs::metrics::counter_add("example.calls", 1);
//! }
//! let spans = rrs_obs::trace::drain_spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "detect.example");
//! let snap = rrs_obs::metrics::snapshot();
//! assert_eq!(snap.counters.get("example.calls"), Some(&1));
//! rrs_obs::reset();
//! rrs_obs::disable();
//! ```

#![warn(missing_docs)]
// Clippy reports `disallowed_macros` at the crate root, whatever item
// or module an `#[expect]` sits on; rrs-obs is sanctioned as a whole.
#![expect(
    clippy::disallowed_macros,
    reason = "each thread's open-span stack links a child span to its parent"
)]

pub mod decision;
pub mod export;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod sketch;
pub mod trace;

#[expect(
    clippy::disallowed_types,
    reason = "rrs-obs owns the process-global collection state, which no result reads"
)]
use std::sync::atomic::{AtomicBool, Ordering};

#[expect(
    clippy::disallowed_types,
    reason = "rrs-obs owns the process-global collection state, which no result reads"
)]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` when observability collection is on.
///
/// This is the only cost instrumented code pays when tracing is off: a
/// single relaxed atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span, metrics, and decision-trace collection on.
///
/// Also registers the span stack as `rrs_core::par`'s worker context, so
/// spans opened inside pool workers keep the caller's open span as their
/// parent at any thread count.
pub fn enable() {
    rrs_core::par::set_worker_context(trace::open_span, trace::adopt_parent);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span, metrics, and decision-trace collection off.
///
/// Already-collected data stays in the sinks until [`reset`] or a drain.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Initialises the switch from the environment: `RRS_TRACE` set to
/// anything but `0` or the empty string enables collection.
pub fn init_from_env() {
    match std::env::var("RRS_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => enable(),
        _ => {}
    }
}

/// Clears every sink: spans, events, metrics, decision records, and the
/// flight recorder.
///
/// Call before a run whose trace you want in isolation.
pub fn reset() {
    trace::drain_spans();
    trace::drain_events();
    metrics::reset();
    decision::drain();
    recorder::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_round_trips() {
        // Serialized against other obs tests by the trace-module lock.
        let _guard = trace::tests_lock();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }
}
