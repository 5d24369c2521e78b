//! The metrics snapshot must be byte-identical at any thread count.
//!
//! Worker threads may only make commuting registry writes (counter
//! adds, integer-bucket sketch observations); gauges are written from
//! serial points of the epoch loop. This test drives the full
//! `rrs metrics` pipeline — scenario, P-scheme, renderer — at 1 thread
//! and at 8 and compares the rendered bytes.

fn run_metrics() -> String {
    let args: Vec<String> = ["downgrade-burst", "--seed", "7"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    rrs_cli::commands::run("metrics", &args).expect("metrics command succeeds")
}

#[test]
fn metrics_exposition_is_thread_count_invariant() {
    let serial = rrs_core::par::with_threads(1, run_metrics);
    let wide = rrs_core::par::with_threads(8, run_metrics);
    assert_eq!(
        serial, wide,
        "metrics snapshot differs between 1 and 8 threads"
    );

    // Detector-health wiring sanity: the scenario is a real attack, so
    // the per-detector fire counters, the suspicion telemetry and the
    // online detector's O(1) series (written from pool workers, then
    // serially) are all live.
    for metric in [
        "detect_fired_mc",
        "detect_marked_per_product",
        "trust_mass_total",
        "scheme_suspicious_set_size",
        "signal_online_absorbed_ratings",
        "signal_online_products",
    ] {
        assert!(serial.contains(metric), "missing {metric}:\n{serial}");
    }
}
