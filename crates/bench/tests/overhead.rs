//! Guards for the "zero-cost when disabled" claim of the observability
//! layer: the disabled-path hooks must cost a few nanoseconds, and a
//! fully instrumented detection run with the sink disabled must not be
//! slower than the same run with collection on.
//!
//! Bounds are deliberately generous — these tests run on shared CI
//! machines and must never flake — but they would still catch the
//! classic regressions: taking a lock or reading a clock on the
//! disabled path.

use rrs_aggregation::PScheme;
use rrs_attack::AttackStrategy;
use rrs_bench::bench_workbench;
use rrs_core::rng::Xoshiro256pp;
use rrs_core::AggregationScheme;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-N nanoseconds per call for a repeated body.
#[expect(
    clippy::disallowed_methods,
    reason = "rrs-bench measures wall time by definition"
)]
fn best_ns_per_call<T>(rounds: usize, calls: u32, mut body: impl FnMut() -> T) -> f64 {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(body());
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn disabled_hooks_cost_nanoseconds() {
    let _guard = rrs_obs::trace::tests_lock();
    rrs_obs::disable();
    let span_ns = best_ns_per_call(5, 1_000_000, || rrs_obs::trace::span(black_box("t.noop")));
    let counter_ns = best_ns_per_call(5, 1_000_000, || {
        rrs_obs::metrics::counter_add(black_box("t.noop"), 1);
    });
    let sketch_ns = best_ns_per_call(5, 1_000_000, || {
        rrs_obs::metrics::observe_quantile(black_box("t.noop"), black_box(1.5));
    });
    let note_span_ns = best_ns_per_call(5, 1_000_000, || {
        let record = rrs_obs::trace::SpanRecord {
            name: black_box("t.noop"),
            nanos: 1,
            id: 0,
            parent: 0,
        };
        rrs_obs::recorder::note_span(&record);
    });
    // A relaxed atomic load is under a nanosecond on any machine this
    // runs on; 250 ns leaves two orders of magnitude of slack while
    // still catching a lock or clock read sneaking onto the fast path.
    assert!(
        span_ns < 250.0,
        "disabled span costs {span_ns:.1} ns/call — the fast path regressed"
    );
    assert!(
        counter_ns < 250.0,
        "disabled counter costs {counter_ns:.1} ns/call — the fast path regressed"
    );
    assert!(
        sketch_ns < 250.0,
        "disabled sketch observe costs {sketch_ns:.1} ns/call — the fast path regressed"
    );
    assert!(
        note_span_ns < 250.0,
        "disabled recorder append costs {note_span_ns:.1} ns/call — the fast path regressed"
    );
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "rrs-bench measures wall time by definition"
)]
fn disabled_detection_run_is_not_slower_than_traced() {
    let _guard = rrs_obs::trace::tests_lock();
    let workbench = bench_workbench(17);
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let seq = AttackStrategy::NaiveExtreme {
        start_day: 35.0,
        duration_days: 10.0,
    }
    .build(&workbench.attack_ctx, &mut rng);
    let attacked = workbench.challenge.attacked_dataset(&seq);
    let ctx = workbench.challenge.eval_context();
    let scheme = PScheme::new();

    let best = |traced: bool| {
        (0..3)
            .map(|_| {
                if traced {
                    rrs_obs::enable();
                } else {
                    rrs_obs::disable();
                }
                let start = Instant::now();
                black_box(scheme.evaluate(&attacked, &ctx).suspicious().len());
                let elapsed = start.elapsed();
                rrs_obs::reset();
                rrs_obs::disable();
                elapsed
            })
            .min()
            .expect("three rounds ran")
    };
    // Warm up caches and the allocator on an untimed round first.
    black_box(scheme.evaluate(&attacked, &ctx).suspicious().len());

    let disabled = best(false);
    let traced = best(true);
    // The traced run does strictly more work, so the disabled run must
    // not come out meaningfully slower; the 25% ratio plus a 50 ms
    // absolute floor absorbs scheduler noise on loaded CI machines.
    let bound = traced.mul_f64(1.25) + std::time::Duration::from_millis(50);
    assert!(
        disabled <= bound,
        "disabled run {disabled:?} slower than traced bound {bound:?} (traced {traced:?})"
    );
}
