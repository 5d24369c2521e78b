//! Decision-trace probe: run an attacked challenge through the P-scheme
//! with trace collection on and explain, period by period, why the
//! pipeline marked (or spared) each product — detector statistics vs
//! thresholds, the joint-decision path taken, and how the implicated
//! raters' beta-trust records moved.
//!
//! This replaces the old ad-hoc `debug_trace` binary with the structured
//! decision-trace layer: the same questions ("where does MP leak?",
//! "which detector carried the verdict?") are now answered from
//! [`rrs::obs::decision::DecisionRecord`]s instead of scattered prints.
//!
//! ```text
//! cargo run --release --example trace_probe
//! ```

use rrs::aggregation::PScheme;
use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::{AggregationScheme, GroundTruth};
use rrs_core::rng::Xoshiro256pp;

#[expect(
    clippy::print_stdout,
    reason = "an example's output is its demonstration"
)]
fn main() {
    let challenge = RatingChallenge::generate(&ChallengeConfig::small(), 7);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let attack = AttackStrategy::NaiveExtreme {
        start_day: 35.0,
        duration_days: 10.0,
    }
    .build(&challenge.attack_context(), &mut rng);
    let attacked = challenge.attacked_dataset(&attack);
    let ctx = challenge.eval_context();
    println!(
        "attack: {} unfair ratings from {} raters",
        attack.len(),
        challenge.raters().len()
    );

    // Collect the full decision trace of one evaluation.
    rrs::obs::enable();
    rrs::obs::decision::drain();
    let scheme = PScheme::new();
    let outcome = scheme.evaluate(&attacked, &ctx);
    let records = rrs::obs::decision::drain();
    rrs::obs::disable();

    for r in &records {
        println!(
            "\nproduct {} | days {:.0}..{:.0} | {} marked",
            r.product,
            r.start_day,
            r.end_day,
            r.suspicious.len()
        );
        for d in &r.detectors {
            println!(
                "  {:<6} stat {:>8.3} vs threshold {:>6.3}  {}",
                d.name,
                d.statistic,
                d.threshold,
                if d.fired { "FIRED" } else { "quiet" }
            );
        }
        for p in &r.paths {
            println!(
                "  path {} ({} band) marked {} ratings in days {:.1}..{:.1}",
                p.path, p.band, p.marked, p.start_day, p.end_day
            );
        }
        for t in &r.trust {
            println!(
                "  rater {}: trust {:.3} -> {:.3}  (alpha {:.1} -> {:.1}, beta {:.1} -> {:.1})",
                t.rater,
                t.trust_before(),
                t.trust_after(),
                t.alpha_before,
                t.alpha_after,
                t.beta_before,
                t.beta_after
            );
        }
    }

    let truth = GroundTruth::from_dataset(&attacked);
    println!(
        "\ndetection vs ground truth: {}",
        truth.score(outcome.suspicious())
    );
}
