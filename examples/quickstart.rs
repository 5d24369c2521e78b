//! Quickstart: generate a rating challenge, launch one attack, defend
//! with the P-scheme, and read the manipulation power.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rrs::aggregation::{PScheme, SaScheme};
use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::GroundTruth;
use rrs::AggregationScheme;
use rrs_core::rng::Xoshiro256pp;

#[expect(
    clippy::print_stdout,
    reason = "an example's output is its demonstration"
)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate the challenge: nine TVs, 180 days of fair ratings.
    let challenge = RatingChallenge::generate(&ChallengeConfig::paper(), 7);
    println!(
        "challenge: {} products, {} fair ratings, attack window {}",
        challenge.fair_dataset().product_ids().len(),
        challenge.fair_dataset().len(),
        challenge.attack_window(),
    );

    // 2. Build an attack: a camouflage strike (medium bias, high
    //    variance) — the paper's region-R3 recipe against signal-based
    //    detection.
    let ctx = challenge.attack_context();
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let attack = AttackStrategy::Camouflage {
        bias: 2.2,
        std_dev: 1.5,
        start_day: 20.0,
        duration_days: 30.0,
    }
    .build(&ctx, &mut rng);
    challenge.validate(&attack)?;
    println!("attack: {} unfair ratings [{}]", attack.len(), attack.label);

    // 3. Score the attack against an undefended average and against the
    //    paper's signal-based P-scheme.
    for scheme in [&SaScheme::new() as &dyn AggregationScheme, &PScheme::new()] {
        let report = challenge.score(scheme, &attack)?;
        println!("{:<10} {}", scheme.name(), report);
    }

    // 4. Look at detection quality under the P-scheme.
    let scheme = PScheme::new();
    let attacked = challenge.attacked_dataset(&attack);
    let outcome = scheme.evaluate(&attacked, &challenge.eval_context());
    let truth = GroundTruth::from_dataset(&attacked);
    println!("P-scheme detection: {}", truth.score(outcome.suspicious()));
    Ok(())
}
