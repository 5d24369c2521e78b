//! Trust dynamics: watch Procedure 1 separate honest raters from
//! dishonest ones, month by month.
//!
//! ```text
//! cargo run --release --example trust_dynamics
//! ```

use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::{Days, EvalContext, TimeWindow};
use rrs::detectors::JointDetector;
use rrs::trust::TrustManager;
use rrs_core::rng::Xoshiro256pp;

#[expect(
    clippy::print_stdout,
    reason = "an example's output is its demonstration"
)]
fn main() {
    let challenge = RatingChallenge::generate(&ChallengeConfig::paper(), 3);
    let ctx = challenge.attack_context();
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let attack = AttackStrategy::Burst {
        bias: 3.2,
        std_dev: 0.4,
        start_day: 10.0,
        duration_days: 14.0,
    }
    .build(&ctx, &mut rng);
    let attacked = challenge.attacked_dataset(&attack);

    let eval_ctx = EvalContext::new(challenge.horizon(), Days::new(30.0).expect("constant"));
    let detector = JointDetector::default();
    let mut trust = TrustManager::new();

    println!("epoch | avg honest trust | avg attacker trust | suspicious marks");
    for (epoch, period) in eval_ctx.periods().iter().enumerate() {
        let prefix_window =
            TimeWindow::new(eval_ctx.horizon().start(), period.end()).expect("inside horizon");
        let prefix = attacked.prefix_view(prefix_window);
        let snapshot = trust.snapshot();
        let (marks, _) = detector.detect_all(&prefix, prefix_window, |r| {
            snapshot.get(&r).copied().unwrap_or(0.5)
        });
        let update = trust.update_epoch(&prefix, *period, &marks);

        let mut honest = Vec::new();
        let mut attackers = Vec::new();
        for (rater, value) in trust.snapshot() {
            if rater.value() >= 1_000_000 {
                attackers.push(value);
            } else {
                honest.push(value);
            }
        }
        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.5
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        println!(
            "{epoch:>5} | {:>16.3} | {:>18.3} | {} marks on {} ratings",
            avg(&honest),
            avg(&attackers),
            update.suspicious,
            update.ratings,
        );
    }
    println!("\nhonest raters drift up with every clean epoch; the attackers'");
    println!("burst is marked in its epoch and their beta trust collapses,");
    println!("which zeroes their weight in Eq. 7 and trips the rating filter.");
}
