//! Replay the Rating Challenge: a synthetic population of 251
//! submissions is scored against all three defense schemes, and the
//! leaderboard is printed — who would have won the cash prize, and under
//! which defense.
//!
//! ```text
//! cargo run --release --example challenge_replay
//! ```

use rrs::aggregation::{BfScheme, PScheme, SaScheme};
use rrs::attack::{generate_population, PopulationConfig};
use rrs::challenge::{ChallengeConfig, RatingChallenge, ScoringSession};
use rrs::AggregationScheme;

#[expect(
    clippy::print_stdout,
    reason = "an example's output is its demonstration"
)]
fn main() {
    let challenge = RatingChallenge::generate(&ChallengeConfig::paper(), 7);
    let ctx = challenge.attack_context();
    let population = generate_population(&ctx, &PopulationConfig::default());
    println!(
        "scoring {} submissions against three defenses ...\n",
        population.len()
    );

    let p = PScheme::new();
    let sa = SaScheme::new();
    let bf = BfScheme::new();
    for scheme in [&p as &dyn AggregationScheme, &sa, &bf] {
        let session = ScoringSession::new(&challenge, scheme);
        let mut scored = session.score_population(&population);
        scored.sort_by(|a, b| b.report.total().total_cmp(&a.report.total()));

        println!("=== leaderboard under {} ===", scheme.name());
        println!("{:<5} {:<18} {:>8}", "rank", "strategy", "MP");
        for (rank, s) in scored.iter().take(8).enumerate() {
            println!(
                "{:<5} {:<18} {:>8.4}{}",
                rank + 1,
                s.strategy,
                s.report.total(),
                if s.straightforward { "" } else { "  (smart)" }
            );
        }
        let max = scored.first().map_or(0.0, |s| s.report.total());
        let straightforward_best = scored
            .iter()
            .filter(|s| s.straightforward)
            .map(|s| s.report.total())
            .fold(0.0f64, f64::max);
        println!("max MP {max:.4}; best straightforward submission {straightforward_best:.4}\n");
    }
}
