//! The P-scheme's only production detection path (the incremental
//! `detect_all_online`, reached through `epoch_step`) must score a whole
//! submission population exactly as a batch reference does.
//!
//! The reference below is the P-scheme loop written from the batch
//! parts: `JointDetector::detect_all` re-derives every curve from the
//! full prefix each epoch, then `TrustManager`, `filter_ratings` and
//! `weighted_aggregate` finish the epoch. Every submission of the
//! small-scale workbench (seed 42) is scored through
//! `ScoringSession::score_detailed` by both schemes, under the paper
//! configuration and each single-detector ablation, and the two
//! `SchemeOutcome`s (marks, scores, trust) must be equal — the same bar
//! as a `diff -r` of the experiment trees the two paths would write.

use rrs_aggregation::filter::filter_ratings;
use rrs_aggregation::{weighted_aggregate, PScheme, PSchemeConfig};
use rrs_challenge::ScoringSession;
use rrs_core::{
    AggregationScheme, EvalContext, ProductId, RaterId, RatingDataset, RatingEntry, SchemeOutcome,
    TimeWindow,
};
use rrs_detectors::{AblatedDetector, DetectorConfig, JointDetector};
use rrs_eval::suite::{Scale, SuiteConfig, Workbench};
use rrs_trust::TrustManager;
use std::collections::BTreeMap;

/// The P-scheme epoch loop with batch detection: a test-only reference.
struct BatchPScheme {
    config: PSchemeConfig,
}

impl AggregationScheme for BatchPScheme {
    fn name(&self) -> &str {
        "P-scheme (batch reference)"
    }

    fn evaluate(&self, dataset: &RatingDataset, ctx: &EvalContext) -> SchemeOutcome {
        let detector = JointDetector::new(self.config.detectors);
        let mut trust = TrustManager::new();
        let mut out = SchemeOutcome::new();
        let mut scores: BTreeMap<ProductId, Vec<Option<f64>>> = BTreeMap::new();
        for period in ctx.periods() {
            let horizon = TimeWindow::new(ctx.horizon().start(), period.end())
                .expect("period lies inside the horizon");
            let prefix = dataset.prefix_view(horizon);
            let snapshot = trust.snapshot();
            let (marks, _) = detector.detect_all(&prefix, horizon, |r: RaterId| {
                snapshot.get(&r).copied().unwrap_or(0.5)
            });
            out.mark_suspicious_all(marks.iter().copied());
            if let Some(factor) = self.config.trust_discount {
                trust.discount_all(factor);
            }
            trust.update_epoch(&prefix, period, &marks);
            let weighted = |entries: &[RatingEntry]| {
                let pairs: Vec<(f64, f64)> = entries
                    .iter()
                    .map(|e| (e.value(), trust.trust_of(e.rater())))
                    .collect();
                weighted_aggregate(&pairs)
            };
            for (pid, timeline) in dataset.products() {
                let slice = timeline.in_window(ctx.scoring_window(period));
                let kept = filter_ratings(
                    slice,
                    &marks,
                    |r| trust.trust_of(r),
                    self.config.filter_trust_threshold,
                );
                let all: Vec<RatingEntry> = slice.iter().collect();
                let score = weighted(&kept).or_else(|| weighted(&all));
                scores.entry(pid).or_default().push(score);
            }
        }
        for (pid, s) in scores {
            out.insert_scores(pid, s);
        }
        for (rater, value) in trust.snapshot() {
            out.set_trust(rater, value);
        }
        out
    }
}

#[test]
fn online_p_scheme_scores_the_population_like_the_batch_reference() {
    let workbench = Workbench::build(&SuiteConfig {
        scale: Scale::Small,
        seed: 42,
        out_dir: None,
    });
    let paper = DetectorConfig::paper();
    let configs = [
        ("paper", paper),
        ("without MC", paper.without(AblatedDetector::MeanChange)),
        ("without ARC", paper.without(AblatedDetector::ArrivalRate)),
        ("without HC", paper.without(AblatedDetector::Histogram)),
        ("without ME", paper.without(AblatedDetector::ModelError)),
    ];
    let mut marked = 0usize;
    for (label, detectors) in configs {
        let config = PSchemeConfig {
            detectors,
            ..PSchemeConfig::paper()
        };
        let online = PScheme::with_config(config);
        let batch = BatchPScheme { config };
        let online_session = ScoringSession::new(&workbench.challenge, &online);
        let batch_session = ScoringSession::new(&workbench.challenge, &batch);
        let results = rrs_core::par::par_map(&workbench.population, |_, spec| {
            let (online_report, online_outcome, _) = online_session.score_detailed(&spec.sequence);
            let (batch_report, batch_outcome, _) = batch_session.score_detailed(&spec.sequence);
            let agree = online_outcome == batch_outcome && online_report == batch_report;
            (spec.id, agree, online_outcome.suspicious().len())
        });
        let mismatches: Vec<usize> = results
            .iter()
            .filter(|(_, agree, _)| !agree)
            .map(|(id, _, _)| *id)
            .collect();
        marked += results.iter().map(|(_, _, n)| n).sum::<usize>();
        assert!(
            mismatches.is_empty(),
            "{label}: online and batch outcomes differ for submissions {mismatches:?}"
        );
    }
    // Equality must not be vacuous: the population's attacks get marked.
    assert!(
        marked > 0,
        "no submission was marked under any configuration"
    );
}
