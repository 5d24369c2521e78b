//! Incremental (online) joint detection: rolling per-(product, window)
//! state that lets each scoring epoch consume only the ratings that
//! arrived since the previous epoch.
//!
//! The batch path re-derives every indicator curve from the full borrowed
//! prefix each epoch, so the per-epoch `signal` stage cost grows with the
//! prefix length. This module replays **exactly the same float
//! operations** on cached state instead, keyed on one observation: most
//! of every indicator curve is *settled* — no future arrival can change
//! it — because arrivals are time-ordered and each epoch's horizon end is
//! a lower bound on all later rating times.
//!
//! Settlement conditions, per detector:
//!
//! * **MC** — the point at rating `k` reads `[t_k − h, t_k + h)`; it is
//!   settled once `t_k + h ≤ E` (horizon end), because both
//!   `partition_point` boundaries and the prefix-sum differences are then
//!   frozen. Settled indices form a prefix of the stream.
//! * **ARC** — the point at day `k` reads day bins `[k − w, k + w)` with
//!   `w = min(D, k)` once the edge clip stops binding; it is settled once
//!   `k + min(D, k)` whole days are complete (`⌊E − start⌋`). Daily
//!   counts themselves are appended in O(1) per rating; a *change of the
//!   stream median* re-bands history, so the band is rebuilt (and its
//!   settled points discarded) whenever the median's bit pattern moves.
//! * **HC / ME** — windows are index-based (`[start, start + w)`), so a
//!   window is settled the moment it fits inside the stream; each is
//!   evaluated exactly once, ever.
//!
//! Work that genuinely depends on the whole prefix each epoch — the MC
//! variance, the median, run-merging, peak finding, segmentation, and the
//! two-path integration — is a handful of linear passes and stays in the
//! batch code, *shared* with this path (see [`crate::mc::judge_segments`]
//! and friends), which is what makes the agreement exact rather than
//! approximate: the oracle property tests in this module assert
//! `DetectionResult` equality epoch by epoch against
//! [`JointDetector::detect_all`], and `rrs-eval`'s `online_matches_batch`
//! test holds whole scored submission populations to the same bar.
//!
//! This is the only detection path the P-scheme and `rrs serve` run;
//! the batch path stays as the one-shot API (`rrs detect`) and as the
//! reference these tests compare against. Its only instruments are O(1)
//! per product: the `signal.online.{absorbed_ratings,rebuilds,products}`
//! series.
//!
//! The cache trusts its caller to feed it *prefix views of one growing
//! stream* (the epoch loop's shape). Every absorb re-checks the cheap
//! invariants — same horizon start, monotone horizon end, append-only
//! time-sorted entries at or beyond the previous horizon end, matching
//! tail entry — and on any violation falls back to a full rebuild: wrong
//! inputs cost speed, never correctness.

use crate::arc::{self, ArcConfig, ArcOutcome, ArcVariant};
use crate::hc::{self, HcConfig, HcOutcome};
use crate::integrate::{integrate_outcomes, DetectionResult, JointDetector};
use crate::mc::{self, McConfig, McOutcome};
use crate::me::{self, MeConfig, MeOutcome};
use rrs_core::{DatasetView, ProductId, RaterId, RatingId, TimeWindow, TimelineView};
use rrs_signal::curve::{Curve, CurvePoint};
use std::collections::{BTreeMap, BTreeSet};

// Metric names, declared as constants per the `metric-name` lint rule.
const METRIC_ABSORBED_RATINGS: &str = "signal.online.absorbed_ratings";
const METRIC_REBUILDS: &str = "signal.online.rebuilds";
const METRIC_PRODUCTS: &str = "signal.online.products";

/// Rolling detector state carried across scoring epochs, one slot per
/// product. Feed it to [`JointDetector::detect_all_online`] with a
/// growing prefix view each epoch; starting from a fresh state is always
/// correct (the first epoch is simply a full build).
#[derive(Debug, Default)]
pub struct OnlineState {
    products: BTreeMap<ProductId, ProductState>,
}

impl OnlineState {
    /// Creates an empty state (no products tracked yet).
    #[must_use]
    pub fn new() -> Self {
        OnlineState::default()
    }

    /// Number of products holding rolling state.
    #[must_use]
    pub fn products_tracked(&self) -> usize {
        self.products.len()
    }

    /// Captures a self-contained, bit-exact image of the rolling state.
    ///
    /// Every `f64` is carried as its bit pattern, so the image survives
    /// any text round trip without rounding. Structures that are pure
    /// functions of the captured ones — the stream prefix sums, the
    /// sorted mirror, HC's sliding window multiset — are *not* stored;
    /// [`OnlineState::restore`] rebuilds them by replaying the exact
    /// push/sort operations the live path uses, which keeps the image
    /// minimal without costing a single bit of fidelity.
    #[must_use]
    pub fn snapshot(&self) -> OnlineSnapshot {
        let products = self
            .products
            .iter()
            .map(|(&product, state)| ProductSnapshot {
                product,
                values_bits: state.cache.values.iter().map(|v| v.to_bits()).collect(),
                times_bits: state.cache.times.iter().map(|t| t.to_bits()).collect(),
                start_bits: state.cache.start_bits,
                end_bits: state.cache.end_days.to_bits(),
                mc: CurveCursorSnapshot {
                    settled: snapshot_points(&state.mc.settled),
                    scan_from: state.mc.scan_from as u64,
                },
                harc: snapshot_arc_band(&state.harc),
                larc: snapshot_arc_band(&state.larc),
                hc: CurveCursorSnapshot {
                    settled: snapshot_points(&state.hc.settled),
                    scan_from: state.hc.next_start as u64,
                },
                me: CurveCursorSnapshot {
                    settled: snapshot_points(&state.me.settled),
                    scan_from: state.me.next_start as u64,
                },
            })
            .collect();
        OnlineSnapshot { products }
    }

    /// Rebuilds rolling state from a [`snapshot`](OnlineState::snapshot).
    ///
    /// The restored state is observably identical to the captured one:
    /// feeding both the same future epochs produces bit-identical
    /// [`DetectionResult`]s (the crash-replay tests in `rrs-serve` and
    /// the round-trip tests below lock this). `snapshot()` of the
    /// restored state equals the input image.
    #[must_use]
    pub fn restore(snapshot: &OnlineSnapshot) -> Self {
        let mut products = BTreeMap::new();
        for p in &snapshot.products {
            let mut cache = StreamCache {
                start_bits: p.start_bits,
                end_days: f64::from_bits(p.end_bits),
                ..StreamCache::default()
            };
            for (&v, &t) in p.values_bits.iter().zip(&p.times_bits) {
                cache.push(f64::from_bits(v), f64::from_bits(t));
            }
            let state = ProductState {
                cache,
                mc: McState {
                    settled: restore_points(&p.mc.settled),
                    scan_from: p.mc.scan_from as usize,
                },
                harc: restore_arc_band(&p.harc),
                larc: restore_arc_band(&p.larc),
                // HC's sliding sorted multiset is deliberately left
                // empty: `slide_sorted_window` falls back to a from-
                // scratch sort, whose result is bit-identical to the
                // slid one (same multiset, same `total_cmp` order).
                hc: HcWindowState {
                    settled: restore_points(&p.hc.settled),
                    next_start: p.hc.scan_from as usize,
                    sorted: Vec::new(),
                    prev_start: None,
                },
                me: WindowedState {
                    settled: restore_points(&p.me.settled),
                    next_start: p.me.scan_from as usize,
                },
            };
            products.insert(p.product, state);
        }
        OnlineState { products }
    }
}

/// A settled indicator-curve point in snapshot form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurvePointSnapshot {
    /// Rating index the point was computed at.
    pub index: u64,
    /// Bit pattern of the point's time (days).
    pub time_bits: u64,
    /// Bit pattern of the indicator value.
    pub value_bits: u64,
}

/// Settled points plus the scan cursor of one detector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CurveCursorSnapshot {
    /// Points that no future arrival can change.
    pub settled: Vec<CurvePointSnapshot>,
    /// First unsettled index (ratings for MC, window starts for HC/ME).
    pub scan_from: u64,
}

/// One H-ARC/L-ARC band in snapshot form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArcBandSnapshot {
    /// Daily in-band arrival counts over the horizon.
    pub counts: Vec<u32>,
    /// Entries already folded into `counts`.
    pub absorbed: u64,
    /// Bit pattern of the stream median the band was built under.
    pub median_bits: Option<u64>,
    /// Settled curve points and the first unsettled day index.
    pub cursor: CurveCursorSnapshot,
}

/// One product's rolling state in snapshot form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductSnapshot {
    /// The product this slot tracks.
    pub product: ProductId,
    /// Bit patterns of the cached stream values, in arrival order.
    pub values_bits: Vec<u64>,
    /// Bit patterns of the cached stream times, in arrival order.
    pub times_bits: Vec<u64>,
    /// Bit pattern of the horizon start offsets were computed from.
    pub start_bits: u64,
    /// Bit pattern of the last absorbed horizon end (days).
    pub end_bits: u64,
    /// MC settled points and cursor.
    pub mc: CurveCursorSnapshot,
    /// High-band ARC state.
    pub harc: ArcBandSnapshot,
    /// Low-band ARC state.
    pub larc: ArcBandSnapshot,
    /// HC settled points and next window start.
    pub hc: CurveCursorSnapshot,
    /// ME settled points and next window start.
    pub me: CurveCursorSnapshot,
}

/// Self-contained, bit-exact image of an [`OnlineState`], suitable for
/// durable checkpointing (see `rrs-serve`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OnlineSnapshot {
    /// Per-product images, in product order.
    pub products: Vec<ProductSnapshot>,
}

fn snapshot_points(points: &[CurvePoint]) -> Vec<CurvePointSnapshot> {
    points
        .iter()
        .map(|p| CurvePointSnapshot {
            index: p.index as u64,
            time_bits: p.time.to_bits(),
            value_bits: p.value.to_bits(),
        })
        .collect()
}

fn restore_points(points: &[CurvePointSnapshot]) -> Vec<CurvePoint> {
    points
        .iter()
        .map(|p| CurvePoint {
            index: p.index as usize,
            time: f64::from_bits(p.time_bits),
            value: f64::from_bits(p.value_bits),
        })
        .collect()
}

fn snapshot_arc_band(band: &ArcBandState) -> ArcBandSnapshot {
    ArcBandSnapshot {
        counts: band.counts.clone(),
        absorbed: band.absorbed as u64,
        median_bits: band.median_bits,
        cursor: CurveCursorSnapshot {
            settled: snapshot_points(&band.settled),
            scan_from: band.scan_from as u64,
        },
    }
}

fn restore_arc_band(snapshot: &ArcBandSnapshot) -> ArcBandState {
    ArcBandState {
        counts: snapshot.counts.clone(),
        absorbed: snapshot.absorbed as usize,
        median_bits: snapshot.median_bits,
        settled: restore_points(&snapshot.cursor.settled),
        scan_from: snapshot.cursor.scan_from as usize,
    }
}

/// All rolling state for one product.
#[derive(Debug, Default, Clone)]
struct ProductState {
    cache: StreamCache,
    mc: McState,
    harc: ArcBandState,
    larc: ArcBandState,
    hc: HcWindowState,
    me: WindowedState,
}

/// What [`StreamCache::absorb`] did with the epoch's entries.
enum Absorbed {
    /// Entries at and beyond `new_from` were appended to the cache.
    Appended { new_from: usize },
    /// A contract violation (or the first epoch) forced a full rebuild;
    /// every settled structure derived from the cache must be discarded.
    Rebuilt,
}

/// Append-only mirror of one product's stream, maintaining exactly the
/// intermediate vectors the batch detectors build per call: values,
/// times, prefix sums (same fold order), and the `total_cmp`-sorted
/// values that back `stats::median`.
#[derive(Debug, Default, Clone)]
struct StreamCache {
    values: Vec<f64>,
    times: Vec<f64>,
    /// Prefix sums of `values`, length `values.len() + 1` once non-empty.
    prefix: Vec<f64>,
    /// `values` sorted by `total_cmp` — identical to what
    /// `stats::median` produces internally, since equal keys are
    /// bit-identical.
    sorted: Vec<f64>,
    /// Bit pattern of the horizon start all offsets were computed from.
    start_bits: u64,
    /// Horizon end (days) of the last absorb; settled state is only
    /// valid while future arrivals land at or beyond it.
    end_days: f64,
}

impl StreamCache {
    fn absorb(&mut self, timeline: TimelineView<'_>, horizon: TimeWindow) -> Absorbed {
        let start = horizon.start().as_days();
        let end = horizon.end().as_days();
        if !self.consistent_with(timeline, start, end) {
            self.rebuild(timeline, start, end);
            return Absorbed::Rebuilt;
        }
        let new_from = self.values.len();
        for i in new_from..timeline.len() {
            let t = timeline.time_at(i).as_days();
            if t < self.end_days {
                // An arrival below the previous horizon end could land
                // inside windows already settled; start over.
                self.rebuild(timeline, start, end);
                return Absorbed::Rebuilt;
            }
            self.push(timeline.value_at(i), t);
        }
        self.end_days = end;
        Absorbed::Appended { new_from }
    }

    /// O(1) guards over the epoch-loop contract. The tail spot-check
    /// catches a swapped dataset even when lengths happen to line up.
    fn consistent_with(&self, timeline: TimelineView<'_>, start: f64, end: f64) -> bool {
        let n = self.values.len();
        if n == 0 {
            // An empty cache has nothing to protect, but routing the
            // first non-empty epoch through `rebuild` keeps one
            // initialization path.
            return timeline.is_empty();
        }
        timeline.len() >= n
            && start.to_bits() == self.start_bits
            && end >= self.end_days
            && timeline.value_at(n - 1).to_bits() == self.values[n - 1].to_bits()
            && timeline.time_at(n - 1).as_days().to_bits() == self.times[n - 1].to_bits()
    }

    fn rebuild(&mut self, timeline: TimelineView<'_>, start: f64, end: f64) {
        self.values.clear();
        self.times.clear();
        self.prefix.clear();
        self.sorted.clear();
        self.start_bits = start.to_bits();
        for i in 0..timeline.len() {
            self.push(timeline.value_at(i), timeline.time_at(i).as_days());
        }
        self.end_days = end;
    }

    fn push(&mut self, v: f64, t: f64) {
        if self.prefix.is_empty() {
            self.prefix.push(0.0);
        }
        let last = self.prefix[self.prefix.len() - 1];
        self.prefix.push(last + v);
        self.values.push(v);
        self.times.push(t);
        let pos = self.sorted.partition_point(|x| x.total_cmp(&v).is_lt());
        self.sorted.insert(pos, v);
    }

    /// `stats::median` replayed on the maintained sorted vector.
    fn median(&self) -> Option<f64> {
        let v = &self.sorted;
        if v.is_empty() {
            return None;
        }
        let mid = v.len() / 2;
        Some(if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        })
    }
}

/// Settled MC indicator points plus the first unsettled rating index.
#[derive(Debug, Default, Clone)]
struct McState {
    settled: Vec<CurvePoint>,
    scan_from: usize,
}

/// One H-ARC/L-ARC band: incrementally maintained daily counts plus the
/// settled slice of the ARC curve.
#[derive(Debug, Default, Clone)]
struct ArcBandState {
    /// The band's daily counts over the horizon —
    /// `daily_counts_filtered` replayed bitwise, append-only.
    counts: Vec<u32>,
    /// Entries already folded into `counts`.
    absorbed: usize,
    /// Bit pattern of the stream median the band threshold derives from.
    /// The median re-bands *history* when it moves, so any change forces
    /// a rebuild of counts and settled points.
    median_bits: Option<u64>,
    settled: Vec<CurvePoint>,
    scan_from: usize,
}

/// Settled curve points of an index-windowed detector (HC/ME) plus the
/// next window start to evaluate.
#[derive(Debug, Default, Clone)]
struct WindowedState {
    settled: Vec<CurvePoint>,
    next_start: usize,
}

/// HC's windowed state plus a sliding sorted multiset of the most
/// recently evaluated window, so each new window costs O(w)
/// insert/remove instead of an O(w log w) sort.
#[derive(Debug, Default, Clone)]
struct HcWindowState {
    settled: Vec<CurvePoint>,
    next_start: usize,
    /// `values[prev_start..prev_start + w]` in `total_cmp` order.
    sorted: Vec<f64>,
    /// Start index of the window `sorted` currently mirrors.
    prev_start: Option<usize>,
}

/// Incremental MC: settle every point whose right window closed at or
/// before the horizon end, then evaluate only the live tail.
fn mc_online<F>(
    cache: &StreamCache,
    state: &mut McState,
    timeline: TimelineView<'_>,
    horizon_end: f64,
    stream_median: f64,
    config: &McConfig,
    trust: &F,
) -> McOutcome
where
    F: Fn(RaterId) -> f64,
{
    let n = cache.values.len();
    if n == 0 || n < 2 * config.min_half_ratings {
        return McOutcome::default();
    }
    let signal_span = rrs_obs::trace::span("signal.mc");
    // Written `t + h <= E` — the exact freshness condition — rather than
    // the algebraically equal but not bitwise-safe `t <= E - h`.
    let settle_until = cache
        .times
        .partition_point(|&t| t + config.half_window_days <= horizon_end)
        .max(state.scan_from);
    // The window bounds `lo`/`hi` are monotone in `k` (times are sorted,
    // `t_k` is non-decreasing), so two pointers advanced linearly land on
    // exactly the `partition_point` indices the batch path computes —
    // integer-for-integer, hence bit-identical points — at O(n) total
    // comparisons per epoch instead of two binary searches per point.
    let h = config.half_window_days;
    let mut lo = 0usize;
    let mut hi = 0usize;
    let point_at = |k: usize, lo: &mut usize, hi: &mut usize| {
        let t = cache.times[k];
        while *lo < n && cache.times[*lo] < t - h {
            *lo += 1;
        }
        while *hi < n && cache.times[*hi] < t + h {
            *hi += 1;
        }
        mc::indicator_point_with_bounds(&cache.times, &cache.prefix, k, *lo, *hi, config)
    };
    for k in state.scan_from..settle_until {
        if let Some(p) = point_at(k, &mut lo, &mut hi) {
            state.settled.push(p);
        }
    }
    state.scan_from = settle_until;
    let mut points = state.settled.clone();
    for k in settle_until..n {
        if let Some(p) = point_at(k, &mut lo, &mut hi) {
            points.push(p);
        }
    }
    let curve = Curve::new(points);
    let sigma2 = rrs_signal::stats::variance(&cache.values)
        .unwrap_or(0.0)
        .max(1e-6);
    let peak_threshold = config.glrt_gamma * 2.0 * sigma2;
    let peaks = curve.find_peaks(peak_threshold, config.peak_separation);
    let u_shapes = curve.u_shapes_between(&peaks, config.valley_ratio);
    drop(signal_span);
    mc::judge_segments(
        timeline,
        &cache.times,
        &cache.prefix,
        curve,
        peaks,
        u_shapes,
        stream_median,
        config,
        trust,
    )
}

/// Incremental H-ARC/L-ARC: O(1) count appends while the stream median
/// holds its bit pattern, full rebuild when it moves (a moved median
/// re-bands every historical rating), then settle every curve point
/// whose day window is complete.
fn arc_band_online(
    band: &mut ArcBandState,
    cache_rebuilt: bool,
    timeline: TimelineView<'_>,
    horizon: TimeWindow,
    variant: ArcVariant,
    stream_median: f64,
    config: &ArcConfig,
) -> ArcOutcome {
    let signal_span = rrs_obs::trace::span("signal.arc");
    let median_bits = stream_median.to_bits();
    let days = horizon.length().get().ceil() as usize;
    let rebuild = cache_rebuilt
        || band.median_bits != Some(median_bits)
        || band.absorbed > timeline.len()
        || days < band.counts.len();
    if rebuild {
        band.counts = vec![0u32; days];
        band.settled.clear();
        band.scan_from = 0;
        band.absorbed = 0;
        band.median_bits = Some(median_bits);
    } else if days > band.counts.len() {
        band.counts.resize(days, 0);
    }
    // Replays `daily_counts_filtered` bitwise: same thresholds derived
    // from the same median, same in-window restriction, same offset and
    // last-bucket clamp expressions. The clamp never binds for in-window
    // entries (`offset < E − start ≤ days`), so counts appended under an
    // older, shorter `days` are identical to a fresh batch computation.
    let threshold_a = 0.5 * stream_median;
    let threshold_b = 0.5 * stream_median + 0.5;
    for i in band.absorbed..timeline.len() {
        let time = timeline.time_at(i);
        if time < horizon.start() || time >= horizon.end() {
            continue;
        }
        let keep = match variant {
            ArcVariant::All => true,
            ArcVariant::High => timeline.value_at(i) > threshold_a,
            ArcVariant::Low => timeline.value_at(i) < threshold_b,
        };
        if keep {
            let offset = time.as_days() - horizon.start().as_days();
            let idx = (offset.floor() as usize).min(days.saturating_sub(1));
            band.counts[idx] += 1;
        }
    }
    band.absorbed = timeline.len();

    let n = band.counts.len();
    if n < 2 * config.min_half_days {
        drop(signal_span);
        return ArcOutcome::empty(variant);
    }
    let day0 = horizon.start();
    // Prefix sums over the integer counts make each curve evaluation O(1)
    // while staying bit-identical to the slice-based batch point (see
    // `curve_point_from_prefix`). Rebuilt per epoch in O(days) — cheaper
    // than even one windowed GLRT over slices.
    let mut prefix = vec![0u64; n + 1];
    for (i, &c) in band.counts.iter().enumerate() {
        prefix[i + 1] = prefix[i] + u64::from(c);
    }
    // Whole days completed by the horizon: bins below this index are
    // frozen, because future arrivals carry times at or beyond the
    // horizon end and therefore land in bins at or beyond it.
    let complete = (horizon.end().as_days() - horizon.start().as_days()).floor() as usize;
    let mut k = band.scan_from.max(config.min_half_days);
    while k + config.half_window_days.min(k) <= complete && k + config.min_half_days <= n {
        if let Some(p) = arc::curve_point_from_prefix(&prefix, day0, k, config) {
            band.settled.push(p);
        }
        k += 1;
    }
    band.scan_from = k;
    let mut points = band.settled.clone();
    for k in k..=(n - config.min_half_days) {
        if let Some(p) = arc::curve_point_from_prefix(&prefix, day0, k, config) {
            points.push(p);
        }
    }
    let curve = Curve::new(points);
    let peaks = curve.find_peaks(config.glrt_threshold, config.peak_separation);
    let u_shapes = curve.u_shapes_between(&peaks, config.valley_ratio);
    drop(signal_span);
    arc::judge_counts(&band.counts, day0, variant, config, curve, peaks, u_shapes)
}

/// Incremental HC: each window is evaluated exactly once, when it first
/// fits inside the stream, against a sliding sorted multiset of its
/// values (bit-identical to sorting each window from scratch — same
/// multiset, same `total_cmp` order).
fn hc_online(cache: &StreamCache, state: &mut HcWindowState, config: &HcConfig) -> HcOutcome {
    let n = cache.values.len();
    let w = config.window_ratings;
    if n < w || w == 0 {
        return HcOutcome::default();
    }
    let signal_span = rrs_obs::trace::span("signal.hc");
    let step = config.step.max(1);
    while state.next_start + w <= n {
        let s = state.next_start;
        slide_sorted_window(state, &cache.values, s, w, step);
        state.settled.push(hc::window_point_presorted(
            &state.sorted,
            &cache.times,
            s,
            config,
        ));
        state.prev_start = Some(s);
        state.next_start += step;
    }
    let curve = Curve::new(state.settled.clone());
    drop(signal_span);
    let _detect_span = rrs_obs::trace::span("detect.hc");
    let suspicious = hc::suspicious_runs(&curve, &cache.times, config);
    HcOutcome { curve, suspicious }
}

/// Brings `state.sorted` to the multiset of `values[s..s + w]` in
/// `total_cmp` order: slides from the previous window when it overlaps
/// the new one, rebuilds from scratch otherwise (first window, a step
/// at least as wide as the window, or a defensive miss on removal —
/// `total_cmp` equality is bit equality, so every element leaving the
/// window is found at its `partition_point` unless the invariant was
/// broken).
fn slide_sorted_window(state: &mut HcWindowState, values: &[f64], s: usize, w: usize, step: usize) {
    let slid =
        step < w && state.sorted.len() == w && s >= step && state.prev_start == Some(s - step) && {
            let prev = s - step;
            let mut ok = true;
            for &v in &values[prev..s] {
                let idx = state.sorted.partition_point(|x| x.total_cmp(&v).is_lt());
                if idx < state.sorted.len() && state.sorted[idx].to_bits() == v.to_bits() {
                    state.sorted.remove(idx);
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                for &v in &values[prev + w..s + w] {
                    let idx = state.sorted.partition_point(|x| x.total_cmp(&v).is_lt());
                    state.sorted.insert(idx, v);
                }
            }
            ok
        };
    if !slid {
        state.sorted.clear();
        state.sorted.extend_from_slice(&values[s..s + w]);
        state.sorted.sort_by(|a, b| a.total_cmp(b));
    }
}

/// Incremental ME: mirror of [`hc_online`] with a fallible AR fit.
fn me_online(cache: &StreamCache, state: &mut WindowedState, config: &MeConfig) -> MeOutcome {
    let n = cache.values.len();
    let w = config.window_ratings;
    if n < w || w == 0 || config.order == 0 {
        return MeOutcome::default();
    }
    let signal_span = rrs_obs::trace::span("signal.me");
    let step = config.step.max(1);
    while state.next_start + w <= n {
        if let Some(p) = me::window_point(&cache.values, &cache.times, state.next_start, config) {
            state.settled.push(p);
        }
        state.next_start += step;
    }
    let curve = Curve::new(state.settled.clone());
    drop(signal_span);
    let _detect_span = rrs_obs::trace::span("detect.me");
    let suspicious = me::suspicious_runs(&curve, &cache.times, config);
    MeOutcome { curve, suspicious }
}

/// One product's incremental epoch: absorb new arrivals, run the four
/// detectors against rolling state, integrate.
fn detect_product_online<F>(
    detector: &JointDetector,
    timeline: TimelineView<'_>,
    horizon: TimeWindow,
    state: &mut ProductState,
    trust: &F,
) -> DetectionResult
where
    F: Fn(RaterId) -> f64,
{
    let online_span = rrs_obs::trace::span("signal.online");
    let absorbed = state.cache.absorb(timeline, horizon);
    let rebuilt = matches!(absorbed, Absorbed::Rebuilt);
    if rebuilt {
        state.mc = McState::default();
        state.hc = HcWindowState::default();
        state.me = WindowedState::default();
        // The ARC bands rebuild themselves via the flag passed below.
    }
    let new_from = match absorbed {
        Absorbed::Appended { new_from } => new_from,
        Absorbed::Rebuilt => 0,
    };
    let stream_median = state.cache.median().unwrap_or(2.5);
    drop(online_span);
    rrs_obs::metrics::counter_add(
        METRIC_ABSORBED_RATINGS,
        (state.cache.values.len() - new_from) as u64,
    );
    if rebuilt {
        rrs_obs::metrics::counter_add(METRIC_REBUILDS, 1);
    }

    let config = detector.config();
    let enabled = config.enabled;
    let mc_out = if enabled.mc {
        mc_online(
            &state.cache,
            &mut state.mc,
            timeline,
            horizon.end().as_days(),
            stream_median,
            &config.mc,
            trust,
        )
    } else {
        McOutcome::default()
    };
    let (harc_out, larc_out) = if enabled.arc {
        (
            arc_band_online(
                &mut state.harc,
                rebuilt,
                timeline,
                horizon,
                ArcVariant::High,
                stream_median,
                &config.arc,
            ),
            arc_band_online(
                &mut state.larc,
                rebuilt,
                timeline,
                horizon,
                ArcVariant::Low,
                stream_median,
                &config.arc,
            ),
        )
    } else {
        (
            ArcOutcome::empty(ArcVariant::High),
            ArcOutcome::empty(ArcVariant::Low),
        )
    };
    let hc_out = if enabled.hc {
        hc_online(&state.cache, &mut state.hc, &config.hc)
    } else {
        HcOutcome::default()
    };
    let me_out = if enabled.me {
        me_online(&state.cache, &mut state.me, &config.me)
    } else {
        MeOutcome::default()
    };
    integrate_outcomes(
        config,
        timeline,
        mc_out,
        harc_out,
        larc_out,
        hc_out,
        me_out,
        stream_median,
        trust,
    )
}

impl JointDetector {
    /// Incremental variant of [`JointDetector::detect_all`]: identical
    /// output (the oracle property tests below and `rrs-eval`'s
    /// `online_matches_batch` test assert exact equality), but each
    /// epoch's signal stage touches only the ratings that arrived since
    /// the previous call with the same `state`.
    ///
    /// The caller keeps one [`OnlineState`] per evaluation and feeds
    /// growing prefix views of the same dataset, exactly like the
    /// P-scheme epoch loop. Any departure from that contract is detected
    /// by the cache guards and answered with a rebuild — wrong usage
    /// degrades to batch speed, never to wrong results.
    ///
    /// Products are independent; state slots are moved out of the map,
    /// carried through [`rrs_core::par::par_map_owned`] (product order,
    /// so the output is identical at any thread count), and re-inserted.
    pub fn detect_all_online<'a, D, F>(
        &self,
        dataset: D,
        horizon: TimeWindow,
        trust: F,
        state: &mut OnlineState,
    ) -> (BTreeSet<RatingId>, Vec<(ProductId, DetectionResult)>)
    where
        D: Into<DatasetView<'a>>,
        F: Fn(RaterId) -> f64 + Sync,
    {
        let view = dataset.into();
        let trust = &trust;
        let tasks: Vec<(ProductId, TimelineView<'a>, ProductState)> = view
            .products()
            .iter()
            .map(|&(pid, timeline)| {
                (
                    pid,
                    timeline,
                    state.products.remove(&pid).unwrap_or_default(),
                )
            })
            .collect();
        let mut per_product = Vec::with_capacity(tasks.len());
        for (pid, result, product_state) in
            rrs_core::par::par_map_owned(tasks, |_, (pid, timeline, mut product_state)| {
                let result =
                    detect_product_online(self, timeline, horizon, &mut product_state, trust);
                (pid, result, product_state)
            })
        {
            state.products.insert(pid, product_state);
            per_product.push((pid, result));
        }
        let mut all = BTreeSet::new();
        for (_, result) in &per_product {
            all.extend(result.suspicious.iter().copied());
        }
        // Set serially after the parallel map, so the value is
        // thread-count independent.
        rrs_obs::metrics::gauge_set(METRIC_PRODUCTS, state.products.len() as f64);
        (all, per_product)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{
        prop_assert, props, Rating, RatingDataset, RatingSource, RatingValue, Timestamp,
    };

    fn ts(d: f64) -> Timestamp {
        Timestamp::new(d).unwrap()
    }

    /// 90 days of fair ratings at ~4/day over two products.
    fn fair_dataset(seed: u64) -> RatingDataset {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut d = RatingDataset::new();
        let mut rater = 0u32;
        for product in 0..2u16 {
            for day in 0..90 {
                let n = 3 + (rng.gen::<u8>() % 3) as usize;
                for slot in 0..n {
                    d.insert(
                        Rating::new(
                            RaterId::new(rater % 211),
                            ProductId::new(product),
                            ts(f64::from(day) + slot as f64 / n as f64),
                            RatingValue::new_clamped(4.0 + rng.gen_range(-0.8..0.8)),
                        ),
                        RatingSource::Fair,
                    );
                    rater += 1;
                }
            }
        }
        d
    }

    fn add_burst(d: &mut RatingDataset, from: f64, days: usize, per_day: usize, value: f64) {
        let mut rater = 50_000u32;
        for day in 0..days {
            for slot in 0..per_day {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        ts(from + day as f64 + slot as f64 / per_day as f64),
                        RatingValue::new_clamped(value),
                    ),
                    RatingSource::Unfair,
                );
                rater += 1;
            }
        }
    }

    /// Splits a varying trust landscape over the rater ids.
    fn trust_fn(r: RaterId) -> f64 {
        if r.value() >= 50_000 {
            0.2
        } else if r.value().is_multiple_of(3) {
            0.4
        } else {
            0.8
        }
    }

    /// Runs batch and online detection over growing prefixes and asserts
    /// full `DetectionResult` equality at every epoch.
    fn assert_epochs_agree(d: &RatingDataset, ends: &[f64]) {
        let detector = JointDetector::default();
        let mut state = OnlineState::new();
        for &end in ends {
            let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
            let prefix = d.prefix_view(window);
            let (batch_marks, batch_results) = detector.detect_all(&prefix, window, trust_fn);
            let (online_marks, online_results) =
                detector.detect_all_online(&prefix, window, trust_fn, &mut state);
            assert_eq!(batch_marks, online_marks, "marks diverged at end={end}");
            assert_eq!(
                batch_results, online_results,
                "per-product results diverged at end={end}"
            );
        }
    }

    #[test]
    fn fair_epochs_agree_with_batch() {
        let d = fair_dataset(1);
        assert_epochs_agree(&d, &[30.0, 60.0, 90.0]);
    }

    #[test]
    fn attacked_epochs_agree_with_batch() {
        let mut d = fair_dataset(2);
        add_burst(&mut d, 40.0, 12, 5, 0.8);
        assert_epochs_agree(&d, &[30.0, 60.0, 90.0]);
    }

    #[test]
    fn fine_grained_epochs_agree_with_batch() {
        // Many small epochs stress the settle/tail boundary more than the
        // eval loop's three: every fifth day is an epoch end.
        let mut d = fair_dataset(3);
        add_burst(&mut d, 40.0, 12, 6, 0.5);
        let ends: Vec<f64> = (1..=18).map(|i| f64::from(i) * 5.0).collect();
        assert_epochs_agree(&d, &ends);
    }

    #[test]
    fn state_survives_empty_epochs() {
        // Repeating the same horizon adds nothing new; the cache must
        // absorb zero entries and still reproduce the batch result.
        let mut d = fair_dataset(4);
        add_burst(&mut d, 40.0, 12, 5, 0.8);
        assert_epochs_agree(&d, &[60.0, 60.0, 60.0, 90.0]);
    }

    #[test]
    fn contract_violation_heals_via_rebuild() {
        // Feed epochs of dataset A, then switch the same OnlineState to
        // dataset B (different stream, same shape): the tail spot-check
        // must catch the swap and the result must equal B's batch run.
        let mut a = fair_dataset(5);
        add_burst(&mut a, 40.0, 10, 5, 0.6);
        let b = fair_dataset(6);
        let detector = JointDetector::default();
        let mut state = OnlineState::new();
        for &end in &[30.0, 60.0] {
            let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
            let prefix = a.prefix_view(window);
            detector.detect_all_online(&prefix, window, trust_fn, &mut state);
        }
        let window = TimeWindow::new(ts(0.0), ts(90.0)).unwrap();
        let prefix = b.prefix_view(window);
        let (batch_marks, batch_results) = detector.detect_all(&prefix, window, trust_fn);
        let (online_marks, online_results) =
            detector.detect_all_online(&prefix, window, trust_fn, &mut state);
        assert_eq!(batch_marks, online_marks);
        assert_eq!(batch_results, online_results);
    }

    #[test]
    fn shrinking_horizon_heals_via_rebuild() {
        // A horizon that moves backwards violates monotonicity; the
        // guards must rebuild rather than trust over-settled state.
        let mut d = fair_dataset(7);
        add_burst(&mut d, 40.0, 10, 5, 0.6);
        let detector = JointDetector::default();
        let mut state = OnlineState::new();
        for &end in &[90.0, 45.0, 90.0] {
            let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
            let prefix = d.prefix_view(window);
            let (batch_marks, _) = detector.detect_all(&prefix, window, trust_fn);
            let (online_marks, _) =
                detector.detect_all_online(&prefix, window, trust_fn, &mut state);
            assert_eq!(batch_marks, online_marks, "diverged at end={end}");
        }
    }

    #[test]
    fn disabled_detectors_agree_with_batch() {
        let mut d = fair_dataset(8);
        add_burst(&mut d, 40.0, 12, 5, 0.8);
        for ablated in [
            crate::AblatedDetector::MeanChange,
            crate::AblatedDetector::ArrivalRate,
            crate::AblatedDetector::Histogram,
            crate::AblatedDetector::ModelError,
        ] {
            let detector = JointDetector::new(DetectorConfig::default().without(ablated));
            let mut state = OnlineState::new();
            for &end in &[30.0, 60.0, 90.0] {
                let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
                let prefix = d.prefix_view(window);
                let (batch_marks, batch_results) = detector.detect_all(&prefix, window, trust_fn);
                let (online_marks, online_results) =
                    detector.detect_all_online(&prefix, window, trust_fn, &mut state);
                assert_eq!(batch_marks, online_marks, "{ablated:?} diverged");
                assert_eq!(batch_results, online_results, "{ablated:?} diverged");
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips_bit_exactly() {
        let mut d = fair_dataset(10);
        add_burst(&mut d, 40.0, 12, 5, 0.8);
        let detector = JointDetector::default();
        let mut state = OnlineState::new();
        for &end in &[30.0, 60.0] {
            let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
            let prefix = d.prefix_view(window);
            detector.detect_all_online(&prefix, window, trust_fn, &mut state);
        }
        let image = state.snapshot();
        let restored = OnlineState::restore(&image);
        // The image is a fixed point: capture(restore(x)) == x.
        assert_eq!(restored.snapshot(), image);
        assert_eq!(restored.products_tracked(), state.products_tracked());
    }

    #[test]
    fn restored_state_continues_identically() {
        // Epochs continued from a restored state must produce the same
        // bits as epochs continued from the live state — the property
        // crash recovery in rrs-serve stands on.
        let mut d = fair_dataset(11);
        add_burst(&mut d, 40.0, 12, 6, 0.5);
        let detector = JointDetector::default();
        let mut live = OnlineState::new();
        for &end in &[30.0, 60.0] {
            let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
            let prefix = d.prefix_view(window);
            detector.detect_all_online(&prefix, window, trust_fn, &mut live);
        }
        let mut restored = OnlineState::restore(&live.snapshot());
        for &end in &[75.0, 90.0] {
            let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
            let prefix = d.prefix_view(window);
            let (live_marks, live_results) =
                detector.detect_all_online(&prefix, window, trust_fn, &mut live);
            let (rest_marks, rest_results) =
                detector.detect_all_online(&prefix, window, trust_fn, &mut restored);
            assert_eq!(live_marks, rest_marks, "marks diverged at end={end}");
            assert_eq!(live_results, rest_results, "results diverged at end={end}");
        }
        // And the states themselves remain interchangeable afterwards.
        assert_eq!(live.snapshot(), restored.snapshot());
    }

    #[test]
    fn state_tracks_products() {
        let d = fair_dataset(9);
        let detector = JointDetector::default();
        let mut state = OnlineState::new();
        assert_eq!(state.products_tracked(), 0);
        let window = TimeWindow::new(ts(0.0), ts(30.0)).unwrap();
        let prefix = d.prefix_view(window);
        detector.detect_all_online(&prefix, window, trust_fn, &mut state);
        assert_eq!(state.products_tracked(), 2);
    }

    props! {
        #[test]
        fn online_epochs_equal_batch_oracle(
            seed in 0u64..48,
            burst_start in 31.0f64..55.0,
            burst_days in 0usize..12,
            burst_per_day in 3usize..7,
            burst_value in 0.0f64..2.5,
        ) {
            let mut d = fair_dataset(seed);
            if burst_days > 0 {
                add_burst(&mut d, burst_start, burst_days, burst_per_day, burst_value);
            }
            let detector = JointDetector::default();
            let mut state = OnlineState::new();
            for &end in &[30.0, 60.0, 90.0] {
                let window = TimeWindow::new(ts(0.0), ts(end)).unwrap();
                let prefix = d.prefix_view(window);
                let (batch_marks, batch_results) = detector.detect_all(&prefix, window, trust_fn);
                let (online_marks, online_results) =
                    detector.detect_all_online(&prefix, window, trust_fn, &mut state);
                prop_assert!(
                    batch_marks == online_marks,
                    "marks diverged from the batch oracle at end={end}"
                );
                prop_assert!(
                    batch_results == online_results,
                    "per-product results diverged from the batch oracle at end={end}"
                );
            }
        }
    }
}
