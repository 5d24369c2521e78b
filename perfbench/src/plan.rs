//! Inputs and request plans.
//!
//! The feed is `markets` Rating Challenge instances (9 products each)
//! with one seeded `rrs-attack` strategy per market, product and rater
//! ids offset per market, merged in day order. A plan turns the feed
//! into the exact HTTP requests a workload sends, session by session;
//! one session is one TCP connection.

use rrs_attack::strategies::catalog;
use rrs_challenge::{ChallengeConfig, RatingChallenge};
use rrs_core::rng::{derive_seed, RrsRng, SliceRandom, Xoshiro256pp};
use rrs_core::{ProductId, RaterId, RatingSource};
use rrs_serve::RatingSubmission;
use std::collections::BTreeSet;

/// Epoch length in days (the server's default `--period`).
pub const PERIOD_DAYS: f64 = 30.0;
/// Target size of one `ingest` batch body.
const BATCH_BYTES: usize = 2 << 20;
/// Bodies above this size carry `Expect: 100-continue`, as curl 7.88 does.
const EXPECT_THRESHOLD: usize = 1 << 20;
/// Products in one market (the paper's nine TVs).
const PRODUCTS_PER_MARKET: u16 = 9;
/// Rater-id offset between markets; above every id one market uses.
const RATER_STRIDE: u32 = 2_000_000;
/// Ratings in one `mixed` `POST /ratings`.
const MIXED_POST_RATINGS: usize = 20;
/// Raters whose trust the `ingest` read-back sweep queries.
const READBACK_RATERS: usize = 200;
/// Times the `ingest` read-back sweep reads each dump: enough that the
/// slower first dumps of a server process do not set the median.
const READBACK_DUMPS: usize = 15;
/// Markets in the feed: each 30-day period then carries ~1.4 MiB of
/// JSONL, so every `ingest` batch is above curl's Expect threshold.
const MARKETS: usize = 20;
/// Sessions in one `mixed` cycle.
const MIXED_SESSIONS: usize = 30;
/// Mean keep-alive requests per `mixed` session.
const MEAN_SESSION: f64 = 4.0;
/// Zipf exponent of `mixed` product popularity.
const ZIPF_S: f64 = 1.0;
/// The `mixed` request mix; score queries take the rest (64%). Dumps
/// are 7%, not 1%, so that a run holds at least twenty of each route
/// and their medians hold steady from run to run.
const TRUST_SHARE: f64 = 0.20;
const POST_SHARE: f64 = 0.09;
const DUMP_SHARE: f64 = 0.07;

/// The served routes, as the metrics name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `POST /ratings`
    Ratings,
    /// `POST /epochs`
    Epochs,
    /// `GET /products/{id}/score`
    Score,
    /// `GET /raters/{id}/trust`
    Trust,
    /// `GET /trust`
    TrustDump,
    /// `GET /suspicious`
    Suspicious,
    /// `GET /healthz`
    Healthz,
    /// `POST /shutdown`
    Shutdown,
}

impl Route {
    pub const ALL: [Route; 8] = [
        Route::Ratings,
        Route::Epochs,
        Route::Score,
        Route::Trust,
        Route::TrustDump,
        Route::Suspicious,
        Route::Healthz,
        Route::Shutdown,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Ratings => "ratings",
            Route::Epochs => "epochs",
            Route::Score => "score",
            Route::Trust => "trust",
            Route::TrustDump => "trust_dump",
            Route::Suspicious => "suspicious",
            Route::Healthz => "healthz",
            Route::Shutdown => "shutdown",
        }
    }
}

/// One HTTP request, as bytes on the wire.
#[derive(Debug, Clone)]
pub struct Req {
    pub route: Route,
    /// Request line and headers, through the blank line.
    pub head: Vec<u8>,
    pub body: Vec<u8>,
    /// Ratings the body carries.
    pub ratings: usize,
    /// Whether the head carries `Expect: 100-continue`.
    pub expect: bool,
}

impl Req {
    fn get(route: Route, path: &str) -> Req {
        Req {
            route,
            head: format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: */*\r\n\r\n")
                .into_bytes(),
            body: Vec::new(),
            ratings: 0,
            expect: false,
        }
    }

    fn post(route: Route, path: &str, body: Vec<u8>, ratings: usize) -> Req {
        let expect = body.len() > EXPECT_THRESHOLD;
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: */*\r\n\
             Content-Type: application/x-ndjson\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if expect {
                "Expect: 100-continue\r\n"
            } else {
                ""
            },
        );
        Req {
            route,
            head: head.into_bytes(),
            body,
            ratings,
            expect,
        }
    }

    /// The whole request, head and body.
    pub fn bytes(&self) -> Vec<u8> {
        [self.head.as_slice(), self.body.as_slice()].concat()
    }

    pub fn healthz() -> Req {
        Req::get(Route::Healthz, "/healthz")
    }

    pub fn trust_dump() -> Req {
        Req::get(Route::TrustDump, "/trust")
    }

    pub fn suspicious() -> Req {
        Req::get(Route::Suspicious, "/suspicious")
    }

    pub fn shutdown() -> Req {
        Req::post(Route::Shutdown, "/shutdown", Vec::new(), 0)
    }

    fn epoch() -> Req {
        Req::post(Route::Epochs, "/epochs", Vec::new(), 0)
    }

    fn ratings(batch: &[RatingSubmission]) -> Req {
        Req::post(Route::Ratings, "/ratings", jsonl(batch), batch.len())
    }
}

/// The JSONL body of a batch.
pub fn jsonl(batch: &[RatingSubmission]) -> Vec<u8> {
    let mut body = String::new();
    for s in batch {
        body.push_str(&s.to_jsonl());
        body.push('\n');
    }
    body.into_bytes()
}

/// The merged multi-market rating feed.
#[derive(Debug)]
pub struct Feed {
    pub markets: usize,
    /// Every rating, in day order.
    pub ratings: Vec<RatingSubmission>,
    pub horizon_days: f64,
}

impl Feed {
    pub fn generate(seed: u64) -> Feed {
        let config = ChallengeConfig::paper();
        let strategies = catalog();
        // Market m attacks with catalogue entry m mod len, shuffled by the
        // seed: every seed uses the same multiset of strategies.
        let mut order: Vec<usize> = (0..MARKETS).map(|m| m % strategies.len()).collect();
        order.shuffle(&mut Xoshiro256pp::seed_from_u64(derive_seed(seed, 102)));
        // (day, market, index within market, submission)
        let mut keyed: Vec<(f64, usize, usize, RatingSubmission)> = Vec::new();
        let mut horizon_days = 0.0f64;
        for market in 0..MARKETS {
            let market_seed = derive_seed(seed, market as u64);
            let challenge = RatingChallenge::generate(&config, market_seed);
            horizon_days = horizon_days.max(challenge.horizon().end().as_days());
            let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(market_seed, 1));
            let strategy = strategies[order[market]];
            let attack = strategy.build(&challenge.attack_context(), &mut rng);
            let fair = challenge
                .fair_dataset()
                .iter()
                .map(|e| (*e.rating(), RatingSource::Fair));
            let unfair = attack.ratings.iter().map(|r| (*r, RatingSource::Unfair));
            for (index, (rating, source)) in fair.chain(unfair).enumerate() {
                let submission = RatingSubmission {
                    rater: RaterId::new(rating.rater().value() + market as u32 * RATER_STRIDE),
                    product: ProductId::new(
                        rating.product().value() + market as u16 * PRODUCTS_PER_MARKET,
                    ),
                    day: rating.time(),
                    value: rating.value(),
                    source,
                };
                keyed.push((rating.time().as_days(), market, index, submission));
            }
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        Feed {
            markets: MARKETS,
            ratings: keyed.into_iter().map(|k| k.3).collect(),
            horizon_days,
        }
    }

    /// Index of the first rating on or after `day`.
    fn first_at(&self, day: f64) -> usize {
        self.ratings.partition_point(|s| s.day.as_days() < day)
    }

    fn periods(&self) -> usize {
        (self.horizon_days / PERIOD_DAYS).ceil() as usize
    }
}

/// One durable step of a prebuilt history.
#[derive(Debug, Clone)]
pub enum Event {
    Batch(Vec<RatingSubmission>),
    Epoch,
}

/// A prebuilt serving directory's contents, as the events that made it.
#[derive(Debug, Clone, Default)]
pub struct History {
    pub events: Vec<Event>,
    /// The checkpoint is written right after this many epochs.
    pub checkpoint_after: Option<u64>,
}

impl History {
    pub fn ratings(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                Event::Batch(b) => b.len(),
                Event::Epoch => 0,
            })
            .sum()
    }

    pub fn epochs(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Epoch))
            .count() as u64
    }
}

/// Everything one workload cycle sends.
#[derive(Debug)]
pub struct Plan {
    pub workload: &'static str,
    /// What the serving directory holds before the server starts.
    pub history: History,
    /// The timed traffic: each inner list is one connection.
    pub sessions: Vec<Vec<Req>>,
    /// The end-state check, one request per connection, untimed.
    pub check: Vec<Req>,
}

impl Plan {
    pub fn requests(&self) -> impl Iterator<Item = &Req> {
        self.sessions.iter().flatten()
    }

    pub fn count(&self, route: Route) -> usize {
        self.requests().filter(|r| r.route == route).count()
    }

    pub fn posted_ratings(&self) -> usize {
        self.requests().map(|r| r.ratings).sum()
    }

    fn end_state_check() -> Vec<Req> {
        vec![Req::healthz(), Req::trust_dump(), Req::suspicious()]
    }
}

/// `ingest`: the whole feed as ~2 MiB batches from an empty directory,
/// an epoch at each 30-day boundary, then a read-back sweep.
pub fn ingest(feed: &Feed, seed: u64) -> Plan {
    let mut sessions = Vec::new();
    for period in 0..feed.periods() {
        let lo = feed.first_at(period as f64 * PERIOD_DAYS);
        let hi = feed.first_at((period + 1) as f64 * PERIOD_DAYS);
        for batch in split_by_bytes(&feed.ratings[lo..hi], BATCH_BYTES) {
            sessions.push(vec![Req::ratings(batch)]);
        }
        sessions.push(vec![Req::epoch()]);
    }
    // The read-back sweep an operator runs after an import: every
    // product's score, a sample of trust records, and both dumps, each
    // on its own connection.
    let products: BTreeSet<u16> = feed.ratings.iter().map(|s| s.product.value()).collect();
    for product in products {
        sessions.push(vec![Req::get(
            Route::Score,
            &format!("/products/{product}/score"),
        )]);
    }
    let mut raters: Vec<u32> = feed
        .ratings
        .iter()
        .map(|s| s.rater.value())
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 101));
    raters.shuffle(&mut rng);
    for rater in raters.iter().take(READBACK_RATERS) {
        sessions.push(vec![Req::get(
            Route::Trust,
            &format!("/raters/{rater}/trust"),
        )]);
    }
    // Each dump several times: a run then holds enough dump samples
    // for a steady median.
    for _ in 0..READBACK_DUMPS {
        sessions.push(vec![Req::trust_dump()]);
        sessions.push(vec![Req::suspicious()]);
    }
    Plan {
        workload: "ingest",
        history: History::default(),
        sessions,
        check: Plan::end_state_check(),
    }
}

/// Splits `ratings` into the fewest near-equal batches whose JSONL
/// bodies stay within `max_bytes`.
fn split_by_bytes(ratings: &[RatingSubmission], max_bytes: usize) -> Vec<&[RatingSubmission]> {
    let sizes: Vec<usize> = ratings.iter().map(|s| s.to_jsonl().len() + 1).collect();
    let total: usize = sizes.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let batches = total.div_ceil(max_bytes);
    let mut out = Vec::with_capacity(batches);
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, size) in sizes.iter().enumerate() {
        acc += size;
        let target = total * (out.len() + 1) / batches;
        if acc >= target && out.len() + 1 < batches {
            out.push(&ratings[start..=i]);
            start = i + 1;
        }
    }
    out.push(&ratings[start..]);
    out
}

/// The `mixed` request kinds before they are bound to ratings.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Score,
    Trust,
    Post,
    TrustDump,
    Suspicious,
}

/// `n` request kinds in the exact `mixed` proportions, shuffled. Dumps
/// alternate between the two routes, starting with `lead`.
fn mix(n: usize, lead: Slot, rng: &mut Xoshiro256pp) -> Vec<Slot> {
    let share = |f: f64| (f * n as f64).round() as usize;
    let other = match lead {
        Slot::TrustDump => Slot::Suspicious,
        _ => Slot::TrustDump,
    };
    let dumps = (0..share(DUMP_SHARE).max(1)).map(|i| if i % 2 == 0 { lead } else { other });
    let mut kinds: Vec<Slot> = std::iter::repeat_n(Slot::Trust, share(TRUST_SHARE))
        .chain(std::iter::repeat_n(Slot::Post, share(POST_SHARE)))
        .chain(dumps)
        .collect();
    kinds.resize(n, Slot::Score);
    kinds.shuffle(rng);
    kinds
}

/// `mixed`: seeded keep-alive sessions over a prebuilt history that
/// ends shortly before the 5/6 boundary, so the cycle's posts cross it.
pub fn mixed(feed: &Feed, seed: u64) -> Plan {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 100));
    // Geometric session lengths on {1, 2, ...} with the given mean,
    // drawn at stratified quantiles and shuffled: every seed gets the
    // same lengths in a different order.
    let p = 1.0 / MEAN_SESSION;
    let mut lengths: Vec<usize> = (0..MIXED_SESSIONS)
        .map(|i| {
            let u = (i as f64 + 0.5) / MIXED_SESSIONS as f64;
            ((1.0 - u).ln() / (1.0 - p).ln()).ceil().max(1.0) as usize
        })
        .collect();
    lengths.shuffle(&mut rng);
    // The mix is exact per cycle, separately for the first request of a
    // session and for the later ones, so every seed puts the same
    // number of each kind behind the keep-alive stall. The two pools
    // lead with different dumps, so the cycle's dumps split evenly
    // between the routes (two first-position dumps, six later).
    let first: Vec<Slot> = mix(MIXED_SESSIONS, Slot::TrustDump, &mut rng);
    let later_n = lengths.iter().sum::<usize>() - MIXED_SESSIONS;
    let later: Vec<Slot> = mix(later_n, Slot::Suspicious, &mut rng);
    let (mut first, mut later) = (first.into_iter(), later.into_iter());
    let skeleton: Vec<Vec<Slot>> = lengths
        .iter()
        .map(|&len| {
            first
                .next()
                .into_iter()
                .chain(later.by_ref().take(len - 1))
                .collect()
        })
        .collect();
    let posts = skeleton
        .iter()
        .flatten()
        .filter(|s| matches!(s, Slot::Post))
        .count();

    // The history stops a third of the cycle's posts short of the last
    // boundary before the horizon's end, so every cycle crosses it once.
    let periods = feed.periods();
    let mut boundary = (periods - 1) as f64 * PERIOD_DAYS;
    let at_boundary = feed.first_at(boundary);
    let cut = at_boundary.saturating_sub(posts * MIXED_POST_RATINGS / 3);
    let history = history_of(&feed.ratings[..cut]);

    // Zipf popularity over a seeded ranking of the history's products.
    let mut products: Vec<u16> = feed.ratings[..cut]
        .iter()
        .map(|s| s.product.value())
        .collect::<BTreeSet<u16>>()
        .into_iter()
        .collect();
    products.shuffle(&mut rng);
    let mut cdf = Vec::with_capacity(products.len());
    let mut acc = 0.0;
    for rank in 0..products.len() {
        acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let raters: Vec<u32> = feed.ratings[..cut]
        .iter()
        .map(|s| s.rater.value())
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();

    let mut next = cut;
    let mut sessions = Vec::with_capacity(skeleton.len());
    for slots in skeleton {
        let mut session = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                Slot::Score => {
                    let u = rng.gen::<f64>() * acc;
                    let rank = cdf.partition_point(|&c| c < u).min(products.len() - 1);
                    session.push(Req::get(
                        Route::Score,
                        &format!("/products/{}/score", products[rank]),
                    ));
                }
                Slot::Trust => {
                    let rater = raters[rng.gen_range(0..raters.len())];
                    session.push(Req::get(Route::Trust, &format!("/raters/{rater}/trust")));
                }
                Slot::Post => {
                    if next < feed.ratings.len() && feed.ratings[next].day.as_days() >= boundary {
                        // The epoch is an operator's request on its own
                        // connection; the client's session resumes after it.
                        if !session.is_empty() {
                            sessions.push(std::mem::take(&mut session));
                        }
                        sessions.push(vec![Req::epoch()]);
                        boundary += PERIOD_DAYS;
                    }
                    let end = (next + MIXED_POST_RATINGS).min(feed.ratings.len());
                    let end = next
                        + feed.ratings[next..end].partition_point(|s| s.day.as_days() < boundary);
                    if end > next {
                        session.push(Req::ratings(&feed.ratings[next..end]));
                        next = end;
                    }
                }
                Slot::TrustDump => session.push(Req::trust_dump()),
                Slot::Suspicious => session.push(Req::suspicious()),
            }
        }
        if !session.is_empty() {
            sessions.push(session);
        }
    }
    Plan {
        workload: "mixed",
        history,
        sessions,
        check: Plan::end_state_check(),
    }
}

/// A history built from a feed prefix: one batch per period, an epoch
/// at each boundary the prefix crosses, the checkpoint two epochs back.
pub fn history_of(ratings: &[RatingSubmission]) -> History {
    let mut events = Vec::new();
    let mut start = 0usize;
    let mut boundary = PERIOD_DAYS;
    loop {
        let end = start + ratings[start..].partition_point(|s| s.day.as_days() < boundary);
        if end > start {
            events.push(Event::Batch(ratings[start..end].to_vec()));
        }
        if end == ratings.len() {
            break;
        }
        events.push(Event::Epoch);
        start = end;
        boundary += PERIOD_DAYS;
    }
    let mut history = History {
        events,
        checkpoint_after: None,
    };
    history.checkpoint_after = history.epochs().checked_sub(2).filter(|&e| e > 0);
    history
}
