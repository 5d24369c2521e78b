//! The traced run: per-layer attribution without sockets.
//!
//! The workload's exact request stream is replayed in process three
//! ways at once, request by request:
//!
//! * through [`Server::handle`] over an in-memory stream (the whole
//!   served path minus the network), on a directory recovered the way
//!   the binary recovers it;
//! * through the public layer calls the handler makes (`read_request`,
//!   `parse_submission_body`, `Engine::*`, `Response::write_to`) on a
//!   second engine in the same state;
//! * through a replica built only from lower-layer public calls
//!   (`RatingDataset::insert`/`prefix_view`, `detect_all_online`,
//!   `TrustManager::update_epoch`, `filter_ratings`,
//!   `weighted_aggregate`), which must reproduce the engine's
//!   suspicion set, trust table and scores bit for bit.
//!
//! Every timer is the benchmark's own, around one call.

use crate::client::{body_of, copy_dir, final_response, fresh_dir};
use crate::memserve::{self, MemStream};
use crate::plan::{self, Event, Feed, History, Plan, Req, Route};
use crate::socket::SocketRun;
use crate::stats::{median, Metric};
use rrs_aggregation::filter::filter_ratings;
use rrs_aggregation::weighted_aggregate;
use rrs_core::{ProductId, RaterId, RatingDataset, RatingId, TimeWindow, Timestamp};
use rrs_detectors::{JointDetector, OnlineState};
use rrs_serve::checkpoint::{read_checkpoint, write_checkpoint};
use rrs_serve::http::{read_request, Parsed};
use rrs_serve::wal::{read_wal, WalEvent, WalWriter};
use rrs_serve::{parse_submission_body, Engine, EngineConfig, Response, Server};
use rrs_trust::TrustManager;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Cursor, Write};
use std::path::Path;
use std::time::Instant;

/// The routes reported per route (healthz only serves the check).
fn reported_routes() -> impl Iterator<Item = Route> {
    Route::ALL.into_iter().filter(|&r| r != Route::Healthz)
}

pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    /// Replica/engine disagreements and failed in-process requests.
    pub mismatches: u64,
}

/// A writer that counts `write` calls.
#[derive(Default)]
struct CountingWriter {
    writes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The P-scheme epoch loop rebuilt from lower-layer public calls.
struct Replica {
    config: EngineConfig,
    detector: JointDetector,
    dataset: RatingDataset,
    trust: TrustManager,
    online: OnlineState,
    marks: BTreeSet<RatingId>,
    epochs: u64,
}

/// Seconds per timed call, per layer key.
#[derive(Default)]
struct Timers {
    calls: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Timers {
    fn time<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.calls.entry(key.to_string()).or_default().push(secs);
        (out, secs)
    }

    fn add(&mut self, key: &'static str, n: f64) {
        *self.counts.entry(key).or_default() += n;
    }

    fn total(&self, key: &str) -> f64 {
        self.calls.get(key).map_or(0.0, |v| v.iter().sum())
    }

    fn p50(&self, key: &str) -> f64 {
        self.calls
            .get(key)
            .and_then(|v| median(v))
            .unwrap_or(f64::NAN)
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }
}

impl Replica {
    fn new(config: EngineConfig) -> Replica {
        Replica {
            config,
            detector: JointDetector::new(config.detectors),
            dataset: RatingDataset::new(),
            trust: TrustManager::new(),
            online: OnlineState::new(),
            marks: BTreeSet::new(),
            epochs: 0,
        }
    }

    fn insert(&mut self, batch: &[rrs_serve::RatingSubmission], t: &mut Timers) {
        let dataset = &mut self.dataset;
        t.time("store.insert", || {
            for s in batch {
                dataset.insert(s.rating(), s.source);
            }
        });
        t.add("store.inserted", batch.len() as f64);
        t.add("detectors.new_ratings", batch.len() as f64);
    }

    /// One epoch: `prefix_view`, then `detect_all_online`, then
    /// `update_epoch` — the engine's step, from public calls.
    fn epoch(&mut self, t: &mut Timers) {
        let index = self.epochs as f64;
        let period = TimeWindow::ordered(
            Timestamp::saturating(index * self.config.period_days),
            Timestamp::saturating((index + 1.0) * self.config.period_days),
        );
        let window = TimeWindow::ordered(Timestamp::ZERO, period.end());
        let dataset = &self.dataset;
        let (prefix, _) = t.time("store.prefix_view", || dataset.prefix_view(window));
        let snapshot = self.trust.snapshot();
        let trust_fn = |r: RaterId| snapshot.get(&r).copied().unwrap_or(0.5);
        let (detector, online) = (&self.detector, &mut self.online);
        let ((marks, _), _) = t.time("detectors.online", || {
            detector.detect_all_online(&prefix, window, trust_fn, online)
        });
        if let Some(factor) = self.config.trust_discount {
            self.trust.discount_all(factor);
        }
        let trust = &mut self.trust;
        t.time("trust.update_epoch", || {
            trust.update_epoch(&prefix, period, &marks)
        });
        self.marks = marks;
        self.epochs += 1;
    }

    /// The product score, from the store slice, the filter and the
    /// weighted aggregate (with the engine's raw-slice fallback).
    fn score(&self, product: ProductId, t: &mut Timers) -> Option<Option<f64>> {
        let window = TimeWindow::ordered(
            Timestamp::ZERO,
            Timestamp::saturating(self.epochs as f64 * self.config.period_days),
        );
        let (slice, _) = t.time("store.in_window", || {
            self.dataset.product(product).map(|tl| tl.in_window(window))
        });
        let slice = slice?;
        if self.epochs == 0 || slice.is_empty() {
            return Some(None);
        }
        let trust = &self.trust;
        let threshold = self.config.filter_trust_threshold;
        let (kept, _) = t.time("aggregation.filter", || {
            filter_ratings(slice, &self.marks, |r| trust.trust_of(r), threshold)
        });
        let pairs: Vec<(f64, f64)> = kept
            .iter()
            .map(|e| (e.value(), trust.trust_of(e.rater())))
            .collect();
        let (score, _) = t.time("aggregation.weighted", || weighted_aggregate(&pairs));
        Some(score.or_else(|| {
            let pairs: Vec<(f64, f64)> = slice
                .iter()
                .map(|e| (e.value(), trust.trust_of(e.rater())))
                .collect();
            weighted_aggregate(&pairs)
        }))
    }

    /// Bit-level disagreements with the engine's marks and trust table.
    fn mismatches(&self, engine: &Engine) -> u64 {
        let mut bad = u64::from(&self.marks != engine.suspicious());
        let table = engine.trust_table();
        let records: Vec<_> = self.trust.records().collect();
        if table.len() != records.len() {
            return bad + 1;
        }
        for (view, (rater, record)) in table.iter().zip(records) {
            if view.rater != rater
                || view.successes.to_bits() != record.successes().to_bits()
                || view.failures.to_bits() != record.failures().to_bits()
            {
                bad += 1;
            }
        }
        bad
    }
}

/// The id in `/products/{id}/score` or `/raters/{id}/trust`.
fn path_id(req: &Req) -> u64 {
    let head = String::from_utf8_lossy(&req.head);
    head.split(' ')
        .nth(1)
        .and_then(|path| path.split('/').nth(2))
        .and_then(|id| id.parse().ok())
        .unwrap_or(u64::MAX)
}

/// 1 when the engine's durable WAL grew past `before`: one WAL commit,
/// which the shipped `WalWriter::append_batch` fsyncs once.
fn commits(before: u64, engine: &Engine) -> f64 {
    f64::from(u8::from(engine.wal_events() > before))
}

/// Recovery cost of a crash-built directory holding `history`.
struct OpenCost {
    ratings: usize,
    wal_events: usize,
    open_s: f64,
    wal_read_s: f64,
    checkpoint_read_s: f64,
}

fn open_cost(history: &History, dir: &Path) -> std::io::Result<OpenCost> {
    fresh_dir(dir.to_path_buf())?;
    drop(memserve::build(history, dir, true)?);
    let mut opens = Vec::new();
    let mut wal_reads = Vec::new();
    let mut checkpoint_reads = Vec::new();
    let mut wal_events = 0;
    // Median of three; opening a crash-built directory leaves it as it was.
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(read_checkpoint(dir)?);
        checkpoint_reads.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        wal_events = std::hint::black_box(read_wal(dir)?).events.len();
        wal_reads.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        drop(std::hint::black_box(Engine::open(dir, memserve::config())?));
        opens.push(start.elapsed().as_secs_f64());
    }
    std::fs::remove_dir_all(dir)?;
    Ok(OpenCost {
        ratings: history.ratings(),
        wal_events,
        open_s: median(&opens).unwrap_or(f64::NAN),
        wal_read_s: median(&wal_reads).unwrap_or(f64::NAN),
        checkpoint_read_s: median(&checkpoint_reads).unwrap_or(f64::NAN),
    })
}

pub fn run(
    plan: &Plan,
    feed: &Feed,
    seed: u64,
    history_dir: Option<&Path>,
    work: &Path,
    socket: &SocketRun,
) -> std::io::Result<LayerReport> {
    // The binary enables the metrics registry; so does the replay.
    rrs_obs::enable();
    let config = memserve::config();
    let mut t = Timers::default();
    let mut lines = Vec::new();
    let mut mismatches = 0u64;

    // Server A recovers like the binary; engine B and the replica start
    // from the same history.
    let dir_a = work.join("trace-a");
    let dir_b = work.join("trace-b");
    let dir_c = fresh_dir(work.join("trace-c"))?;
    match history_dir {
        Some(src) => {
            copy_dir(src, &dir_a)?;
            copy_dir(src, &dir_b)?;
        }
        None => {
            fresh_dir(dir_a.clone())?;
            fresh_dir(dir_b.clone())?;
        }
    }
    let (engine_a, open_s) = t.time("engine.open_start", || Engine::open(&dir_a, config));
    let mut server = Server::new(engine_a?);
    let mut engine = Engine::open(&dir_b, config)?;
    let mut replica = Replica::new(config);
    let mut scratch = Timers::default();
    for event in &plan.history.events {
        match event {
            Event::Batch(batch) => replica.insert(batch, &mut scratch),
            Event::Epoch => replica.epoch(&mut scratch),
        }
    }
    mismatches += replica.mismatches(&engine);
    let mut wal = WalWriter::open(&dir_c, 0)?;

    let shutdown = Req::shutdown();
    let traffic = plan.requests().count();
    let stream = plan
        .requests()
        .chain(&plan.check)
        .chain(std::iter::once(&shutdown));
    // Per route: (handle seconds, covered seconds) for each traffic request.
    let mut handled: BTreeMap<Route, Vec<(f64, f64)>> = BTreeMap::new();
    let mut scored_pairs: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut epoch_curve = Vec::new();
    let mut body_bytes = 0usize;
    let mut body_read_s = 0.0;
    for (index, req) in stream.enumerate() {
        let bytes = req.bytes();
        let (parsed, read_s) = t.time(&format!("http.read.{}", req.route.name()), || {
            read_request(&mut BufReader::new(Cursor::new(bytes.as_slice())))
        });
        if req.route == Route::Ratings {
            body_bytes += req.body.len();
            body_read_s += read_s;
        }
        if !matches!(parsed, Ok(Parsed::Request(_))) {
            mismatches += 1;
        }

        let mut mem = MemStream::new(bytes);
        let handle_key = format!("server.handle.{}", req.route.name());
        let (_, handle_s) = t.time(&handle_key, || server.handle(&mut mem));
        let output = final_response(&mem.output);
        let body = body_of(output).to_vec();
        if !output.starts_with(b"HTTP/1.1 200 ") {
            mismatches += 1;
        }

        let layer_s = match req.route {
            Route::Ratings => {
                let text = String::from_utf8_lossy(&req.body).into_owned();
                let (batch, parse_s) = t.time("dto.parse", || parse_submission_body(&text));
                let batch = batch.unwrap_or_default();
                t.add("dto.parsed", batch.len() as f64);
                let events: Vec<WalEvent> = batch.iter().map(|s| WalEvent::Rating(*s)).collect();
                t.time("wal.encode", || {
                    for event in &events {
                        std::hint::black_box(event.to_jsonl());
                    }
                });
                t.add("wal.encoded", events.len() as f64);
                t.time("wal.append_batch", || wal.append_batch(&events)).0?;
                let durable = engine.wal_events();
                let (ids, submit_s) = t.time("engine.submit", || engine.submit(&batch));
                ids?;
                t.add("wal.fsyncs", commits(durable, &engine));
                t.add("engine.submitted", batch.len() as f64);
                replica.insert(&batch, &mut t);
                parse_s + submit_s
            }
            Route::Epochs => {
                let prefix = engine.ratings();
                let new = t.count("detectors.new_ratings");
                let durable = engine.wal_events();
                let (done, epoch_s) = t.time("engine.epoch", || engine.advance_epoch());
                done?;
                t.add("wal.fsyncs", commits(durable, &engine));
                t.time("wal.append_batch", || wal.append_batch(&[WalEvent::Epoch]))
                    .0?;
                let before = t.total("detectors.online");
                replica.epoch(&mut t);
                let online_s = t.total("detectors.online") - before;
                t.add("detectors.per_rating_s", online_s);
                t.add("detectors.rated", new);
                t.counts.insert("detectors.new_ratings", 0.0);
                mismatches += replica.mismatches(&engine);
                epoch_curve.push((engine.epochs(), prefix, epoch_s, online_s));
                epoch_s
            }
            Route::Score => {
                let product = ProductId::new(u16::try_from(path_id(req)).unwrap_or(u16::MAX));
                scored_pairs.insert((u64::from(product.value()), engine.epochs()));
                let (report, score_s) = t.time("engine.score_of", || engine.score_of(product));
                let ours = replica.score(product, &mut t);
                let theirs = report.map(|r| r.score);
                if ours.map(|s| s.map(f64::to_bits)) != theirs.map(|s| s.map(f64::to_bits)) {
                    mismatches += 1;
                }
                score_s
            }
            Route::Trust => {
                let rater = RaterId::new(u32::try_from(path_id(req)).unwrap_or(u32::MAX));
                t.time("engine.trust_record", || engine.trust_record(rater))
                    .1
            }
            Route::TrustDump => t.time("engine.trust_table", || engine.trust_table()).1,
            Route::Suspicious => {
                let (details, s) =
                    t.time("engine.suspicious_details", || engine.suspicious_details());
                t.add("engine.suspicious_scanned", engine.ratings() as f64);
                t.add("engine.suspicious_returned", details.len() as f64);
                s
            }
            Route::Healthz => 0.0,
            Route::Shutdown => {
                let (done, s) = t.time("engine.checkpoint", || engine.checkpoint());
                done?;
                s
            }
        };

        let response = Response::json(String::from_utf8_lossy(&body).into_owned());
        let mut sink = CountingWriter::default();
        let (written, write_s) = t.time("http.write_to", || response.write_to(&mut sink));
        written?;
        t.add("http.writes", sink.writes as f64);
        t.add("http.responses", 1.0);
        if index < traffic || req.route == Route::Shutdown {
            handled
                .entry(req.route)
                .or_default()
                .push((handle_s, read_s + layer_s + write_s));
        }
    }
    mismatches += replica.mismatches(&engine);
    drop(server);

    // Checkpoint codec on the final state.
    let checkpoint = read_checkpoint(&dir_b)?.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "no checkpoint after shutdown")
    })?;
    let (encoded, _) = t.time("checkpoint.encode", || checkpoint.to_jsonl());
    drop(encoded);
    t.time("checkpoint.write", || write_checkpoint(&dir_c, &checkpoint))
        .0?;

    // Recovery against history length: ¼, ½ and all of the mixed history.
    let full = if plan.workload == "mixed" {
        plan.history.ratings()
    } else {
        plan::mixed(feed, seed).history.ratings()
    };
    let mut curve = Vec::new();
    for (label, ratings) in [("quarter", full / 4), ("half", full / 2), ("full", full)] {
        let history = plan::history_of(&feed.ratings[..ratings]);
        curve.push((label, open_cost(&history, &work.join("trace-curve"))?));
    }
    lines.push("recovery curve (Engine::open on a crash-built mixed history):".to_string());
    for (label, c) in &curve {
        lines.push(format!(
            "  {label:<8} ratings={:>7} wal_events={:>7} open={:>9.3} ms wal_read={:>8.3} ms checkpoint_read={:>7.3} ms",
            c.ratings,
            c.wal_events,
            c.open_s * 1e3,
            c.wal_read_s * 1e3,
            c.checkpoint_read_s * 1e3
        ));
    }
    lines.push("epoch curve (Engine::advance_epoch against prefix length):".to_string());
    for (epoch, prefix, total_s, online_s) in &epoch_curve {
        lines.push(format!(
            "  epoch {epoch:>2} prefix={prefix:>7} ratings epoch={:>9.3} ms detectors={:>9.3} ms",
            total_s * 1e3,
            online_s * 1e3
        ));
    }

    let mut m = Vec::new();
    let us = 1e6;
    let ms = 1e3;
    let ns = 1e9;
    for route in reported_routes() {
        m.push(Metric::new(
            format!("http.read_request_us.{}", route.name()),
            t.p50(&format!("http.read.{}", route.name())) * us,
            "us",
            "p50 of read_request over the recorded bytes",
        ));
    }
    m.push(Metric::new(
        "http.body_mb_per_s",
        body_bytes as f64 / 1e6 / body_read_s,
        "MB/s",
        "POST /ratings bytes / read_request time",
    ));
    m.push(Metric::new(
        "http.write_to_us",
        t.p50("http.write_to") * us,
        "us",
        "p50 over all responses",
    ));
    m.push(Metric::new(
        "http.writes_per_response",
        t.count("http.writes") / t.count("http.responses"),
        "count",
        "write calls per response, counting writer",
    ));
    for route in reported_routes() {
        let samples = handled.get(&route).cloned().unwrap_or_default();
        let handle: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let handle_p50 = median(&handle).unwrap_or(f64::NAN);
        let handle_sum: f64 = handle.iter().sum();
        let covered_sum: f64 = samples.iter().map(|s| s.1).sum();
        let socket_p50 = socket
            .latency_ms
            .get(&route)
            .and_then(|v| median(v))
            .unwrap_or(f64::NAN);
        m.push(Metric::new(
            format!("server.handle_us.{}", route.name()),
            handle_p50 * us,
            "us",
            format!("p50 of Server::handle in memory, n={}", handle.len()),
        ));
        m.push(Metric::new(
            format!("net.wait_ms.{}", route.name()),
            socket_p50 - handle_p50 * ms,
            "ms",
            format!("socket p50 {socket_p50:.3} ms - in-memory p50"),
        ));
        m.push(Metric::new(
            format!("server.covered_share.{}", route.name()),
            covered_sum / handle_sum,
            "ratio",
            "timed layer calls / Server::handle time",
        ));
        m.push(Metric::new(
            format!("server.uncovered_us.{}", route.name()),
            (handle_sum - covered_sum) / handle.len().max(1) as f64 * us,
            "us",
            "mean handle time no layer call covers",
        ));
    }
    let per = |key: &str, count: &str, scale: f64| t.total(key) / t.count(count) * scale;
    let full_cost = &curve[2].1;
    m.extend([
        Metric::new(
            "dto.parse_ns_per_rating",
            per("dto.parse", "dto.parsed", ns),
            "ns",
            "parse_submission_body",
        ),
        Metric::new(
            "wal.encode_ns_per_event",
            per("wal.encode", "wal.encoded", ns),
            "ns",
            "WalEvent::to_jsonl",
        ),
        Metric::new(
            "wal.append_batch_us",
            t.p50("wal.append_batch") * us,
            "us",
            "p50 of WalWriter::append_batch (one fsync each)",
        ),
        Metric::new(
            "wal.fsyncs",
            t.count("wal.fsyncs"),
            "count",
            "engine calls that made WAL events durable, one cycle",
        ),
        Metric::new(
            "wal.read_ns_per_event",
            full_cost.wal_read_s / full_cost.wal_events.max(1) as f64 * ns,
            "ns",
            "read_wal on the full mixed history",
        ),
        Metric::new(
            "checkpoint.encode_ms",
            t.p50("checkpoint.encode") * ms,
            "ms",
            "Checkpoint::to_jsonl, final state",
        ),
        Metric::new(
            "checkpoint.write_ms",
            t.p50("checkpoint.write") * ms,
            "ms",
            "write_checkpoint, final state",
        ),
        Metric::new(
            "checkpoint.read_ms",
            full_cost.checkpoint_read_s * ms,
            "ms",
            "read_checkpoint on the full mixed history",
        ),
        Metric::new(
            "engine.open_ms",
            open_s * ms,
            "ms",
            "Engine::open of this workload's starting directory",
        ),
        Metric::new(
            "engine.replay_ms",
            (full_cost.open_s - full_cost.wal_read_s - full_cost.checkpoint_read_s) * ms,
            "ms",
            "open - WAL read - checkpoint read, full mixed history",
        ),
        Metric::new(
            "engine.open_ms.quarter",
            curve[0].1.open_s * ms,
            "ms",
            format!("{} ratings", curve[0].1.ratings),
        ),
        Metric::new(
            "engine.open_ms.half",
            curve[1].1.open_s * ms,
            "ms",
            format!("{} ratings", curve[1].1.ratings),
        ),
        Metric::new(
            "engine.open_ms.full",
            full_cost.open_s * ms,
            "ms",
            format!("{} ratings", full_cost.ratings),
        ),
        Metric::new(
            "engine.submit_ns_per_rating",
            per("engine.submit", "engine.submitted", ns),
            "ns",
            "Engine::submit incl. WAL fsync",
        ),
        Metric::new(
            "engine.epoch_ms",
            t.p50("engine.epoch") * ms,
            "ms",
            format!("p50 over {} epochs", epoch_curve.len()),
        ),
        Metric::new(
            "engine.score_of_us",
            t.p50("engine.score_of") * us,
            "us",
            "p50 of Engine::score_of",
        ),
        Metric::new(
            "engine.score_recompute_ratio",
            plan.count(Route::Score) as f64 / scored_pairs.len().max(1) as f64,
            "ratio",
            format!(
                "score_of calls / {} distinct (product, epoch) pairs",
                scored_pairs.len()
            ),
        ),
        Metric::new(
            "engine.trust_record_us",
            t.p50("engine.trust_record") * us,
            "us",
            "p50 of Engine::trust_record",
        ),
        Metric::new(
            "engine.trust_table_ms",
            t.p50("engine.trust_table") * ms,
            "ms",
            "p50 of Engine::trust_table",
        ),
        Metric::new(
            "engine.suspicious_details_ms",
            t.p50("engine.suspicious_details") * ms,
            "ms",
            "p50 of Engine::suspicious_details",
        ),
        Metric::new(
            "engine.suspicious_scan_ratio",
            t.count("engine.suspicious_scanned") / t.count("engine.suspicious_returned").max(1.0),
            "ratio",
            "ratings scanned / marks returned",
        ),
        Metric::new(
            "engine.checkpoint_ms",
            t.p50("engine.checkpoint") * ms,
            "ms",
            "Engine::checkpoint at shutdown",
        ),
        Metric::new(
            "store.insert_ns_per_rating",
            per("store.insert", "store.inserted", ns),
            "ns",
            "RatingDataset::insert",
        ),
        Metric::new(
            "store.prefix_view_us",
            t.p50("store.prefix_view") * us,
            "us",
            "p50 of RatingDataset::prefix_view",
        ),
        Metric::new(
            "store.in_window_us",
            t.p50("store.in_window") * us,
            "us",
            "p50 of product + in_window",
        ),
        Metric::new(
            "detectors.online_ms",
            t.p50("detectors.online") * ms,
            "ms",
            "p50 of detect_all_online per epoch",
        ),
        Metric::new(
            "detectors.online_ns_per_new_rating",
            t.count("detectors.per_rating_s") / t.count("detectors.rated").max(1.0) * ns,
            "ns",
            "detect_all_online time / ratings new since the last epoch",
        ),
        Metric::new(
            "trust.update_epoch_ms",
            t.p50("trust.update_epoch") * ms,
            "ms",
            "p50 of TrustManager::update_epoch",
        ),
        Metric::new(
            "aggregation.filter_us",
            t.p50("aggregation.filter") * us,
            "us",
            "p50 of filter_ratings",
        ),
        Metric::new(
            "aggregation.weighted_us",
            t.p50("aggregation.weighted") * us,
            "us",
            "p50 of weighted_aggregate",
        ),
        Metric::new(
            "store.ratings",
            engine.ratings() as f64,
            "count",
            "at shutdown",
        ),
        Metric::new(
            "trust.raters",
            engine.trust_table().len() as f64,
            "count",
            "at shutdown",
        ),
        Metric::new(
            "engine.suspicious",
            engine.suspicious().len() as f64,
            "count",
            "at shutdown",
        ),
        Metric::new(
            "wal.events",
            engine.wal_events() as f64,
            "count",
            "at shutdown",
        ),
        Metric::new(
            "fidelity.mismatches",
            mismatches as f64,
            "count",
            "replica vs engine, bit for bit; must be 0",
        ),
    ]);
    drop(engine);
    for dir in [&dir_a, &dir_b, &dir_c] {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(LayerReport {
        metrics: m,
        lines,
        mismatches,
    })
}
