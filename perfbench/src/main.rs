//! End-to-end serving benchmark for `rrs serve`.
//!
//! ```text
//! rrs-perfbench --workload ingest|mixed --seed N --seconds S --trace 0|1 \
//!     --server PATH/TO/rrs [--work DIR] [--commit C] [--rustc V]
//! ```
//!
//! `--trace 0` drives the shipped binary over loopback and prints the
//! end-to-end metrics. `--trace 1` runs the same socket cycles, then
//! replays the identical request stream in process through the layers'
//! public functions and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object, every response is
//! checked byte for byte against an in-process oracle, and a failed
//! check makes the exit code non-zero. `run.py` builds both binaries
//! and supplies `--server`.

mod client;
mod layers;
mod memserve;
mod plan;
mod socket;
mod stats;

use plan::{Feed, Plan, Route};
use rrs_serve::Server;
use socket::{Expected, SocketRun};
use stats::{beyond, median, quantile, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        server: PathBuf::new(),
        work: PathBuf::from(".bench_build/perfbench-work"),
        commit: "unknown".to_string(),
        rustc: "unknown".to_string(),
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = value == "1",
            "--server" => args.server = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(args.workload.as_str(), "ingest" | "mixed") {
        return Err(format!(
            "--workload must be ingest or mixed, got {:?}",
            args.workload
        ));
    }
    if !args.server.is_file() {
        return Err(format!("--server {} is not a file", args.server.display()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed.
fn run(args: &Args, work: &Path) -> std::io::Result<bool> {
    client::fresh_dir(work.to_path_buf())?;
    let feed = Feed::generate(args.seed);
    let plan = match args.workload.as_str() {
        "ingest" => plan::ingest(&feed, args.seed),
        _ => plan::mixed(&feed, args.seed),
    };
    print_provenance(args, &feed, &plan);

    let history_dir = if plan.history.events.is_empty() {
        None
    } else {
        let dir = client::fresh_dir(work.join("history"))?;
        memserve::build(&plan.history, &dir, true)?;
        Some(dir)
    };
    let expected = oracle(&plan, work)?;
    let cpu_before = cpu_times();
    let socket = socket::run(
        &args.server,
        &plan,
        &expected,
        history_dir.as_deref(),
        work,
        args.seconds,
    )?;
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_times()) {
        // Time the hypervisor gave to other guests: the host's share of
        // the run-to-run noise.
        println!(
            "machine: steal={:.2}% of CPU time during the socket cycles",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    for failure in &socket.failures {
        println!("FAILED: {failure}");
    }

    println!("latency by route (ms, all cycles):");
    for (route, samples) in &socket.latency_ms {
        println!(
            "  {:<11} n={:<5} p50={:>10.3} p90={:>10.3} max={:>10.3}",
            route.name(),
            samples.len(),
            quantile(samples, 0.5).unwrap_or(f64::NAN),
            quantile(samples, 0.9).unwrap_or(f64::NAN),
            quantile(samples, 1.0).unwrap_or(f64::NAN),
        );
    }
    let e2e = end_to_end(&socket);
    print_metrics("end-to-end (untraced)", &e2e);
    let (metrics, fidelity_ok) = if args.trace {
        let report = layers::run(
            &plan,
            &feed,
            args.seed,
            history_dir.as_deref(),
            work,
            &socket,
        )?;
        for line in &report.lines {
            println!("{line}");
        }
        print_metrics("per-layer (traced, in process)", &report.metrics);
        (report.metrics, report.mismatches == 0)
    } else {
        // error_rate is 0 when all is well, so it travels as
        // `failed`/`attempted` in the result line, not as a metric.
        (
            e2e.into_iter().filter(|m| m.name != "error_rate").collect(),
            true,
        )
    };
    let correct = socket.failed == 0 && fidelity_ok;
    println!(
        "{}",
        stats::result_line(correct, socket.attempted, socket.failed, &metrics)
    );
    Ok(correct)
}

/// `(steal, total)` CPU ticks from the first line of `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The oracle's responses: an uninterrupted in-process engine fed the
/// history and then the plan's requests, in the client's order.
fn oracle(plan: &Plan, work: &Path) -> std::io::Result<Expected> {
    let dir = client::fresh_dir(work.join("oracle"))?;
    let mut server = Server::new(memserve::build(&plan.history, &dir, false)?);
    let traffic = plan
        .requests()
        .map(|r| memserve::exchange(&mut server, r))
        .collect();
    let check = plan
        .check
        .iter()
        .map(|r| memserve::exchange(&mut server, r))
        .collect();
    let shutdown = memserve::exchange(&mut server, &plan::Req::shutdown());
    drop(server);
    std::fs::remove_dir_all(&dir)?;
    Ok(Expected {
        traffic,
        check,
        shutdown,
    })
}

fn print_provenance(args: &Args, feed: &Feed, plan: &Plan) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("RRS_THREADS").unwrap_or_else(|_| "unset".to_string());
    println!(
        "machine: cores={cores} RRS_THREADS={threads} commit={} rustc={:?}",
        args.commit, args.rustc
    );
    let batches: Vec<String> = plan
        .requests()
        .filter(|r| r.route == Route::Ratings)
        .map(|r| r.body.len().to_string())
        .collect();
    let sessions = plan.sessions.len();
    let requests = plan.requests().count();
    println!(
        "traffic: workload={} seed={} markets={} feed_ratings={} history_ratings={} \
         history_epochs={} checkpoint_after_epoch={:?} sessions/cycle={sessions} \
         requests/cycle={requests} mean_session={:.2}",
        plan.workload,
        args.seed,
        feed.markets,
        feed.ratings.len(),
        plan.history.ratings(),
        plan.history.epochs(),
        plan.history.checkpoint_after,
        requests as f64 / sessions.max(1) as f64,
    );
    let mix: Vec<String> = Route::ALL
        .iter()
        .filter(|&&r| plan.count(r) > 0)
        .map(|&r| format!("{}={}", r.name(), plan.count(r)))
        .collect();
    println!("traffic: requests per route per cycle: {}", mix.join(" "));
    if batches.len() <= 12 {
        println!("traffic: POST /ratings body bytes: {}", batches.join(" "));
    } else {
        println!(
            "traffic: {} POST /ratings per cycle, {} ratings in all",
            batches.len(),
            plan.posted_ratings()
        );
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title} ==");
    for m in metrics {
        println!("{:<36} {:>14.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
}

/// A latency percentile with its sample count and the ten-beyond rule.
fn percentile(run: &SocketRun, route: Route, q: f64, name: &str) -> Metric {
    let samples = run.latency_ms.get(&route).cloned().unwrap_or_default();
    let n = samples.len();
    let rule = if beyond(n, q) >= 10 {
        "meets the ten-beyond rule"
    } else {
        "FEWER than ten samples beyond it"
    };
    Metric::new(
        name,
        quantile(&samples, q).unwrap_or(f64::NAN),
        "ms",
        format!("n={n}, {} beyond; {rule}", beyond(n, q)),
    )
}

/// The dumps' p50: the mean of the `GET /trust` and `GET /suspicious`
/// p50s. The two routes differ in cost, so a pooled median would sit in
/// the gap between two clusters and jump from run to run.
fn dump_p50(run: &SocketRun) -> Metric {
    let trust = percentile(run, Route::TrustDump, 0.5, "");
    let suspicious = percentile(run, Route::Suspicious, 0.5, "");
    Metric::new(
        "dump_p50_ms",
        (trust.value + suspicious.value) / 2.0,
        "ms",
        format!(
            "mean of two p50s: GET /trust {:.3} ({}), GET /suspicious {:.3} ({})",
            trust.value, trust.note, suspicious.value, suspicious.note
        ),
    )
}

/// Seconds in `POST /epochs` per cycle, robust to a stall that hits one
/// epoch of one cycle: the `i`-th epoch's median over cycles, summed
/// over `i`. Every cycle sends the same epochs.
fn epochs_s(cycles: &[socket::Cycle]) -> f64 {
    let per_cycle = cycles.first().map_or(0, |c| c.epochs_s.len());
    (0..per_cycle)
        .map(|i| {
            let ith: Vec<f64> = cycles
                .iter()
                .filter_map(|c| c.epochs_s.get(i).copied())
                .collect();
            median(&ith).unwrap_or(f64::NAN)
        })
        .sum()
}

fn end_to_end(run: &SocketRun) -> Vec<Metric> {
    let cycles = &run.cycles;
    let per_cycle = |f: fn(&socket::Cycle) -> f64| -> f64 {
        median(&cycles.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let traffic_s: f64 = cycles.iter().map(|c| c.traffic_s).sum();
    let requests: u64 = cycles.iter().map(|c| c.requests).sum();
    let ratings: u64 = cycles.iter().map(|c| c.ratings).sum();
    let epochs: usize = cycles.iter().map(|c| c.epochs_s.len()).sum();
    let n = cycles.len();
    vec![
        Metric::new(
            "setup_s",
            per_cycle(|c| c.setup_s),
            "s",
            format!("median of {n} server starts"),
        ),
        Metric::new(
            "ratings_per_s",
            ratings as f64 / traffic_s,
            "1/s",
            format!("{ratings} acknowledged ratings / {traffic_s:.3} s of traffic"),
        ),
        Metric::new(
            "requests_per_s",
            requests as f64 / traffic_s,
            "1/s",
            format!("{requests} requests / {traffic_s:.3} s of traffic"),
        ),
        percentile(run, Route::Ratings, 0.5, "submit_p50_ms"),
        percentile(run, Route::Score, 0.5, "score_p50_ms"),
        percentile(run, Route::Score, 0.9, "score_p90_ms"),
        percentile(run, Route::Trust, 0.5, "trust_p50_ms"),
        percentile(run, Route::Trust, 0.9, "trust_p90_ms"),
        dump_p50(run),
        Metric::new(
            "epochs_s",
            epochs_s(cycles),
            "s",
            format!("per cycle: sum over its epochs of each one's median over {n} cycles; {epochs} epochs in all"),
        ),
        Metric::new(
            "shutdown_s",
            per_cycle(|c| c.shutdown_s),
            "s",
            format!("median of {n}"),
        ),
        Metric::new(
            "wal_bytes_per_rating",
            per_cycle(|c| c.wal_bytes as f64 / c.stored_ratings as f64),
            "B",
            "WAL size / ratings it holds",
        ),
        Metric::new(
            "checkpoint_bytes_per_rating",
            per_cycle(|c| c.checkpoint_bytes as f64 / c.stored_ratings as f64),
            "B",
            "checkpoint size / ratings held",
        ),
        Metric::new(
            "peak_rss_mb",
            per_cycle(|c| c.peak_rss_mb),
            "MiB",
            "server VmHWM read just before POST /shutdown",
        ),
        Metric::new(
            "error_rate",
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
            format!("{} failed / {} attempted", run.failed, run.attempted),
        ),
    ]
}
