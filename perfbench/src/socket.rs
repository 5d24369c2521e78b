//! The untraced end-to-end run: the shipped binary over loopback.
//!
//! One cycle starts `rrs serve` on a fresh directory (empty, or a copy
//! of the prebuilt history), sends the plan's sessions, runs the
//! end-state check, and shuts the server down. A run repeats cycles
//! until its time is up. Every response is compared byte for byte with
//! the oracle's.

use crate::client::{copy_dir, fresh_dir, Connection, ServerProcess};
use crate::plan::{Plan, Req, Route};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The client's pause before each new connection, as when a script
/// launches one client process per session. Without it, back-to-back
/// sub-millisecond requests land in one of two scheduler placements
/// per server process, and a run's percentiles flip between them.
const CONNECT_PAUSE: Duration = Duration::from_millis(1);
/// How far past its `--seconds` a run may go before the remaining
/// requests are counted as failed unsent, so a stuck server cannot
/// hold the benchmark past its time limit.
const OVERRUN: Duration = Duration::from_secs(60);

/// The oracle's raw responses, in the order the client sends them.
#[derive(Debug)]
pub struct Expected {
    pub traffic: Vec<Vec<u8>>,
    pub check: Vec<Vec<u8>>,
    pub shutdown: Vec<u8>,
}

/// What one cycle measured.
#[derive(Debug, Default, Clone)]
pub struct Cycle {
    pub setup_s: f64,
    /// Wall time of the traffic, first connect to last response byte,
    /// less the client's own pauses before each connection.
    pub traffic_s: f64,
    pub requests: u64,
    pub ratings: u64,
    /// Each `POST /epochs` latency, in seconds, in order.
    pub epochs_s: Vec<f64>,
    pub shutdown_s: f64,
    pub peak_rss_mb: f64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    /// Ratings the directory holds at shutdown.
    pub stored_ratings: u64,
}

#[derive(Debug, Default)]
pub struct SocketRun {
    /// The response buffer, reused across requests.
    raw: Vec<u8>,
    pub cycles: Vec<Cycle>,
    /// Latencies per route, in ms, over all cycles: the traffic's, and
    /// the shutdown's (the end-state check is not timed).
    pub latency_ms: BTreeMap<Route, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl SocketRun {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Sends one request on `conn`, checks it, and returns its latency.
    fn exchange(
        &mut self,
        conn: &mut Connection,
        req: &Req,
        expected: &[u8],
        label: &str,
    ) -> Result<Duration, ()> {
        self.attempted += 1;
        match conn.send(req, &mut self.raw) {
            Ok(answer) if self.raw == expected => Ok(answer.elapsed),
            Ok(answer) if !(200..300).contains(&answer.status) => {
                self.fail(format!("{label}: status {}", answer.status));
                Err(())
            }
            Ok(_) => {
                self.fail(format!("{label}: response differs from the oracle's"));
                Err(())
            }
            Err(e) => {
                self.fail(format!("{label}: connection failed: {e}"));
                Err(())
            }
        }
    }
}

/// Runs cycles of `plan` against `binary` for at least `seconds`.
pub fn run(
    binary: &Path,
    plan: &Plan,
    expected: &Expected,
    history_dir: Option<&Path>,
    work: &Path,
    seconds: f64,
) -> std::io::Result<SocketRun> {
    let mut run = SocketRun::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds) + OVERRUN;
    let history_ratings = plan.history.ratings() as u64;
    while run.cycles.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let dir = work.join("serve");
        match history_dir {
            Some(src) => copy_dir(src, &dir)?,
            None => drop(fresh_dir(dir.clone())?),
        }
        let (server, setup) = ServerProcess::start(binary, &dir, &work.join("addr"))?;
        let mut cycle = Cycle {
            setup_s: setup.as_secs_f64(),
            ..Cycle::default()
        };

        let traffic = Instant::now();
        let mut paused = Duration::ZERO;
        let mut index = 0usize;
        for session in &plan.sessions {
            let pause = Instant::now();
            std::thread::sleep(CONNECT_PAUSE);
            paused += pause.elapsed();
            let mut conn = match Connection::open(server.addr) {
                Ok(c) if Instant::now() <= deadline => Some(c),
                Ok(_) => None,
                Err(e) => {
                    run.fail(format!("connect failed: {e}"));
                    None
                }
            };
            for req in session {
                let label = format!("traffic request {index} ({})", req.route.name());
                if Instant::now() > deadline {
                    conn = None;
                }
                let result = match conn.as_mut() {
                    Some(c) => run.exchange(c, req, &expected.traffic[index], &label),
                    None => {
                        run.attempted += 1;
                        run.fail(format!("{label}: not sent after a failure or overrun"));
                        Err(())
                    }
                };
                index += 1;
                match result {
                    Ok(elapsed) => {
                        let ms = elapsed.as_secs_f64() * 1e3;
                        run.latency_ms.entry(req.route).or_default().push(ms);
                        cycle.requests += 1;
                        cycle.ratings += req.ratings as u64;
                        if req.route == Route::Epochs {
                            cycle.epochs_s.push(ms / 1e3);
                        }
                    }
                    // The stream position is unknown after a failure.
                    Err(()) => conn = None,
                }
            }
        }
        cycle.traffic_s = traffic.elapsed().saturating_sub(paused).as_secs_f64();

        for (i, req) in plan.check.iter().enumerate() {
            let label = format!("end-state check {}", req.route.name());
            match Connection::open(server.addr) {
                Ok(mut conn) => {
                    let _ = run.exchange(&mut conn, req, &expected.check[i], &label);
                }
                Err(e) => {
                    run.attempted += 1;
                    run.fail(format!("{label}: connect failed: {e}"));
                }
            }
        }

        cycle.peak_rss_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
        let shutdown = Req::shutdown();
        let mut shutdowns = Vec::new();
        let stopped = match Connection::open(server.addr) {
            Ok(mut conn) => run
                .exchange(&mut conn, &shutdown, &expected.shutdown, "shutdown")
                .map(|elapsed| {
                    cycle.shutdown_s = elapsed.as_secs_f64();
                    shutdowns.push(elapsed.as_secs_f64() * 1e3);
                })
                .is_ok(),
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("shutdown: connect failed: {e}"));
                false
            }
        };
        run.latency_ms
            .entry(Route::Shutdown)
            .or_default()
            .extend(shutdowns);
        // Without an answered shutdown the server is killed on drop.
        if stopped && !server.wait_exit()? {
            run.fail("server did not exit cleanly after shutdown".to_string());
        }
        cycle.wal_bytes = file_len(&dir.join(rrs_serve::wal::WAL_FILE));
        cycle.checkpoint_bytes = file_len(&dir.join(rrs_serve::checkpoint::CHECKPOINT_FILE));
        cycle.stored_ratings = history_ratings + cycle.ratings;
        run.cycles.push(cycle);
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(run)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
