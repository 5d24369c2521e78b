//! A stock HTTP/1.1 client over loopback, and the `rrs serve` child.
//!
//! The client sets no socket options that would hide server behaviour
//! (no `TCP_NODELAY`, no `TCP_QUICKACK`). Like curl 7.88 it sends
//! `Expect: 100-continue` on bodies over 1 MiB and then waits up to one
//! second for an interim or final status before sending the body.

use crate::plan::Req;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a client waits for `100 Continue` before sending the body.
const EXPECT_WAIT: Duration = Duration::from_secs(1);
/// Upper bound on any one response, so a stuck server fails the run.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request; the response itself is in the caller's buffer.
#[derive(Debug)]
pub struct Answer {
    pub status: u16,
    /// From the first request byte to the last response byte.
    pub elapsed: Duration,
}

/// One open connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the whole response (status line,
    /// headers, body) into `raw`. Reusing one buffer keeps page faults
    /// on fresh allocations out of the timed window.
    pub fn send(&mut self, req: &Req, raw: &mut Vec<u8>) -> std::io::Result<Answer> {
        let start = Instant::now();
        if req.expect {
            self.reader.get_mut().write_all(&req.head)?;
            // Wait for an interim or final status, at most EXPECT_WAIT.
            self.reader.get_ref().set_read_timeout(Some(EXPECT_WAIT))?;
            let early = match self.reader.fill_buf() {
                Ok(buf) => !buf.is_empty(),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => false,
                Err(e) => return Err(e),
            };
            self.reader
                .get_ref()
                .set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            if early {
                let status = self.read_response(raw)?;
                if !is_interim(status) {
                    // A final status before the body: the request is over.
                    return Ok(Answer {
                        status,
                        elapsed: start.elapsed(),
                    });
                }
            }
            self.reader.get_mut().write_all(&req.body)?;
        } else {
            self.reader.get_mut().write_all(&req.bytes())?;
        }
        // Skip interim responses, such as a `100 Continue` that arrives
        // after the wait ran out; `raw` keeps only the final response.
        loop {
            let status = self.read_response(raw)?;
            if !is_interim(status) {
                return Ok(Answer {
                    status,
                    elapsed: start.elapsed(),
                });
            }
        }
    }

    /// Reads one response framed by `Content-Length` (none for `1xx`).
    fn read_response(&mut self, raw: &mut Vec<u8>) -> std::io::Result<u16> {
        raw.clear();
        let mut length = 0usize;
        let mut status = 0u16;
        loop {
            let before = raw.len();
            if self.reader.read_until(b'\n', raw)? == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed inside a response head",
                ));
            }
            let line = String::from_utf8_lossy(&raw[before..])
                .trim_end()
                .to_string();
            if before == 0 {
                status = line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
            } else if line.is_empty() {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(&format!("bad content-length {value:?}")))?;
                }
            }
        }
        if is_interim(status) {
            return Ok(status);
        }
        let head = raw.len();
        raw.resize(head + length, 0);
        self.reader.read_exact(&mut raw[head..])?;
        Ok(status)
    }
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

fn is_interim(status: u16) -> bool {
    (100..200).contains(&status)
}

/// Where the head of a raw response ends (after its blank line).
fn head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| at + 4)
}

/// The final response in `raw`, past any leading interim (`1xx`)
/// responses, which carry no body. The client keeps only the final
/// response, so this is what the oracle's output is compared as.
pub fn final_response(mut raw: &[u8]) -> &[u8] {
    while raw.starts_with(b"HTTP/1.1 1") {
        match head_end(raw) {
            Some(end) => raw = &raw[end..],
            None => break,
        }
    }
    raw
}

/// The body of a raw (final) response.
pub fn body_of(raw: &[u8]) -> &[u8] {
    head_end(raw).map_or(&raw[raw.len()..], |end| &raw[end..])
}

/// A running `rrs serve`; killed and reaped on drop if still alive.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the server on `dir` and waits for its first `/healthz` 200.
    /// Returns the process and the set-up time.
    pub fn start(binary: &Path, dir: &Path, addr_file: &Path) -> std::io::Result<(Self, Duration)> {
        if addr_file.exists() {
            std::fs::remove_file(addr_file)?;
        }
        let start = Instant::now();
        let child = Command::new(binary)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut process = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = start + Duration::from_secs(30);
        loop {
            if let Some(status) = process.child.try_wait()? {
                return Err(bad(&format!("server exited during start-up: {status}")));
            }
            if Instant::now() > deadline {
                return Err(bad("server did not come up within 30 s"));
            }
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    process.addr = addr;
                    break;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let health = crate::plan::Req::healthz();
        let mut raw = Vec::new();
        loop {
            if Instant::now() > deadline {
                return Err(bad("server never answered /healthz"));
            }
            if let Ok(mut conn) = Connection::open(process.addr) {
                if let Ok(answer) = conn.send(&health, &mut raw) {
                    if answer.status == 200 {
                        return Ok((process, start.elapsed()));
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB, if readable.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Waits for the process to exit after `POST /shutdown`.
    pub fn wait_exit(mut self) -> std::io::Result<bool> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.success());
            }
            if Instant::now() > deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A fresh, empty directory (removed first if it exists).
pub fn fresh_dir(path: PathBuf) -> std::io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(&path)?;
    }
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

/// Copies the files of `src` into a fresh `dst` and flushes the copies
/// and the directory, so no fsync of the server's pays for them.
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    fresh_dir(dst.to_path_buf())?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let copy = dst.join(entry.file_name());
        std::fs::copy(entry.path(), &copy)?;
        std::fs::File::open(&copy)?.sync_all()?;
    }
    std::fs::File::open(dst)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memserve::MemStream;
    use crate::plan::Route;
    use std::net::TcpListener;

    const FINAL: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n";

    /// A server that answers `100 Continue`, before the body or after
    /// it, and then the final response.
    fn stub_handle<S: Read + Write>(stream: &mut S, continue_first: bool) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        if continue_first {
            stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").unwrap();
        }
        let mut body = [0u8; 4];
        stream.read_exact(&mut body).unwrap();
        if !continue_first {
            stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").unwrap();
        }
        stream.write_all(FINAL).unwrap();
    }

    fn expect_req() -> Req {
        Req {
            route: Route::Ratings,
            head: b"POST /ratings HTTP/1.1\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\n"
                .to_vec(),
            body: b"x\ny\n".to_vec(),
            ratings: 2,
            expect: true,
        }
    }

    #[test]
    fn interim_responses_are_dropped_by_client_and_oracle_alike() {
        for continue_first in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stub_handle(&mut stream, continue_first);
            });
            let mut raw = Vec::new();
            let answer = Connection::open(addr)
                .unwrap()
                .send(&expect_req(), &mut raw)
                .unwrap();
            server.join().unwrap();
            assert_eq!(answer.status, 200);
            assert_eq!(raw, FINAL);

            let mut mem = MemStream::new(expect_req().bytes());
            stub_handle(&mut mem, continue_first);
            assert!(mem.output.starts_with(b"HTTP/1.1 100 Continue\r\n\r\n"));
            assert_eq!(final_response(&mem.output), raw.as_slice());
            assert_eq!(body_of(final_response(&mem.output)), b"ok\n");
        }
    }

    #[test]
    fn a_final_response_passes_through() {
        assert_eq!(final_response(FINAL), FINAL);
    }
}
