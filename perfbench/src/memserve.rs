//! In-process serving: prebuilt directories and the oracle.
//!
//! [`Server::handle`] is generic over `Read + Write`, so the oracle runs
//! the exact routing and rendering code the binary runs, on an
//! in-memory stream, against an engine fed the same event sequence
//! without interruption (no checkpoint, no recovery).

use crate::plan::{Event, History, Req};
use rrs_serve::{Engine, EngineConfig, Server};
use std::io::{Cursor, Read, Write};
use std::path::Path;

/// An in-memory duplex stream: one request in, the response out.
pub struct MemStream {
    input: Cursor<Vec<u8>>,
    pub output: Vec<u8>,
}

impl MemStream {
    pub fn new(request: Vec<u8>) -> MemStream {
        MemStream {
            input: Cursor::new(request),
            output: Vec::new(),
        }
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn config() -> EngineConfig {
    EngineConfig::paper(crate::plan::PERIOD_DAYS)
}

/// Feeds `history` to an engine in `dir`. With `crash`, the engine
/// checkpoints where the history says and is then dropped without a
/// shutdown, as after a crash; without it, nothing is checkpointed.
pub fn build(history: &History, dir: &Path, crash: bool) -> std::io::Result<Engine> {
    let mut engine = Engine::open(dir, config())?;
    for event in &history.events {
        match event {
            Event::Batch(batch) => {
                engine.submit(batch)?;
            }
            Event::Epoch => {
                engine.advance_epoch()?;
                if crash && Some(engine.epochs()) == history.checkpoint_after {
                    engine.checkpoint()?;
                }
            }
        }
    }
    Ok(engine)
}

/// Runs one request through `server` in memory; the raw final
/// response, as the client keeps it (interim `1xx` responses dropped).
pub fn exchange(server: &mut Server, req: &Req) -> Vec<u8> {
    let mut stream = MemStream::new(req.bytes());
    server.handle(&mut stream);
    crate::client::final_response(&stream.output).to_vec()
}
