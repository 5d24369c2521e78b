//! Seeded violations of every ban that moved from rrs-lint to the
//! toolchain: one module per retired rule, each the compilable twin of
//! that rule's old fixture. `crates/lint/tests/clippy_gate.rs` pins the
//! exact `(file, line, lint)` findings, so a ban dropped from
//! `clippy.toml` or `[workspace.lints]` fails it. `clean` is the
//! negative control: its sanctioned sites must produce nothing.

pub mod allow;
pub mod clean;
pub mod entropy;
pub mod hash_iter;
pub mod hashed;
pub mod output;
pub mod stale_expect;
pub mod sync;
pub mod thread;
pub mod wallclock;
