//! Library backing the `rrs` command-line tool.
//!
//! The CLI exposes the workspace to users with their own data:
//!
//! ```text
//! rrs generate --out fair.csv --seed 7          # synthetic challenge data
//! rrs attack   --data fair.csv --strategy camouflage --out attacked.csv
//! rrs evaluate --data attacked.csv --scheme p   # checkpoint scores + trust
//! rrs detect   --data attacked.csv              # suspicious intervals/marks
//! rrs mp       --clean fair.csv --attacked attacked.csv --scheme p
//! ```
//!
//! Datasets travel as the CSV dialect of [`rrs_core::io`]. Argument
//! parsing is hand-rolled (the workspace carries no CLI dependency) and
//! lives in [`args`]; each subcommand is a function in [`commands`] that
//! returns its report as a `String`, so the whole surface is unit-testable
//! without spawning processes.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
