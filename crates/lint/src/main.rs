//! The `rrs-lint` binary.
//!
//! ```text
//! rrs-lint [--root DIR] [--jsonl FILE] [--write-lock]
//!          [--write-layers-lock] [--write-api-lock] [--quiet]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O failure.

use rrs_obs::{rrs_error, rrs_info};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    rrs_obs::init_from_env();
    let mut root = PathBuf::from(".");
    let mut jsonl: Option<PathBuf> = None;
    let mut write_lock = false;
    let mut write_layers = false;
    let mut write_api = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(v) = args.next() else {
                    rrs_error!("--root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(v);
            }
            "--jsonl" => {
                let Some(v) = args.next() else {
                    rrs_error!("--jsonl needs a file path");
                    return ExitCode::from(2);
                };
                jsonl = Some(PathBuf::from(v));
            }
            "--write-lock" => write_lock = true,
            "--write-layers-lock" => write_layers = true,
            "--write-api-lock" => write_api = true,
            "--quiet" | "-q" => rrs_obs::log::set_verbosity(rrs_obs::log::Level::Error),
            "--help" | "-h" => {
                rrs_info!(
                    "usage: rrs-lint [--root DIR] [--jsonl FILE] [--write-lock]\n\
                     \u{20}        [--write-layers-lock] [--write-api-lock] [--quiet]\n\
                     Scans the tree for the checks clippy cannot make (float compares,\n\
                     relaxed atomics, metric names, panic budgets) and checks the\n\
                     committed layering DAG (layers.lock) and public-API surface\n\
                     (api.lock); see DESIGN.md §8 and §12."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                rrs_error!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let config = rrs_lint::config_for(&root);
    let result = if write_lock {
        rrs_lint::scan_and_write_lock(&config)
    } else if write_layers {
        rrs_lint::scan_and_write_layers_lock(&config)
    } else if write_api {
        rrs_lint::scan_and_write_api_lock(&config)
    } else {
        rrs_lint::scan(&config)
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            rrs_error!("{}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = jsonl {
        if let Err(e) = std::fs::write(&path, report.to_jsonl()) {
            rrs_error!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if write_lock {
        rrs_info!("wrote {}", root.join(rrs_lint::LOCK_FILE).display());
        // The rewritten lock resolves budget findings by construction.
        report
            .findings
            .retain(|f| f.rule != rrs_lint::rules::RULE_BUDGET);
    }
    if write_layers {
        rrs_info!(
            "wrote {}",
            root.join(rrs_lint::layers::LAYERS_FILE).display()
        );
        report
            .findings
            .retain(|f| f.rule != rrs_lint::rules::RULE_LAYERING);
    }
    if write_api {
        rrs_info!("wrote {}", root.join(rrs_lint::api::API_FILE).display());
        report
            .findings
            .retain(|f| f.rule != rrs_lint::rules::RULE_API);
    }
    if report.is_clean() {
        rrs_info!("{}", report.render());
        ExitCode::SUCCESS
    } else {
        rrs_error!("{}", report.render());
        ExitCode::FAILURE
    }
}
