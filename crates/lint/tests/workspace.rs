//! The lint's own dogfood test: the committed tree must scan clean,
//! and the committed `lint.lock` must exactly mirror the live counts.
//!
//! This is the ratchet's enforcement point in CI: removing a panic
//! site without regenerating the lock fails (slack), and adding one
//! fails (exceeded budget).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_is_lint_clean() {
    let report = rrs_lint::scan_root(&repo_root()).expect("workspace scans");
    assert!(
        report.is_clean(),
        "the committed tree must produce zero findings:\n{}",
        report.render()
    );
    assert!(report.files_scanned > 100, "workspace walk looks truncated");
    assert!(report.layers.len() >= 10, "crate graph looks truncated");
    // The workspace passes actually saw the tree: the layering graph
    // and the API surface are both populated.
    assert!(
        report.layers.contains_key("rrs-lint"),
        "layering graph covers the workspace crates"
    );
    assert!(
        report
            .layers
            .get("rrs-lint")
            .is_some_and(|d| d.contains("rrs-core")),
        "rrs-lint's dependency on rrs-core is observed"
    );
    assert!(
        report.api.values().map(|s| s.len()).sum::<usize>() > 100,
        "API surface extraction looks truncated"
    );
}

#[test]
fn the_lock_file_matches_live_counts() {
    let text = std::fs::read_to_string(repo_root().join(rrs_lint::LOCK_FILE))
        .expect("lint.lock is committed at the workspace root");
    let locked = rrs_lint::budget::parse_lock(&text).expect("lint.lock parses");
    let report = rrs_lint::scan_root(&repo_root()).unwrap();
    let drift = rrs_lint::budget::check(rrs_lint::LOCK_FILE, &locked, &report.budgets);
    assert!(
        drift.is_empty(),
        "lint.lock has drifted from the live counts: {drift:?}"
    );
}

#[test]
fn the_ratchet_refuses_to_turn_up() {
    let report = rrs_lint::scan_root(&repo_root()).unwrap();
    let mut inflated = report.budgets.clone();
    let (name, entry) = inflated
        .iter_mut()
        .next()
        .expect("the workspace has at least one crate");
    entry.unwrap += 1;
    let name = name.clone();
    let err = rrs_lint::budget::write_lock(Some(&report.budgets), &inflated)
        .expect_err("raising a count must be refused");
    assert!(err.contains(&name), "error names the crate: {err}");
    assert!(err.contains("unwrap"), "error names the counter: {err}");
}

#[test]
fn lowering_a_count_regenerates_cleanly() {
    let report = rrs_lint::scan_root(&repo_root()).unwrap();
    let mut improved = report.budgets.clone();
    if let Some(entry) = improved.values_mut().find(|e| e.expect > 0) {
        entry.expect -= 1;
    }
    let lock = rrs_lint::budget::write_lock(Some(&report.budgets), &improved)
        .expect("lowering counts is always allowed");
    let reparsed = rrs_lint::budget::parse_lock(&lock).unwrap();
    assert_eq!(reparsed, improved);
}
