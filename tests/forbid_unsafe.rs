//! No crate in the workspace may contain `unsafe` code, and no crate
//! may opt out of the workspace lints.
//!
//! The root `Cargo.toml` declares `unsafe_code = "forbid"` once, under
//! `[workspace.lints.rust]`, next to the clippy lints that replaced
//! rrs-lint's print and waiver rules. A package only gets those lints
//! through `[lints] workspace = true`, so this test holds every package
//! manifest (the root and each `crates/*`) to it. A crate that drops the
//! table fails here with its manifest named, before any `unsafe` block
//! or stray `println!` can land unnoticed.

use std::path::{Path, PathBuf};

/// The `key = value` lines of one `[table]` in TOML-shaped text.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    let mut in_table = false;
    let mut lines = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line == header;
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            lines.push(line);
        }
    }
    lines
}

/// Normalizes `key = "value"` spacing so the assertions read plainly.
fn squeeze(line: &str) -> String {
    line.split_whitespace().collect()
}

#[test]
fn every_library_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        table(&root_manifest, "[workspace.lints.rust]")
            .iter()
            .any(|l| squeeze(l) == "unsafe_code=\"forbid\""),
        "Cargo.toml must declare unsafe_code = \"forbid\" under [workspace.lints.rust]"
    );

    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates.filter_map(Result::ok) {
        let manifest = entry.path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    // The facade plus every member crate: keep this in sync when
    // adding crates (the assert below catches silent walk failures).
    assert!(manifests.len() >= 13, "found only {}", manifests.len());

    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest is readable");
        let lints: Vec<String> = table(&text, "[lints]").into_iter().map(squeeze).collect();
        assert!(
            lints == ["workspace=true"],
            "{} must carry `[lints] workspace = true`, \
             so it cannot opt out of the workspace lints (found {lints:?})",
            manifest.display()
        );
    }
}
