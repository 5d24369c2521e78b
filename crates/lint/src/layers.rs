//! The layering pass: a committed crate-dependency DAG.
//!
//! The workspace's architecture is a layered stack — `rrs-core` at the
//! bottom, `rrs-obs`/`rrs-lint` as leaves, `rrs-cli`/`rrs-eval` at the
//! top — and the cheapest way to destroy it is one convenient back-edge
//! (`rrs-core` reaching up into `rrs-eval` to "just read a report").
//! This pass makes the graph a reviewed artifact: every `Cargo.toml`
//! `[dependencies]` section is folded into an adjacency list and
//! compared against the committed `layers.lock`. A new or a stale edge
//! is a finding ([`crate::rules::RULE_LAYERING`]); intentional layering
//! changes are made by regenerating the lock with `--write-layers-lock`
//! and defending the diff in review.
//!
//! The manifests are the whole graph: rustc rejects a `use rrs_x` or an
//! `rrs_x::…` path that has no manifest edge behind it, and Cargo
//! refuses a dependency cycle.

use crate::lexer::is_ident_char;
use crate::report::Finding;
use crate::rules::RULE_LAYERING;
use std::collections::{BTreeMap, BTreeSet};

/// The lock file's name at the workspace root.
pub const LAYERS_FILE: &str = "layers.lock";

/// Adjacency list: crate name → the crates it depends on.
pub type Layers = BTreeMap<String, BTreeSet<String>>;

/// Extracts `name = "…"` from a manifest's `[package]` section.
#[must_use]
pub fn package_name(manifest: &str) -> Option<String> {
    section_value(manifest, "[package]", "name")
}

/// Reads `key = "value"` from one `[section]` of TOML-shaped text.
fn section_value(text: &str, section: &str, key: &str) -> Option<String> {
    let mut in_section = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == section;
            continue;
        }
        if in_section {
            if let Some(rest) = line.strip_prefix(key) {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The dependency names declared in a manifest's `[dependencies]`
/// section. `[dev-dependencies]` are deliberately excluded — test-only
/// edges (oracles, golden harnesses) do not constrain the runtime
/// layering — and `[workspace.dependencies]` is a version table, not an
/// edge list.
#[must_use]
pub fn manifest_deps(text: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `rrs-core.workspace = true` or `rrs-core = { … }`.
        let name: String = line
            .chars()
            .take_while(|&c| is_ident_char(c) || c == '-')
            .collect();
        if !name.is_empty() {
            deps.push(name);
        }
    }
    deps
}

/// Builds the live dependency graph from manifests.
///
/// `manifests` holds `(rel, text)` pairs for every discovered
/// `Cargo.toml`. Crates are the manifests' `[package]` names; edges are
/// their `[dependencies]` entries naming another member.
#[must_use]
pub fn actual_graph(manifests: &[(String, String)]) -> Layers {
    let packages: Vec<(String, &str)> = manifests
        .iter()
        .filter_map(|(_, text)| package_name(text).map(|pkg| (pkg, text.as_str())))
        .collect();
    let mut graph: Layers = packages
        .iter()
        .map(|(pkg, _)| (pkg.clone(), BTreeSet::new()))
        .collect();
    for (pkg, text) in &packages {
        for dep in manifest_deps(text) {
            if &dep != pkg && graph.contains_key(&dep) {
                graph.entry(pkg.clone()).or_default().insert(dep);
            }
        }
    }
    graph
}

/// The lock-file header comment.
const HEADER: &str = "\
# rrs-lint layering lock: the committed crate-dependency DAG, one line
# per crate (`crate: dep dep …`), read from each Cargo.toml's
# [dependencies] table. A new edge fails the lint until this file is
# regenerated with `cargo run -p rrs-lint -- --write-layers-lock`
# and the changed layering is defended in review.";

/// Renders the graph in lock format.
#[must_use]
pub fn render_lock(layers: &Layers) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (name, deps) in layers {
        out.push_str(name);
        out.push(':');
        for dep in deps {
            out.push(' ');
            out.push_str(dep);
        }
        out.push('\n');
    }
    out
}

/// Parses a lock file.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_lock(text: &str) -> Result<Layers, String> {
    let mut out = Layers::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, deps) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected `crate: deps…`", idx + 1))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("line {}: empty crate name", idx + 1));
        }
        out.insert(
            name.to_string(),
            deps.split_whitespace().map(str::to_string).collect(),
        );
    }
    Ok(out)
}

/// Compares the live graph against the lock, producing findings for
/// every drifted edge or crate. `manifest_of` maps crate names to their
/// manifest's root-relative path so new-edge findings point at the file
/// that declares them.
#[must_use]
pub fn check(
    lock_rel: &str,
    locked: &Layers,
    actual: &Layers,
    manifest_of: &BTreeMap<String, String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let empty = BTreeSet::new();
    for (name, deps) in actual {
        let locked_deps = locked.get(name);
        if locked_deps.is_none() {
            findings.push(Finding {
                rule: RULE_LAYERING,
                file: lock_rel.to_string(),
                line: 0,
                crate_name: name.clone(),
                message: format!(
                    "crate {name} has no entry in {lock_rel} — regenerate with \
                     --write-layers-lock"
                ),
            });
        }
        let locked_deps = locked_deps.unwrap_or(&empty);
        for dep in deps.difference(locked_deps) {
            findings.push(Finding {
                rule: RULE_LAYERING,
                file: manifest_of
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| lock_rel.to_string()),
                line: 0,
                crate_name: name.clone(),
                message: format!(
                    "new dependency edge {name} → {dep} is not in the committed \
                     layering — if the architecture change is intentional, \
                     regenerate {lock_rel} with --write-layers-lock and defend \
                     the edge in review"
                ),
            });
        }
        for dep in locked_deps.difference(deps) {
            findings.push(Finding {
                rule: RULE_LAYERING,
                file: lock_rel.to_string(),
                line: 0,
                crate_name: name.clone(),
                message: format!(
                    "locked edge {name} → {dep} no longer exists — ratchet the \
                     layering down with --write-layers-lock"
                ),
            });
        }
    }
    for name in locked.keys() {
        if !actual.contains_key(name) {
            findings.push(Finding {
                rule: RULE_LAYERING,
                file: lock_rel.to_string(),
                line: 0,
                crate_name: name.clone(),
                message: format!(
                    "locked crate {name} no longer exists — regenerate with \
                     --write-layers-lock"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(pkg: &str, deps: &[&str]) -> String {
        let mut text = format!("[package]\nname = \"{pkg}\"\n[dependencies]\n");
        for d in deps {
            text.push_str(&format!("{d} = {{ path = \"../{d}\" }}\n"));
        }
        text
    }

    #[test]
    fn manifest_edges_build_the_graph() {
        let manifests = vec![
            ("a/Cargo.toml".to_string(), manifest("a", &[])),
            ("b/Cargo.toml".to_string(), manifest("b", &["a"])),
        ];
        let graph = actual_graph(&manifests);
        assert_eq!(graph["a"], BTreeSet::new());
        assert_eq!(graph["b"], BTreeSet::from(["a".to_string()]));
    }

    #[test]
    fn dev_dependencies_are_not_edges() {
        let text = "[package]\nname = \"a\"\n[dev-dependencies]\nb = { path = \"../b\" }\n";
        let manifests = vec![
            ("a/Cargo.toml".to_string(), text.to_string()),
            ("b/Cargo.toml".to_string(), manifest("b", &[])),
        ];
        let graph = actual_graph(&manifests);
        assert!(graph["a"].is_empty(), "{graph:?}");
    }

    #[test]
    fn lock_round_trips() {
        let mut layers = Layers::new();
        layers.insert("a".into(), BTreeSet::new());
        layers.insert("b".into(), BTreeSet::from(["a".to_string()]));
        let parsed = parse_lock(&render_lock(&layers)).unwrap();
        assert_eq!(parsed, layers);
    }

    #[test]
    fn new_edges_and_stale_edges_are_findings() {
        let locked = parse_lock("a:\nb: a\n").unwrap();
        let mut actual = locked.clone();
        actual.get_mut("a").unwrap().insert("b".into());
        let manifest_of: BTreeMap<String, String> =
            [("a".to_string(), "crates/a/Cargo.toml".to_string())].into();
        let f = check("layers.lock", &locked, &actual, &manifest_of);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("a → b"), "{}", f[0].message);
        assert_eq!(f[0].file, "crates/a/Cargo.toml");

        let f = check("layers.lock", &actual, &locked, &manifest_of);
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("no longer exists"),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].file, "layers.lock");
    }

    #[test]
    fn malformed_lock_lines_are_rejected() {
        assert!(parse_lock("just-a-name-no-colon").is_err());
        assert!(parse_lock(": deps").is_err());
    }
}
