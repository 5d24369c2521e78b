//! Findings, the scan report, and its text/JSONL renderings.

use crate::budget::Budgets;
use crate::walk::SourceFile;
use rrs_core::io::json_string;
use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule identifier (e.g. `float-eq`).
    pub rule: &'static str,
    /// Root-relative file path.
    pub file: String,
    /// 1-based line number; 0 for file- or workspace-level findings.
    pub line: usize,
    /// Owning crate, when known.
    pub crate_name: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// Convenience constructor for per-line findings.
    #[must_use]
    pub fn new(rule: &'static str, file: &SourceFile, line: usize, message: String) -> Self {
        Finding {
            rule,
            file: file.rel.clone(),
            line,
            crate_name: file.crate_name.clone(),
            message,
        }
    }

    /// Renders the finding as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"crate\":{},\"message\":{}}}",
            json_string(self.rule),
            json_string(&self.file),
            self.line,
            json_string(&self.crate_name),
            json_string(&self.message),
        )
    }
}

/// The result of scanning a tree.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Panic-site counts per crate (non-test library code).
    pub budgets: Budgets,
    /// Number of Rust sources scanned.
    pub files_scanned: usize,
    /// The live crate-dependency graph ([`crate::layers`]).
    pub layers: crate::layers::Layers,
    /// The live public-API surface per crate ([`crate::api`]).
    pub api: crate::api::Surface,
}

impl Report {
    /// Is the tree free of findings?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders findings as JSONL, one object per line (empty string
    /// when clean).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line == 0 {
                let _ = writeln!(out, "{}: [{}] {}", f.file, f.rule, f.message);
            } else {
                let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            }
        }
        let _ = write!(
            out,
            "rrs-lint: {} file(s), {} crate(s), {} finding(s)",
            self.files_scanned,
            self.layers.len(),
            self.findings.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "float-eq",
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            crate_name: "rrs-x".into(),
            message: "exact `==` with \"quotes\"".into(),
        }
    }

    #[test]
    fn json_escapes_and_shapes() {
        let j = finding().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rule\":\"float-eq\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\\\"quotes\\\""));
    }

    #[test]
    fn jsonl_has_one_line_per_finding() {
        let report = Report {
            findings: vec![finding(), finding()],
            budgets: Budgets::new(),
            files_scanned: 1,
            layers: crate::layers::Layers::new(),
            api: crate::api::Surface::new(),
        };
        assert_eq!(report.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn render_includes_location_and_summary() {
        let report = Report {
            findings: vec![finding()],
            budgets: Budgets::new(),
            files_scanned: 3,
            layers: crate::layers::parse_lock("a:\nb: a\n").unwrap(),
            api: crate::api::Surface::new(),
        };
        let text = report.render();
        assert!(text.contains("crates/x/src/lib.rs:7: [float-eq]"));
        assert!(text.contains("3 file(s), 2 crate(s), 1 finding(s)"));
    }
}
