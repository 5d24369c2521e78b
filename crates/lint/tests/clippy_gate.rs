//! The toolchain half of the lint gate: the bans that moved from
//! rrs-lint to `clippy.toml`, `[workspace.lints]` and rustc must still
//! fire.
//!
//! `crates/lint/clippy_gate/` seeds one violation of each, one module
//! per retired rule. The test copies that crate under the target
//! directory, gives the copy the root `[workspace.lints]` tables as its
//! `[lints]`, and runs `cargo clippy` on it with `CLIPPY_CONF_DIR` at
//! the repository root, so it exercises the live configuration rather
//! than a copy of it. The findings must be exactly the expected
//! `(file, line, lint)` set: dropping a ban from either file fails it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every finding the seeded crate must produce, and nothing else.
const EXPECTED: &[(&str, usize, &str)] = &[
    // A reasonless `#[allow]`: both halves of the waiver discipline.
    ("src/allow.rs", 1, "clippy::allow_attributes"),
    ("src/allow.rs", 1, "clippy::allow_attributes_without_reason"),
    // entropy: `RandomState`, `DefaultHasher`.
    ("src/entropy.rs", 4, "clippy::disallowed_types"),
    ("src/entropy.rs", 8, "clippy::disallowed_types"),
    // hash-iteration: the iterated map cannot even be named.
    ("src/hash_iter.rs", 1, "clippy::disallowed_types"),
    // default-hasher: `HashMap` and `HashSet`.
    ("src/hashed.rs", 1, "clippy::disallowed_types"),
    ("src/hashed.rs", 3, "clippy::disallowed_types"),
    ("src/hashed.rs", 4, "clippy::disallowed_types"),
    ("src/hashed.rs", 12, "clippy::disallowed_types"),
    // print: `println!`, `eprintln!`, `dbg!`.
    ("src/output.rs", 2, "clippy::print_stdout"),
    ("src/output.rs", 3, "clippy::print_stderr"),
    ("src/output.rs", 4, "clippy::dbg_macro"),
    // A stale `#[expect]` is an error, like a stale `lint:allow`.
    ("src/stale_expect.rs", 1, "unfulfilled_lint_expectations"),
    // sync-primitive: `Mutex`, `RwLock`, `AtomicU64`, `Condvar`,
    // `thread_local!`, and a use of a `static mut`.
    ("src/sync.rs", 1, "clippy::disallowed_types"),
    ("src/sync.rs", 2, "clippy::disallowed_types"),
    ("src/sync.rs", 3, "clippy::disallowed_types"),
    ("src/sync.rs", 5, "clippy::disallowed_types"),
    ("src/sync.rs", 9, "clippy::disallowed_macros"),
    ("src/sync.rs", 14, "unsafe_code"),
    // thread-spawn: `spawn`, `Builder::spawn`, `scope`.
    ("src/thread.rs", 4, "clippy::disallowed_methods"),
    ("src/thread.rs", 8, "clippy::disallowed_methods"),
    ("src/thread.rs", 13, "clippy::disallowed_methods"),
    // wallclock: `Instant::now`, `SystemTime::now`.
    ("src/wallclock.rs", 2, "clippy::disallowed_methods"),
    ("src/wallclock.rs", 3, "clippy::disallowed_methods"),
];

#[test]
fn toolchain_bans_fire_on_every_seeded_violation() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("clippy_gate");
    if work.exists() {
        fs::remove_dir_all(&work).expect("stale gate copy is removable");
    }
    let krate = work.join("crate");
    copy_dir(&repo_root().join("crates/lint/clippy_gate"), &krate);
    let root_manifest =
        fs::read_to_string(repo_root().join("Cargo.toml")).expect("root Cargo.toml is readable");
    let lints = member_lints(&root_manifest);
    assert!(
        lints.contains("[lints.rust]") && lints.contains("[lints.clippy]"),
        "the root Cargo.toml has no [workspace.lints] tables:\n{lints}"
    );
    let manifest = krate.join("Cargo.toml");
    let own = fs::read_to_string(&manifest).expect("gate manifest is readable");
    fs::write(&manifest, format!("{own}\n{lints}")).expect("gate manifest is writable");

    let output = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .current_dir(&krate)
        .env("CARGO_TARGET_DIR", work.join("target"))
        .env("CLIPPY_CONF_DIR", repo_root())
        .output()
        .expect("cargo clippy runs (is the clippy component installed?)");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 clippy output");

    let got = findings(&stdout);
    let expected: BTreeSet<(String, usize, String)> = EXPECTED
        .iter()
        .map(|&(file, line, lint)| (file.to_string(), line, lint.to_string()))
        .collect();
    let missing: Vec<_> = expected.difference(&got).collect();
    let unexpected: Vec<_> = got.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "clippy findings on the seeded crate drifted\nmissing: {missing:?}\n\
         unexpected: {unexpected:?}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Clippy reports `disallowed_macros` at the crate root whatever item an
/// `#[expect]` sits on, so the two `thread_local!` waivers are crate-wide.
/// This keeps them as narrow as the files they stand for: only the
/// rrs-core and rrs-obs library roots may waive a `disallowed_*` lint at
/// a crate root, only for the macro, and in rrs-core only `par.rs` may
/// use it.
#[test]
fn crate_root_waivers_stay_narrow() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["src", "tests", "examples", "benches"] {
        rust_files(&root.join(dir), &mut sources);
    }
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    for member in crates.filter_map(Result::ok) {
        for dir in ["src", "tests", "examples", "benches"] {
            rust_files(&member.path().join(dir), &mut sources);
        }
    }
    assert!(sources.len() > 100, "source walk looks truncated");

    let waivable_roots = [
        root.join("crates/core/src/lib.rs"),
        root.join("crates/obs/src/lib.rs"),
    ];
    for path in &sources {
        let text = fs::read_to_string(path).expect("source is readable");
        // Inner attributes sit at column 0, so a line start anchors them.
        for waiver in format!("\n{text}").split("\n#![expect(").skip(1) {
            let waiver = waiver.split(")]").next().unwrap_or("");
            if !waiver.contains("clippy::disallowed_") {
                continue;
            }
            assert!(
                waivable_roots.contains(path)
                    && !waiver.contains("disallowed_types")
                    && !waiver.contains("disallowed_methods"),
                "{} waives a disallowed_* lint for a whole module or crate; \
                 put #[expect] on the sanctioned item instead",
                path.display()
            );
        }
        let in_core = path.starts_with(root.join("crates/core/src"));
        if in_core && !path.ends_with("par.rs") {
            let mut code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
            assert!(
                !code.any(|l| l.contains("thread_local!")),
                "{} uses thread_local!, which rrs-core sanctions only in par.rs",
                path.display()
            );
        }
    }
}

/// The root's `[workspace.lints.*]` tables, re-headed as a member's
/// `[lints.*]` tables.
fn member_lints(root_manifest: &str) -> String {
    let mut out = String::new();
    let mut in_lints = false;
    for line in root_manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_lints = trimmed.starts_with("[workspace.lints.");
            if in_lints {
                out.push_str(&trimmed.replacen("[workspace.lints.", "[lints.", 1));
                out.push('\n');
            }
            continue;
        }
        if in_lints {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("gate copy directory is creatable");
    for entry in fs::read_dir(from).expect("gate crate is readable") {
        let path = entry.expect("directory entry").path();
        let dest = to.join(path.file_name().expect("entries have names"));
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            fs::copy(&path, &dest).expect("gate file copies");
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(file, line, lint)` of every coded diagnostic in cargo's JSON
/// message stream, located at its primary span.
fn findings(stdout: &str) -> BTreeSet<(String, usize, String)> {
    let mut out = BTreeSet::new();
    for line in stdout.lines() {
        let message = Json::parse(line);
        if message.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let Some(diagnostic) = message.get("message") else {
            continue;
        };
        let Some(code) = diagnostic
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
        else {
            continue;
        };
        let Some(Json::Array(spans)) = diagnostic.get("spans") else {
            continue;
        };
        for span in spans {
            if !matches!(span.get("is_primary"), Some(Json::Bool(true))) {
                continue;
            }
            let file = span.get("file_name").and_then(Json::as_str);
            let line = match span.get("line_start") {
                Some(Json::Number(n)) => *n as usize,
                _ => 0,
            };
            if let Some(file) = file {
                out.insert((file.to_string(), line, code.to_string()));
            }
        }
    }
    out
}

/// Just enough JSON for cargo's message stream.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, or `Null` for anything malformed.
    fn parse(text: &str) -> Json {
        let chars: Vec<char> = text.chars().collect();
        let mut pos = 0;
        parse_value(&chars, &mut pos).unwrap_or(Json::Null)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
        *pos += 1;
    }
}

/// Parses the items of an object or array up to `close`, one per
/// `item` call, skipping the commas between them.
fn parse_items(
    chars: &[char],
    pos: &mut usize,
    close: char,
    mut item: impl FnMut(&mut usize) -> Option<()>,
) -> Option<()> {
    *pos += 1;
    loop {
        skip_ws(chars, pos);
        match *chars.get(*pos)? {
            c if c == close => break,
            ',' => *pos += 1,
            _ => item(pos)?,
        }
    }
    *pos += 1;
    Some(())
}

fn parse_value(chars: &[char], pos: &mut usize) -> Option<Json> {
    skip_ws(chars, pos);
    match *chars.get(*pos)? {
        '{' => {
            let mut fields = Vec::new();
            parse_items(chars, pos, '}', |pos| {
                let Json::String(key) = parse_value(chars, pos)? else {
                    return None;
                };
                skip_ws(chars, pos);
                (*chars.get(*pos)? == ':').then_some(())?;
                *pos += 1;
                fields.push((key, parse_value(chars, pos)?));
                Some(())
            })?;
            Some(Json::Object(fields))
        }
        '[' => {
            let mut items = Vec::new();
            parse_items(chars, pos, ']', |pos| {
                items.push(parse_value(chars, pos)?);
                Some(())
            })?;
            Some(Json::Array(items))
        }
        '"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let c = *chars.get(*pos)?;
                *pos += 1;
                match c {
                    '"' => return Some(Json::String(s)),
                    '\\' => {
                        let e = *chars.get(*pos)?;
                        *pos += 1;
                        match e {
                            'n' => s.push('\n'),
                            't' => s.push('\t'),
                            'r' => s.push('\r'),
                            'u' => {
                                let hex: String = chars.get(*pos..*pos + 4)?.iter().collect();
                                *pos += 4;
                                let unit = u32::from_str_radix(&hex, 16).ok()?;
                                s.push(char::from_u32(unit).unwrap_or('\u{fffd}'));
                            }
                            // `"`, `\`, `/`; `\b` and `\f` never matter here.
                            other => s.push(other),
                        }
                    }
                    other => s.push(other),
                }
            }
        }
        _ => {
            let word: String = chars[*pos..]
                .iter()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.'))
                .collect();
            *pos += word.len();
            match word.as_str() {
                "true" => Some(Json::Bool(true)),
                "false" => Some(Json::Bool(false)),
                "null" => Some(Json::Null),
                number => number.parse().ok().map(Json::Number),
            }
        }
    }
}
