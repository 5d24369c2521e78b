//! Plain-text import/export of rating datasets.
//!
//! A deliberately simple CSV dialect so users can bring their own rating
//! data to the detectors and schemes (or export synthetic challenges for
//! other tools):
//!
//! ```text
//! rater,product,day,value,source
//! 17,0,12.5,4.0,fair
//! 1000003,2,61.25,0.5,unfair
//! ```
//!
//! The `source` column is optional on import (defaults to `fair`); the
//! header row is required. No quoting is needed — every field is
//! numeric or a fixed keyword — which keeps the format trivially
//! interoperable with spreadsheet tools.

use crate::{
    CoreError, ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue, Timestamp,
};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from dataset import.
#[derive(Debug)]
#[non_exhaustive]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header row is missing or malformed.
    Header {
        /// The offending header line.
        found: String,
    },
    /// A data row could not be parsed.
    Row {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A parsed field violated a domain constraint.
    Domain {
        /// 1-based line number.
        line: usize,
        /// The underlying domain error.
        source: CoreError,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Header { found } => {
                write!(
                    f,
                    "expected header 'rater,product,day,value[,source]', found {found:?}"
                )
            }
            CsvError::Row { line, message } => write!(f, "line {line}: {message}"),
            CsvError::Domain { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Domain { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes a dataset as CSV.
///
/// Rows are emitted grouped by product and in time order within each
/// product — the same order [`RatingDataset::iter`] yields.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_csv<W: Write>(dataset: &RatingDataset, mut writer: W) -> Result<(), CsvError> {
    writeln!(writer, "rater,product,day,value,source")?;
    for entry in dataset.iter() {
        let r = entry.rating();
        writeln!(
            writer,
            "{},{},{},{},{}",
            r.rater().value(),
            r.product().value(),
            r.time().as_days(),
            r.value().get(),
            entry.source(),
        )?;
    }
    Ok(())
}

/// Renders a dataset as a CSV string.
#[must_use]
pub fn to_csv_string(dataset: &RatingDataset) -> String {
    let mut buf = Vec::new();
    // Writing to a Vec cannot fail, and the output is ASCII; the lossy
    // conversion makes both facts checker-visible without a panic path.
    let _ = write_csv(dataset, &mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

/// Writes a dataset as a JSON array of rating objects:
///
/// ```json
/// [
///   {"rater":17,"product":0,"day":12.5,"value":4.0,"source":"fair"}
/// ]
/// ```
///
/// Hand-rolled on purpose: every field is a finite number or one of two
/// fixed keywords, so the workspace stays free of a serialization
/// dependency. Row order matches [`write_csv`].
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_json<W: Write>(dataset: &RatingDataset, mut writer: W) -> Result<(), CsvError> {
    writeln!(writer, "[")?;
    let total = dataset.len();
    for (i, entry) in dataset.iter().enumerate() {
        let r = entry.rating();
        let comma = if i + 1 < total { "," } else { "" };
        writeln!(
            writer,
            "  {{\"rater\":{},\"product\":{},\"day\":{},\"value\":{},\"source\":\"{}\"}}{comma}",
            r.rater().value(),
            r.product().value(),
            json_number(r.time().as_days()),
            json_number(r.value().get()),
            entry.source(),
        )?;
    }
    writeln!(writer, "]")?;
    Ok(())
}

/// Renders a dataset as a JSON string.
#[must_use]
pub fn to_json_string(dataset: &RatingDataset) -> String {
    let mut buf = Vec::new();
    // Same reasoning as `to_csv_string`: infallible writer, ASCII output.
    let _ = write_json(dataset, &mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

/// Formats a finite `f64` as a JSON number (Rust's shortest round-trip
/// `Display`, with a trailing `.0` forced onto integral values so the
/// field reads back as floating-point in typed consumers).
#[must_use]
pub fn json_number(x: f64) -> String {
    debug_assert!(x.is_finite(), "rating fields are finite by construction");
    let s = x.to_string();
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Formats any `f64` as a valid JSON token: finite values go through
/// [`json_number`], non-finite ones (NaN/±inf, which JSON cannot
/// represent) become `null`.
///
/// Metric values cross this API unvalidated — a gauge can legally be
/// set to the result of a division that went 0/0 — so the serializer,
/// not the caller, owns producing parseable output.
#[must_use]
pub fn json_number_or_null(x: f64) -> String {
    if x.is_finite() {
        json_number(x)
    } else {
        "null".to_string()
    }
}

/// Escapes and quotes `s` as a JSON string literal.
///
/// Handles the two mandatory escapes (`"` and `\`), the common control
/// characters as their short forms (`\n`, `\r`, `\t`, `\u{8}`, `\u{c}`),
/// and every other control character as `\u00XX`. Non-ASCII characters
/// pass through unescaped — JSON documents are UTF-8, so `é` or `日` are
/// valid in string bodies as-is.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One scalar field of a flat JSONL object.
///
/// Numbers are carried as their raw tokens: the consumer decides
/// whether a field is a `u64` (ids, bit patterns — which do not fit
/// losslessly in an `f64`) or an `f64` (shortest-round-trip floats),
/// so this layer never forces a lossy representation on either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonScalar {
    /// A numeric field, as its raw token (validated to parse as `f64`).
    Number(String),
    /// A string field, with escapes resolved.
    Text(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonScalar {
    /// The field as an `f64`, if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The field as a `u64`, if it is numeric and a plain non-negative
    /// integer token (bit-exact — no round trip through `f64`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The field as a string, if it is one.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            JsonScalar::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one line of JSONL as a flat object of scalar fields.
///
/// This is the read half of the JSONL dialect the workspace writes
/// (`write_json` rows, WAL events, checkpoint records): exactly one
/// object per line, string keys, scalar values only. It is strict on
/// purpose — nested containers, duplicate keys, trailing garbage, and
/// malformed escapes are errors, never guesses — because its callers
/// replay durable state where a misread field means silent corruption.
///
/// Field order is preserved.
///
/// # Errors
///
/// Returns a human-readable message with the byte offset of the
/// problem.
pub fn parse_jsonl_object(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut p = JsonCursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.require(b'{')?;
    let mut fields: Vec<(String, JsonScalar)> = Vec::new();
    p.skip_ws();
    if !p.eat(b'}') {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            p.require(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            fields.push((key, value));
            p.skip_ws();
            if p.eat(b',') {
                continue;
            }
            p.require(b'}')?;
            break;
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(fields)
}

/// Looks up a field by name in a parsed JSONL object.
#[must_use]
pub fn jsonl_field<'a>(fields: &'a [(String, JsonScalar)], name: &str) -> Option<&'a JsonScalar> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Byte cursor over one JSONL line.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonCursor<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                char::from(b),
                self.pos,
                self.bytes.get(self.pos).map(|&c| char::from(c)),
            ))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn scalar(&mut self) -> Result<JsonScalar, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonScalar::Text(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(JsonScalar::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonScalar::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(JsonScalar::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "expected a scalar at byte {}, found {:?}",
                self.pos,
                other.map(|&c| char::from(c)),
            )),
        }
    }

    fn number(&mut self) -> Result<JsonScalar, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // The token set above is ASCII, so the slice is valid UTF-8.
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        let parsed: Result<f64, _> = raw.parse();
        if parsed.is_err() {
            return Err(format!("bad number {raw:?} at byte {start}"));
        }
        Ok(JsonScalar::Number(raw))
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a maximal unescaped run in one UTF-8-safe slice.
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
                out.push_str(run);
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(format!("unescaped control character at byte {}", self.pos));
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err("unterminated escape".to_string());
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad \\u escape {hex:?} at byte {at}"))?;
                self.pos += 4;
                // Surrogate pairs are rejected rather than decoded: the
                // writers in this workspace never emit them (non-ASCII
                // passes through as UTF-8).
                char::from_u32(code)
                    .ok_or_else(|| format!("\\u escape {hex:?} is not a scalar value"))?
            }
            other => {
                return Err(format!(
                    "unknown escape {:?} at byte {at}",
                    char::from(other)
                ))
            }
        })
    }
}

/// Parses a rater id from its decimal text form.
///
/// Ids are identities, not measurements: the field must be a plain
/// base-10 integer in `[0, u32::MAX]`. A fractional id like `7.9`, a
/// negative one, scientific notation, or anything beyond the 32-bit
/// space is an error, never a coercion — the old float-parse-then-cast
/// path silently aliased such inputs onto a *different rater's*
/// identity, which corrupts per-rater beta trust.
///
/// # Errors
///
/// Returns a human-readable message naming the field and the offending
/// token.
pub fn parse_rater_id(field: &str) -> Result<RaterId, String> {
    // The range check proves the cast lossless.
    parse_integer_id(field, "rater id", u64::from(u32::MAX)).map(|v| RaterId::new(v as u32))
}

/// Parses a product id from its decimal text form.
///
/// Same contract as [`parse_rater_id`] with the product id's 16-bit
/// range: a plain base-10 integer in `[0, u16::MAX]`, everything else
/// rejected.
///
/// # Errors
///
/// Returns a human-readable message naming the field and the offending
/// token.
pub fn parse_product_id(field: &str) -> Result<ProductId, String> {
    // The range check proves the cast lossless.
    parse_integer_id(field, "product id", u64::from(u16::MAX)).map(|v| ProductId::new(v as u16))
}

fn parse_integer_id(field: &str, what: &str, max: u64) -> Result<u64, String> {
    let t = field.trim();
    match t.parse::<u64>() {
        Ok(v) if v <= max => Ok(v),
        Ok(v) => Err(format!("{what} {v} is out of range (maximum {max})")),
        // Not a plain non-negative integer. Parse as a float purely to
        // say *why* it was rejected.
        Err(_) => match t.parse::<f64>() {
            Ok(x) if x < 0.0 => Err(format!("{what} must be non-negative, found {t:?}")),
            Ok(_) => Err(format!(
                "{what} must be a plain integer in [0, {max}], found {t:?}"
            )),
            Err(e) => Err(format!("bad {what} {t:?}: {e}")),
        },
    }
}

/// Parses a day (fractional days since the horizon start).
///
/// Days must be finite and non-negative. `NaN`, infinities, and
/// negative times are rejected with an explicit error instead of being
/// saturated or passed through to corrupt window arithmetic downstream.
///
/// # Errors
///
/// Returns a human-readable message naming the offending token.
pub fn parse_day(field: &str) -> Result<Timestamp, String> {
    let t = field.trim();
    let x: f64 = t.parse().map_err(|e| format!("bad day {t:?}: {e}"))?;
    if x < 0.0 {
        return Err(format!("day must be non-negative, found {t:?}"));
    }
    Timestamp::new(x).map_err(|e| format!("bad day {t:?}: {e}"))
}

/// Parses a rating value on the 0–5 scale via [`RatingValue::new`] —
/// never the clamping constructor, so out-of-scale input is an error
/// the submitter sees, not a silent 5.0.
///
/// # Errors
///
/// Returns a human-readable message naming the offending token.
pub fn parse_value(field: &str) -> Result<RatingValue, String> {
    let t = field.trim();
    let x: f64 = t.parse().map_err(|e| format!("bad value {t:?}: {e}"))?;
    RatingValue::new(x).map_err(|e| format!("bad value {t:?}: {e}"))
}

/// Reads a dataset from CSV.
///
/// Accepts both 4-column (`rater,product,day,value`) and 5-column
/// (`…,source`) data; blank lines are skipped.
///
/// # Errors
///
/// Returns [`CsvError`] on I/O failures, a bad header, unparsable rows,
/// or out-of-domain values.
pub fn read_csv<R: Read>(reader: R) -> Result<RatingDataset, CsvError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    let normalized = header.trim().to_ascii_lowercase();
    if normalized != "rater,product,day,value,source" && normalized != "rater,product,day,value" {
        return Err(CsvError::Header { found: header });
    }

    let mut dataset = RatingDataset::new();
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2; // 1-based, after the header
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() != 4 && fields.len() != 5 {
            return Err(CsvError::Row {
                line: line_no,
                message: format!("expected 4 or 5 fields, found {}", fields.len()),
            });
        }
        let parse_num = |s: &str, what: &str| -> Result<f64, CsvError> {
            s.trim().parse::<f64>().map_err(|e| CsvError::Row {
                line: line_no,
                message: format!("bad {what} {s:?}: {e}"),
            })
        };
        let row_err = |message: String| CsvError::Row {
            line: line_no,
            message,
        };
        let rater = parse_rater_id(fields[0]).map_err(row_err)?;
        let product = parse_product_id(fields[1]).map_err(row_err)?;
        let time = parse_day(fields[2]).map_err(row_err)?;
        let value = parse_num(fields[3], "value")?;
        let source = match fields.get(4).map(|s| s.trim().to_ascii_lowercase()) {
            None => RatingSource::Fair,
            Some(s) if s == "fair" => RatingSource::Fair,
            Some(s) if s == "unfair" => RatingSource::Unfair,
            Some(s) => {
                return Err(CsvError::Row {
                    line: line_no,
                    message: format!("source must be 'fair' or 'unfair', found {s:?}"),
                })
            }
        };
        let value = RatingValue::new(value).map_err(|source| CsvError::Domain {
            line: line_no,
            source,
        })?;
        dataset.insert(Rating::new(rater, product, time, value), source);
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RatingDataset {
        let mut d = RatingDataset::new();
        d.insert(
            Rating::new(
                RaterId::new(1),
                ProductId::new(0),
                Timestamp::new(1.5).unwrap(),
                RatingValue::new(4.0).unwrap(),
            ),
            RatingSource::Fair,
        );
        d.insert(
            Rating::new(
                RaterId::new(2),
                ProductId::new(1),
                Timestamp::new(2.25).unwrap(),
                RatingValue::new(0.5).unwrap(),
            ),
            RatingSource::Unfair,
        );
        d
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let original = sample();
        let csv = to_csv_string(&original);
        let restored = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(restored.len(), original.len());
        let pairs = original.iter().zip(restored.iter());
        for (a, b) in pairs {
            assert_eq!(a.rating(), b.rating());
            assert_eq!(a.source(), b.source());
        }
    }

    #[test]
    fn json_export_is_wellformed_and_ordered() {
        let json = to_json_string(&sample());
        assert_eq!(
            json,
            "[\n  {\"rater\":1,\"product\":0,\"day\":1.5,\"value\":4.0,\"source\":\"fair\"},\n  \
             {\"rater\":2,\"product\":1,\"day\":2.25,\"value\":0.5,\"source\":\"unfair\"}\n]\n"
        );
    }

    #[test]
    fn json_export_of_empty_dataset_is_empty_array() {
        assert_eq!(to_json_string(&RatingDataset::new()), "[\n]\n");
    }

    #[test]
    fn json_number_forces_float_shape_on_integral_values() {
        assert_eq!(json_number(10.0), "10.0");
        assert_eq!(json_number(1.5), "1.5");
    }

    #[test]
    fn json_number_or_null_handles_non_finite() {
        assert_eq!(json_number_or_null(2.5), "2.5");
        assert_eq!(json_number_or_null(10.0), "10.0");
        assert_eq!(json_number_or_null(f64::NAN), "null");
        assert_eq!(json_number_or_null(f64::INFINITY), "null");
        assert_eq!(json_number_or_null(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn json_string_escapes_quotes_and_backslashes() {
        assert_eq!(json_string(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(json_string(r"a\b"), r#""a\\b""#);
        // An already-escaped-looking input must be escaped again, not
        // passed through: the writer escapes *content*, not syntax.
        assert_eq!(json_string(r#"\""#), r#""\\\"""#);
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("a\rb"), "\"a\\rb\"");
        assert_eq!(json_string("a\tb"), "\"a\\tb\"");
        assert_eq!(json_string("a\u{8}b"), "\"a\\bb\"");
        assert_eq!(json_string("a\u{c}b"), "\"a\\fb\"");
        // Control characters without a short form use \u00XX.
        assert_eq!(json_string("a\u{0}b"), "\"a\\u0000b\"");
        assert_eq!(json_string("a\u{1f}b"), "\"a\\u001fb\"");
        // 0x7F (DEL) is not a JSON-mandated escape; it passes through.
        assert_eq!(json_string("a\u{7f}b"), "\"a\u{7f}b\"");
    }

    #[test]
    fn json_string_passes_non_ascii_through_as_utf8() {
        assert_eq!(json_string("café"), "\"café\"");
        assert_eq!(json_string("日本語"), "\"日本語\"");
        assert_eq!(json_string("emoji 🎉"), "\"emoji 🎉\"");
        // Mixed: the multibyte characters survive while the neighbors
        // still get escaped.
        assert_eq!(json_string("é\n\"日\""), "\"é\\n\\\"日\\\"\"");
    }

    #[test]
    fn json_string_plain_ascii_is_just_quoted() {
        assert_eq!(json_string(""), "\"\"");
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(
            json_string("with space / punct."),
            "\"with space / punct.\""
        );
    }

    #[test]
    fn four_column_import_defaults_to_fair() {
        let csv = "rater,product,day,value\n7,3,10.0,4.5\n";
        let d = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(d.len(), 1);
        let entry = d.iter().next().unwrap();
        assert_eq!(entry.source(), RatingSource::Fair);
        assert_eq!(entry.value(), 4.5);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "rater,product,day,value\n\n7,3,10.0,4.5\n\n";
        assert_eq!(read_csv(csv.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn bad_header_is_rejected() {
        let e = read_csv("who,what,when\n".as_bytes()).unwrap_err();
        assert!(matches!(e, CsvError::Header { .. }));
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn bad_row_reports_line_number() {
        let csv = "rater,product,day,value\n1,2,3\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        match e {
            CsvError::Row { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn out_of_scale_value_reports_domain_error() {
        let csv = "rater,product,day,value\n1,2,3.0,9.5\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(e, CsvError::Domain { line: 2, .. }));
        assert!(e.source().is_some());
    }

    #[test]
    fn bad_source_keyword_rejected() {
        let csv = "rater,product,day,value,source\n1,2,3.0,4.0,bogus\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn header_is_case_insensitive() {
        let csv = "Rater,Product,Day,Value,Source\n1,2,3.0,4.0,fair\n";
        assert_eq!(read_csv(csv.as_bytes()).unwrap().len(), 1);
    }

    /// The id-aliasing regression: every input the old float-then-cast
    /// path would have silently coerced onto another rater's identity
    /// must now be a row error naming the line.
    #[test]
    fn negative_rater_id_is_rejected_not_wrapped() {
        let csv = "rater,product,day,value\n-1,0,1.0,4.0\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        match e {
            CsvError::Row { line, ref message } => {
                assert_eq!(line, 2);
                assert!(message.contains("rater id"), "message: {message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn oversized_rater_id_is_rejected_not_saturated() {
        // u32::MAX + 1000: the old path saturated this onto rater
        // u32::MAX, silently merging it with the max legal identity.
        let csv = format!("rater,product,day,value\n{},0,1.0,4.0\n", 4_294_968_295u64);
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(
            matches!(e, CsvError::Row { line: 2, .. }),
            "wrong error: {e}"
        );
        assert!(e.to_string().contains("out of range"), "message: {e}");
    }

    #[test]
    fn fractional_rater_id_is_rejected_not_truncated() {
        // 7.9 used to truncate to rater 7 — a different identity.
        let csv = "rater,product,day,value\n7.9,0,1.0,4.0\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(
            matches!(e, CsvError::Row { line: 2, .. }),
            "wrong error: {e}"
        );
        assert!(e.to_string().contains("integer"), "message: {e}");
    }

    #[test]
    fn product_id_range_is_enforced() {
        let csv = "rater,product,day,value\n1,65536,1.0,4.0\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("product id"), "message: {e}");
        let csv = "rater,product,day,value\n1,-2,1.0,4.0\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("non-negative"), "message: {e}");
    }

    #[test]
    fn max_legal_ids_round_trip() {
        let mut d = RatingDataset::new();
        d.insert(
            Rating::new(
                RaterId::new(u32::MAX),
                ProductId::new(u16::MAX),
                Timestamp::new(3.0).unwrap(),
                RatingValue::new(4.0).unwrap(),
            ),
            RatingSource::Fair,
        );
        let restored = read_csv(to_csv_string(&d).as_bytes()).unwrap();
        let entry = restored.iter().next().unwrap();
        assert_eq!(entry.rater(), RaterId::new(u32::MAX));
        assert_eq!(entry.rating().product(), ProductId::new(u16::MAX));
    }

    /// The day-validation regression: negatives and NaN parse as floats
    /// but are not times; both must be explicit row errors.
    #[test]
    fn negative_day_is_rejected() {
        let csv = "rater,product,day,value\n1,0,-2.5,4.0\n";
        let e = read_csv(csv.as_bytes()).unwrap_err();
        assert!(
            matches!(e, CsvError::Row { line: 2, .. }),
            "wrong error: {e}"
        );
        assert!(e.to_string().contains("non-negative"), "message: {e}");
    }

    #[test]
    fn nan_day_is_rejected() {
        for bad in ["NaN", "nan", "inf", "-inf"] {
            let csv = format!("rater,product,day,value\n1,0,{bad},4.0\n");
            let e = read_csv(csv.as_bytes()).unwrap_err();
            assert!(
                matches!(e, CsvError::Row { line: 2, .. }),
                "{bad}: wrong error: {e}"
            );
        }
    }

    #[test]
    fn field_parsers_accept_legal_forms() {
        assert_eq!(parse_rater_id(" 42 ").unwrap(), RaterId::new(42));
        assert_eq!(
            parse_rater_id(&u32::MAX.to_string()).unwrap(),
            RaterId::new(u32::MAX)
        );
        assert_eq!(parse_product_id("65535").unwrap(), ProductId::new(u16::MAX));
        assert_eq!(parse_day("12.5").unwrap(), Timestamp::new(12.5).unwrap());
        assert_eq!(parse_value("4.5").unwrap(), RatingValue::new(4.5).unwrap());
        assert!(parse_value("5.5").is_err());
        assert!(parse_value("NaN").is_err());
    }

    #[test]
    fn jsonl_object_parses_scalars_in_order() {
        let fields = parse_jsonl_object(
            r#"{"rater":17,"day":12.5,"source":"fair","ok":true,"gone":null,"neg":-3.25e2}"#,
        )
        .unwrap();
        assert_eq!(fields.len(), 6);
        assert_eq!(fields[0].0, "rater");
        assert_eq!(jsonl_field(&fields, "rater").unwrap().as_u64(), Some(17));
        assert_eq!(jsonl_field(&fields, "day").unwrap().as_f64(), Some(12.5));
        assert_eq!(
            jsonl_field(&fields, "source").unwrap().as_text(),
            Some("fair")
        );
        assert_eq!(jsonl_field(&fields, "ok").unwrap(), &JsonScalar::Bool(true));
        assert_eq!(jsonl_field(&fields, "gone").unwrap(), &JsonScalar::Null);
        assert_eq!(jsonl_field(&fields, "neg").unwrap().as_f64(), Some(-325.0));
        assert!(jsonl_field(&fields, "missing").is_none());
    }

    #[test]
    fn jsonl_numbers_keep_u64_bit_exactness() {
        // f64 bit patterns exceed 2^53: a reader that round-tripped
        // numbers through f64 would corrupt them.
        let bits = 0x3FF8_0000_0000_0001u64; // 1.5 + 1 ulp
        let fields = parse_jsonl_object(&format!("{{\"bits\":{bits}}}")).unwrap();
        assert_eq!(jsonl_field(&fields, "bits").unwrap().as_u64(), Some(bits));
    }

    #[test]
    fn jsonl_strings_unescape() {
        let fields = parse_jsonl_object(r#"{"s":"a\n\"b\"\\c\u0041"}"#).unwrap();
        assert_eq!(
            jsonl_field(&fields, "s").unwrap().as_text(),
            Some("a\n\"b\"\\cA")
        );
    }

    #[test]
    fn jsonl_round_trips_write_json_rows() {
        // The write side emits rows like write_json's; the reader must
        // accept them verbatim (minus the array punctuation).
        let json = to_json_string(&sample());
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(|l| l.trim().trim_end_matches(','))
            .collect();
        assert_eq!(rows.len(), 2);
        let fields = parse_jsonl_object(rows[0]).unwrap();
        assert_eq!(jsonl_field(&fields, "rater").unwrap().as_u64(), Some(1));
        assert_eq!(jsonl_field(&fields, "day").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn jsonl_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,2]",
            "{\"a\":1} extra",
            "{\"a\":1,\"a\":2}",
            "{\"a\":{}}",
            "{\"a\":[1]}",
            "{\"a\":tru}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"bad \\q escape\"}",
            "{\"a\":--1}",
            "{\"a\":1,}",
            "{a:1}",
        ] {
            assert!(parse_jsonl_object(bad).is_err(), "accepted {bad:?}");
        }
    }
}
