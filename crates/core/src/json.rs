//! The workspace's one JSON writer: string escaping, the two float
//! renderings and array joining, shared by the run journal
//! ([`crate::telemetry`]), the `cmm-ckpt/1` checkpoint payloads and the
//! `BENCH_sim.json` perf log (both in `cmm-bench`).
//!
//! The build environment has no serde, so every document is rendered by
//! hand on top of these helpers; rendering them in one place is what
//! keeps the documents' bytes in step with each other.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// `s` as the body of a JSON string literal: `"` and `\` are
/// backslash-escaped and control characters become `\u00XX`. Borrows
/// `s` when nothing needs escaping, which is every label the harness
/// writes.
pub fn escape(s: &str) -> Cow<'_, str> {
    if !s.chars().any(|c| c == '"' || c == '\\' || (c as u32) < 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// A float at 6 decimals — journal and perf-log precision (a decision
/// log, not a bit-exact dump). Non-finite values render as `0.0`, since
/// JSON has no NaN.
#[derive(Debug, Clone, Copy)]
pub struct Fixed6(pub f64);

impl fmt::Display for Fixed6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:.6}", self.0)
        } else {
            f.write_str("0.0")
        }
    }
}

/// A float in Rust's shortest round-trip form, so parsing it back yields
/// the same bits — the checkpoint payload precision. Non-finite values
/// render as `0`.
#[derive(Debug, Clone, Copy)]
pub struct Lossless(pub f64);

impl fmt::Display for Lossless {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("0")
        }
    }
}

/// Appends `items` to `out` as a JSON array, each item rendered by its
/// `Display` (numbers, [`Fixed6`], [`Lossless`], or already-rendered
/// JSON objects).
pub fn push_array<T: fmt::Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{item}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("a\nb"), "a\\u000ab");
        assert!(matches!(escape("PrefAgg-00: CMM-a"), Cow::Borrowed(_)));
    }

    #[test]
    fn floats_render_at_their_precision_and_degrade_when_non_finite() {
        assert_eq!(Fixed6(1.5).to_string(), "1.500000");
        assert_eq!(Fixed6(f64::NAN).to_string(), "0.0");
        let v = 1.087_227_344_123_456_7;
        assert_eq!(Lossless(v).to_string().parse::<f64>(), Ok(v), "must round-trip bit-exactly");
        assert_eq!(Lossless(0.05).to_string(), "0.05");
        assert_eq!(Lossless(f64::INFINITY).to_string(), "0");
    }

    #[test]
    fn arrays_join_with_commas() {
        let mut s = String::new();
        push_array(&mut s, [1u64, 2, 3]);
        push_array(&mut s, Vec::<u64>::new());
        push_array(&mut s, [Lossless(0.5)]);
        assert_eq!(s, "[1,2,3][][0.5]");
    }
}
