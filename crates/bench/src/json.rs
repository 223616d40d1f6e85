//! A tiny strict JSON validator (RFC 8259) for the hand-rolled emitters.
//!
//! The workspace serializes every report by hand (no serde by policy),
//! which historically let two classes of invalid JSON slip out: bare
//! `NaN`/`inf` tokens from `{:.3}` on non-finite floats, and raw control
//! characters or quotes in strings. This module is the guard: a
//! recursive-descent checker that accepts exactly the RFC 8259 grammar —
//! no `NaN`, no `Infinity`, no trailing commas, no unescaped control
//! characters, one top-level value. Every `to_json()` output and every
//! committed `results/BENCH_*.json` is run through it in
//! `crates/bench/tests/json_validity.rs`.
//!
//! It validates; it does not build a document tree — the emitters are
//! tested by shape elsewhere, this only answers "would a real parser
//! accept these bytes?".

/// The shared `meta` header every bench report embeds: the bench name,
/// the root MEI seed the run derived its randomness from, and the
/// host's hardware thread count — enough to tell two committed
/// `results/BENCH_*.json` files apart without diffing their payloads.
/// Emit as `"meta":<this>` as the report's first key; the value is one
/// strict-JSON object (name escaped via [`runtime::json_escape`]).
#[must_use]
pub fn meta(bench: &str, mei_seed: u64) -> String {
    let hw_threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"bench\":\"{}\",\"mei_seed\":{mei_seed},\"hw_threads\":{hw_threads}}}",
        runtime::json_escape(bench)
    )
}

/// Emit a finished bench report: validate it as strict JSON, print it to
/// stdout, and write it to the file named by the environment variable
/// `path_var` (e.g. `MEI_BENCH_JSON`) when that is set.
///
/// # Panics
///
/// Panics if `report` is not strict JSON (an emitter bug) or the file
/// cannot be written.
pub fn emit(report: &str, path_var: &str) {
    if let Err(err) = validate(report) {
        panic!("{path_var} report is not strict JSON: {err}");
    }
    println!("{report}");
    if let Ok(path) = std::env::var(path_var) {
        if let Err(err) = std::fs::write(&path, report) {
            panic!("cannot write {path_var} report to '{path}': {err}");
        }
    }
}

/// Validate that `text` is exactly one well-formed JSON value.
///
/// # Errors
///
/// A human-readable message naming the byte offset and what was expected.
pub fn validate(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos),
        Some(&b) => Err(format!(
            "unexpected byte 0x{b:02x} at byte {pos} (NaN/Infinity are not JSON)",
            pos = *pos
        )),
        None => Err(format!("unexpected end of input at byte {}", *pos)),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // the '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a string key at byte {}", *pos));
        }
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // the '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // the opening quote
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(b) if b.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "unescaped control byte 0x{b:02x} in string at byte {}",
                    *pos
                ))
            }
            Some(_) => *pos += 1, // UTF-8 continuation bytes pass through
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: a lone 0, or a nonzero digit run (no leading zeros).
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(format!("expected a digit at byte {}", *pos)),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(format!("expected a fraction digit at byte {}", *pos));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(format!("expected an exponent digit at byte {}", *pos));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    debug_assert!(*pos > start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{meta, validate};

    #[test]
    fn meta_header_is_strict_json_with_the_expected_keys() {
        let header = meta("fleet_serving", 42);
        assert!(validate(&header).is_ok(), "meta must validate: {header}");
        assert!(header.starts_with("{\"bench\":\"fleet_serving\""));
        assert!(header.contains("\"mei_seed\":42"));
        assert!(header.contains("\"hw_threads\":"));
        // A hostile bench name is escaped, not emitted raw.
        let hostile = meta("a\"b\\c\nd", 7);
        assert!(validate(&hostile).is_ok(), "escaped name: {hostile}");
    }

    #[test]
    fn accepts_the_grammar() {
        for ok in [
            "null",
            "true",
            "[]",
            "{}",
            "0",
            "-0.5",
            "1e-9",
            "3.125E+4",
            "\"a b\\nc\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"\"}",
            " { \"x\" : [ 1 , 2 ] } ",
        ] {
            assert!(validate(ok).is_ok(), "{ok} must validate");
        }
    }

    #[test]
    fn rejects_non_finite_tokens() {
        for bad in ["NaN", "inf", "-inf", "Infinity", "{\"x\":NaN}", "[1,inf]"] {
            assert!(validate(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"ctrl\nchar\"",
            "\"bad\\escape\"",
            "{} {}",
            "1 2",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn reports_byte_offsets() {
        let err = validate("{\"a\":NaN}").unwrap_err();
        assert!(err.contains("byte 5"), "got: {err}");
    }
}
