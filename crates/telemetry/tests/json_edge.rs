//! Edge-case coverage for the hand-rolled JSON parser in
//! `cst_telemetry::json`: escape handling, unicode, nesting depth,
//! exponent-form numbers, and truncated input. Every malformed input must
//! come back as a clean `Err` — the parser sits on the `cstuner report`
//! path, so a hostile journal line must never panic the CLI.

use cst_telemetry::json::{parse, write_escaped, Value, MAX_DEPTH};

#[test]
fn escaped_quotes_and_backslashes_round_trip() {
    for original in [
        r#"a"b"#,
        r"back\slash",
        r#"both \" at once \\ twice"#,
        "\\",
        "\"",
        "\\\"\\",
        "trailing backslash\\",
    ] {
        let mut buf = String::new();
        write_escaped(&mut buf, original);
        assert_eq!(parse(&buf).unwrap().as_str(), Some(original), "via {buf}");
    }
    // Hand-written escapes (not produced by our writer) parse too.
    assert_eq!(parse(r#""\"\\\/""#).unwrap().as_str(), Some("\"\\/"));
    assert_eq!(parse(r#""\b\f\n\r\t""#).unwrap().as_str(), Some("\u{8}\u{c}\n\r\t"));
}

#[test]
fn unicode_strings_round_trip() {
    // The long input alternates plain runs with escapes and multi-byte
    // characters, so run boundaries land next to every kind of byte.
    let long = ["plain run ", "ünïcödé 日本 🜁 ", "quote \" and \\ ", "\n"].repeat(1_000).concat();
    for original in ["héllo wörld", "日本語テキスト", "emoji 🜁🜂", "mix \u{1} ünïcode\n", &long]
    {
        let mut buf = String::new();
        write_escaped(&mut buf, original);
        assert_eq!(parse(&buf).unwrap().as_str(), Some(original));
    }
    // \u escapes decode, including a raw control escape.
    assert_eq!(parse("\"\\u00e9\\u0001\"").unwrap().as_str(), Some("é\u{1}"));
    // A lone surrogate escape maps to the replacement character rather
    // than panicking (our writer never produces surrogates).
    assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
}

#[test]
fn truncated_unicode_escape_is_a_clean_err() {
    assert!(parse(r#""\u00"#).is_err());
    assert!(parse(r#""\u"#).is_err());
    assert!(parse(r#""\uzzzz""#).is_err());
}

#[test]
fn deeply_nested_objects_and_arrays_parse() {
    let depth = 200;
    let mut src = String::new();
    for _ in 0..depth {
        src.push_str(r#"{"k":["#);
    }
    src.push('1');
    for _ in 0..depth {
        src.push_str("]}");
    }
    let mut v = parse(&src).unwrap();
    for _ in 0..depth {
        v = v.get("k").and_then(|a| a.as_arr()).map(|a| a[0].clone()).unwrap();
    }
    assert_eq!(v.as_f64(), Some(1.0));
}

#[test]
fn hostile_nesting_is_a_clean_err_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let err = parse(&open.repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
    // The cap itself still parses; one level more does not.
    let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&at_cap).is_ok());
    let over = format!("[{at_cap}]");
    assert!(parse(&over).unwrap_err().contains("nesting deeper than"));
}

#[test]
fn numbers_with_exponents_parse_exactly() {
    for (src, want) in [
        ("1e3", 1e3f64),
        ("1E3", 1e3),
        ("-2.5e-2", -2.5e-2),
        ("6.02e+23", 6.02e23),
        ("0.0", 0.0),
        ("-0.0", -0.0),
        ("1e308", 1e308),
    ] {
        let got = parse(src).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{src}");
    }
    // Overflowing exponents saturate to infinity per strtod semantics; the
    // parser must not reject or panic.
    assert_eq!(parse("1e999").unwrap().as_f64(), Some(f64::INFINITY));
    // Malformed numbers are clean errors.
    for bad in ["1e", "1e+", "--1", "1.2.3", "+1", "0x10"] {
        assert!(parse(bad).is_err(), "{bad} should not parse");
    }
}

#[test]
fn truncated_input_is_a_clean_err_never_a_panic() {
    let full = r#"{"type":"iteration","seq":3,"v_s":1.5,"xs":[1,2,3],"s":"a\"b"}"#;
    for end in 1..full.len() {
        if !full.is_char_boundary(end) {
            continue;
        }
        let cut = &full[..end];
        assert!(parse(cut).is_err(), "truncation at {end} ({cut}) parsed");
    }
    assert!(parse(full).is_ok());
    assert!(parse("").is_err());
    assert!(parse("   ").is_err());
}

#[test]
fn objects_keep_key_order_and_allow_duplicates_first_wins() {
    let v = parse(r#"{"b":1,"a":2}"#).unwrap();
    match &v {
        Value::Obj(fields) => {
            assert_eq!(fields[0].0, "b");
            assert_eq!(fields[1].0, "a");
        }
        other => panic!("expected object, got {other:?}"),
    }
    // `get` returns the first occurrence of a duplicated key.
    let dup = parse(r#"{"k":1,"k":2}"#).unwrap();
    assert_eq!(dup.get("k").and_then(Value::as_f64), Some(1.0));
}
