use super::*;
use crate::{Deserialize, Serialize};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

#[test]
fn scalars_round_trip() {
    for text in ["null", "true", "false", "12", "-7", "1.5", "\"hi\\n\""] {
        let v = parse(text).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }
}

#[test]
fn nested_round_trip() {
    let text = r#"{"a": [1, 2.5, {"b": null}], "c": "x\"y"}"#;
    let v = parse(text).unwrap();
    assert_eq!(parse(&to_string(&v)).unwrap(), v);
    assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
}

#[test]
fn nesting_is_bounded() {
    let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(parse(&nest(MAX_DEPTH)).is_ok(), "the limit itself parses");
    let mixed = r#"{"a":"#.repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
    assert!(parse(&mixed).is_ok(), "objects count toward the same limit");
    let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level past the limit");
    assert!(err.to_string().contains("nesting"), "{err}");
    // Far past the limit is refused the same way, not a stack overflow.
    assert!(parse(&"[".repeat(200_000)).is_err());
    assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
    // A typed read counts its own levels toward the same bound.
    assert!(from_str::<Vec<Value>>(&nest(MAX_DEPTH)).is_ok());
    assert!(from_str::<Vec<Value>>(&nest(MAX_DEPTH + 1)).is_err());
    assert!(from_str::<Vec<Value>>(&"[".repeat(200_000)).is_err());
}

#[test]
fn floats_round_trip_exactly() {
    let f = 0.123_456_789_012_345_68_f64;
    let v = Value::Float(f);
    match parse(&to_string(&v)).unwrap() {
        Value::Float(g) => assert_eq!(f, g),
        other => panic!("expected float, got {other:?}"),
    }
    assert_eq!(from_str::<f64>(&to_string(&f)).unwrap(), f);
}

fn string(text: &str) -> Result<String, Error> {
    match parse(text)? {
        Value::Str(s) => Ok(s),
        other => panic!("expected a string, got {other:?}"),
    }
}

#[test]
fn runs_keep_multi_byte_characters_whole() {
    for plain in ["µops", "café", "rocket 🚀 launch", "ü€🚀x", "🚀"] {
        let text = format!("\"{plain}\"");
        assert_eq!(string(&text).unwrap(), plain);
        // The same characters split by escapes on either side of a run.
        let escaped = format!("\"\\t{plain}\\n{plain}\\\"\"");
        assert_eq!(string(&escaped).unwrap(), format!("\t{plain}\n{plain}\""));
    }
}

#[test]
fn escapes_directly_around_runs() {
    assert_eq!(string(r#""\nabc""#).unwrap(), "\nabc");
    assert_eq!(string(r#""abc\n""#).unwrap(), "abc\n");
    assert_eq!(string(r#""\\\"""#).unwrap(), "\\\"");
    assert_eq!(string(r#""a\/b\u0041c""#).unwrap(), "a/bAc");
    assert_eq!(string(r#""""#).unwrap(), "");
}

#[test]
fn unterminated_strings_keep_their_error() {
    for text in ["\"abc", "\"µ🚀é", "\"a\\nb", "{\"key", "[\"abc\\\"def"] {
        let err = parse(text).expect_err(text);
        assert!(
            err.to_string().contains("unterminated string"),
            "{text}: {err}"
        );
    }
    let err = parse("\"abc\\").expect_err("dangling backslash");
    assert!(err.to_string().contains("unterminated escape"), "{err}");
}

#[test]
fn surrogate_pairs_decode_to_one_character() {
    assert_eq!(string(r#""\ud83d\ude80""#).unwrap(), "🚀");
    assert_eq!(string(r#""a\uD83D\uDE80b""#).unwrap(), "a🚀b");
    // The largest code point, U+10FFFF.
    assert_eq!(string(r#""\udbff\udfff""#).unwrap(), "\u{10FFFF}");
    // A non-BMP character survives the writer (which emits it raw) and
    // the parser both ways.
    let v = Value::Str("🚀".to_string());
    assert_eq!(parse(&to_string(&v)).unwrap(), v);
}

#[test]
fn lone_surrogates_are_refused() {
    for text in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\ud83d""#,
        r#""\ude80""#,
        r#""\ude80\ud83d""#,
    ] {
        let err = parse(text).expect_err(text);
        assert!(err.to_string().contains("surrogate"), "{text}: {err}");
    }
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    assert_eq!(string(r#""\u0041""#).unwrap(), "A");
    assert_eq!(string(r#""\u00e9\u00E9""#).unwrap(), "éé");
    assert_eq!(string(r#""\u00411""#).unwrap(), "A1");
    for text in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u004g""#,
        r#""\u00µ""#,
    ] {
        let err = parse(text).expect_err(text);
        assert!(
            err.to_string().contains("invalid \\u escape"),
            "{text}: {err}"
        );
    }
    let err = parse(r#""\u004""#).expect_err("three digits, then the quote");
    assert!(err.to_string().contains("escape"), "{err}");
    let err = parse(r#""\u00"#).expect_err("input ends inside the escape");
    assert!(err.to_string().contains("truncated"), "{err}");
}

/// Decoding is linear in the input, through the tree and through a typed
/// read alike.  Each size is four (or ten) times the last; a decoder that
/// re-scans the rest of the document per character takes 16 times longer
/// per step and blows the bound within the ladder.
#[test]
fn decoding_time_is_linear_in_document_size() {
    let bound = std::time::Duration::from_secs(2);
    fn timed<T>(decode: impl FnOnce() -> Result<T, Error>) -> (std::time::Duration, T) {
        let start = std::time::Instant::now();
        let value = decode().expect("valid document");
        (start.elapsed(), value)
    }
    for kib in [64, 256, 1024, 4096] {
        let text = format!("\"{}\"", "aµ".repeat(kib * 1024 / 3));
        let (elapsed, value) = timed(|| parse(&text));
        assert!(elapsed < bound, "a {kib} KiB string took {elapsed:?}");
        assert!(matches!(value, Value::Str(s) if s.len() == text.len() - 2));
        let (elapsed, typed) = timed(|| from_str::<String>(&text));
        assert!(elapsed < bound, "a typed {kib} KiB string took {elapsed:?}");
        assert_eq!(typed.len(), text.len() - 2);
    }
    for keys in [1_000, 10_000, 100_000] {
        let body: Vec<String> = (0..keys).map(|i| format!("\"k{i:06}\":{i}")).collect();
        let text = format!("{{{}}}", body.join(","));
        let (elapsed, value) = timed(|| parse(&text));
        assert!(elapsed < bound, "{keys} keys took {elapsed:?}");
        assert!(matches!(value, Value::Map(m) if m.len() == keys));
        let (elapsed, typed) = timed(|| from_str::<BTreeMap<String, u64>>(&text));
        assert!(elapsed < bound, "{keys} typed keys took {elapsed:?}");
        assert_eq!(typed.len(), keys);
    }
    for rows in [1_000, 10_000, 100_000] {
        let body: Vec<String> = (0..rows)
            .map(|i| format!("{{\"a\":{},\"b\":{i}.5,\"zz\":[{i}]}}", i % 60_000))
            .collect();
        let text = format!("[{}]", body.join(","));
        let (elapsed, typed) = timed(|| from_str::<Vec<Inner>>(&text));
        assert!(elapsed < bound, "{rows} typed rows took {elapsed:?}");
        assert_eq!(typed.len(), rows);
    }
}

// ---------------------------------------------------------------------------
// The tree writer as it stood before `Writer`: the oracle `Writer` must
// reproduce byte for byte.
// ---------------------------------------------------------------------------

mod oracle {
    use crate::Value;
    use std::fmt::Write as _;

    pub fn to_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, None, 0);
        out
    }

    pub fn to_string_pretty(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, Some(2), 0);
        out
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` prints the shortest representation that round-trips.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Seq(items) => {
                write_compound(out, indent, depth, '[', ']', items.len(), |out, i| {
                    write_value(out, &items[i], indent, depth + 1);
                })
            }
            Value::Map(entries) => {
                write_compound(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    write_string(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, &entries[i].1, indent, depth + 1);
                })
            }
        }
    }

    fn write_compound(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
        len: usize,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(width) = indent {
                out.push('\n');
                for _ in 0..(depth + 1) * width {
                    out.push(' ');
                }
            }
            item(out, i);
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..depth * width {
                out.push(' ');
            }
        }
        out.push(close);
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Random documents over every `Value` variant, with the corner cases the
/// formatting rules single out.
struct AnyValue;

impl Strategy for AnyValue {
    type Value = Value;
    fn sample(&self, rng: &mut TestRng) -> Value {
        random_value(rng, 4)
    }
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[(0..items.len()).sample(rng)].clone()
}

/// One of `corners`, or a value drawn by `random`.
fn corner<T: Clone>(rng: &mut TestRng, corners: &[T], random: impl Fn(&mut TestRng) -> T) -> T {
    match (0..corners.len() + 1).sample(rng) {
        i if i < corners.len() => corners[i].clone(),
        _ => random(rng),
    }
}

fn random_string(rng: &mut TestRng) -> String {
    const CHARS: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'µ',
        '€',
        '🚀',
        '\u{10FFFF}',
    ];
    let len = (0usize..8).sample(rng);
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

fn random_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match (0..kinds).sample(rng) {
        0 => Value::Null,
        1 => Value::Bool(any::<bool>().sample(rng)),
        2 => Value::UInt(corner(rng, &[0, 1, 9, 10, u64::MAX], |r| {
            any::<u64>().sample(r)
        })),
        3 => Value::Int(corner(rng, &[i64::MIN, -1, 0, i64::MAX], |r| {
            any::<i64>().sample(r)
        })),
        4 => Value::Float(corner(
            rng,
            &[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                1e300,
                5e-324,
                0.1,
                -2.5,
                1e16,
            ],
            |r| f64::from_bits(any::<u64>().sample(r)),
        )),
        5 => Value::Str(random_string(rng)),
        6 => Value::Seq(
            (0..(0usize..4).sample(rng))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..(0usize..4).sample(rng))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_writer_matches_the_tree_writer(doc in AnyValue) {
        prop_assert_eq!(to_string(&doc), oracle::to_string(&doc));
        prop_assert_eq!(to_string_pretty(&doc), oracle::to_string_pretty(&doc));
    }
}

#[test]
fn the_writer_matches_the_tree_writer_on_corner_cases() {
    let docs = [
        Value::Seq(vec![]),
        Value::Map(vec![]),
        Value::Seq(vec![Value::Seq(vec![]), Value::Map(vec![])]),
        Value::Map(vec![(
            "a".into(),
            Value::Map(vec![("".into(), Value::Seq(vec![Value::Null]))]),
        )]),
        Value::UInt(u64::MAX),
        Value::Int(i64::MIN),
        Value::Float(f64::NAN),
        Value::Str("\u{0}\u{1f}\"\\\n\r\t\u{7f}µ🚀".into()),
    ];
    for doc in &docs {
        assert_eq!(to_string(doc), oracle::to_string(doc));
        assert_eq!(to_string_pretty(doc), oracle::to_string_pretty(doc));
    }
}

// ---------------------------------------------------------------------------
// Derived types: the one-pass paths against the tree.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Counters {
    cycles: u64,
    ticks: u32,
    delta: i64,
    ratio: f64,
    name: String,
    tag: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    scenario: Option<String>,
    flags: Vec<bool>,
    inner: Inner,
    pair: (u8, String),
    kinds: Vec<Kind>,
    wrapped: Wrapped,
    two: Two,
    unit: Unit,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    a: u16,
    b: Option<f64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Kind {
    Plain,
    One(u32),
    Two(u8, i8),
    Named { x: u64, y: Option<bool> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapped(u64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Two(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

fn random_counters(rng: &mut TestRng) -> Counters {
    let maybe = |rng: &mut TestRng| any::<bool>().sample(rng).then(|| random_string(rng));
    Counters {
        cycles: corner(rng, &[0, u64::MAX], |r| any::<u64>().sample(r)),
        ticks: any::<u32>().sample(rng),
        delta: corner(rng, &[i64::MIN, 0], |r| any::<i64>().sample(r)),
        ratio: corner(rng, &[0.0, -0.0, 1e-300, 0.1], |r| (-1e6..1e6).sample(r)),
        name: random_string(rng),
        tag: maybe(rng),
        scenario: maybe(rng),
        flags: (0..(0usize..3).sample(rng))
            .map(|_| any::<bool>().sample(rng))
            .collect(),
        inner: Inner {
            a: any::<u16>().sample(rng),
            b: any::<bool>().sample(rng).then(|| (-5.0..5.0).sample(rng)),
        },
        pair: (any::<u8>().sample(rng), random_string(rng)),
        kinds: (0..(0usize..4).sample(rng))
            .map(|_| match (0..4).sample(rng) {
                0 => Kind::Plain,
                1 => Kind::One(any::<u32>().sample(rng)),
                2 => Kind::Two(any::<u8>().sample(rng), any::<i8>().sample(rng)),
                _ => Kind::Named {
                    x: any::<u64>().sample(rng),
                    y: any::<bool>().sample(rng).then(|| any::<bool>().sample(rng)),
                },
            })
            .collect(),
        wrapped: Wrapped(any::<u64>().sample(rng)),
        two: Two(any::<u8>().sample(rng), random_string(rng)),
        unit: Unit,
    }
}

struct AnyCounters;

impl Strategy for AnyCounters {
    type Value = Counters;
    fn sample(&self, rng: &mut TestRng) -> Counters {
        random_counters(rng)
    }
}

/// `read_json` must agree with `from_value(&parse(..))`: the same value,
/// or an error from both.
fn agree<T: Deserialize + PartialEq + Debug>(text: &str) -> Result<T, Error> {
    let typed = from_str::<T>(text);
    let tree = parse(text).and_then(|v| T::from_value(&v));
    match (&typed, &tree) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
        (Err(_), Err(_)) => {}
        _ => panic!("{text}\n  one pass: {typed:?}\n  tree:     {tree:?}"),
    }
    typed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn derived_writes_match_their_trees(doc in AnyCounters) {
        prop_assert_eq!(to_string(&doc), oracle::to_string(&doc.to_value()));
        prop_assert_eq!(to_string_pretty(&doc), oracle::to_string_pretty(&doc.to_value()));
        prop_assert_eq!(agree::<Counters>(&to_string(&doc)).as_ref(), Ok(&doc));
        prop_assert_eq!(agree::<Counters>(&to_string_pretty(&doc)).as_ref(), Ok(&doc));
    }

    #[test]
    fn damaged_documents_decode_alike(doc in AnyCounters, cut in any::<u64>(), byte in 0u8..128) {
        // Drop one character, or put one ASCII byte in front of it.
        let text = to_string(&doc);
        let at = (cut % text.len() as u64) as usize;
        let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        let rest = &text[at..];
        let next = rest.chars().next().map_or(0, char::len_utf8);
        let _ = agree::<Counters>(&format!("{}{}", &text[..at], &rest[next..]));
        let _ = agree::<Counters>(&format!("{}{}{rest}", &text[..at], byte as char));
    }
}

fn sample_counters() -> Counters {
    Counters {
        cycles: 12,
        ticks: 7,
        delta: -3,
        ratio: 0.5,
        name: "gzip".into(),
        tag: Some("t".into()),
        scenario: None,
        flags: vec![true, false],
        inner: Inner { a: 1, b: None },
        pair: (2, "p".into()),
        kinds: vec![
            Kind::Plain,
            Kind::One(4),
            Kind::Two(5, -6),
            Kind::Named {
                x: 8,
                y: Some(true),
            },
        ],
        wrapped: Wrapped(9),
        two: Two(1, "two".into()),
        unit: Unit,
    }
}

/// `doc` with the value of its first top-level `key` replaced by `value`
/// (the key kept).
fn with_field(doc: &str, key: &str, value: &str) -> String {
    let mut v = parse(doc).unwrap();
    let Value::Map(entries) = &mut v else {
        unreachable!()
    };
    let at = entries.iter().position(|(k, _)| k == key).unwrap();
    let head = to_string(&Value::Map(entries[..at].to_vec()));
    let tail = to_string(&Value::Map(entries[at + 1..].to_vec()));
    let mut out = head[..head.len() - 1].to_string();
    if at > 0 {
        out.push(',');
    }
    out += &format!("\"{key}\":{value}");
    if tail.len() > 2 {
        out.push(',');
        out += &tail[1..];
    } else {
        out.push('}');
    }
    out
}

/// `doc` with `fields` (raw `"key":value` text) added after its last field.
fn with_extra(doc: &str, fields: &str) -> String {
    format!("{},{fields}}}", &doc[..doc.len() - 1])
}

/// `doc` without its top-level `key`.
fn without(doc: &str, key: &str) -> String {
    let Value::Map(mut entries) = parse(doc).unwrap() else {
        unreachable!()
    };
    entries.retain(|(k, _)| k != key);
    to_string(&Value::Map(entries))
}

#[test]
fn one_pass_reads_mean_what_the_tree_means() {
    let base = sample_counters();
    let doc = to_string(&base);
    assert_eq!(agree::<Counters>(&doc), Ok(base.clone()));
    let ok = |text: &str| agree::<Counters>(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let err = |text: &str| {
        agree::<Counters>(text).expect_err(text);
    };

    // Duplicate keys: the first occurrence wins, and later ones are parsed
    // but never converted.
    let dup = with_extra(&doc, r#""cycles":"not a number""#);
    assert_eq!(ok(&dup).cycles, 12);
    err(&with_extra(&doc, r#""cycles":[1,"#));
    err(&with_extra(
        &with_field(&doc, "cycles", "\"x\""),
        r#""cycles":5"#,
    ));
    assert_eq!(
        ok(&with_extra(&doc, r#""scenario":"b","scenario":"c""#))
            .scenario
            .as_deref(),
        Some("b")
    );

    // Unknown keys are skipped, whatever they hold.
    ok(&with_extra(
        &doc,
        r#""zzz":{"deep":[1,2.5,{"x":null}],"s":"é"}"#,
    ));
    err(&with_extra(&doc, r#""zzz":18446744073709551616"#));
    err(&with_extra(&doc, r#""zzz":"\ud83d""#));

    // Missing keys read as null: `Option` fields become `None`.
    assert_eq!(ok(&without(&doc, "tag")).tag, None);
    assert_eq!(ok(&without(&doc, "scenario")).scenario, None);
    err(&without(&doc, "cycles"));
    // A unit struct reads anything, `null` included.
    ok(&without(&doc, "unit"));
    err("{}");

    // Wrong value types.
    for (key, value) in [
        ("cycles", "\"12\""),
        ("cycles", "-1"),
        ("cycles", "null"),
        ("cycles", "true"),
        ("ticks", "4294967296"),
        ("delta", "9223372036854775808"),
        ("ratio", "\"0.5\""),
        ("name", "5"),
        ("tag", "5"),
        ("flags", "{}"),
        ("flags", "[1]"),
        ("inner", "[]"),
        ("inner", "{\"a\":70000}"),
        ("pair", "[1]"),
        ("pair", "[1,\"a\",3]"),
        ("pair", "{\"0\":1}"),
        ("kinds", "[\"One\"]"),
        ("kinds", "[\"Missing\"]"),
        ("kinds", "[{\"Plain\":null}]"),
        ("kinds", "[{}]"),
        ("kinds", "[{\"One\":1,\"Two\":[1,2]}]"),
        ("kinds", "[{\"One\":1,\"One\":1}]"),
        ("kinds", "[{\"Two\":[1]}]"),
        ("kinds", "[{\"Two\":{\"0\":1}}]"),
        ("kinds", "[{\"Named\":[1]}]"),
        ("kinds", "[5]"),
        ("wrapped", "\"9\""),
        ("two", "[1]"),
        ("two", "{}"),
    ] {
        err(&with_field(&doc, key, value));
    }
    // Shapes the tree accepts that look wrong.
    ok(&with_field(&doc, "kinds", "[{\"Two\":[1,2,3]}]"));
    ok(&with_field(&doc, "kinds", "[{\"Named\":{\"x\":1}}]"));
    ok(&with_field(
        &doc,
        "kinds",
        "[{\"Named\":{\"x\":1,\"x\":\"b\",\"q\":0}}]",
    ));
    ok(&with_field(&doc, "two", "[1,\"a\",[3]]"));
    ok(&with_field(&doc, "unit", "{\"anything\":[1]}"));
    ok(&with_field(&doc, "ratio", "3"));
    ok(&with_field(&doc, "ratio", "-3"));
    ok(&with_field(&doc, "tag", "null"));

    // Numbers convert as `from_value` converts them.
    assert_eq!(ok(&with_field(&doc, "cycles", "-0")).cycles, 0);
    assert_eq!(ok(&with_field(&doc, "delta", "-0")).delta, 0);
    assert_eq!(
        ok(&with_field(&doc, "ratio", "-0")).ratio.to_bits(),
        0.0f64.to_bits()
    );
    assert_eq!(ok(&with_field(&doc, "ratio", "1e400")).ratio, f64::INFINITY);
    err(&with_field(&doc, "cycles", "1e400"));
    err(&with_field(&doc, "cycles", "18446744073709551616"));
    assert_eq!(
        ok(&with_field(&doc, "cycles", "18446744073709551615")).cycles,
        u64::MAX
    );
    err(&with_field(&doc, "cycles", "1.0"));
    err(&with_field(&doc, "cycles", "1e2"));
    err(&with_field(&doc, "cycles", "1-2"));
    assert_eq!(ok(&with_field(&doc, "cycles", "007")).cycles, 7);

    // An escaped key is the key it spells.
    let escaped = doc.replacen("\"cycles\"", r#""cyc\u006ces""#, 1);
    assert_ne!(escaped, doc);
    assert_eq!(ok(&escaped).cycles, 12);

    // Trailing text.
    err(&format!("{doc} x"));
    err(&format!("{doc}{doc}"));
    ok(&format!(" \n{doc}\t\r\n"));

    // Nesting inside a skipped field counts toward the bound: the outer
    // object is level 1, so 127 levels fit and 128 do not.
    let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    ok(&with_extra(
        &doc,
        &format!("\"zzz\":{}", nest(MAX_DEPTH - 1)),
    ));
    err(&with_extra(&doc, &format!("\"zzz\":{}", nest(MAX_DEPTH))));
    err(&with_extra(
        &doc,
        &format!("\"zzz\":{}", nest(MAX_DEPTH + 1)),
    ));
    err(&with_extra(
        &doc,
        &format!("\"zzz\":{}", "[".repeat(200_000)),
    ));
}

#[test]
fn one_pass_reads_of_library_types_mean_what_the_tree_means() {
    // Maps keep the last of a repeated key, as collecting the tree does.
    let map = agree::<BTreeMap<String, u8>>(r#"{"a":1,"b":2,"a":3}"#).unwrap();
    assert_eq!(map["a"], 3);
    agree::<BTreeMap<String, u8>>(r#"{"a":1,"a":"x"}"#).unwrap_err();
    agree::<[u8; 2]>("[1,2]").unwrap();
    agree::<[u8; 2]>("[1,2,3]").unwrap_err();
    agree::<(u8, u8, u8)>("[1,2,3]").unwrap();
    agree::<(u8, u8, u8)>("[1,2]").unwrap_err();
    agree::<Option<Option<u8>>>("null").unwrap();
    agree::<Option<Unit>>("null").unwrap();
    agree::<char>("\"é\"").unwrap();
    agree::<char>("\"ab\"").unwrap_err();
    agree::<i8>("-128").unwrap();
    agree::<i8>("-129").unwrap_err();
    agree::<u8>("256").unwrap_err();
    agree::<f32>("0.1").unwrap();
    agree::<String>("\"a\\u0041\"").unwrap();
    agree::<String>("[\"a\"]").unwrap_err();
    agree::<Value>(r#"{"a":[1,-2,3.5,"x",null,true]}"#).unwrap();
    agree::<Vec<u64>>("[]").unwrap();
    agree::<Vec<u64>>("[1,]").unwrap_err();
    agree::<Vec<u64>>("[,1]").unwrap_err();
    agree::<Inner>(r#"{"a":1,}"#).unwrap_err();
    agree::<Inner>(r#"{"a" 1}"#).unwrap_err();
    agree::<Inner>(r#"{a:1}"#).unwrap_err();
    agree::<Unit>("[[[]]]").unwrap();
    agree::<Unit>("[[[]]").unwrap_err();
}
