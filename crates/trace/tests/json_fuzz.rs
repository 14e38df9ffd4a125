//! Fuzz `mt_trace::json`: any text, and any truncation or one-byte
//! mutation of a committed `BENCH_*.json`, parses to a value or an error —
//! never a panic — and every tree the renderers can be given parses back
//! to itself from both the compact and the pretty form.

use mt_trace::json::{parse, Json};
use proptest::prelude::*;

/// The committed benchmark documents, the largest JSON the repository
/// writes.
const DOCUMENTS: [&str; 6] = [
    include_str!("../../../BENCH_chaos.json"),
    include_str!("../../../BENCH_dse.json"),
    include_str!("../../../BENCH_fault.json"),
    include_str!("../../../BENCH_mca.json"),
    include_str!("../../../BENCH_serve.json"),
    include_str!("../../../BENCH_sim.json"),
];

/// How deeply `parse` lets arrays and objects nest.
const MAX_DEPTH: usize = 128;

/// Bytes that make up JSON text, so fuzzed input gets past the first byte.
const ALPHABET: &[u8] = b"{}[]\":, \n-+.0123456789eEtrufalsn\\/bu";

/// A string with quotes, backslashes, control characters, and BMP and
/// non-BMP characters.
fn string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..6, any::<u32>()), 0..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, raw)| match kind {
                0 => ['"', '\\', '/'][raw as usize % 3],
                1 => char::from_u32(raw % 0x20).expect("a control character"),
                2 => char::from_u32(0x80 + raw % 0xD780).expect("below the surrogates"),
                3 => char::from_u32(0x10000 + raw % 0x10_0000).expect("a non-BMP scalar"),
                _ => char::from(0x20 + (raw % 0x5F) as u8),
            })
            .collect()
    })
}

/// A leaf the renderers keep exactly: finite floats (others render as
/// `null`) and negative `I64`s (non-negative integers parse as `U64`).
fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::U64),
        any::<u64>().prop_map(|v| Json::I64(-1 - (v >> 1) as i64)),
        any::<f64>().prop_filter_map("finite", |v| v.is_finite().then_some(Json::F64(v))),
        string().prop_map(Json::Str),
    ]
}

/// How many arrays and objects nest in `v`.
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A random tree wrapped in single-member arrays and objects, up to
/// `MAX_DEPTH` levels in all.
fn tree() -> impl Strategy<Value = Json> {
    let branchy = leaf().prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
            prop::collection::vec((string(), inner), 0..5).prop_map(Json::Obj),
        ]
    });
    (branchy, 0..=MAX_DEPTH, any::<u64>()).prop_map(|(mut v, wraps, kinds)| {
        for level in 0..wraps.min(MAX_DEPTH - depth(&v)) {
            v = if kinds >> (level % 64) & 1 == 0 {
                Json::Arr(vec![v])
            } else {
                Json::Obj(vec![(format!("k{level}"), v)])
            };
        }
        v
    })
}

#[test]
fn committed_documents_parse() {
    for doc in DOCUMENTS {
        assert!(parse(doc).is_ok(), "{}", &doc[..80]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in prop::collection::vec((any::<bool>(), any::<u8>()), 0..200),
    ) {
        let bytes: Vec<u8> = picks
            .into_iter()
            .map(|(raw, b)| if raw { b } else { ALPHABET[b as usize % ALPHABET.len()] })
            .collect();
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn trees_round_trip_compact_and_pretty(v in tree()) {
        prop_assert!(depth(&v) <= MAX_DEPTH);
        prop_assert_eq!(parse(&v.to_string()), Ok(v.clone()));
        prop_assert_eq!(parse(&v.pretty()), Ok(v.clone()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn damaged_documents_never_panic(
        doc in 0..DOCUMENTS.len(),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let text = DOCUMENTS[doc];
        let mut end = cut % (text.len() + 1);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let _ = parse(&text[..end]);
        let mut bytes = text.as_bytes().to_vec();
        bytes[at % text.len()] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}
