//! The JSON reader the regression gate stands on: it reads back
//! everything the encoder writes, never panics on hostile input, and
//! every committed baseline passes the gate against itself.

use proptest::prelude::*;
use tcc_obs::json::{Json, MAX_DEPTH};

/// Finite floats across the whole range: arbitrary bit patterns (NaN
/// and infinities folded to a finite value) plus small whole numbers,
/// which the encoder writes with a trailing `.0`.
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                -0.5
            }
        }),
        (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
    ]
}

fn json_tree() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        finite_f64().prop_map(Json::Num),
        "[ -~\n\t\r\u{1}\u{7f}é😀\"\\\\]{0,8}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(5, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
            prop::collection::vec(("[a-z_\"\\\\é]{0,6}", inner), 0..5).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_both_encodings(j in json_tree()) {
        prop_assert_eq!(Json::parse(&j.pretty()), Ok(j.clone()));
        prop_assert_eq!(Json::parse(&j.to_string()), Ok(j));
    }

    #[test]
    fn every_strict_prefix_is_an_error(j in json_tree()) {
        // A document is only complete at its last byte, except for a
        // bare number, whose prefixes may be numbers themselves.
        let text = j.to_string();
        if !matches!(j, Json::Int(_) | Json::Num(_)) {
            for (cut, _) in text.char_indices().skip(1) {
                prop_assert!(Json::parse(&text[..cut]).is_err(), "{:?} parsed", &text[..cut]);
            }
        }
    }

    #[test]
    fn garbage_never_panics(s in "[ -~\n\té]{0,40}") {
        let _ = Json::parse(&s);
    }

    #[test]
    fn json_shaped_garbage_never_panics(s in "[\\[\\]{}:,\"\\\\0-9eE.+\\-nulltrfase ]{0,40}") {
        let _ = Json::parse(&s);
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":", "[{\"a\":"] {
        let deep = open.repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
    let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
    assert!(Json::parse(&ok).is_ok());
}

#[test]
fn every_baseline_passes_the_gate_against_itself() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    let mut gated = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("baselines/ exists") {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let j = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let Some(Json::Str(exp)) = j.get("experiment") else {
            panic!("{}: no experiment name", path.display());
        };
        if let Err(report) = tcc_suite::check(exp, &text, &text) {
            panic!("{}:\n{report}", path.display());
        }
        gated.push(exp.clone());
    }
    for exp in tcc_suite::experiments() {
        assert!(gated.iter().any(|g| g == exp), "no baseline for {exp}");
    }
}

#[test]
fn timed_experiments_emit_json_the_reader_reads() {
    use tcc_suite::{codegen_bench, codegen_json, regalloc_bench, regalloc_json};
    // Two allocators × three sizes × two windows; four shapes × three
    // back ends.
    for (j, rows) in [
        (regalloc_json(&regalloc_bench(true)), 12),
        (codegen_json(&codegen_bench(true)), 12),
    ] {
        let text = j.pretty();
        assert_eq!(tcc_suite::check::rows(&text).unwrap().len(), rows);
        assert_eq!(Json::parse(&text), Ok(j));
    }
}
