//! The design ablations at smoke size. The experiment asserts that the
//! unrolling variants agree, that cspec-first computes `5 + 1 + 30·5`,
//! and that the pruned translator table is smaller than the full one;
//! running it here keeps those asserts in the test suite, not only in
//! benchmark runs.

use tickc::obs::json::Json;
use tickc::suite::{ablation_bench, ablation_json};

#[test]
fn ablations_hold_at_smoke_size() {
    let rows = ablation_bench(true);
    let groups = [
        "closure_allocation",
        "translator_table",
        "vcode_spill_checks",
        "cspec_first",
        "dynamic_unrolling",
    ];
    for g in groups {
        assert!(rows.iter().any(|r| r.group == g), "no {g} rows");
    }
    let count = |group: &str, variant: &str, name: &str| {
        let r = rows
            .iter()
            .find(|r| r.group == group && r.variant == variant)
            .unwrap_or_else(|| panic!("no {group}/{variant}"));
        r.counts.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    };
    // Figure 2: the operand-order heuristic saves registers, so the
    // generated code is shorter and faster.
    assert!(
        count("cspec_first", "cspec_first", "cycles")
            < count("cspec_first", "naive_order", "cycles")
    );
    // §4.4: the full partial-evaluation package beats the kept loop.
    assert!(
        count("dynamic_unrolling", "unrolled_hardwired", "cycles")
            < count("dynamic_unrolling", "loop_kept", "cycles")
    );
    // BENCH_ablations.json reads back through the gate's reader.
    let j = ablation_json(&rows);
    assert_eq!(Json::parse(&j.pretty()), Ok(j));
}
