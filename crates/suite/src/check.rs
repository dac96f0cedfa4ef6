//! Benchmark regression gate: compare a fresh set of `BENCH_*.json`
//! files against the committed baselines in `baselines/`.
//!
//! Every bound lives in one declarative table, [`GATES`]: one row per
//! (experiment, row key, column, [`Bound`]). One checker, [`check`],
//! reads each file's `"rows"` array with [`Json::parse`] and applies the
//! experiment's table rows; [`check_set`] runs it over every experiment
//! in the table.
//!
//! Wall-clock nanoseconds are machine- and load-dependent, so the
//! relative bounds sit on *ratios* measured back-to-back on one machine
//! (engine speedups, tail ratios, warm-start speedups) or on wide
//! tolerances (serve throughput and p99). The shared semantics:
//!
//! * a fresh row that lacks a gated column, or holds `null` in it (the
//!   encoder writes `null` for non-finite floats), fails;
//! * a baseline value that is zero or absent warns, and that relative
//!   bound is skipped — an old baseline never turns into a spurious
//!   failure;
//! * a baseline row missing from the fresh run fails; a fresh-only row
//!   is noted (it is new) and held to the absolute bounds only;
//! * an empty fresh file is an error.
//!
//! The adaptive tail bound checks the ratio for *consistency*, not for
//! being above 1.0: whether the background worker beats the synchronous
//! engine at a given (kernel, reuse) point depends on the host (on one
//! CPU the worker time-shares the core with the VM). The baseline
//! records the measuring machine's ratios and the gate catches relative
//! regressions either way.

use std::collections::BTreeMap;
use std::path::Path;
use tcc_obs::json::Json;

/// What a gated column must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Relative, higher is better: `fresh ≥ base·(1−t)`.
    Higher(f64),
    /// Relative, lower is better: `fresh ≤ base/(1−t)`.
    Lower(f64),
    /// Absolute floor: `fresh ≥ x`.
    Floor(f64),
    /// Absolute ceiling: `fresh ≤ x`.
    Ceiling(f64),
    /// `fresh ≥` the same fresh row's value of the named column.
    AtLeast(&'static str),
}

/// One row of the gate table.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// The experiment, i.e. the file `BENCH_<experiment>.json`.
    pub experiment: &'static str,
    /// The columns that identify a row (the same for every gate of one
    /// experiment).
    pub key: &'static [&'static str],
    /// The gated column.
    pub column: &'static str,
    /// What the column must satisfy.
    pub bound: Bound,
    /// Apply only to the fresh row with the largest numeric key (the
    /// biggest serve pool).
    pub largest_row_only: bool,
}

const fn gate(
    experiment: &'static str,
    key: &'static [&'static str],
    column: &'static str,
    bound: Bound,
) -> Gate {
    Gate {
        experiment,
        key,
        column,
        bound,
        largest_row_only: false,
    }
}

const fn on_largest_row(g: Gate) -> Gate {
    Gate {
        largest_row_only: true,
        ..g
    }
}

const EXEC: &[&str] = &["name"];
const ADAPTIVE: &[&str] = &["kernel", "reuse"];
const SERVE: &[&str] = &["threads"];
const PERSIST: &[&str] = &["kernel"];

/// Every bound the regression gate enforces.
///
/// * exec: the engine speedups over decode-per-step are min-estimator
///   ratios (noise only ever adds time), so 30% holds them tightly.
///   `dispatches_per_insn` is the superinstruction gate: losing fusion
///   or run-batching coverage pushes it toward 1.0.
/// * adaptive: a p99-over-p99 ratio keeps tail noise on both sides and
///   single runs are microseconds long, hence 50%; losing the mid-run
///   swap point still roughly halves it.
/// * serve: wall-clock throughput on a loaded box gets 50%. The p99 is
///   bimodal by construction (a few percent of requests carry a
///   compile, so the 1% boundary lands on the compile-latency cliff and
///   moves 3–4x between idle and loaded runs); 75% (up to 4x the
///   baseline) still catches a lost in-flight wait or a lock held
///   across compilation. The largest pool must keep a hot Zipfian
///   working set hitting (≥ 0.90) and never duplicate a compile
///   (compiles per unique fingerprint ≤ 1).
/// * persist: cold/warm divides wall-clock sums, hence 50%; a warm
///   restart must also stay 5x cheaper than compiling, and the warm
///   process must answer every cell from disk.
pub const GATES: &[Gate] = &[
    gate("exec", EXEC, "speedup_fused", Bound::Higher(0.30)),
    gate("exec", EXEC, "speedup_threaded", Bound::Higher(0.30)),
    gate("exec", EXEC, "speedup_adaptive", Bound::Higher(0.30)),
    gate("exec", EXEC, "dispatches_per_insn", Bound::Lower(0.30)),
    gate(
        "adaptive",
        ADAPTIVE,
        "tail_p99_improvement",
        Bound::Higher(0.50),
    ),
    gate("serve", SERVE, "throughput_rps", Bound::Higher(0.50)),
    gate("serve", SERVE, "p99_ns", Bound::Lower(0.75)),
    on_largest_row(gate("serve", SERVE, "hit_rate", Bound::Floor(0.90))),
    on_largest_row(gate(
        "serve",
        SERVE,
        "compiles_per_unique",
        Bound::Ceiling(1.0),
    )),
    gate("persist", PERSIST, "warm_speedup", Bound::Higher(0.50)),
    gate("persist", PERSIST, "warm_speedup", Bound::Floor(5.0)),
    gate("persist", PERSIST, "disk_hits", Bound::AtLeast("cells")),
];

/// The gated experiments, in table order.
pub fn experiments() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for g in GATES {
        if !out.contains(&g.experiment) {
            out.push(g.experiment);
        }
    }
    out
}

/// The `"rows"` array of a BENCH file; a file without one has no rows.
///
/// # Errors
///
/// The reader's message when `text` is not JSON.
pub fn rows(text: &str) -> Result<Vec<Json>, String> {
    Ok(match Json::parse(text)?.get("rows") {
        Some(Json::Arr(rows)) => rows.clone(),
        _ => Vec::new(),
    })
}

/// A numeric cell; `None` when absent, `null` or not a number.
fn cell(row: &Json, column: &str) -> Option<f64> {
    row.get(column).and_then(Json::as_f64)
}

/// `<experiment>/<key values joined by '/'>`, e.g. `adaptive/hash/4`.
fn label(experiment: &str, key: &[&str], row: &Json) -> String {
    let mut out = experiment.to_string();
    for k in key {
        out.push('/');
        match row.get(k) {
            Some(Json::Str(s)) => out.push_str(s),
            Some(v) => out.push_str(&v.to_string()),
            None => out.push('?'),
        }
    }
    out
}

/// Checks a fresh `BENCH_<experiment>.json` against its baseline under
/// every [`GATES`] row for `experiment`. Returns a report of the gated
/// columns (fresh value, baseline in parentheses) plus any warnings.
///
/// # Errors
///
/// The report followed by `REGRESSIONS:` and one line per violated
/// bound; or a one-line error when a file is not JSON or the fresh
/// file has no rows.
pub fn check(experiment: &str, baseline: &str, fresh: &str) -> Result<String, String> {
    let gates: Vec<&Gate> = GATES
        .iter()
        .filter(|g| g.experiment == experiment)
        .collect();
    let key = gates.first().map_or(&[][..], |g| g.key);
    let base = rows(baseline).map_err(|e| format!("baseline BENCH_{experiment}.json: {e}"))?;
    let fresh = rows(fresh).map_err(|e| format!("fresh BENCH_{experiment}.json: {e}"))?;
    if fresh.is_empty() {
        return Err(format!("fresh BENCH_{experiment}.json has no rows"));
    }
    let mut report = format!("exec-check: {experiment} vs baseline\n");
    if gates.is_empty() {
        report.push_str(&format!("  {} rows, nothing gated\n", fresh.len()));
        return Ok(report);
    }
    let base: BTreeMap<String, &Json> = base
        .iter()
        .map(|r| (label(experiment, key, r), r))
        .collect();
    let rank = |r: &Json| key.first().and_then(|k| cell(r, k)).unwrap_or(f64::MIN);
    let largest = fresh
        .iter()
        .max_by(|a, b| rank(a).total_cmp(&rank(b)))
        .map(|r| label(experiment, key, r));
    let mut columns: Vec<&str> = Vec::new();
    for g in &gates {
        let other = match g.bound {
            Bound::AtLeast(other) => Some(other),
            _ => None,
        };
        for c in std::iter::once(g.column).chain(other) {
            if !columns.contains(&c) {
                columns.push(c);
            }
        }
    }
    let (mut warnings, mut failures) = (String::new(), String::new());
    let mut fresh_labels = Vec::new();
    for f in &fresh {
        let row = label(experiment, key, f);
        let b = base.get(&row).copied();
        report.push_str(&format!("  {row}:"));
        for c in &columns {
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
            report.push_str(&format!(" {c} {}", show(cell(f, c))));
            if let Some(b) = b {
                report.push_str(&format!(" ({})", show(cell(b, c))));
            }
        }
        report.push_str(if b.is_none() {
            "  (no baseline)\n"
        } else {
            "\n"
        });
        for g in &gates {
            if g.largest_row_only && largest.as_ref() != Some(&row) {
                continue;
            }
            let col = g.column;
            let missing = |c: &str| format!("  {row}: {c} missing or null in the fresh run\n");
            let Some(v) = cell(f, col) else {
                failures.push_str(&missing(col));
                continue;
            };
            // (limit, whether v must be at least it, where it came from)
            let (limit, floor, why) = match g.bound {
                Bound::Higher(t) | Bound::Lower(t) => {
                    let Some(b) = b else { continue };
                    let Some(base) = cell(b, col).filter(|&x| x > 0.0) else {
                        warnings.push_str(&format!(
                            "  warning: baseline has no {col} for {row} — not gated\n"
                        ));
                        continue;
                    };
                    let pct = t * 100.0;
                    if let Bound::Higher(_) = g.bound {
                        let why = format!("baseline {base:.2} - {pct:.0}% tolerance");
                        (base * (1.0 - t), true, why)
                    } else {
                        let why = format!("baseline {base:.2} / (1 - {pct:.0}% tolerance)");
                        (base / (1.0 - t), false, why)
                    }
                }
                Bound::Floor(x) => (x, true, "absolute floor".to_string()),
                Bound::Ceiling(x) => (x, false, "absolute ceiling".to_string()),
                Bound::AtLeast(other) => {
                    let Some(o) = cell(f, other) else {
                        failures.push_str(&missing(other));
                        continue;
                    };
                    (o, true, other.to_string())
                }
            };
            if (floor && v < limit) || (!floor && v > limit) {
                let dir = if floor { "below" } else { "above" };
                failures.push_str(&format!(
                    "  {row}: {col} {v:.2} regressed {dir} {limit:.2} ({why})\n"
                ));
            }
        }
        fresh_labels.push(row);
    }
    for row in base.keys() {
        if !fresh_labels.contains(row) {
            failures.push_str(&format!(
                "  {row}: present in baseline, missing from fresh run\n"
            ));
        }
    }
    if !warnings.is_empty() {
        report.push_str(&format!("\n{warnings}"));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nREGRESSIONS:\n{failures}"))
    }
}

/// Runs [`check`] for every experiment in [`GATES`]. `fresh_exec` and
/// `base_exec` name the two exec files, which must be readable; every
/// other experiment's files are the siblings `BENCH_<experiment>.json`
/// in the same two directories, and a sibling missing on either side
/// warns and skips that experiment.
///
/// # Errors
///
/// All reports, when any experiment failed or an exec file is
/// unreadable.
pub fn check_set(fresh_exec: &Path, base_exec: &Path) -> Result<String, String> {
    let mut out = String::new();
    let mut failed = false;
    for exp in experiments() {
        let (fresh, base) = if exp == "exec" {
            (fresh_exec.to_path_buf(), base_exec.to_path_buf())
        } else {
            let sibling = |p: &Path| p.with_file_name(format!("BENCH_{exp}.json"));
            (sibling(fresh_exec), sibling(base_exec))
        };
        if !out.is_empty() {
            out.push('\n');
        }
        match (
            std::fs::read_to_string(&fresh),
            std::fs::read_to_string(&base),
        ) {
            (Ok(f), Ok(b)) => match check(exp, &b, &f) {
                Ok(report) => out.push_str(&report),
                Err(report) => {
                    out.push_str(&report);
                    out.push('\n');
                    failed = true;
                }
            },
            (f, b) => {
                for (path, r) in [(&fresh, f), (&base, b)] {
                    if let Err(e) = r {
                        let path = path.display();
                        if exp == "exec" {
                            out.push_str(&format!("error: cannot read {path}: {e}\n"));
                            failed = true;
                        } else {
                            out.push_str(&format!(
                                "warning: cannot read {path}: {e} — {exp} gate skipped\n"
                            ));
                        }
                    }
                }
            }
        }
    }
    if failed {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive_bench::AdaptiveBenchRow;
    use crate::exec_bench::ExecBenchRow;
    use crate::persist_bench::PersistBenchRow;
    use crate::serve_bench::ServeBenchRow;
    use crate::{adaptive_json, exec_json, persist_json, serve_json};

    /// The failure lines of a failed check, without the report above
    /// them (the report names every gated column).
    fn regressions(err: &str) -> &str {
        err.split("REGRESSIONS:").nth(1).unwrap_or("")
    }

    /// `j` with `column` set to `value` in every row (`None` removes
    /// it), pretty-printed.
    fn with_cell(mut j: Json, column: &str, value: Option<Json>) -> String {
        let Json::Obj(fields) = &mut j else {
            panic!("object")
        };
        for (k, v) in fields.iter_mut() {
            let Json::Arr(rows) = v else { continue };
            if k != "rows" {
                continue;
            }
            for row in rows {
                let Json::Obj(cells) = row else { continue };
                cells.retain(|(k, _)| k != column);
                if let Some(value) = &value {
                    cells.push((column.to_string(), value.clone()));
                }
            }
        }
        j.pretty()
    }

    fn sample_row(name: &'static str, decode_ns: u64, fused_ns: u64) -> ExecBenchRow {
        engines_row(name, decode_ns, fused_ns, fused_ns / 2, fused_ns)
    }

    /// A row with every engine's wall-clock pinned independently, so
    /// tests can regress one gated column at a time.
    fn engines_row(
        name: &'static str,
        decode_ns: u64,
        fused_ns: u64,
        threaded_ns: u64,
        adaptive_ns: u64,
    ) -> ExecBenchRow {
        ExecBenchRow {
            name,
            reps: 10,
            decode_ns,
            predecoded_ns: fused_ns + 100,
            fused_ns,
            threaded_ns,
            adaptive_ns,
            promotions: 4,
            cycles: 1000,
            insns: 900,
            fused_pairs: 12,
            hit_rate: 1.0,
            batched_blocks: 40,
            fused_pairs_icode: 9,
            fused_pairs_icode_unsched: 7,
            superinstructions: 6,
            fused_dispatch_rate: 0.4,
            dispatches_per_insn: 0.5,
            pair_histogram: vec![("addiw+bne".into(), 20)],
        }
    }

    #[test]
    fn every_experiment_has_one_key() {
        for g in GATES {
            let first = GATES.iter().find(|h| h.experiment == g.experiment).unwrap();
            assert_eq!(g.key, first.key, "{}", g.experiment);
        }
        assert_eq!(experiments(), ["exec", "adaptive", "serve", "persist"]);
    }

    #[test]
    fn roundtrips_through_the_emitted_json() {
        let rows = rows(
            &exec_json(&[sample_row("hash", 4000, 1000), sample_row("ms", 9000, 2000)]).pretty(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name"), Some(&Json::from("hash")));
        assert_eq!(cell(&rows[0], "speedup_fused"), Some(4.0));
        assert_eq!(cell(&rows[1], "speedup_threaded"), Some(9.0));
        assert_eq!(cell(&rows[0], "speedup_threaded_vs_fused"), Some(2.0));
        assert_eq!(cell(&rows[0], "fused_pairs_icode_delta"), Some(2.0));
    }

    #[test]
    fn passes_within_tolerance_and_reports() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        // 4.0x baseline; fresh 3.2x is a 20% drop — inside 30%.
        let fresh = exec_json(&[sample_row("hash", 3200, 1000)]).pretty();
        let report = check("exec", &base, &fresh).expect("within tolerance");
        assert!(report.contains("hash"));
    }

    #[test]
    fn fails_beyond_tolerance() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        // Fresh 2.0x vs baseline 4.0x: a 50% drop.
        let fresh = exec_json(&[sample_row("hash", 2000, 1000)]).pretty();
        let err = check("exec", &base, &fresh).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(regressions(&err).contains("hash"), "{err}");
    }

    #[test]
    fn fails_on_missing_kernel_and_tolerates_new_ones() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        let fresh = exec_json(&[sample_row("ms", 4000, 1000)]).pretty();
        let err = check("exec", &base, &fresh).expect_err("missing kernel");
        assert!(
            err.contains("exec/hash: present in baseline, missing from fresh run"),
            "{err}"
        );
        // A fresh-only kernel alone is fine when the baseline is empty,
        // and is noted.
        let empty = exec_json(&[]).pretty();
        let report = check("exec", &empty, &fresh).expect("new kernel");
        assert!(report.contains("(no baseline)"), "{report}");
    }

    #[test]
    fn fails_when_only_the_threaded_column_regresses() {
        // fused and adaptive hold steady; threaded alone drops from
        // 8.0x to 2.0x. A single-column gate would ship this silently.
        let base = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]).pretty();
        let fresh = exec_json(&[engines_row("hash", 4000, 1000, 2000, 1000)]).pretty();
        let err = check("exec", &base, &fresh).expect_err("threaded regression");
        let lines = regressions(&err);
        assert!(lines.contains("speedup_threaded"), "{err}");
        assert!(!lines.contains("speedup_fused"), "{err}");
    }

    #[test]
    fn fails_when_only_the_dispatch_column_regresses() {
        // Every wall-clock speedup holds; the threaded engine merely
        // dispatches more per instruction (0.5 → 0.9 dispatches/insn,
        // past the 0.5/0.7 ≈ 0.71 ceiling): losing the superinstruction
        // coverage must fail on its own.
        let base = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]).pretty();
        let fresh = exec_json(&[ExecBenchRow {
            dispatches_per_insn: 0.9,
            ..engines_row("hash", 4000, 1000, 500, 1000)
        }])
        .pretty();
        let err = check("exec", &base, &fresh).expect_err("dispatch regression");
        let lines = regressions(&err);
        assert!(lines.contains("dispatches_per_insn"), "{err}");
        assert!(!lines.contains("speedup_threaded"), "{err}");
        // 0.7 dispatches/insn is a 29% drop in the reciprocal: inside.
        let ok = exec_json(&[ExecBenchRow {
            dispatches_per_insn: 0.7,
            ..engines_row("hash", 4000, 1000, 500, 1000)
        }])
        .pretty();
        check("exec", &base, &ok).expect("within tolerance");
    }

    #[test]
    fn baseline_without_dispatch_column_warns_instead_of_failing() {
        // A pre-superinstruction baseline has no dispatches_per_insn:
        // the column is skipped with a warning, never gated.
        let base = with_cell(
            exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]),
            "dispatches_per_insn",
            None,
        );
        assert!(!base.contains("dispatches_per_insn"));
        let fresh = exec_json(&[ExecBenchRow {
            dispatches_per_insn: 0.99,
            ..engines_row("hash", 4000, 1000, 500, 1000)
        }])
        .pretty();
        let report = check("exec", &base, &fresh).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no dispatches_per_insn"),
            "{report}"
        );
    }

    #[test]
    fn fails_when_only_the_adaptive_column_regresses() {
        // adaptive alone drops from 4.0x to 1.0x (>30%).
        let base = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]).pretty();
        let fresh = exec_json(&[engines_row("hash", 4000, 1000, 500, 4000)]).pretty();
        let err = check("exec", &base, &fresh).expect_err("adaptive regression");
        assert!(regressions(&err).contains("speedup_adaptive"), "{err}");
    }

    #[test]
    fn baseline_without_adaptive_column_warns_instead_of_failing() {
        // A pre-adaptive baseline: as if the file had been written
        // before the column existed. Even a fresh adaptive value far
        // below the others must pass — with a warning — because there
        // is nothing to gate against.
        let base = with_cell(
            exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]),
            "speedup_adaptive",
            None,
        );
        assert!(!base.contains("speedup_adaptive"));
        let fresh = exec_json(&[engines_row("hash", 4000, 1000, 500, 40000)]).pretty();
        let report = check("exec", &base, &fresh).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no speedup_adaptive"),
            "{report}"
        );
    }

    #[test]
    fn empty_fresh_is_an_error() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        assert!(check("exec", &base, "{}").is_err());
        assert!(check("exec", &base, "not json").is_err());
    }

    /// A sweep row with the cold-run p99 tails pinned (sync, bg), so
    /// tests can steer `tail_p99_improvement` directly.
    fn tail_row(kernel: &'static str, reuse: u64, p99_sync: u64, p99_bg: u64) -> AdaptiveBenchRow {
        AdaptiveBenchRow {
            kernel,
            reuse,
            reps: 4,
            decode_ns: 4000,
            fused_ns: 1500,
            threaded_ns: 1000,
            adaptive_ns: 1040,
            adaptive_bg_ns: 1020,
            promotions: 3,
            warm_decode_ns: 400,
            warm_fused_ns: 120,
            warm_threaded_ns: 100,
            warm_adaptive_ns: 103,
            warm_adaptive_bg_ns: 104,
            run_max_adaptive_ns: p99_sync * 2,
            run_p99_adaptive_ns: p99_sync,
            run_max_adaptive_bg_ns: p99_bg * 2,
            run_p99_adaptive_bg_ns: p99_bg,
        }
    }

    #[test]
    fn adaptive_rows_roundtrip_through_the_emitted_json() {
        let rows = rows(
            &adaptive_json(&[tail_row("hash", 4, 800, 250), tail_row("hash", 8, 900, 300)])
                .pretty(),
        )
        .unwrap();
        // The warm_summary block also names kernels, but it is not in
        // the "rows" array.
        assert_eq!(rows.len(), 2);
        assert_eq!(label("adaptive", ADAPTIVE, &rows[0]), "adaptive/hash/4");
        assert_eq!(cell(&rows[0], "tail_p99_improvement"), Some(3.2));
        assert_eq!(cell(&rows[1], "reuse"), Some(8.0));
    }

    #[test]
    fn adaptive_tail_gate_passes_within_tolerance_and_fails_beyond() {
        let base = adaptive_json(&[tail_row("hash", 4, 800, 250)]).pretty(); // 3.2x
        let ok = adaptive_json(&[tail_row("hash", 4, 700, 280)]).pretty(); // 2.5x, -22%
        let report = check("adaptive", &base, &ok).expect("within tolerance");
        assert!(report.contains("hash"), "{report}");
        let bad = adaptive_json(&[tail_row("hash", 4, 500, 500)]).pretty(); // 1.0x, -69%
        let err = check("adaptive", &base, &bad).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(regressions(&err).contains("tail_p99_improvement"), "{err}");
    }

    #[test]
    fn adaptive_tail_gate_warns_and_skips_zero_baselines() {
        // A baseline from before the tail columns: both p99 sides are
        // zero, so tail_p99_improvement serializes as 0.0. Even a
        // fresh collapse to 1.0x must pass with a warning.
        let base = adaptive_json(&[tail_row("hash", 4, 0, 0)]).pretty();
        let fresh = adaptive_json(&[tail_row("hash", 4, 500, 500)]).pretty();
        let report = check("adaptive", &base, &fresh).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no tail_p99_improvement"),
            "{report}"
        );
    }

    #[test]
    fn adaptive_tail_gate_handles_missing_and_new_rows() {
        let base = adaptive_json(&[tail_row("hash", 4, 800, 250)]).pretty();
        let fresh = adaptive_json(&[tail_row("hash", 8, 800, 250)]).pretty();
        let err = check("adaptive", &base, &fresh).expect_err("missing row");
        assert!(err.contains("missing from fresh run"), "{err}");
        // Fresh-only rows against an empty baseline pass (all new).
        assert!(check("adaptive", "{}", &fresh).is_ok());
        // An empty fresh file is always an error.
        assert!(check("adaptive", &base, "{}").is_err());
    }

    #[test]
    fn failure_lines_name_every_component() {
        let base = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        let bad = serve_json(&[serve_row(4, 40_000.0, 60_000, 0.96, 0.99)]).pretty();
        let err = check("serve", &base, &bad).expect_err("regression");
        assert_eq!(
            regressions(&err),
            "\n  serve/4: throughput_rps 40000.00 regressed below 50000.00 \
             (baseline 100000.00 - 50% tolerance)\n"
        );
    }

    /// A serve pool row with throughput, tail, and the structural
    /// columns pinned, serialized through the real emitter.
    fn serve_row(threads: u64, rps: f64, p99: u64, hit: f64, cpu: f64) -> ServeBenchRow {
        ServeBenchRow {
            threads,
            requests: 2000,
            elapsed_ns: 20_000_000,
            throughput_rps: rps,
            p50_ns: p99 / 10,
            p99_ns: p99,
            p999_ns: p99 * 3,
            hit_rate: hit,
            hits: 1900,
            misses: 70,
            waits: 3,
            evictions: 0,
            invalidations: 30,
            unique_fingerprints: 40,
            compiles: 69,
            compiles_per_unique: cpu,
            stale_faults: 2,
            checksum: 0xc840_4492_d610_a568,
        }
    }

    #[test]
    fn serve_rows_roundtrip_through_the_emitted_json() {
        let rows = rows(
            &serve_json(&[
                serve_row(1, 80_000.0, 50_000, 0.91, 0.93),
                serve_row(4, 100_000.0, 60_000, 0.96, 0.99),
            ])
            .pretty(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(label("serve", SERVE, &rows[0]), "serve/1");
        assert_eq!(label("serve", SERVE, &rows[1]), "serve/4");
        assert_eq!(cell(&rows[1], "throughput_rps"), Some(100_000.0));
        assert_eq!(cell(&rows[1], "p99_ns"), Some(60_000.0));
        assert_eq!(cell(&rows[1], "hit_rate"), Some(0.96));
        assert_eq!(cell(&rows[1], "compiles_per_unique"), Some(0.99));
    }

    #[test]
    fn serve_gate_passes_within_tolerance_and_fails_on_throughput() {
        let base = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        // 40% below baseline throughput: inside the 50% tolerance.
        let ok = serve_json(&[serve_row(4, 60_000.0, 60_000, 0.96, 0.99)]).pretty();
        let report = check("serve", &base, &ok).expect("within tolerance");
        assert!(report.contains("serve"), "{report}");
        // 60% below: past the tolerance.
        let bad = serve_json(&[serve_row(4, 40_000.0, 60_000, 0.96, 0.99)]).pretty();
        let err = check("serve", &base, &bad).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(regressions(&err).contains("throughput_rps"), "{err}");
    }

    #[test]
    fn serve_gate_fails_when_the_tail_blows_up() {
        let base = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        // p99 tripled: bimodal-tail noise the 75% tolerance absorbs.
        let noisy = serve_json(&[serve_row(4, 100_000.0, 180_000, 0.96, 0.99)]).pretty();
        check("serve", &base, &noisy).expect("within the p99 tolerance");
        // p99 6x: past the 4x ceiling.
        let bad = serve_json(&[serve_row(4, 100_000.0, 360_000, 0.96, 0.99)]).pretty();
        let err = check("serve", &base, &bad).expect_err("tail regression");
        assert!(regressions(&err).contains("p99_ns"), "{err}");
        assert!(err.contains("75% tolerance"), "{err}");
    }

    #[test]
    fn serve_gate_holds_the_largest_pool_to_absolute_bounds() {
        let base = serve_json(&[
            serve_row(1, 80_000.0, 50_000, 0.50, 0.93),
            serve_row(4, 100_000.0, 60_000, 0.96, 0.99),
        ])
        .pretty();
        // A cold small pool is fine; the 4-thread pool falling under
        // the hit-rate floor is not, even with healthy throughput.
        let bad_hit = serve_json(&[
            serve_row(1, 80_000.0, 50_000, 0.50, 0.93),
            serve_row(4, 100_000.0, 60_000, 0.80, 0.99),
        ])
        .pretty();
        let err = check("serve", &base, &bad_hit).expect_err("hit-rate floor");
        let lines = regressions(&err);
        assert!(lines.contains("serve/4: hit_rate"), "{err}");
        assert!(!lines.contains("serve/1"), "{err}");
        // Duplicated compiles (c/u above 1) on the largest pool fail.
        let dup = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 1.40)]).pretty();
        let err = check("serve", &base, &dup).expect_err("duplicate compiles");
        assert!(
            regressions(&err)
                .contains("compiles_per_unique 1.40 regressed above 1.00 (absolute ceiling)"),
            "{err}"
        );
    }

    #[test]
    fn serve_gate_fails_on_missing_or_null_fresh_columns() {
        // A fresh row without p99_ns must not pass the tail gate, and
        // one whose compiles_per_unique is null (a non-finite float
        // on the way out) must not pass the ceiling.
        let base = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        let fresh = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]);
        let no_p99 = with_cell(fresh.clone(), "p99_ns", None);
        let err = check("serve", &base, &no_p99).expect_err("missing p99_ns");
        assert!(
            regressions(&err).contains("p99_ns missing or null"),
            "{err}"
        );
        let null_cpu = with_cell(fresh, "compiles_per_unique", Some(Json::Num(f64::NAN)));
        assert!(null_cpu.contains("\"compiles_per_unique\": null"));
        let err = check("serve", &base, &null_cpu).expect_err("null compiles_per_unique");
        assert!(
            regressions(&err).contains("compiles_per_unique missing or null"),
            "{err}"
        );
    }

    #[test]
    fn serve_gate_warns_on_zero_baselines_and_handles_missing_rows() {
        let fresh = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        // Baseline with zeroed throughput/p99: warn and skip, not fail.
        let zeroed = serve_json(&[serve_row(4, 0.0, 0, 0.96, 0.99)]).pretty();
        let report = check("serve", &zeroed, &fresh).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no throughput_rps"),
            "{report}"
        );
        assert!(
            report.contains("warning: baseline has no p99_ns"),
            "{report}"
        );
        // A baseline pool size the fresh run dropped is a failure.
        let base = serve_json(&[
            serve_row(2, 90_000.0, 55_000, 0.95, 0.98),
            serve_row(4, 100_000.0, 60_000, 0.96, 0.99),
        ])
        .pretty();
        let err = check("serve", &base, &fresh).expect_err("missing pool");
        assert!(
            err.contains("serve/2: present in baseline, missing"),
            "{err}"
        );
        // Fresh-only pools against an empty baseline pass (all new),
        // as long as the absolute bounds hold; empty fresh errors.
        assert!(check("serve", "{}", &fresh).is_ok());
        assert!(check("serve", &base, "{}").is_err());
    }

    /// A persist kernel row serialized through the real emitter.
    fn persist_row(kernel: &str, cold_ns: u64, warm_ns: u64, disk_hits: u64) -> PersistBenchRow {
        PersistBenchRow {
            kernel: kernel.to_string(),
            cells: 6,
            cold_ns,
            warm_ns,
            disk_hits,
            load_ns: warm_ns / 3,
        }
    }

    #[test]
    fn persist_rows_roundtrip_through_the_emitted_json() {
        let rows = rows(
            &persist_json(&[
                persist_row("pk_pow", 120_000, 6_000, 6),
                persist_row("pk_dot", 90_000, 9_000, 6),
            ])
            .pretty(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(label("persist", PERSIST, &rows[0]), "persist/pk_pow");
        assert_eq!(cell(&rows[0], "warm_speedup"), Some(20.0));
        assert_eq!(cell(&rows[0], "cells"), Some(6.0));
        assert_eq!(cell(&rows[1], "disk_hits"), Some(6.0));
    }

    #[test]
    fn persist_gate_passes_within_tolerance_and_fails_beyond() {
        let base = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]).pretty(); // 20x
                                                                                       // 12x: 40% below baseline, inside the 50% tolerance and above
                                                                                       // the absolute floor.
        let ok = persist_json(&[persist_row("pk_pow", 120_000, 10_000, 6)]).pretty();
        let report = check("persist", &base, &ok).expect("within tolerance");
        assert!(report.contains("pk_pow"), "{report}");
        // 8x: still over the absolute 5x floor but 60% below baseline.
        let bad = persist_json(&[persist_row("pk_pow", 120_000, 15_000, 6)]).pretty();
        let err = check("persist", &base, &bad).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(regressions(&err).contains("warm_speedup"), "{err}");
    }

    #[test]
    fn persist_gate_holds_the_absolute_speedup_floor() {
        // 3x warm speedup: within any relative tolerance of its own
        // baseline, but below the 5x floor — fails regardless.
        let row = persist_json(&[persist_row("pk_pow", 30_000, 10_000, 6)]).pretty();
        let err = check("persist", &row, &row).expect_err("absolute floor");
        assert!(
            regressions(&err).contains("warm_speedup 3.00 regressed below 5.00 (absolute floor)"),
            "{err}"
        );
        // And a warm process that missed disk fails structurally.
        let base = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]).pretty();
        let cold_hits = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 4)]).pretty();
        let err = check("persist", &base, &cold_hits).expect_err("missed disk");
        assert!(
            regressions(&err).contains("disk_hits 4.00 regressed below 6.00 (cells)"),
            "{err}"
        );
    }

    #[test]
    fn persist_gate_warns_on_zero_baselines_and_handles_missing_rows() {
        let fresh = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]).pretty();
        let zeroed = persist_json(&[persist_row("pk_pow", 0, 6_000, 6)]).pretty();
        let report = check("persist", &zeroed, &fresh).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no warm_speedup"),
            "{report}"
        );
        let base = persist_json(&[
            persist_row("pk_pow", 120_000, 6_000, 6),
            persist_row("pk_dot", 90_000, 9_000, 6),
        ])
        .pretty();
        let err = check("persist", &base, &fresh).expect_err("missing kernel");
        assert!(
            err.contains("persist/pk_dot: present in baseline, missing"),
            "{err}"
        );
        // Fresh-only kernels against an empty baseline pass (all new),
        // as long as the absolute floor holds; empty fresh errors.
        assert!(check("persist", "{}", &fresh).is_ok());
        assert!(check("persist", &base, "{}").is_err());
    }

    #[test]
    fn check_set_finds_siblings_in_a_directory_named_exec() {
        // The old sibling lookup rewrote every "exec" in the path, so a
        // fresh set under .../exec/ silently skipped three gates.
        let root = std::env::temp_dir().join(format!("tcc-check-set-{}", std::process::id()));
        let (fresh_dir, base_dir) = (root.join("exec"), root.join("exec-base"));
        let files = [
            ("exec", exec_json(&[sample_row("hash", 4000, 1000)])),
            ("adaptive", adaptive_json(&[tail_row("hash", 4, 800, 250)])),
            (
                "serve",
                serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]),
            ),
            (
                "persist",
                persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]),
            ),
        ];
        for dir in [&fresh_dir, &base_dir] {
            std::fs::create_dir_all(dir).unwrap();
            for (exp, j) in &files {
                std::fs::write(dir.join(format!("BENCH_{exp}.json")), j.pretty()).unwrap();
            }
        }
        let fresh_exec = fresh_dir.join("BENCH_exec.json");
        let report = check_set(&fresh_exec, &base_dir.join("BENCH_exec.json"));
        // A missing sibling warns and skips; a missing exec file fails.
        std::fs::remove_file(fresh_dir.join("BENCH_serve.json")).unwrap();
        let skipped = check_set(&fresh_exec, &base_dir.join("BENCH_exec.json"));
        let no_exec = check_set(
            &root.join("BENCH_exec.json"),
            &base_dir.join("BENCH_exec.json"),
        );
        std::fs::remove_dir_all(&root).unwrap();
        let report = report.expect("identical sets pass");
        for row in ["exec/hash", "adaptive/hash/4", "serve/4", "persist/pk_pow"] {
            assert!(report.contains(row), "{row} not gated:\n{report}");
        }
        assert!(!report.contains("warning"), "{report}");
        let skipped = skipped.expect("a missing sibling only warns");
        assert!(skipped.contains("serve gate skipped"), "{skipped}");
        assert!(skipped.contains("persist/pk_pow"), "{skipped}");
        assert!(no_exec.expect_err("no exec file").contains("cannot read"));
    }
}
