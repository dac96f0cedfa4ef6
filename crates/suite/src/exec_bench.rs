//! Execution-engine benchmark: decode-per-step vs direct-threaded vs
//! adaptive tiering.
//!
//! The paper's premise — pay translation cost once per code body, not
//! per execution — applies to the VM itself: the reference interpreter
//! re-fetches, bounds/liveness-checks, decodes, and cost-looks-up every
//! executed instruction, while the direct-threaded engine does all of
//! that once per sealed function, dispatches through a handler pointer
//! per slot (whole superinstruction groups per dispatch) and charges
//! fuel per basic block; the adaptive engine starts every function on
//! decode-per-step and promotes it to threaded once its run count (or
//! loop backedge count) crosses the threshold. This experiment drives
//! the loop-heavy suite kernels through all three engines, asserts they
//! are observationally identical (result checksum, modeled cycles,
//! retired instructions — the differential contract), and reports
//! wall-clock speedups. It also measures the ICODE fusion-aware
//! scheduler's effect: threaded superinstructions compiled from
//! ICODE-generated code with the scheduler on vs off. Emitted as
//! `BENCH_exec.json` by the suite binary.

use std::time::Instant;

use crate::programs::{benchmarks, BenchDef, BLUR_SMALL};
use tcc::{Backend, Config, ExecEngine, Session, Strategy};
use tcc_obs::json::Json;

/// The loop-heavy kernels measured (dispatch-bound inner loops). The
/// original seven come first; `heap`, `filter`, and `demux` joined when
/// the fusion-aware scheduler became measurable — their composed loops
/// carry assignments between a condition's producer and its branch,
/// which is exactly the adjacency the DAG scheduler recovers.
pub const EXEC_BENCHES: [&str; 10] = [
    "hash", "ms", "cmp", "query", "binary", "dp", "blur", "heap", "filter", "demux",
];

/// Wall-clock target for each engine's timed region, full mode.
const TARGET_NS: u64 = 80_000_000;

/// The engines compared, reference first. The adaptive engine runs
/// with its shipping default (`Config::default`'s engine).
const ENGINES: [ExecEngine; 3] = [
    ExecEngine::DecodePerStep,
    ExecEngine::Threaded,
    ExecEngine::Adaptive {
        thread_after: tcc::DEFAULT_THREAD_AFTER,
        background: false,
    },
];

/// One benchmark's engine comparison.
#[derive(Clone, Debug)]
pub struct ExecBenchRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Timed repetitions of the dynamic function per engine.
    pub reps: u64,
    /// Wall-clock ns for the reference (decode-per-step) engine.
    pub decode_ns: u64,
    /// Wall-clock ns for the direct-threaded engine.
    pub threaded_ns: u64,
    /// Wall-clock ns for the adaptive tiering engine (default
    /// thresholds; the timed region replays the cold-to-hot climb once
    /// per session, then steady state).
    pub adaptive_ns: u64,
    /// Tier levels gained by the adaptive engine over the whole
    /// session (warm-up plus timed reps).
    pub promotions: u64,
    /// Modeled cycles over the timed reps — identical across engines by
    /// the equivalence contract (asserted).
    pub cycles: u64,
    /// Instructions retired over the timed reps (identical, asserted).
    pub insns: u64,
    /// Threaded engine's dispatch hit rate (fast-path fraction).
    pub hit_rate: f64,
    /// Basic blocks whose fuel was charged in one batch by the threaded
    /// engine over the timed reps.
    pub batched_blocks: u64,
    /// Superinstruction groups the threaded translator compiles from
    /// ICODE-backend code with the fusion-aware scheduler ON.
    pub superinstructions_icode: u64,
    /// Same measurement with the scheduler OFF (the delta is the
    /// scheduler's gain).
    pub superinstructions_icode_unsched: u64,
    /// Superinstruction groups compiled by the threaded translator
    /// (run+jump, run+branch, pair, triple).
    pub superinstructions: u64,
    /// Fraction of the threaded engine's dispatches that entered a
    /// fused (superinstruction) handler — the superinstruction hit
    /// rate.
    pub fused_dispatch_rate: f64,
    /// Threaded dispatch-loop iterations per retired instruction
    /// (1.0 = one dispatch per instruction; lower is better; gated
    /// against the baseline by `exec-check`).
    pub dispatches_per_insn: f64,
    /// Top fused shapes (mnemonic groups like `"addiw+bne"`) and their
    /// translation-time counts from the threaded session, capped at
    /// [`PAIR_HISTOGRAM_TOP`].
    pub pair_histogram: Vec<(String, u64)>,
}

/// Shapes kept in each row's `pair_histogram`.
pub const PAIR_HISTOGRAM_TOP: usize = 16;

impl ExecBenchRow {
    /// Wall-clock speedup of direct-threading over decode-per-step.
    pub fn speedup_threaded(&self) -> f64 {
        self.decode_ns as f64 / self.threaded_ns.max(1) as f64
    }

    /// Wall-clock speedup of adaptive tiering over decode-per-step.
    pub fn speedup_adaptive(&self) -> f64 {
        self.decode_ns as f64 / self.adaptive_ns.max(1) as f64
    }

    /// Extra superinstructions the ICODE fusion-aware scheduler exposed
    /// (scheduler on minus off).
    pub fn superinstructions_icode_delta(&self) -> i64 {
        self.superinstructions_icode as i64 - self.superinstructions_icode_unsched as i64
    }
}

struct Timed {
    ns: u64,
    cycles: u64,
    insns: u64,
    checksum: u64,
    hit_rate: f64,
    batched_blocks: u64,
    promotions: u64,
    superinstructions: u64,
    fused_dispatch_rate: f64,
    dispatches_per_insn: f64,
    shapes: Vec<(String, u64)>,
}

fn make_session(b: &BenchDef, engine: ExecEngine) -> Session {
    let config = Config {
        engine,
        ..Config::default()
    };
    Session::new(b.src, config).expect("benchmark source compiles")
}

/// Timing chunks per engine: the reported total is the fastest
/// observed per-rep cost scaled by the rep count, so a scheduler stall
/// has to span every chunk (not just land somewhere in one monolithic
/// region) to poison the cell. The min is the standard estimator for a
/// fixed-work microbenchmark — noise only ever adds time. Chunks are
/// interleaved round-robin across the engines (see [`compare`]) so a
/// stall long enough to span several chunks lands on every engine's
/// measurement instead of wiping out one engine's whole cell; at
/// multi-millisecond chunk sizes the cache disturbance from switching
/// sessions at chunk boundaries is noise-level.
const TIMING_CHUNKS: u64 = 16;

/// One engine's in-flight measurement: its warmed session and the
/// best per-rep cost observed so far.
struct Prepared {
    s: Session,
    fp: u64,
    checksum: u64,
    done: u64,
    best_per_rep: f64,
}

/// Sets up the workload, compiles the dynamic function, and runs it
/// once untimed (populating the translation cache, so the timed chunks
/// measure steady state).
fn prepare(b: &BenchDef, engine: ExecEngine) -> Prepared {
    let mut s = make_session(b, engine);
    (b.setup)(&mut s);
    let fp = (b.compile_dyn)(&mut s);
    let checksum = (b.run_dyn)(&mut s, fp);
    s.reset_counters();
    Prepared {
        s,
        fp,
        checksum,
        done: 0,
        best_per_rep: f64::INFINITY,
    }
}

/// Times one chunk: the reps from `p.done` up to `until`.
fn run_chunk(b: &BenchDef, p: &mut Prepared, until: u64) {
    let n = until - p.done;
    p.done = until;
    let t = Instant::now();
    for _ in 0..n {
        p.checksum = p.checksum.wrapping_add((b.run_dyn)(&mut p.s, p.fp));
    }
    let per_rep = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    p.best_per_rep = p.best_per_rep.min(per_rep);
}

/// Closes out one engine's measurement after every chunk has run.
fn finish(b: &BenchDef, mut p: Prepared, reps: u64) -> Timed {
    let ns = (p.best_per_rep * reps as f64) as u64;
    let checksum = p.checksum.wrapping_add((b.check)(&mut p.s));
    let m = p.s.metrics();
    Timed {
        ns,
        cycles: p.s.cycles(),
        insns: p.s.insns(),
        checksum,
        hit_rate: m.exec.hit_rate(),
        batched_blocks: m.exec.batched_blocks,
        promotions: m.adaptive.promotions,
        superinstructions: m.exec.superinstructions,
        fused_dispatch_rate: m.exec.fused_dispatch_rate(),
        dispatches_per_insn: m.exec.dispatches_per_insn(),
        shapes: p.s.fused_shape_histogram(),
    }
}

/// Superinstructions the threaded translator compiles when the
/// kernel's dynamic code comes from the ICODE back end, with the
/// fusion-aware scheduler on or off. One execution suffices: the count
/// is a translation-time property, independent of rep count.
fn icode_superinstructions(b: &BenchDef, schedule: bool) -> u64 {
    let config = Config {
        backend: Backend::Icode {
            strategy: Strategy::LinearScan,
        },
        icode_schedule: schedule,
        engine: ExecEngine::Threaded,
        ..Config::default()
    };
    let mut s = Session::new(b.src, config).expect("benchmark source compiles");
    (b.setup)(&mut s);
    let fp = (b.compile_dyn)(&mut s);
    (b.run_dyn)(&mut s, fp);
    s.metrics().exec.superinstructions
}

/// Picks a rep count so the reference engine's timed region lands near
/// `target_ns` (doubling probe on a throwaway session). Deterministic
/// behavior across engines only needs the *same* rep count, which this
/// guarantees by being computed once per benchmark.
fn pick_reps(b: &BenchDef, target_ns: u64) -> u64 {
    let mut s = make_session(b, ExecEngine::DecodePerStep);
    (b.setup)(&mut s);
    let fp = (b.compile_dyn)(&mut s);
    let mut n: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            (b.run_dyn)(&mut s, fp);
        }
        let el = t.elapsed().as_nanos() as u64;
        if el >= target_ns / 8 || n >= 1 << 20 {
            let per = (el / n).max(1);
            return (target_ns / per).clamp(1, 1 << 20);
        }
        n *= 2;
    }
}

/// Runs one benchmark through all three engines at `reps`
/// repetitions, asserting the observational-equivalence contract.
fn compare(b: &BenchDef, reps: u64) -> ExecBenchRow {
    let mut prepared: Vec<Prepared> = ENGINES.iter().map(|&e| prepare(b, e)).collect();
    let chunks = reps.clamp(1, TIMING_CHUNKS);
    for c in 0..chunks {
        // Spread `reps` exactly across the chunks (sizes differ by at
        // most one), so modeled counters stay identical across engines.
        let until = reps * (c + 1) / chunks;
        for p in prepared.iter_mut() {
            run_chunk(b, p, until);
        }
    }
    let mut timed = prepared.into_iter().map(|p| finish(b, p, reps));
    let decode = timed.next().unwrap();
    let threaded = timed.next().unwrap();
    let adaptive = timed.next().unwrap();
    for (label, t) in [("threaded", &threaded), ("adaptive", &adaptive)] {
        assert_eq!(
            (t.checksum, t.cycles, t.insns),
            (decode.checksum, decode.cycles, decode.insns),
            "{}: {label} engine diverges from decode-per-step",
            b.name
        );
    }
    ExecBenchRow {
        name: b.name,
        reps,
        decode_ns: decode.ns,
        threaded_ns: threaded.ns,
        adaptive_ns: adaptive.ns,
        promotions: adaptive.promotions,
        cycles: decode.cycles,
        insns: decode.insns,
        hit_rate: threaded.hit_rate,
        batched_blocks: threaded.batched_blocks,
        superinstructions_icode: icode_superinstructions(b, true),
        superinstructions_icode_unsched: icode_superinstructions(b, false),
        superinstructions: threaded.superinstructions,
        fused_dispatch_rate: threaded.fused_dispatch_rate,
        dispatches_per_insn: threaded.dispatches_per_insn,
        pair_histogram: {
            let mut shapes = threaded.shapes;
            shapes.truncate(PAIR_HISTOGRAM_TOP);
            shapes
        },
    }
}

/// The benchmark definitions measured, in `EXEC_BENCHES` order.
fn defs() -> Vec<BenchDef> {
    let all = benchmarks(BLUR_SMALL);
    EXEC_BENCHES
        .iter()
        .map(|name| {
            all.iter()
                .find(|b| b.name == *name)
                .unwrap_or_else(|| panic!("no bench named {name}"))
                .clone()
        })
        .collect()
}

/// Full run: calibrated rep counts sized for stable wall-clock numbers.
pub fn exec_bench() -> Vec<ExecBenchRow> {
    defs()
        .iter()
        .map(|b| {
            eprintln!("exec: measuring {}...", b.name);
            compare(b, pick_reps(b, TARGET_NS))
        })
        .collect()
}

/// Smoke run: a few reps of every kernel through all three engines with
/// the equivalence asserts live — the CI differential gate. Timing
/// numbers are not meaningful at this size. Additionally asserts the
/// superinstruction compiler is alive on every loop kernel: at least
/// one group compiled and at least one fused dispatch executed.
pub fn exec_bench_smoke() -> Vec<ExecBenchRow> {
    defs()
        .iter()
        .map(|b| {
            let row = compare(b, 3);
            assert!(
                row.superinstructions >= 1,
                "{}: threaded translator compiled no superinstructions",
                b.name
            );
            assert!(
                row.fused_dispatch_rate > 0.0,
                "{}: no dispatch entered a fused handler",
                b.name
            );
            assert!(
                row.dispatches_per_insn > 0.0 && row.dispatches_per_insn < 1.0,
                "{}: dispatch-per-insn ratio not reduced ({})",
                b.name,
                row.dispatches_per_insn
            );
            assert!(
                !row.pair_histogram.is_empty(),
                "{}: empty superinstruction shape histogram",
                b.name
            );
            row
        })
        .collect()
}

/// The comparison as JSON (`BENCH_exec.json`).
pub fn exec_json(rows: &[ExecBenchRow]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::from(r.name)),
                ("reps", Json::from(r.reps)),
                ("decode_ns", Json::from(r.decode_ns)),
                ("threaded_ns", Json::from(r.threaded_ns)),
                ("adaptive_ns", Json::from(r.adaptive_ns)),
                ("promotions", Json::from(r.promotions)),
                ("cycles", Json::from(r.cycles)),
                ("insns", Json::from(r.insns)),
                ("batched_blocks", Json::from(r.batched_blocks)),
                (
                    "superinstructions_icode",
                    Json::from(r.superinstructions_icode),
                ),
                (
                    "superinstructions_icode_unsched",
                    Json::from(r.superinstructions_icode_unsched),
                ),
                (
                    "superinstructions_icode_delta",
                    Json::from(r.superinstructions_icode_delta()),
                ),
                ("superinstructions", Json::from(r.superinstructions)),
                ("fused_dispatch_rate", Json::from(r.fused_dispatch_rate)),
                ("dispatches_per_insn", Json::from(r.dispatches_per_insn)),
                (
                    "pair_histogram",
                    Json::Arr(
                        r.pair_histogram
                            .iter()
                            .map(|(shape, count)| {
                                Json::obj(vec![
                                    ("shape", Json::from(shape.as_str())),
                                    ("count", Json::from(*count)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("dispatch_hit_rate", Json::from(r.hit_rate)),
                ("speedup_threaded", Json::from(r.speedup_threaded())),
                ("speedup_adaptive", Json::from(r.speedup_adaptive())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("exec")),
        (
            "description",
            Json::from(
                "execution wall-clock: decode-per-step vs direct-threaded vs adaptive \
                 tiering (identical modeled cycles/insns asserted); \
                 superinstructions_icode_* measure the ICODE fusion-aware scheduler",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable comparison table.
pub fn exec_report(rows: &[ExecBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("Execution engines: wall-clock per kernel (identical modeled cycles)\n\n");
    out.push_str(
        "  bench     reps   decode (ns)   threaded (ns)   adaptive (ns)   thread   adapt   a/t     promo   icodeD   hit    super   srate   d/i\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:7} {:6}   {:11}   {:13}   {:13}   {:5.2}x  {:5.2}x  {:5.2}x   {:5}   {:+6}   {:4.2}   {:5}   {:5.2}   {:5.2}\n",
            r.name,
            r.reps,
            r.decode_ns,
            r.threaded_ns,
            r.adaptive_ns,
            r.speedup_threaded(),
            r.speedup_adaptive(),
            r.threaded_ns as f64 / r.adaptive_ns.max(1) as f64,
            r.promotions,
            r.superinstructions_icode_delta(),
            r.hit_rate,
            r.superinstructions,
            r.fused_dispatch_rate,
            r.dispatches_per_insn,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_a_kernel() {
        // One kernel end-to-end: compare() panics on any divergence in
        // checksum, cycles, or instruction count.
        let all = benchmarks(BLUR_SMALL);
        let b = all.iter().find(|b| b.name == "binary").unwrap();
        let row = compare(b, 3);
        assert_eq!(row.reps, 3);
        assert!(
            row.promotions > 0,
            "adaptive engine promoted nothing: {row:?}"
        );
        assert!(row.hit_rate > 0.9, "dispatch mostly fast: {row:?}");
        assert!(row.batched_blocks > 0, "threaded engine batched no blocks");
        assert!(
            row.superinstructions_icode >= row.superinstructions_icode_unsched,
            "scheduler must never lose superinstructions: {row:?}"
        );
        assert!(
            row.superinstructions > 0,
            "threaded translator compiled no superinstructions: {row:?}"
        );
        assert!(
            row.fused_dispatch_rate > 0.0 && row.fused_dispatch_rate <= 1.0,
            "fused dispatch rate out of range: {row:?}"
        );
        assert!(
            row.dispatches_per_insn > 0.0 && row.dispatches_per_insn < 1.0,
            "superinstructions must cut dispatches below one per insn: {row:?}"
        );
        assert!(!row.pair_histogram.is_empty(), "empty histogram: {row:?}");
    }

    #[test]
    fn json_has_rows_and_speedups() {
        let rows = vec![ExecBenchRow {
            name: "hash",
            reps: 10,
            decode_ns: 4000,
            threaded_ns: 500,
            adaptive_ns: 800,
            promotions: 4,
            cycles: 77,
            insns: 42,
            hit_rate: 0.99,
            batched_blocks: 12,
            superinstructions_icode: 9,
            superinstructions_icode_unsched: 7,
            superinstructions: 6,
            fused_dispatch_rate: 0.4,
            dispatches_per_insn: 0.6,
            pair_histogram: vec![("addiw+bne".into(), 30), ("addw+j".into(), 10)],
        }];
        let text = exec_json(&rows).to_string();
        for key in [
            "experiment",
            "decode_ns",
            "threaded_ns",
            "adaptive_ns",
            "promotions",
            "speedup_adaptive",
            "batched_blocks",
            "superinstructions_icode",
            "superinstructions_icode_unsched",
            "superinstructions_icode_delta",
            "speedup_threaded",
            "dispatch_hit_rate",
            "superinstructions",
            "fused_dispatch_rate",
            "dispatches_per_insn",
            "pair_histogram",
            "shape",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(text.contains("addiw+bne"), "histogram shapes serialized");
        for gone in ["predecoded_ns", "fused_ns", "fused_pairs", "speedup_fused"] {
            assert!(!text.contains(&format!("\"{gone}\"")), "{gone} retired");
        }
        assert!((rows[0].speedup_threaded() - 8.0).abs() < 1e-12);
        assert!((rows[0].speedup_adaptive() - 5.0).abs() < 1e-12);
        assert_eq!(rows[0].superinstructions_icode_delta(), 2);
    }
}
