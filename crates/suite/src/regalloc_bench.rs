//! The two ICODE register allocators in isolation — the Figure 3
//! linear scan vs the Chaitin-style graph colorer — across program
//! sizes and register pressure (`BENCH_regalloc.json`). Each cell
//! compiles one deterministic random program and records wall-clock
//! per compile plus the allocation phase's share, intervals and spills.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcc_icode::{IcodeBuf, IcodeCompiler, Strategy};
use tcc_obs::json::Json;
use tcc_rt::ValKind;
use tcc_vcode::ops::BinOp;
use tcc_vcode::CodeSink;
use tcc_vm::CodeSpace;

/// Program sizes (ICODE operations) swept.
const REGALLOC_SIZES: [usize; 3] = [50, 200, 800];

/// Live-value windows (approximate register pressure) swept.
const REGALLOC_WINDOWS: [usize; 2] = [6, 24];

/// One (allocator, size, window) cell.
#[derive(Clone, Debug)]
pub struct RegallocRow {
    /// `linear_scan` or `graph_color`.
    pub strategy: &'static str,
    /// ICODE operations in the program.
    pub n: usize,
    /// Live-value window.
    pub window: usize,
    /// Mean wall-clock per whole ICODE compile (peephole off).
    pub ns_per_compile: f64,
    /// Allocation phase of the last compile.
    pub alloc_ns: u64,
    /// Allocation's share of the last compile's phases.
    pub alloc_fraction: f64,
    /// Live intervals allocated.
    pub intervals: usize,
    /// Intervals spilled.
    pub spills: u32,
}

/// Builds a deterministic random program with `n` operations over a
/// sliding window of live values (register pressure ~window).
fn random_program(n: usize, window: usize, seed: u64) -> IcodeBuf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = IcodeBuf::new();
    let p0 = b.param(0, ValKind::W);
    let p1 = b.param(1, ValKind::W);
    let mut vals = vec![p0, p1];
    for _ in 0..n {
        let d = b.temp(ValKind::W);
        let i = vals.len() - rng.gen_range(1..=window.min(vals.len()));
        let j = vals.len() - rng.gen_range(1..=window.min(vals.len()));
        let op = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Mul][rng.gen_range(0..4usize)];
        b.bin(op, ValKind::W, d, vals[i], vals[j]);
        vals.push(d);
    }
    // Keep the last `window` values live to the end.
    let acc = b.temp(ValKind::W);
    b.li(acc, 0);
    for &v in vals.iter().rev().take(window) {
        b.bin(BinOp::Add, ValKind::W, acc, acc, v);
    }
    b.ret_val(ValKind::W, acc);
    b
}

/// Sweeps every (size, window, allocator) cell; `smoke` times two
/// compiles per cell instead of a few hundred.
pub fn regalloc_bench(smoke: bool) -> Vec<RegallocRow> {
    let iters = if smoke { 2 } else { 200 };
    let mut rows = Vec::new();
    for n in REGALLOC_SIZES {
        for window in REGALLOC_WINDOWS {
            let program = random_program(n, window, 42);
            for (name, strategy) in [
                ("linear_scan", Strategy::LinearScan),
                ("graph_color", Strategy::GraphColor),
            ] {
                let mut comp = IcodeCompiler::new(strategy);
                comp.run_peephole = false;
                let mut total = std::time::Duration::ZERO;
                let mut last = None;
                for _ in 0..iters {
                    let (mut code, buf) = (CodeSpace::new(), program.clone());
                    let t = std::time::Instant::now();
                    let r = comp.compile(&mut code, "p", buf);
                    total += t.elapsed();
                    last = Some(r);
                }
                let r = last.expect("at least one compile");
                rows.push(RegallocRow {
                    strategy: name,
                    n,
                    window,
                    ns_per_compile: total.as_nanos() as f64 / iters as f64,
                    alloc_ns: r.phases.alloc_ns,
                    alloc_fraction: r.phases.alloc_fraction(),
                    intervals: r.intervals,
                    spills: r.spills,
                });
            }
        }
    }
    rows
}

/// The sweep as JSON (`BENCH_regalloc.json`).
pub fn regalloc_json(rows: &[RegallocRow]) -> Json {
    let rows = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("strategy", Json::from(r.strategy)),
                ("n", Json::from(r.n)),
                ("window", Json::from(r.window)),
                ("ns_per_compile", Json::from(r.ns_per_compile)),
                ("alloc_ns", Json::from(r.alloc_ns)),
                ("alloc_fraction", Json::from(r.alloc_fraction)),
                ("intervals", Json::from(r.intervals)),
                ("spills", Json::from(r.spills)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("regalloc")),
        (
            "description",
            Json::from(
                "ICODE linear scan vs graph coloring on random programs of n operations \
                 over a live-value window: wall-clock per compile, allocation phase, spills",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable table, one line per cell.
pub fn regalloc_report(rows: &[RegallocRow]) -> String {
    let mut out = String::from("ICODE register allocation: linear scan vs graph coloring\n\n");
    out.push_str(
        "  allocator      n  window   ns/compile   alloc (ns)  alloc%  intervals  spills\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:11} {:4} {:7} {:12.0} {:12} {:6.0}% {:10} {:7}\n",
            r.strategy,
            r.n,
            r.window,
            r.ns_per_compile,
            r.alloc_ns,
            r.alloc_fraction * 100.0,
            r.intervals,
            r.spills
        ));
    }
    out
}
