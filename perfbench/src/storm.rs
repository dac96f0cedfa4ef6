//! `compile-storm`: one ICODE linear-scan session with a persistent
//! store in a fresh path asks for N seeded, distinct closures of varied
//! size and shape. Every request misses, and each result runs once, at
//! tier 0. The session then drops, and a restarted session on the same
//! store asks for the same N closures: every one must be a disk hit,
//! with zero recompiles.
//!
//! This is where dyncomp and the ICODE passes do the work, with store
//! writes and then reads. Each result must equal the Rust reference of
//! its generator's formula.

use std::path::Path;
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use tcc::{Backend, Config, Session, SessionMetrics, Strategy};

use crate::common::{self, Ctx, Latencies, Outcome};
use crate::oracle::Tally;
use crate::stats::{median, ratio};
use crate::trace::{Layer, Tracer};

/// Distinct closures each pass asks for: two of every (shape, size).
pub const N: usize = 360;

/// Rounds a run makes at least: enough cold requests for a p99.
const MIN_ROUNDS: usize = 4;

/// The generators: each `long storm_*(int k, int a, int b)` builds a
/// closure of `k` composed pieces with `$`-bound constants and returns
/// the compiled `int (*)(int x)`.
pub const STORM_SRC: &str = r#"
    long storm_mix(int k, int a, int b) {
        int vspec x = param(int, 0);
        int cspec c = `x;
        int i;
        for (i = 0; i < k; i++) c = `((c ^ ($i * $a)) * $b + (x >> ($i & 7)));
        return (long)compile(c, int);
    }
    long storm_branch(int k, int a, int b) {
        int vspec x = param(int, 0);
        int vspec acc = local(int);
        void cspec body = `{ acc = x; };
        int i;
        for (i = 0; i < k; i++)
            body = `{ @body; if (acc & $a) acc = acc * $b; else acc = acc + $i; };
        return (long)compile(`{ @body; return acc; }, int);
    }
    long storm_poly(int k, int a, int b) {
        int vspec x = param(int, 0);
        int cspec c = `$a;
        int i;
        for (i = 0; i < k; i++) c = `(c * x + (($i + $b) ^ $a));
        return (long)compile(c, int);
    }
    long storm_unroll(int k, int a, int b) {
        int vspec x = param(int, 0);
        void cspec c = `{
            int j;
            int s;
            s = x;
            for (j = 0; j < $k; j++) s = s * $b + (j ^ $a);
            return s;
        };
        return (long)compile(c, int);
    }
"#;

/// A generator's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Expression chain with shifts of the argument.
    Mix,
    /// Statement chain of data-dependent branches.
    Branch,
    /// Horner polynomial in the argument.
    Poly,
    /// A loop over a `$` bound, unrolled at dynamic compile time.
    Unroll,
}

/// One requested closure: generator, its arguments, the argument it
/// runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Closure {
    /// Generator shape.
    pub shape: Shape,
    /// Pieces composed (size).
    pub k: i32,
    /// First `$` constant.
    pub a: i32,
    /// Second `$` constant.
    pub b: i32,
    /// Argument the compiled function runs on.
    pub x: i32,
}

impl Closure {
    /// The generator function's name.
    pub fn generator(&self) -> &'static str {
        match self.shape {
            Shape::Mix => "storm_mix",
            Shape::Branch => "storm_branch",
            Shape::Poly => "storm_poly",
            Shape::Unroll => "storm_unroll",
        }
    }

    /// The generator's arguments.
    pub fn args(&self) -> [u64; 3] {
        [self.k, self.a, self.b].map(|v| v as i64 as u64)
    }

    /// The generated function's result, computed in Rust from the
    /// generator's formula with C `int` arithmetic (wrapping, shifts
    /// arithmetic), returned sign-extended as the VM returns `int`.
    pub fn reference(&self) -> u64 {
        let (x, a, b) = (self.x, self.a, self.b);
        let r = match self.shape {
            Shape::Mix => (0..self.k).fold(x, |c, i| {
                (c ^ i.wrapping_mul(a))
                    .wrapping_mul(b)
                    .wrapping_add(x >> (i & 7))
            }),
            Shape::Branch => (0..self.k).fold(x, |acc, i| {
                if acc & a != 0 {
                    acc.wrapping_mul(b)
                } else {
                    acc.wrapping_add(i)
                }
            }),
            Shape::Poly => (0..self.k).fold(a, |c, i| {
                c.wrapping_mul(x).wrapping_add(i.wrapping_add(b) ^ a)
            }),
            Shape::Unroll => (0..self.k).fold(x, |s, j| s.wrapping_mul(b).wrapping_add(j ^ a)),
        };
        r as i64 as u64
    }
}

/// Closure shapes, in the order [`closures`] cycles through them.
const SHAPES: [Shape; 4] = [Shape::Mix, Shape::Branch, Shape::Poly, Shape::Unroll];

/// `n` distinct closures for `seed`. Shapes and sizes (4..=48 pieces)
/// are stratified, the same for every seed, so that the cost profile
/// does not swing with the draw; the seed draws the constants, the
/// arguments and the request order.
pub fn closures(seed: u64, n: usize) -> Vec<Closure> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5707_3d00);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    for idx in 0..n {
        let (shape, k) = (SHAPES[idx % 4], 4 + (idx / 4 % 45) as i32);
        loop {
            let c = Closure {
                shape,
                k,
                a: rng.gen_range(-100_000..100_000),
                b: rng.gen_range(-100_000..100_000),
                x: rng.gen_range(-1000..1000),
            };
            // Closures differ in (shape, k, a, b); x only picks the run.
            if seen.insert((c.shape, c.k, c.a, c.b)) {
                out.push(c);
                break;
            }
        }
    }
    for i in (1..n).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

fn config(store: &Path) -> Config {
    Config {
        backend: Backend::Icode {
            strategy: Strategy::LinearScan,
        },
        persist_path: Some(store.to_path_buf()),
        ..Config::default()
    }
}

/// What one pass of N requests measured.
#[derive(Default)]
struct Pass {
    /// Request wall times, ns.
    latency_ns: Vec<f64>,
    /// Execution-call wall times, ns.
    exec_ns: Vec<f64>,
    /// Instructions and cycles the executions retired.
    exec_insns: u64,
    exec_cycles: u64,
}

/// One request: the generator call (closure building + compile), then
/// one execution, checked against the reference.
fn request(s: &mut Session, c: &Closure, tr: &mut Option<Tracer>, tally: &mut Tally, p: &mut Pass) {
    let t0 = Instant::now();
    Tracer::open(tr, Layer::Request);
    let fp = Tracer::span(tr, Layer::CompileCall, || s.call(c.generator(), &c.args()));
    let t1 = Instant::now();
    let (i0, c0) = (s.insns(), s.cycles());
    let got = match fp {
        Ok(fp) => Tracer::span(tr, Layer::ExecCall, || {
            s.call_addr(fp, &[c.x as i64 as u64])
        }),
        Err(e) => Err(e),
    };
    let t2 = Instant::now();
    Tracer::close(tr, Layer::Request);
    p.exec_insns += s.insns() - i0;
    p.exec_cycles += s.cycles() - c0;
    p.latency_ns.push(t2.duration_since(t0).as_nanos() as f64);
    p.exec_ns.push(t2.duration_since(t1).as_nanos() as f64);
    tally.check(|| format!("{c:?}"), got, c.reference());
}

/// What one round (cold pass, flush, restart, warm pass) measured.
struct Round {
    traced: bool,
    setup_ns: f64,
    cold_wall_ns: f64,
    cold: Pass,
    /// VM heap the cold pass allocated.
    heap_bytes: u64,
    restart_ns: f64,
    warm: Pass,
    cold_metrics: SessionMetrics,
    warm_metrics: SessionMetrics,
}

fn round(
    cs: &[Closure],
    store: &Path,
    traced: bool,
    tr: &mut Option<Tracer>,
    tally: &mut Tally,
) -> Round {
    common::remove_store(store);
    let t = Instant::now();
    let mut s = common::setup_session(STORM_SRC, config(store), tr);
    let setup_ns = t.elapsed().as_nanos() as f64;
    let mut cold = Pass::default();
    let heap0 = s.vm.state().mem.brk();
    let t = Instant::now();
    for c in cs {
        request(&mut s, c, tr, tally, &mut cold);
    }
    let cold_wall_ns = t.elapsed().as_nanos() as f64;
    let heap_bytes = s.vm.state().mem.brk() - heap0;
    let cold_metrics = s.metrics();
    tally.require(cold_metrics.dynamic.compiles == cs.len() as u64, || {
        format!(
            "cold pass compiled {} of {} closures",
            cold_metrics.dynamic.compiles,
            cs.len()
        )
    });
    let flushed = Tracer::span(tr, Layer::Flush, || s.flush_persist());
    tally.require(flushed.is_ok(), || format!("flush failed: {flushed:?}"));
    drop(s);

    let t = Instant::now();
    let mut s = common::setup_session(STORM_SRC, config(store), tr);
    let mut warm = Pass::default();
    for c in cs {
        request(&mut s, c, tr, tally, &mut warm);
    }
    let restart_ns = t.elapsed().as_nanos() as f64;
    let warm_metrics = s.metrics();
    let (hits, compiles) = (
        warm_metrics.persist.disk_hits,
        warm_metrics.dynamic.compiles,
    );
    tally.require(hits == cs.len() as u64 && compiles == 0, || {
        format!(
            "warm pass: {hits} disk hits of {}, {compiles} recompiles",
            cs.len()
        )
    });
    drop(s);
    common::remove_store(store);
    Round {
        traced,
        setup_ns,
        cold_wall_ns,
        cold,
        heap_bytes,
        restart_ns,
        warm,
        cold_metrics,
        warm_metrics,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cs = closures(ctx.seed, N);
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("benchmark output directory");
    let epoch = Instant::now();
    let mut tracer = ctx.trace.then(|| Tracer::new(0, epoch));
    let mut rounds = Vec::new();
    let start = Instant::now();
    while common::another_round(ctx, start, rounds.len(), MIN_ROUNDS) {
        let traced = ctx.traced_round(rounds.len());
        let store = dir.join(format!(
            "storm-{}-{}.tccp",
            std::process::id(),
            rounds.len()
        ));
        let mut tr = if traced { tracer.take() } else { None };
        rounds.push(round(&cs, &store, traced, &mut tr, &mut out.tally));
        if traced {
            tracer = tr;
        }
    }
    summarize(&mut out, &rounds);
    if let Some(tr) = &tracer {
        common::setup_layers(&mut out.layers, tr);
        let cc = tr.totals(Layer::CompileCall);
        out.layers.set("tickc.compile_call_us", cc.mean_us());
        out.layers
            .set("vm.exec_call_us", tr.totals(Layer::ExecCall).mean_us());
        out.layers
            .set("cache.persist_flush_us", tr.totals(Layer::Flush).mean_us());
        let inside: f64 = rounds
            .iter()
            .filter(|r| r.traced)
            .flat_map(|r| [&r.cold_metrics, &r.warm_metrics])
            .map(|m| (m.dynamic.total_ns + m.cache.hit_ns) as f64)
            .sum();
        out.layers.set(
            "tickc.spec_us",
            ratio(cc.total_ns as f64 - inside, cc.count as f64) / 1e3,
        );
        let mut lat = Latencies::default();
        for r in &rounds {
            for &ns in r.cold.latency_ns.iter().chain(&r.warm.latency_ns) {
                lat.push(r.traced, ns);
            }
        }
        let (traced, bare) = lat.means();
        common::trace_layers(&mut out.layers, tr, traced, bare);
    }
    out.tracer = tracer;
    out
}

fn summarize(out: &mut Outcome, rounds: &[Round]) {
    let bare: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    if !bare.is_empty() {
        let e = &mut out.e2e;
        e.set(
            "setup_s",
            median(&bare.iter().map(|r| r.setup_ns).collect::<Vec<_>>()) / 1e9,
        );
        e.set(
            "restart_s",
            median(&bare.iter().map(|r| r.restart_ns).collect::<Vec<_>>()) / 1e9,
        );
        let exec: Vec<f64> = bare
            .iter()
            .flat_map(|r| r.cold.exec_ns.iter().copied())
            .collect();
        e.set("run_us", median(&exec) / 1e3);
        let requests: usize = bare.iter().map(|r| r.cold.latency_ns.len()).sum();
        let wall: f64 = bare.iter().map(|r| r.cold_wall_ns).sum();
        e.set("throughput_rps", ratio(requests as f64, wall / 1e9));
        let lat = bare
            .iter()
            .flat_map(|r| r.cold.latency_ns.iter().copied())
            .collect();
        common::latency_metrics(out, lat);
    }
    out.rows.push(format!(
        "compile-storm: {} rounds of {N} cold + {N} warm requests",
        rounds.len()
    ));

    // Counter-based layer metrics over every round.
    let n = rounds.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let l = &mut out.layers;
    let compiles = sum(&|r| r.cold_metrics.dynamic.compiles as f64);
    let per_compile =
        |f: &dyn Fn(&SessionMetrics) -> u64| ratio(sum(&|r| f(&r.cold_metrics) as f64), compiles);
    l.set("tickc.walk_us", per_compile(&|m| m.dynamic.walk_ns) / 1e3);
    l.set("tickc.closures", per_compile(&|m| m.dynamic.closures));
    l.set(
        "tickc.generated_insns",
        per_compile(&|m| m.dynamic.generated_insns),
    );
    l.set(
        "tickc.unrolled_iters",
        per_compile(&|m| m.dynamic.unrolled_iters),
    );
    l.set(
        "icode.flow_us",
        per_compile(&|m| m.dynamic.phases.flow_ns) / 1e3,
    );
    l.set(
        "icode.liveness_us",
        per_compile(&|m| m.dynamic.phases.liveness_ns) / 1e3,
    );
    l.set(
        "icode.intervals_us",
        per_compile(&|m| m.dynamic.phases.intervals_ns) / 1e3,
    );
    l.set(
        "icode.alloc_us",
        per_compile(&|m| m.dynamic.phases.alloc_ns) / 1e3,
    );
    l.set(
        "icode.peephole_us",
        per_compile(&|m| m.dynamic.phases.peephole_ns) / 1e3,
    );
    l.set(
        "icode.emit_us",
        per_compile(&|m| m.dynamic.phases.emit_ns) / 1e3,
    );
    l.set("icode.ir_insns", per_compile(&|m| m.dynamic.ir_insns));
    l.set("icode.spills", per_compile(&|m| m.dynamic.spills));
    l.set(
        "icode.ns_per_insn",
        ratio(
            sum(&|r| r.cold_metrics.dynamic.total_ns as f64),
            sum(&|r| r.cold_metrics.dynamic.generated_insns as f64),
        ),
    );
    let hits = sum(&|r| r.warm_metrics.persist.disk_hits as f64);
    l.set(
        "cache.persist_load_us",
        ratio(sum(&|r| r.warm_metrics.persist.load_ns as f64), hits) / 1e3,
    );
    l.set("cache.persist_disk_hits", hits / n);
    l.set(
        "cache.hit_us",
        ratio(
            sum(&|r| r.warm_metrics.cache.hit_ns as f64),
            sum(&|r| r.warm_metrics.cache.hits as f64),
        ) / 1e3,
    );
    l.set(
        "rt.heap_bytes_per_request",
        ratio(
            sum(&|r| r.heap_bytes as f64),
            sum(&|r| r.cold.latency_ns.len() as f64),
        ),
    );
    let passes = || rounds.iter().flat_map(|r| [&r.cold, &r.warm]);
    let execs: usize = passes().map(|p| p.exec_ns.len()).sum();
    let exec_ns: f64 = passes().flat_map(|p| p.exec_ns.iter()).sum();
    let insns: u64 = passes().map(|p| p.exec_insns).sum();
    l.set("vm.ns_per_insn", ratio(exec_ns, insns as f64));
    l.set("vm.insns", ratio(insns as f64, execs as f64));
    l.set(
        "vm.cycles",
        ratio(
            passes().map(|p| p.exec_cycles).sum::<u64>() as f64,
            execs as f64,
        ),
    );
    let sessions = 2.0 * n;
    let both = |f: &dyn Fn(&SessionMetrics) -> u64| {
        sum(&|r| (f(&r.cold_metrics) + f(&r.warm_metrics)) as f64)
    };
    l.set(
        "vm.translation_us",
        both(&|m| m.adaptive.translation_ns) / sessions / 1e3,
    );
    l.set("vm.runs_tier0", both(&|m| m.adaptive.runs_tier0) / sessions);
    l.set("vm.runs_tier1", both(&|m| m.adaptive.runs_tier1) / sessions);
    l.set("vm.runs_tier2", both(&|m| m.adaptive.runs_tier2) / sessions);
    l.set("vm.promotions", both(&|m| m.adaptive.promotions) / sessions);
    l.set(
        "vm.dispatches_per_insn",
        ratio(both(&|m| m.exec.dispatches), both(&|m| m.exec.fast_insns)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_deterministic_distinct_and_varied() {
        let a = closures(7, 200);
        assert_eq!(a, closures(7, 200), "same seed, same closures");
        assert_ne!(a, closures(8, 200), "another seed, other closures");
        let keys: std::collections::HashSet<_> =
            a.iter().map(|c| (c.shape, c.k, c.a, c.b)).collect();
        assert_eq!(keys.len(), a.len());
        for shape in SHAPES {
            assert!(a.iter().any(|c| c.shape == shape), "{shape:?} drawn");
        }
        assert!(a.iter().any(|c| c.k < 10) && a.iter().any(|c| c.k > 40));
    }

    #[test]
    fn generated_code_matches_the_reference_formulas() {
        let mut s = Session::new(STORM_SRC, Config::default()).expect("compiles");
        for c in closures(3, 24) {
            let fp = s.call(c.generator(), &c.args()).expect("generator runs");
            let got = s.call_addr(fp, &[c.x as i64 as u64]).expect("runs");
            assert_eq!(got, c.reference(), "{c:?}");
        }
    }
}
