//! `kernels`: the paper's §6.2 programs, each in a fresh default
//! session, compiled once and run a fixed number of times.
//!
//! This is where VM execution and the adaptive tier climb do the work;
//! compile work is one call per session. The run count is fixed because
//! the tier climb makes a run's cost depend on how many came before it.
//! Every run's result, and the side-effect check after the last run,
//! must equal the static-compiled program's after the same number of
//! runs, and the static results must equal the committed values in
//! [`crate::expected`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use tcc::{Config, Session};
use tcc_suite::{benchmarks, BenchDef, BLUR_SMALL};

use crate::common::{self, Ctx, Outcome};
use crate::oracle::Tally;
use crate::stats::{geomean, median, percentile, ratio, sorted};
use crate::trace::{Layer, Tracer};

/// Dynamic runs per session.
pub const RUNS: usize = 128;

/// Episodes (one session per program each) a run makes at least: with
/// [`RUNS`] runs per session this gives every program the thousand
/// samples its p99 needs.
const MIN_EPISODES: usize = 8;

/// The static-compiled program's results over [`RUNS`] runs and its
/// side-effect check after them.
pub struct Reference {
    /// Result of each run.
    pub results: Vec<u64>,
    /// Side-effect check after the last run.
    pub check: u64,
}

impl Reference {
    /// Runs the static version of `b` [`RUNS`] times in its own
    /// session.
    ///
    /// # Panics
    ///
    /// The static program fails: the oracle itself is broken.
    pub fn of_static(b: &BenchDef) -> Reference {
        let mut s = Session::with_defaults(b.src).expect("benchmark source compiles");
        (b.setup)(&mut s);
        let results = (0..RUNS).map(|_| (b.run_static)(&mut s)).collect();
        let check = (b.check)(&mut s);
        Reference { results, check }
    }

    /// Order-sensitive digest of the results and check, as committed.
    pub fn digest(&self) -> u64 {
        self.results
            .iter()
            .chain([&self.check])
            .fold(0x006b_6572_6e65_6c73, |h, &v| crate::expected::mix(h, v))
    }
}

/// What one program's session measured in one episode.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// `Session::new` plus the program's data setup, ns.
    pub setup_ns: f64,
    /// Setup, compile and the first run: time to the first result, ns.
    pub first_result_ns: f64,
    /// Wall time of each dynamic run, ns.
    pub run_ns: Vec<f64>,
    /// Modeled cycles over all runs.
    pub cycles: u64,
    /// Instructions over all runs.
    pub insns: u64,
    /// Function entries per tier during the runs.
    pub tiers: [u64; 3],
    /// Tier promotions during the runs.
    pub promotions: u64,
    /// Translation time during the runs, ns.
    pub translation_ns: u64,
    /// Threaded dispatches and fast-path instructions during the runs.
    pub dispatches: (u64, u64),
    /// The compile call's dynamic-compile and cache-hit ns, walk ns,
    /// generated instructions, closures and unrolled iterations.
    pub compile: tcc::DynMetrics,
    /// Cache hit ns inside the compile call.
    pub hit_ns: u64,
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// One program's episode: fresh session, one compile, [`RUNS`] runs,
/// each checked against `reference`.
pub fn episode(
    b: &BenchDef,
    reference: &Reference,
    tr: &mut Option<Tracer>,
    tally: &mut Tally,
) -> Episode {
    let mut ep = Episode::default();
    let t0 = Instant::now();
    Tracer::open(tr, Layer::Setup);
    let mut s = common::new_session(b.src, Config::default(), tr);
    (b.setup)(&mut s);
    Tracer::close(tr, Layer::Setup);
    ep.setup_ns = t0.elapsed().as_nanos() as f64;
    let compiled = Tracer::span(tr, Layer::CompileCall, || {
        guarded(|| (b.compile_dyn)(&mut s))
    });
    let m0 = s.metrics();
    ep.compile = m0.dynamic.clone();
    ep.hit_ns = m0.cache.hit_ns;
    let fp = match compiled {
        Ok(fp) => fp,
        Err(e) => {
            tally.require(false, || format!("{}: compile failed: {e}", b.name));
            return ep;
        }
    };
    s.reset_counters();
    for (r, &want) in reference.results.iter().enumerate() {
        let t = Instant::now();
        Tracer::open(tr, Layer::Request);
        let got = Tracer::span(tr, Layer::ExecCall, || guarded(|| (b.run_dyn)(&mut s, fp)));
        Tracer::close(tr, Layer::Request);
        let ns = t.elapsed().as_nanos() as f64;
        if r == 0 {
            ep.first_result_ns = t0.elapsed().as_nanos() as f64;
        }
        ep.run_ns.push(ns);
        tally.check(|| format!("{} run {r}", b.name), got, want);
    }
    ep.cycles = s.cycles();
    ep.insns = s.insns();
    let m1 = s.metrics();
    let (a0, a1) = (m0.adaptive, m1.adaptive);
    ep.tiers = [
        a1.runs_tier0 - a0.runs_tier0,
        a1.runs_tier1 - a0.runs_tier1,
        a1.runs_tier2 - a0.runs_tier2,
    ];
    ep.promotions = a1.promotions - a0.promotions;
    ep.translation_ns = a1.translation_ns - a0.translation_ns;
    ep.dispatches = (
        m1.exec.dispatches - m0.exec.dispatches,
        m1.exec.fast_insns - m0.exec.fast_insns,
    );
    let check = guarded(|| (b.check)(&mut s));
    tally.check(|| format!("{} check", b.name), check, reference.check);
    ep
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let benches = benchmarks(BLUR_SMALL);
    let references: Vec<Reference> = benches.iter().map(Reference::of_static).collect();
    for (b, r) in benches.iter().zip(&references) {
        let want = crate::expected::kernel_digest(b.name);
        out.tally.require(want == Some(r.digest()), || {
            format!(
                "{}: static results digest {:#x}, committed {want:?}",
                b.name,
                r.digest()
            )
        });
    }
    let epoch = Instant::now();
    let mut tracer = ctx.trace.then(|| Tracer::new(0, epoch));
    // episodes[program][episode] with the traced flag.
    let mut episodes: Vec<Vec<(bool, Episode)>> = vec![Vec::new(); benches.len()];
    let start = Instant::now();
    let mut n = 0;
    // The programs are fixed; the seed draws the order they run in,
    // afresh each episode.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x6b65_726e);
    let mut order: Vec<usize> = (0..benches.len()).collect();
    while common::another_round(ctx, start, n, MIN_EPISODES) {
        let traced = ctx.traced_round(n);
        let mut tr = if traced { tracer.take() } else { None };
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            let ep = episode(&benches[i], &references[i], &mut tr, &mut out.tally);
            episodes[i].push((traced, ep));
        }
        if traced {
            tracer = tr;
        }
        n += 1;
    }
    summarize(&mut out, &benches, &episodes);
    if let Some(tr) = &tracer {
        common::setup_layers(&mut out.layers, tr);
        let cc = tr.totals(Layer::CompileCall);
        out.layers.set("tickc.compile_call_us", cc.mean_us());
        out.layers
            .set("vm.exec_call_us", tr.totals(Layer::ExecCall).mean_us());
        let inside: f64 = episodes
            .iter()
            .flatten()
            .filter(|(t, _)| *t)
            .map(|(_, e)| (e.compile.total_ns + e.hit_ns) as f64)
            .sum();
        out.layers.set(
            "tickc.spec_us",
            ratio(cc.total_ns as f64 - inside, cc.count as f64) / 1e3,
        );
        let mut lat = common::Latencies::default();
        for (t, e) in episodes.iter().flatten() {
            for &ns in &e.run_ns {
                lat.push(*t, ns);
            }
        }
        let (traced, bare) = lat.means();
        common::trace_layers(&mut out.layers, tr, traced, bare);
    }
    out.tracer = tracer;
    out
}

/// Per-program rows, end-to-end metrics and counter-based layer
/// metrics from the episodes.
fn summarize(out: &mut Outcome, benches: &[BenchDef], episodes: &[Vec<(bool, Episode)>]) {
    let mut run_us = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cycles = Vec::new();
    let mut insns = Vec::new();
    let mut all_runs = 0usize;
    let mut all_run_ns = 0.0;
    let mut setup: Vec<f64> = Vec::new();
    let mut restart: Vec<f64> = Vec::new();
    for (b, eps) in benches.iter().zip(episodes) {
        let bare: Vec<&Episode> = eps.iter().filter(|(t, _)| !t).map(|(_, e)| e).collect();
        let per_run: Vec<f64> = bare
            .iter()
            .map(|e| e.run_ns.iter().sum::<f64>() / e.run_ns.len().max(1) as f64)
            .collect();
        let samples = sorted(bare.iter().flat_map(|e| e.run_ns.iter().copied()).collect());
        all_runs += samples.len();
        all_run_ns += samples.iter().sum::<f64>();
        let prog_run_us = median(&per_run) / 1e3;
        run_us.push(prog_run_us);
        let mut pct = |q: f64, sink: &mut Vec<f64>| match percentile(&samples, q) {
            Ok(p) => {
                sink.push(p.value / 1e3);
                format!(
                    "{:.3}us(n={},beyond={})",
                    p.value / 1e3,
                    p.samples,
                    p.beyond
                )
            }
            Err(e) => {
                out.refused.push(format!("{}: {e}", b.name));
                "refused".into()
            }
        };
        let p50_txt = pct(0.50, &mut p50);
        let p99_txt = pct(0.99, &mut p99);
        let all: Vec<&Episode> = eps.iter().map(|(_, e)| e).collect();
        let first = all[0];
        let runs = first.run_ns.len().max(1) as f64;
        cycles.push(first.cycles as f64 / runs);
        insns.push(first.insns as f64 / runs);
        for (i, e) in bare.iter().enumerate() {
            if setup.len() <= i {
                setup.push(0.0);
                restart.push(0.0);
            }
            setup[i] += e.setup_ns;
            restart[i] += e.first_result_ns;
        }
        out.rows.push(format!(
            "kernels.{} run_us={prog_run_us:.3} p50={p50_txt} p99={p99_txt} vm.cycles={} \
             vm.insns={} tier_runs={:?} episodes={}",
            b.name,
            first.cycles / runs as u64,
            first.insns / runs as u64,
            first.tiers,
            eps.len()
        ));
    }
    if !run_us.is_empty() && setup.iter().all(|&s| s > 0.0) {
        out.e2e.set("run_us", geomean(&run_us));
        out.e2e.set("setup_s", median(&setup) / 1e9);
        out.e2e.set("restart_s", median(&restart) / 1e9);
        out.e2e
            .set("throughput_rps", ratio(all_runs as f64, all_run_ns / 1e9));
    }
    if p50.len() == benches.len() {
        out.e2e.set("latency_p50_us", geomean(&p50));
    }
    if p99.len() == benches.len() {
        out.e2e.set("latency_p99_us", geomean(&p99));
    }
    out.rows.push(format!(
        "kernels: geomean over {} programs of per-program percentiles; {} runs per session",
        benches.len(),
        RUNS
    ));

    // Counter-based layer metrics, per session (or per run / per
    // compile), over every episode.
    let every: Vec<&Episode> = episodes.iter().flatten().map(|(_, e)| e).collect();
    let sessions = every.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Episode) -> f64| every.iter().map(|e| f(e)).sum::<f64>();
    let l = &mut out.layers;
    l.set("vm.cycles", geomean(&cycles));
    l.set("vm.insns", geomean(&insns));
    let exec_ns = sum(&|e| e.run_ns.iter().sum());
    l.set("vm.ns_per_insn", ratio(exec_ns, sum(&|e| e.insns as f64)));
    l.set(
        "vm.translation_us",
        sum(&|e| e.translation_ns as f64) / sessions / 1e3,
    );
    l.set("vm.runs_tier0", sum(&|e| e.tiers[0] as f64) / sessions);
    l.set("vm.runs_tier1", sum(&|e| e.tiers[1] as f64) / sessions);
    l.set("vm.runs_tier2", sum(&|e| e.tiers[2] as f64) / sessions);
    l.set("vm.promotions", sum(&|e| e.promotions as f64) / sessions);
    l.set(
        "vm.dispatches_per_insn",
        ratio(
            sum(&|e| e.dispatches.0 as f64),
            sum(&|e| e.dispatches.1 as f64),
        ),
    );
    let compiles = sum(&|e| e.compile.compiles as f64);
    l.set(
        "vcode.ns_per_insn",
        ratio(
            sum(&|e| e.compile.total_ns as f64),
            sum(&|e| e.compile.generated_insns as f64),
        ),
    );
    l.set(
        "tickc.walk_us",
        ratio(sum(&|e| e.compile.walk_ns as f64), compiles) / 1e3,
    );
    l.set(
        "tickc.closures",
        ratio(sum(&|e| e.compile.closures as f64), compiles),
    );
    l.set(
        "tickc.generated_insns",
        ratio(sum(&|e| e.compile.generated_insns as f64), compiles),
    );
    l.set(
        "tickc.unrolled_iters",
        ratio(sum(&|e| e.compile.unrolled_iters as f64), compiles),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        long make(int n) {
            int cspec c = `($n * 3);
            return (long)compile(c, int);
        }
    "#;

    fn def(run_dyn: fn(&mut Session, u64) -> u64) -> BenchDef {
        BenchDef {
            name: "probe",
            style: "test",
            src: SRC,
            setup: |_| {},
            run_static: |_| 42,
            compile_dyn: |s| s.call("make", &[14]).expect("compiles"),
            run_dyn,
            check: |_| 0,
        }
    }

    fn reference() -> Reference {
        Reference {
            results: vec![42; 3],
            check: 0,
        }
    }

    #[test]
    fn forced_wrong_results_and_errors_count_as_failed() {
        let mut tally = Tally::default();
        let ok = def(|s, fp| s.call_addr(fp, &[]).expect("runs"));
        episode(&ok, &reference(), &mut None, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (4, 0));

        let wrong = def(|s, fp| s.call_addr(fp, &[]).expect("runs") + 1);
        episode(&wrong, &reference(), &mut None, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (8, 3));

        let error = def(|s, _| s.call("no_such_function", &[]).expect("fails"));
        episode(&error, &reference(), &mut None, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (12, 6));
        assert!((tally.failed_share() - 0.5).abs() < 1e-12);
    }

    /// Prints the digests [`crate::expected`] commits; run with
    /// `cargo test --release -- --ignored --nocapture` after a
    /// deliberate change to a program or to [`RUNS`].
    #[test]
    #[ignore]
    fn print_static_digests() {
        for b in benchmarks(BLUR_SMALL) {
            println!(
                "(\"{}\", {:#018x}),",
                b.name,
                Reference::of_static(&b).digest()
            );
        }
    }

    #[test]
    fn committed_digests_match_the_static_programs() {
        for b in benchmarks(BLUR_SMALL) {
            let d = Reference::of_static(&b).digest();
            assert_eq!(
                crate::expected::kernel_digest(b.name),
                Some(d),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn traced_episode_records_every_span() {
        let mut tally = Tally::default();
        let ok = def(|s, fp| s.call_addr(fp, &[]).expect("runs"));
        let mut tr = Some(Tracer::new(0, Instant::now()));
        episode(&ok, &reference(), &mut tr, &mut tally);
        let tr = tr.expect("kept");
        for (layer, n) in [
            (Layer::Setup, 1),
            (Layer::ParseSema, 1),
            (Layer::BuildImage, 1),
            (Layer::SessionNew, 1),
            (Layer::CompileCall, 1),
            (Layer::Request, 3),
            (Layer::ExecCall, 3),
        ] {
            assert_eq!(tr.totals(layer).count, n, "{layer:?}");
        }
        assert_eq!(tally.failed, 0);
    }
}
