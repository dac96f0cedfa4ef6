//! `serve-replay`: a closed loop of 2 worker sessions on 2 threads
//! replaying a seeded Zipfian stream of `tcc_serve::SERVE_SRC` cells.
//! The sessions share one `SharedArtifacts` with the persistent store
//! on; every [`CHURN_EVERY`]-th request invalidates a resident artifact
//! first; there is no background translation thread.
//!
//! This is where spec-time closure building, fingerprinting and shared
//! cache reads and invalidations do the work. A request is one
//! compile-path call plus one execution; a `StaleCode` fault caused by
//! the other worker's churn is retried and is not a failure. Each
//! result must equal the Rust reference of its kernel's formula. After
//! each round the pool drops and a restarted pool on the same store
//! asks for every cell once.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::distributions::{Distribution, Zipf};
use rand::{rngs::StdRng, SeedableRng};
use tcc::{Config, Error, Session, SessionMetrics, SharedArtifacts, SharedCacheMetrics, VmError};
use tcc_serve::{KERNELS, SERVE_SRC};

use crate::common::{self, Ctx, Outcome};
use crate::oracle::Tally;
use crate::stats::{median, percentile, ratio, sorted, Percentile};
use crate::trace::{Layer, Tracer};

/// Parameter values per kernel: 5 kernels × 8 = 40 cells.
pub const PARAMS_PER_KERNEL: u32 = 8;
/// Zipf exponent of the cell popularity.
pub const ZIPF_S: f64 = 1.1;
/// Invalidate a resident artifact before every this many requests.
pub const CHURN_EVERY: usize = 64;
/// Requests in the pre-generated stream; workers cycle through it.
const STREAM_LEN: usize = 1 << 16;
/// Requests per round, across both workers. Each round starts fresh
/// sessions; see the README on why a round is bounded by requests.
const ROUND_REQUESTS: usize = 160_000;
/// Rounds a run makes at least.
const MIN_ROUNDS: usize = 6;
/// Worker threads (and sessions) in the pool.
const WORKERS: usize = 2;
/// `StaleCode` retries after which a request counts as failed.
const MAX_RETRIES: u32 = 100;

/// Distinct cells.
pub const CELLS: u32 = KERNELS.len() as u32 * PARAMS_PER_KERNEL;

/// One cell: a (kernel, parameter) pair and the argument it runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell(pub u32);

impl Cell {
    /// Kernel generator name.
    pub fn kernel(self) -> &'static str {
        KERNELS[self.0 as usize % KERNELS.len()]
    }

    /// The `$`-bound parameter.
    pub fn param(self) -> u64 {
        u64::from(self.0) / KERNELS.len() as u64 + 1
    }

    /// The argument the compiled function runs on.
    pub fn arg(self) -> u64 {
        (u64::from(self.0) * 7 + 3) % 97 + 1
    }

    /// The kernel's formula in Rust with C `int` arithmetic, returned
    /// sign-extended as the VM returns `int`.
    pub fn reference(self) -> u64 {
        let x = self.arg() as i32;
        let p = self.param() as i32;
        let r = match self.kernel() {
            "srv_pow" => (0..p).fold(1i32, |c, _| c.wrapping_mul(x)),
            "srv_poly" => (1..=p).fold(0i32, |c, i| c.wrapping_mul(x).wrapping_add(i)),
            "srv_filter" => ((x >> p) ^ x) & ((1 << p) + 7),
            "srv_hash" => (0..p).fold(x, |h, i| (h ^ i.wrapping_mul(40503)).wrapping_mul(31)),
            "srv_dot" => (1..=p).fold(0i32, |c, i| c.wrapping_add((x >> i).wrapping_mul(i))),
            k => unreachable!("unknown kernel {k}"),
        };
        r as i64 as u64
    }
}

/// The request stream for `seed`: Zipfian cell draws.
pub fn stream(seed: u64) -> Vec<Cell> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_5eed);
    let zipf = Zipf::new(u64::from(CELLS), ZIPF_S).expect("valid Zipf parameters");
    (0..STREAM_LEN)
        .map(|_| Cell((zipf.sample(&mut rng) - 1) as u32))
        .collect()
}

fn config(shared: &Arc<SharedArtifacts>, store: &Path) -> Config {
    Config {
        shared: Some(Arc::clone(shared)),
        persist_path: Some(store.to_path_buf()),
        ..Config::default()
    }
}

/// What one worker measured in one round.
#[derive(Default)]
struct WorkerOut {
    latency_ns: Vec<f64>,
    exec_ns: Vec<f64>,
    exec_insns: u64,
    exec_cycles: u64,
    stale_retries: u64,
    cells_seen: u64,
    tally: Tally,
}

/// One request: compile-path call plus execution, retried on a stale
/// fault, checked against the reference.
fn request(s: &mut Session, cell: Cell, tr: &mut Option<Tracer>, out: &mut WorkerOut) {
    let mut retries = 0;
    let (got, exec_ns) = loop {
        let fp = Tracer::span(tr, Layer::CompileCall, || {
            s.call(cell.kernel(), &[cell.param()])
        });
        let t1 = Instant::now();
        let (i0, c0) = (s.insns(), s.cycles());
        let got = match fp {
            Ok(fp) => Tracer::span(tr, Layer::ExecCall, || s.call_addr(fp, &[cell.arg()])),
            Err(e) => Err(e),
        };
        out.exec_insns += s.insns() - i0;
        out.exec_cycles += s.cycles() - c0;
        let exec_ns = t1.elapsed().as_nanos() as f64;
        match got {
            Err(Error::Vm(VmError::StaleCode(_))) if retries < MAX_RETRIES => retries += 1,
            got => break (got, exec_ns),
        }
    };
    out.stale_retries += u64::from(retries);
    out.exec_ns.push(exec_ns);
    out.cells_seen |= 1 << cell.0;
    out.tally
        .check(|| format!("{cell:?}"), got, cell.reference());
}

/// The closed loop of one worker until the round's requests are taken.
fn worker(
    s: &mut Session,
    shared: &SharedArtifacts,
    stream: &[Cell],
    next: &AtomicUsize,
    tr: &mut Option<Tracer>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= ROUND_REQUESTS {
            break;
        }
        let t0 = Instant::now();
        Tracer::open(tr, Layer::Request);
        if i > 0 && i.is_multiple_of(CHURN_EVERY) {
            if let Some(fp) = shared.sample_fingerprint(i as u64) {
                shared.invalidate(&fp);
            }
        }
        request(s, stream[i % stream.len()], tr, &mut out);
        Tracer::close(tr, Layer::Request);
        out.latency_ns.push(t0.elapsed().as_nanos() as f64);
    }
    out
}

/// What one round measured, reduced to its statistics.
struct Round {
    traced: bool,
    setup_ns: f64,
    wall_ns: f64,
    requests: usize,
    p50: Result<Percentile, String>,
    p99: Result<Percentile, String>,
    mean_ns: f64,
    busy_ns: f64,
    /// Mean execution call: churn keeps demoting code to tier 0, so
    /// the calls mix tiers and a median would sit between them.
    exec_mean_ns: f64,
    stale_retries: u64,
    unique: u32,
    /// Executions, their summed wall time, instructions and cycles
    /// (replay and restart).
    execs: usize,
    exec_ns: f64,
    exec_insns: u64,
    exec_cycles: u64,
    /// VM heap the replay sessions allocated.
    heap_bytes: u64,
    restart_ns: f64,
    shared: SharedCacheMetrics,
    /// Metrics of the replay sessions, then the restarted ones.
    sessions: Vec<SessionMetrics>,
}

/// Builds the pool's sessions on `shared`, in setup spans on `tr`.
fn pool(shared: &Arc<SharedArtifacts>, store: &Path, tr: &mut Option<Tracer>) -> Vec<Session> {
    (0..WORKERS)
        .map(|_| common::setup_session(SERVE_SRC, config(shared, store), tr))
        .collect()
}

/// Runs `f` on each session on its own thread, with that worker's
/// recorder.
fn on_workers(
    sessions: &mut [Session],
    tracers: &mut [Option<Tracer>; WORKERS],
    f: impl Fn(usize, &mut Session, &mut Option<Tracer>) -> WorkerOut + Sync,
) -> Vec<WorkerOut> {
    std::thread::scope(|scope| {
        let f = &f;
        let joins: Vec<_> = sessions
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(w, (s, tr))| scope.spawn(move || f(w, s, tr)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("serve worker panicked"))
            .collect()
    })
}

fn heap(s: &Session) -> u64 {
    s.vm.state().mem.brk()
}

fn round(
    stream: &[Cell],
    store: &Path,
    traced: bool,
    tracers: &mut [Option<Tracer>; WORKERS],
    tally: &mut Tally,
) -> Round {
    common::remove_store(store);
    let shared = SharedArtifacts::new(16, None);
    let t = Instant::now();
    let mut sessions = pool(&shared, store, &mut tracers[0]);
    let setup_ns = t.elapsed().as_nanos() as f64;
    let heap0: u64 = sessions.iter().map(heap).sum();

    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let workers = on_workers(&mut sessions, tracers, |_, s, tr| {
        worker(s, &shared, stream, &next, tr)
    });
    let wall_ns = t.elapsed().as_nanos() as f64;
    let heap_bytes = sessions.iter().map(heap).sum::<u64>() - heap0;
    let shared_metrics = shared.metrics();
    let mut metrics: Vec<SessionMetrics> = sessions.iter().map(Session::metrics).collect();
    let flushed = Tracer::span(&mut tracers[0], Layer::Flush, || {
        sessions[0].flush_persist()
    });
    tally.require(flushed.is_ok(), || format!("flush failed: {flushed:?}"));
    drop(sessions);
    drop(shared);

    // Restart: a fresh pool on the same store asks for every cell once,
    // split between the two workers.
    let t = Instant::now();
    let shared = SharedArtifacts::new(16, None);
    let mut sessions = pool(&shared, store, &mut tracers[0]);
    let restart = on_workers(&mut sessions, tracers, |w, s, tr| {
        let mut out = WorkerOut::default();
        for c in (w as u32..CELLS).step_by(WORKERS) {
            request(s, Cell(c), tr, &mut out);
        }
        out
    });
    let restart_ns = t.elapsed().as_nanos() as f64;
    metrics.extend(sessions.iter().map(Session::metrics));
    drop(sessions);
    drop(shared);
    common::remove_store(store);

    let latency = sorted(
        workers
            .iter()
            .flat_map(|w| w.latency_ns.iter().copied())
            .collect(),
    );
    let replay_execs: usize = workers.iter().map(|w| w.exec_ns.len()).sum();
    let replay_exec_ns: f64 = workers.iter().flat_map(|w| &w.exec_ns).sum();
    let all = || workers.iter().chain(&restart);
    let round = Round {
        traced,
        setup_ns,
        wall_ns,
        requests: latency.len(),
        p50: percentile(&latency, 0.50),
        p99: percentile(&latency, 0.99),
        mean_ns: ratio(latency.iter().sum(), latency.len() as f64),
        busy_ns: latency.iter().sum(),
        exec_mean_ns: ratio(replay_exec_ns, replay_execs as f64),
        stale_retries: workers.iter().map(|w| w.stale_retries).sum(),
        unique: workers
            .iter()
            .fold(0u64, |m, w| m | w.cells_seen)
            .count_ones(),
        execs: all().map(|w| w.exec_ns.len()).sum(),
        exec_ns: all().flat_map(|w| w.exec_ns.iter()).sum(),
        exec_insns: all().map(|w| w.exec_insns).sum(),
        exec_cycles: all().map(|w| w.exec_cycles).sum(),
        heap_bytes,
        restart_ns,
        shared: shared_metrics,
        sessions: metrics,
    };
    for w in workers.into_iter().chain(restart) {
        tally.merge(w.tally);
    }
    round
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let stream = stream(ctx.seed);
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("benchmark output directory");
    let epoch = Instant::now();
    let mut tracers: [Option<Tracer>; WORKERS] =
        std::array::from_fn(|w| ctx.trace.then(|| Tracer::new(w as u8, epoch)));
    let mut rounds = Vec::new();
    let start = Instant::now();
    while common::another_round(ctx, start, rounds.len(), MIN_ROUNDS) {
        let i = rounds.len();
        let traced = ctx.traced_round(i);
        let store = dir.join(format!("serve-{}-{i}.tccp", std::process::id()));
        let mut trs: [Option<Tracer>; WORKERS] = if traced {
            std::array::from_fn(|w| tracers[w].take())
        } else {
            std::array::from_fn(|_| None)
        };
        rounds.push(round(&stream, &store, traced, &mut trs, &mut out.tally));
        if traced {
            tracers = trs;
        }
    }
    summarize(&mut out, &rounds);
    let [t0, t1] = tracers;
    if let (Some(mut tr), Some(t1)) = (t0, t1) {
        tr.merge(t1);
        common::setup_layers(&mut out.layers, &tr);
        let cc = tr.totals(Layer::CompileCall);
        out.layers.set("tickc.compile_call_us", cc.mean_us());
        out.layers
            .set("vm.exec_call_us", tr.totals(Layer::ExecCall).mean_us());
        out.layers
            .set("cache.persist_flush_us", tr.totals(Layer::Flush).mean_us());
        let traced = || rounds.iter().filter(|r| r.traced);
        let inside: f64 = traced()
            .flat_map(|r| &r.sessions)
            .map(|m| (m.dynamic.total_ns + m.cache.hit_ns) as f64)
            .sum();
        out.layers.set(
            "tickc.spec_us",
            ratio(cc.total_ns as f64 - inside, cc.count as f64) / 1e3,
        );
        let mean = |rs: Vec<&Round>| median(&rs.iter().map(|r| r.mean_ns).collect::<Vec<_>>());
        let bare = mean(rounds.iter().filter(|r| !r.traced).collect());
        common::trace_layers(&mut out.layers, &tr, mean(traced().collect()), bare);
        out.tracer = Some(tr);
    }
    out
}

fn summarize(out: &mut Outcome, rounds: &[Round]) {
    let bare: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let med = |f: &dyn Fn(&Round) -> f64| median(&bare.iter().map(|r| f(r)).collect::<Vec<_>>());
    if !bare.is_empty() {
        let setups: Vec<String> = bare
            .iter()
            .map(|r| format!("{:.2}", r.setup_ns / 1e6))
            .collect();
        out.rows
            .push(format!("setup ms per round: {}", setups.join(" ")));
        out.e2e.set("setup_s", med(&|r| r.setup_ns) / 1e9);
        out.e2e.set("restart_s", med(&|r| r.restart_ns) / 1e9);
        out.e2e.set("run_us", med(&|r| r.exec_mean_ns) / 1e3);
        out.e2e.set(
            "throughput_rps",
            med(&|r| r.requests as f64 / (r.wall_ns / 1e9)),
        );
        for (name, pick) in [
            (
                "latency_p50_us",
                (|r: &Round| r.p50.clone()) as fn(&Round) -> _,
            ),
            ("latency_p99_us", |r: &Round| r.p99.clone()),
        ] {
            let ps: Result<Vec<Percentile>, String> = bare.iter().map(|r| pick(r)).collect();
            match ps {
                Ok(ps) => {
                    let v = median(&ps.iter().map(|p| p.value).collect::<Vec<_>>()) / 1e3;
                    out.e2e.set(name, v);
                    out.rows.push(format!(
                        "{name} = {v:.3} us: median over {} rounds of each round's \
                         percentile over {} requests ({} beyond)",
                        ps.len(),
                        ps[0].samples,
                        ps[0].beyond
                    ));
                }
                Err(e) => out.refused.push(format!("{name}: {e}")),
            }
        }
    }

    let n = rounds.len().max(1) as f64;
    let total: usize = rounds.iter().map(|r| r.requests).sum();
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let hits = sum(&|r| r.shared.hits as f64);
    let misses = sum(&|r| r.shared.misses as f64);
    out.rows.push(format!(
        "serve-replay: {} rounds of {ROUND_REQUESTS} requests; shared-cache misses are \
         {:.3}% of requests",
        rounds.len(),
        100.0 * ratio(misses, total as f64)
    ));
    let l = &mut out.layers;
    l.set("cache.shared_hit_rate", ratio(hits, hits + misses));
    l.set("cache.shared_waits", sum(&|r| r.shared.waits as f64) / n);
    l.set(
        "cache.invalidations",
        sum(&|r| r.shared.invalidations as f64) / n,
    );
    l.set(
        "cache.compiles_per_unique",
        ratio(
            sum(&|r| r.shared.published as f64),
            sum(&|r| f64::from(r.unique) + (r.shared.invalidations + r.shared.evictions) as f64),
        ),
    );
    let sessions = || rounds.iter().flat_map(|r| &r.sessions);
    let s_sum = |f: &dyn Fn(&SessionMetrics) -> u64| sessions().map(|m| f(m) as f64).sum::<f64>();
    let count = sessions().count().max(1) as f64;
    l.set(
        "vcode.ns_per_insn",
        ratio(
            s_sum(&|m| m.dynamic.total_ns),
            s_sum(&|m| m.dynamic.generated_insns),
        ),
    );
    let restarted = || rounds.iter().map(|r| &r.sessions[WORKERS]);
    let restart_hits: f64 = restarted().map(|m| m.persist.disk_hits as f64).sum();
    l.set("cache.persist_disk_hits", restart_hits / n);
    l.set(
        "cache.persist_load_us",
        ratio(
            restarted().map(|m| m.persist.load_ns as f64).sum(),
            restart_hits,
        ) / 1e3,
    );
    l.set(
        "vm.translation_us",
        s_sum(&|m| m.adaptive.translation_ns) / count / 1e3,
    );
    l.set("vm.runs_tier0", s_sum(&|m| m.adaptive.runs_tier0) / count);
    l.set("vm.runs_tier1", s_sum(&|m| m.adaptive.runs_tier1) / count);
    l.set("vm.runs_tier2", s_sum(&|m| m.adaptive.runs_tier2) / count);
    l.set("vm.promotions", s_sum(&|m| m.adaptive.promotions) / count);
    l.set(
        "vm.dispatches_per_insn",
        ratio(s_sum(&|m| m.exec.dispatches), s_sum(&|m| m.exec.fast_insns)),
    );
    let execs = sum(&|r| r.execs as f64);
    let insns = sum(&|r| r.exec_insns as f64);
    l.set("vm.ns_per_insn", ratio(sum(&|r| r.exec_ns), insns));
    l.set("vm.insns", ratio(insns, execs));
    l.set("vm.cycles", ratio(sum(&|r| r.exec_cycles as f64), execs));
    l.set(
        "rt.heap_bytes_per_request",
        ratio(sum(&|r| r.heap_bytes as f64), total as f64),
    );
    l.set(
        "serve.busy_share",
        ratio(sum(&|r| r.busy_ns), sum(&|r| r.wall_ns * WORKERS as f64)),
    );
    l.set("serve.stale_retries", sum(&|r| r.stale_retries as f64) / n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let a = stream(11);
        assert_eq!(a, stream(11), "same seed, same stream");
        assert_ne!(a, stream(12), "another seed, another stream");
        assert!(a.iter().all(|c| c.0 < CELLS));
        let hot = a.iter().filter(|c| c.0 == 0).count();
        assert!(hot * CELLS as usize > 2 * a.len(), "Zipf head is hot");
    }

    #[test]
    fn cells_match_the_reference_formulas() {
        let mut s = Session::new(SERVE_SRC, Config::default()).expect("compiles");
        for c in 0..CELLS {
            let cell = Cell(c);
            let fp = s.call(cell.kernel(), &[cell.param()]).expect("compiles");
            let got = s.call_addr(fp, &[cell.arg()]).expect("runs");
            assert_eq!(got, cell.reference(), "{cell:?}");
        }
    }
}
