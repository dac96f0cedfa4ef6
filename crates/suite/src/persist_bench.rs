//! Warm-start benchmark for the persistent cross-process code cache.
//!
//! The in-memory caches die with the process; the persistent store
//! (`tcc-cache`'s `PersistentStore`) does not. This benchmark measures
//! the economics that survive a restart: a "cold" process compiles a
//! working set of dynamic closures against a fresh store and exits
//! (flushing the store), then a "warm" process with the same store
//! path replays the identical requests and answers every one from
//! disk. Per kernel it reports total compile-path nanoseconds cold vs
//! warm and the resulting warm-start speedup — the multiple of CGF
//! cost a restart no longer pays. Emitted as `BENCH_persist.json` by
//! the suite binary and gated by `suite exec-check`.
//!
//! Process death is simulated by dropping the session (which flushes
//! the dirty store and releases the writer lock) and opening a new one
//! on the same path — the exact code path a real restart takes, minus
//! the `fork`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tcc::{Config, Session};
use tcc_obs::json::Json;

/// The benchmark's code-generating kernels: serve-style entry points
/// `long pk_*(int p)` whose closures are long specialization chains
/// (compile cost dwarfs a disk load + install).
pub const PERSIST_KERNELS: [&str; 3] = ["pk_pow", "pk_hash", "pk_dot"];

/// The combined `C source every benchmark process loads. The `+ 280`
/// floor keeps every cell's closure body long even at small `p`.
pub const PERSIST_SRC: &str = r#"
    long pk_pow(int p) {
        int vspec x = param(int, 0);
        int cspec c = `1;
        int i;
        for (i = 0; i < p + 280; i++) c = `(c * (x + $i * 257) + $p);
        return (long)compile(c, int);
    }
    long pk_hash(int p) {
        int vspec x = param(int, 0);
        int cspec h = `x;
        int i;
        for (i = 0; i < p + 280; i++) h = `((h ^ ($i * 40503)) * 31 + $p);
        return (long)compile(h, int);
    }
    long pk_dot(int p) {
        int vspec x = param(int, 0);
        int cspec c = `0;
        int i;
        for (i = 1; i <= p + 280; i++) c = `(c * 31 + (x >> $i) * ($i * 40503 + $p));
        return (long)compile(c, int);
    }
"#;

/// Knobs for one persist sweep.
#[derive(Clone, Copy, Debug)]
pub struct PersistBenchOptions {
    /// Parameter values per kernel (cells = kernels × this).
    pub params_per_kernel: u64,
    /// Measurement repetitions (min taken; every cold rep gets a fresh
    /// store).
    pub reps: usize,
}

impl PersistBenchOptions {
    /// The benchmark configuration `suite persist` reports on.
    pub fn full() -> PersistBenchOptions {
        PersistBenchOptions {
            params_per_kernel: 6,
            reps: 3,
        }
    }

    /// A seconds-scale variant for CI (`suite persist --smoke`).
    pub fn smoke() -> PersistBenchOptions {
        PersistBenchOptions {
            params_per_kernel: 2,
            reps: 1,
        }
    }
}

/// One row of the sweep (one kernel across its parameter cells).
#[derive(Clone, Debug)]
pub struct PersistBenchRow {
    /// Kernel name.
    pub kernel: String,
    /// Distinct closures compiled (parameter cells).
    pub cells: u64,
    /// Total compile-path nanoseconds in the cold process (fresh
    /// store: every request fingerprints and runs the CGF).
    pub cold_ns: u64,
    /// Total compile-path nanoseconds in the warm process (same store
    /// path: every request fingerprints, loads from disk, installs).
    pub warm_ns: u64,
    /// Disk hits the warm process observed (must equal `cells`).
    pub disk_hits: u64,
    /// Nanoseconds the warm process spent inside store loads.
    pub load_ns: u64,
}

impl PersistBenchRow {
    /// Compile-path cost multiple a warm start avoids.
    pub fn warm_speedup(&self) -> f64 {
        self.cold_ns as f64 / self.warm_ns.max(1) as f64
    }
}

/// Fresh store path per (process-pair, rep): the sweep runs many
/// simulated processes and never wants two sharing a store by
/// accident.
fn store_path(kernel: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tcc-persist-bench-{kernel}-{}-{n}.tccp",
        std::process::id()
    ))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.to_path_buf().into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}

/// What one simulated process measured.
struct ProcessRun {
    /// The session's compile-path cost: nanoseconds inside the
    /// `compile` intercept — CGF walks (`dynamic.total_ns`) plus hit
    /// answering (`cache.hit_ns`, which for a warm process is the
    /// fingerprint + disk load + install time). The interpretive
    /// closure construction that precedes the intercept is identical
    /// on both sides and deliberately excluded.
    compile_path_ns: u64,
    /// Result of executing each cell (differential record).
    results: Vec<u64>,
    disk_hits: u64,
    dyn_compiles: u64,
    load_ns: u64,
}

/// One simulated process: open a session on `path`, drive every cell
/// of `kernel`, execute each produced function once, exit (drop the
/// session, flushing the store).
fn run_process(path: &Path, kernel: &str, params: u64) -> ProcessRun {
    let mut s = Session::new(
        PERSIST_SRC,
        Config {
            persist_path: Some(path.to_path_buf()),
            ..Config::default()
        },
    )
    .expect("benchmark source compiles");
    let mut results = Vec::with_capacity(params as usize);
    for p in 1..=params {
        let addr = s.call(kernel, &[p]).expect("cell compiles");
        let arg = p * 7 % 13 + 1;
        results.push(s.call_addr(addr, &[arg]).expect("cell runs"));
    }
    let m = s.metrics();
    ProcessRun {
        compile_path_ns: m.dynamic.total_ns + m.cache.hit_ns,
        results,
        disk_hits: m.persist.disk_hits,
        dyn_compiles: m.dynamic.compiles,
        load_ns: m.persist.load_ns,
    }
}

/// One (cold process, warm process) pair over a fresh store. Panics on
/// any divergence: a warm request that recompiled, missed disk, or
/// produced a different result than the cold process.
fn run_pair(kernel: &str, params: u64) -> (u64, u64, u64, u64) {
    let path = store_path(kernel);
    let cold = run_process(&path, kernel, params);
    assert_eq!(cold.disk_hits, 0, "{kernel}: cold run hit a stale store");
    assert_eq!(
        cold.dyn_compiles, params,
        "{kernel}: cold run must compile all"
    );
    let warm = run_process(&path, kernel, params);
    assert_eq!(
        warm.disk_hits, params,
        "{kernel}: warm run must answer every cell from disk"
    );
    assert_eq!(warm.dyn_compiles, 0, "{kernel}: warm run recompiled");
    assert_eq!(
        warm.results, cold.results,
        "{kernel}: disk-loaded code diverged from the compile"
    );
    cleanup(&path);
    (
        cold.compile_path_ns,
        warm.compile_path_ns,
        warm.disk_hits,
        warm.load_ns,
    )
}

/// Runs the sweep: per kernel, `reps` (cold, warm) process pairs, min
/// taken per side.
pub fn persist_bench(opts: &PersistBenchOptions) -> Vec<PersistBenchRow> {
    PERSIST_KERNELS
        .iter()
        .map(|&kernel| {
            let mut cold_ns = u64::MAX;
            let mut warm_ns = u64::MAX;
            let mut disk_hits = 0;
            let mut load_ns = u64::MAX;
            for _ in 0..opts.reps.max(1) {
                let (c, w, h, l) = run_pair(kernel, opts.params_per_kernel);
                cold_ns = cold_ns.min(c);
                warm_ns = warm_ns.min(w);
                disk_hits = h;
                load_ns = load_ns.min(l);
            }
            PersistBenchRow {
                kernel: kernel.to_string(),
                cells: opts.params_per_kernel,
                cold_ns,
                warm_ns,
                disk_hits,
                load_ns,
            }
        })
        .collect()
}

/// The sweep as JSON (`BENCH_persist.json`).
pub fn persist_json(rows: &[PersistBenchRow]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("kernel", Json::from(r.kernel.as_str())),
                ("cells", Json::from(r.cells)),
                ("cold_ns", Json::from(r.cold_ns)),
                ("warm_ns", Json::from(r.warm_ns)),
                ("disk_hits", Json::from(r.disk_hits)),
                ("load_ns", Json::from(r.load_ns)),
                ("warm_speedup", Json::from(r.warm_speedup())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("persist")),
        (
            "description",
            Json::from(
                "compile-path cost of a cold process vs a warm restart \
                 answering from the persistent store",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable sweep table.
pub fn persist_report(rows: &[PersistBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("Persistent store: cold compile vs warm restart from disk\n");
    out.push_str("(process death simulated by session drop + reopen on one store path)\n\n");
    out.push_str("  kernel    cells   cold (ns)      warm (ns)      speedup\n");
    for r in rows {
        out.push_str(&format!(
            "  {:8}  {:5}   {:12}   {:12}   {:6.1}x\n",
            r.kernel,
            r.cells,
            r.cold_ns,
            r.warm_ns,
            r.warm_speedup(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pair_round_trips_through_the_store() {
        let (cold_ns, warm_ns, disk_hits, _load_ns) = run_pair("pk_pow", 2);
        assert_eq!(disk_hits, 2);
        assert!(cold_ns > 0 && warm_ns > 0);
        // The hard ≥5x floor is gated on release-mode numbers; debug
        // unit tests only require warm to be cheaper at all.
        assert!(
            warm_ns < cold_ns,
            "warm restart not cheaper: {warm_ns} vs {cold_ns}"
        );
    }

    #[test]
    fn json_has_rows_and_speedup() {
        let rows = vec![PersistBenchRow {
            kernel: "pk_pow".into(),
            cells: 6,
            cold_ns: 50_000,
            warm_ns: 5_000,
            disk_hits: 6,
            load_ns: 900,
        }];
        let text = persist_json(&rows).to_string();
        for key in ["experiment", "kernel", "cold_ns", "warm_ns", "warm_speedup"] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }
}
