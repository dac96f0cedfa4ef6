//! Serve-pool benchmark: the multi-tenant codegen service under a
//! seeded Zipfian load, swept across pool sizes.
//!
//! [`tcc_serve::run_serve`] does the heavy lifting (worker threads,
//! shared artifact cache, per-request differential); this module runs
//! it at each pool size in [`SERVE_THREADS`], asserts the cross-pool
//! replay digest is bit-identical (the concurrency differential — a
//! request's result, instruction count, and cycle count may not depend
//! on which thread compiled or executed it), and serializes the
//! results as `BENCH_serve.json` for the regression gate
//! ([`crate::GATES`]).

use tcc_obs::json::Json;
use tcc_serve::{run_serve, ServeOptions, ServeReport};

/// Pool sizes swept by `suite serve`.
pub const SERVE_THREADS: [usize; 3] = [1, 2, 4];

/// One pool size's measurement, flattened for serialization.
#[derive(Clone, Debug)]
pub struct ServeBenchRow {
    /// Worker threads (= sessions) in the pool.
    pub threads: u64,
    /// Requests served.
    pub requests: u64,
    /// Wall-clock for the whole replay.
    pub elapsed_ns: u64,
    /// Requests per second over the wall clock.
    pub throughput_rps: f64,
    /// Median per-request latency.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency.
    pub p99_ns: u64,
    /// 99.9th-percentile per-request latency.
    pub p999_ns: u64,
    /// Shared-cache hit rate (hits / (hits + misses)).
    pub hit_rate: f64,
    /// Shared-cache hits (installs or memo touches).
    pub hits: u64,
    /// Shared-cache misses (compile claims granted).
    pub misses: u64,
    /// Requests that blocked on another thread's in-flight compile.
    pub waits: u64,
    /// Artifacts evicted by the byte budget.
    pub evictions: u64,
    /// Artifacts invalidated by rule-set churn.
    pub invalidations: u64,
    /// Distinct cells the stream requested.
    pub unique_fingerprints: u64,
    /// Compiles actually performed (shared-cache publishes).
    pub compiles: u64,
    /// Compiles per compile-worthy event; ≈ 1 means no duplicates.
    pub compiles_per_unique: f64,
    /// `StaleCode` faults workers recovered from.
    pub stale_faults: u64,
    /// Order-independent replay digest — identical across pool sizes.
    pub checksum: u64,
}

impl From<&ServeReport> for ServeBenchRow {
    fn from(r: &ServeReport) -> ServeBenchRow {
        ServeBenchRow {
            threads: r.threads as u64,
            requests: r.requests,
            elapsed_ns: r.elapsed_ns,
            throughput_rps: r.throughput_rps,
            p50_ns: r.p50_ns,
            p99_ns: r.p99_ns,
            p999_ns: r.p999_ns,
            hit_rate: r.metrics.hit_rate(),
            hits: r.metrics.hits,
            misses: r.metrics.misses,
            waits: r.metrics.waits,
            evictions: r.metrics.evictions,
            invalidations: r.metrics.invalidations,
            unique_fingerprints: r.unique_fingerprints,
            compiles: r.compiles,
            compiles_per_unique: r.compiles_per_unique,
            stale_faults: r.stale_faults,
            checksum: r.checksum,
        }
    }
}

/// Replays one workload at every pool size and asserts the cross-pool
/// differential: same checksum, same working set, regardless of N.
fn run_pools(opts: &ServeOptions) -> Vec<ServeBenchRow> {
    let rows: Vec<ServeBenchRow> = SERVE_THREADS
        .iter()
        .map(|&n| {
            eprintln!(
                "serve: replaying {} requests over {n} worker(s)...",
                opts.requests
            );
            ServeBenchRow::from(&run_serve(n, opts))
        })
        .collect();
    for r in &rows[1..] {
        assert_eq!(
            r.checksum, rows[0].checksum,
            "pool size {} diverged from the single-thread replay",
            r.threads
        );
        assert_eq!(r.unique_fingerprints, rows[0].unique_fingerprints);
    }
    rows
}

/// Full run: the benchmark configuration behind `BENCH_serve.json`.
pub fn serve_bench() -> Vec<ServeBenchRow> {
    run_pools(&ServeOptions::full())
}

/// Smoke run: a short replay with every differential assert live — the
/// CI concurrency gate. Timing numbers are not meaningful at this size.
pub fn serve_bench_smoke() -> Vec<ServeBenchRow> {
    run_pools(&ServeOptions::smoke())
}

/// The sweep as JSON (`BENCH_serve.json`), one row per pool keyed by
/// `"threads"`. The checksum is a 16-digit hex string so the full 64
/// bits survive consumers that read JSON numbers as doubles.
pub fn serve_json(rows: &[ServeBenchRow]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("threads", Json::from(r.threads)),
                ("requests", Json::from(r.requests)),
                ("elapsed_ns", Json::from(r.elapsed_ns)),
                ("throughput_rps", Json::from(r.throughput_rps)),
                ("p50_ns", Json::from(r.p50_ns)),
                ("p99_ns", Json::from(r.p99_ns)),
                ("p999_ns", Json::from(r.p999_ns)),
                ("hit_rate", Json::from(r.hit_rate)),
                ("hits", Json::from(r.hits)),
                ("misses", Json::from(r.misses)),
                ("waits", Json::from(r.waits)),
                ("evictions", Json::from(r.evictions)),
                ("invalidations", Json::from(r.invalidations)),
                ("unique_fingerprints", Json::from(r.unique_fingerprints)),
                ("compiles", Json::from(r.compiles)),
                ("compiles_per_unique", Json::from(r.compiles_per_unique)),
                ("stale_faults", Json::from(r.stale_faults)),
                ("checksum", Json::from(format!("{:016x}", r.checksum))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("serve")),
        (
            "description",
            Json::from(
                "multi-tenant serve pool: seeded Zipfian compile/execute replay across \
                 worker threads sharing one artifact cache; checksum is the \
                 order-independent replay digest (bit-identical across pool sizes)",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable sweep table.
pub fn serve_report(rows: &[ServeBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("Serve pool: Zipfian replay over the shared artifact cache\n\n");
    out.push_str(
        "  threads   req      rps        p50(ns)    p99(ns)    p999(ns)   hit    c/u    compiles  waits  stale  evict  inval  checksum\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:7} {:5}   {:9.0}   {:8} {:10} {:10}    {:4.2}   {:4.2}   {:7} {:6} {:6} {:6} {:6}   {:016x}\n",
            r.threads,
            r.requests,
            r.throughput_rps,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.hit_rate,
            r.compiles_per_unique,
            r.compiles,
            r.waits,
            r.stale_faults,
            r.evictions,
            r.invalidations,
            r.checksum,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(threads: u64, rps: f64, p99: u64) -> ServeBenchRow {
        ServeBenchRow {
            threads,
            requests: 2000,
            elapsed_ns: 20_000_000,
            throughput_rps: rps,
            p50_ns: 4_000,
            p99_ns: p99,
            p999_ns: p99 * 3,
            hit_rate: 0.96,
            hits: 1900,
            misses: 70,
            waits: 3,
            evictions: 0,
            invalidations: 30,
            unique_fingerprints: 40,
            compiles: 69,
            compiles_per_unique: 0.99,
            stale_faults: 2,
            checksum: 0xf7d1_7d56_bf35_cfd4,
        }
    }

    #[test]
    fn json_has_rows_keys_and_hex_checksum() {
        let text = serve_json(&[sample(4, 100_000.0, 60_000)]).pretty();
        for key in [
            "experiment",
            "threads",
            "throughput_rps",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "hit_rate",
            "compiles_per_unique",
            "stale_faults",
            "unique_fingerprints",
            "checksum",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
        // The digest survives as a quoted hex string, not a lossy f64.
        assert!(text.contains("\"f7d17d56bf35cfd4\""), "{text}");
    }

    #[test]
    fn report_lists_every_pool_size() {
        let rows = vec![sample(1, 50_000.0, 40_000), sample(4, 100_000.0, 60_000)];
        let text = serve_report(&rows);
        assert!(text.contains("threads"));
        assert!(text.lines().count() >= 4);
    }
}
