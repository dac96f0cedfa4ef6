//! What every workload shares: run options, the metric catalogue,
//! session bring-up with setup spans, and the run's outcome.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tcc::{Config, Session};

use crate::host::Metric;
use crate::oracle::Tally;
use crate::trace::{Layer, Tracer};

/// Options every workload takes.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured time to aim for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Ctx {
    /// Time after which a workload stops starting rounds.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Whether round `i` is traced: in the traced run every other round
    /// is, so the untraced rounds in between measure the overhead.
    pub fn traced_round(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// Hard stop for the minimum-round rule, far inside the 180 s a run
/// may take.
pub const HARD_STOP: Duration = Duration::from_secs(120);

/// Whether a workload should start another round: until the budget is
/// spent and at least `min_rounds` ran, never past [`HARD_STOP`].
pub fn another_round(ctx: &Ctx, start: Instant, rounds: usize, min_rounds: usize) -> bool {
    let t = start.elapsed();
    t < HARD_STOP && (t < ctx.budget() || rounds < min_rounds)
}

/// The end-to-end metrics, in report order, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_us", "us"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("restart_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, in report order, with units. Every traced
/// run emits all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("front.parse_sema_us", "us"),
    ("mir.build_image_us", "us"),
    ("tickc.session_load_us", "us"),
    ("tickc.compile_call_us", "us"),
    ("tickc.spec_us", "us"),
    ("tickc.walk_us", "us"),
    ("tickc.closures", "count"),
    ("tickc.generated_insns", "count"),
    ("tickc.unrolled_iters", "count"),
    ("icode.flow_us", "us"),
    ("icode.liveness_us", "us"),
    ("icode.intervals_us", "us"),
    ("icode.alloc_us", "us"),
    ("icode.peephole_us", "us"),
    ("icode.emit_us", "us"),
    ("icode.ir_insns", "count"),
    ("icode.spills", "count"),
    ("icode.ns_per_insn", "ns"),
    ("vcode.ns_per_insn", "ns"),
    ("cache.shared_hit_rate", "share"),
    ("cache.shared_waits", "count"),
    ("cache.compiles_per_unique", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.persist_load_us", "us"),
    ("cache.persist_disk_hits", "count"),
    ("cache.persist_flush_us", "us"),
    ("cache.hit_us", "us"),
    ("vm.exec_call_us", "us"),
    ("vm.ns_per_insn", "ns"),
    ("vm.cycles", "count"),
    ("vm.insns", "count"),
    ("vm.translation_us", "us"),
    ("vm.runs_tier0", "count"),
    ("vm.runs_tier1", "count"),
    ("vm.runs_tier2", "count"),
    ("vm.promotions", "count"),
    ("vm.dispatches_per_insn", "ratio"),
    ("rt.heap_bytes_per_request", "bytes"),
    ("serve.busy_share", "share"),
    ("serve.stale_retries", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_share", "share"),
];

/// Metric values by name; [`Values::emit`] fills the catalogue order.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets one metric. The name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics of `catalogue`, unset ones as 0.
    pub fn emit(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name).unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Oracle accounting.
    pub tally: Tally,
    /// End-to-end metrics (from untraced rounds).
    pub e2e: Values,
    /// End-to-end metrics that could not be reported, with the reason.
    pub refused: Vec<String>,
    /// Per-layer metrics (from traced rounds).
    pub layers: Values,
    /// Per-program rows and other report lines.
    pub rows: Vec<String>,
    /// The merged span recorder of the traced run.
    pub tracer: Option<Tracer>,
}

/// Brings a session up. When tracing, the front end and the static
/// lowering are first called on their own, in spans, so that their cost
/// can be taken out of `Session::new`'s span (which repeats both).
///
/// # Panics
///
/// The benchmark's sources are fixed and compile; a front-end error is
/// a bug in the program under test.
pub fn new_session(src: &str, config: Config, tr: &mut Option<Tracer>) -> Session {
    if let Some(t) = tr {
        t.begin(Layer::ParseSema);
        let prog = tcc_front::compile_unit(src).expect("benchmark source parses");
        t.end(Layer::ParseSema);
        t.begin(Layer::BuildImage);
        let image = tcc_mir::build_image_scheduled(
            &prog,
            config.static_opt,
            config.mem_size,
            config.icode_schedule,
        )
        .expect("benchmark source lowers");
        t.end(Layer::BuildImage);
        drop(std::hint::black_box(image));
    }
    Tracer::span(tr, Layer::SessionNew, || Session::new(src, config))
        .expect("benchmark source compiles")
}

/// [`new_session`] inside a setup span, for sessions with no data setup.
pub fn setup_session(src: &str, config: Config, tr: &mut Option<Tracer>) -> Session {
    Tracer::open(tr, Layer::Setup);
    let s = new_session(src, config, tr);
    Tracer::close(tr, Layer::Setup);
    s
}

/// Removes a persistent store and its lock file, if present.
pub fn remove_store(store: &Path) {
    let mut lock = store.as_os_str().to_owned();
    lock.push(".lock");
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(PathBuf::from(lock));
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sets the setup-layer metrics from a recorder's spans: the two
/// pieces `Session::new` repeats and what it costs beyond them.
pub fn setup_layers(layers: &mut Values, tr: &Tracer) {
    let parse = tr.totals(Layer::ParseSema).mean_us();
    let build = tr.totals(Layer::BuildImage).mean_us();
    let new = tr.totals(Layer::SessionNew).mean_us();
    layers.set("front.parse_sema_us", parse);
    layers.set("mir.build_image_us", build);
    layers.set("tickc.session_load_us", new - parse - build);
}

/// Sets the trace's own metrics: overhead of traced over untraced
/// request time, and the share of traced request time no child span
/// covers.
pub fn trace_layers(layers: &mut Values, tr: &Tracer, traced_mean_ns: f64, bare_mean_ns: f64) {
    let req = tr.totals(Layer::Request);
    layers.set(
        "trace.overhead_pct",
        100.0 * (crate::stats::ratio(traced_mean_ns, bare_mean_ns) - 1.0),
    );
    layers.set(
        "trace.uncovered_share",
        crate::stats::ratio(req.self_ns as f64, req.total_ns as f64),
    );
}

/// Request latency samples split by whether their round was traced.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Request wall times in untraced rounds, ns.
    pub bare: Vec<f64>,
    /// Request wall times in traced rounds, ns.
    pub traced: Vec<f64>,
}

impl Latencies {
    /// Records one request.
    pub fn push(&mut self, traced: bool, ns: f64) {
        if traced {
            self.traced.push(ns);
        } else {
            self.bare.push(ns);
        }
    }

    /// Mean request time in traced and untraced rounds, ns.
    pub fn means(&self) -> (f64, f64) {
        let mean = |v: &[f64]| crate::stats::ratio(v.iter().sum(), v.len() as f64);
        (mean(&self.traced), mean(&self.bare))
    }
}

/// Sets `latency_p50_us` and `latency_p99_us` from untraced request
/// times (ns), or records why a percentile was refused.
pub fn latency_metrics(out: &mut Outcome, bare_ns: Vec<f64>) {
    let s = crate::stats::sorted(bare_ns);
    for (name, q) in [("latency_p50_us", 0.50), ("latency_p99_us", 0.99)] {
        match crate::stats::percentile(&s, q) {
            Ok(p) => {
                out.e2e.set(name, p.value / 1e3);
                out.rows.push(format!(
                    "{name} = {:.3} us over {} requests ({} beyond)",
                    p.value / 1e3,
                    p.samples,
                    p.beyond
                ));
            }
            Err(e) => out.refused.push(format!("{name}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed: Vec<&str> = crate::WORKLOADS
            .into_iter()
            .filter(|w| compact.contains(&format!("\"name\":\"{w}\",\"why\"")))
            .collect();
        assert_eq!(listed, ["compile-storm", "serve-replay"]);
        let names = compact.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + listed.len());
    }
}
