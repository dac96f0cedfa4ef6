//! The tickc benchmark: one command, three workloads, every output
//! checked, end-to-end metrics from untraced runs and per-layer metrics
//! from a traced run.
//!
//! ```text
//! perfbench --workload <kernels|compile-storm|serve-replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result-a.tsv> <result-b.tsv>
//! ```
//!
//! The report goes to standard output; its last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). The run also writes
//! its result file, and with `--trace 1` its spans, under `out/` in the
//! benchmark's directory. See README.md.

mod common;
mod expected;
mod host;
mod kernels;
mod oracle;
mod serve;
mod stats;
mod storm;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Outcome, END_TO_END, PER_LAYER};
use host::{Host, Metric, ResultFile};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["kernels", "compile-storm", "serve-replay"];

/// Where runs write result files, spans and temporary stores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let ctx = &args.ctx;
    let host = Host::current();
    println!(
        "perfbench {} seed={} seconds={} trace={} | host nproc={} arch={} {} profile={} commit={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        host.nproc,
        host.arch,
        host.rustc,
        host.profile,
        host.commit
    );
    let mut out: Outcome = match args.workload.as_str() {
        "kernels" => kernels::run(ctx),
        "compile-storm" => storm::run(ctx),
        "serve-replay" => serve::run(ctx),
        w => unreachable!("workload {w} was validated"),
    };
    let rss = common::peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;
    out.e2e.set("peak_rss_mib", rss);

    for row in &out.rows {
        println!("  {row}");
    }
    let tally = &out.tally;
    println!(
        "  failed_share = {} ({} failed of {} attempted)",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        println!("  FAILED: {f}");
    }
    let e2e = out.e2e.emit(&END_TO_END);
    let missing: Vec<&str> = END_TO_END
        .iter()
        .filter(|(n, _)| out.e2e.get(n).is_none())
        .map(|(n, _)| *n)
        .collect();
    for m in &e2e {
        if out.e2e.get(m.name).is_some() {
            println!("  e2e {:<24} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    for r in &out.refused {
        println!("  refused: {r}");
    }
    let layers = out.layers.emit(&PER_LAYER);
    if ctx.trace {
        for m in &layers {
            println!("  layer {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        if let Some(tr) = &out.tracer {
            println!("  span self time (total ms / self ms / count):");
            for layer in trace::Layer::ALL {
                let t = tr.totals(layer);
                println!(
                    "    {:<14} {:>12.3} {:>12.3} {:>9}",
                    layer.name(),
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                    t.count
                );
            }
            let path = out_dir().join(format!("spans-{}-seed{}.tsv", args.workload, ctx.seed));
            tr.write_tsv(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("  spans written to {}", path.display());
        }
    }
    let mut all = e2e.clone();
    all.extend(layers.iter().cloned());
    let file = ResultFile {
        workload: &args.workload,
        seed: ctx.seed,
        trace: ctx.trace,
        host,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: all,
        rows: out.rows.clone(),
    }
    .write(&out_dir())
    .map_err(|e| format!("writing result file: {e}"))?;
    println!("  result written to {}", file.display());

    let metrics = if ctx.trace {
        layers
    } else {
        if !missing.is_empty() {
            return Err(format!(
                "end-to-end metrics not measured: {}",
                missing.join(", ")
            ));
        }
        e2e
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    Ok(json_line(
        correct,
        tally.attempted.max(1),
        tally.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match host::compare(a.as_ref(), b.as_ref()) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: perfbench --compare <result-a.tsv> <result-b.tsv>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let m = [Metric {
            name: "setup_s",
            value: 0.5,
            unit: "s",
        }];
        assert_eq!(
            json_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&v("--workload nope")).is_err());
        assert!(parse_args(&v("--workload kernels --trace 2")).is_err());
        assert!(parse_args(&v("--workload kernels --seconds")).is_err());
        let a = parse_args(&v("--workload serve-replay --seed 4 --seconds 2 --trace 1"))
            .expect("valid");
        assert_eq!((a.ctx.seed, a.ctx.seconds, a.ctx.trace), (4, 2.0, true));
    }
}
