//! Command-line harness: regenerates every table and figure.
//!
//! Usage:
//!
//! ```text
//! suite [all|table1|figure4|figure5|figure6|figure7|blur|sensitivity|smoke|cache|exec|adaptive|serve|persist|ablations|regalloc|codegen|exec-check] [--small] [--smoke] [--json]
//! ```
//!
//! With `--json`, each measured experiment also writes a machine-readable
//! `BENCH_<experiment>.json` file into the current directory (see
//! DESIGN.md for the schema). `smoke` runs one small benchmark through
//! all five compilation paths (two static, three dynamic) and exits
//! non-zero if any path disagrees — the CI gate. `exec` compares the
//! four execution engines (decode-per-step, predecoded, predecoded +
//! fused, direct-threaded) on the loop-heavy kernels; `exec --smoke`
//! runs the same comparison at a few reps with the equivalence asserts
//! live. `adaptive` sweeps reuse counts through the fixed engines and
//! the adaptive tiering engine — both synchronous and with the
//! background translation worker — each timed region starting from a
//! cold translation cache (`BENCH_adaptive.json`, including per-run
//! cold max/p99 tail columns); `adaptive --smoke` runs a tiny sweep
//! with the equivalence asserts live. `serve` replays a seeded Zipfian
//! compile/execute stream over pools of 1, 2, and 4 worker sessions
//! sharing one artifact cache, reporting throughput, p50/p99/p999
//! latency, hit rate, and compiles-per-unique (`BENCH_serve.json`);
//! the cross-pool replay digest is asserted bit-identical, and `serve
//! --smoke` runs a short replay with the same asserts — the CI
//! concurrency gate. `persist` measures the warm-start economics of
//! the persistent on-disk code cache: per kernel, a cold process
//! compiles a cell sweep against a fresh store and exits, then a warm
//! process on the same store path answers the identical sweep from
//! disk (`BENCH_persist.json`); the bench asserts the warm process
//! recompiled nothing and produced bit-identical results, and
//! `persist --smoke` runs a two-cell sweep with the same asserts — the
//! CI durability gate. `exec-check [fresh [baseline]]` compares a
//! freshly written `BENCH_exec.json` (default `./BENCH_exec.json`)
//! against a committed baseline (default `baselines/BENCH_exec.json`),
//! and each sibling `BENCH_<exp>.json` in the same two directories
//! against its counterpart, under the gate table `tcc_suite::GATES`
//! (exec speedups and dispatches per instruction, the adaptive tail
//! ratio, serve throughput/p99 and largest-pool bounds, persist
//! warm-start speedups); it exits non-zero on any violated bound, and
//! a sibling missing on either side warns and skips that experiment.
//! `ablations`, `regalloc` and `codegen` time the design ablations,
//! the two ICODE register allocators, and dynamic compilation per
//! cspec shape and back end (`--smoke`: a few reps, asserts live). If
//! any `--json` output file cannot be written the remaining files are
//! still written and the run exits non-zero naming every failure.

use tcc_obs::json::Json;
use tcc_suite::{
    ablation_bench, ablation_json, ablation_report, adaptive_bench, adaptive_bench_smoke,
    adaptive_json, adaptive_report, benchmarks, cache_bench, cache_json, cache_report, check_set,
    codegen_bench, codegen_json, codegen_report, exec_bench, exec_bench_smoke, exec_json,
    exec_report, json_report, measure, ns_per_cycle, persist_bench, persist_json, persist_report,
    regalloc_bench, regalloc_json, regalloc_report, report, serve_bench, serve_bench_smoke,
    serve_json, serve_report, DynBackend, Measurement, PersistBenchOptions, BLUR_FULL, BLUR_SMALL,
};

/// Writes one `BENCH_<name>.json`. An unwritable path (read-only cwd,
/// ENOSPC, …) is not a panic: the failure is recorded so the caller
/// can finish writing the remaining files and exit non-zero naming
/// everything that failed — measured results that *did* serialize are
/// never thrown away because a sibling file could not be.
fn write_json(name: &str, j: &Json, failed: &mut Vec<String>) {
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, j.pretty()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            failed.push(path);
        }
    }
}

/// Exits non-zero listing every output file that failed to write; a
/// no-op when all writes succeeded.
fn exit_on_write_failures(failed: &[String]) {
    if !failed.is_empty() {
        eprintln!("error: failed to write: {}", failed.join(", "));
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let small = args.iter().any(|a| a == "--small");
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let known = [
        "all",
        "table1",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "blur",
        "sensitivity",
        "smoke",
        "cache",
        "exec",
        "adaptive",
        "serve",
        "persist",
        "ablations",
        "regalloc",
        "codegen",
        "exec-check",
    ];
    if !known.contains(&what) {
        eprintln!("unknown experiment {what}; try {}", known.join("|"));
        std::process::exit(2);
    }
    let blur_dims = if small { BLUR_SMALL } else { BLUR_FULL };
    let mut failed_writes: Vec<String> = Vec::new();

    if what == "smoke" {
        // One small benchmark, every compilation path; measure() panics
        // if the two static and three dynamic paths disagree.
        let b = benchmarks(BLUR_SMALL)
            .into_iter()
            .find(|b| b.name == "pow")
            .expect("pow bench");
        let m = measure(&b);
        println!(
            "smoke ok: {} — static(lcc)={}cyc static(gcc)={}cyc vcode={}cyc icode-ls={}cyc icode-gc={}cyc",
            m.name,
            m.static_naive_cycles,
            m.static_opt_cycles,
            m.dynamic[DynBackend::Vcode as usize].run_cycles,
            m.dynamic[DynBackend::IcodeLinear as usize].run_cycles,
            m.dynamic[DynBackend::IcodeColor as usize].run_cycles,
        );
        return;
    }

    if what == "exec-check" {
        // Regression gate: every experiment in the gate table, the
        // named exec files plus their BENCH_<exp>.json siblings.
        let positional: Vec<&String> = args
            .iter()
            .filter(|a| !a.starts_with("--") && a.as_str() != "exec-check")
            .collect();
        let path = |i: usize, default: &str| {
            std::path::PathBuf::from(positional.get(i).map_or(default, |s| s.as_str()))
        };
        match check_set(
            &path(0, "BENCH_exec.json"),
            &path(1, "baselines/BENCH_exec.json"),
        ) {
            Ok(report) => print!("{report}"),
            Err(report) => {
                eprint!("{report}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Design ablations, allocator comparison, per-shape codegen cost:
    // their correctness asserts are live at both sizes.
    let timed = match what {
        "ablations" => {
            let rows = ablation_bench(smoke);
            Some((ablation_json(&rows), ablation_report(&rows)))
        }
        "regalloc" => {
            let rows = regalloc_bench(smoke);
            Some((regalloc_json(&rows), regalloc_report(&rows)))
        }
        "codegen" => {
            let rows = codegen_bench(smoke);
            Some((codegen_json(&rows), codegen_report(&rows)))
        }
        _ => None,
    };
    if let Some((j, text)) = timed {
        if json {
            write_json(what, &j, &mut failed_writes);
        }
        print!("{text}");
        exit_on_write_failures(&failed_writes);
        return;
    }

    if what == "persist" {
        // Cold-vs-warm restart economics of the on-disk store. The
        // warm process's structural asserts (all disk hits, zero
        // recompiles, bit-identical results) are live at both sizes;
        // --smoke keeps the sweep to two cells per kernel for CI.
        let opts = if smoke {
            PersistBenchOptions::smoke()
        } else {
            PersistBenchOptions::full()
        };
        let rows = persist_bench(&opts);
        if json {
            write_json("persist", &persist_json(&rows), &mut failed_writes);
        }
        print!("{}", persist_report(&rows));
        exit_on_write_failures(&failed_writes);
        return;
    }

    if what == "serve" {
        // Multi-tenant pool replay. The cross-pool differential (same
        // replay digest at every pool size) asserts inside the bench;
        // --smoke keeps the stream short for CI.
        let rows = if smoke {
            serve_bench_smoke()
        } else {
            serve_bench()
        };
        if json {
            write_json("serve", &serve_json(&rows), &mut failed_writes);
        }
        print!("{}", serve_report(&rows));
        exit_on_write_failures(&failed_writes);
        return;
    }

    if what == "adaptive" {
        // Reuse-count sweep: cold-start translate+run cost per engine,
        // with the cross-engine equivalence asserts always live.
        let rows = if smoke {
            adaptive_bench_smoke()
        } else {
            adaptive_bench()
        };
        if json {
            write_json("adaptive", &adaptive_json(&rows), &mut failed_writes);
        }
        print!("{}", adaptive_report(&rows));
        exit_on_write_failures(&failed_writes);
        return;
    }

    if what == "exec" {
        // Engine differential + wall-clock comparison. The equivalence
        // asserts (checksum/cycles/insns across engines) are always
        // live; --smoke keeps rep counts tiny for CI.
        let rows = if smoke {
            exec_bench_smoke()
        } else {
            exec_bench()
        };
        if json {
            write_json("exec", &exec_json(&rows), &mut failed_writes);
        }
        print!("{}", exec_report(&rows));
        exit_on_write_failures(&failed_writes);
        return;
    }

    eprintln!("calibrating interpreter...");
    let nspc = ns_per_cycle();
    eprintln!("calibration: {nspc:.2} ns per VM cycle");

    let need_bench = matches!(what, "all" | "figure4" | "figure5" | "figure6" | "figure7");
    let ms: Vec<Measurement> = if need_bench {
        benchmarks(blur_dims)
            .iter()
            .map(|b| {
                eprintln!("measuring {} ({})...", b.name, b.style);
                measure(b)
            })
            .collect()
    } else {
        Vec::new()
    };

    match what {
        "table1" => {
            if json {
                write_json(
                    "table1",
                    &json_report::table1_json(nspc, 250, 100),
                    &mut failed_writes,
                );
            }
            print!("{}", report::table1(nspc, 250, 100));
        }
        "figure4" => {
            if json {
                write_json(
                    "figure4",
                    &json_report::figure4_json(&ms),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure4(&ms));
        }
        "figure5" => {
            if json {
                write_json(
                    "figure5",
                    &json_report::figure5_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure5(&ms, nspc));
        }
        "figure6" => {
            if json {
                write_json(
                    "figure6",
                    &json_report::figure6_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure6(&ms, nspc));
        }
        "figure7" => {
            if json {
                write_json(
                    "figure7",
                    &json_report::figure7_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure7(&ms, nspc));
        }
        "sensitivity" => {
            print!("{}", report::sensitivity(&benchmarks(blur_dims)));
        }
        "cache" => {
            let rows = cache_bench();
            if json {
                write_json("cache", &cache_json(&rows), &mut failed_writes);
            }
            print!("{}", cache_report(&rows));
        }
        "blur" => {
            let b = benchmarks(blur_dims)
                .into_iter()
                .find(|b| b.name == "blur")
                .expect("blur");
            eprintln!("measuring blur...");
            let m = measure(&b);
            print!("{}", report::blur_report(&m, nspc));
        }
        "all" => {
            if json {
                write_json(
                    "table1",
                    &json_report::table1_json(nspc, 250, 100),
                    &mut failed_writes,
                );
                write_json(
                    "figure4",
                    &json_report::figure4_json(&ms),
                    &mut failed_writes,
                );
                write_json(
                    "figure5",
                    &json_report::figure5_json(&ms, nspc),
                    &mut failed_writes,
                );
                write_json(
                    "figure6",
                    &json_report::figure6_json(&ms, nspc),
                    &mut failed_writes,
                );
                write_json(
                    "figure7",
                    &json_report::figure7_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            println!("{}", report::table1(nspc, 250, 100));
            println!("{}", report::figure4(&ms));
            println!("{}", report::figure5(&ms, nspc));
            println!("{}", report::figure6(&ms, nspc));
            println!("{}", report::figure7(&ms, nspc));
            if let Some(m) = ms.iter().find(|m| m.name == "blur") {
                println!("{}", report::blur_report(m, nspc));
            }
            println!();
            println!("{}", report::sensitivity(&benchmarks(blur_dims)));
        }
        _ => unreachable!("validated above"),
    }
    exit_on_write_failures(&failed_writes);
}
