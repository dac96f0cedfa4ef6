//! # tcc-suite — the paper's evaluation (§6) as a reusable harness
//!
//! The eleven benchmarks of §6.2 (plus `dp` from §4.4 and the xv Blur
//! experiment), each written as a real `C program with its static C
//! counterpart; the measurement machinery that runs every compilation
//! path, verifies they agree, and produces the numbers behind Table 1
//! and Figures 4-7; and printers that emit the same rows/series the
//! paper reports.
//!
//! Regenerate everything with the `suite` binary:
//!
//! ```text
//! cargo run -p tcc-suite --bin suite --release -- all
//! ```
//!
//! or per experiment: `table1`, `figure4`, `figure5`, `figure6`,
//! `figure7`, `blur`; the design ablations, allocator comparison and
//! per-shape codegen timings are `ablations`, `regalloc` and `codegen`.

pub mod ablation_bench;
pub mod adaptive_bench;
pub mod cache_bench;
pub mod calibrate;
pub mod check;
pub mod codegen_bench;
pub mod exec_bench;
pub mod json_report;
pub mod measure;
pub mod micro;
pub mod persist_bench;
pub mod programs;
pub mod regalloc_bench;
pub mod report;
pub mod serve_bench;

pub use ablation_bench::{ablation_bench, ablation_json, ablation_report, AblationRow};
pub use adaptive_bench::{
    adaptive_bench, adaptive_bench_smoke, adaptive_json, adaptive_report, warm_summary,
    AdaptiveBenchRow, WarmSummary, ADAPTIVE_REUSE_SWEEP,
};
pub use cache_bench::{cache_bench, cache_json, cache_report};
pub use calibrate::ns_per_cycle;
pub use check::{check, check_set, experiments, Bound, Gate, GATES};
pub use codegen_bench::{codegen_bench, codegen_json, codegen_report, CodegenRow};
pub use exec_bench::{exec_bench, exec_bench_smoke, exec_json, exec_report, ExecBenchRow};
pub use measure::{measure, measure_with, DynBackend, Measurement};
pub use persist_bench::{
    persist_bench, persist_json, persist_report, PersistBenchOptions, PersistBenchRow,
    PERSIST_KERNELS,
};
pub use programs::{benchmarks, BenchDef, BLUR_FULL, BLUR_SMALL};
pub use regalloc_bench::{regalloc_bench, regalloc_json, regalloc_report, RegallocRow};
pub use serve_bench::{
    serve_bench, serve_bench_smoke, serve_json, serve_report, ServeBenchRow, SERVE_THREADS,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every benchmark's five compilation paths must agree — this is the
    /// correctness backbone of the whole evaluation (measure() panics on
    /// any mismatch).
    #[test]
    fn all_benchmarks_agree_across_paths() {
        for bench in benchmarks(BLUR_SMALL) {
            let m = measure(&bench);
            assert!(m.static_naive_cycles > 0, "{}", bench.name);
            assert!(m.static_opt_cycles > 0, "{}", bench.name);
            for d in &m.dynamic {
                assert!(d.run_cycles > 0, "{}", bench.name);
                assert!(d.insns > 0.0, "{}", bench.name);
            }
        }
    }

    #[test]
    fn optimizing_static_is_faster_than_naive() {
        for bench in benchmarks(BLUR_SMALL) {
            let m = measure(&bench);
            assert!(
                m.static_opt_cycles <= m.static_naive_cycles,
                "{}: gcc-like ({}) should not lose to lcc-like ({})",
                bench.name,
                m.static_opt_cycles,
                m.static_naive_cycles
            );
        }
    }

    #[test]
    fn headline_speedups_have_the_papers_shape() {
        let by_name: std::collections::HashMap<_, _> = benchmarks(BLUR_SMALL)
            .into_iter()
            .map(|b| (b.name, b))
            .collect();
        // binary: executable data structure should crush the static
        // search (paper: "an order of magnitude").
        let m = measure(&by_name["binary"]);
        assert!(
            m.ratio_vs_naive(DynBackend::Vcode) > 2.0,
            "binary speedup vs lcc too small: {:.2}",
            m.ratio_vs_naive(DynBackend::Vcode)
        );
        // query: compiled queries beat the interpreter.
        let m = measure(&by_name["query"]);
        assert!(
            m.ratio_vs_naive(DynBackend::IcodeLinear) > 1.5,
            "query speedup too small: {:.2}",
            m.ratio_vs_naive(DynBackend::IcodeLinear)
        );
        // umshl: the hand-tuned static comparator does not lose (ratio
        // stays around 1, the paper's no-payoff case).
        let m = measure(&by_name["umshl"]);
        assert!(
            m.ratio_vs_opt(DynBackend::Vcode) < 1.6,
            "umshl unexpectedly profitable: {:.2}",
            m.ratio_vs_opt(DynBackend::Vcode)
        );
        // dp: unrolling + dead code elimination beats the static loop.
        let m = measure(&by_name["dp"]);
        assert!(
            m.ratio_vs_naive(DynBackend::IcodeLinear) > 1.5,
            "dp speedup too small: {:.2}",
            m.ratio_vs_naive(DynBackend::IcodeLinear)
        );
    }

    #[test]
    fn icode_codegen_costs_more_than_vcode() {
        let by_name: std::collections::HashMap<_, _> = benchmarks(BLUR_SMALL)
            .into_iter()
            .map(|b| (b.name, b))
            .collect();
        for name in ["query", "cmp", "pow"] {
            // Min over a few attempts on both sides: codegen time is a
            // cost measurement, so scheduler noise only ever inflates
            // it, and one preempted vcode sample must not flip the
            // comparison on a loaded box.
            let (mut v_per, mut i_per) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..3 {
                let m = measure(&by_name[name]);
                let v = &m.dynamic[DynBackend::Vcode as usize];
                let i = &m.dynamic[DynBackend::IcodeLinear as usize];
                v_per = v_per.min(v.codegen_ns / v.insns.max(1.0));
                i_per = i_per.min(i.codegen_ns / i.insns.max(1.0));
                if i_per > v_per {
                    break;
                }
            }
            assert!(
                i_per > v_per,
                "{name}: icode ({i_per:.0} ns/insn) should cost more than vcode ({v_per:.0})"
            );
        }
    }
}
