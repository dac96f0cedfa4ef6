//! Wall clock per dynamic `compile` for representative cspec shapes,
//! VCODE vs ICODE (`BENCH_codegen.json`) — the host-time ground truth
//! behind Table 1 and Figures 6/7.

use crate::measure::{time_chunked, DynBackend};
use tcc::{Config, Session};
use tcc_obs::json::Json;

const SHAPES: &[(&str, &str)] = &[
    (
        "small_expr",
        r#"
        long go(int a) {
            int vspec x = param(int, 0);
            int cspec c = `(x * $a + 3);
            return (long)compile(c, int);
        }
        "#,
    ),
    (
        "loop_body",
        r#"
        int buf[256];
        long go(int a) {
            int vspec i = local(int);
            int vspec s = local(int);
            void cspec c = `{
                s = 0;
                for (i = 0; i < 256; i++) s = s + buf[i] * $a;
                return s;
            };
            return (long)compile(c, int);
        }
        "#,
    ),
    (
        "composed_chain",
        r#"
        long go(int a) {
            int vspec x = local(int);
            int cspec c = `(x + 1);
            int i;
            for (i = 0; i < 50; i++) c = `(c + x);
            void cspec f = `{ x = $a; return c; };
            return (long)compile(f, int);
        }
        "#,
    ),
    (
        "unrolled",
        r#"
        int tab[64];
        int n = 64;
        long go(int a) {
            void cspec c = `{
                int k;
                int s;
                s = 0;
                for (k = 0; k < $n; k++) s = s + $tab[k] * k;
                return s;
            };
            return (long)compile(c, int);
        }
        "#,
    ),
];

/// The back ends compared, by JSON name.
const BACKENDS: [(&str, DynBackend); 3] = [
    ("vcode", DynBackend::Vcode),
    ("icode_ls", DynBackend::IcodeLinear),
    ("icode_gc", DynBackend::IcodeColor),
];

/// One (shape, back end) cell.
#[derive(Clone, Debug)]
pub struct CodegenRow {
    /// The cspec shape.
    pub shape: &'static str,
    /// `vcode`, `icode_ls` or `icode_gc`.
    pub backend: &'static str,
    /// Mean wall-clock per `go` call (one dynamic compile).
    pub ns_per_compile: f64,
    /// The session's own codegen time per generated instruction, over
    /// five compiles.
    pub ns_per_insn: f64,
    /// Machine instructions generated per compile.
    pub insns_per_compile: u64,
}

/// Times every (shape, back end) cell; `smoke` times two compiles per
/// cell instead of a few thousand.
pub fn codegen_bench(smoke: bool) -> Vec<CodegenRow> {
    let iters = if smoke { 2 } else { 2000 };
    let mut rows = Vec::new();
    for &(shape, src) in SHAPES {
        for (backend, b) in BACKENDS {
            let config = Config {
                backend: b.backend(),
                ..Config::default()
            };
            let fresh = || Session::new(src, config.clone()).expect("shape compiles");
            let ns_per_compile = time_chunked(iters, 2048, fresh, |s| {
                s.call("go", &[7]).expect("dynamic compile");
            });
            let mut s = fresh();
            for _ in 0..5 {
                s.call("go", &[7]).expect("dynamic compile");
            }
            let st = s.dyn_stats();
            rows.push(CodegenRow {
                shape,
                backend,
                ns_per_compile,
                ns_per_insn: st.total_ns as f64 / st.generated_insns.max(1) as f64,
                insns_per_compile: st.generated_insns / st.compiles.max(1),
            });
        }
    }
    rows
}

/// The sweep as JSON (`BENCH_codegen.json`).
pub fn codegen_json(rows: &[CodegenRow]) -> Json {
    let rows = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("shape", Json::from(r.shape)),
                ("backend", Json::from(r.backend)),
                ("ns_per_compile", Json::from(r.ns_per_compile)),
                ("ns_per_insn", Json::from(r.ns_per_insn)),
                ("insns_per_compile", Json::from(r.insns_per_compile)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("codegen")),
        (
            "description",
            Json::from(
                "dynamic compile wall-clock per cspec shape and back end, with codegen ns \
                 per generated instruction",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable table, one line per cell.
pub fn codegen_report(rows: &[CodegenRow]) -> String {
    let mut out = String::from("Dynamic compilation cost per cspec shape\n\n");
    out.push_str("  shape            backend    ns/compile   ns/insn   insns/compile\n");
    for r in rows {
        out.push_str(&format!(
            "  {:16} {:8} {:12.0} {:9.0} {:15}\n",
            r.shape, r.backend, r.ns_per_compile, r.ns_per_insn, r.insns_per_compile
        ));
    }
    out
}
