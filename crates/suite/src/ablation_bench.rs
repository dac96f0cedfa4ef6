//! Ablations of the design choices DESIGN.md calls out, as one suite
//! experiment (`BENCH_ablations.json`):
//!
//! 1. closure **arena** allocation vs the general allocator (§4.2);
//! 2. the **pruned ICODE translator** vs the full cross-product table
//!    (§5.2 link-time analysis) — size and compile-time effect;
//! 3. VCODE **unchecked mode** (per-operand spill checks off, §5.1);
//! 4. the **cspec-first operand order** heuristic (§5.1, Figure 2);
//! 5. **dynamic loop unrolling** (§4.4), alone and with `$`-hardwired
//!    values and dead-code elimination.
//!
//! Every group times its calls with [`time_chunked`] and records the
//! group's modeled counts (VM cycles, generated instructions, table
//! sizes). The correctness asserts run at every size: the unrolling
//! variants agree, cspec-first computes `5 + 1 + 30·5`, and the pruned
//! translator table is smaller than the full one.

use crate::measure::time_chunked;
use tcc::{Backend, Config, Session, Strategy};
use tcc_icode::TranslatorTable;
use tcc_obs::json::Json;

const CLOSURE_HEAVY: &str = r#"
long spec_many(int n) {
    int i;
    long last = 0;
    for (i = 0; i < n; i++) {
        int cspec c = `($i + 1);
        last = (long)c;
    }
    return last;
}
"#;

const ICODE_WORK: &str = r#"
int buf[128];
long go(int a) {
    int vspec i = local(int);
    int vspec s = local(int);
    void cspec c = `{
        s = 0;
        for (i = 0; i < 128; i++) s = s + buf[i] * $a;
        return s;
    };
    return (long)compile(c, int);
}
"#;

const PRESSURE: &str = r#"
int gx;
long go(int a) {
    gx = a;
    int cspec c = `(gx + 1);
    int i;
    /* Figure 2: the cspec is the RIGHT operand, so naive left-to-right
       evaluation loads gx into a fresh temporary and holds it across
       every nested CGF call — one extra live register per level. */
    for (i = 0; i < 30; i++) c = `(gx + c);
    void cspec f = `{ return c; };
    return (long)compile(f, int);
}
int run_it(long fp) { int (*g)(void) = (int (*)(void))fp; return (*g)(); }
"#;

const UNROLL_SRC: &str = r#"
int row[32];
int col[32];
int n = 32;
void fill(void) {
    int i;
    int seed = 7;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        row[i] = (seed >> 16) & 1 ? ((seed >> 18) & 15) + 1 : 0;
        col[i] = i + 1;
    }
}
long go(void) {
    /* NOTE: no $-indexing by the loop variable here — `$row[k]` is only
       meaningful when the loop unrolls (k must be a derived run-time
       constant), and this ablation must be valid with unrolling off. */
    void cspec c = `{
        int k;
        int sum;
        sum = 0;
        for (k = 0; k < $n; k++)
            sum = sum + col[k] * row[k];
        return sum;
    };
    return (long)compile(c, int);
}
int run_it(long fp) { int (*g)(void) = (int (*)(void))fp; return (*g)(); }

/* The full §4.4 treatment: unrolling plus $-hardwired row values and
   dead code elimination of zero entries (only legal when unrolled). */
long go_hardwired(void) {
    void cspec c = `{
        int k;
        int sum;
        sum = 0;
        for (k = 0; k < $n; k++)
            if ($row[k])
                sum = sum + col[k] * $row[k];
        return sum;
    };
    return (long)compile(c, int);
}
"#;

/// One setting of one ablated design choice.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// The design choice.
    pub group: &'static str,
    /// The setting.
    pub variant: &'static str,
    /// Mean wall-clock per timed call (the group's dynamic compile, or
    /// for `closure_allocation` a 200-closure specification run).
    pub ns_per_call: f64,
    /// The group's modeled counts, by name.
    pub counts: Vec<(&'static str, u64)>,
}

fn session(src: &str, config: &Config) -> Session {
    Session::new(src, config.clone()).expect("ablation source compiles")
}

/// Compiles through `go_fn`, then runs the generated code once and
/// returns (result, run cycles, generated instructions).
fn compile_and_run(s: &mut Session, go_fn: &str, args: &[u64]) -> (u64, u64, u64) {
    let fp = s.call(go_fn, args).expect("dynamic compile");
    s.reset_counters();
    let v = s.call("run_it", &[fp]).expect("generated code runs");
    (v, s.cycles(), s.dyn_stats().generated_insns)
}

/// Runs all five groups; `smoke` keeps each timing to a few calls.
pub fn ablation_bench(smoke: bool) -> Vec<AblationRow> {
    let iters = |full: u64| if smoke { 2 } else { full };
    let defaults = Config::default();
    let mut rows = Vec::new();

    // §4.2: specification time in VM cycles is the paper-relevant
    // number (closure allocation is inline VM code + one host call);
    // a fresh session per call keeps closures from accumulating.
    for (variant, use_arena) in [("arena", true), ("general_alloc", false)] {
        let fresh = || {
            let mut s = session(CLOSURE_HEAVY, &defaults);
            s.vm.host_mut().use_arena = use_arena;
            s
        };
        let mut s = fresh();
        s.reset_counters();
        s.call("spec_many", &[200]).expect("runs");
        let ns_per_call = time_chunked(iters(200), 1, fresh, |s| {
            s.call("spec_many", &[200]).expect("runs");
        });
        rows.push(AblationRow {
            group: "closure_allocation",
            variant,
            ns_per_call,
            counts: vec![("closures", 200), ("cycles", s.cycles())],
        });
    }

    // §5.2: observe the ICODE instructions this program's CGFs emit,
    // then build the customized back end from them.
    let icode = Config {
        backend: Backend::Icode {
            strategy: Strategy::LinearScan,
        },
        ..Config::default()
    };
    let mut probe = session(ICODE_WORK, &icode);
    probe.call("go", &[3]).expect("runs");
    let full = TranslatorTable::full();
    let pruned = TranslatorTable::from_keys(probe.vm.host().observed_keys.iter().copied());
    assert!(
        pruned.entries() < full.entries(),
        "pruned translator ({} entries) not smaller than the full one ({})",
        pruned.entries(),
        full.entries()
    );
    // The full table is the default back end (no table installed).
    for (variant, table, installed) in [
        ("full", full, None),
        ("pruned", pruned.clone(), Some(pruned)),
    ] {
        let counts = vec![
            ("entries", table.entries() as u64),
            ("nominal_insns", table.nominal_size() as u64),
        ];
        let fresh = || {
            let mut s = session(ICODE_WORK, &icode);
            s.vm.host_mut().table = installed.clone();
            s
        };
        let ns_per_call = time_chunked(iters(4000), 4096, fresh, |s| {
            s.call("go", &[3]).expect("runs");
        });
        rows.push(AblationRow {
            group: "translator_table",
            variant,
            ns_per_call,
            counts,
        });
    }

    // §5.1: VCODE with and without the per-operand spill checks.
    for (variant, unchecked) in [("checked", false), ("unchecked", true)] {
        let config = Config {
            backend: Backend::Vcode { unchecked },
            ..Config::default()
        };
        let ns_per_call = time_chunked(
            iters(4000),
            4096,
            || session(ICODE_WORK, &config),
            |s| {
                s.call("go", &[3]).expect("runs");
            },
        );
        rows.push(AblationRow {
            group: "vcode_spill_checks",
            variant,
            ns_per_call,
            counts: Vec::new(),
        });
    }

    // §5.1, Figure 2: the operand-order heuristic exists to reduce
    // spills, so generated-code quality (VM cycles) is the number.
    for (variant, on) in [("cspec_first", true), ("naive_order", false)] {
        let fresh = || {
            let mut s = session(PRESSURE, &defaults);
            s.vm.host_mut().cspec_first = on;
            s
        };
        let (v, cycles, insns) = compile_and_run(&mut fresh(), "go", &[5]);
        assert_eq!(v as i64, 5 + 1 + 30 * 5, "{variant}: wrong result");
        let ns_per_call = time_chunked(iters(1000), 512, fresh, |s| {
            s.call("go", &[5]).expect("runs");
        });
        rows.push(AblationRow {
            group: "cspec_first",
            variant,
            ns_per_call,
            counts: vec![("cycles", cycles), ("generated_insns", insns)],
        });
    }

    // §4.4: unrolling alone, and the full partial-evaluation package
    // (unroll + hardwire + dead-code-eliminate). All must agree.
    let mut results = Vec::new();
    for (variant, go_fn, unroll) in [
        ("unrolled", "go", true),
        ("loop_kept", "go", false),
        ("unrolled_hardwired", "go_hardwired", true),
    ] {
        let fresh = || {
            let mut s = session(UNROLL_SRC, &defaults);
            s.vm.host_mut().enable_unroll = unroll;
            s.call("fill", &[]).expect("setup");
            s
        };
        let (v, cycles, insns) = compile_and_run(&mut fresh(), go_fn, &[]);
        results.push(v);
        let ns_per_call = time_chunked(iters(1000), 1024, fresh, |s| {
            s.call(go_fn, &[]).expect("compiles");
        });
        rows.push(AblationRow {
            group: "dynamic_unrolling",
            variant,
            ns_per_call,
            counts: vec![("cycles", cycles), ("generated_insns", insns)],
        });
    }
    assert!(
        results.iter().all(|&v| v == results[0]),
        "unrolling variants disagree: {results:?}"
    );
    rows
}

/// The ablations as JSON (`BENCH_ablations.json`).
pub fn ablation_json(rows: &[AblationRow]) -> Json {
    let rows = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("group", Json::from(r.group)),
                ("variant", Json::from(r.variant)),
                ("ns_per_call", Json::from(r.ns_per_call)),
            ];
            fields.extend(r.counts.iter().map(|&(k, v)| (k, Json::from(v))));
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("ablations")),
        (
            "description",
            Json::from(
                "design-choice ablations: wall-clock ns per timed call plus each group's \
                 modeled counts (VM cycles, generated instructions, translator-table sizes)",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable table, one line per (group, variant).
pub fn ablation_report(rows: &[AblationRow]) -> String {
    let mut out = String::from("Design-choice ablations\n\n");
    out.push_str("  group                variant              ns/call   counts\n");
    for r in rows {
        let counts: Vec<String> = r.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(
            "  {:20} {:18} {:10.0}   {}\n",
            r.group,
            r.variant,
            r.ns_per_call,
            counts.join(" ")
        ));
    }
    out
}
