#!/bin/sh
# The repo's CI gate, runnable locally:
#
#   1. formatting        (cargo fmt --check)
#   2. lints             (cargo clippy, warnings are errors)
#   3. tier-1 tests      (release build + full test suite, including
#                         the JSON reader properties and the design
#                         ablations at smoke size)
#   4. docs              (cargo doc, warnings are errors)
#   5. suite smoke run   (one small benchmark through every compilation
#                         path — two static back ends and all three
#                         dynamic back ends must agree on the answer)
#   6. cache smoke run   (the repeat-compile sweep with memoization on:
#                         hit economics + pointer stability end-to-end)
#   7. exec smoke run    (the three execution engines — decode-per-step,
#                         direct-threaded, adaptive — over the
#                         loop-heavy kernels with the
#                         observational-equivalence asserts live,
#                         release mode)
#   8. adaptive smoke    (the reuse sweep's cold-start cells — including
#                         the background-worker engine — with the
#                         equivalence asserts live, release mode)
#   9. adaptive tests    (the tier-promotion property suite, explicitly,
#                         so a tiering regression names itself)
#  10. worker tests      (the background-translation pipeline: async
#                         promotion equivalence, stale-epoch discard,
#                         worker shutdown — explicitly, so a pipeline
#                         regression names itself)
#  11. superinstruction/scheduler tests (release: the threaded
#                         engine's combined-handler suite, the
#                         mid-group fuel sweeps in the differential
#                         harness, and the DAG-scheduler preservation
#                         proptests — so a fusion regression names
#                         itself)
#  12. serve smoke       (the multi-tenant pool: Zipfian replay over
#                         1/2/4 worker sessions sharing one artifact
#                         cache, with the cross-pool bit-identical
#                         digest and per-request differential asserts
#                         live, release mode)
#  13. serve tests       (the concurrency suite, explicitly and in
#                         release: shared-compile dedup, cross-thread
#                         StaleCode faulting, eviction under budget,
#                         in-flight-slot interleavings — so a
#                         concurrency regression names itself)
#  14. persist smoke     (the persistent on-disk code cache: a cold
#                         process compiles a cell sweep, exits, and a
#                         warm process answers the identical sweep
#                         from disk with zero recompiles and
#                         bit-identical results, release mode)
#  15. persist tests     (the durability suite, explicitly and in
#                         release: store round-trips, corruption /
#                         truncation / version-salt rejection,
#                         single-writer locking, warm-start e2e and
#                         post-load StaleCode faulting — so a
#                         durability regression names itself)
#  16. benchmark tests   (the perfbench package's own unit tests —
#                         oracles, stats, workload generators — in
#                         release, through its own manifest)
#  17. exec regression   (./run_benches.sh --check: full-size exec,
#                         adaptive, serve and persist runs compared
#                         against baselines/ by `suite exec-check`
#                         under the one gate table, tcc_suite::GATES —
#                         exec speedups and dispatches per insn, the
#                         adaptive tail ratio, serve throughput/p99
#                         and largest-pool hit rate/compiles per
#                         unique, persist warm-start speedup and disk
#                         hits; a BENCH file missing on either side
#                         warns and skips that experiment)
#
# Fails fast: the first failing step aborts with its exit code.
set -eu
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test =="
cargo test -q --workspace

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== suite smoke (all back ends must agree) =="
cargo run -p tcc-suite --bin suite --release -- smoke

echo "== suite cache (memoized compiles stay correct) =="
cargo run -p tcc-suite --bin suite --release -- cache

echo "== suite exec --smoke (engines observationally identical) =="
cargo run -p tcc-suite --bin suite --release -- exec --smoke

echo "== suite adaptive --smoke (tiering observationally identical) =="
cargo run -p tcc-suite --bin suite --release -- adaptive --smoke

echo "== adaptive property tests =="
cargo test -q --release --test adaptive

echo "== background translation worker tests =="
cargo test -q --release -p tcc-vm -- background epoch_bump
cargo test -q --release --test exec_differential -- adaptive fault_during

echo "== superinstruction + DAG-scheduler tests =="
cargo test -q --release -p tcc-vm -- superinstruction
cargo test -q --release --test exec_differential -- mid_group
cargo test -q --release --test peephole_preserve

echo "== suite serve --smoke (pool replay bit-identical across sizes) =="
cargo run -p tcc-suite --bin suite --release -- serve --smoke

echo "== serve concurrency tests =="
cargo test -q --release -p tcc-serve
cargo test -q --release -p tcc --test shared_serve
cargo test -q --release -p tcc-cache shared

echo "== suite persist --smoke (warm restart answers from disk) =="
cargo run -p tcc-suite --bin suite --release -- persist --smoke

echo "== persist durability tests =="
cargo test -q --release -p tcc-cache persist
cargo test -q --release --test persist

echo "== benchmark (perfbench) tests =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== exec regression gate (speedups vs baselines/) =="
./run_benches.sh --check

echo "CI_OK"
