#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh            (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (no unwrap/expect in library code) =="
# Library code on input-dependent paths must return typed errors, never
# panic (DESIGN.md, "Failure semantics"). Tests/benches/bins are exempt.
cargo clippy -p neursc-graph -p neursc-match -p neursc-nn -p neursc-core \
    -p neursc-serve -p neursc-sample -p neursc-oracle -p neursc-store --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

OUR_CRATES=(-p neursc -p neursc-graph -p neursc-match -p neursc-nn -p neursc-gnn
            -p neursc-core -p neursc-baselines -p neursc-workloads -p neursc-bench
            -p neursc-serve -p neursc-sample -p neursc-oracle -p neursc-store)

echo "== cargo doc (deny warnings, our crates only) =="
# Vendored stand-ins (vendor/*) are API-subset stubs and are not held to
# the documentation bar; every first-party crate is.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${OUR_CRATES[@]}"

echo "== cargo test (unit + integration + doc-tests) =="
cargo test --workspace -q
cargo test -q --doc "${OUR_CRATES[@]}"

echo "== fault-injection suite =="
cargo test -q --test fault_injection

echo "== serve smoke (daemon over loopback via the real CLI binary) =="
cargo test -q --test serve_smoke

echo "== supervise smoke (kill -9 mid-traffic, restart, quarantine) =="
cargo test -q --test supervise_smoke

echo "== serve equivalence + protocol fuzz =="
cargo test -q -p neursc-serve

echo "== observability determinism suite =="
cargo test -q -p neursc-core --test obs_determinism

echo "== no-op sink overhead gate (DESIGN.md §8: < 2%) =="
cargo run --release -q -p neursc-bench --bin obs_overhead

echo "== backend comparison bench (WEst vs sampling + router hit rates) =="
cargo run --release -q -p neursc-bench --bin bench_backends

echo "== fused-inference bench (>=3x vs tape, bit-identical, thread-stable) =="
# Times warm estimate_prepared through the tape vs the tape-free fused
# kernels; the binary asserts the 3x p50 speedup, f32 bit-identity, and
# thread stability at 1/2/4 workers, plus f16/int8 drift (DESIGN.md §15).
cargo run --release -q -p neursc-bench --bin bench_infer

echo "== out-of-core store bench (streamed peak RSS < 50% of resident) =="
# Packs a 10^6-vertex graph and runs a partitioned estimate resident vs
# streamed; the binary itself asserts the memory budget and that the two
# estimates are bit-identical (DESIGN.md §14).
cargo run --release -q -p neursc-bench --bin bench_store

echo "== perfbench builds and passes against the library (own workspace) =="
# perfbench links the library crates by path and calls the filtering API
# directly, so a signature change there must fail CI, not the benchmark.
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml

echo "== differential soundness oracle soak (DESIGN.md §11) =="
# Fixed seed: deterministic in CI; the corpus replay test (tests/
# corpus_replay.rs, part of the workspace test run above) covers the
# previously-found bugs, this soaks fresh cases.
cargo run --release -q --bin neursc_cli -- fuzz --cases 300 --seed 42

echo "CI OK"
