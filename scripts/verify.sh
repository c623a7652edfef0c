#!/usr/bin/env bash
# Full offline verification gate. The workspace has zero crates.io
# dependencies, so every step runs with --offline and must succeed on a
# machine with no network and an empty cargo registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall time per stage: each stage's time prints when it ends, and the gate
# ends with all of them and the total. `SECONDS` counts from the start.
stage_times=()
stage_name=""
stage_start=0
stage_end() {
  if [ -n "$stage_name" ]; then
    local took=$((SECONDS - stage_start))
    echo "    (${took} s)"
    stage_times+=("$(printf '%6d s  %s' "$took" "$stage_name")")
  fi
}
stage() {
  stage_end
  stage_name=$1
  stage_start=$SECONDS
  echo "==> $1"
}

stage "cargo build --release --offline"
cargo build --release --offline

# Reports of the reclamation oracle and of the seeded checker print a
# base seed; a failing test stage names how to replay it. The replay must
# repeat the stage's own flags: they decide what is armed (see the stages
# below).
run_oracle() {
  if ! "$@"; then
    echo "!! test stage failed: $*" >&2
    echo "!! oracle and checker reports print a base seed; replay the exact run with:" >&2
    echo "!!   MP_CHECK_SEED=<seed from the report> $* <failing_test>" >&2
    exit 1
  fi
}

# Tier-1 itself, with the reclamation oracle armed: shadow lifecycle
# tracking, freed-memory poisoning, the protection ledger's deref check,
# and the waste-bound monitor. The root package enables mp-smr's `oracle`
# feature as a dev-dependency, and resolver 2 unifies it for every default
# member (root `Cargo.toml`: all but mp-ds), so this one run covers the
# conformance matrix, the negative oracle tests (tests/oracle_negative.rs
# drives a block through quarantine eviction, a magazine and its chunk's
# free list and still expects the poison canary, and seeds four
# unprotected derefs), mp-smr's oracle unit tests, mp-bench's churn and
# checker tests, and mp-util's slab-pool tests (blank-chunk rule,
# cross-thread `live` exactness, thread-exit release). It also runs the
# protocol lint: `tests/lint_fixtures.rs` lints the whole tree with mp-lint
# (invariant citations, `// ORDERING:` annotations, protection scope,
# pointer-width casts) and pins the clippy table the stages below enforce.
stage "cargo test -q --offline (tier-1 with the protocol lint, reclamation oracle armed)"
run_oracle cargo test -q --offline

# mp-ds armed, in a line of its own: its unit tests with freed nodes
# poisoned, its stress tests, and DTA's freeze stress, whose use-after-free
# flake (ROADMAP finding v) keeps the crate out of tier-1.
stage "cargo test -q --offline -p mp-ds --features mp-smr/oracle (armed)"
run_oracle cargo test -q --offline -p mp-ds --features mp-smr/oracle

# The library crates again, optimised and unarmed, as `cargo build
# --release` ships them: the data structures' concurrent stress tests and
# the skip list's link-after-remove regression race differently in
# release, and the searches' unsafe derefs rest on which reads those races
# leave protected. mp-smr's pool footprint checks (tests/footprint.rs)
# and zero-allocation witness (tests/zero_alloc.rs) run only here: they
# measure the unarmed pool, so they compile to nothing in the armed runs
# above. The node bytes themselves are tier-1's (tests/node_bytes.rs).
stage "cargo test -q --release --offline -p mp-smr -p mp-ds -p mp-util (unarmed)"
run_oracle cargo test -q --release --offline -p mp-smr -p mp-ds -p mp-util

# Lints: the armed workspace, then the library crates unarmed, which is
# the only place the `cfg(not(feature = "oracle"))` code is linted. The
# workspace `[workspace.lints.clippy]` table and `clippy.toml` deny the
# protocol rules clippy owns: SAFETY comments on unsafe blocks and impls,
# `# Safety` docs, `mem::forget`, `todo!`/`unimplemented!`, and prefetch
# intrinsics outside `Shared::prefetch`.
stage "cargo clippy --offline --workspace --all-targets -- -D warnings (armed)"
cargo clippy --offline --workspace --all-targets -- -D warnings
stage "cargo clippy --offline -p mp-smr -p mp-ds --all-targets -- -D warnings (unarmed)"
cargo clippy --offline -p mp-smr -p mp-ds --all-targets -- -D warnings

# Rustdoc gate: a dangling intra-doc link (to a deleted or private item)
# fails here instead of rotting in the rendered docs.
stage "cargo doc --no-deps --offline -p mp-smr -p mp-util -p mp-ds -p mp-bench (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p mp-smr -p mp-util -p mp-ds -p mp-bench

# Bench smoke: the figure sweep — each figure, Table 1, the collision
# analysis, the takeaways and the soak with and without a stalled reader —
# runs to completion at smoke scale and writes its tables into
# target/bench-smoke/. Each CSV must hold a header and at least one row of
# the header's width; which tables the sweep writes is pinned by
# `mp_bench::figures`'s tests, and pass/fail on their *values* lives in
# tier-1 (mp-bench's two soak tests and tests/counter_table.rs).
# Absolute path: `cargo bench` sets the CWD to the package directory.
stage "cargo bench --offline -p mp-bench --bench figures (smoke scale)"
BENCH_SMOKE_DIR="$PWD/target/bench-smoke"
rm -rf "$BENCH_SMOKE_DIR"
MP_BENCH_DIR="$BENCH_SMOKE_DIR" MP_BENCH_SCALE=smoke \
  cargo bench --offline -p mp-bench --bench figures >/dev/null
for table in "$BENCH_SMOKE_DIR"/*.csv; do
  awk -F, 'NR == 1 { width = NF; next } NF == width { rows++ } END { exit !(width && rows) }' \
    "$table" || { echo "!! bench smoke: $table lacks a header plus a row of its width" >&2; exit 1; }
done

# Telemetry smoke: the exporter example runs a workload armed, validates
# its Prometheus exposition and prints it. Which metric families the
# exposition carries is tier-1's contract (tests/telemetry.rs).
stage "telemetry smoke (the exporter example emits a valid exposition)"
cargo run -q --release --offline -p mp-bench --example telemetry_export >/dev/null

# Benchmark self-tests: the benchmark package's 17 unit tests (quartiles,
# the log histogram, the JSON writer and parser, `agree`'s bounds, the
# ledger's row names, a smoke run against BENCHMARK.json). It is not a
# workspace member, so the test stages above do not run them. Builds
# into benchmark/target, as the smoke stage below does.
stage "cargo test --manifest-path benchmark/Cargo.toml (benchmark self-tests)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# Benchmark smoke: the frozen benchmark (BENCHMARK.json, benchmark/) is a
# separate package built only against the library's public surface, so
# this stage is what notices a PR that breaks that surface or the
# benchmark's correctness checks (per-key parity, drained-to-zero, bounded
# waste under a stalled reader). ~12 s; builds into benchmark/target.
stage "benchmark/run.sh --smoke"
./benchmark/run.sh --smoke >/dev/null

stage_end
echo "==> stage wall times"
printf '%s\n' "${stage_times[@]}"
printf '%6d s  total\n' "$SECONDS"
echo "==> OK"
