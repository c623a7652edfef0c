#!/usr/bin/env bash
# The one command: builds the benchmark from source and runs it.
#
#   benchmark/run.sh                     the layer ledger, then every workload
#                                        with its traced repetition; writes
#                                        benchmark/out/results-seed<n>.json
#   benchmark/run.sh --smoke             the same at S/16, 2 x 0.2 s (< 20 s)
#   benchmark/run.sh --seed 7            another seed (also with --smoke)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                        one workload; the last line of output
#                                        is the result object the driver reads
#   benchmark/run.sh layers              the layer ledger alone
#   benchmark/run.sh agree A.json B.json compare two result files against the
#                                        bounds in BENCHMARK.json
#
# Exits non-zero when the build fails, a correctness check fails, or `agree`
# finds an end-to-end pair outside its bound.
set -euo pipefail
cd "$(dirname "$0")/.."

# Honour the caller's target directory; default to the package's own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/benchmark"

case "${1:-}" in
  layers | agree | run | all) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run "$@"
  fi
done
exec "$bin" all "$@"
