#!/usr/bin/env bash
# Runs the throughput-trajectory bench and emits the machine-readable
# BENCH_throughput.json (scheme x structure x thread-count).
#
# Usage:
#   scripts/bench.sh            # CI-scale run, JSON under target/bench/
#   scripts/bench.sh --smoke    # seconds-long smoke run into
#                               # target/bench-smoke/; asserts the JSON is
#                               # produced and well-formed
#   scripts/bench.sh --soak     # oversubscribed Zipfian soak run,
#                               # BENCH_soak.json under target/bench/
#   scripts/bench.sh --soak-smoke   # sub-second soak into
#                               # target/bench-smoke/ with sanity gates
#   MP_BENCH_FULL=1 scripts/bench.sh   # paper-scale sweep
#
# Knobs: MP_BENCH_THREADS, MP_BENCH_DURATION_MS, MP_BENCH_PREFILL,
# MP_BENCH_RUNS, MP_BENCH_DIR (output directory override); soak runs use
# MP_SOAK_DURATION_MS, MP_SOAK_OVERSUB, MP_SOAK_PREFILL, MP_SOAK_CHURN,
# MP_SOAK_DIST, MP_SOAK_STALLED (stalled readers), MP_SOAK_BP_BYTES
# (backpressure hard cap), MP_SOAK_RSS_CAP_KB (survival-gate RSS ceiling).
set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute: `cargo bench` sets the CWD to the package directory, so a
# relative path would land under crates/bench/. Nothing is written to the
# repo root: results are build products, not committed files.
case "${1:-}" in
  --smoke | --soak-smoke) export MP_BENCH_DIR="${MP_BENCH_DIR:-$PWD/target/bench-smoke}" ;;
  *) export MP_BENCH_DIR="${MP_BENCH_DIR:-$PWD/target/bench}" ;;
esac

# --- soak modes ------------------------------------------------------------
if [[ "${1:-}" == "--soak" || "${1:-}" == "--soak-smoke" ]]; then
  if [[ "$1" == "--soak-smoke" ]]; then
    export MP_SOAK_DURATION_MS="${MP_SOAK_DURATION_MS:-400}"
    export MP_SOAK_OVERSUB="${MP_SOAK_OVERSUB:-4}"
    export MP_SOAK_PREFILL="${MP_SOAK_PREFILL:-256}"
    export MP_SOAK_CHURN="${MP_SOAK_CHURN:-1000}"
    # Smoke runs double as the stalled-reader survival gate: one pinned
    # reader plus a small backpressure cap, so the ladder provably engages
    # and the RSS/drain gates below have teeth.
    export MP_SOAK_STALLED="${MP_SOAK_STALLED:-1}"
    export MP_SOAK_BP_BYTES="${MP_SOAK_BP_BYTES:-32768}"
  fi
  SOAK_OUT="$MP_BENCH_DIR/BENCH_soak.json"
  echo "==> cargo bench --offline -p mp-bench --bench soak"
  cargo bench --offline -p mp-bench --bench soak
  [[ -s "$SOAK_OUT" ]] || { echo "!! $SOAK_OUT was not produced" >&2; exit 1; }
  grep -q '"schema": "mp-bench/soak/v3"' "$SOAK_OUT" || {
    echo "!! $SOAK_OUT missing schema marker" >&2
    exit 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SOAK_OUT" <<'PY'
import json, os, sys
doc = json.load(open(sys.argv[1]))
rows = doc["results"]
assert rows, "no soak rows"
stalled = doc["config"].get("stalled_readers", 0)
rss_cap_kb = int(os.environ.get("MP_SOAK_RSS_CAP_KB", "1572864"))  # 1.5 GiB
bad = []
for r in rows:
    who = "%s @%d threads" % (r["scheme"], r["threads"])
    # Latency quantiles must be present, ordered, and nonzero.
    if not (0 < r["p50_ns"] <= r["p99_ns"] <= r["p999_ns"]):
        bad.append("%s: broken latency quantiles %r" %
                   (who, (r["p50_ns"], r["p99_ns"], r["p999_ns"])))
    # Reclamation must make net progress under churn: a handle that dies
    # before its watermark must drain at Drop, and parked orphans must be
    # adopted, not pile to teardown. frees_effective (retires minus the
    # end-of-run pending residue) sees Drop-path frees that the merged
    # handle telemetry cannot.
    if r["retires"] > 0 and r["frees_effective"] == 0:
        bad.append("%s: %d retires but zero net frees (drain/adoption dead)" %
                   (who, r["retires"]))
    if r["handle_churns"] == 0:
        bad.append("%s: workers never churned handles" % who)
    # Waste cap for the robust schemes (HP: thread-count bound; MP:
    # Theorem 4.2). Sized to catch unbounded orphan growth (which scales
    # with duration) while tolerating legitimate stall-pinned transients
    # on an oversubscribed host. Epoch/era schemes legitimately pile up
    # when oversubscription parks readers, so they are exempt here.
    if r["scheme"] in ("MP", "HP") and r["peak_pending_nodes"] > 50000:
        bad.append("%s: peak pending %d blows the robust-scheme waste cap" %
                   (who, r["peak_pending_nodes"]))
    # Stalled-reader survival gates: with a pinned reader and a byte cap
    # configured, every scheme must (a) demonstrably engage the
    # backpressure ladder, (b) stay under a generous peak-RSS ceiling —
    # the "throttle, never OOM" contract — and (c) for the bounded-waste
    # schemes, drain its end-of-run backlog once the stall ends
    # (epoch/era schemes legitimately strand pinned retirees).
    # HP is exempt from the engagement check: its per-slot hazard bound
    # keeps the backlog at a few hundred nodes under a bare-pin stall, so
    # its ladder legitimately never has anything to push back on.
    if stalled > 0:
        if r["scheme"] != "HP" and \
           r["bp_help_engagements"] + r["bp_throttle_engagements"] < 1:
            bad.append("%s: stalled reader present but backpressure never engaged" % who)
        if r["peak_rss_kb"] > rss_cap_kb:
            bad.append("%s: peak RSS %d KiB exceeds the %d KiB survival ceiling" %
                       (who, r["peak_rss_kb"], rss_cap_kb))
        if r["scheme"] in ("MP", "HP") and r["end_pending_nodes"] > 10000:
            bad.append("%s: end pending %d did not drain after the stall" %
                       (who, r["end_pending_nodes"]))
for b in bad:
    print("!! " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
    echo "==> OK: soak gates (quantiles, drain-on-drop frees, waste caps, stalled-reader survival)"
  else
    echo "(python3 unavailable: skipping the soak gates)"
  fi
  echo "==> OK: $SOAK_OUT"
  exit 0
fi

# --- throughput modes ------------------------------------------------------
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  export MP_BENCH_THREADS="${MP_BENCH_THREADS:-1,2}"
  export MP_BENCH_DURATION_MS="${MP_BENCH_DURATION_MS:-40}"
  export MP_BENCH_PREFILL="${MP_BENCH_PREFILL:-256}"
  export MP_BENCH_RUNS="${MP_BENCH_RUNS:-1}"
fi

OUT="$MP_BENCH_DIR/BENCH_throughput.json"

echo "==> cargo bench --offline -p mp-bench --bench throughput"
cargo bench --offline -p mp-bench --bench throughput

if [[ ! -s "$OUT" ]]; then
  echo "!! $OUT was not produced" >&2
  exit 1
fi

# Well-formedness: schema marker, at least one result row, balanced braces.
grep -q '"schema": "mp-bench/throughput/v3"' "$OUT" || {
  echo "!! $OUT missing schema marker" >&2
  exit 1
}
grep -q '"scheme":' "$OUT" || {
  echo "!! $OUT has no result rows" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$OUT" || {
    echo "!! $OUT is not valid JSON" >&2
    exit 1
  }
fi

echo "==> OK: $OUT"
if [[ "$SMOKE" == 1 ]]; then
  # Fence-budget gate: MP's whole point is fence amortization, so even at
  # smoke scale (tiny prefill, scaled margin) a read-dominated run must
  # stay under 4 fences/op on the list. A blowout here means margin
  # reuse / persistent announcements regressed; the per-site attribution
  # in the JSON (fences_*_per_op) says which call site is to blame.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
bad = [r for r in doc["results"]
       if r["scheme"] == "MP" and r["structure"] == "list"
       and r["pool"] == "on" and r.get("cadence", "watermark") == "watermark"
       and r["fences_per_op"] > 4.0]
for r in bad:
    print("!! MP fence budget blown: list @%d threads: %.3f fences/op "
          "(start_op %.3f, end_op %.3f, announce %.3f, hp_protect %.3f)"
          % (r["threads"], r["fences_per_op"],
             r["fences_start_op_per_op"], r["fences_end_op_per_op"],
             r["fences_announce_per_op"], r["fences_hp_protect_per_op"]),
          file=sys.stderr)
sys.exit(1 if bad else 0)
PY
    echo "==> OK: MP smoke fence budget (list, <= 4 fences/op)"
  else
    echo "(python3 unavailable: skipping the smoke fence-budget gate)"
  fi
fi
