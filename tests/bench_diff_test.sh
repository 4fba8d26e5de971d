#!/usr/bin/env bash
# Contract test for the bench_diff regression gate: exit 0 when every watched
# counter is within threshold, 1 on a regression beyond it, 2 on unusable
# input. Fixtures mimic the JSON-lines bench_util::ReportJson writes.
# Registered with ctest.
set -u

DIFF="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# make_results FILE EVALS_PER_SEC P99_MS — one stamped record per watched
# benchmark, in the exact shape ReportJson emits.
make_results() {
  cat > "$1" <<EOF
{"name": "BM_TmcUtilityFastPath/fast:1", "ms": 1.25, "utility_evals_per_sec": $2, "git_rev": "fixture", "date": "2026-08-07", "cpus": 1, "telemetry": "off"}
{"name": "BM_TmcWaveLatency", "ms": 4.0, "wave_p99_ms": $3, "git_rev": "fixture", "date": "2026-08-07", "cpus": 1, "telemetry": "off"}
EOF
}

make_results base.json 1000 4.0

# --- identical runs pass ------------------------------------------------------
make_results cand.json 1000 4.0
"$DIFF" --baseline base.json --candidate cand.json > /dev/null \
    || fail "identical candidate should exit 0"

# --- small drift within the threshold passes ----------------------------------
make_results cand.json 950 4.2
"$DIFF" --baseline base.json --candidate cand.json > /dev/null \
    || fail "5% drift should be within the default 15% threshold"

# --- improvements pass ---------------------------------------------------------
make_results cand.json 2000 2.0
"$DIFF" --baseline base.json --candidate cand.json > /dev/null \
    || fail "improvement should exit 0"

# --- a 20% throughput regression fails ----------------------------------------
make_results cand.json 800 4.0
"$DIFF" --baseline base.json --candidate cand.json > diff_out.txt
[ $? -eq 1 ] || fail "20% throughput regression should exit 1"
grep -q "utility_evals_per_sec" diff_out.txt \
    || fail "regression report does not name the regressed counter"

# --- a 20% latency regression fails (lower-is-better counter) -----------------
make_results cand.json 1000 4.8
"$DIFF" --baseline base.json --candidate cand.json > /dev/null
[ $? -eq 1 ] || fail "20% wave_p99_ms regression should exit 1"

# --- a loose threshold lets the same candidate through ------------------------
make_results cand.json 800 4.8
"$DIFF" --baseline base.json --candidate cand.json --threshold 0.5 \
    > /dev/null || fail "20% regression should pass a 50% threshold"

# --- last record per name wins (append-only results file) ---------------------
make_results cand.json 100 40.0
make_results fresh.json 1000 4.0
cat fresh.json >> cand.json
"$DIFF" --baseline base.json --candidate cand.json > /dev/null \
    || fail "stale earlier records should be shadowed by the last run"

# --- a watched benchmark missing from the candidate is an error ---------------
grep -v BM_TmcWaveLatency fresh.json > cand.json
"$DIFF" --baseline base.json --candidate cand.json > /dev/null 2>&1
[ $? -eq 2 ] || fail "candidate missing a guarded benchmark should exit 2"

# --- unreadable input is an error ---------------------------------------------
"$DIFF" --baseline base.json --candidate does_not_exist.json > /dev/null 2>&1
[ $? -eq 2 ] || fail "missing candidate file should exit 2"
"$DIFF" --baseline base.json > /dev/null 2>&1
[ $? -eq 2 ] || fail "missing --candidate flag should exit 2"
"$DIFF" --baseline base.json --candidate fresh.json --threshold -1 \
    > /dev/null 2>&1
[ $? -eq 2 ] || fail "negative threshold should exit 2"

echo "bench_diff test passed"
