#!/usr/bin/env bash
# Contract test for the bench_diff regression gate: exit 0 when every watched
# counter is within threshold, 1 on a regression beyond it, 2 on unusable
# input or on records from different host classes. Fixtures mimic the
# JSON-lines bench_util::ReportJson writes; the last case runs the gate
# against the committed baseline. Registered with ctest:
#
#   bench_diff_test.sh <bench_diff binary> <bench/BENCH_baseline.json>
set -u

DIFF="$1"
BASELINE="$2"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# make_results FILE EVALS_PER_SEC P99_MS [CPUS] — one stamped record per
# watched benchmark, in the exact shape ReportJson emits.
make_results() {
  cat > "$1" <<EOF
{"name": "BM_TmcUtilityFastPath/fast:1", "ms": 1.25, "utility_evals_per_sec": $2, "git_rev": "fixture", "date": "2026-08-07", "cpus": ${4:-1}, "telemetry": "off"}
{"name": "BM_TmcWaveLatency", "ms": 4.0, "wave_p99_ms": $3, "git_rev": "fixture", "date": "2026-08-07", "cpus": ${4:-1}, "telemetry": "off"}
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

# --- a candidate from another host class is refused, naming both stamps -----
make_results cand.json 1000 4.0 4
"$DIFF" --baseline base.json --candidate cand.json > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "a cpus 4 candidate against a cpus 1 baseline should exit 2"
grep -q "baseline .*cpus 1 (rev fixture, 2026-08-07)" err.txt \
    || fail "host-class refusal does not name the baseline's stamp"
grep -q "candidate .*cpus 4 (rev fixture, 2026-08-07)" err.txt \
    || fail "host-class refusal does not name the candidate's stamp"

# --- the committed baseline's gate fires on a 20% regression -----------------
# Every watched counter of the committed baseline scaled 20% the wrong way,
# stamps unchanged: the gate must report a regression, not refuse the input.
awk 'function scale(line, key, factor,   at, rest) {
       at = index(line, "\"" key "\": ")
       if (at == 0) return line
       at += length(key) + 4
       rest = substr(line, at)
       match(rest, /^[-+0-9.eE]+/)
       return substr(line, 1, at - 1) \
              sprintf("%.6f", substr(rest, 1, RLENGTH) * factor) \
              substr(rest, RLENGTH + 1)
     }
     NF { print scale(scale($0, "utility_evals_per_sec", 0.8),
                      "wave_p99_ms", 1.2) }' "$BASELINE" > regressed.json
"$DIFF" --baseline "$BASELINE" --candidate regressed.json > diff_out.txt 2>&1
code=$?
[ $code -eq 1 ] \
    || fail "a 20% regression against the committed baseline exited $code, not 1"
[ "$(grep -c REGRESSED diff_out.txt)" -eq 4 ] \
    || fail "not every watched counter of the committed baseline regressed"

echo "bench_diff test passed"
