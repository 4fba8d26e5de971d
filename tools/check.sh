#!/usr/bin/env bash
# Sanitizer check: configure a Debug build with sanitizers, build everything,
# and run the test suite under them. Usage:
#
#   tools/check.sh [build-dir]         # ASan+UBSan, full suite
#                                      # (default build dir: build-asan)
#   tools/check.sh --tsan [build-dir]  # ThreadSanitizer, parallel-runtime and
#                                      # determinism tests only
#                                      # (default build dir: build-tsan)
#   tools/check.sh --bench-smoke [build-dir]
#                                      # Release build; runs the scalability
#                                      # bench briefly (including its startup
#                                      # fast-path bit-identity checks) and
#                                      # diffs the key counters against the
#                                      # committed baseline at a loose
#                                      # threshold suited to short runs
#                                      # (default build dir: build-bench)
#   tools/check.sh --bench-diff [build-dir]
#                                      # Release build; full run of the
#                                      # watched benchmarks, appends a
#                                      # machine-stamped entry to
#                                      # BENCH_results.json, and fails if any
#                                      # key counter regresses >15% vs
#                                      # bench/BENCH_baseline.json; also
#                                      # self-tests the gate with an injected
#                                      # regression
#                                      # (default build dir: build-bench)
#   tools/check.sh --serve-smoke [build-dir]
#                                      # Release build; scrapes a live
#                                      # `nde_cli --serve` endpoint (/healthz,
#                                      # /metrics format check) while an
#                                      # estimator is running, then drives the
#                                      # async job API on `nde_cli serve`:
#                                      # POST /jobs, poll to done, result +
#                                      # RunReport artifact, queue-full 429,
#                                      # DELETE cancellation
#                                      # (default build dir: build-serve)
#   tools/check.sh --trace-smoke [build-dir]
#                                      # Release build; starts `nde_cli serve`
#                                      # with JSON logging, submits a job with
#                                      # an explicit W3C traceparent header,
#                                      # and requires the SAME trace id in the
#                                      # server's JSON logs, the job's
#                                      # /jobs/<id>/tracez and /eventz views,
#                                      # the RunReport artifact, and per-job
#                                      # labeled series on /metrics; then
#                                      # reruns the chaos ctest label under
#                                      # TSan with NDE_CHAOS_TRACE=1 so span
#                                      # recording and label resolution race
#                                      # the injected faults
#                                      # (default build dirs: build-trace and
#                                      # build-trace-tsan)
#   tools/check.sh --chaos [build-dir-prefix]
#                                      # Runs the fault-injection suites
#                                      # (ctest -L chaos) under ASan+UBSan AND
#                                      # under TSan, then drives the CLI with
#                                      # NDE_FAILPOINTS and checks the exit
#                                      # code and the exported failpoint
#                                      # counters
#                                      # (default build dirs: build-chaos-asan
#                                      # and build-chaos-tsan)
#   tools/check.sh --prop-smoke [build-dir]
#                                      # Release build; runs exactly the
#                                      # property-labeled generative suites
#                                      # (ctest -L property) on a fast
#                                      # NDE_PROP_CASES budget — the quick
#                                      # pre-commit tier for the invariant
#                                      # harness. Honors an exported
#                                      # NDE_PROP_CASES / NDE_PROP_SEED, so a
#                                      # failure's printed replay line works
#                                      # through this entry point too
#                                      # (default build dir: build-prop)
#
# The full ASan suite and the TSan suite also run the property label, at a
# reduced NDE_PROP_CASES so sanitizer overhead stays bounded; exported values
# win so replay commands keep working under sanitizers.
#
# TSan is incompatible with ASan, hence the separate mode and build dir.
# A non-zero exit means a build failure, test failure, or sanitizer report.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=asan
if [ "${1:-}" = "--tsan" ]; then
  MODE=tsan
  shift
elif [ "${1:-}" = "--bench-smoke" ]; then
  MODE=bench
  shift
elif [ "${1:-}" = "--bench-diff" ]; then
  MODE=benchdiff
  shift
elif [ "${1:-}" = "--serve-smoke" ]; then
  MODE=serve
  shift
elif [ "${1:-}" = "--trace-smoke" ]; then
  MODE=trace
  shift
elif [ "${1:-}" = "--chaos" ]; then
  MODE=chaos
  shift
elif [ "${1:-}" = "--prop-smoke" ]; then
  MODE=prop
  shift
fi

if [ "$MODE" = "tsan" ]; then
  BUILD_DIR="${1:-build-tsan}"
  SANITIZE="thread"
elif [ "$MODE" = "bench" ] || [ "$MODE" = "benchdiff" ]; then
  BUILD_DIR="${1:-build-bench}"
elif [ "$MODE" = "serve" ]; then
  BUILD_DIR="${1:-build-serve}"
elif [ "$MODE" = "trace" ]; then
  BUILD_DIR="${1:-build-trace}"
elif [ "$MODE" = "chaos" ]; then
  BUILD_PREFIX="${1:-build-chaos}"
elif [ "$MODE" = "prop" ]; then
  BUILD_DIR="${1:-build-prop}"
else
  BUILD_DIR="${1:-build-asan}"
  SANITIZE="address,undefined"
fi

if [ "$MODE" = "bench" ] || [ "$MODE" = "benchdiff" ]; then
  # Both modes run the watched benchmarks (the counters guarded by
  # bench/BENCH_baseline.json) with a machine stamp, then gate on bench_diff.
  # --bench-smoke is the quick tier: short spins, results to a temp file, a
  # loose threshold because 0.05s timing runs are noisy. --bench-diff is the
  # trajectory tier: full-length runs appended to BENCH_results.json so the
  # perf history accumulates, gated at the real 15%, plus a self-test that
  # the gate actually fires on a fabricated regression.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target scalability bench_diff

  WATCHED='BM_TmcUtilityFastPath|BM_TmcWaveLatency|BM_KnnKernel|BM_GaussianNbPrefixScan'
  # The git revision is compiled into the binary at build time
  # (cmake/git_rev.cmake), so no NDE_GIT_REV export here: an env value frozen
  # by an old shell could stamp results with a commit the binary was never
  # built from.
  export NDE_BENCH_DATE="$(date -u +%Y-%m-%d)"

  if [ "$MODE" = "bench" ]; then
    RESULTS="$(mktemp)"
    trap 'rm -f "$RESULTS"' EXIT
    MIN_TIME=0.05
    THRESHOLD=0.5
  else
    RESULTS="BENCH_results.json"
    MIN_TIME=0.2
    THRESHOLD=0.15
  fi

  NDE_BENCH_RESULTS="$RESULTS" "$BUILD_DIR/bench/scalability" \
    --benchmark_filter="$WATCHED" \
    --benchmark_min_time="$MIN_TIME"

  "$BUILD_DIR/tools/bench_diff" --baseline bench/BENCH_baseline.json \
    --candidate "$RESULTS" --threshold "$THRESHOLD"

  if [ "$MODE" = "benchdiff" ]; then
    # Gate self-test: scale every watched counter the wrong way by 20% and
    # the diff MUST exit nonzero, otherwise the gate is decorative.
    BROKEN="$(mktemp)"
    trap 'rm -f "$BROKEN"' EXIT
    python3 - bench/BENCH_baseline.json "$BROKEN" <<'EOF'
import json, sys
worse = {"utility_evals_per_sec": 0.8, "wave_p99_ms": 1.2}
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as dst:
    for line in src:
        if not line.strip():
            continue
        record = json.loads(line)
        for key, factor in worse.items():
            if key in record:
                record[key] = record[key] * factor
        dst.write(json.dumps(record) + "\n")
EOF
    if "$BUILD_DIR/tools/bench_diff" --baseline bench/BENCH_baseline.json \
         --candidate "$BROKEN" --threshold 0.15 > /dev/null 2>&1; then
      echo "check.sh: bench_diff failed to flag an injected 20% regression" >&2
      exit 1
    fi
    echo "check.sh: bench diff passed (counters within 15%, gate self-test ok)"
  else
    echo "check.sh: bench smoke passed (bit-identity checks + baseline diff)"
  fi
  exit 0
fi

if [ "$MODE" = "serve" ]; then
  # Live-endpoint smoke: start `nde_cli --serve 0` on a workload big enough
  # that the estimator is still running when we scrape (a tiny workload
  # finishes — and stops the exporter — before the first request lands),
  # then hit /healthz and /metrics and validate the Prometheus exposition
  # format with a small awk parser.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target nde_cli

  WORKDIR="$(mktemp -d)"
  CLI_PID=""
  cleanup() {
    if [ -n "$CLI_PID" ] && kill -0 "$CLI_PID" 2>/dev/null; then
      kill "$CLI_PID" 2>/dev/null || true
      wait "$CLI_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
  }
  trap cleanup EXIT

  # curl when present, else python3's urllib (one of the two is everywhere).
  http_get() {
    if command -v curl >/dev/null 2>&1; then
      curl -sf --max-time 5 "$1"
    else
      python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=5).read().decode())' "$1"
    fi
  }

  # A workload large enough to keep the server up for several seconds.
  python3 - "$WORKDIR/train.csv" <<'EOF'
import random, sys
random.seed(7)
with open(sys.argv[1], "w") as f:
    f.write("x0,x1,label\n")
    for i in range(400):
        label = i % 2
        mu = 1.0 if label else -1.0
        f.write(f"{random.gauss(mu, 1):.4f},{random.gauss(-mu, 1):.4f},{label}\n")
EOF

  "$BUILD_DIR/tools/nde_cli" importance "$WORKDIR/train.csv" --label label \
    --method tmc_shapley --permutations 2000 --top 5 --serve 0 \
    > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt" &
  CLI_PID=$!

  # Poll for the announced port instead of sleeping a fixed time.
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's#.*serving on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$WORKDIR/err.txt" | head -1)"
    [ -n "$PORT" ] && break
    kill -0 "$CLI_PID" 2>/dev/null || {
      echo "check.sh: nde_cli exited before serving" >&2
      cat "$WORKDIR/err.txt" >&2
      exit 1
    }
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "check.sh: no serving line after 10s" >&2; exit 1; }

  http_get "http://127.0.0.1:$PORT/healthz" | grep -q '^ok$' \
    || { echo "check.sh: /healthz did not answer ok" >&2; exit 1; }

  http_get "http://127.0.0.1:$PORT/metrics" > "$WORKDIR/metrics.txt" \
    || { echo "check.sh: /metrics scrape failed" >&2; exit 1; }

  # Minimal Prometheus text-format parser: every non-comment line must be
  # "name value" with a legal metric name and a numeric value, and at least
  # one # TYPE line must be present.
  awk '
    /^$/ { next }
    /^# (HELP|TYPE) / { if ($2 ~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) { meta++; next }
                        print "bad meta line: " $0; bad = 1; next }
    /^#/ { print "bad comment line: " $0; bad = 1; next }
    {
      if (NF != 2 || $1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$/ ||
          $2 !~ /^-?[0-9.eE+naif]+$/) { print "bad sample line: " $0; bad = 1 }
      samples++
    }
    END {
      if (bad) exit 1
      if (meta == 0) { print "no # TYPE/# HELP lines"; exit 1 }
      if (samples == 0) { print "no samples"; exit 1 }
    }
  ' "$WORKDIR/metrics.txt" \
    || { echo "check.sh: /metrics is not valid Prometheus text" >&2; exit 1; }

  kill "$CLI_PID" 2>/dev/null || true
  wait "$CLI_PID" 2>/dev/null || true
  CLI_PID=""

  # --- job-API smoke: drive a full async importance job over HTTP. ----------
  # POST with status capture: prints the body, then "HTTP <code>" last.
  http_post() {
    if command -v curl >/dev/null 2>&1; then
      curl -s --max-time 10 -X POST --data "$2" \
        -w '\nHTTP %{http_code}\n' "$1"
    else
      python3 - "$1" "$2" <<'EOF'
import sys, urllib.request, urllib.error
req = urllib.request.Request(sys.argv[1], data=sys.argv[2].encode())
try:
    resp = urllib.request.urlopen(req, timeout=10)
    body, code = resp.read().decode(), resp.status
except urllib.error.HTTPError as e:
    body, code = e.read().decode(), e.code
print(body)
print(f"HTTP {code}")
EOF
    fi
  }
  http_delete() {
    if command -v curl >/dev/null 2>&1; then
      curl -s --max-time 10 -X DELETE "$1"
    else
      python3 -c 'import sys, urllib.request
req = urllib.request.Request(sys.argv[1], method="DELETE")
sys.stdout.write(urllib.request.urlopen(req, timeout=10).read().decode())' "$1"
    fi
  }

  "$BUILD_DIR/tools/nde_cli" serve --port 0 --job-workers 1 --max-queue 1 \
    --artifact-dir "$WORKDIR/artifacts" 2> "$WORKDIR/serve_err.txt" &
  CLI_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's#.*serving on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$WORKDIR/serve_err.txt" | head -1)"
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "check.sh: serve mode never announced" >&2; exit 1; }

  http_get "http://127.0.0.1:$PORT/algorithmz" | grep -q '"tmc_shapley"' \
    || { echo "check.sh: /algorithmz does not list tmc_shapley" >&2; exit 1; }

  # Submit a fast job and poll it to completion.
  http_post "http://127.0.0.1:$PORT/jobs" \
    "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv_path\":\"$WORKDIR/train.csv\",\"options\":{\"k\":3}}" \
    > "$WORKDIR/submit.txt"
  grep -q '^HTTP 202$' "$WORKDIR/submit.txt" \
    || { echo "check.sh: POST /jobs not accepted" >&2; cat "$WORKDIR/submit.txt" >&2; exit 1; }
  JOB_ID="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$WORKDIR/submit.txt" | head -1)"
  [ -n "$JOB_ID" ] || { echo "check.sh: no job id in POST response" >&2; exit 1; }

  DONE=""
  for _ in $(seq 1 100); do
    http_get "http://127.0.0.1:$PORT/jobs/$JOB_ID" > "$WORKDIR/job.txt" || true
    if grep -q '"state":"done"' "$WORKDIR/job.txt"; then DONE=1; break; fi
    if grep -q '"state":"error"' "$WORKDIR/job.txt"; then break; fi
    sleep 0.1
  done
  [ -n "$DONE" ] || { echo "check.sh: job never reached done" >&2; cat "$WORKDIR/job.txt" >&2; exit 1; }
  grep -q '"values":\[-\?[0-9]' "$WORKDIR/job.txt" \
    || { echo "check.sh: done job has no values" >&2; exit 1; }
  grep -q '"ranked_rows":\[[0-9]' "$WORKDIR/job.txt" \
    || { echo "check.sh: done job has no ranked rows" >&2; exit 1; }
  [ -s "$WORKDIR/artifacts/$JOB_ID.json" ] \
    || { echo "check.sh: job RunReport artifact missing" >&2; exit 1; }
  grep -q '"job_id"' "$WORKDIR/artifacts/$JOB_ID.json" \
    || { echo "check.sh: artifact lacks job config" >&2; exit 1; }

  # Backpressure: with 1 worker and a 1-deep queue, a long job + a queued job
  # must push the third submission to 429; then cancel the long one.
  LONG="{\"algorithm\":\"tmc_shapley\",\"label\":\"label\",\"csv_path\":\"$WORKDIR/train.csv\",\"options\":{\"num_permutations\":100000}}"
  http_post "http://127.0.0.1:$PORT/jobs" "$LONG" > "$WORKDIR/long1.txt"
  grep -q '^HTTP 202$' "$WORKDIR/long1.txt" \
    || { echo "check.sh: first long job rejected" >&2; exit 1; }
  LONG_ID="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$WORKDIR/long1.txt" | head -1)"
  http_post "http://127.0.0.1:$PORT/jobs" "$LONG" > "$WORKDIR/long2.txt"
  grep -q '^HTTP 202$' "$WORKDIR/long2.txt" \
    || { echo "check.sh: queued long job rejected" >&2; exit 1; }
  QUEUED_ID="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$WORKDIR/long2.txt" | head -1)"
  http_post "http://127.0.0.1:$PORT/jobs" "$LONG" > "$WORKDIR/long3.txt"
  grep -q '^HTTP 429$' "$WORKDIR/long3.txt" \
    || { echo "check.sh: full queue did not answer 429" >&2; cat "$WORKDIR/long3.txt" >&2; exit 1; }
  grep -q 'resource_exhausted' "$WORKDIR/long3.txt" \
    || { echo "check.sh: 429 body lacks the status code" >&2; exit 1; }

  http_delete "http://127.0.0.1:$PORT/jobs/$QUEUED_ID" > /dev/null
  http_delete "http://127.0.0.1:$PORT/jobs/$LONG_ID" > /dev/null
  CANCELLED=""
  for _ in $(seq 1 100); do
    if http_get "http://127.0.0.1:$PORT/jobs/$LONG_ID" \
        | grep -q '"state":"cancelled"'; then
      CANCELLED=1
      break
    fi
    sleep 0.1
  done
  [ -n "$CANCELLED" ] || { echo "check.sh: DELETE did not cancel the job" >&2; exit 1; }

  kill "$CLI_PID" 2>/dev/null || true
  wait "$CLI_PID" 2>/dev/null || true
  CLI_PID=""
  echo "check.sh: serve smoke passed (/healthz ok, /metrics well-formed, job API drove submit/poll/result/429/cancel)"
  exit 0
fi

if [ "$MODE" = "trace" ]; then
  # Trace-correlation smoke: one trace id, supplied by the CLIENT via a W3C
  # traceparent header, must come back out of every observability surface the
  # job touches — logs, span tree, wave timeline, report artifact, metrics.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target nde_cli

  WORKDIR="$(mktemp -d)"
  CLI_PID=""
  cleanup() {
    if [ -n "$CLI_PID" ] && kill -0 "$CLI_PID" 2>/dev/null; then
      kill "$CLI_PID" 2>/dev/null || true
      wait "$CLI_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
  }
  trap cleanup EXIT

  http_get() {
    if command -v curl >/dev/null 2>&1; then
      curl -sf --max-time 5 "$1"
    else
      python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=5).read().decode())' "$1"
    fi
  }
  # POST with an explicit traceparent header; prints body then "HTTP <code>".
  http_post_traced() {
    if command -v curl >/dev/null 2>&1; then
      curl -s --max-time 10 -X POST -H "traceparent: $3" --data "$2" \
        -w '\nHTTP %{http_code}\n' "$1"
    else
      python3 - "$1" "$2" "$3" <<'EOF'
import sys, urllib.request, urllib.error
req = urllib.request.Request(sys.argv[1], data=sys.argv[2].encode(),
                             headers={"traceparent": sys.argv[3]})
try:
    resp = urllib.request.urlopen(req, timeout=10)
    body, code = resp.read().decode(), resp.status
except urllib.error.HTTPError as e:
    body, code = e.read().decode(), e.code
print(body)
print(f"HTTP {code}")
EOF
    fi
  }

  python3 - "$WORKDIR/train.csv" <<'EOF'
import random, sys
random.seed(7)
with open(sys.argv[1], "w") as f:
    f.write("x0,x1,label\n")
    for i in range(200):
        label = i % 2
        mu = 1.0 if label else -1.0
        f.write(f"{random.gauss(mu, 1):.4f},{random.gauss(-mu, 1):.4f},{label}\n")
EOF

  "$BUILD_DIR/tools/nde_cli" serve --port 0 --job-workers 1 \
    --artifact-dir "$WORKDIR/artifacts" --log-level info --log-json \
    2> "$WORKDIR/serve_err.txt" &
  CLI_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's#.*serving on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$WORKDIR/serve_err.txt" | head -1)"
    [ -n "$PORT" ] && break
    kill -0 "$CLI_PID" 2>/dev/null || {
      echo "check.sh: nde_cli serve exited early" >&2
      cat "$WORKDIR/serve_err.txt" >&2
      exit 1
    }
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "check.sh: serve mode never announced" >&2; exit 1; }

  # A fixed, recognizable trace id proves propagation (a minted one could
  # mask an ignored header).
  TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
  TRACEPARENT="00-$TRACE_ID-00f067aa0ba902b7-01"

  http_post_traced "http://127.0.0.1:$PORT/jobs" \
    "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv_path\":\"$WORKDIR/train.csv\",\"options\":{\"k\":3}}" \
    "$TRACEPARENT" > "$WORKDIR/submit.txt"
  grep -q '^HTTP 202$' "$WORKDIR/submit.txt" \
    || { echo "check.sh: POST /jobs not accepted" >&2; cat "$WORKDIR/submit.txt" >&2; exit 1; }
  JOB_ID="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$WORKDIR/submit.txt" | head -1)"
  [ -n "$JOB_ID" ] || { echo "check.sh: no job id in POST response" >&2; exit 1; }

  DONE=""
  for _ in $(seq 1 100); do
    http_get "http://127.0.0.1:$PORT/jobs/$JOB_ID" > "$WORKDIR/job.txt" || true
    if grep -q '"state":"done"' "$WORKDIR/job.txt"; then DONE=1; break; fi
    if grep -q '"state":"error"' "$WORKDIR/job.txt"; then break; fi
    sleep 0.1
  done
  [ -n "$DONE" ] || { echo "check.sh: job never reached done" >&2; cat "$WORKDIR/job.txt" >&2; exit 1; }

  # (1) The job snapshot carries the client's trace id verbatim.
  grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORKDIR/job.txt" \
    || { echo "check.sh: job snapshot lacks the client trace id" >&2; exit 1; }

  # (2) The span tree for the job is rooted in the same trace.
  http_get "http://127.0.0.1:$PORT/jobs/$JOB_ID/tracez" > "$WORKDIR/tracez.txt" \
    || { echo "check.sh: GET tracez failed" >&2; exit 1; }
  grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORKDIR/tracez.txt" \
    || { echo "check.sh: tracez lacks the client trace id" >&2; exit 1; }
  grep -q '"spans":\[{' "$WORKDIR/tracez.txt" \
    || { echo "check.sh: tracez recorded no spans" >&2; exit 1; }
  http_get "http://127.0.0.1:$PORT/jobs/$JOB_ID/tracez?folded=1" \
    > "$WORKDIR/folded.txt" || true
  [ -s "$WORKDIR/folded.txt" ] \
    || { echo "check.sh: folded tracez view is empty" >&2; exit 1; }

  # (3) The wave timeline is attributed to the same trace.
  http_get "http://127.0.0.1:$PORT/jobs/$JOB_ID/eventz" > "$WORKDIR/eventz.txt" \
    || { echo "check.sh: GET eventz failed" >&2; exit 1; }
  grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORKDIR/eventz.txt" \
    || { echo "check.sh: eventz lacks the client trace id" >&2; exit 1; }
  grep -q '"waves":\[{' "$WORKDIR/eventz.txt" \
    || { echo "check.sh: eventz recorded no waves" >&2; exit 1; }

  # (4) The persisted RunReport artifact records the trace id.
  grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORKDIR/artifacts/$JOB_ID.json" \
    || { echo "check.sh: RunReport artifact lacks the trace id" >&2; exit 1; }

  # (5) The server's JSON logs stamp both the trace id and the job id.
  grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORKDIR/serve_err.txt" \
    || { echo "check.sh: JSON logs lack the client trace id" >&2; exit 1; }
  grep -q "\"job_id\":\"$JOB_ID\"" "$WORKDIR/serve_err.txt" \
    || { echo "check.sh: JSON logs lack the job id" >&2; exit 1; }

  # (6) /metrics exposes per-job labeled series plus the per-endpoint
  # request-latency histogram.
  http_get "http://127.0.0.1:$PORT/metrics" > "$WORKDIR/metrics.txt" \
    || { echo "check.sh: /metrics scrape failed" >&2; exit 1; }
  grep -q "job_id=\"$JOB_ID\"" "$WORKDIR/metrics.txt" \
    || { echo "check.sh: /metrics has no series labeled with the job id" >&2; exit 1; }
  grep -q 'http_request_us_count{status="2xx",target="/jobs/<id>"}' \
    "$WORKDIR/metrics.txt" \
    || { echo "check.sh: /metrics lacks the per-endpoint latency series" >&2; exit 1; }

  kill "$CLI_PID" 2>/dev/null || true
  wait "$CLI_PID" 2>/dev/null || true
  CLI_PID=""

  # Chaos with the tracing stack live, under TSan: injected faults land on
  # worker threads while spans record and labeled series resolve.
  TSAN_DIR="$BUILD_DIR-tsan"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$TSAN_DIR" -j "$(nproc)"
  NDE_CHAOS_TRACE=1 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" -L chaos

  echo "check.sh: trace smoke passed (one trace id across logs/tracez/eventz/artifact/metrics; chaos+tracing clean under TSan)"
  exit 0
fi

if [ "$MODE" = "prop" ]; then
  # Fast generative tier: exactly the property-labeled suites on a small
  # per-test case budget. An exported NDE_PROP_CASES/NDE_PROP_SEED wins, so
  # the one-line replay command a failing property prints reproduces the
  # same case through this entry point.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target proptest_test property_test
  NDE_PROP_CASES="${NDE_PROP_CASES:-25}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
      -L property
  echo "check.sh: property smoke passed (ctest -L property, NDE_PROP_CASES=${NDE_PROP_CASES:-25})"
  exit 0
fi

if [ "$MODE" = "chaos" ]; then
  # The chaos gate: the fault-injection suites (ctest label `chaos`) must be
  # clean under BOTH ASan+UBSan (no leaks or UB on any injected error path)
  # and TSan (no races when faults land on worker threads), and the CLI must
  # turn an injected fault into exit code 3 with failpoint counters visible
  # in its telemetry export.
  for SAN in address,undefined thread; do
    case "$SAN" in
      thread) DIR="$BUILD_PREFIX-tsan" ;;
      *)      DIR="$BUILD_PREFIX-asan" ;;
    esac
    cmake -B "$DIR" -S . \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=$SAN -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$SAN"
    cmake --build "$DIR" -j "$(nproc)"
    UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    TSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -L chaos
    echo "check.sh: chaos suites passed under $SAN"
  done

  # End-to-end: injected utility faults exhaust their retries, the CLI exits
  # 3, and the metrics table reports the failpoint's hit/fire counters.
  WORKDIR="$(mktemp -d)"
  trap 'rm -rf "$WORKDIR"' EXIT
  {
    echo "age,score,label"
    for i in $(seq 0 59); do
      echo "$((20 + i % 30)),$((i % 7)).$((i % 10)),$((i % 2))"
    done
  } > "$WORKDIR/train.csv"
  set +e
  NDE_FAILPOINTS='utility.evaluate=error(unavailable:chaos gate)' \
    "$BUILD_PREFIX-asan/tools/nde_cli" importance "$WORKDIR/train.csv" \
    --label label --top 5 --permutations 4 --retries 1 --retry-backoff-ms 0 \
    --metrics > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt"
  CODE=$?
  set -e
  [ "$CODE" -eq 3 ] || {
    echo "check.sh: expected exit 3 from injected fault, got $CODE" >&2
    cat "$WORKDIR/err.txt" >&2
    exit 1
  }
  grep -q "chaos gate" "$WORKDIR/err.txt" || {
    echo "check.sh: injected fault message missing from stderr" >&2
    exit 1
  }
  grep -q "failpoint.utility.evaluate.hits" "$WORKDIR/out.txt" || {
    echo "check.sh: --metrics lacks failpoint hit counters" >&2
    exit 1
  }
  grep -q "failpoint.utility.evaluate.fires" "$WORKDIR/out.txt" || {
    echo "check.sh: --metrics lacks failpoint fire counters" >&2
    exit 1
  }
  echo "check.sh: chaos gate passed (ASan+UBSan, TSan, CLI exit-3 + counters)"
  exit 0
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=$SANITIZE -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$SANITIZE"

cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes UBSan reports fail the test instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export TSAN_OPTIONS="halt_on_error=1"

if [ "$MODE" = "tsan" ]; then
  # The thread-heavy suites: pool lifecycle, ParallelFor, the estimators'
  # cross-thread determinism contract over the exact and warm-started
  # utilities, the
  # registry/job-API serving layer (worker pool + HTTP cancellation), and
  # the generative property suites (thread-sweep and fast-path-config
  # invariants fan work across pools) on a small case budget — TSan costs
  # 5-15x, so the default 100-case budgets would dominate the run.
  NDE_PROP_CASES="${NDE_PROP_CASES:-10}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
      -R "determinism|parallel|importance|estimator_contract|registry|job_api|proptest"
  echo "check.sh: parallel suites passed under TSan"
else
  # Full suite, including the property label at a reduced generative budget
  # (ASan+UBSan overhead makes the default case counts needlessly slow; a
  # printed replay seed still reproduces here via its NDE_PROP_* exports).
  NDE_PROP_CASES="${NDE_PROP_CASES:-25}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
  echo "check.sh: all tests passed under ASan+UBSan"
fi
