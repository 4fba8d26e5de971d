#!/usr/bin/env bash
# Smoke test for `nde_cli serve`: one server process with one job worker and
# a one-deep queue, driven over HTTP. Checks /healthz, /algorithmz and the
# Prometheus text on /metrics; a job's submit, poll, result and RunReport
# artifact; the full queue's 429 and DELETE cancellation; and that one
# client-chosen trace id comes back out of every surface the job touches:
# its snapshot, span tree, wave timeline, artifact, JSON logs and labeled
# /metrics series. A second server runs under an injected utility fault: its
# job ends in error and the server stays up, degraded but scrapeable.
# Registered with ctest (label `serve`):
#
#   serve_smoke_test.sh <nde_cli binary>
set -u

CLI="$1"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT
cd "$WORKDIR"

fail() {
  echo "FAIL: $1" >&2
  echo "--- server stderr (last 20 lines):" >&2
  tail -20 server_err.txt >&2
  exit 1
}

# call METHOD PATH [BODY] [TRACEPARENT]: prints the response body, then the
# HTTP status on a line of its own.
call() {
  if command -v curl > /dev/null 2>&1; then
    curl -s --max-time 10 -X "$1" ${3:+--data "$3"} \
        ${4:+-H "traceparent: $4"} -w '\n%{http_code}\n' \
        "http://127.0.0.1:$PORT$2"
  else
    python3 - "$1" "http://127.0.0.1:$PORT$2" "${3:-}" "${4:-}" <<'EOF'
import sys, urllib.error, urllib.request
method, url, body, traceparent = sys.argv[1:5]
request = urllib.request.Request(
    url, data=body.encode() if body else None, method=method,
    headers={"traceparent": traceparent} if traceparent else {})
try:
    response = urllib.request.urlopen(request, timeout=10)
    payload, code = response.read().decode(), response.status
except urllib.error.HTTPError as e:
    payload, code = e.read().decode(), e.code
print(payload)
print(code)
EOF
  fi
}

# expect CODE FILE: FILE (a `call` transcript) must end in status CODE.
expect() {
  [ "$(tail -1 "$2")" = "$1" ]
}

job_id() {
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$1" | head -1
}

# await_state ID STATE: polls GET /jobs/ID (into job_ID.txt) until STATE.
await_state() {
  for _ in $(seq 1 200); do
    call GET "/jobs/$1" > "job_$1.txt"
    grep -q "\"state\":\"$2\"" "job_$1.txt" && return 0
    sleep 0.05
  done
  return 1
}

# --- fixture: two Gaussian classes, 200 rows ---------------------------------
awk 'BEGIN {
  s = 7
  print "x0,x1,label"
  for (i = 0; i < 200; i++) {
    s = (s * 16807) % 2147483647; u = s / 2147483647
    s = (s * 16807) % 2147483647; v = s / 2147483647
    mu = (i % 2) ? 1.0 : -1.0
    printf "%.4f,%.4f,%d\n", mu + 2 * u - 1, -mu + 2 * v - 1, i % 2
  }
}' > train.csv

# start_server [serve flags...]: starts `nde_cli serve --port 0` with the
# flags and the caller's environment; sets SERVER_PID and PORT.
start_server() {
  : > server_err.txt
  "$CLI" serve --port 0 "$@" > /dev/null 2> server_err.txt &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(sed -n 's#.*serving on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
        server_err.txt | head -1)"
    [ -n "$PORT" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || fail "nde_cli serve exited before serving"
    sleep 0.05
  done
  fail "nde_cli serve never announced its port"
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || fail "nde_cli serve did not exit 0 on SIGTERM"
  SERVER_PID=""
}

# --- the main server ----------------------------------------------------------
start_server --job-workers 1 --max-queue 1 --artifact-dir artifacts \
    --log-level info --log-json
# NDE_TELEMETRY=OFF builds record no spans, series or log lines: skip what
# reads them.
telemetry=on
grep -q "telemetry compiled out" server_err.txt && telemetry=off

call GET /healthz > healthz.txt
expect 200 healthz.txt && [ "$(head -1 healthz.txt)" = "ok" ] \
    || fail "/healthz did not answer ok"
call GET /algorithmz > algorithmz.txt
grep -q '"tmc_shapley"' algorithmz.txt || fail "/algorithmz does not list tmc_shapley"

# --- a job under a client-chosen trace ----------------------------------------
# A fixed, recognizable id proves propagation (a minted one could mask an
# ignored header).
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
call POST /jobs \
    "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv_path\":\"$WORKDIR/train.csv\",\"options\":{\"k\":3}}" \
    "00-$TRACE_ID-00f067aa0ba902b7-01" > submit.txt
expect 202 submit.txt || fail "POST /jobs not accepted: $(cat submit.txt)"
JOB="$(job_id submit.txt)"
[ -n "$JOB" ] || fail "no job id in the POST /jobs response"
await_state "$JOB" done || fail "job never reached done: $(cat "job_$JOB.txt")"
grep -q '"values":\[-\?[0-9]' "job_$JOB.txt" || fail "done job has no values"
grep -q '"ranked_rows":\[[0-9]' "job_$JOB.txt" || fail "done job has no ranked rows"
grep -q "\"trace_id\":\"$TRACE_ID\"" "job_$JOB.txt" \
    || fail "job snapshot lacks the client trace id"

[ -s "artifacts/$JOB.json" ] || fail "job RunReport artifact missing"
grep -q '"job_id"' "artifacts/$JOB.json" || fail "artifact lacks the job config"
grep -q "\"trace_id\":\"$TRACE_ID\"" "artifacts/$JOB.json" \
    || fail "RunReport artifact lacks the client trace id"

call GET "/jobs/$JOB/tracez" > tracez.txt
expect 200 tracez.txt || fail "GET /jobs/<id>/tracez failed"
grep -q "\"trace_id\":\"$TRACE_ID\"" tracez.txt || fail "tracez lacks the client trace id"
call GET "/jobs/$JOB/eventz" > eventz.txt
expect 200 eventz.txt || fail "GET /jobs/<id>/eventz failed"
grep -q "\"trace_id\":\"$TRACE_ID\"" eventz.txt || fail "eventz lacks the client trace id"
grep -q '"waves":\[{' eventz.txt || fail "eventz recorded no waves"

if [ "$telemetry" = on ]; then
  grep -q "\"trace_id\":\"$TRACE_ID\"" server_err.txt \
      || fail "JSON logs lack the client trace id"
  grep -q "\"job_id\":\"$JOB\"" server_err.txt || fail "JSON logs lack the job id"
  grep -q '"spans":\[{' tracez.txt || fail "tracez recorded no spans"
  call GET "/jobs/$JOB/tracez?folded=1" > folded.txt
  expect 200 folded.txt && sed '$d' folded.txt | grep -q . \
      || fail "folded tracez view is empty"
fi

# --- backpressure: one running job, one queued, the third refused -------------
LONG="{\"algorithm\":\"tmc_shapley\",\"label\":\"label\",\"csv_path\":\"$WORKDIR/train.csv\",\"options\":{\"num_permutations\":100000}}"
call POST /jobs "$LONG" > long1.txt
expect 202 long1.txt || fail "first long job rejected: $(cat long1.txt)"
RUNNING="$(job_id long1.txt)"
await_state "$RUNNING" running || fail "long job never started running"
call POST /jobs "$LONG" > long2.txt
expect 202 long2.txt || fail "queued long job rejected: $(cat long2.txt)"
QUEUED="$(job_id long2.txt)"
call POST /jobs "$LONG" > long3.txt
expect 429 long3.txt || fail "full queue did not answer 429: $(cat long3.txt)"
grep -q 'resource_exhausted' long3.txt || fail "429 body lacks the status code"

# /metrics scraped while an estimator runs.
call GET /metrics > metrics.txt
expect 200 metrics.txt || fail "/metrics scrape failed"
if [ "$telemetry" = on ]; then
  # Prometheus text: every non-comment line "name{labels} value", with at
  # least one # TYPE/# HELP line and one sample.
  sed '$d' metrics.txt | awk '
    /^$/ { next }
    /^# (HELP|TYPE) / { if ($3 ~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) { meta++; next }
                        print "bad meta line: " $0; bad = 1; next }
    /^#/ { print "bad comment line: " $0; bad = 1; next }
    {
      if (NF != 2 || $1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$/ ||
          $2 !~ /^-?[0-9.eE+naif]+$/) { print "bad sample line: " $0; bad = 1 }
      samples++
    }
    END { exit bad || meta == 0 || samples == 0 }' \
      || fail "/metrics is not valid Prometheus text"
  grep -q "job_id=\"$JOB\"" metrics.txt \
      || fail "/metrics has no series labeled with the job id"
  grep -q 'http_request_us_count{status="2xx",target="/jobs/<id>"}' metrics.txt \
      || fail "/metrics lacks the per-endpoint latency series"
fi

call DELETE "/jobs/$QUEUED" > /dev/null
call DELETE "/jobs/$RUNNING" > cancel.txt
expect 200 cancel.txt || fail "DELETE /jobs/<id> failed: $(cat cancel.txt)"
await_state "$RUNNING" cancelled || fail "DELETE did not cancel the running job"
await_state "$QUEUED" cancelled || fail "DELETE did not cancel the queued job"

call GET /healthz > healthz.txt
expect 200 healthz.txt || fail "/healthz stopped answering ok after cancellation"
stop_server

# --- a failing backend: the job ends in error, the server stays degraded -----
# Every utility evaluation fails, so the job's first evaluation ends it with
# the injected cause. /healthz then answers 503 with the reason, and /metrics
# stays scrapeable, failpoint counters included.
NDE_FAILPOINTS='utility.evaluate=error(unavailable:flaky backend)' \
    start_server --job-workers 1
call POST /jobs \
    "{\"algorithm\":\"tmc_shapley\",\"label\":\"label\",\"csv_path\":\"$WORKDIR/train.csv\",\"options\":{\"num_permutations\":4}}" \
    > faulty.txt
expect 202 faulty.txt || fail "POST /jobs under a fault not accepted: $(cat faulty.txt)"
FAULTY="$(job_id faulty.txt)"
await_state "$FAULTY" error \
    || fail "faulty job never reached error: $(cat "job_$FAULTY.txt")"
grep -q "flaky backend" "job_$FAULTY.txt" \
    || fail "faulty job's error lacks the injected message: $(cat "job_$FAULTY.txt")"
call GET /healthz > healthz.txt
expect 503 healthz.txt || fail "/healthz did not answer 503 after the failed job"
grep -q "degraded: " healthz.txt || fail "503 healthz body lacks the degraded reason"
call GET /metrics > metrics.txt
expect 200 metrics.txt || fail "/metrics not scrapeable while degraded"
grep -q "failpoint_utility_evaluate" metrics.txt \
    || fail "/metrics lacks failpoint counters while degraded"
stop_server

echo "serve smoke test passed"
