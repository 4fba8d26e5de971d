#!/usr/bin/env bash
# Smoke test for the nde_cli tool: exercises every subcommand end to end on a
# generated CSV and checks exit codes and key output. Registered with ctest.
set -u

CLI="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# --- fixture: a small binary-classification CSV with some nulls -------------
{
  echo "age,score,label"
  for i in $(seq 0 99); do
    if [ $((i % 2)) -eq 0 ]; then
      label=1
      score="1.$((i % 9))"
    else
      label=0
      score="-1.$((i % 9))"
    fi
    if [ $((i % 13)) -eq 0 ]; then
      score=""  # missing value
    fi
    echo "$((22 + i % 40)),$score,$label"
  done
} > train.csv
head -41 train.csv > valid.csv

# --- screen ------------------------------------------------------------------
"$CLI" screen train.csv --label label > screen_out.txt
code=$?
[ $code -eq 0 ] || [ $code -eq 1 ] || fail "screen exited with $code"

# Unknown file must fail cleanly.
"$CLI" screen missing.csv > /dev/null 2>&1 && fail "screen accepted a missing file"

# --- importance ---------------------------------------------------------------
"$CLI" importance train.csv valid.csv --label label --method knn_shapley \
    --top 5 > importance_out.txt || fail "importance failed"
[ "$(grep -c '^[0-9]\+$' importance_out.txt)" -eq 5 ] \
    || fail "importance did not print 5 candidate ids"

"$CLI" importance train.csv valid.csv --label label --method bogus \
    > /dev/null 2>&1 && fail "importance accepted a bogus method"

# --- impute ---------------------------------------------------------------------
"$CLI" impute train.csv --column score --strategy median --out fixed.csv \
    > impute_out.txt || fail "impute failed"
grep -q "repaired" impute_out.txt || fail "impute did not report repairs"
# The repaired file must have no empty score cells left.
if awk -F, 'NR > 1 && $2 == "" { found = 1 } END { exit found }' fixed.csv; then
  :
else
  fail "fixed.csv still has empty score cells"
fi

# --- pipeline-mode importance with telemetry ---------------------------------
"$CLI" importance train.csv --label label --top 5 --permutations 4 \
    --metrics --trace out.json > pipeline_out.txt 2> pipeline_err.txt \
    || fail "pipeline-mode importance failed"
"$CLI" importance train.csv --label label --top 5 --method banzhaf \
    --trace banzhaf_trace.json > /dev/null 2>&1 \
    || fail "banzhaf importance with --trace failed"
[ "$(grep -c '^[0-9]\+$' pipeline_out.txt)" -eq 5 ] \
    || fail "pipeline-mode importance did not print 5 candidate ids"
# The annotated plan printout lists per-operator rows and timings.
grep -q "rows," pipeline_out.txt || fail "no annotated plan in pipeline output"
grep -q "ms total" pipeline_out.txt || fail "no per-operator timings in plan"
# --trace writes Chrome trace_event JSON.
[ -s out.json ] || fail "trace file missing or empty"
grep -q '"traceEvents"' out.json || fail "trace file lacks traceEvents"
if grep -q "telemetry compiled out" pipeline_err.txt; then
  : # NDE_TELEMETRY=OFF build: metrics table and trace are legitimately empty.
else
  # --metrics appends the metrics table.
  grep -q "pipeline.operator_executions" pipeline_out.txt \
      || fail "metrics table missing pipeline counters"
  grep -q '"ph":"X"' out.json || fail "trace file lacks complete events"
  grep -q 'tmc_permutation' out.json || fail "trace lacks Shapley iteration spans"
  # Every game estimator builds the scorer context before its first
  # evaluation, under its own span.
  for trace in out.json banzhaf_trace.json; do
    grep -q '"scorer_context"' "$trace" \
        || fail "$trace lacks the scorer-context prelude span"
  done
fi

# --- --threads: parallel runs match the serial run ---------------------------
"$CLI" importance train.csv --label label --top 5 --permutations 4 \
    --threads 1 > threads1_out.txt || fail "--threads 1 importance failed"
"$CLI" importance train.csv --label label --top 5 --permutations 4 \
    --threads 2 > threads2_out.txt || fail "--threads 2 importance failed"
grep '^[0-9]\+$' threads1_out.txt > threads1_ids.txt
grep '^[0-9]\+$' threads2_out.txt > threads2_ids.txt
cmp -s threads1_ids.txt threads2_ids.txt \
    || fail "--threads 2 ranked different candidates than --threads 1"
grep -q "threads)" threads2_out.txt \
    || fail "importance output does not report the thread count"
"$CLI" importance train.csv --label label --method loo --threads 2 \
    > loo_out.txt || fail "loo importance failed"
grep -q "(2 threads)" loo_out.txt \
    || fail "loo does not report the 2 threads it ran on"

"$CLI" importance train.csv --label label --threads bogus > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "non-numeric --threads should exit 2"
grep -q -- "--threads" err.txt || fail "--threads error does not name the flag"

"$CLI" importance train.csv --label label --threads 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--threads 0 should exit 2"

"$CLI" importance train.csv --label label --threads -3 > /dev/null 2>&1
[ $? -eq 2 ] || fail "negative --threads should exit 2"

# --- numeric flags: a malformed value is a usage error naming the flag ---------
for flag in "--top abc" "--top -1" "--permutations x" \
            "--permutations 2305843009213693952" "--seed x"; do
  name="${flag%% *}"
  "$CLI" importance train.csv --label label $flag > /dev/null 2> err.txt
  [ $? -eq 2 ] || fail "importance $flag should exit 2"
  grep -q -- "'$name'" err.txt || fail "importance $flag error does not name $name"
done
"$CLI" screen train.csv --label label --max-null x > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "screen --max-null x should exit 2"
grep -q -- "'--max-null'" err.txt || fail "--max-null error does not name the flag"
for flag in "--port x" "--port 65536" "--job-workers 0" "--max-queue -1"; do
  name="${flag%% *}"
  timeout 10 "$CLI" serve $flag > /dev/null 2> err.txt
  [ $? -eq 2 ] || fail "serve $flag should exit 2"
  grep -q -- "'$name'" err.txt || fail "serve $flag error does not name $name"
  grep -q "serving on" err.txt && fail "serve bound a port before rejecting $flag"
done

# --- the neighbor order's NaN rule, end to end --------------------------------
# One `inf` cell: scaling turns its whole column into NaN, so every distance
# is NaN and only the order's NaN rule and index tie-break rank neighbors.
awk 'BEGIN {
  s = 7
  print "a,b,label"
  for (i = 0; i < 300; i++) {
    s = (s * 16807) % 2147483647; u = s / 2147483647
    s = (s * 16807) % 2147483647; v = s / 2147483647
    a = sprintf("%.4f", u * 4 - 2)
    if (i == 37) a = "inf"
    printf "%s,%.4f,%d\n", a, v * 4 - 2, (u + v > 1.0) ? 1 : 0
  }
}' > inf.csv

# The closed forms rank through the full neighbor order, and on inf.csv that
# order must not depend on the thread count.
for method in knn_shapley datascope; do
  for threads in 1 4; do
    "$CLI" importance inf.csv --label label --method "$method" --top 300 \
        --threads "$threads" | sed -n '/cleaning candidates/,$p' \
        > "${method}_threads${threads}.txt"
    [ -s "${method}_threads${threads}.txt" ] \
        || fail "no $method ranking on inf.csv at --threads $threads"
  done
  cmp -s "${method}_threads1.txt" "${method}_threads4.txt" \
      || fail "$method ranks inf.csv differently at --threads 4 than at 1"
done

# --- observability flags: --report / --log-level / --log-json / --serve ------
"$CLI" importance train.csv --label label --top 5 --permutations 8 \
    --report report.json > /dev/null 2> report_err.txt \
    || fail "--report importance failed"
[ -s report.json ] || fail "run report missing or empty"
grep -q '"convergence_curve"' report.json || fail "report lacks convergence_curve"
grep -q '"config"' report.json || fail "report lacks config"
grep -q '"flag.permutations":"8"' report.json \
    || fail "report config does not record the invocation flags"
grep -q '"command":"importance"' report.json \
    || fail "report config does not record the command"
grep -q "wrote run report" report_err.txt \
    || fail "--report did not announce the report path"

# Progress lines reach stderr at info level, as text and as JSON.
"$CLI" importance train.csv --label label --top 5 --permutations 8 \
    --log-level info > /dev/null 2> log_text.txt \
    || fail "--log-level info importance failed"
grep -q "tmc_shapley: " log_text.txt || fail "no progress line at --log-level info"
"$CLI" importance train.csv --label label --top 5 --permutations 8 \
    --log-level info --log-json > /dev/null 2> log_json.txt \
    || fail "--log-json importance failed"
grep -q '"level":"INFO"' log_json.txt || fail "--log-json did not emit JSON lines"
grep -q '"msg":"tmc_shapley: ' log_json.txt \
    || fail "--log-json progress line missing msg field"

# Default level is warning: no progress chatter without opting in.
grep -q "tmc_shapley: " pipeline_err.txt \
    && fail "progress lines leaked at the default log level"

"$CLI" importance train.csv --label label --log-level bogus > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "bogus --log-level should exit 2"
grep -q -- "--log-level" err.txt || fail "--log-level error does not name the flag"

# --serve 0 binds an ephemeral port and announces it before the run.
"$CLI" importance train.csv --label label --top 5 --permutations 8 \
    --serve 0 > /dev/null 2> serve_err.txt || fail "--serve 0 importance failed"
grep -q "serving on http://127.0.0.1:" serve_err.txt \
    || fail "--serve did not announce the bound port"

"$CLI" importance train.csv --label label --serve notaport > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "non-numeric --serve should exit 2"
grep -q -- "--serve" err.txt || fail "--serve error does not name the flag"

"$CLI" importance train.csv --label label --serve > /dev/null 2>&1
[ $? -eq 2 ] || fail "value-less --serve should exit 2"

"$CLI" importance train.csv --label label --report > /dev/null 2>&1
[ $? -eq 2 ] || fail "value-less --report should exit 2"

# serve never finishes a command, so the flags that write a command's outputs
# would be silently ignored: it exits 2 on each, naming it, before binding a
# port. (The timeout keeps a server that accepts one from hanging the test.)
for flag in "--profile p.folded" "--trace t.json" "--report r.json" \
            --metrics --prometheus "--serve 0" \
            "--trace-parent 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"; do
  name="${flag%% *}"
  timeout 10 "$CLI" serve --port 0 $flag > /dev/null 2> err.txt
  [ $? -eq 2 ] || fail "serve should reject $name with exit 2"
  grep -q -- "'$name'" err.txt || fail "serve's rejection does not name $name"
  grep -q "serving on" err.txt && fail "serve bound a port before rejecting $name"
done
# ...while the flags that shape the server itself still work.
: > serve_ok_err.txt
"$CLI" serve --port 0 --threads 2 --log-level info --log-json \
    > /dev/null 2> serve_ok_err.txt &
serve_pid=$!
for _ in $(seq 1 200); do
  grep -q "serving on" serve_ok_err.txt && break
  sleep 0.05
done
grep -q "serving on" serve_ok_err.txt \
    || { kill "$serve_pid"; fail "serve refused --threads/--log-level/--log-json"; }
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "serve did not exit 0 on SIGTERM"

# --- --profile: folded stacks, report block, bit-identical ranking -----------
"$CLI" importance train.csv --label label --top 5 \
    --profile prof.folded --report prof_report.json \
    > prof_out.txt 2> prof_err.txt || fail "--profile importance failed"
grep -q "^wrote profile of [0-9]* spans ([0-9]* stacks, 0 dropped) to prof.folded$" \
    prof_err.txt || fail "--profile did not announce the profile file"
grep -q '"profile":{"spans":' prof_report.json \
    || fail "report lacks the profile block under --profile"
if grep -q "telemetry compiled out" prof_err.txt; then
  : # NDE_TELEMETRY=OFF build: no spans exist, so folded stacks stay empty.
else
  [ -s prof.folded ] || fail "folded-stack file missing or empty"
  # Folded lines are "frame(;frame)* self_us" and the run's wave spans show.
  grep -qv '^[^ ;]\+\(;[^ ;]\+\)* [0-9]\+$' prof.folded \
      && fail "prof.folded is not in folded-stack format"
  grep -q "tmc_permutation" prof.folded \
      || fail "folded stacks lack tmc wave frames"
  # Parsing, dataset extraction and ranking each root a stack of their own.
  for root in csv.parse ToDataset rank; do
    grep -q "^$root[ ;]" prof.folded || fail "folded stacks lack $root"
  done
  grep -q '"profile":{"spans":[1-9]' prof_report.json \
      || fail "report profile block folded no spans under --profile"
  # Influence roots a stack of its own, with its Newton fit under it.
  "$CLI" importance train.csv --label label --method influence --top 5 \
      --profile influence.folded > /dev/null 2>&1 \
      || fail "--profile influence importance failed"
  grep -q "^influence[ ;]" influence.folded \
      || fail "folded stacks lack an influence frame"
  grep -q "^influence;influence.newton[ ;]" influence.folded \
      || fail "folded stacks lack influence's Newton fit"
fi
# Profiling must not change the ranking: compare against the plain run.
"$CLI" importance train.csv --label label --top 5 \
    > noprof_out.txt || fail "plain importance failed"
grep '^[0-9]\+$' prof_out.txt > prof_ids.txt
grep '^[0-9]\+$' noprof_out.txt > noprof_ids.txt
cmp -s prof_ids.txt noprof_ids.txt \
    || fail "--profile changed the importance ranking"

"$CLI" importance train.csv --label label --profile > /dev/null 2>&1
[ $? -eq 2 ] || fail "value-less --profile should exit 2"

# --- error handling ----------------------------------------------------------
"$CLI" bogus train.csv > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "unknown command should exit 2"
grep -q "bogus" err.txt || fail "unknown-command error does not name the token"

"$CLI" screen train.csv --label label --bogus-flag 3 > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "unknown flag should exit 2"
grep -q -- "--bogus-flag" err.txt || fail "unknown-flag error does not name the flag"

"$CLI" importance train.csv --label label --trace > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "value-less --trace should exit 2"
grep -q -- "--trace" err.txt || fail "missing-value error does not name the flag"

# --- fault injection: exit codes, report error block, health endpoint --------

# Runtime failures exit 3, distinct from usage errors (2) and screen
# findings (1).
"$CLI" screen missing.csv > /dev/null 2>&1
[ $? -eq 3 ] || fail "missing input file should exit 3"

# An injected utility fault aborts the run with exit 3, a structured error
# block in the run report, and the failpoint's hits and fires in the
# --metrics table.
NDE_FAILPOINTS='utility.evaluate=error(unavailable:backend down)' \
    "$CLI" importance train.csv --label label --top 5 --permutations 4 \
    --report chaos_report.json --metrics \
    > chaos_out.txt 2> chaos_err.txt
[ $? -eq 3 ] || fail "injected utility fault should exit 3"
grep -q "backend down" chaos_err.txt \
    || fail "injected fault not reported on stderr"
[ -s chaos_report.json ] || fail "run report missing after injected fault"
grep -q '"error":{"code":"unavailable","message":"backend down","exit_code":3}' \
    chaos_report.json || fail "report lacks the structured error block"
for counter in hits fires; do
  grep -q "failpoint.utility.evaluate.$counter" chaos_out.txt \
      || fail "--metrics lacks the failpoint $counter counter"
done

# The run's first pool tasks fill TMC's scorer context, before any wave:
# losing one is a typed runtime failure (exit 3), not a crash.
NDE_FAILPOINTS='threadpool.task=error(unavailable:worker fault)#1x1' \
    "$CLI" importance train.csv --label label --top 5 --permutations 8 \
    --threads 4 > /dev/null 2> pool_fault_err.txt
[ $? -eq 3 ] || fail "pool fault in the scorer-context build should exit 3"
grep -q "worker fault" pool_fault_err.txt \
    || fail "pool fault in the scorer-context build not reported on stderr"

# The closed-form KNN-Shapley fan-out (also under datascope) runs its waves
# through the same runner: a lost pool task is exit 3, not a crash.
for method in knn_shapley datascope; do
  NDE_FAILPOINTS='threadpool.task=error(unavailable:worker fault)#1x1' \
      "$CLI" importance train.csv --label label --top 5 --method "$method" \
      --threads 4 > /dev/null 2> pool_fault_err.txt
  [ $? -eq 3 ] || fail "pool fault in the $method fan-out should exit 3"
  grep -q "worker fault" pool_fault_err.txt \
      || fail "pool fault in the $method fan-out not reported on stderr"
done

# A malformed NDE_FAILPOINTS spec warns and is ignored — an operator typo
# must not break the run it was trying to observe. So does the retired
# alloc_fail action, which was error(resource_exhausted) under another name.
for action in bogus_action alloc_fail; do
  NDE_FAILPOINTS="utility.evaluate=$action" \
      "$CLI" importance train.csv --label label --top 5 --permutations 4 \
      > /dev/null 2> badspec_err.txt \
      || fail "NDE_FAILPOINTS action $action aborted the run"
  grep -q "warning: NDE_FAILPOINTS.*unknown action '$action'" badspec_err.txt \
      || fail "NDE_FAILPOINTS action $action not warned about"
done

# --- algorithm registry ---------------------------------------------------------
"$CLI" --list-algorithms > algorithms.txt || fail "--list-algorithms failed"
for name in loo tmc_shapley banzhaf beta_shapley knn_shapley datascope \
            influence aum self_confidence; do
  grep -q "^$name\$" algorithms.txt \
      || fail "--list-algorithms does not list $name"
done
grep -q "num_permutations" algorithms.txt \
    || fail "--list-algorithms does not document options"

# --set reaches the registry: an explicit option matching the flag default
# must reproduce the flag run exactly.
"$CLI" importance train.csv --label label --top 5 --permutations 4 \
    > set_flag_out.txt || fail "flag-configured importance failed"
"$CLI" importance train.csv --label label --top 5 \
    --set num_permutations=4 > set_set_out.txt \
    || fail "--set-configured importance failed"
diff <(grep '^[0-9]\+$' set_flag_out.txt) <(grep '^[0-9]\+$' set_set_out.txt) \
    > /dev/null || fail "--set num_permutations=4 ranked differently than --permutations 4"

# Two-CSV mode maps the legacy flags exactly as pipeline mode does.
for pair in "--permutations 2|--set num_permutations=2" \
            "--model gaussian_nb|--set model=gaussian_nb"; do
  "$CLI" importance train.csv valid.csv --label label --method tmc_shapley \
      --top 100 ${pair%%|*} > pair_flag_out.txt || fail "two-CSV ${pair%%|*} failed"
  "$CLI" importance train.csv valid.csv --label label --method tmc_shapley \
      --top 100 ${pair##*|} > pair_set_out.txt || fail "two-CSV ${pair##*|} failed"
  cmp -s pair_flag_out.txt pair_set_out.txt \
      || fail "two-CSV ${pair%%|*} ranked differently than ${pair##*|}"
done

"$CLI" importance train.csv --label label --set bogus=1 > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "unknown --set option should exit 2"
grep -q "no option 'bogus'" err.txt \
    || fail "unknown --set option error should name the option"
"$CLI" importance train.csv --label label --set num_permutations=never \
    > /dev/null 2>&1
[ $? -eq 2 ] || fail "badly typed --set value should exit 2"
"$CLI" screen train.csv --label label --set k=3 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--set on a non-importance command should exit 2"

# The subset cache, float32 and the benchmark-only kernel switches are gone:
# their registry options are unknown, and their flags are unknown flags.
"$CLI" importance train.csv --label label --set float32=true \
    > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "--set float32=true should exit 2"
grep -q "no option 'float32'" err.txt \
    || fail "retired --set option error should name the option"
# So is the switch that skipped TMC's prefix scan: every game estimator now
# scores from the scorer context, and the cold reference it selected lives
# in the determinism suite.
"$CLI" importance train.csv --label label --set use_prefix_scan=false \
    > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "--set use_prefix_scan=false should exit 2"
grep -q "algorithm 'tmc_shapley' has no option 'use_prefix_scan'" err.txt \
    || fail "retired --set use_prefix_scan error should name the option"
# Each algorithm lists only the options its estimator reads: the closed-form
# KNN-Shapley draws no randomness, so it has no seed to set.
"$CLI" importance train.csv --label label --method knn_shapley --set seed=3 \
    > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "--set seed=3 on knn_shapley should exit 2"
grep -q "algorithm 'knn_shapley' has no option 'seed'" err.txt \
    || fail "unread --set option error should name the option"
for flag in --utility-cache --float32; do
  "$CLI" importance train.csv --label label "$flag" > /dev/null 2> err.txt
  [ $? -eq 2 ] || fail "retired flag $flag should exit 2"
  grep -q -- "$flag" err.txt || fail "retired flag error does not name $flag"
done
# The retry policy is gone too: its flags are unknown flags and its registry
# option an unknown option.
for flag in "--retries 1" "--retry-backoff-ms 0"; do
  name="${flag%% *}"
  "$CLI" importance train.csv --label label $flag > /dev/null 2> err.txt
  [ $? -eq 2 ] || fail "retired flag $name should exit 2"
  grep -q -- "unknown flag '$name'" err.txt \
      || fail "retired flag error does not name $name"
done
"$CLI" importance train.csv --label label --set max_retries=1 \
    > /dev/null 2> err.txt
[ $? -eq 2 ] || fail "--set max_retries=1 should exit 2"
grep -q "algorithm 'tmc_shapley' has no option 'max_retries'" err.txt \
    || fail "retired --set max_retries error should name the option"

# --- usage ----------------------------------------------------------------------
"$CLI" > /dev/null 2>&1
[ $? -eq 2 ] || fail "bare invocation should exit 2 with usage"

echo "cli smoke test passed"
