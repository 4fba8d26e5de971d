#!/usr/bin/env python3
"""Request-level benchmark for nde: CSV bytes or POST /jobs to ranked rows.

Run one workload (from the root of a checkout):

    python3 e2ebench/run.py --workload tmc-10k --seed 1 --seconds 10 --trace 0

The first run configures and builds the nde libraries, nde_cli and the
benchmark's probe (e2ebench/probe.cc) into .bench_build/ in Release mode.

Workloads (see BENCHMARK.json for why each exists):
  tmc-10k      nde_cli importance, TMC-Shapley, 10,000-row hiring CSV
  ingest-100k  nde_cli importance, influence, 100,000-row hiring CSV
  serve-mixed  nde_cli serve driven over loopback HTTP by 3 closed-loop
               clients, 1,000-row credit CSVs, four algorithms in turn

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the same request through the probe's timed replay of engine.cc's public calls
and through the job API, and reports the per-layer metrics listed in
e2ebench/layers.json. Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a "# stamp" line before it
records the host and build. Every result is also appended to
.bench_results/e2e_results.jsonl.

Other modes:
    python3 e2ebench/run.py --compare BASE.jsonl CAND.jsonl
        Compares medians per workload and metric against BENCHMARK.json's
        bounds; refuses records stamped on a different host class.
    python3 e2ebench/run.py --self-test
        Runs every workload at reduced size in both modes and checks that
        each metric of BENCHMARK.json is printed with its unit and that the
        correctness checks pass.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_FILE = os.path.join(ROOT, ".bench_results", "e2e_results.jsonl")
NDE_CLI = os.path.join(BUILD_DIR, "nde_tools", "nde_cli")
PROBE = os.path.join(BUILD_DIR, "e2e_probe")
NPROC = os.cpu_count() or 1

# How many set-ups one run makes; setup_s is their median.
SETUPS = 3
# serve-mixed reads the server's VmHWM when this many timed jobs are done
# (or at the end of a shorter run), so that memory does not scale with
# throughput.
HWM_JOBS = 500
# Closed-loop poll interval of a job client.
POLL_S = 0.002
# Probe processes that generate or check CLI inputs at once; a 100k-row
# reference run peaks at about 450 MB.
CLI_PROCESSES = 3

SERVE_ALGORITHMS = [
    ("tmc_shapley", {"num_permutations": "64"}),
    ("knn_shapley", {}),
    ("datascope", {}),
    ("banzhaf", {"num_samples": "64"}),
]

# Full-size workloads, and the reduced sizes the self-test runs. A CLI
# workload's "options" are the registry options its nde_cli flags amount to;
# the in-process reference and the job-API probe run with exactly these. It
# cycles through "inputs" distinct seeded CSVs, so that one run's figures
# average over inputs instead of riding on one draw (influence's
# precision_at_k ranges 0.20-0.48 between 100k-row inputs).
WORKLOADS = {
    "tmc-10k": {"kind": "cli", "rows": 10000, "small_rows": 1500,
                "algorithm": "tmc_shapley",
                "options": {"num_permutations": "64", "seed": "42",
                            "num_threads": str(NPROC)},
                "cli_flags": ["--permutations", "64"], "inputs": 4},
    "ingest-100k": {"kind": "cli", "rows": 100000, "small_rows": 5000,
                    "algorithm": "influence", "options": {},
                    "cli_flags": [], "inputs": 8},
    "serve-mixed": {"kind": "serve", "rows": 1000, "clients": 3,
                    "job_workers": 2, "max_queue": 8},
}


class BenchError(Exception):
    """A failure that must end the run without a result."""


def log(message):
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# Build and stamp


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/nde_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"nde sources missing: {needed} not found under "
                             f"{ROOT}")
    if cached_setting("CMAKE_HOME_DIRECTORY") != BENCH_DIR:
        # No build yet, or one configured for another copy of the sources.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_checked(configure)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "nde_cli",
                 "e2e_probe", "-j", str(NPROC)])


def cached_setting(name):
    """A value from the build's CMakeCache.txt, or None."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_parallel(commands, processes):
    """Runs each argv, at most `processes` at a time; returns their stdouts
    once all have ended."""
    outputs = []
    for start in range(0, len(commands), processes):
        batch = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
                 for argv in commands[start:start + processes]]
        outputs += [proc.communicate()[0] for proc in batch]
        if any(proc.returncode != 0 for proc in batch):
            raise BenchError(f"{os.path.basename(batch[0].args[0])} "
                             f"{batch[0].args[1]} failed")
    return outputs


def run_checked(argv):
    done = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        raise BenchError(f"command failed ({done.returncode}): "
                         f"{' '.join(argv[:4])} ...")
    return done.stdout


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "tools", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def stamp():
    probe = json.loads(run_checked([PROBE, "stamp"]))
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            git_rev = done.stdout.strip()
    return {"nproc": NPROC, "cpu_model": cpu_model,
            "arch": platform.machine(),
            "build_type": cached_setting("CMAKE_BUILD_TYPE"),
            "compiler": probe["compiler"], "git_rev": git_rev,
            "source_sha256": source_digest()}


HOST_CLASS_KEYS = ("nproc", "cpu_model", "arch", "build_type", "compiler")


# --------------------------------------------------------------------------
# Inputs and the in-process reference


def read_rows(text):
    return [int(v) for v in text.strip().split(",")] if text.strip() else []


def gen_credit(count, rows, seed):
    out_dir = os.path.join(WORK_DIR, "credit")
    os.makedirs(out_dir)
    run_checked([PROBE, "gen-credit", str(count), str(rows), str(seed),
                 out_dir])
    with open(os.path.join(out_dir, "truth.txt")) as f:
        truths = [set(read_rows(line)) for line in f]
    paths = [os.path.join(out_dir, f"credit-{i}.csv") for i in range(count)]
    os.sync()  # write the inputs back now, not during the timed window
    return paths, truths


def write_spec(requests, name):
    """requests: (csv_path, label, algorithm, options) tuples."""
    path = os.path.join(WORK_DIR, name)
    with open(path, "w") as f:
        for csv_path, label, algorithm, options in requests:
            opts = ",".join(f"{k}={v}" for k, v in sorted(options.items()))
            f.write(f"{csv_path}\t{label}\t{algorithm}\t{opts or '-'}\n")
    return path


def reference_rows(requests, processes=NPROC):
    """The engine's ranked rows for each request, from up to `processes`
    probe processes working on interleaved slices of the list."""
    processes = min(processes, len(requests))
    commands = [[PROBE, "reference",
                 write_spec(requests[i::processes], f"ref{i}.tsv")]
                for i in range(processes)]
    rows = [None] * len(requests)
    for i, out in enumerate(run_parallel(commands, processes)):
        rows[i::processes] = [read_rows(line) for line in out.splitlines()]
    return rows


def precision_at_k(ranked, truth):
    """Share of injected errors in the top k, k = injected errors ranked."""
    k = len(truth.intersection(ranked))
    if k == 0:
        return 0.0
    return len(truth.intersection(ranked[:k])) / k


# --------------------------------------------------------------------------
# CLI workloads


def run_cli_request(argv):
    """Runs one nde_cli request; returns wall, rusage and the ranked rows.

    Output comes back over a pipe: writing it to a file would leave dirty
    pages whose writeback lands in later requests' time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    rows = []
    listing = False
    for line in out.splitlines():
        if line.startswith("top "):
            listing = True
        elif listing and line.strip():
            rows.append(int(line))
    if proc.returncode != 0:
        log(f"nde_cli exited {proc.returncode}: {err[-500:]}")
    return {"ok": proc.returncode == 0, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rows": rows}


def cli_argv(spec, csv_path, rows):
    return [NDE_CLI, "importance", csv_path, "--label", "sentiment",
            "--method", spec["algorithm"], *spec["cli_flags"],
            "--threads", str(NPROC), "--top", str(rows)]


def cli_inputs(spec, seed, small, count):
    """`count` distinct hiring CSVs from the seed, with their requests."""
    rows = spec["small_rows"] if small else spec["rows"]
    paths = [os.path.join(WORK_DIR, f"input{i}") for i in range(count)]
    run_parallel([[PROBE, "gen-hiring", str(rows), str(seed * 16 + i),
                   path + ".csv", path + ".truth"]
                  for i, path in enumerate(paths)], CLI_PROCESSES)
    os.sync()  # write the inputs back now, not during the timed window
    inputs = []
    for path in paths:
        with open(path + ".truth") as f:
            truth = set(read_rows(f.read()))
        inputs.append({"argv": cli_argv(spec, path + ".csv", rows),
                       "truth": truth,
                       "request": (path + ".csv", "sentiment",
                                   spec["algorithm"], spec["options"])})
    return inputs


def cli_workload(spec, seed, seconds, small):
    count = spec["inputs"]
    inputs = cli_inputs(spec, seed, small, count)
    # Set-up j and timed request n run input j (n) mod count.
    setups = [dict(run_cli_request(inputs[j % count]["argv"]),
                   input=j % count) for j in range(SETUPS)]
    measured = []
    deadline = time.perf_counter() + seconds
    while not measured or time.perf_counter() < deadline:
        n = len(measured) % count
        measured.append(dict(run_cli_request(inputs[n]["argv"]),
                             input=n))
    window = sum(r["wall_s"] for r in measured)
    everything = setups + measured
    # Every input, also those the window did not reach, so precision_at_k
    # does not depend on speed.
    expected = reference_rows([i["request"] for i in inputs],
                              processes=CLI_PROCESSES)
    # A request fails on a non-zero exit, or on ranked rows that differ from
    # the in-process engine's (and so from every other repeat).
    failed = sum(1 for r in everything
                 if not r["ok"] or r["rows"] != expected[r["input"]])
    good = [r for r in measured if r["ok"]] or measured
    latencies = [r["wall_s"] for r in good]
    metrics = {
        "setup_s": metric(median([r["wall_s"] for r in setups]), "s"),
        "latency_s_p50": metric(median(latencies), "s"),
        "latency_s_p90": metric(percentile(latencies, 90), "s"),
        "jobs_per_s": metric(len(measured) / window, "1/s"),
        "cpu_s_per_request": metric(
            statistics.fmean([r["cpu_s"] for r in good]), "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in good), "MB"),
        "precision_at_k": metric(statistics.fmean(
            [precision_at_k(rows, i["truth"])
             for rows, i in zip(expected, inputs)]), "ratio"),
    }
    log(f"{len(measured)} timed requests over {window:.2f} s "
        f"({len(latencies)} latency samples, {len(inputs)} inputs); "
        f"{len(setups)} set-ups")
    return len(everything), failed, metrics


# --------------------------------------------------------------------------
# The job service, strictly from outside: HTTP and /proc only


def http_call(port, method, target, body=None):
    """One request; returns (status, body bytes, seconds)."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, target, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start
    finally:
        conn.close()


def proc_status_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError(f"{field} missing from /proc/{pid}/status")


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """A live `nde_cli serve` on an ephemeral loopback port."""

    def __init__(self, job_workers, max_queue):
        self.err_path = os.path.join(WORK_DIR, "serve.err")
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [NDE_CLI, "serve", "--port", "0", "--job-workers",
             str(job_workers), "--max-queue", str(max_queue)],
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("nde_cli serve did not announce its port")
            with open(self.err_path) as f:
                for line in f:
                    if line.startswith("serving on http://127.0.0.1:"):
                        self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        while True:
            try:
                if http_call(self.port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("nde_cli serve never answered /healthz")
            time.sleep(0.002)

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def run_job(port, job, traced):
    """Submits one job, polls it to a terminal state and keeps the result.

    job: dict with algorithm, label, options and csv_path; with `inline`
    the file's bytes go in the body, else the server reads the path. Latency
    runs from the submit until the result is in hand.
    """
    body = {"algorithm": job["algorithm"], "label": job["label"],
            "options": job["options"]}
    if job["inline"]:
        with open(job["csv_path"]) as f:
            body["csv"] = f.read()
    else:
        body["csv_path"] = job["csv_path"]
    payload = json.dumps(body).encode()
    start = time.perf_counter()
    status, data, submit_s = http_call(port, "POST", "/jobs", payload)
    record = {"ok": False, "submit_s": submit_s, "polls": 0}
    if status != 202:
        log(f"submit answered {status}: {data[:200]!r}")
        return record
    job_id = json.loads(data)["id"]
    while True:
        status, data, fetch_s = http_call(port, "GET", f"/jobs/{job_id}")
        record["polls"] += 1
        snapshot = json.loads(data) if status == 200 else {}
        if snapshot.get("state") in ("done", "error", "cancelled"):
            break
        if status != 200:
            log(f"poll answered {status}")
            return record
        time.sleep(POLL_S)
    record["latency_s"] = time.perf_counter() - start
    record["result_s"] = fetch_s
    record["result_bytes"] = len(data)
    record["id"] = job_id
    if snapshot["state"] != "done":
        log(f"job {job_id} ended {snapshot['state']}: "
            f"{snapshot.get('error')}")
        return record
    record["ok"] = True
    record["rows"] = snapshot["result"]["ranked_rows"]
    if traced:
        events = json.loads(
            http_call(port, "GET", f"/jobs/{job_id}/eventz")[1])
        exec_us = sum(w["dur_us"] for w in events["waves"])
        if exec_us == 0:
            # No progress reports (influence): take the extent of the job's
            # spans instead.
            spans = json.loads(
                http_call(port, "GET", f"/jobs/{job_id}/tracez")[1])["spans"]
            if spans:
                exec_us = (max(s["ts_us"] + s["dur_us"] for s in spans) -
                           min(s["ts_us"] for s in spans))
        record["exec_s"] = exec_us / 1e6
    return record


def drive_jobs(server, jobs, clients, seconds, traced, rss_every):
    """Closed loop: `clients` threads each submit, poll and fetch one job at
    a time until `seconds` pass or `jobs` run out. Returns the records in
    job order, the RSS samples (jobs completed, VmRSS kB) taken every
    `rss_every` jobs, and VmHWM kB once HWM_JOBS jobs are done (else None).
    """
    lock = threading.Lock()
    records = [None] * len(jobs)
    cursor = [0]
    done = [0]
    hwm_kb = [None]
    rss = [(0, proc_status_kb(server.pid, "VmRSS"))]
    deadline = time.perf_counter() + seconds
    errors = []

    def client():
        try:
            while time.perf_counter() < deadline:
                with lock:
                    if cursor[0] >= len(jobs):
                        return
                    index = cursor[0]
                    cursor[0] += 1
                records[index] = run_job(server.port, jobs[index], traced)
                with lock:
                    done[0] += 1
                    if rss_every and done[0] % rss_every == 0:
                        rss.append((done[0],
                                    proc_status_kb(server.pid, "VmRSS")))
                    if done[0] == HWM_JOBS:
                        hwm_kb[0] = proc_status_kb(server.pid, "VmHWM")
        except Exception as e:  # surfaced on the main thread
            errors.append(e)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    if cursor[0] >= len(jobs):
        log(f"all {len(jobs)} prepared jobs ran before the deadline")
    return [r for r in records if r is not None], rss, hwm_kb[0]


def serve_jobs(paths, start, count):
    jobs = []
    for i in range(start, start + count):
        algorithm, options = SERVE_ALGORITHMS[i % len(SERVE_ALGORITHMS)]
        jobs.append({"algorithm": algorithm, "label": "defaulted",
                     "options": options, "csv_path": paths[i],
                     "inline": True})
    return jobs


def check_jobs(jobs, records):
    """Each done job's ranked rows must equal the engine's for its CSV."""
    requests = [(job["csv_path"], job["label"], job["algorithm"],
                 job["options"])
                for job, record in zip(jobs, records) if record["ok"]]
    expected = reference_rows(requests) if requests else []
    mismatches = 0
    ok_records = [r for r in records if r["ok"]]
    for record, rows in zip(ok_records, expected):
        if record["rows"] != rows:
            record["ok"] = False
            mismatches += 1
    if mismatches:
        log(f"{mismatches} jobs ranked rows unlike the engine")
    return mismatches


def setup_server(spec, warmups):
    """Launch until /healthz answers, then one warm-up job per algorithm."""
    start = time.perf_counter()
    server = Server(spec["job_workers"], spec["max_queue"])
    try:
        records = [run_job(server.port, job, False) for job in warmups]
    except Exception:
        server.stop()
        raise
    return server, time.perf_counter() - start, records


def serve_workload(spec, seed, seconds, small, traced):
    per_setup = len(SERVE_ALGORITHMS)
    warm_count = SETUPS * per_setup
    cap = 24 if small else int(seconds * 100)
    paths, truths = gen_credit(warm_count + cap, spec["rows"], seed)
    setup_times = []
    warm_jobs, warm_records = [], []
    server = None
    for i in range(SETUPS):
        if server is not None:
            server.stop()
        batch = serve_jobs(paths, i * per_setup, per_setup)
        server, setup_s, batch_records = setup_server(spec, batch)
        setup_times.append(setup_s)
        warm_jobs += batch
        warm_records += batch_records
    try:
        jobs = serve_jobs(paths, warm_count, cap)
        cpu_before = proc_cpu_s(server.pid)
        start = time.perf_counter()
        records, rss, hwm_kb = drive_jobs(server, jobs, spec["clients"],
                                          seconds, traced,
                                          50 if traced else 0)
        window = time.perf_counter() - start
        cpu_s = proc_cpu_s(server.pid) - cpu_before
        hwm_mb = (hwm_kb or proc_status_kb(server.pid, "VmHWM")) / 1024.0
        probes = service_probes(server, records, rss) if traced else {}
    finally:
        server.stop()
    # check_jobs pairs jobs with records in order; the timed jobs that ran
    # are a prefix of `jobs`.
    everything = warm_records + records
    failed = sum(1 for r in everything if not r["ok"])
    failed += check_jobs(warm_jobs + jobs, everything)
    good = [r for r in records if r["ok"]] or records
    latencies = [r["latency_s"] for r in good if "latency_s" in r]
    precisions = [precision_at_k(r["rows"], truths[warm_count + i])
                  for i, r in enumerate(records) if r["ok"]]
    log(f"{len(records)} timed jobs over {window:.2f} s "
        f"({len(latencies)} latency samples); {SETUPS} set-ups")
    metrics = {
        "setup_s": metric(median(setup_times), "s"),
        "latency_s_p50": metric(median(latencies), "s"),
        "latency_s_p90": metric(percentile(latencies, 90), "s"),
        "jobs_per_s": metric(len(good) / window, "1/s"),
        "cpu_s_per_request": metric(cpu_s / max(1, len(good)), "s"),
        "peak_rss_mb": metric(hwm_mb, "MB"),
        "precision_at_k": metric(statistics.fmean(precisions)
                                 if precisions else 0.0, "ratio"),
    }
    return len(everything), failed, metrics, records, probes


def service_probes(server, records, rss):
    """Job-service layer metrics from HTTP and /proc only."""
    good = [r for r in records if r["ok"]]
    healthz = [http_call(server.port, "GET", "/healthz")[2]
               for _ in range(20)]
    newest = max((r for r in records if "id" in r),
                 key=lambda r: int(r["id"].split("-")[1]))
    spans = json.loads(http_call(server.port, "GET",
                                 f"/jobs/{newest['id']}/tracez")[1])["spans"]
    dropped = 0
    metrics_text = http_call(server.port, "GET", "/metrics")[1].decode()
    for line in metrics_text.splitlines():
        if line.startswith("telemetry_labels_dropped"):
            dropped = float(line.split()[-1])
    rss.append((len(records), proc_status_kb(server.pid, "VmRSS")))
    (jobs0, kb0), (jobs1, kb1) = rss[0], rss[-1]
    waits = [r["latency_s"] - r["submit_s"] - r["exec_s"] - r["result_s"]
             for r in good]
    return {
        "jobs.submit_ms_p50": metric(median([r["submit_s"] for r in good])
                                     * 1e3, "ms"),
        "jobs.exec_ms_p50": metric(median([r["exec_s"] for r in good]) * 1e3,
                                   "ms"),
        "jobs.wait_ms_p50": metric(median(waits) * 1e3, "ms"),
        "jobs.result_ms_p50": metric(median([r["result_s"] for r in good])
                                     * 1e3, "ms"),
        "jobs.result_bytes": metric(median([r["result_bytes"] for r in good]),
                                    "bytes"),
        "jobs.polls_per_job": metric(statistics.fmean(
            [r["polls"] for r in good]), "count"),
        "http.healthz_ms_p50": metric(median(healthz) * 1e3, "ms"),
        "jobs.rss_kb_per_job": metric((kb1 - kb0) / max(1, jobs1 - jobs0),
                                      "kB"),
        "trace.newest_job_spans": metric(len(spans), "count"),
        "telemetry.labels_dropped": metric(dropped, "count"),
    }


# --------------------------------------------------------------------------
# Traced runs: per-layer metrics


def layer_metrics(requests, e2e_latency_s):
    """Runs the probe's timed replay over `requests` and folds its
    measurements into the per-layer metrics (times are per request)."""
    out = run_checked([PROBE, "trace", write_spec(requests, "trace.tsv"),
                       "2"])
    lines = [json.loads(line) for line in out.splitlines()]
    parallel_for_us = lines.pop()["parallel_for_us"]
    per_request = []
    for index, (_, _, algorithm, options) in enumerate(requests):
        reps = [m for m in lines if m["request"] == index]
        row = {key: median([m[key] for m in reps])
               for key in reps[0] if key not in ("wave_ms", "request", "rep")}
        row["wave_ms"] = [w for m in reps for w in m["wave_ms"]]
        row["first_wave_ms"] = [m["first_wave_s"] * 1e3 for m in reps]
        row["plain_total"] = sum(m["plain_s"] for m in reps)
        row["traced_total"] = sum(m["traced_s"] for m in reps)
        if algorithm == "tmc_shapley":
            row["budget"] = (row["train_rows"] *
                             int(options["num_permutations"]))
        elif algorithm == "banzhaf":
            row["budget"] = int(options["num_samples"])
        else:
            row["budget"] = 0
        per_request.append(row)

    def mean(key, rows=per_request):
        return statistics.fmean([r[key] for r in rows]) if rows else 0.0

    games = [r for r in per_request if r["full_utility_s"] > 0]
    with_evals = [r for r in per_request if r["evals"] > 0]
    budgeted = [r for r in per_request if r["budget"] > 0]
    # Estimators without progress reports run as one wave.
    waves_ms = ([w for r in per_request for w in r["wave_ms"]] or
                [w for r in per_request for w in r["first_wave_ms"]])
    layers = ("parse_s", "encoder_fit_s", "execute_s", "to_dataset_s",
              "run_s", "rank_s")
    layer_sum = sum(mean(key) for key in layers)
    csv_bytes = sum(r["csv_bytes"] for r in per_request)
    parse_s = sum(r["parse_s"] for r in per_request)
    run_s_evals = sum(r["run_s"] for r in with_evals)
    return {
        "data.csv_parse_s": metric(mean("parse_s"), "s"),
        "data.csv_mb_per_s": metric(csv_bytes / 1e6 / parse_s, "MB/s"),
        "pipeline.encoder_fit_s": metric(mean("encoder_fit_s"), "s"),
        "pipeline.execute_s": metric(mean("execute_s"), "s"),
        "pipeline.to_dataset_s": metric(mean("to_dataset_s"), "s"),
        "importance.run_s": metric(mean("run_s"), "s"),
        "importance.full_utility_s": metric(mean("full_utility_s", games),
                                            "s"),
        "importance.scorer_context_s": metric(
            mean("scorer_context_s", games), "s"),
        "importance.first_wave_s": metric(mean("first_wave_s"), "s"),
        "importance.wave_ms_p50": metric(median(waves_ms), "ms"),
        "importance.wave_ms_max": metric(max(waves_ms), "ms"),
        "importance.waves": metric(mean("waves"), "count"),
        "importance.utility_evals": metric(mean("evals"), "count"),
        "importance.evals_per_budget": metric(
            sum(r["evals"] for r in budgeted) /
            sum(r["budget"] for r in budgeted) if budgeted else 0.0, "ratio"),
        "importance.evals_per_s": metric(
            sum(r["evals"] for r in with_evals) / run_s_evals
            if with_evals else 0.0, "1/s"),
        "importance.cpu_util": metric(
            sum(r["run_cpu_s"] for r in per_request) /
            sum(r["run_s"] * r["threads"] for r in per_request), "ratio"),
        "parallel.parallel_for_us": metric(parallel_for_us, "us"),
        "engine.rank_s": metric(mean("rank_s"), "s"),
        "engine.unattributed_s": metric(e2e_latency_s - layer_sum, "s"),
        "trace.overhead_frac": metric(
            sum(r["traced_total"] for r in per_request) /
            sum(r["plain_total"] for r in per_request) - 1.0, "ratio"),
    }


def traced_cli_workload(spec, seed, small):
    first = cli_inputs(spec, seed, small, 1)[0]
    request = first["request"]
    csv_path = request[0]
    runs = [run_cli_request(first["argv"]) for _ in range(5)]
    expected = reference_rows([request])[0]
    failed = sum(1 for r in runs if not r["ok"] or r["rows"] != expected)
    metrics = layer_metrics([request],
                            median([r["wall_s"] for r in runs[1:]]))
    # The same request through the job API, by server-side path (the CSV is
    # past the request-body cap), one client: a warm-up job, then three.
    server = Server(1, 8)
    try:
        job = {"algorithm": spec["algorithm"], "label": "sentiment",
               "options": spec["options"], "csv_path": csv_path,
               "inline": False}
        failed += not run_job(server.port, job, False)["ok"]
        jobs = [job] * 3
        records, rss, _ = drive_jobs(server, jobs, 1, 3600, True, 1)
        metrics.update(service_probes(server, records, rss))
    finally:
        server.stop()
    failed += sum(1 for r in records if not r["ok"])
    failed += check_jobs(jobs, records)
    return len(runs) + 1 + len(records), failed, metrics


def traced_serve_workload(spec, seed, seconds, small):
    attempted, failed, e2e, records, probes = serve_workload(
        spec, seed, seconds, small, traced=True)
    warm = SETUPS * len(SERVE_ALGORITHMS)
    paths = [os.path.join(WORK_DIR, "credit", f"credit-{warm + i}.csv")
             for i in range(len(SERVE_ALGORITHMS))]
    requests = [(path, "defaulted", algorithm, options)
                for path, (algorithm, options) in zip(paths,
                                                      SERVE_ALGORITHMS)]
    metrics = layer_metrics(requests, e2e["latency_s_p50"]["value"])
    metrics.update(probes)
    return attempted, failed, metrics


# --------------------------------------------------------------------------
# Driver modes


def run_workload(name, seed, seconds, trace, small=False):
    spec = WORKLOADS[name]
    build()
    record_stamp = stamp()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        if spec["kind"] == "cli" and not trace:
            attempted, failed, metrics = cli_workload(spec, seed, seconds,
                                                      small)
        elif spec["kind"] == "cli":
            attempted, failed, metrics = traced_cli_workload(spec, seed,
                                                             small)
        elif not trace:
            attempted, failed, metrics, _, _ = serve_workload(
                spec, seed, seconds, small, traced=False)
        else:
            attempted, failed, metrics = traced_serve_workload(
                spec, seed, seconds, small)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.dirname(RESULTS_FILE), exist_ok=True)
    with open(RESULTS_FILE, "a") as f:
        f.write(json.dumps({"stamp": record_stamp, "workload": name,
                            "seed": seed, "seconds": seconds,
                            "trace": trace, "small": small,
                            "result": result}) + "\n")
    print("# stamp " + json.dumps(record_stamp))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def load_bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(base_path, cand_path):
    """Median per (workload, metric) of each file; flags a candidate median
    worse than the baseline's by more than the metric's bound."""
    bench = load_bench_json()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sides = []
    for path in (base_path, cand_path):
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
        records = [r for r in records if not r["trace"] and not r["small"]]
        if not records:
            raise BenchError(f"{path}: no full-size untraced records")
        classes = {tuple(r["stamp"][k] for k in HOST_CLASS_KEYS)
                   for r in records}
        if len(classes) != 1:
            raise BenchError(f"{path}: records from {len(classes)} host "
                             "classes")
        sides.append((classes.pop(), records))
    (base_class, base), (cand_class, cand) = sides
    if base_class != cand_class:
        raise BenchError(
            "refusing to compare records from different host classes:\n"
            f"  baseline  {dict(zip(HOST_CLASS_KEYS, base_class))}\n"
            f"  candidate {dict(zip(HOST_CLASS_KEYS, cand_class))}")
    regressed = 0
    for workload in sorted({r["workload"] for r in base}):
        for name, spec in bounds.items():
            values = [[r["result"]["metrics"][name]["value"] for r in side
                       if r["workload"] == workload] for side in (base, cand)]
            if not values[0] or not values[1]:
                continue
            b, c = median(values[0]), median(values[1])
            change = (c - b) / b if b else 0.0
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            regressed += verdict != "ok"
            print(f"{workload:12s} {name:18s} {b:12.6g} -> {c:12.6g} "
                  f"{change:+7.1%} (n={len(values[0])}/{len(values[1])}) "
                  f"{verdict}")
    return 1 if regressed else 0


def self_test():
    bench = load_bench_json()
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    problems = []
    declared = {m["name"] for m in bench["per_layer"]}
    mapped = {m for entries in layers["layers"].values() for m in entries}
    if declared != mapped:
        problems.append(f"layers.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(declared ^ mapped)}")
    for workload in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload["name"], "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--small"],
                stdout=subprocess.PIPE, text=True, timeout=600)
            tag = f"{workload['name']} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: correctness checks failed")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} missing or not in "
                                    f"{m['unit']}: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            log(f"self-test {tag}: {len(result['metrics'])} metrics, "
                f"correct={result['correct']}")
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes (used by --self-test)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return run_workload(args.workload, args.seed, args.seconds,
                            args.trace, args.small)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
