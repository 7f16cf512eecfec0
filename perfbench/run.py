#!/usr/bin/env python3
"""T1000 benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep_cold|prep_verify|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the T1000 libraries, the
t1000-serve daemon and the benchmark driver from source (CMake, Release)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the workload, checks its outputs, prints every metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run. The exit code is non-zero when the
build fails or an output check fails. See perfbench/README.md.
"""

import argparse
import http.client
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
EXPECTED = os.path.join(HERE, "expected_stats.json")
WORKLOADS = ("sweep_cold", "prep_verify", "serve_mixed")
BUILD_TYPE = "Release"
NPROC = os.cpu_count() or 1
# Grid workers for the two grid workloads: fixed, never above nproc.
GRID_JOBS = min(4, NPROC)
# Client connections open at once against the daemon.
CLIENT_CONNECTIONS = min(4, NPROC)
SETUP_SAMPLES = 7
JOB_TIMEOUT_S = 60.0


def log(*parts):
    print(*parts, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    beyond = min(10, len(ordered) - 1)
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered)


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


# --- build ---------------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD, "-j", str(NPROC)])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % build_log)
    return os.path.join(BUILD, "t1000-perfbench"), os.path.join(BUILD, "t1000-serve")


def compiler():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    return cxx, version.stdout.splitlines()[0] if version.stdout else "?", \
        cache.get("CMAKE_BUILD_TYPE", "?")


def driver(binary, *args):
    proc = subprocess.run([binary, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench: driver %s failed" % args[0])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(binary):
    """Median set-up of fresh processes: registry, MiniC compile, assembly."""
    return median([driver(binary, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)])


# --- serve_mixed: daemon and open-loop client ----------------------------

class Daemon:
    def __init__(self, binary, workdir, cache_budget):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        port_file = os.path.join(workdir, "port")
        self.stderr = open(os.path.join(workdir, "daemon.log"), "w")
        self.proc = subprocess.Popen(
            [binary, "--host", "127.0.0.1", "--port", "0", "--port-file", port_file,
             "--cache-dir", os.path.join(workdir, "cache"),
             "--cache-budget-bytes", str(cache_budget), "--jobs", "1",
             "--http-threads", "16"],
            stdout=subprocess.DEVNULL, stderr=self.stderr)
        try:
            self.port = self._wait_healthy(port_file)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.stderr.close()
            raise

    def _wait_healthy(self, port_file):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("t1000-serve exited during start-up")
            try:
                with open(port_file) as f:
                    self.port = int(f.read().strip())
                if self.request("GET", "/healthz")[0] == 200:
                    return self.port
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("t1000-serve did not answer /healthz")

    def connection(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)

    def request(self, method, path, body=None):
        conn = self.connection()
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            self.request("POST", "/v1/shutdown")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


def run_job(daemon, request_text, due):
    """Submits one job and waits for its results; returns a record."""
    rec = {"due": due, "send": time.monotonic(), "ok": False, "rejected": False,
           "polls": 0}
    status, body = daemon.request("POST", "/v1/jobs", request_text)
    rec["submit_ms"] = (time.monotonic() - rec["send"]) * 1e3
    if status == 429:
        rec["rejected"] = True
        return rec
    if status != 202:
        return rec
    job = json.loads(body)["job"]
    # Completion from the job's event stream: its "job" span ends when the
    # grid is done. The stream is left as soon as that end event arrives.
    conn = daemon.connection()
    try:
        conn.request("GET", "/v1/jobs/%d/events" % job)
        resp = conn.getresponse()
        while True:
            line = resp.readline()
            if not line:
                break
            event = json.loads(line)
            if event.get("name") == "job.submitted":
                rec["submitted_ts"] = event["ts_ms"]
            elif event.get("name") == "job" and event.get("kind") == "B":
                rec["started_ts"] = event["ts_ms"]
            elif event.get("name") == "job" and event.get("kind") == "E":
                break
    finally:
        conn.close()
    while time.monotonic() - rec["send"] < JOB_TIMEOUT_S:
        rec["polls"] += 1
        start = time.monotonic()
        status, body = daemon.request("GET", "/v1/jobs/%d/results" % job)
        rec["fetch_ms"] = (time.monotonic() - start) * 1e3
        if status == 200:
            rec["done"] = time.monotonic()
            rec["ok"] = True
            rec["body"] = body.decode()
            return rec
        if status != 202:
            return rec
        time.sleep(0.001)
    return rec


def run_segment(daemon, jobs):
    """Open loop: each job is sent at its scheduled time by the next free
    connection; at most CLIENT_CONNECTIONS are open."""
    work = queue.Queue()
    records = []
    lock = threading.Lock()

    def worker():
        while True:
            item = work.get()
            if item is None:
                return
            due, job = item
            try:
                rec = run_job(daemon, json.dumps(job["request"]), due)
            except Exception as e:  # a lost or garbled reply fails the job
                rec = {"due": due, "send": due, "ok": False, "rejected": False,
                       "polls": 0, "error": str(e)}
            rec["job"] = job
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=worker) for _ in range(CLIENT_CONNECTIONS)]
    for t in threads:
        t.start()
    start = time.monotonic()
    for job in jobs:
        due = start + job["at_s"]
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        work.put((due, job))
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join()
    end = max([r.get("done", r["send"]) for r in records] + [start])
    return records, end - start


def warm(daemon, hot_set):
    for job in hot_set:
        rec = run_job(daemon, json.dumps(job["request"]), time.monotonic())
        if not rec["ok"]:
            raise RuntimeError("hot-set warm-up job failed")


def run_serve(binary, serve_binary, seed, seconds, traced):
    plan = driver(binary, "plan", "--seed", str(seed), "--seconds", str(seconds))
    work = os.path.join(BUILD, "serve-work")
    records, walls, cpus, rss, setups = [], [], [], [], []
    for index, segment in enumerate(plan["segments"]):
        start = time.monotonic()
        daemon = Daemon(serve_binary, os.path.join(work, "segment-%d" % index),
                        plan["cache_budget_bytes"])
        try:
            warm(daemon, plan["hot_set"])
            setups.append(time.monotonic() - start)
            cpu0 = daemon.cpu_s()
            recs, wall = run_segment(daemon, segment)
            cpus.append(daemon.cpu_s() - cpu0)
            rss.append(daemon.peak_rss_mb())
        finally:
            daemon.stop()
        walls.append(wall)
        records.extend(recs)

    # Output check: every fetched result against SimService::run_local.
    check_in = os.path.join(work, "fetched.jsonl")
    with open(check_in, "w") as f:
        for r in records:
            if r["ok"]:
                f.write(json.dumps({"request": r["job"]["request"],
                                    "results": r["body"]}) + "\n")
    check = driver(binary, "check-serve", "--in", check_in, "--expected", EXPECTED)

    done = [r for r in records if r["ok"]]
    failed_jobs = len(records) - len(done)
    latencies = [(r["done"] - r["due"]) * 1e3 for r in done]
    lags = [(r["send"] - r["due"]) * 1e3 for r in records]
    run_ms = {id(r): json.loads(r["body"])["engine"]["wall_ms"] for r in done}
    novel = [r for r in done if not r["job"]["hot"]]
    committed = sum(run["outcome"]["stats"]["committed"]
                    for r in novel for run in json.loads(r["body"])["results"])
    novel_s = sum(run_ms[id(r)] for r in novel) / 1e3
    busy_s = sum(run_ms.values()) / 1e3
    tail_ms, tail_pct = tail(latencies)
    wall = sum(walls)

    log("serve_mixed: %d jobs (%d novel) over %d fresh daemons at %.1f jobs/s "
        "open loop, %d client connections" % (len(records), len(novel), len(walls),
                                              plan["rate_per_s"], CLIENT_CONNECTIONS))
    log("  runner busy share %.2f (mean job run %.1f ms -> capacity ~%.1f jobs/s)" % (
        busy_s / wall, 1e3 * busy_s / max(1, len(done)),
        len(done) / busy_s if busy_s else 0.0))
    log("  latency_tail is p%.1f of %d samples; daemon peak RSS per segment %s MB" % (
        tail_pct, len(latencies), ", ".join("%.1f" % r for r in rss)))
    log("  generator_lag_ms p50 %.2f max %.2f (diagnostic, not gated)" % (
        median(lags), max(lags) if lags else 0.0))
    log("  failed_frac %.4f (%d of %d jobs failed, rejected or timed out)" % (
        failed_jobs / max(1, len(records)), failed_jobs, len(records)))
    if not check["correct"]:
        log("  check problems:", check["problems"])

    result = {
        "correct": check["correct"] and failed_jobs == 0,
        "attempted": check["attempted"] + failed_jobs,
        "failed": check["failed"] + failed_jobs,
    }
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "cpu_s": sum(cpus),
        "sim_minst_per_s": committed / novel_s / 1e6 if novel_s else 0.0,
        "jobs_per_s": len(done) / wall,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": median(rss),
    }
    if traced:
        traced_run = driver(binary, "trace", "--workload", "serve_mixed",
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--expected", EXPECTED,
                            "--spans-out", os.path.join(BUILD, "spans-serve_mixed.jsonl"),
                            "--work-dir", os.path.join(work, "traced"))
        metrics = traced_run["metrics"]
        waits = [r["started_ts"] - r["submitted_ts"] for r in done
                 if "started_ts" in r and "submitted_ts" in r]
        metrics.update({
            "serve.submit_ms": median([r["submit_ms"] for r in records if "submit_ms" in r]),
            "serve.queue_wait_ms": median(waits),
            "serve.job_run_ms": median(list(run_ms.values())),
            "serve.fetch_ms": median([r["fetch_ms"] for r in done]),
            "serve.polls_per_job": statistics.mean([r["polls"] for r in done]) if done else 0.0,
            "serve.rejected": float(sum(1 for r in records if r["rejected"])),
        })
        log("  traced replica: untraced %.3f s, traced %.3f s" % (
            traced_run["untraced_wall_s"], traced_run["traced_wall_s"]))
        result["correct"] = result["correct"] and traced_run["correct"]
        result["failed"] += traced_run["failed"]
    shutil.rmtree(work, ignore_errors=True)
    return result, metrics


# --- grid workloads --------------------------------------------------------

def run_grid(binary, workload, seed, seconds, traced):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--jobs", str(GRID_JOBS), "--expected", EXPECTED]
    if traced:
        out = driver(binary, "trace", *common,
                     "--spans-out", os.path.join(BUILD, "spans-%s.jsonl" % workload))
        log("%s traced: %d pass(es), untraced %.3f s, traced %.3f s" % (
            workload, out["passes"], out["untraced_wall_s"], out["traced_wall_s"]))
        metrics = out["metrics"]
        for name in ("serve.submit_ms", "serve.queue_wait_ms", "serve.job_run_ms",
                     "serve.fetch_ms", "serve.polls_per_job", "serve.rejected"):
            metrics[name] = 0.0  # no daemon in a grid workload
    else:
        out = driver(binary, "run", *common)
        metrics = out["metrics"]
        metrics["setup_s"] = setup_seconds(binary)
        log("%s: %d repetition(s) of %d runs on %d grid worker(s); wall per "
            "repetition %s s" % (workload, out["repetitions"], out["runs_per_repetition"],
                                 out["jobs"], ", ".join("%.3f" % w for w in out["wall_s_all"])))
        log("  latency = per-run wall inside the grid; latency_tail is p%.1f of %d "
            "runs per repetition" % (out["latency_tail"]["percentile"],
                                     out["latency_tail"]["samples_per_repetition"]))
        log("  failed_frac %.4f (%d of %d runs)" % (
            out["failed"] / max(1, out["attempted"]), out["failed"], out["attempted"]))
        if "fidelity" in out:
            print_fidelity(out["fidelity"])
    if not out["correct"]:
        log("  check problems:", out["problems"])
    return {k: out[k] for k in ("correct", "attempted", "failed")}, metrics


def print_fidelity(rows):
    log("fidelity: simulated speedup over the baseline at 10-cycle reconfiguration "
        "vs the paper (EXPERIMENTS.md);")
    log("  model unvalidated against hardware; shape only")
    log("  %-10s %8s %8s %8s | %8s %8s %8s | %-6s %-14s %-14s %-12s" % (
        "workload", "greedy2", "greedy4", "greedyU", "select2", "select4", "selectU",
        "paperG_U", "paperG_2", "paperS_2", "paperS_4"))
    for r in rows:
        log("  %-10s %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f | %-8s %-14s %-14s %-12s" % (
            r["workload"], r["greedy_2"], r["greedy_4"], r["greedy_unl"],
            r["selective_2"], r["selective_4"], r["selective_unl"],
            r["paper_greedy_unl"], r["paper_greedy_2"], r["paper_selective_2"],
            r["paper_selective_4"]))


# --- main ----------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary, serve_binary = build()
    cxx, version, build_type = compiler()
    load_before = loadavg()
    log("hygiene: nproc %d, compiler %s (%s), build type %s, loadavg before %s" % (
        NPROC, cxx, version, build_type, load_before))
    if load_before[0] > NPROC:
        log("hygiene: WARNING run started with 1-min load %.2f above nproc %d" % (
            load_before[0], NPROC))
    log("workload %s, seed %d, seconds %g, trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))

    if args.workload == "serve_mixed":
        result, metrics = run_serve(binary, serve_binary, args.seed, args.seconds,
                                    args.trace == 1)
    else:
        result, metrics = run_grid(binary, args.workload, args.seed, args.seconds,
                                   args.trace == 1)
    log("hygiene: loadavg after %s" % (loadavg(),))

    out_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise SystemExit("perfbench: metric %s was not measured" % m["name"])
        value = float(metrics[m["name"]])
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        log("  %-28s %16.6f %s" % (m["name"], value, m["unit"]))
    result["metrics"] = out_metrics
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
