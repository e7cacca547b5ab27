#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload fetch_mr --seed 1 --seconds 20 --trace 0

Run it from the root of the repository.  It builds the program under
test and the load generator with dune, runs the generator (which starts
and stops the program itself), and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 makes an untraced run and then a traced one, each half as long:
the layer counters come from the untraced run, the span metrics from the
traced one, and the traced run's Chrome trace is written to
.bench_out/trace-<workload>-<seed>.json.  The difference between the two
runs' end-to-end metrics (the tracing overhead) is printed above the
result line.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("fetch_mr", "http_small", "http_large")

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "makespan_s": "s",
    "capacity_rps": "1/s",
    "p50_us": "us",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "p99_us": "us",
    "sched.steals_per_op": "count",
    "sched.tasks_per_steal": "count",
    "sched.failed_steal_ratio": "ratio",
    "sched.resumes_per_op": "count",
    "io.syscalls_per_op": "count",
    "rpc.call_p50_us": "us",
    "rpc.call_p99_us": "us",
    "rpc.out_p50_us": "us",
    "rpc.back_p50_us": "us",
    "mr.compute_share": "ratio",
    "mr.leaf_self_p50_us": "us",
    "http.inbound_p50_us": "us",
    "http.inbound_p99_us": "us",
    "http.handler_p50_us": "us",
    "http.outbound_p50_us": "us",
    "http.outbound_p99_us": "us",
    "gc.minor_words_per_op": "count",
    "gc.promoted_words_per_op": "count",
    "gc.major_collections": "count",
    "gen.late_p99_us": "us",
}
# Layer metrics read from the untraced run: counters that tracing's own
# allocations and header stamps would inflate, and the latency tail.
UNTRACED_LAYER = ("p99_us", "sched.", "io.", "gc.")

# A run whose generator fell behind is repeated at most this many times.
ATTEMPTS = 2
# Every generator run of one invocation ends within this many seconds
# of the build.
DEADLINE_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench")
GEN = os.path.join(EXE, "gen", "gen.exe")
SUT = os.path.join(EXE, "sut", "sut.exe")


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet",
           "./perfbench/gen/gen.exe", "./perfbench/sut/sut.exe"]
    # No shared dune cache: the build writes only inside the checkout.
    env = {**os.environ, "DUNE_CACHE": "disabled"}
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("build failed")


def gen(workload, seed, seconds, trace_file, deadline):
    """One generator run; returns its RESULT object."""
    cmd = [GEN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--sut", SUT]
    if trace_file:
        cmd += ["--trace", trace_file]
    # Its own session, so a timeout can stop the generator and every
    # child it started in one signal.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.exit(f"{workload}: the run did not end within {DEADLINE_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if p.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.exit(f"{workload}: the generator failed (exit {p.returncode})")
    return json.loads(lines[-1][len("RESULT "):])


def valid_run(workload, seed, seconds, trace_file, deadline):
    """A run in which the generator kept up; repeats one that did not."""
    for attempt in range(1, ATTEMPTS + 1):
        r = gen(workload, seed, seconds, trace_file, deadline)
        if r["valid"] or r["failed"]:
            return r
        print(f"run void, the generator fell behind (attempt {attempt} of {ATTEMPTS})")
    sys.exit(f"{workload}: the generator fell behind in every attempt")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    os.chdir(ROOT)
    build()
    deadline = time.monotonic() + DEADLINE_S

    # A traced invocation makes two runs of half the length, so it takes
    # about as long as an untraced one.
    seconds = a.seconds / 2 if a.trace else a.seconds
    untraced = valid_run(a.workload, a.seed, seconds, None, deadline)
    runs = [untraced]
    if a.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{a.workload}-{a.seed}.json")
        traced = valid_run(a.workload, a.seed, seconds, trace_file, deadline)
        runs.append(traced)
        print("tracing overhead (traced - untraced):")
        def figure(r, name):
            return {**r["e2e"], **r["layer"]}.get(name, 0.0)

        for name, unit in {**END_TO_END, "p99_us": "us"}.items():
            base = figure(untraced, name)
            d = figure(traced, name) - base
            share = f"{d / base:+.1%}" if base else "n/a"
            print(f"  {name:14s} {d:+12.4f} {unit}  ({share})")
        metrics = {k: {"value": (untraced if k.startswith(UNTRACED_LAYER) else traced)["layer"].get(k, 0.0),
                       "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        # A run that failed part-way has no figure for some metrics; they
        # read 0 and the result is not correct.
        metrics = {k: {"value": untraced["e2e"].get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"error_ratio {failed / max(attempted, 1):.6f} ({failed} of {attempted} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
