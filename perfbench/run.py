#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt: the repository's src/ libraries plus
perfbench/cpp) into .bench_build/; later runs only rebuild what changed.

--trace 0 times the production entry points and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 runs the same seed twice, untraced and
then traced through the spanned, composed calls for exactly the steps the
untraced run completed, requires the two output digests to match, and
reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is the JSON result.
Each workload runs in its own process, so peak RSS is its own.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DEADLINE_S = 170.0  # a run must end within 180 s of its start
BUILD_TIMEOUT_S = 850.0


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout
    and waits for it. Returns (returncode or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=subprocess.STDOUT if stdout != subprocess.PIPE
                            else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    start = time.monotonic()
    with open(log_path, "a") as log:
        for cmd in steps:
            left = BUILD_TIMEOUT_S - (time.monotonic() - start)
            code, _ = run_group(cmd, left, log)
            if code != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                sys.stderr.write(tail + "\nperfbench: build failed (%s)\n"
                                 % " ".join(cmd))
                sys.exit(2)


def run_binary(args, deadline):
    cmd = [BINARY] + args
    code, out = run_group(cmd, deadline - time.monotonic(), subprocess.PIPE)
    if code is None:
        sys.stderr.write("perfbench: %s timed out\n" % " ".join(args))
        sys.exit(3)
    lines = (out or "").splitlines()
    result = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if code != 0 or result is None:
        sys.stderr.write("perfbench: binary exited %s without a result\n" % code)
        sys.exit(4)
    return result


def print_detail(res):
    attempted = res["attempted"]
    print("  %-36s %.6g  (%d failed of %d attempted)"
          % ("fail_frac", res["failed"] / max(attempted, 1), res["failed"],
             attempted))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %s\n" % a.workload)
        sys.exit(64)

    build()
    # The build may take long on a fresh checkout; the 180 s run limit
    # starts once the binary exists.
    deadline = max(deadline, time.monotonic() + DEADLINE_S - 10.0)

    base = ["--workload=" + a.workload, "--seed=%d" % a.seed,
            "--seconds=%r" % a.seconds]
    if a.trace == 0:
        res = run_binary(base, deadline)
        print_detail(res)
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": res["e2e"][m["name"]],
                                  "unit": m["unit"]}
        correct = res["correct"]
        attempted, failed = res["attempted"], res["failed"]
    else:
        plain = run_binary(base, deadline)
        traced = run_binary(base + ["--trace", "--steps=%d" % plain["steps"]],
                            deadline)
        same = plain["digest"] == traced["digest"]
        print("# digest untraced %s traced %s: %s"
              % (plain["digest"], traced["digest"],
                 "equal" if same else "DIFFERENT"))
        if not same:
            sys.stderr.write("perfbench: traced run did different work\n")
        names = [m["name"] for m in spec["per_layer"]]
        unknown = sorted(set(traced["layers"]) - set(names))
        if unknown:
            sys.stderr.write("perfbench: layer metrics missing from "
                             "BENCHMARK.json: %s\n" % ", ".join(unknown))
            sys.exit(5)
        # A layer the workload never calls reads 0.
        layers = {name: 0.0 for name in names}
        layers.update(traced["layers"])
        layers["trace.overhead_s"] = traced["measured_s"] - plain["measured_s"]
        print("  %-36s %.6g s (traced %.4f s, untraced %.4f s, %d steps)"
              % ("trace.overhead_s", layers["trace.overhead_s"],
                 traced["measured_s"], plain["measured_s"], plain["steps"]))
        print_detail(traced)
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        correct = plain["correct"] and traced["correct"] and same
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]

    for name, m in metrics.items():
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
