#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds the
benchmark binary (perfbench/CMakeLists.txt, which builds the library from
the checkout's sources) into .bench_build/. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. perfbench/README.md explains both.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
REPEAT_DIR = os.path.join(ROOT, ".bench_build", "repeat")
BINARY = os.path.join(BUILD_DIR, "zt_perfbench")

BUILD_TIMEOUT_S = 840
# Every run must end within 180 s; keep a margin for this script.
RUN_TIMEOUT_S = 170

# Per-layer metrics (name prefixes) that a workload does not exercise; a
# traced run reports them as 0. Every other per-layer metric in
# BENCHMARK.json must come from the workload itself.
SERVE_LAYERS = ("loadgen.", "fleet.", "service.", "serve.",
                "model.predict_ms_p50")
TUNE_LAYERS = ("search_space.", "optimizer.", "prescreen.",
               "batch_inference.", "nn.", "tune.",
               "trace.tune_unaccounted_share")
NOT_EXERCISED = {
    "tune_exhaustive": SERVE_LAYERS,
    "tune_prescreen": SERVE_LAYERS,
    "serve_fleet": TUNE_LAYERS,
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a source checkout (CMakeLists.txt and "
             "src/ not found)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "zt_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        code, _ = run_group(cmd, max(1, deadline - time.monotonic()),
                            stdout=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeat(workload, seed, trace, repeat, problems):
    """Figures that must repeat exactly for this seed and this build.

    Records are kept per binary, so runs of different code are never
    compared with each other.
    """
    directory = os.path.join(REPEAT_DIR, binary_digest())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-%d-%d.json" % (workload, seed, trace))
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        for key, value in repeat.items():
            if key in before and before[key] != value:
                problems.append("%s changed between runs of seed %d: %s -> %s"
                                % (key, seed, before[key], value))
    else:
        with open(path, "w") as f:
            json.dump(repeat, f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    code, out = run_group(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", WORK_DIR],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        fail("zt_perfbench exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    problems = list(raw["problems"])
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = raw["metrics"]
    if args.trace:
        for name, unit in want.items():
            if name not in got and name.startswith(
                    NOT_EXERCISED[args.workload]):
                got[name] = {"value": 0.0, "unit": unit}
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(want) - set(got)),
                                      sorted(set(got) - set(want))))
    for name, metric in got.items():
        if name in want and metric["unit"] != want[name]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (name, metric["unit"], want[name]))
        if metric["value"] is None:
            problems.append("%s is not a finite number" % name)
    check_repeat(args.workload, args.seed, args.trace, raw["repeat"],
                 problems)
    for p in problems:
        print("check failed: " + p, file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: got[name] for name in want if name in got},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
