#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics, untraced. --trace 1 is the
separate traced run that reports the per-layer metrics. Either way the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. README.md in this directory describes the
workloads, the metrics and what each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("collect-read", "collect-churn", "queue-htm", "queue-ms",
             "queue-rop", "queue-hp")

# Environment switches that replace a default policy of the program. A
# number measured with any of them set would not measure the default
# program, so the benchmark refuses to run.
POLICY_ENV = ("DC_CLOCK", "DC_RETRY", "DC_VALIDATE", "DC_FAULT", "DC_CRASH",
              "DC_MEM", "DC_ALLOC_FAULT")

# Set-up CPU time is sampled in this many separate processes (most of it is
# exec and first-touch work done once per process), half before and half
# after the measured run, plus the measured run itself; the median is
# reported.
SETUP_SAMPLES = 15

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the program; build chatter to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def run_program(exe, args, timeout):
    """Runs perfbench once and returns its JSON result."""
    try:
        p = subprocess.run([str(exe)] + args, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out: " + " ".join(args))
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail(f"perfbench exited {p.returncode}: " + " ".join(args))
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    return json.loads(lines[-1])


def source_digest():
    """Digest of the sources the program is built from (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for f in sorted(top.rglob("*")):
            if f.is_file() and f.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def metadata(out, seed, policies):
    sha = "unknown"
    try:
        g = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if g.returncode == 0:
            sha = g.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    compiler = "unknown"
    cache = out / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                v = subprocess.run([cxx, "--version"], capture_output=True,
                                   text=True)
                compiler = v.stdout.splitlines()[0] if v.stdout else cxx
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": "RelWithDebInfo", "git_sha": sha,
            "source_sha256": source_digest(), "seed": seed,
            "policies": policies}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sensitivity self-test only: a delay in the benchmark loop before each
    # collect.update call (see test_sensitivity.py).
    ap.add_argument("--update-delay-ns", type=int, default=0,
                    help=argparse.SUPPRESS)
    a = ap.parse_args()

    overridden = [v for v in POLICY_ENV if v in os.environ]
    if overridden:
        fail("refusing to measure a non-default program: "
             + ", ".join(overridden) + " set")
    if a.seconds <= 0:
        fail("--seconds must be positive")

    out = build_dir()
    exe = build(out)
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.update_delay_ns:
        base += ["--update-delay-ns", str(a.update_delay_ns)]
    timeout = a.seconds + 120
    runs = []

    if a.trace:
        trace_path = out / f"trace-{a.workload}-{a.seed}.json"
        res = run_program(exe, base + ["--seconds", str(a.seconds),
                                       "--trace", str(trace_path)], timeout)
        runs.append(res)
        metrics = res["metrics"]
        print(f"trace: {res['spans']} spans written to {trace_path}, "
              f"{res['spans_dropped']} more calls timed but not kept")
    else:
        def setup_only():
            return run_program(exe, base + ["--seconds", "1", "--setup-only"],
                               60)

        half = (SETUP_SAMPLES - 1) // 2
        runs += [setup_only() for _ in range(half)]
        res = run_program(exe, base + ["--seconds", str(a.seconds)], timeout)
        runs.append(res)
        runs += [setup_only() for _ in range(SETUP_SAMPLES - 1 - half)]
        setup = [r["setup_cpu_ns"] / 1e9 for r in runs]
        metrics = res["metrics"]
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    errors = [e for r in runs for e in r["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}")
    meta = metadata(out, a.seed, runs[-1]["policies"])
    print("meta " + json.dumps(meta, sort_keys=True))
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>16.6g}  {m['unit']}")
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
