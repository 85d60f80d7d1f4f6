#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark.

Injects a delay in the benchmark loop before every collect.update call,
sized so the mean collect-churn operation takes about 10% longer, and
checks that

  * collect-churn ops_per_us shows the change: the delayed side loses at
    least 9 of 10 alternating pairs and the medians differ by more than the
    undelayed runs' own quartile spread (the rule a later change must meet
    to claim a gain of this size);
  * no queue workload moves: the queue workloads never call collect.update,
    so each of their end-to-end metrics must stay within its bound.

It also reports whether the collect-churn drop exceeds the ops_per_us
bound. Run from the repository root:

    python3 perfbench/test_sensitivity.py [--pairs 10] [--seconds 6]

Exit status 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKERS = 3            # perfbench kWorkers
UPDATE_SHARE = 0.20    # collect-churn: 40% Collect / 20% Update / 40% churn
QUEUES = ("queue-htm", "queue-ms", "queue-rop", "queue-hp")


def run(workload, seed, seconds, delay_ns=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if delay_ns:
        cmd += ["--update-delay-ns", str(delay_ns)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"incorrect result: {' '.join(cmd)}")
    return {k: m["value"] for k, m in res["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` for this metric."""
    if BOUNDS[metric]["better"] == "higher":
        return (base - new) / base
    return (new - base) / base


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--queue-runs", type=int, default=3)
    a = ap.parse_args()
    ok = True

    # Size the delay from the measured per-op time of one worker thread.
    probe = [run("collect-churn", 900 + i, a.seconds)["ops_per_us"]
             for i in range(3)]
    t_op_ns = WORKERS / statistics.median(probe) * 1000.0
    delay_ns = int(round(0.10 * t_op_ns / UPDATE_SHARE))
    print(f"collect-churn per-op time {t_op_ns:.0f} ns per thread; "
          f"delay {delay_ns} ns per update (+10% per op)")

    base, slow, wins = [], [], 0
    for i in range(a.pairs):
        order = (0, delay_ns) if i % 2 == 0 else (delay_ns, 0)
        got = {d: run("collect-churn", 1000 + i, a.seconds, d)["ops_per_us"]
               for d in order}
        base.append(got[0])
        slow.append(got[delay_ns])
        wins += got[delay_ns] < got[0]
        print(f"pair {i}: base {got[0]:.4f}  delayed {got[delay_ns]:.4f}")
    mb, ms = statistics.median(base), statistics.median(slow)
    drop = (mb - ms) / mb
    detected = wins >= 0.9 * a.pairs and drop > spread(base)
    bound = BOUNDS["ops_per_us"]["bound"]
    print(f"collect-churn ops_per_us median {mb:.4f} -> {ms:.4f} "
          f"(drop {drop:.1%}, base spread {spread(base):.1%}, "
          f"delayed slower in {wins}/{a.pairs} pairs): "
          f"{'detected' if detected else 'NOT detected'}; "
          f"beyond the {bound:.0%} bound: {'yes' if drop > bound else 'no'}")
    ok &= detected

    for w in QUEUES:
        plain, delayed = [], []
        for i in range(a.queue_runs):
            plain.append(run(w, 2000 + i, a.seconds))
            delayed.append(run(w, 2000 + i, a.seconds, delay_ns))
        for metric in BOUNDS:
            mb = statistics.median(r[metric] for r in plain)
            md = statistics.median(r[metric] for r in delayed)
            worse = worse_by(metric, mb, md)
            within = worse <= BOUNDS[metric]["bound"]
            ok &= within
            print(f"{w} {metric}: {mb:.6g} -> {md:.6g} "
                  f"(worse by {worse:+.1%}): "
                  f"{'within' if within else 'BEYOND'} bound")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
