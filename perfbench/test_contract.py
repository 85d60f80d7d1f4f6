#!/usr/bin/env python3
"""Output-format test of the benchmark.

Runs every workload briefly, untraced and traced, and checks the result
line against BENCHMARK.json: exactly the keys correct, attempted, failed
and metrics; every end-to-end metric (untraced) or per-layer metric
(traced) present with the declared unit; end-to-end values nonzero; the
correctness oracles passed. Run from the repository root:

    python3 perfbench/test_contract.py [--seconds 2]
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    a = ap.parse_args()
    failures = []
    for w in BENCHMARK["workloads"]:
        for trace, declared in ((0, BENCHMARK["end_to_end"]),
                                (1, BENCHMARK["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   w["name"], "--seed", "7", "--seconds", str(a.seconds),
                   "--trace", str(trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            where = f"{w['name']} trace={trace}"
            if p.returncode != 0:
                failures.append(f"{where}: exit {p.returncode}")
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append(f"{where}: correct={res['correct']} "
                                f"attempted={res['attempted']} "
                                f"failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(got.items()) ^ set(want.items()))}")
            for k, m in res["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    failures.append(f"{where}: {k} = {v!r}")
                elif trace == 0 and v <= 0:
                    failures.append(f"{where}: {k} = {v} is not positive")
            print(f"{where}: checked {len(res['metrics'])} metrics",
                  flush=True)
    for f in failures:
        print("FAIL " + f)
    print("PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
