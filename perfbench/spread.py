"""Repeat benchmark runs over seeds and report each metric's median, quartiles and spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload ensemble-csv --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed with BENCHMARK.json's
``run_seconds``, one run at a time, and prints per metric the median, the
first and third quartiles (``statistics.quantiles(n=4)``), the run count,
the spread (q3 - q1) / median and, for end-to-end metrics, the bound and
whether the spread is under a third of it.  Raw results go to
``--save`` as JSON when given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw results here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    results = []
    for seed in args.seeds:
        argv = [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
        results.append({"seed": seed, "env": env, **result})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:6])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)
    bounds = {entry["name"]: entry.get("bound") for entry in bench["end_to_end"]}
    summary = {}
    print(f"{'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound}: {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:<48} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>3} {spread:>8.4f}{verdict}")
    print(f"all correct: {all(r['correct'] for r in results)}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "summary": summary, "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
