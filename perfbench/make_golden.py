"""Record the golden outputs the gate compares against.

Usage (from the repository root): python3 perfbench/make_golden.py [SEED ...]

Runs every suite of the verify workload once and the ensemble-csv
commands at each SEED (default 0..9), and writes ``golden/verify.json``
(report values; ``elapsed_s`` is dropped) and ``golden/ensemble.json`` (CSV
sha256 per seed).  Rerun it only for an announced protocol revision: the
point of the golden files is that ordinary changes leave them untouched.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402


def _write(name: str, payload: dict) -> None:
    with open(os.path.join(gate.GOLDEN_DIR, name), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(seeds: list[int]) -> int:
    root = os.getcwd()
    spec = gate.load_json(os.path.join(HERE, "spec.json"))["workloads"]
    work = os.path.join(root, run.WORK_DIR, "golden")
    os.makedirs(work, exist_ok=True)
    os.makedirs(gate.GOLDEN_DIR, exist_ok=True)
    runner = run.Runner(root, work, deadline_s=None)
    try:
        verify = {}
        out = os.path.join(work, "verify")
        commands = run.fill_commands(spec["verify"]["commands"], 0, out)
        record, _ = run.run_commands(runner, commands)
        for argv, code in zip(commands, record["exit_codes"]):
            suite = gate.flag_value(argv, "--suite")
            reports = gate.load_json(os.path.join(out, f"verify_{suite}.json"))
            if code != 0 or not all(report["pass"] for report in reports):
                raise SystemExit(f"suite {suite} did not pass (exit {code})")
            verify[suite] = [gate.comparable(report) for report in reports]
        ensemble = {}
        for seed in seeds:
            out = os.path.join(work, f"ensemble-{seed}")
            commands = run.fill_commands(spec["ensemble-csv"]["commands"], seed, out)
            record, _ = run.run_commands(runner, commands)
            _, failures, _ = gate.check_outputs(
                commands, record["exit_codes"], seed, {"verify": {}, "ensemble": {}}
            )
            if failures:
                raise SystemExit(f"seed {seed}: {failures}")
            ensemble[str(seed)] = {
                "simulate": gate.sha256_file(os.path.join(out, "simulate", "paths.csv")),
                "reverse": gate.sha256_file(os.path.join(out, "reverse", "reversed_paths.csv")),
            }
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _write("verify.json", verify)
    _write("ensemble.json", ensemble)
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]] or list(range(10))))
