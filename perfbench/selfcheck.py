"""Self-check of the benchmark harness.

Usage (from the repository root): python3 perfbench/selfcheck.py

1. Tracing binds every wrapper everywhere its function is looked up: no
   module global, module-level container or ``experiments.SUITES`` entry
   still holds an unwrapped function, parsers built after installation
   dispatch to wrappers, and spans from forked pool workers reach the
   merged counters.
2. The gate flags mutated copies of real outputs: one flipped verify
   verdict, one changed report value, one changed CSV digit (caught by the
   golden hash alone, and by an identity alone).  Only copies in a scratch
   directory are mutated; the sources are never touched.

Exits 0 when every check holds; takes about 30 s.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench", "selfcheck")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
from spans import MODULES, Tracer, traceable_functions  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def _functions_in(value, depth: int = 3):
    """Functions held by a module-level value, looking into containers."""
    if inspect.isfunction(value):
        yield value
    elif depth and isinstance(value, dict):
        for item in value.values():
            yield from _functions_in(item, depth - 1)
    elif depth and isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _functions_in(item, depth - 1)


def check_bindings() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    originals = set(traceable_functions().values())
    tracer = Tracer(os.path.join(WORK, "trace"))
    wrappers = tracer.install()
    expect(set(wrappers) == originals, f"{len(originals)} functions wrapped")
    modules = [importlib.import_module("hdp_lab")]
    modules += [importlib.import_module(f"hdp_lab.{short}") for short in MODULES]
    stale = sorted(
        f"{module.__name__}.{name} -> {fn.__qualname__}"
        for module in modules
        for name, value in vars(module).items()
        for fn in _functions_in(value)
        if fn in originals
    )
    expect(not stale, f"no unwrapped reference left in module globals or containers {stale}")
    expect(
        set(traceable_functions().values()) == set(wrappers.values()),
        "every wrapped function's own module name is bound to its wrapper",
    )
    core = importlib.import_module("hdp_lab.core")
    expect(core.SeedSpec.generator in wrappers.values(), "SeedSpec.generator is wrapped")
    suites = importlib.import_module("hdp_lab.experiments").SUITES
    expect(
        all(check in wrappers.values() for checks in suites.values() for check in checks),
        "every experiments.SUITES entry is a wrapper",
    )
    cli = importlib.import_module("hdp_lab.cli")
    parser = cli.build_parser()
    dispatch = [parser.parse_args([sub]).func for sub in ("simulate", "verify", "reverse", "msd")]
    expect(all(fn in wrappers.values() for fn in dispatch), "subcommand dispatch goes through wrappers")

    out = os.path.join(WORK, "small")
    argv = ["--theta", "0.5", "--paths", "6", "--steps", "50", "--seed", "3", "--workers", "2"]
    codes = [
        cli.main(["simulate", "--family", "skew", *argv, "--out", out]),
        cli.main(["reverse", *argv, "--out", out]),
    ]
    merged = tracer.merged()
    expect(codes == [0, 0], "small traced simulate and reverse exit 0")
    expect(merged["analytics.reversed_pair_bridge"][0] == 6, "bridge spans from pool workers reach the report")
    expect(merged["skew.simulate_skew_pair"][0] == 6, "simulate spans from pool workers reach the report")
    expect(merged["cli.main"][0] == 2 and merged["cli.main"][2] >= 0.0, "cli.main spans recorded")


def check_gate() -> None:
    golden = gate.load_goldens()

    out = os.path.join(WORK, "verify")
    os.makedirs(out)
    command = [["verify", "--suite", "msd", "--out", out]]
    path = os.path.join(out, "verify_msd.json")

    def failures_of(reports, code=0):
        with open(path, "w") as fh:
            json.dump(reports, fh)
        return gate.check_outputs(command, [code], 0, golden)[1]

    reports = [dict(report, metadata=dict(report["metadata"], elapsed_s=1.0)) for report in golden["verify"]["msd"]]
    expect(failures_of(reports) == [], "golden verify reports pass, elapsed_s ignored")
    flipped = json.loads(json.dumps(reports))
    flipped[2]["pass"] = False
    expect(len(failures_of(flipped)) == 1, "one flipped verdict fails one report")
    nudged = json.loads(json.dumps(reports))
    nudged[4]["measured"] = nudged[4]["measured"] * (1.0 + 1e-15)
    expect(len(failures_of(nudged)) == 1, "one changed report value fails one report")
    expect(len(failures_of(reports, code=1)) == len(reports), "a non-zero exit fails every report")

    seed = 0
    runner = run.Runner(ROOT, WORK, deadline_s=None)
    spec = gate.load_json(os.path.join(HERE, "spec.json"))["workloads"]["ensemble-csv"]
    base = os.path.join(WORK, "ensemble")
    commands = run.fill_commands(spec["commands"], seed, base)
    record, _ = run.run_commands(runner, commands)
    attempted, found, rows = gate.check_outputs(commands, record["exit_codes"], seed, golden)
    expect((attempted, found, rows) == (2, [], 800_400), f"ensemble at golden seed {seed} passes")

    def mutate(sub: str, csv: str, row: int, column: int, golden_used: dict) -> list:
        copy_dir = os.path.join(WORK, f"mutated-{sub}")
        shutil.rmtree(copy_dir, ignore_errors=True)
        shutil.copytree(os.path.join(base, sub), copy_dir)
        target = os.path.join(copy_dir, csv)
        with open(target) as fh:
            lines = fh.readlines()
        cells = lines[row].rstrip("\n").split(",")
        cell = cells[column]
        digit = cell.index(".") + 1 if "." in cell else len(cell) - 1  # a digit that moves the value
        cells[column] = cell[:digit] + str((int(cell[digit]) + 1) % 10) + cell[digit + 1:]
        lines[row] = ",".join(cells) + "\n"
        with open(target, "w") as fh:
            fh.writelines(lines)
        argv = [arg.replace(os.path.join(base, sub), copy_dir) for arg in commands[0 if sub == "simulate" else 1]]
        return gate.check_outputs([argv], [0], seed, golden_used)[1]

    no_hashes = {"verify": golden["verify"], "ensemble": {}}
    # Z in the middle of a reversed path is covered by no identity: only the hash sees it.
    expect(len(mutate("reverse", "reversed_paths.csv", 1000, 3, golden)) == 1, "changed Z digit fails by golden hash")
    expect(mutate("reverse", "reversed_paths.csv", 1000, 3, no_hashes) == [], "  (and no identity covers it)")
    expect(len(mutate("simulate", "paths.csv", 1234, 2, no_hashes)) == 1, "changed B digit fails by identity")
    expect(len(mutate("reverse", "reversed_paths.csv", 2001, 2, no_hashes)) == 1, "changed Y(end) digit fails by identity")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        check_bindings()
        check_gate()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
    print(f"{'FAILED' if FAILURES else 'passed'}: {len(FAILURES)} failing checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
