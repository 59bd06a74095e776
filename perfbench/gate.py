"""Output gate: decides which operations of a workload run failed.

One operation is one verify report or one ensemble CLI command.  It fails
when its verdict is FAIL or its command exits non-zero, when its output
differs from the recorded golden output, or when a seed-independent
identity of the ensemble CSVs breaks.  Golden outputs were produced by the
commit that introduced the benchmark: verify report values except
``elapsed_s`` (verify protocols are frozen, so every run is compared), and
the sha256 of the ensemble CSV bytes for the seeds listed in
``golden/ensemble.json``.  Nothing here imports hdp_lab; the checks are
made from outside.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CLI_ALPHA = 0.5  # the CLI's default --alpha, which the ensemble workload keeps


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def load_goldens() -> dict:
    """``{"verify": {suite: [report, ...]}, "ensemble": {seed: {subcommand: sha256}}}``."""
    return {kind: load_json(os.path.join(GOLDEN_DIR, f"{kind}.json")) for kind in ("verify", "ensemble")}


def comparable(report: dict) -> dict:
    """A report without its wall-clock ``elapsed_s`` stamp."""
    report = copy.deepcopy(report)
    report.get("metadata", {}).pop("elapsed_s", None)
    return report


def verify_failures(suite: str, exit_code: int, reports, golden: list) -> list[str]:
    """One message per failed report of one ``verify --suite`` command.

    ``reports`` is the parsed report file, or None when none was written; the
    suite then fails every report the golden run produced.
    """
    if reports is None:
        return [f"{suite}: no report file (exit {exit_code})"] * len(golden)
    problems = []
    for i in range(max(len(reports), len(golden))):
        report = reports[i] if i < len(reports) else None
        name = report.get("check_name") if report else golden[i]["check_name"]
        if report is None:
            problems.append(f"{suite}: report {name!r} missing")
        elif exit_code != 0 or report.get("pass") is not True:
            problems.append(f"{suite}: {name!r} FAIL (exit {exit_code})")
        elif i >= len(golden) or comparable(report) != comparable(golden[i]):
            problems.append(f"{suite}: {name!r} differs from the golden report")
    return problems


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_rows(path: str) -> int:
    """Data rows of a CSV with one header line."""
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1


def _read_csv(path: str, header: list, paths: int, steps: int, horizon: float) -> np.ndarray:
    """Parse an ensemble CSV and check its header, row count, ids and time column."""
    with open(path) as fh:
        found = fh.readline().strip().split(",")
        if found != header:
            raise ValueError(f"header {found} != {header}")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    nodes = steps + 1
    if table.shape != (paths * nodes, len(header)):
        raise ValueError(f"table shape {table.shape} != {(paths * nodes, len(header))}")
    table = table.reshape(paths, nodes, len(header))
    if not np.array_equal(table[:, :, 0], np.repeat(np.arange(paths), nodes).reshape(paths, nodes)):
        raise ValueError("path_id column is not 0..paths-1 in blocks")
    if not np.array_equal(table[:, :, 1], np.broadcast_to(np.linspace(0.0, horizon, nodes), (paths, nodes))):
        raise ValueError("time column is not the uniform grid")
    return table


def skew_ensemble_problems(path: str, theta: float, alpha: float, paths: int, steps: int) -> list[str]:
    """Identities of ``simulate --family skew`` at x0 = 0, exact in floating point.

    B == B_theta - theta * L, and X is the signed power of (1 - alpha) * B_theta.
    """
    try:
        table = _read_csv(path, ["path_id", "t", "B", "B_theta", "L", "X"], paths, steps, 1.0)
    except (OSError, ValueError) as exc:
        return [f"simulate: {exc}"]
    b, b_theta, ell, x = (table[:, :, k] for k in (2, 3, 4, 5))
    problems = []
    if not np.array_equal(b, b_theta - theta * ell):
        problems.append("simulate: B != B_theta - theta*L")
    base = (1.0 - alpha) * b_theta
    if not np.array_equal(x, np.power(np.abs(base), 1.0 / (1.0 - alpha)) * np.sign(base)):
        problems.append("simulate: X is not the signed power of (1-alpha)*B_theta")
    return problems


def reverse_ensemble_problems(csv_path: str, manifest_path: str, theta: float, paths: int, steps: int) -> list[str]:
    """Identities of ``reverse`` (theta >= 0): Y = Z = 0 at the end, Y(0) = s(terminal).

    s(b) = 2 b / (1 + theta sign b); Y(0) must match it within one ulp.
    """
    try:
        table = _read_csv(csv_path, ["path_id", "s", "Y", "Z"], paths, steps, 1.0)
        with open(manifest_path) as fh:
            terminals = np.asarray(json.load(fh)["terminals"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        return [f"reverse: {exc}"]
    y, z = table[:, :, 2], table[:, :, 3]
    problems = []
    if np.any(y[:, -1] != 0.0) or np.any(z[:, -1] != 0.0):
        problems.append("reverse: Y or Z is not 0 at the last node")
    expected = terminals * (2.0 / (1.0 + theta * np.sign(terminals)))
    if terminals.shape != (paths,) or np.any(np.abs(y[:, 0] - expected) > np.spacing(np.abs(expected))):
        problems.append("reverse: Y at s=0 differs from s(terminal) by more than 1 ulp")
    return problems


def flag_value(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def check_outputs(commands: list, codes: list, seed: int, golden: dict, memo: dict | None = None) -> tuple[int, list, int]:
    """(attempted operations, one message per failed operation, rows written).

    ``memo`` maps (subcommand, CSV and manifest sha256) to the identity
    problems already found for those exact bytes, so repeated identical
    outputs are parsed once.
    """
    memo = {} if memo is None else memo
    attempted, failures, rows = 0, [], 0
    for argv, code in zip(commands, codes):
        sub, out_dir = argv[0], flag_value(argv, "--out")
        if sub == "verify":
            suite = flag_value(argv, "--suite")
            expected = golden["verify"][suite]
            path = os.path.join(out_dir, f"verify_{suite}.json")
            reports = load_json(path) if os.path.exists(path) else None
            attempted += max(len(expected), len(reports or []))
            failures += verify_failures(suite, code, reports, expected)
            rows += len(reports or [])
            continue
        attempted += 1
        theta = float(flag_value(argv, "--theta"))
        paths, steps = int(flag_value(argv, "--paths")), int(flag_value(argv, "--steps"))
        csv = os.path.join(out_dir, "paths.csv" if sub == "simulate" else "reversed_paths.csv")
        manifest = os.path.join(out_dir, "manifest.json")
        digest = sha256_file(csv) if os.path.exists(csv) else None
        key = (sub, digest, sha256_file(manifest) if os.path.exists(manifest) else None)
        if None in key or key not in memo:
            if sub == "simulate":
                memo[key] = skew_ensemble_problems(csv, theta, CLI_ALPHA, paths, steps)
            else:
                memo[key] = reverse_ensemble_problems(csv, manifest, theta, paths, steps)
        found = list(memo[key])
        if code != 0:
            found.append(f"{sub}: exit {code}")
        golden_hash = golden["ensemble"].get(str(seed), {}).get(sub)
        if golden_hash and digest != golden_hash:
            found.append(f"{sub}: CSV bytes differ from the golden run at seed {seed}")
        if found:
            failures.append("; ".join(found))
        if digest:
            rows += count_rows(csv)
    return attempted, failures, rows
