"""hdp-lab benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Workloads and their commands are in ``perfbench/spec.json``; metric names,
units and bounds in ``BENCHMARK.json``.  Each command of an iteration runs
through ``hdp_lab.cli.main`` in its own fresh interpreter, as a user runs
CLI commands; it imports the package from ``./src``, with BLAS threads
pinned to 1 and ``--workers`` never passed.  Iterations repeat until
``--seconds`` of command wall time are measured, but one that would
overrun it by more than a fifth is not started, so a workload whose single
iteration takes longer than ``--seconds`` (verify) measures exactly one;
metrics are medians over iterations.  Wall and CPU time are reported in
units of a fixed reference kernel that each child times just before and
just after its command (``wall_ref``, ``cpu_ref``): a shared host's speed
can drift by half within minutes, and the reference drifts with it.  The
raw seconds are printed in the summary.  ``setup_s`` is the median over the
run's fresh interpreters: three import-only spawns after one warm-up, plus
one per command, so its samples spread over the whole run.  With
``--trace 1`` untraced and traced iterations alternate, and the run
reports the per-layer metrics instead.  The last stdout line is the
JSON result; the lines before it are the environment record and a
human-readable summary.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from spans import MODULES  # noqa: E402

SETUP_SPAWNS = 3
OVERRUN = 1.2  # the most measured time may exceed --seconds by, as a factor
DEADLINE_S = 170.0
WORK_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "git_sha": sha,
    }


class Runner:
    """Spawns measured child processes for one benchmark invocation."""

    def __init__(self, root: str, work: str, deadline_s: float | None = DEADLINE_S) -> None:
        self.root = root
        self.deadline_s = deadline_s
        self.work = work
        self.src = os.path.join(root, "src")
        self.started = time.monotonic()
        self.env = dict(os.environ)
        # The CLI falls back to HDP_LAB_SEED; bytecode caching is on, as for users.
        for name in ("HDP_LAB_SEED", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self.env.update({name: "1" for name in THREAD_VARS})
        self.spawns = 0

    def spawn(self, commands: list, trace_dir: str | None = None) -> tuple[dict, float]:
        """Run child.py; returns its record and the setup time it measured."""
        self.spawns += 1
        result = os.path.join(self.work, f"child-{self.spawns}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), result, self.src]
        if trace_dir is not None:
            argv.append(trace_dir)
        timeout = None
        if self.deadline_s is not None:
            timeout = self.deadline_s - (time.monotonic() - self.started)
            if timeout <= 0:
                raise BenchError(f"out of time before spawn {self.spawns}")
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=self.root,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(json.dumps(commands), timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child timed out after {timeout:.0f} s")
        finally:
            try:  # pool workers share the child's session; leave none behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not os.path.exists(result):
            raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
        record = gate.load_json(result)
        os.unlink(result)
        return record, record["imported_at"] - spawned_at


def fill_commands(commands: list, seed: int, out: str) -> list:
    return [[arg.format(seed=seed, out=out) for arg in argv] for argv in commands]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path)
        for name in names
    )


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _layer_metrics(trace: dict, steps_per_call: dict) -> dict:
    """Per-layer metrics of one traced iteration (functions never called are absent)."""
    metrics = {f"{module}.self_s": 0.0 for module in MODULES}
    for name, (calls, inclusive, self_s) in trace.items():
        if not calls:
            continue
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name.split('.')[0]}.self_s"] += self_s
        if name.startswith("experiments.check_"):
            metrics[f"{name}.wall_s"] = inclusive
        if name in steps_per_call:
            metrics[f"{name}.us_per_step"] = 1e6 * self_s / (calls * steps_per_call[name])
    return metrics


def run_commands(runner: Runner, commands: list, trace_root: str | None = None) -> tuple[dict, list]:
    """Run each command in its own fresh interpreter, as a user runs CLI commands.

    Returns one record that sums wall and CPU time over the commands, also
    in units of the reference kernel timed around each command (``*_ref``),
    takes the largest peak RSS and merges the trace counters, and the setup
    time of each interpreter.
    """
    total = {"wall_s": 0.0, "cpu_s": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0, "peak_rss_mb": 0.0}
    total.update(exit_codes=[], import_s=[], reference_s=[])
    total["trace"] = {} if trace_root is not None else None
    setups = []
    for number, argv in enumerate(commands):
        trace_dir = None if trace_root is None else os.path.join(trace_root, str(number))
        record, setup_s = runner.spawn([argv], trace_dir)
        setups.append(setup_s)
        total["wall_s"] += record["wall_s"]
        total["cpu_s"] += record["cpu_s"]
        reference = statistics.fmean(record["reference_s"])
        total["reference_s"] += record["reference_s"]
        total["wall_ref"] += record["wall_s"] / reference
        total["cpu_ref"] += record["cpu_s"] / reference
        total["peak_rss_mb"] = max(total["peak_rss_mb"], record["peak_rss_mb"])
        total["exit_codes"] += record["exit_codes"]
        total["import_s"].append(record["import_s"])
        for name, counters in (record["trace"] or {}).items():
            acc = total["trace"].setdefault(name, [0, 0.0, 0.0])
            for k, value in enumerate(counters):
                acc[k] += value
    return total, setups


@dataclass
class Iteration:
    """Measured numbers of one iteration."""

    record: dict
    setups: list
    traced: bool
    attempted: int
    failures: list
    rows: int
    bytes_written: int


def _measure(runner: Runner, spec: dict, seed: int, seconds: float, golden: dict, trace: bool) -> list:
    """Iterations until ``seconds`` of command wall time; with ``trace``, alternately traced."""
    iterations, measured, memo = [], 0.0, {}
    while len(iterations) < 1 + trace or (
        measured < seconds and measured * (1 + 1 / len(iterations)) <= OVERRUN * seconds
    ):
        index = len(iterations) + 1
        out = os.path.join(runner.work, f"out-{index}")
        traced = trace and len(iterations) % 2 == 1
        trace_dir = os.path.join(runner.work, f"trace-{index}") if traced else None
        commands = fill_commands(spec["commands"], seed, out)
        record, setups = run_commands(runner, commands, trace_dir)
        attempted, failures, rows = gate.check_outputs(commands, record["exit_codes"], seed, golden, memo)
        iterations.append(Iteration(record, setups, traced, attempted, failures, rows, _dir_bytes(out)))
        shutil.rmtree(out, ignore_errors=True)
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
        measured += record["wall_s"]
        elapsed = time.monotonic() - runner.started
        if elapsed + 1.5 * record["wall_s"] > DEADLINE_S - 10.0 and len(iterations) >= 1 + trace:
            break
    return iterations


def _end_to_end(iterations: list, setups: list) -> dict:
    """Samples of the end-to-end metrics, and of the raw times behind ``*_ref``."""
    setups = setups + [setup_s for it in iterations for setup_s in it.setups]
    return {
        "wall_ref": [it.record["wall_ref"] for it in iterations],
        "cpu_ref": [it.record["cpu_ref"] for it in iterations],
        "peak_rss_mb": [it.record["peak_rss_mb"] for it in iterations],
        "setup_s": setups,
        "wall_s": [it.record["wall_s"] for it in iterations],
        "cpu_s": [it.record["cpu_s"] for it in iterations],
        "rows_per_s": [it.rows / it.record["wall_s"] for it in iterations],
        "reference_s": [s for it in iterations for s in it.record["reference_s"]],
    }


def _per_layer(untraced: list, traced: list, steps_per_call: dict) -> dict:
    samples: dict[str, list] = {}
    for it in traced:
        metrics = _layer_metrics(it.record["trace"], steps_per_call)
        metrics["cli.bytes_written"] = it.bytes_written
        metrics["import.self_s"] = _median(it.record["import_s"])
        module_self = sum(metrics[f"{module}.self_s"] for module in MODULES)
        metrics["trace.self_share"] = module_self / it.record["wall_s"]
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    for name, values in _end_to_end(untraced, []).items():
        if name in ("wall_s", "cpu_s", "rows_per_s"):
            samples[f"untraced.{name}"] = values
    reference = _median([s for it in untraced + traced for s in it.record["reference_s"]])
    samples["host.reference_s"] = [reference]
    # In reference units, so that host speed drift between the two cancels.
    overhead_ref = _median([it.record["wall_ref"] for it in traced]) - _median(
        [it.record["wall_ref"] for it in untraced]
    )
    samples["trace.overhead_s"] = [overhead_ref * reference]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    bench = gate.load_json(os.path.join(root, "BENCHMARK.json"))
    spec = gate.load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(spec['workloads'])}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(root, "src", "hdp_lab", "cli.py")):
        print(f"error: no hdp_lab sources under {root}/src; run from the repository root", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    golden = gate.load_goldens()

    env = _environment()
    env["load_before"] = os.getloadavg()
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(root, work)
    try:
        runner.spawn([])  # warm-up: fills the bytecode and page caches
        setups = [runner.spawn([])[1] for _ in range(SETUP_SPAWNS)]
        iterations = _measure(runner, workload, args.seed, args.seconds, golden, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    env["load_after"] = os.getloadavg()

    untraced = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    attempted = sum(it.attempted for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    print("env " + json.dumps(env))
    print(
        f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
        + (f" + {len(traced)} traced" if args.trace else "")
        + " iterations"
    )
    print(f"  {'failed_frac':<56} {len(failures) / attempted:>14.6g} {'ratio':<6} ({len(failures)}/{attempted})")
    if args.trace:
        samples = _per_layer(untraced, traced, spec["steps_per_call"])
        wanted = bench["per_layer"]
    else:
        samples = _end_to_end(untraced, setups)
        wanted = bench["end_to_end"]
    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"], [0])
        q1, q3 = _quartiles(values)
        metrics[entry["name"]] = {"value": _median(values), "unit": entry["unit"]}
        print(
            f"  {entry['name']:<56} {_median(values):>14.6g} {entry['unit']:<6}"
            f" (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})"
        )
    unlisted = sorted(set(samples) - {entry["name"] for entry in wanted})
    if args.trace and unlisted:
        print(f"not in BENCHMARK.json per_layer: {', '.join(unlisted)}", file=sys.stderr)
    elif unlisted:
        print("  raw times behind the *_ref metrics (not in the result line):")
        for name in unlisted:
            q1, q3 = _quartiles(samples[name])
            unit = "1/s" if name == "rows_per_s" else "s"
            print(f"  {name:<56} {_median(samples[name]):>14.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples[name])})")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
