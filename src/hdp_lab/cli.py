"""Command-line interface: simulation ensembles, densities, and verification.

Subcommands
-----------
simulate    write a path ensemble as CSV plus a JSON run manifest
verify      run a named verification suite, write a JSON report array
density     evaluate a closed-form density on a CSV of evaluation points
msd         closed-form mean-square displacement, optional MC cross-check
exit-prob   Monte Carlo band-exit probability with its closed-form target
reverse     reversed (solution, driver) paths bridged from forward terminals

Exit codes: 0 = success and every check passed; 1 = a verification or a
per-row domain check failed; 2 = usage or configuration error, a run whose
arrays do not fit in memory, a worker process that died, or an interrupt
(Ctrl-C).  ``--workers`` sets the processes a command runs on, at most
``WORKERS_PER_CPU`` per available CPU: ``verify`` spreads its units over
them; ``simulate`` and ``reverse`` split their paths into contiguous ranges,
write the first straight into the CSV and have forked workers write the
others to hidden part files beside it, appended in path order.  Each path
draws from its own stream, so the bytes do not depend on the worker count.
Options resolve as flags first, then an optional ``KEY=VALUE`` config file
(``--config``), then the ``HDP_LAB_SEED`` environment variable for the
master seed, then built-in defaults.  CSV numbers carry 17 significant
digits so round-trips are bit-stable; JSON manifests carry a schema-version
field and every input needed to regenerate the run.  Partial output files
are removed when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import pickle
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .analytics import joint_density_BL, joint_density_YB, msd, reversed_bridge_ensemble
from .core import SeedSpec, make_grid, sample_brownian
from .experiments import SUITES, run_suite
from .skew import (
    SkewCoefficients,
    simulate_skew_pair,
    skew_density,
    skew_transition_sample,
)
from .solutions import (
    ModelParams,
    NonMarkovParams,
    benchmark_solution,
    nonmarkov_solution,
    reflected_solution_explicit,
    signed_power,
    skew_solution,
    stopped_solution,
)
from .stats import exit_probability, variance_with_se

SCHEMA_VERSION = 1

FAMILIES = ("benchmark", "stopped", "nonmarkov", "skew", "reflected")
DENSITIES = ("skew", "joint-bl", "joint-yb")
SUITE_NAMES = (*SUITES, "all")

#: keys recognized in a ``--config`` file (dashes normalize to underscores);
#: each subcommand reads the subset it understands, flags always win
_FLOAT_KEYS = {
    "alpha", "theta", "x0", "t_end", "horizon", "eps", "step_h", "window_a", "window_b",
}
_INT_KEYS = {"steps", "paths", "seed", "workers"}
_STR_KEYS = {"out", "format", "family", "suite", "which", "points", "terminal_from"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

_DEFAULTS = {
    "alpha": 0.5,
    "theta": 0.0,
    "x0": 0.0,
    "t_end": 1.0,
    "steps": 1000,
    "paths": 10,
    "out": ".",
    "format": "csv",
    "window_a": 0.5,
    "window_b": 0.5,
    "horizon": 1.0,
    "eps": 0.1,
    "step_h": 1e-5,
    "terminal_from": "explicit",
}
_SUBCOMMAND_DEFAULTS = {
    "exit-prob": {"paths": 20_000},
    "msd": {"paths": 0},
}


#: most ``--workers`` per available CPU; more only crowd the host with processes
WORKERS_PER_CPU = 4


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _parse_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise CliError(f"config file not found: {path}")
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _ALL_KEYS:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    except ValueError as exc:
        raise CliError(f"config value {key}={raw!r} is not a {'float' if key in _FLOAT_KEYS else 'int'}") from exc


def _resolve(args: argparse.Namespace, key: str):
    """Flag > config file > HDP_LAB_SEED (for the seed) > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config_values", {})
    if key in config:
        return _coerce(key, config[key])
    if key == "seed":
        env = os.environ.get("HDP_LAB_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise CliError(f"HDP_LAB_SEED={env!r} is not an integer") from exc
        return 0
    defaults = _SUBCOMMAND_DEFAULTS.get(args.subcommand, {})
    if key in defaults:
        return defaults[key]
    return _DEFAULTS.get(key)  # None marks a required flag the caller must check


def _outdir(args) -> str:
    out = str(_resolve(args, "out"))
    os.makedirs(out, exist_ok=True)
    return out


def _open_csv(path: str, header: list, written: list):
    """Single-writer CSV emission: opens the file, writes the header, registers it for cleanup."""
    written.append(path)
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.write(",".join(header) + "\n")
    return fh


def _write_rows(path: str, header: list, rows, written: list) -> None:
    with _open_csv(path, header, written) as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


#: largest share of distinct values at which a block formats each distinct
#: value once.  Measured on 2 CPUs on 8 004-value blocks of the simulate
#: families, as distinct-once time over per-value time (median of 9 per
#: block): 0.31 below 10% distinct (skew), 0.79-0.88 at 10-40% (stopped and
#: nonmarkov from 0), 0.94 but up to 1.11 at 45-50% (benchmark from 0) and
#: 1.24-1.28 above 50%.  Repeated zeros format fast anyway, so these blocks
#: cross lower than normal draws, which break even near 70%.  A reverse
#: block is 100% distinct.
_DISTINCT_SHARE = 0.4


def _block_template(times, n_columns: int) -> tuple:
    """Row pieces of an ensemble CSV block, with the shared time column formatted once.

    Joined with a path id they give that path's rows, ``n_columns`` value
    slots each.  Returns two piece lists, one with ``%.17g`` slots for the
    floats themselves and one with ``%s`` slots for floats formatted already.
    """
    rows = [f",{_fmt(t)}" + ",%.17g" * n_columns + "\n" for t in times]
    return ["", *rows], ["", *(row.replace("%.17g", "%s") for row in rows)]


def _write_block(fh, path_id: int, template: tuple, columns: tuple) -> None:
    """One ensemble member's rows, formatted with one ``%`` and written at once.

    A block whose distinct values are at most 40% of it (the crossover
    ``_DISTINCT_SHARE``) formats each distinct value once and gathers the
    strings into the rows; a skew walk's columns take few lattice values.
    Values are compared by their bit patterns, not as floats: 0.0 and -0.0
    compare equal but print as ``0`` and ``-0``.  Either way every value is
    written as ``%.17g`` gives it.
    """
    per_value, preformatted = template
    flat = np.column_stack(columns).ravel()
    bits = flat.view(np.uint64)
    ordered = np.sort(bits)
    if 1 + np.count_nonzero(ordered[1:] != ordered[:-1]) > _DISTINCT_SHARE * bits.size:
        fh.write(f"{path_id}".join(per_value) % tuple(flat.tolist()))
        return
    distinct, inverse = np.unique(bits, return_inverse=True)
    # "%.17g" never prints a comma; the empty piece after the last one is never gathered
    strings = "%.17g," * distinct.size % tuple(distinct.view(np.float64).tolist())
    gathered = np.array(strings.split(","), dtype=object)[inverse]
    fh.write(f"{path_id}".join(preformatted) % tuple(gathered.tolist()))


def _write_json(path: str, payload, written: list) -> None:
    written.append(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# ensembles: simulate and reverse

#: path-steps (paths x steps) a forked ensemble worker must get by default.
#: Measured on 2 CPUs at 20 and 100 paths: two processes took as long as one
#: at 20 000 path-steps in all, and about 0.8 of its time at 40 000.
_FORK_PATH_STEPS = 20_000

#: fewest paths a forked reverse worker gets by default.  A lockstep bridge
#: step costs about as much for one path as for eight, so a narrower split
#: only runs the same steps twice: at 80 000 path-steps on 2 CPUs, two
#: processes were slower than one up to 8 paths and faster from 16.
_BRIDGE_WORKER_PATHS = 8

#: most paths per reversed_bridge_ensemble call in reverse, so that its two
#: (steps + 1) x paths node arrays do not grow with the ensemble
_BRIDGE_BATCH = 100


def _ensemble_workers(args, paths: int, steps: int, worker_paths: int = 1) -> int:
    """``--workers`` capped at the path count.

    By default one per CPU, but only as many as each get ``_FORK_PATH_STEPS``
    path-steps and ``worker_paths`` paths, and at least one.
    """
    workers = _resolve(args, "workers")
    if workers is None:
        cpus = len(os.sched_getaffinity(0))
        workers = max(1, min(cpus, paths // worker_paths, paths * steps // _FORK_PATH_STEPS))
    return min(workers, paths)


def _write_ensemble(
    csv_path: str, header: list, written: list, paths: int, workers: int, write_range
) -> None:
    """Write an ensemble CSV whose blocks ``write_range(fh, start, stop)`` writes for paths [start, stop).

    With one worker this process writes every block.  Otherwise the paths
    split into ``workers`` contiguous ranges: this process writes the first
    straight into the CSV while forked workers write the others to part
    files beside it, which are then appended in path order by a kernel-side
    copy and deleted.  Every path draws from its own stream, so the bytes do
    not depend on the split.  The part files get new hidden names
    (``.<csv name>.<random>``), so no file already there is overwritten, and
    they are registered in ``written``, so a failed run leaves none behind.
    """
    bounds = [paths * k // workers for k in range(workers + 1)]
    with _open_csv(csv_path, header, written) as fh:
        if workers == 1:
            write_range(fh, 0, paths)
            return
        out, name = os.path.split(csv_path)
        ranges = []
        for k in range(1, workers):
            fd, part = tempfile.mkstemp(prefix=f".{name}.", dir=out)
            os.close(fd)
            written.append(part)
            ranges.append((part, bounds[k], bounds[k + 1]))
        fh.flush()  # the workers inherit the handle: nothing may sit in its buffer
        with _fork_ranges(write_range, ranges):
            write_range(fh, bounds[0], bounds[1])
        fh.flush()
        for part, _, _ in ranges:
            with open(part, "rb") as src:
                offset = 0
                # one sendfile call copies at most about 2 GiB
                while sent := os.sendfile(fh.fileno(), src.fileno(), offset, 1 << 30):
                    offset += sent
            os.unlink(part)


def _write_part(path: str, write_range, start: int, stop: int) -> None:
    """A forked worker's share: the blocks of paths [start, stop) in their own file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_range(fh, start, stop)


@contextlib.contextmanager
def _fork_ranges(write_range, ranges: list):
    """Forked workers, one per ``(part file, start, stop)`` in ``ranges``, each writing its part.

    Entering starts them all, so they run while the caller writes its own
    range; a clean exit then waits for each in turn and re-raises its
    failure here: the exception it sent back through its pipe (so a worker
    out of memory still reads ``error: out of memory``), or
    :class:`ChildProcessError` for one that died.  Any exit terminates the
    workers still running and joins every one.  They are
    ``multiprocessing`` processes, not bare forks, so the after-fork hooks
    and exit finalizers registered with ``multiprocessing.util`` (a tracer's,
    say) run in them.  SIGINT is blocked while they start and ignored in
    them: on a Ctrl-C, which reaches the whole process group, this process
    alone gets the ``KeyboardInterrupt``, and never between forking a worker
    and recording it.
    """
    import multiprocessing
    import signal

    context = multiprocessing.get_context("fork")
    workers = []  # (process, read end of its error pipe)
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for part, start, stop in ranges:
                read_fd, write_fd = os.pipe()
                process = context.Process(
                    target=_run_range, args=(write_fd, part, write_range, start, stop)
                )
                workers.append((process, read_fd))
                try:
                    process.start()
                finally:
                    os.close(write_fd)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        yield
        for process, read_fd in workers:
            with open(read_fd, "rb", closefd=False) as pipe:
                error = pipe.read()
            process.join()
            if error:
                raise pickle.loads(error)
            if process.exitcode:
                raise ChildProcessError(
                    f"a forked ensemble worker died before its work finished (exit code {process.exitcode})"
                )
    finally:
        for process, read_fd in workers:
            if process.pid is not None:  # started
                if process.is_alive():
                    process.terminate()
                process.join()
            os.close(read_fd)


def _run_range(error_fd: int, part: str, write_range, start: int, stop: int) -> None:
    """A forked worker: writes its part file, or sends its exception back and exits 1."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    try:
        _write_part(part, write_range, start, stop)
    except Exception as exc:  # the worker's boundary: its failure goes back to the parent
        try:
            error = pickle.dumps(exc)
            pickle.loads(error)
        except Exception:  # an exception that does not survive the trip goes back as text
            error = pickle.dumps(ChildProcessError(f"{type(exc).__name__}: {exc}"))
        with open(error_fd, "wb") as pipe:
            pipe.write(error)
        sys.exit(1)


# ---------------------------------------------------------------------------
# simulate


def _simulate_columns(family, params, windows, grid, seed):
    """Columns (B, B_theta, L, X) for one ensemble member.

    For families driven by plain Brownian motion the B_theta column carries
    the shifted driver (the theta = 0 construction started at the
    transformed x0) and L is 0; the reflected family carries its pathwise
    reflection triple; the skew family carries the jointly simulated walk
    triple.
    """
    alpha, theta, x0 = params.alpha, params.theta, params.x0
    shift = signed_power(x0, 1.0 - alpha) / (1.0 - alpha)
    if family == "skew":
        coupled = simulate_skew_pair(theta, shift, grid, seed)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*non-solution.*")
            solution = skew_solution(params, coupled)
        return (
            coupled.driver_B.values,
            coupled.skew_B.values,
            coupled.local_time_L.values,
            solution.values,
        )
    brownian = sample_brownian(grid, seed)
    if family == "reflected":
        wandering = brownian.values + shift
        ell = np.maximum(0.0, -np.minimum.accumulate(wandering))
        solution = reflected_solution_explicit(alpha, x0, brownian)
        return (brownian.values, wandering + ell, ell, solution.values)
    if family == "benchmark":
        solution = benchmark_solution(params, brownian)
    elif family == "stopped":
        solution = stopped_solution(params, brownian)
    else:
        solution = nonmarkov_solution(params, NonMarkovParams(*windows), brownian)
    zeros = np.zeros(grid.n_steps + 1)
    return (brownian.values, brownian.values + shift, zeros, solution.values)


def _simulate_range(family, params, windows, grid, master, template, fh, start, stop) -> None:
    for index in range(start, stop):
        columns = _simulate_columns(family, params, windows, grid, SeedSpec(master, index))
        _write_block(fh, index, template, columns)


def cmd_simulate(args, written: list) -> int:
    family = _resolve(args, "family")
    if family not in FAMILIES:
        raise CliError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    alpha = _resolve(args, "alpha")
    theta = _resolve(args, "theta")
    x0 = _resolve(args, "x0")
    t_end = _resolve(args, "t_end")
    steps = _resolve(args, "steps")
    paths = _resolve(args, "paths")
    master = _resolve(args, "seed")
    window_a = _resolve(args, "window_a")
    window_b = _resolve(args, "window_b")
    if paths < 1:
        raise CliError(f"--paths must be >= 1, got {paths}")
    params = ModelParams(alpha=alpha, theta=theta, x0=x0)  # validates ranges
    if family == "reflected" and x0 < 0.0:
        raise CliError(f"reflected family needs x0 >= 0, got {x0}")
    grid = make_grid(t_end, steps)
    template = _block_template(grid.times(), 4)
    out = _outdir(args)
    csv_path = os.path.join(out, "paths.csv")
    write_range = functools.partial(
        _simulate_range, family, params, (window_a, window_b), grid, master, template
    )
    _write_ensemble(
        csv_path, ["path_id", "t", "B", "B_theta", "L", "X"], written,
        paths, _ensemble_workers(args, paths, steps), write_range,
    )
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "subcommand": "simulate",
        "family": family,
        "alpha": alpha,
        "theta": theta,
        "x0": x0,
        "t_end": t_end,
        "steps": steps,
        "paths": paths,
        "master_seed": master,
        "seed_scheme": "SeedSpec(master_seed, path_id)",
        "non_solution_flag": family == "skew" and not params.is_known_solution,
        "columns": ["path_id", "t", "B", "B_theta", "L", "X"],
        "csv_file": os.path.basename(csv_path),
    }
    if family == "nonmarkov":
        manifest["window_a"] = window_a
        manifest["window_b"] = window_b
    _write_json(os.path.join(out, "manifest.json"), manifest, written)
    print(f"wrote {csv_path} ({paths} paths x {steps + 1} nodes) and its manifest")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, written: list) -> int:
    suite = _resolve(args, "suite")
    if suite not in SUITE_NAMES:
        raise CliError(f"unknown suite {suite!r}; known suites: {', '.join(SUITE_NAMES)}")
    reports = run_suite(suite, _resolve(args, "workers"))
    out = _outdir(args)
    path = os.path.join(out, f"verify_{suite}.json")
    _write_json(path, [report.to_dict() for report in reports], written)
    width = max(len(report.check_name) for report in reports)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status}  {report.check_name:<{width}}  "
            f"measured={report.measured:.6g}  reference={report.reference:.6g}"
        )
    failed = sum(not report.passed for report in reports)
    print(f"{len(reports) - failed}/{len(reports)} checks passed; report: {path}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# density


def _read_points(path: str, n_columns: int, labels: tuple) -> list:
    if not os.path.isfile(path):
        raise CliError(f"points file not found: {path}")
    rows = []
    first = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if first:  # the first content line may be a header
                first = False
                try:
                    [float(cell) for cell in cells]
                except ValueError:
                    continue
            if len(cells) != n_columns:
                raise CliError(
                    f"{path}:{lineno}: expected {n_columns} columns ({', '.join(labels)}), "
                    f"got {len(cells)}"
                )
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: non-numeric cell in {line!r}") from exc
    if not rows:
        raise CliError(f"points file {path} has no data rows")
    return rows


def cmd_density(args, written: list) -> int:
    which = _resolve(args, "which")
    if which not in DENSITIES:
        raise CliError(f"unknown density {which!r}; choose from {', '.join(DENSITIES)}")
    points_file = _resolve(args, "points")
    if points_file is None:
        raise CliError("density requires --points (CSV file of evaluation points)")
    theta = _resolve(args, "theta")
    t = _resolve(args, "t_end")
    x0 = _resolve(args, "x0")
    if which == "skew":
        labels = ("b",)
    elif which == "joint-bl":
        if not math.isfinite(x0):
            raise CliError(f"joint-bl needs a finite --x0, got {x0}")
        labels = ("b", "l")
    else:
        if theta == 0.0:
            raise CliError("joint-yb needs theta != 0 (theta = 0 collapses the joint law to a line)")
        labels = ("y", "z")
    points = _read_points(points_file, len(labels), labels)
    coeffs = SkewCoefficients(theta)
    table = []
    flagged = 0
    for row in points:
        if not all(math.isfinite(c) for c in row):
            value, status = math.nan, "non-finite"
        elif which == "skew":
            value, status = skew_density(theta, t, row[0]), "ok"
        elif which == "joint-bl":
            if row[1] <= 0.0:
                value, status = math.nan, "invalid: l must be > 0"
            else:
                value, status = joint_density_BL(theta, t, x0, row[0], row[1]), "ok"
        else:
            inside = (coeffs.r(row[0]) - row[1]) / theta > 0.0
            if inside:
                value, status = joint_density_YB(theta, t, row[0], row[1]), "ok"
            else:
                value, status = 0.0, "outside-support"
        flagged += status != "ok"
        table.append([*(_fmt(c) for c in row), _fmt(value), status])
    out = _outdir(args)
    path = os.path.join(out, f"density_{which.replace('-', '_')}.csv")
    _write_rows(path, [*labels, "density", "status"], table, written)
    print(f"wrote {path} ({len(table)} rows, {flagged} flagged)")
    return 1 if flagged else 0


# ---------------------------------------------------------------------------
# msd / exit-prob


def _emit_record(args, name: str, record: dict, written: list) -> None:
    out = _outdir(args)
    fmt = _resolve(args, "format")
    if fmt not in ("csv", "json"):
        raise CliError(f"unknown format {fmt!r}; choose csv or json")
    if fmt == "json":
        _write_json(os.path.join(out, f"{name}.json"), record, written)
    else:
        keys = list(record)
        values = [
            _fmt(record[k]) if isinstance(record[k], float) else str(record[k]) for k in keys
        ]
        _write_rows(os.path.join(out, f"{name}.csv"), keys, [values], written)
    print(", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in record.items()))


def cmd_msd(args, written: list) -> int:
    alpha = _resolve(args, "alpha")
    theta = _resolve(args, "theta")
    t = _resolve(args, "t_end")
    paths = _resolve(args, "paths")
    if paths < 0:
        raise CliError(f"--paths must be >= 0, got {paths}")
    record = {"alpha": alpha, "theta": theta, "t": t, "msd": msd(alpha, theta, t)}
    if paths > 0:
        master = _resolve(args, "seed")
        draws = np.atleast_1d(skew_transition_sample(theta, 0.0, t, SeedSpec(master), size=paths))
        x = signed_power((1.0 - alpha) * draws, 1.0 / (1.0 - alpha))
        est = variance_with_se(x)
        record.update(
            {"estimate": est.value, "std_error": est.std_error, "paths": paths, "seed": master}
        )
    _emit_record(args, "msd", record, written)
    return 0


def cmd_exit_prob(args, written: list) -> int:
    theta = _resolve(args, "theta")
    eps = _resolve(args, "eps")
    step_h = _resolve(args, "step_h")
    paths = _resolve(args, "paths")
    master = _resolve(args, "seed")
    est = exit_probability(theta, eps=eps, n_paths=paths, h=step_h, seed=SeedSpec(master))
    record = {
        "theta": theta,
        "eps": eps,
        "step_h": step_h,
        "paths": paths,
        "seed": master,
        "estimate": est.value,
        "std_error": est.std_error,
        "target": (1.0 + theta) / 2.0,
    }
    _emit_record(args, "exit_prob", record, written)
    return 0


# ---------------------------------------------------------------------------
# reverse


def _reverse_range(theta, terminals, grid, seeds, template, fh, start, stop) -> None:
    for lo in range(start, stop, _BRIDGE_BATCH):
        hi = min(lo + _BRIDGE_BATCH, stop)
        ys, zs = reversed_bridge_ensemble(theta, terminals[lo:hi], grid, seeds[lo:hi])
        for j in range(hi - lo):
            _write_block(fh, lo + j, template, (ys[j], zs[j]))


def cmd_reverse(args, written: list) -> int:
    theta = _resolve(args, "theta")
    horizon = _resolve(args, "horizon")
    steps = _resolve(args, "steps")
    paths = _resolve(args, "paths")
    master = _resolve(args, "seed")
    source = _resolve(args, "terminal_from")
    x0 = _resolve(args, "x0")
    if x0 != 0.0:
        raise CliError("reverse is defined for the x0 = 0 start; rerun with --x0 0")
    if paths < 1:
        raise CliError(f"--paths must be >= 1, got {paths}")
    if source not in ("explicit", "forward-sim"):
        raise CliError(f"unknown --terminal-from {source!r}; choose explicit or forward-sim")
    grid = make_grid(horizon, steps)
    if source == "explicit":
        terminals = np.atleast_1d(
            skew_transition_sample(theta, 0.0, horizon, SeedSpec(master), size=paths)
        )
        streams = range(1, paths + 1)
    else:
        terminals = np.array(
            [
                simulate_skew_pair(theta, 0.0, grid, SeedSpec(master, i)).skew_B.terminal
                for i in range(paths)
            ]
        )
        streams = range(paths, 2 * paths)
    bridge_seeds = [SeedSpec(master, stream) for stream in streams]
    template = _block_template(grid.times(), 2)
    out = _outdir(args)
    csv_path = os.path.join(out, "reversed_paths.csv")
    write_range = functools.partial(_reverse_range, theta, terminals, grid, bridge_seeds, template)
    _write_ensemble(
        csv_path, ["path_id", "s", "Y", "Z"], written,
        paths, _ensemble_workers(args, paths, steps, _BRIDGE_WORKER_PATHS), write_range,
    )
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "subcommand": "reverse",
        "theta": theta,
        "horizon": horizon,
        "steps": steps,
        "paths": paths,
        "master_seed": master,
        "terminal_from": source,
        "terminals": [float(v) for v in terminals],
        "seed_scheme": (
            "terminals: SeedSpec(master); bridges: SeedSpec(master, 1 + path_id)"
            if source == "explicit"
            else "forward walks: SeedSpec(master, path_id); bridges: SeedSpec(master, paths + path_id)"
        ),
        "columns": ["path_id", "s", "Y", "Z"],
        "csv_file": os.path.basename(csv_path),
    }
    _write_json(os.path.join(out, "manifest.json"), manifest, written)
    print(f"wrote {csv_path} ({paths} reversed paths x {steps + 1} nodes) and its manifest")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="model exponent in (-1, 1) [0.5]")
    parser.add_argument("--theta", type=float, help="skewness in [-1, 1] [0]")
    parser.add_argument("--x0", type=float, help="starting point [0]")
    parser.add_argument("--t-end", type=float, dest="t_end", help="horizon [1.0]")
    parser.add_argument("--steps", type=int, help="grid steps [1000]")
    parser.add_argument("--paths", type=int, help="ensemble size")
    parser.add_argument("--seed", type=int, help="master seed [env HDP_LAB_SEED, else 0]")
    parser.add_argument("--out", help="output directory [.]")
    parser.add_argument("--format", choices=("csv", "json"), help="result format where not pinned [csv]")
    parser.add_argument(
        "--workers",
        type=int,
        help=f"processes to run on, 1 to {WORKERS_PER_CPU} per available CPU: verify splits its "
        "units over them, simulate and reverse their paths [one per CPU, at most one per unit or "
        f"path; for simulate and reverse only as many as get {_FORK_PATH_STEPS} path-steps each, "
        f"for reverse also {_BRIDGE_WORKER_PATHS} paths each]; CSV bytes do not depend on it",
    )
    parser.add_argument("--config", help="KEY=VALUE config file; flags win over the file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdp-lab",
        description=__doc__.splitlines()[0],
        epilog=(
            "exit codes: 0 all good, 1 verification/domain failure, "
            "2 usage error, out of memory, a dead worker or an interrupt. "
            "Ensembles always land as CSV with a JSON manifest; verify reports are JSON."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "simulate",
        help="write a path ensemble (CSV columns path_id, t, B, B_theta, L, X)",
        description=(
            "Simulate one solution family and write the ensemble as CSV plus a JSON "
            "manifest.  Families built directly from Brownian motion carry the shifted "
            "driver in B_theta and zeros in L; the skew family carries its walk triple; "
            "the manifest's non_solution_flag marks skew runs outside the solving regime."
        ),
    )
    p.add_argument("--family", choices=FAMILIES, help="solution family (required)")
    p.add_argument("--window-a", type=float, dest="window_a", help="nonmarkov window below 0 [0.5]")
    p.add_argument("--window-b", type=float, dest="window_b", help="nonmarkov window above 0 [0.5]")
    _add_shared(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "verify",
        help="run a verification suite and write its JSON report",
        description=(
            "Run one of the named verification suites (or 'all').  Suites are "
            "protocol-pinned: seeds, meshes, and tolerances are frozen in the "
            "experiments module, so model flags do not alter them."
        ),
    )
    p.add_argument("--suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    _add_shared(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "density",
        help="evaluate a closed-form density on a CSV of points",
        description=(
            "Evaluate the skew marginal (column: b), the walk/local-time joint "
            "(columns: b, l; --x0 is the driver-space start), or the "
            "solution/driver joint (columns: y, z) at --t-end.  Out-of-domain "
            "and non-finite rows are flagged in the status column and flip the "
            "exit code to 1."
        ),
    )
    p.add_argument("--which", help=f"one of: {', '.join(DENSITIES)}")
    p.add_argument("--points", help="CSV file of evaluation points (optional header)")
    _add_shared(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser(
        "msd",
        help="closed-form mean-square displacement (MC cross-check with --paths > 0)",
    )
    _add_shared(p)
    p.set_defaults(func=cmd_msd)

    p = sub.add_parser(
        "exit-prob",
        help="Monte Carlo exit probability through +eps vs the (1+theta)/2 target",
    )
    p.add_argument("--eps", type=float, help="band half-width [0.1]")
    p.add_argument("--step-h", type=float, dest="step_h", help="walk step size [1e-5]")
    _add_shared(p)
    p.set_defaults(func=cmd_exit_prob)

    p = sub.add_parser(
        "reverse",
        help="bridge-reversed (Y, Z) paths from forward terminal values",
        description=(
            "Reverse the (solution, driver) pair from time --horizon back to the "
            "start: terminals come from the exact one-step sampler "
            "(--terminal-from explicit) or from forward walk simulations "
            "(--terminal-from forward-sim); each reversed path is an exact "
            "conditioned bridge.  Defined for the x0 = 0 start."
        ),
    )
    p.add_argument("--horizon", type=float, help="forward horizon to reverse from [1.0]")
    p.add_argument(
        "--terminal-from",
        dest="terminal_from",
        choices=("explicit", "forward-sim"),
        help="terminal source [explicit]",
    )
    _add_shared(p)
    p.set_defaults(func=cmd_reverse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    written: list = []
    try:
        args._config_values = _parse_config_file(args.config) if args.config else {}
        workers = _resolve(args, "workers")
        limit = WORKERS_PER_CPU * len(os.sched_getaffinity(0))
        if workers is not None and not 1 <= workers <= limit:
            raise CliError(
                f"--workers must be from 1 to {limit} ({WORKERS_PER_CPU} per available CPU), "
                f"got {workers}"
            )
        return args.func(args, written)
    except KeyboardInterrupt:
        message = "interrupted"
    except (CliError, ValueError, OSError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):
            message = f"out of memory ({message})" if message else "out of memory"
    print(f"error: {message}", file=sys.stderr)
    _cleanup(written)
    return 2


def _cleanup(written: list) -> None:
    for path in written:
        try:
            os.unlink(path)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
