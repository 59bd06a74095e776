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
``WORKERS_PER_CPU`` per available CPU, and every command forks them the one
way ``core._fork_map`` does, running one share itself: ``verify`` deals its
units into shares up front, heaviest first; ``simulate`` and
``reverse`` only yield each path's value columns to the one ensemble
writer (``_write_ensemble``), which owns the CSV layout, the manifest keys
they share and the path ranges: it writes the first range straight into
the CSV and has the workers write the others to hidden part files beside
it, appended in path order.  Each path draws from its own stream, so the
bytes do not depend on the worker count.
Each subcommand, each value of its choice and ``msd --paths 0`` take only the options they read.
``main`` resolves each of them once, before the command runs, as flags
first, then an optional ``KEY=VALUE`` config file (``--config``, which may
hold any option's key), then the ``HDP_LAB_SEED`` environment variable for
the master seed, then defaults, and checks an option with choices against
them wherever its value came from; a parse error, a bad value and a missing
required option all exit 2 with one ``error:`` line.  CSV numbers carry
17 significant digits so round-trips are bit-stable; JSON manifests carry a
schema-version field and every input needed to regenerate the run.  Partial
output files are removed when a command fails; a closed stdout fails none.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .analytics import _bl_density, _yb_density, msd, reversed_bridge_ensemble
from .core import SeedSpec, TimeGrid, _fork_map, _require_positive, sample_brownian
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
    skew_solution,
    stopped_solution,
)
from .stats import exit_probability, msd_estimate

SCHEMA_VERSION = 1

FAMILIES = ("benchmark", "stopped", "nonmarkov", "skew", "reflected")
DENSITIES = ("skew", "joint-bl", "joint-yb")
SUITE_NAMES = (*SUITES, "all")

#: most ``--workers`` per available CPU; more only crowd the host with processes
WORKERS_PER_CPU = 4

#: path-steps (paths x steps) a forked ensemble worker must get by default.
#: Measured on 2 CPUs at 20 and 100 paths: two processes took as long as one
#: at 20 000 path-steps in all, and about 0.8 of its time at 40 000.
_FORK_PATH_STEPS = 20_000

#: fewest paths a forked reverse worker gets by default.  A lockstep bridge
#: step costs about as much for one path as for eight, so a narrower split
#: only runs the same steps twice: at 80 000 path-steps on 2 CPUs, two
#: processes were slower than one up to 8 paths and faster from 16.
_BRIDGE_WORKER_PATHS = 8

#: every option a subcommand can take, by config key (the flag with dashes
#: made underscores): (type, default, choices, help).  A subcommand takes the
#: ones its command reads (``_add_options``), with its own default where it
#: names one; None marks a required option or one its command works out.
#: An option with choices must resolve to one of them, so one whose default
#: is None is required.  A ``--config`` file may hold any of these keys.
_OPTIONS = {
    "family": (str, None, FAMILIES, "solution family (required)"),
    "suite": (str, None, SUITE_NAMES, "verification suite (required)"),
    "which": (str, None, DENSITIES, "density to evaluate (required)"),
    "points": (str, None, None, "CSV file of evaluation points (optional header)"),
    "alpha": (float, 0.5, None, "model exponent in (-1, 1)"),
    "theta": (float, 0.0, None, "skewness in [-1, 1]"),
    "x0": (float, 0.0, None, "starting point"),
    "t_end": (float, 1.0, None, "horizon"),
    "horizon": (float, 1.0, None, "forward horizon to reverse from"),
    "terminal_from": (str, "explicit", ("explicit", "forward-sim"), "terminal source"),
    "eps": (float, 0.1, None, "band half-width"),
    "step_h": (float, 1e-5, None, "walk step size"),
    "steps": (int, 1000, None, "grid steps"),
    "paths": (int, 10, None, "paths to draw"),
    "seed": (int, 0, None, "master seed (env HDP_LAB_SEED when not given)"),
    "window_a": (float, 0.5, None, "window below 0"),
    "window_b": (float, 0.5, None, "window above 0"),
    "out": (str, ".", None, "output directory"),
    "format": (str, "csv", ("csv", "json"), "result format"),
    "workers": (
        int, None, None,
        f"processes to run on, 1 to {WORKERS_PER_CPU} per available CPU: verify splits its "
        "units over them, simulate and reverse their paths [one per CPU, at most one per unit or "
        f"path; for simulate and reverse only as many as get {_FORK_PATH_STEPS} path-steps each, "
        f"for reverse also {_BRIDGE_WORKER_PATHS} paths each]; CSV bytes do not depend on it",
    ),
}


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`CliError`, so ``main`` reports them.

    A token that starts with a minus and then a digit, a point and a digit,
    ``inf`` or ``nan`` is a value, not a flag: argparse alone counts only
    ``-1`` and ``-0.5`` as negative numbers, so ``--theta -1e-3`` failed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise CliError(message)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _status(line: str) -> None:
    """Print a status line: a command prints once its outputs are written, so a closed stdout fails nothing."""
    try:
        print(line, flush=True)
    except BrokenPipeError:  # the rest goes to the null device: the flush at exit must not raise it again
        with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:  # or stdout has no descriptor
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _content_lines(path: str, what: str):
    """``("<path>:<line>", line)`` for each stripped line of ``path`` that is neither blank nor a ``#`` comment.

    A missing file raises :class:`CliError` "<what> not found: <path>".
    """
    if not os.path.isfile(path):
        raise CliError(f"{what} not found: {path}")
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield f"{path}:{lineno}", line


def _parse_config_file(path: str) -> dict:
    values = {}
    for where, line in _content_lines(path, "config file"):
        if "=" not in line:
            raise CliError(f"{where}: expected KEY=VALUE, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise CliError(f"{where}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(key: str, raw: str):
    kind = _OPTIONS[key][0]
    try:
        return kind(raw)
    except ValueError as exc:
        raise CliError(f"config value {key}={raw!r} is not a {kind.__name__}") from exc


def _resolve(args: argparse.Namespace, key: str, config: dict):
    """Flag > ``config`` file values > HDP_LAB_SEED (for the seed) > the subcommand's default, for one of its options."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if key in config:
        return _coerce(key, config[key])
    env = os.environ.get("HDP_LAB_SEED") if key == "seed" else None
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"HDP_LAB_SEED={env!r} is not an integer") from exc
    return args._defaults[key]


def _outdir(args) -> str:
    out = str(args.out)
    os.makedirs(out, exist_ok=True)
    return out


def _open_csv(path: str, header: list, written: list):
    """Single-writer CSV emission: opens the file, then registers it for cleanup and writes the header."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    written.append(path)
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
    changed = ordered[1:] != ordered[:-1]
    if 1 + np.count_nonzero(changed) > _DISTINCT_SHARE * bits.size:
        fh.write(f"{path_id}".join(per_value) % tuple(flat.tolist()))
        return
    distinct = ordered[np.concatenate(([True], changed))]
    # "%.17g" never prints a comma; the empty piece after the last one is never gathered
    strings = "%.17g," * distinct.size % tuple(distinct.view(np.float64).tolist())
    gathered = np.array(strings.split(","), dtype=object)[np.searchsorted(distinct, bits)]
    fh.write(f"{path_id}".join(preformatted) % tuple(gathered.tolist()))


def _write_json(path: str, payload, written: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        written.append(path)
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# ensembles: simulate and reverse

#: most paths per reversed_bridge_ensemble call in reverse, so that its two
#: (steps + 1) x paths node arrays do not grow with the ensemble
_BRIDGE_BATCH = 100


def _ensemble_workers(args, paths: int, steps: int, worker_paths: int = 1) -> int:
    """``--workers`` capped at the path count.

    By default one per CPU, but only as many as each get ``_FORK_PATH_STEPS``
    path-steps and ``worker_paths`` paths, and at least one.
    """
    workers = args.workers
    if workers is None:
        cpus = len(os.sched_getaffinity(0))
        workers = max(1, min(cpus, paths // worker_paths, paths * steps // _FORK_PATH_STEPS))
    return min(workers, paths)


def _write_ensemble(
    args, written: list, subcommand: str, csv_name: str, names: list, grid, blocks,
    worker_paths: int, fields: dict, noun: str,
) -> None:
    """Write an ensemble CSV and its manifest: the one writer of ``simulate`` and ``reverse``.

    ``blocks(start, stop)`` yields the value columns (``names`` after the
    grid's time column) of each path in [start, stop), in path order.  The
    paths split into contiguous ranges, one per worker (``_ensemble_workers``
    with ``worker_paths``): this process writes the first straight into the
    CSV while forked workers (``_fork_map``) write the others to part files
    beside it, which are then appended in path order by a kernel-side copy
    and deleted.  Every path draws from its own stream, so the bytes do not
    depend on the split.  The part files get new hidden names (``.<csv
    name>.<random>``), so no file already there is overwritten, and they are
    registered in ``written``, so a failed run leaves none behind.  The
    manifest holds the keys every ensemble shares and the command's own
    ``fields``; the line printed last counts the paths as ``noun``.
    """
    paths, steps, header = args.paths, args.steps, ["path_id", *names]
    workers = _ensemble_workers(args, paths, steps, worker_paths)
    template = _block_template(grid.times(), len(names) - 1)
    out = _outdir(args)
    csv_path = os.path.join(out, csv_name)
    bounds = [paths * k // workers for k in range(workers + 1)]
    with _open_csv(csv_path, header, written) as fh:
        shares = [(None, bounds[0], bounds[1])]
        for k in range(1, workers):
            fd, part = tempfile.mkstemp(prefix=f".{csv_name}.", dir=out)
            os.close(fd)
            written.append(part)
            shares.append((part, bounds[k], bounds[k + 1]))
        fh.flush()  # the workers inherit the handle: nothing may sit in its buffer
        _fork_map(functools.partial(_write_share, fh, template, blocks), shares)
        fh.flush()
        for part, _, _ in shares[1:]:
            with open(part, "rb") as src:
                offset = 0
                # one sendfile call copies at most about 2 GiB
                while sent := os.sendfile(fh.fileno(), src.fileno(), offset, 1 << 30):
                    offset += sent
            os.unlink(part)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "subcommand": subcommand,
        "steps": steps,
        "paths": paths,
        "master_seed": args.seed,
        "columns": header,
        "csv_file": csv_name,
    }
    _write_json(os.path.join(out, "manifest.json"), {**manifest, **fields}, written)
    _status(f"wrote {csv_path} ({paths} {noun} x {steps + 1} nodes) and its manifest")


def _write_share(fh, template: tuple, blocks, share: tuple) -> None:
    """The rows of ``share = (part, start, stop)``: into ``fh``, or into the part file if it names one."""
    part, start, stop = share
    own = contextlib.nullcontext(fh) if part is None else open(part, "w", encoding="utf-8", newline="\n")
    with own as out:
        for path_id, columns in enumerate(blocks(start, stop), start):
            _write_block(out, path_id, template, columns)


# ---------------------------------------------------------------------------
# simulate


def _simulate_columns(family, params, window, grid, seed):
    """Columns (B, B_theta, L, X) for one ensemble member.

    For families driven by plain Brownian motion the B_theta column carries
    the shifted driver (the theta = 0 construction started at the
    transformed x0) and L is 0; the reflected family carries its pathwise
    reflection triple; the skew family carries the jointly simulated walk
    triple.  ``window`` is the nonmarkov family's absorption window.
    """
    if family == "skew":
        coupled, solution = skew_solution(params, grid, seed)
        return (
            coupled.driver_B.values,
            coupled.skew_B.values,
            coupled.local_time_L.values,
            solution.values,
        )
    brownian = sample_brownian(grid, seed)
    shift = params.skew_start
    if family == "reflected":
        wandering = brownian.values + shift
        ell = np.maximum(0.0, -np.minimum.accumulate(wandering))
        solution = reflected_solution_explicit(params, brownian)
        return (brownian.values, wandering + ell, ell, solution.values)
    if family == "benchmark":
        solution = benchmark_solution(params, brownian)
    elif family == "stopped":
        solution = stopped_solution(params, brownian)
    else:
        solution = nonmarkov_solution(params, window, brownian)
    return (brownian.values, brownian.values + shift, np.zeros(grid.n_steps + 1), solution.values)


def cmd_simulate(args, written: list) -> int:
    family, paths, steps = args.family, args.paths, args.steps
    if paths < 1:
        raise CliError(f"--paths must be >= 1, got {paths}")
    theta = {"skew": args.theta, "reflected": 1.0}.get(family, 0.0)  # the theta the family runs
    params = ModelParams(alpha=args.alpha, theta=theta, x0=args.x0)  # validates ranges
    if family == "reflected" and params.x0 < 0.0:
        raise CliError(f"reflected family needs x0 >= 0, got {params.x0}")
    fields = {
        "family": family,
        **vars(params),  # alpha, theta and x0 as the run used them
        "t_end": args.t_end,
        "seed_scheme": "SeedSpec(master_seed, path_id)",
        "non_solution_flag": not params.is_known_solution,
    }
    window = None
    if family == "nonmarkov":
        _require_positive("--window-a", args.window_a)
        _require_positive("--window-b", args.window_b)
        window = NonMarkovParams(args.window_a, args.window_b)
        fields.update(window_a=args.window_a, window_b=args.window_b)
    grid = TimeGrid(args.t_end, steps)

    def blocks(start, stop):
        for index in range(start, stop):
            yield _simulate_columns(family, params, window, grid, SeedSpec(args.seed, index))

    _write_ensemble(
        args, written, "simulate", "paths.csv", ["t", "B", "B_theta", "L", "X"], grid, blocks, 1,
        fields, "paths",
    )
    if not params.is_known_solution:  # after the run, so a failed run prints its error line alone
        warnings.warn(f"{params} is a known non-solution: the local-time term does not vanish")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, written: list) -> int:
    reports = run_suite(args.suite, args.workers)
    out = _outdir(args)
    path = os.path.join(out, f"verify_{args.suite}.json")
    _write_json(path, [report.to_dict() for report in reports], written)
    width = max(len(report.check_name) for report in reports)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        _status(
            f"{status}  {report.check_name:<{width}}  "
            f"measured={report.measured:.6g}  reference={report.reference:.6g}"
        )
    failed = sum(not report.passed for report in reports)
    _status(f"{len(reports) - failed}/{len(reports)} checks passed; report: {path}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# density


def _read_points(path: str, n_columns: int, labels: tuple) -> list:
    rows = []
    first = True
    for where, line in _content_lines(path, "points file"):
        cells = [cell.strip() for cell in line.split(",")]
        if first:  # the first content line may be a header
            first = False
            try:
                [float(cell) for cell in cells]
            except ValueError:
                continue
        if len(cells) != n_columns:
            raise CliError(
                f"{where}: expected {n_columns} columns ({', '.join(labels)}), got {len(cells)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise CliError(f"{where}: non-numeric cell in {line!r}") from exc
    if not rows:
        raise CliError(f"points file {path} has no data rows")
    return rows


@np.errstate(over="ignore", invalid="ignore")  # past the float range the densities return 0 (inf * 0)
def cmd_density(args, written: list) -> int:
    which, theta, t = args.which, args.theta, args.t_end
    if args.points is None:
        raise CliError("density requires --points (CSV file of evaluation points)")
    _require_positive("t", t)  # also for a file whose every row is flagged and reaches no density
    if which == "skew":
        labels = ("b",)
    elif which == "joint-bl":
        if not math.isfinite(args.x0):
            raise CliError(f"joint-bl needs a finite --x0, got {args.x0}")
        labels = ("b", "l")
        density = _bl_density(theta, t, args.x0)
    else:
        if theta == 0.0:
            raise CliError("joint-yb needs theta != 0 (theta = 0 collapses the joint law to a line)")
        labels = ("y", "z")
        density = _yb_density(theta, t)
    points = _read_points(args.points, len(labels), labels)
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
                value, status = density(*row), "ok"
        else:
            if coeffs.in_wedge(row[0], row[1]):
                value, status = density(*row), "ok"
            else:
                value, status = 0.0, "outside-support"
        flagged += status != "ok"
        table.append([*(_fmt(c) for c in row), _fmt(value), status])
    out = _outdir(args)
    path = os.path.join(out, f"density_{which.replace('-', '_')}.csv")
    _write_rows(path, [*labels, "density", "status"], table, written)
    _status(f"wrote {path} ({len(table)} rows, {flagged} flagged)")
    return 1 if flagged else 0


# ---------------------------------------------------------------------------
# msd / exit-prob


def _emit_record(args, name: str, record: dict, written: list) -> None:
    out = _outdir(args)
    if args.format == "json":
        _write_json(os.path.join(out, f"{name}.json"), record, written)
    else:
        keys = list(record)
        values = [
            _fmt(record[k]) if isinstance(record[k], float) else str(record[k]) for k in keys
        ]
        _write_rows(os.path.join(out, f"{name}.csv"), keys, [values], written)
    _status(", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in record.items()))


def cmd_msd(args, written: list) -> int:
    alpha, theta, t, paths = args.alpha, args.theta, args.t_end, args.paths
    if paths < 0:
        raise CliError(f"--paths must be >= 0, got {paths}")
    if 0 < paths < 4:
        raise CliError(f"--paths must be 0 (closed form only) or >= 4, got {paths}")
    record = {"alpha": alpha, "theta": theta, "t": t, "msd": msd(alpha, theta, t)}
    if paths > 0:
        est = msd_estimate(alpha, theta, t, paths, SeedSpec(args.seed))
        record.update(
            {"estimate": est.value, "std_error": est.std_error, "paths": paths, "seed": args.seed}
        )
    _emit_record(args, "msd", record, written)
    return 0


def cmd_exit_prob(args, written: list) -> int:
    if args.paths < 2:
        raise CliError(f"--paths must be >= 2, got {args.paths}")
    est = exit_probability(
        args.theta, eps=args.eps, n_paths=args.paths, h=args.step_h, seed=SeedSpec(args.seed)
    )
    record = {
        "theta": args.theta,
        "eps": args.eps,
        "step_h": args.step_h,
        "paths": args.paths,
        "seed": args.seed,
        "estimate": est.value,
        "std_error": est.std_error,
        # not SkewCoefficients.beta_plus: a reference sharing the kernel's code moves with it
        "target": (1.0 + args.theta) / 2.0,
    }
    _emit_record(args, "exit_prob", record, written)
    return 0


# ---------------------------------------------------------------------------
# reverse


def cmd_reverse(args, written: list) -> int:
    theta, horizon, steps, paths = args.theta, args.horizon, args.steps, args.paths
    master, source = args.seed, args.terminal_from
    if paths < 1:
        raise CliError(f"--paths must be >= 1, got {paths}")
    grid = TimeGrid(horizon, steps)
    if source == "explicit":
        terminals = skew_transition_sample(theta, 0.0, horizon, SeedSpec(master), size=paths)
        streams = range(1, paths + 1)
        scheme = "terminals: SeedSpec(master); bridges: SeedSpec(master, 1 + path_id)"
    else:
        terminals = np.array(
            [
                simulate_skew_pair(theta, 0.0, grid, SeedSpec(master, i)).skew_B.terminal
                for i in range(paths)
            ]
        )
        streams = range(paths, 2 * paths)
        scheme = "forward walks: SeedSpec(master, path_id); bridges: SeedSpec(master, paths + path_id)"
    seeds = [SeedSpec(master, stream) for stream in streams]

    def blocks(start, stop):
        for lo in range(start, stop, _BRIDGE_BATCH):
            hi = min(lo + _BRIDGE_BATCH, stop)
            y, z, _ = reversed_bridge_ensemble(theta, terminals[lo:hi], grid, seeds[lo:hi])
            yield from zip(y, z)

    fields = {
        "theta": theta,
        "horizon": horizon,
        "terminal_from": source,
        "terminals": [float(v) for v in terminals],
        "seed_scheme": scheme,
    }
    _write_ensemble(
        args, written, "reverse", "reversed_paths.csv", ["s", "Y", "Z"], grid, blocks,
        _BRIDGE_WORKER_PATHS, fields, "reversed paths",
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _add_options(parser: argparse.ArgumentParser, func, names: str, read_by=(), **defaults) -> None:
    """Give the subcommand ``parser`` its command ``func``, the ``_OPTIONS`` in ``names`` and ``--config``.

    ``defaults`` override the table's for this subcommand, in its help and in
    ``_resolve``; ``read_by`` maps an option one choice value alone reads to that
    ``(choice, value)``, for its help and ``main``.  A flag not given parses to
    None, so a config value can fill it.  Choices show in the help but are
    checked in ``main``, for flags and config values alike.
    """
    own, gates = {}, {}
    for name in names.split():
        key = name.replace("-", "_")
        kind, default, choices, text = _OPTIONS[key]
        own[key] = default = defaults.get(key, default)
        shown = "" if default is None else f" [{default}]"
        if name in read_by:
            gates[key] = choice, value = read_by[name]
            shown += f"; read only by --{choice} {value}"
        metavar = "{" + ",".join(choices) + "}" if choices else None
        parser.add_argument(f"--{name}", dest=key, type=kind, metavar=metavar, help=text + shown)
    parser.add_argument("--config", help="KEY=VALUE config file; flags win over the file")
    parser.set_defaults(func=func, _defaults=own, _read_by=gates)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            "the manifest's non_solution_flag marks runs outside the solving regime."
        ),
    )
    _add_options(
        p, cmd_simulate,
        "family alpha theta x0 t-end steps paths seed window-a window-b out workers",
        read_by={"theta": ("family", "skew"), "window-a": ("family", "nonmarkov"),
                 "window-b": ("family", "nonmarkov")},
    )

    p = sub.add_parser(
        "verify",
        help="run a verification suite and write its JSON report",
        description=(
            "Run one of the named verification suites (or 'all').  Suites are "
            "protocol-pinned: seeds, meshes, and tolerances are frozen in the "
            "experiments module."
        ),
    )
    _add_options(p, cmd_verify, "suite out workers")

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
    _add_options(p, cmd_density, "which points theta t-end x0 out", read_by={"x0": ("which", "joint-bl")})

    p = sub.add_parser(
        "msd",
        help="closed-form mean-square displacement (MC cross-check with --paths > 0)",
    )
    _add_options(p, cmd_msd, "alpha theta t-end paths seed out format", paths=0)

    p = sub.add_parser(
        "exit-prob",
        help="Monte Carlo exit probability through +eps vs the (1+theta)/2 target",
    )
    _add_options(p, cmd_exit_prob, "theta eps step-h paths seed out format", paths=20_000)

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
    _add_options(p, cmd_reverse, "theta horizon terminal-from steps paths seed out workers")
    return parser


def main(argv=None) -> int:
    written: list = []
    try:
        args = build_parser().parse_args(argv)
        config = _parse_config_file(args.config) if args.config else {}
        seed_flag = getattr(args, "seed", None) is not None
        # the options this subcommand takes, each choice before the options its values gate
        for key in sorted(args._defaults, key=args._read_by.__contains__):
            name, gate = key.replace("_", "-"), args._read_by.get(key)
            if gate and getattr(args, gate[0]) != gate[1]:
                if getattr(args, key) is not None:
                    raise CliError(f"--{name} is read only by --{gate[0]} {gate[1]}")
                continue  # and its config key is ignored
            value = _resolve(args, key, config)
            choices = _OPTIONS[key][2]
            if choices is not None and value not in choices:
                problem = f"--{name} is required" if value is None else f"unknown {name} {value!r}"
                raise CliError(f"{problem}; choose from {', '.join(choices)}")
            setattr(args, key, value)
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise CliError(f"--seed must be from 0 to 2**64 - 1, got {args.seed}")
        if seed_flag and args.func is cmd_msd and args.paths == 0:  # the closed form draws nothing
            raise CliError("--seed is read only by --paths > 0")
        workers = getattr(args, "workers", None)
        limit = WORKERS_PER_CPU * len(os.sched_getaffinity(0))
        if workers is not None and not 1 <= workers <= limit:
            raise CliError(
                f"--workers must be from 1 to {limit} ({WORKERS_PER_CPU} per available CPU), "
                f"got {workers}"
            )
        # a library warning is one line, not a source excerpt, printed only if no error follows it
        with warnings.catch_warnings(record=True) as caught:
            code = args.func(args, written)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return code
    except KeyboardInterrupt:
        message = "interrupted"
    except (CliError, ValueError, OSError, MemoryError) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):
            message = f"out of memory ({message})" if message else "out of memory"
    print(f"error: {message}", file=sys.stderr)
    for path in written:
        with contextlib.suppress(OSError):
            os.unlink(path)
    return 2


if __name__ == "__main__":
    sys.exit(main())
