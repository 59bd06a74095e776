"""The CLI's exit contract as a property: any argv drawn from the parser's own options exits 0, 1
or 2; a 2 is one ``error:`` line and leaves no file; a 0 or 1 writes only finite numbers, bar the
rows its status column flags."""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hdp_lab import cli

#: the options each subcommand takes, by config key, read from the parser itself
(_SUBPARSERS,) = [
    action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
]
OPTIONS = {
    name: [action.dest for action in parser._actions if action.dest in cli._OPTIONS]
    for name, parser in _SUBPARSERS.choices.items()
}

#: values that are wrong, or at the edge, for any float option: 0, negative, +-inf, nan, huge,
#: tiny and non-numeric
EDGE_FLOATS = ["0", "-1", "inf", "-inf", "nan", "1e308", "5e-324", "abc"]

#: typical values where the option's range is narrower than [-1, 1]: positive scales, and the
#: exit-prob band and step kept to a few lattice sites so the walks end fast
TYPICAL = {
    "t_end": ["1", "0.3"],
    "horizon": ["1", "2.5"],
    "eps": ["0.1", "0.05"],
    "step_h": ["1e-3", "1e-4"],
    "window_a": ["0.5", "0.2"],
    "window_b": ["0.5", "0.7"],
}


def _values(key: str) -> tuple:
    """Strategies for the typical and the edge values of one option, as command-line text."""
    choices = cli._OPTIONS[key][2]
    if choices:
        return st.sampled_from(choices), st.just("bogus")
    if key == "steps":  # sizes stay small: steps <= 50, paths <= 4
        return st.integers(1, 50).map(str), st.sampled_from(["0", "-3", "abc"])
    if key == "paths":
        return st.integers(1, 4).map(str), st.sampled_from(["0", "-2", "abc"])
    if key == "workers":
        return st.sampled_from(["1", "2"]), st.sampled_from(["1", "2"])
    if key == "seed":
        return st.integers(0, 2**64 - 1).map(str), st.sampled_from(["-1", str(2**64), "abc"])
    if key in TYPICAL:
        return st.sampled_from(TYPICAL[key]), st.sampled_from(EDGE_FLOATS)
    return st.floats(-1.0, 1.0).map(repr), st.sampled_from(EDGE_FLOATS)


#: cells of a density points file
CELLS = st.floats(-3.0, 3.0).map(repr) | st.sampled_from(["0", "-1", "inf", "nan", "1e308", "5e-324"])


@st.composite
def runs(draw):
    """``(argv, config lines, HDP_LAB_SEED or None, points rows)`` for one command.

    Each option of the drawn subcommand is left out or given, as a flag or
    as a config key.  ``verify`` is drawn only with a bad ``--suite`` or a bad
    ``--workers``, so no suite runs.  ``points`` names the points file as
    ``{points}``; its rows are drawn to the column count of the drawn ``which``.
    """
    subcommand = draw(st.sampled_from(sorted(OPTIONS)))
    given_values = {}
    if subcommand == "verify":
        suite = draw(st.sampled_from([None, "bogus", "msd"]))
        if suite is not None:
            given_values["suite"] = suite
        workers = ["0", "-1", "abc", "100000"] if suite == "msd" else [None, "1", "2"]
        workers = draw(st.sampled_from(workers))
        if workers is not None:
            given_values["workers"] = workers
    else:
        for key in OPTIONS[subcommand]:
            if key in ("out", "points"):
                continue
            typical, edge = _values(key)
            pick = draw(st.integers(0, 9))  # left out 3 times in 10, an edge value 1 time in 10
            if pick >= 3:
                given_values[key] = draw(edge if pick == 9 else typical)
        if "points" in OPTIONS[subcommand] and draw(st.integers(0, 5)):
            given_values["points"] = "{points}"  # the file's path, filled in by the test
    argv, config = [subcommand], []
    for key, value in given_values.items():
        if draw(st.booleans()):
            argv += [f"--{key.replace('_', '-')}", value]
        else:
            config.append(f"{key}={value}")
    env_seed = draw(st.none() | st.one_of(_values("seed")))
    columns = {"joint-bl": 2, "joint-yb": 2}.get(given_values.get("which"), 1)
    rows = draw(st.lists(st.lists(CELLS, min_size=columns, max_size=columns), min_size=1, max_size=3))
    return argv, config, env_seed, rows


def _no_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def _check_csv(path: Path) -> None:
    """Every number is finite, unless the row's status column flags it."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    status = header.index("status") if "status" in header else None
    for row in rows:
        if status is not None and row[status] != "ok":
            continue
        for name, cell in zip(header, row):
            try:
                number = float(cell)
            except ValueError:
                continue  # a text field: a status, or a msd/exit-prob record's
            assert math.isfinite(number), f"{path.name}: {name}={cell} in {row}"


@settings(max_examples=160)
@given(run=runs())
# a theta whose square underflows made joint-yb write nan as "ok": now it exits 2
@example(run=(["density"], ["which=joint-yb", "theta=2.225073858507203e-309", "points={points}"], None, [["1", "0"]]))
# inf * 0 past the float range made both joint densities write nan as "ok": now 0
@example(run=(["density", "--which", "joint-bl", "--t-end", "1e-100"], ["points={points}"], None, [["1e200", "1"]]))
@example(run=(["density", "--which", "joint-yb", "--points", "{points}"], [], None, [["1e308", "0.1"]]))
# a horizon whose step rounds to 0 raised ZeroDivisionError out of main: now it exits 2
@example(run=(["simulate"], ["family=skew", "t_end=5e-324"], None, [["0"]]))
# the bridge's local time overflowed on a 1e308 horizon and reverse wrote nan: now it exits 2
@example(run=(["reverse"], ["horizon=1e308", "steps=1"], None, [["0"]]))
def test_every_run_keeps_the_exit_contract(run):
    argv, config, env_seed, rows = run
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        points, config_file = work / "points.csv", work / "run.cfg"
        points.write_text("".join(",".join(row) + "\n" for row in rows))
        config_file.write_text("".join(line.format(points=points) + "\n" for line in config))
        inputs = {points.name, config_file.name}
        argv = [arg.format(points=points) for arg in argv]
        argv += ["--config", str(config_file), "--out", str(work / "out")]
        err = io.StringIO()
        with mock.patch.dict(os.environ), warnings.catch_warnings(record=True) as caught:
            os.environ.pop("HDP_LAB_SEED", None)
            if env_seed is not None:
                os.environ["HDP_LAB_SEED"] = env_seed
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 1, 2)
        event(f"{argv[0]} exits {code}")
        written = sorted(str(p.relative_to(work)) for p in work.rglob("*") if p.is_file())
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
            assert "expected one argument" not in lines[0]  # every drawn value is a value, "-1e-05" too
            assert not caught, [str(w.message) for w in caught]  # the CLI prints a warning to stderr
            assert set(written) <= inputs
            return
        for name in written:
            path = work / name
            if path.suffix == ".csv" and name not in inputs:
                _check_csv(path)
            elif path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_no_constant)
