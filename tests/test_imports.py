"""What a command loads: scipy only in the verify checks that call it, before their pool forks."""

import contextlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hdp_lab import experiments
from hdp_lab.experiments import SUITES, _check, run_suite
from hdp_lab.stats import VerificationReport

SRC = str(Path(__file__).parents[1] / "src")


def _python(code: str, cwd) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter importing the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


@pytest.mark.parametrize("module", ["hdp_lab", "hdp_lab.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python(code, tmp_path).strip() == "[]"


#: commands that must run without scipy, each with the exit code it gives
SCIPY_FREE_COMMANDS = [
    (["simulate", "--family", "skew", "--paths", "2", "--steps", "20"], 0),
    (["reverse", "--paths", "2", "--steps", "20"], 0),
    (["msd", "--theta", "0.5", "--paths", "100"], 0),
    (["exit-prob", "--theta", "0.5", "--paths", "50", "--step-h", "1e-3"], 0),
    (["density", "--which", "skew", "--theta", "0.5", "--points", "b.csv"], 0),
    (["density", "--which", "joint-bl", "--theta", "0.5", "--points", "bl.csv"], 0),
    (["density", "--which", "joint-yb", "--theta", "0.5", "--points", "yb.csv"], 0),
    (["verify", "--suite", "msd"], 0),
    (["verify", "--suite", "heat"], 0),
]


def test_scipy_free_commands_load_no_scipy(tmp_path):
    (tmp_path / "b.csv").write_text("b\n-0.5\n0.3\n")
    (tmp_path / "bl.csv").write_text("b,l\n0.2,0.4\n")
    (tmp_path / "yb.csv").write_text("y,z\n0.5,0.1\n")
    commands = [[*argv, "--workers", "1", "--out", "out"] for argv, _ in SCIPY_FREE_COMMANDS]
    code = (
        "import contextlib, io, json, sys\n"
        "from hdp_lab.cli import main\n"
        "loaded = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    loaded.append([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')])\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(_python(code, tmp_path))
    assert loaded == [[rc, []] for _, rc in SCIPY_FREE_COMMANDS]


def test_forked_ensembles_load_no_executor(tmp_path):
    """simulate and reverse fork their workers without concurrent.futures."""
    commands = [
        ["simulate", "--family", "skew", "--paths", "2", "--steps", "20", "--workers", "2", "--out", "sim"],
        ["reverse", "--paths", "2", "--steps", "20", "--workers", "2", "--out", "rev"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from hdp_lab.cli import main\n"
        "loaded = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    loaded.append([code, sorted(m for m in sys.modules if m.startswith('concurrent'))])\n"
        "print(json.dumps(loaded))\n"
    )
    assert json.loads(_python(code, tmp_path)) == [[0, []], [0, []]]
    assert sorted(p.name for p in (tmp_path / "rev").iterdir()) == ["manifest.json", "reversed_paths.csv"]


def test_verify_parent_imports_declared_modules_before_the_pool_forks(tmp_path):
    """The real scipy suites, with a stand-in pool that notes what is loaded when it would fork."""
    code = (
        "import contextlib, json, sys\n"
        "from hdp_lab import experiments\n"
        "from hdp_lab.stats import VerificationReport\n"
        "seen = {}\n"
        "@contextlib.contextmanager\n"
        "def stand_in_pool(workers, what):\n"
        "    class Pool:\n"
        "        def map(self, fn, units):\n"
        "            return [[VerificationReport('unit', 0.0, 0.0, 0.0, True, {'elapsed_s': 0.0})]\n"
        "                    for _ in units]\n"
        "    seen[suite] = sorted(m for m in sys.modules if m in ('scipy.special', 'scipy.integrate'))\n"
        "    yield Pool()\n"
        "experiments._fork_pool = stand_in_pool\n"
        "seen['before'] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "for suite in ('reversal', 'densities', 'chain-rule'):\n"
        "    experiments.run_suite(suite, workers=2)\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(_python(code, tmp_path))
    assert seen["before"] == []
    assert "scipy.special" in seen["reversal"]
    assert "scipy.integrate" in seen["densities"]
    assert "scipy.special" in seen["chain-rule"]


def test_every_scipy_check_declares_its_imports():
    declared = {
        check.__name__: check.imports for checks in SUITES.values() for check in checks if check.imports
    }
    assert declared == {
        "check_density_normalizations": ("scipy.integrate",),
        "check_time_reversal": ("scipy.special",),
        "check_power_transform_law": ("scipy.special",),
    }


def _unit(events, name):
    events.append(f"unit {name}")
    return [VerificationReport(name, 0.0, 0.0, 0.0, True, {})]


@pytest.mark.parametrize("workers", [1, 2])
def test_declared_imports_come_first_and_once(monkeypatch, workers):
    events = []

    def spy_import(name):
        events.append(f"import {name}")

    @contextlib.contextmanager
    def stand_in_pool(size, what):
        events.append(f"fork {size}")

        class Pool:
            def map(self, fn, units):
                return [fn(unit) for unit in units]

        yield Pool()

    monkeypatch.setattr(importlib, "import_module", spy_import)
    monkeypatch.setattr(experiments, "_fork_pool", stand_in_pool)
    first = _check((events, "a"), imports=("json", "csv"))(_unit)
    second = _check((events, "b"), imports=("json",))(_unit)
    monkeypatch.setitem(SUITES, "heat", [first, second])
    run_suite("heat", workers=workers)
    forks = ["fork 2"] if workers == 2 else []
    assert events == ["import csv", "import json", *forks, "unit a", "unit b"]
