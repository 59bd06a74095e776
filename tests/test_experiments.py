"""The verify scheduler and the checks' pass rules.

Check units run over forked workers and their reports come back in registry
order; each check's pass rule is tested on hand-made kernel output.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hdp_lab import experiments
from hdp_lab.cli import main
from hdp_lab.experiments import SUITES, _check, run_suite
from hdp_lab.stats import VerificationReport


def _report(name, passed=True):
    return VerificationReport(
        check_name=name, measured=0.0, reference=0.0, tolerance=0.0, passed=passed, metadata={}
    )


def _without_elapsed(reports):
    """The reports as the JSON verify output holds them, without their wall-clock stamps."""
    records = json.loads(json.dumps([report.to_dict() for report in reports]))
    for record in records:
        del record["metadata"]["elapsed_s"]
    return records


def _sleepy(delay, name):
    time.sleep(delay)
    return [_report(name)]


def _raising(error):
    if error is not None:
        raise error("unit failed")
    return [_report("fine")]


def _dying(code):
    if code:
        os._exit(code)
    return [_report("survivor")]


def _verdict(passed):
    return [_report(f"passed={passed}", passed)]


class _Clock:
    """A ``time`` stand-in whose every reading is a quarter second after the last."""

    def __init__(self):
        self._ticks = itertools.count(0.0, 0.25)

    def perf_counter(self):
        return next(self._ticks)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recorded_one_worker_run(suite):
    """The suite's reports in the golden verify file, recorded with every unit run in one process."""
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden" / "verify.json").read_text())
    for record in golden[suite]:
        record["metadata"].pop("elapsed_s", None)
    return golden[suite]


@pytest.mark.parametrize("suite", ["msd", "heat", "exit-prob"])
def test_two_workers_match_one_worker(suite):
    got = _without_elapsed(run_suite(suite, workers=2))
    if suite == "exit-prob":  # a second run of its four units would double the test's time
        want = _recorded_one_worker_run(suite)
    else:
        want = _without_elapsed(run_suite(suite, workers=1))
    assert got == want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_reports_come_back_in_registry_order(monkeypatch, workers):
    # the first unit finishes last when it has a worker of its own
    slow_first = _check((0.4, "a0"), (0.0, "a1"))(_sleepy)
    second = _check((0.0, "b0"), (0.1, "b1"), (0.0, "b2"))(_sleepy)
    monkeypatch.setitem(SUITES, "heat", [slow_first, second])
    names = [r.check_name for r in run_suite("heat", workers=workers)]
    assert names == ["a0", "a1", "b0", "b1", "b2"]


def test_units_are_dealt_heaviest_first_into_the_lightest_share(monkeypatch):
    dealt = []

    def in_process(work, shares):
        dealt.extend(shares)
        return [work(share) for share in shares]

    monkeypatch.setattr(experiments, "_fork_map", in_process)
    light = _check((0.0, "a0"), (0.0, "a1"))(_sleepy)
    heavy = _check((0.0, "b0"), (0.0, "b1"), (0.0, "b2"), seconds=(0.5, 7.0, 0.5))(_sleepy)
    monkeypatch.setitem(SUITES, "heat", [light, heavy])
    names = [r.check_name for r in run_suite("heat", workers=2)]
    # b1 (7 s) comes first; the rest, heaviest first and ties in registry order,
    # all join the share that stays the lighter, though it holds more units;
    # the lighter share comes first, for this process to run
    assert dealt == [[(heavy, 0), (heavy, 2), (light, 0), (light, 1)], [(heavy, 1)]]
    assert names == ["a0", "a1", "b0", "b1", "b2"]


def test_each_unit_joins_the_lightest_share_ties_the_one_with_fewer_units():
    weighted = _check(*[(0.0, f"u{i}") for i in range(4)], seconds=(1.0, 3.0, 2.0, 2.0))(_sleepy)
    equal = _check(*[(0.0, f"e{i}") for i in range(6)])(_sleepy)
    u = [(weighted, i) for i in range(4)]
    # u1 (3 s) | u2 (2 s); u3 joins the 2 s share, then u0 the 3 s one: 4 s each,
    # and equal loads keep their order
    assert experiments._deal(u, 2) == [[u[1], u[0]], [u[2], u[3]]]
    assert experiments._deal(u[1:], 2) == [[u[1]], [u[2], u[3]]]
    e = [(equal, i) for i in range(6)]
    assert experiments._deal(e, 2) == [[e[0], e[2], e[4]], [e[1], e[3], e[5]]]
    assert experiments._deal(e, 4) == [[e[0], e[4]], [e[1], e[5]], [e[2]], [e[3]]]


def test_the_registry_pairs_chain_rule_units_and_splits_msd_evenly():
    chain = [(SUITES["chain-rule"][0], i) for i in range(3)]  # theta = 0, 0.5, 1
    assert experiments._deal(chain, 2) == [[chain[1]], [chain[0], chain[2]]]
    pv = [(SUITES["pv"][0], i) for i in range(2)]  # theta = 0 (4.1 s) runs here, 0.5 (4.6 s) in a worker
    assert experiments._deal(pv, 2) == [[pv[0]], [pv[1]]]
    msd = [(SUITES["msd"][0], i) for i in range(6)]
    assert [len(share) for share in experiments._deal(msd, 2)] == [3, 3]


def test_every_check_has_one_measured_time_per_unit():
    for checks in SUITES.values():
        for check in checks:
            assert len(check.unit_seconds) == check.n_units, check.__name__


@pytest.mark.parametrize("workers", [1, 2])
def test_elapsed_is_the_sum_of_unit_seconds(monkeypatch, workers):
    monkeypatch.setattr(experiments, "time", _Clock())  # every unit takes 0.25 s
    three = _check((0.0, "a"), (0.0, "b"), (0.0, "c"))(_sleepy)
    one = _check((0.0, "d"),)(_sleepy)
    monkeypatch.setitem(SUITES, "heat", [three, one])
    reports = run_suite("heat", workers=workers)
    assert [r.metadata["elapsed_s"] for r in reports] == [0.75, 0.75, 0.75, 0.25]


def test_bad_worker_count_rejected():
    with pytest.raises(ValueError, match="workers"):
        run_suite("msd", workers=0)


class TestWorkerFailures:
    def test_value_error_in_worker_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(SUITES, "heat", [_check((None,), (ValueError,))(_raising)])
        assert main(["verify", "--suite", "heat", "--workers", "2", "--out", str(tmp_path)]) == 2
        assert "error: unit failed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        _no_child_left()

    def test_other_exception_in_worker_reaches_parent(self, monkeypatch):
        monkeypatch.setitem(SUITES, "heat", [_check((None,), (ZeroDivisionError,))(_raising)])
        with pytest.raises(ZeroDivisionError, match="unit failed"):
            run_suite("heat", workers=2)
        _no_child_left()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_key_error_in_check_reaches_caller(self, monkeypatch, tmp_path, workers):
        # a crashing check is not an unknown suite name
        monkeypatch.setitem(SUITES, "heat", [_check((None,), (KeyError,))(_raising)])
        with pytest.raises(KeyError, match="unit failed"):
            main(["verify", "--suite", "heat", "--workers", workers, "--out", str(tmp_path)])
        assert not list(tmp_path.glob("verify_*.json"))
        _no_child_left()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_memory_error_in_check_exits_2(self, monkeypatch, tmp_path, capsys, workers):
        monkeypatch.setitem(SUITES, "heat", [_check((None,), (MemoryError,))(_raising)])
        argv = ["verify", "--suite", "heat", "--workers", workers, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: out of memory (unit failed)\n"
        assert not list(tmp_path.iterdir())
        _no_child_left()

    def test_failed_verdict_from_worker_exits_1(self, monkeypatch, tmp_path):
        monkeypatch.setitem(SUITES, "heat", [_check((True,), (False,))(_verdict)])
        assert main(["verify", "--suite", "heat", "--workers", "2", "--out", str(tmp_path)]) == 1
        assert (tmp_path / "verify_heat.json").is_file()

    def test_dead_worker_gives_one_line_and_no_report(self, monkeypatch, tmp_path, capsys):
        # Both units weigh 0 s, so the tie rule deals unit 0 to the first share,
        # which this process runs (equal loads keep their order), and the dying
        # unit 1 to the second, a forked worker: its os._exit ends that worker,
        # never the test run.
        monkeypatch.setitem(SUITES, "heat", [_check((0,), (3,))(_dying)])
        assert main(["verify", "--suite", "heat", "--workers", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.glob("verify_*.json"))
        _no_child_left()


def test_no_child_process_left_after_verify(tmp_path):
    assert main(["verify", "--suite", "msd", "--workers", "2", "--out", str(tmp_path)]) == 0
    _no_child_left()


def test_cli_import_leaves_the_pool_modules_unloaded():
    code = (
        "import sys, hdp_lab.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestVerdictRules:
    """Each check's pass rule on hand-made kernel output, the sampling stubbed out."""

    @pytest.mark.parametrize(
        "theta_unit, profile, passed",
        [
            (0, [1.0, 1.0, 1.0, 1.0], True),  # theta = 0: flat is Cauchy
            (0, [1.0, 1.25, 1.5, 1.75], True),  # rising, every step below 0.5
            (0, [1.0, 1.25, 2.0, 2.25], False),  # one step of 0.75
            (1, [1.0, 1.0, 1.0, 1.0], False),  # theta = 0.5: flat does not drift
            (1, [1.0, 2.0, 3.0, 4.0], True),  # one-signed, rising beyond 0.5
            (1, [4.0, 3.0, 2.0, 1.0], True),  # one-signed, falling beyond 0.5
            (1, [1.0, 1.25, 1.5, 1.75], False),  # one-signed, but Cauchy within 0.5
            (1, [1.0, 2.0, 1.5, 3.0], False),  # mixed signs
        ],
    )
    def test_pv_truncation(self, monkeypatch, theta_unit, profile, passed):
        monkeypatch.setattr(experiments, "sample_brownian", lambda grid, seed: None)
        monkeypatch.setattr(
            experiments, "simulate_skew_pair", lambda *args: SimpleNamespace(skew_B=None)
        )
        monkeypatch.setattr(experiments, "pv_integral", lambda path, p, eps: np.array(profile))
        (report,) = experiments.check_pv_truncation(theta_unit)
        assert report.passed is passed
        assert report.measured == np.max(np.abs(np.diff(profile)))
        assert report.metadata["profile"] == profile

    @pytest.mark.parametrize(
        "sups, passed",
        [
            ([2.0, 1.0, 0.5], True),  # shrinking
            ([2.0, 1.0, 1.0], True),  # ties at the floor after a drop
            ([1.0, 1.0, 1.0], False),  # flat: no overall drop
            ([1.0, 2.0, 3.0], False),  # rising
            ([2.0, 0.5, 1.0], False),  # mixed, though the last is below the first
        ],
    )
    def test_mollified_bracket_convergence(self, monkeypatch, sups, passed):
        monkeypatch.setattr(experiments, "simulate_skew_pair", lambda *args: None)
        monkeypatch.setattr(experiments, "bracket_convergence", lambda f, coupled, w: np.array(sups))
        (report,) = experiments.check_mollified_bracket_convergence(1)
        assert report.passed is passed
        assert (report.measured, report.tolerance) == (sups[-1], sups[0])
