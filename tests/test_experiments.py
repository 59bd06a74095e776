"""The verify scheduler: check units over forked workers, reports in registry order."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

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
    records = [report.to_dict() for report in reports]
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


@pytest.mark.parametrize("suite", ["msd", "heat", "exit-prob"])
def test_two_workers_match_one_worker(suite):
    assert _without_elapsed(run_suite(suite, workers=2)) == _without_elapsed(
        run_suite(suite, workers=1)
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_reports_come_back_in_registry_order(monkeypatch, workers):
    # the first unit finishes last when it has a worker of its own
    slow_first = _check((0.4, "a0"), (0.0, "a1"))(_sleepy)
    second = _check((0.0, "b0"), (0.1, "b1"), (0.0, "b2"))(_sleepy)
    monkeypatch.setitem(SUITES, "heat", [slow_first, second])
    names = [r.check_name for r in run_suite("heat", workers=workers)]
    assert names == ["a0", "a1", "b0", "b1", "b2"]


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

    def test_failed_verdict_from_worker_exits_1(self, monkeypatch, tmp_path):
        monkeypatch.setitem(SUITES, "heat", [_check((True,), (False,))(_verdict)])
        assert main(["verify", "--suite", "heat", "--workers", "2", "--out", str(tmp_path)]) == 1
        assert (tmp_path / "verify_heat.json").is_file()

    def test_dead_worker_gives_one_line_and_no_report(self, monkeypatch, tmp_path, capsys):
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
