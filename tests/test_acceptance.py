"""Acceptance gate: every advertised identity at its frozen desk-scale protocol.

Every check runs once per session, through one ``run_suite("all")`` at the
default worker count, with the seeds, ensemble sizes, meshes, and
tolerances pinned in ``hdp_lab.experiments``; a test asserts one pass/fail
verdict per criterion, and the experiments with runtime budgets assert
those from the stamped ``elapsed_s`` (the sum of the check's unit times).
Every report must also equal its entry in the recorded golden verify
output, apart from the ``elapsed_s`` stamp, so a refactor that moves any
reported value fails here.
"""

import json
from pathlib import Path

import pytest

from hdp_lab import experiments
from hdp_lab.experiments import SUITES, run_suite


_GOLDEN = {
    report["check_name"]: report
    for suite in json.loads(
        (Path(__file__).parents[1] / "perfbench" / "golden" / "verify.json").read_text()
    ).values()
    for report in suite
}


def _as_recorded(report):
    """A report as the JSON verify output holds it, without its wall-clock stamp."""
    record = json.loads(json.dumps(report.to_dict()))
    record["metadata"].pop("elapsed_s", None)
    return record


def _require_all(reports):
    changed = [r.check_name for r in reports if _as_recorded(r) != _GOLDEN.get(r.check_name)]
    assert not changed, "reports differ from the golden verify output:\n" + "\n".join(changed)
    failures = [
        f"{r.check_name}: measured={r.measured!r}, reference={r.reference!r}, "
        f"tolerance={r.tolerance!r}, rule={r.metadata.get('rule')}"
        for r in reports
        if not r.passed
    ]
    assert not failures, "failed checks:\n" + "\n".join(failures)


@pytest.fixture(scope="session")
def all_reports():
    return run_suite("all")


def _reports(all_reports, *prefixes):
    """The reports of one check, picked by the prefixes of its report names."""
    picked = [r for r in all_reports if r.check_name.startswith(prefixes)]
    assert picked, f"no report named {prefixes}"
    return picked


def test_every_golden_report_is_produced_once(all_reports):
    assert sorted(r.check_name for r in all_reports) == sorted(_GOLDEN)


def test_exit_probabilities_match_skew_split(all_reports):
    _require_all(_reports(all_reports, "exit probability"))


def test_exit_probability_runtime_budget(all_reports):
    assert _reports(all_reports, "exit probability")[0].metadata["elapsed_s"] < 120.0


def test_mean_square_displacement_matches_closed_form(all_reports):
    _require_all(_reports(all_reports, "mean-square displacement"))


def test_mean_square_displacement_runtime_budget(all_reports):
    assert _reports(all_reports, "mean-square displacement")[0].metadata["elapsed_s"] < 60.0


def test_benchmark_residual_shrinks_under_refinement(all_reports):
    _require_all(_reports(all_reports, "benchmark residual refinement"))


def test_benchmark_refinement_runtime_budget(all_reports):
    assert _reports(all_reports, "benchmark residual refinement")[0].metadata["elapsed_s"] < 300.0


def test_skew_residual_shrinks_under_refinement(all_reports):
    _require_all(_reports(all_reports, "skew residual refinement"))


def test_alpha_zero_defect_grows_like_theta_local_time(all_reports):
    _require_all(_reports(all_reports, "alpha=0 defect slope"))


def test_sign_bracket_recovers_twice_local_time(all_reports):
    _require_all(_reports(all_reports, "sign bracket vs local time"))


def test_mollified_brackets_converge(all_reports):
    _require_all(_reports(all_reports, "mollified bracket convergence"))


def test_joint_densities_normalize_and_marginalize(all_reports):
    _require_all(_reports(all_reports, "joint density masses", "(Y, B) z-marginal"))


def test_density_solves_heat_identity(all_reports):
    _require_all(_reports(all_reports, "heat identity"))


def test_reversed_ensembles_match_forward_marginals(all_reports):
    _require_all(_reports(all_reports, "time reversal"))


def test_time_reversal_runtime_budget(all_reports):
    assert _reports(all_reports, "time reversal")[0].metadata["elapsed_s"] < 300.0


def test_pv_truncations_stabilize_only_without_skew(all_reports):
    _require_all(_reports(all_reports, "pv truncation"))


def test_power_transform_recovers_reflected_law(all_reports):
    _require_all(_reports(all_reports, "power-transform law"))


class TestSuiteRegistry:
    def test_every_check_is_registered_exactly_once(self):
        registered = [check for checks in SUITES.values() for check in checks]
        exported = [
            getattr(experiments, name)
            for name in dir(experiments)
            if name.startswith("check_")
        ]
        assert sorted(c.__name__ for c in registered) == sorted(
            c.__name__ for c in exported
        )
        assert len(registered) == len(set(registered)) == 12

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError, match="unknown suite"):
            run_suite("nope")
