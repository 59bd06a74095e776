"""Acceptance gate: every advertised identity at its frozen desk-scale protocol.

Each experiment runs once per session (module-scoped fixtures) with the
seeds, ensemble sizes, meshes, and tolerances pinned in
``hdp_lab.experiments``; a test asserts one pass/fail verdict per criterion,
and the experiments with runtime budgets assert those from the stamped
wall-clock metadata.  Every report must also equal its entry in the
recorded golden verify output, apart from the ``elapsed_s`` stamp, so a
refactor that moves any reported value fails here.
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


@pytest.fixture(scope="module")
def exit_probability_reports():
    return experiments.check_exit_probabilities()


@pytest.fixture(scope="module")
def msd_reports():
    return experiments.check_mean_square_displacement()


@pytest.fixture(scope="module")
def benchmark_refinement_reports():
    return experiments.check_benchmark_residual_refinement()


@pytest.fixture(scope="module")
def reversal_reports():
    return experiments.check_time_reversal()


def test_exit_probabilities_match_skew_split(exit_probability_reports):
    _require_all(exit_probability_reports)


def test_exit_probability_runtime_budget(exit_probability_reports):
    assert exit_probability_reports[0].metadata["elapsed_s"] < 120.0


def test_mean_square_displacement_matches_closed_form(msd_reports):
    _require_all(msd_reports)


def test_mean_square_displacement_runtime_budget(msd_reports):
    assert msd_reports[0].metadata["elapsed_s"] < 60.0


def test_benchmark_residual_shrinks_under_refinement(benchmark_refinement_reports):
    _require_all(benchmark_refinement_reports)


def test_benchmark_refinement_runtime_budget(benchmark_refinement_reports):
    assert benchmark_refinement_reports[0].metadata["elapsed_s"] < 300.0


def test_skew_residual_shrinks_under_refinement():
    _require_all(experiments.check_skew_residual_refinement())


def test_alpha_zero_defect_grows_like_theta_local_time():
    _require_all(experiments.check_alpha_zero_defect_slope())


def test_sign_bracket_recovers_twice_local_time():
    _require_all(experiments.check_sign_bracket_local_time())


def test_mollified_brackets_converge():
    _require_all(experiments.check_mollified_bracket_convergence())


def test_joint_densities_normalize_and_marginalize():
    _require_all(experiments.check_density_normalizations())


def test_density_solves_heat_identity():
    _require_all(experiments.check_heat_identity())


def test_reversed_ensembles_match_forward_marginals(reversal_reports):
    _require_all(reversal_reports)


def test_time_reversal_runtime_budget(reversal_reports):
    assert reversal_reports[0].metadata["elapsed_s"] < 300.0


def test_pv_truncations_stabilize_only_without_skew():
    _require_all(experiments.check_pv_truncation())


def test_power_transform_recovers_reflected_law():
    _require_all(experiments.check_power_transform_law())


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
