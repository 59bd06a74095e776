"""Estimators, the KS machinery, exit probabilities, refinement studies."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from hdp_lab import (
    SeedSpec,
    convergence_study,
    exit_probability,
    ks_test,
    mc_mean_ci,
    variance_with_se,
)
from hdp_lab.stats import VerificationReport, ks_statistic, report_within_tolerance


class TestEstimators:
    def test_mc_mean_ci_literal(self):
        est = mc_mean_ci([1.0, 2.0, 3.0, 4.0])
        assert est.value == 2.5
        assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
        assert est.n_samples == 4

    def test_mc_mean_ci_needs_two(self):
        with pytest.raises(ValueError):
            mc_mean_ci([1.0])

    def test_variance_with_se_literal(self):
        est = variance_with_se([0.0, 1.0, 2.0, 3.0])
        assert est.value == pytest.approx(5.0 / 3.0)
        # m4 = 2.5625 < s^4 here, so the clamped standard error is exactly 0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("big", [1e100, 1e160, np.inf])
    def test_variance_with_se_rejects_moments_beyond_float_range(self, big):
        with pytest.raises(ValueError, match="not finite"):
            variance_with_se(np.array([big, -big, 1.0, 0.0]))

    def test_variance_with_se_on_normal_draws(self):
        draws = SeedSpec(81).generator().standard_normal(50_000)
        est = variance_with_se(draws)
        assert abs(est.value - 1.0) < 3.0 * est.std_error
        assert est.std_error == pytest.approx(np.sqrt(2.0 / draws.size), rel=0.1)


class TestReports:
    def test_within_tolerance_pass_and_fail(self):
        good = report_within_tolerance("demo", 1.05, 1.0, 0.1, note="x")
        bad = report_within_tolerance("demo", 1.2, 1.0, 0.1)
        assert good.passed and not bad.passed
        assert good.metadata == {"note": "x"}

    def test_to_dict_uses_pass_key(self):
        report = VerificationReport("demo", 1.0, 1.0, 0.0, True, {})
        assert report.to_dict()["pass"] is True


class TestKolmogorovSmirnov:
    def test_single_sample_closed_form(self):
        for x in (-1.3, 0.0, 0.4, 2.2):
            expected = max(ndtr(x), 1.0 - ndtr(x))
            assert ks_statistic([x], lambda v: ndtr(v)) == pytest.approx(expected)

    def test_statistic_zero_free_cases(self):
        # empirical cdf of {0.5} under Uniform(0,1) attains D = 0.5 at the atom
        assert ks_statistic([0.5], lambda v: np.clip(v, 0.0, 1.0)) == pytest.approx(0.5)

    def test_invalid_cdf_rejected(self):
        with pytest.raises(ValueError, match="invalid cdf"):
            ks_statistic([0.1, 0.2], lambda v: -v)

    def test_p_value_needs_ten_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.linspace(0.1, 0.9, 9), lambda v: np.clip(v, 0.0, 1.0))

    def test_null_rejection_rate_near_level(self):
        rejections = 0
        for i in range(500):
            u = SeedSpec(82, i).generator().random(200)
            _, p = ks_test(u, lambda v: np.clip(v, 0.0, 1.0))
            rejections += p < 0.01
        # Binomial(500, 0.01): mean 5, sd 2.2; the frozen seed family gives a
        # stable count well inside [0, 14]
        assert rejections <= 14

    def test_detects_wrong_distribution(self):
        draws = 0.5 * SeedSpec(83).generator().standard_normal(2000)
        _, p = ks_test(draws, lambda v: ndtr(v))
        assert p < 1e-6


class TestExitProbability:
    def test_full_skew_exits_high_with_certainty(self):
        est = exit_probability(1.0, eps=0.1, n_paths=200, h=1e-4, seed=SeedSpec(84))
        assert est.value == 1.0

    def test_symmetric_case_matches_half(self):
        est = exit_probability(0.0, eps=0.1, n_paths=2000, h=1e-4, seed=SeedSpec(85))
        assert abs(est.value - 0.5) <= 3.0 * est.std_error

    def test_validation(self):
        with pytest.raises(ValueError):
            exit_probability(2.0, eps=0.1, n_paths=10, h=1e-4, seed=SeedSpec(1))
        with pytest.raises(ValueError):
            exit_probability(0.5, eps=0.0, n_paths=10, h=1e-4, seed=SeedSpec(1))

    @pytest.mark.parametrize("eps, h", [(1.0, 1e-10), (0.1001, 1e-8), (1e200, 1e-5)])
    def test_exit_level_over_the_ceiling_rejected_before_the_loop(self, eps, h):
        # 1e10, ~1.002e6 and ~1e405 expected steps; the verify protocol's level is 32
        with pytest.raises(ValueError, match="ceiling"):
            exit_probability(0.0, eps=eps, n_paths=20, h=h, seed=SeedSpec(1))


def exit_fraction_gather_scatter(theta, level, n_paths, seed):
    """Reference exit loop: every walker's position, gathered and scattered through the live index."""
    rng = seed.generator()
    beta_plus = (1.0 + theta) / 2.0
    position = np.zeros(n_paths, dtype=np.int64)
    exited_top = np.zeros(n_paths, dtype=bool)
    alive = np.arange(n_paths)
    while alive.size:
        u = rng.random(alive.size)
        at_zero = position[alive] == 0
        up = np.where(at_zero, u < beta_plus, u < 0.5)
        position[alive] += np.where(up, 1, -1)
        done = np.abs(position[alive]) >= level
        if np.any(done):
            finished = alive[done]
            exited_top[finished] = position[finished] >= level
            alive = alive[~done]
    return mc_mean_ci(exited_top.astype(float))


class TestExitLoop:
    @settings(max_examples=60)
    @given(
        theta=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
        eps=st.floats(0.001, 0.15),
        n_paths=st.integers(2, 400),
        master=st.integers(0, 2**64 - 1),
    )
    def test_equals_gather_scatter_loop(self, theta, eps, n_paths, master):
        h = 1e-4
        level = max(int(math.ceil(eps / math.sqrt(h))), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # few lattice sites to the exit is the point
            got = exit_probability(theta, eps=eps, n_paths=n_paths, h=h, seed=SeedSpec(master))
        assert got == exit_fraction_gather_scatter(theta, level, n_paths, SeedSpec(master))


class _StubExperiment:
    def __init__(self, name, profiles):
        self.name = name
        self._profiles = profiles

    def residuals(self, n_steps):
        return np.asarray(self._profiles[n_steps], dtype=float)


class TestConvergenceStudy:
    def test_decreasing_medians_pass(self):
        profiles = {16: [4.0, 5.0], 32: [2.0, 2.5], 64: [1.0, 1.5]}
        report = convergence_study(_StubExperiment("down", profiles), [16, 32, 64])
        assert report.passed
        assert report.measured == 0  # inversion count
        assert report.metadata["medians"] == [4.5, 2.25, 1.25]

    def test_single_inversion_tolerated_two_fail(self):
        up_once = {16: [4.0], 32: [5.0], 64: [1.0]}
        assert convergence_study(_StubExperiment("bump", up_once), [16, 32, 64]).passed
        up_twice = {16: [4.0], 32: [5.0], 64: [6.0]}
        assert not convergence_study(_StubExperiment("up", up_twice), [16, 32, 64]).passed

    def test_rounding_floor_makes_exact_zero_trivially_pass(self):
        flat = {16: [0.0], 32: [0.0], 64: [0.0]}
        report = convergence_study(_StubExperiment("zero", flat), [16, 32, 64])
        assert report.passed
        jitter = {16: [1e-15], 32: [3e-16], 64: [5e-16]}
        assert convergence_study(_StubExperiment("dust", jitter), [16, 32, 64]).passed

    def test_mesh_and_floor_validation(self):
        stub = _StubExperiment("bad", {16: [1.0], 32: [1.0]})
        with pytest.raises(ValueError, match="at least 3"):
            convergence_study(stub, [16, 32])
        stub3 = _StubExperiment("bad", {16: [1.0], 32: [1.0], 8: [1.0]})
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(stub3, [16, 32, 8])
        with pytest.raises(ValueError, match="floor"):
            convergence_study(stub3, [8, 16, 32], floor=-1.0)
