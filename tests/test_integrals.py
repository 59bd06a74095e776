"""Partition sums, brackets, mollifiers, truncated pv integrals, residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdp_lab import (
    ModelParams,
    Path,
    SeedSpec,
    abs_power_along_path,
    backward_sum,
    benchmark_solution,
    bracket_convergence,
    bracket_estimate,
    default_eps_sequence,
    ito_sum,
    make_grid,
    mollify,
    pv_integral,
    sample_brownian,
    sde_residual,
    simulate_skew_pair,
    stratonovich_sum,
)
from hdp_lab.integrals import MollifierBracketReport, PvReport


@pytest.fixture(scope="module")
def brownian():
    return sample_brownian(make_grid(1.0, 4096), SeedSpec(61))


#: integrands f(X) from smooth to rough, applied node-wise to a Brownian path
INTEGRANDS = {
    "identity": lambda x: x,
    "square": np.square,
    "sqrt-abs": lambda x: np.sqrt(np.abs(x)),
    "sign": np.sign,
}


@st.composite
def integrand_driver_pairs(draw):
    """(f(X), driver) on one grid of at most 500 steps, from two seeded Brownian paths."""
    grid = make_grid(draw(st.floats(0.01, 2.0)), draw(st.integers(1, 500)))
    master = draw(st.integers(0, 2**64 - 1))
    x = sample_brownian(grid, SeedSpec(master, 0))
    f = INTEGRANDS[draw(st.sampled_from(sorted(INTEGRANDS)))]
    driver = x if draw(st.booleans()) else sample_brownian(grid, SeedSpec(master, 1))
    return Path(grid, f(x.values)), driver


class TestPartitionSums:
    @settings(max_examples=50)
    @given(pair=integrand_driver_pairs())
    def test_forward_backward_bracket_identity(self, pair):
        integrand, driver = pair
        fwd = ito_sum(integrand, driver).values
        bwd = backward_sum(integrand, driver).values
        bracket = bracket_estimate(integrand, driver).values
        np.testing.assert_allclose(bwd - fwd, bracket, atol=1e-12)

    def test_symmetric_sum_telescopes_for_identity_integrand(self, brownian):
        x = brownian
        sym = stratonovich_sum(x, x).values
        exact = 0.5 * (x.values**2 - x.values[0] ** 2)
        np.testing.assert_allclose(sym, exact, atol=1e-12)

    @settings(max_examples=50)
    @given(pair=integrand_driver_pairs())
    def test_symmetric_is_average_of_one_sided(self, pair):
        integrand, driver = pair
        sym = stratonovich_sum(integrand, driver).values
        fwd = ito_sum(integrand, driver).values
        bwd = backward_sum(integrand, driver).values
        np.testing.assert_allclose(sym, 0.5 * (fwd + bwd), atol=1e-12)

    def test_literal_small_case(self):
        grid = make_grid(2.0, 2)
        f = Path(grid, np.array([1.0, 3.0, 2.0]))
        y = Path(grid, np.array([0.0, 1.0, 3.0]))
        assert ito_sum(f, y).terminal == 1.0 + 3.0 * 2.0
        assert backward_sum(f, y).terminal == 3.0 + 2.0 * 2.0
        assert bracket_estimate(f, y).terminal == (3 - 1) * 1 + (2 - 3) * 2

    def test_grid_mismatch_rejected(self):
        a = Path(make_grid(1.0, 2), np.zeros(3))
        b = Path(make_grid(1.0, 3), np.zeros(4))
        with pytest.raises(ValueError, match="grids"):
            ito_sum(a, b)


class TestMollify:
    def test_smoothed_sign_is_odd_and_converges_pointwise(self):
        smoothed = mollify(np.sign, 0.01)
        assert smoothed(np.array([0.0]))[0] == 0.0
        np.testing.assert_allclose(smoothed(np.array([1.0, -1.0])), [1.0, -1.0], atol=1e-12)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            mollify(np.sign, 0.0)

    def test_report_properties(self):
        good = MollifierBracketReport((0.1, 0.01), (2.0, 1.0))
        assert good.nonincreasing and good.strictly_shrinks
        flat = MollifierBracketReport((0.1, 0.01), (1.0, 1.0))
        assert flat.nonincreasing and not flat.strictly_shrinks
        bad = MollifierBracketReport((0.1, 0.01), (1.0, 2.0))
        assert not bad.nonincreasing

    def test_bracket_convergence_requires_decreasing_widths(self):
        coupled = simulate_skew_pair(0.5, 0.0, make_grid(1.0, 100), SeedSpec(62))
        with pytest.raises(ValueError, match="decreasing"):
            bracket_convergence(np.sign, coupled, (0.01, 0.1))

    def test_bracket_convergence_on_short_walk(self):
        coupled = simulate_skew_pair(0.5, 0.0, make_grid(1.0, 2000), SeedSpec(63))
        report = bracket_convergence(np.sign, coupled, (0.1, 0.01, 0.001))
        assert report.nonincreasing


class TestPvIntegral:
    def test_inactive_truncation_matches_plain_sum(self):
        grid = make_grid(1.0, 4)
        path = Path(grid, np.array([2.0, 3.0, 4.0, 5.0, 6.0]))
        report = pv_integral(path, -1.0, (0.5, 0.25))
        plain = grid.h * np.sum(1.0 / path.values[:-1])
        np.testing.assert_allclose(report.values, plain)
        assert report.is_cauchy(1e-12)
        assert not report.has_monotone_drift(1e-12)

    def test_truncation_drops_small_values(self):
        grid = make_grid(1.0, 4)
        path = Path(grid, np.array([2.0, 0.1, 2.0, 0.1, 2.0]))
        report = pv_integral(path, -1.0, (1.0, 0.01))
        assert report.values[0] == pytest.approx(grid.h * (0.5 + 0.5))
        assert report.values[1] == pytest.approx(grid.h * (0.5 + 10.0 + 0.5 + 10.0))

    def test_report_diff_helpers(self):
        report = PvReport(eps=(0.1, 0.01, 0.001), values=(1.0, 2.0, 4.0), exponent=-1.0)
        np.testing.assert_allclose(report.diffs(), [1.0, 2.0])
        assert report.has_monotone_drift(1.5)
        assert not report.is_cauchy(1.5)

    def test_default_eps_sequence_scales_with_grid(self):
        eps = default_eps_sequence(1e-6)
        assert eps[0] == 0.5
        assert all(e >= 10.0 * math.sqrt(1e-6) for e in eps)
        with pytest.raises(ValueError, match="coarse"):
            default_eps_sequence(1.0)


class TestAbsPowerAlongPath:
    def test_isolated_zeros_are_crossings_at_alpha_zero(self):
        values = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 2.0])
        out = abs_power_along_path(values, 0.0)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 0.0, 0.0, 1.0])

    def test_plain_power_otherwise(self):
        values = np.array([-4.0, 0.0, 9.0])
        np.testing.assert_allclose(abs_power_along_path(values, 0.5), [2.0, 0.0, 3.0])
        np.testing.assert_allclose(abs_power_along_path(values, -0.5), [0.5, 0.0, 1.0 / 3.0])


class TestResiduals:
    def test_benchmark_residual_telescopes_on_noncrossing_path(self):
        # at alpha = 1/2 the symmetric sum of |X|^(1/2) dB telescopes exactly,
        # so the residual is pure rounding as long as the argument stays positive
        params = ModelParams(alpha=0.5, x0=1.0)
        grid = make_grid(1.0, 2048)
        b = sample_brownian(grid, SeedSpec(64))
        x = benchmark_solution(params, b)
        assert np.min(x.values) > 0.0
        res = sde_residual(params, x, b)
        assert np.max(np.abs(res.values)) < 1e-10

    def test_misspecified_alpha_leaves_large_residual(self):
        grid = make_grid(1.0, 2048)
        b = sample_brownian(grid, SeedSpec(64))
        x = benchmark_solution(ModelParams(alpha=0.5, x0=1.0), b)
        res = sde_residual(ModelParams(alpha=-0.5, x0=1.0), x, b)
        assert np.max(np.abs(res.values)) > 0.05
