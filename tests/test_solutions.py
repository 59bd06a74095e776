"""Closed-form solution families and the signed-power transform."""

import math

import numpy as np
import pytest

from hdp_lab import (
    ModelParams,
    NonMarkovParams,
    Path,
    SeedSpec,
    benchmark_solution,
    make_grid,
    nonmarkov_solution,
    reflected_solution_explicit,
    sample_brownian,
    signed_power,
    simulate_skew_pair,
    skew_solution,
    stopped_solution,
)


class TestSignedPower:
    def test_odd_symmetry(self):
        x = np.linspace(-3.0, 3.0, 25)
        np.testing.assert_allclose(signed_power(-x, 0.7), -signed_power(x, 0.7))

    def test_zero_convention_holds_for_negative_exponents(self):
        assert signed_power(0.0, -0.5) == 0.0
        assert signed_power(0.0, 2.0) == 0.0
        # rounding dust below the tiny-base cutoff cannot manufacture infinities
        assert signed_power(1e-301, -1.0) == 0.0

    def test_scalar_and_array_returns(self):
        assert isinstance(signed_power(2.0, 2.0), float)
        assert signed_power(2.0, 2.0) == 4.0
        out = signed_power(np.array([-8.0, 8.0]), 1.0 / 3.0)
        np.testing.assert_allclose(out, [-2.0, 2.0])


class TestModelParams:
    @pytest.mark.parametrize("alpha", [-1.0, 1.0, 1.5])
    def test_alpha_open_interval(self, alpha):
        with pytest.raises(ValueError):
            ModelParams(alpha=alpha)

    def test_known_solution_classification(self):
        assert ModelParams(0.5, 0.5).is_known_solution
        assert ModelParams(-0.5, 0.0).is_known_solution
        assert not ModelParams(0.0, 0.5).is_known_solution
        assert not ModelParams(-0.5, 1.0).is_known_solution

    def test_inverse_exponent(self):
        assert ModelParams(0.5).inverse_exponent == 2.0

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_start_must_be_finite(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            ModelParams(0.5, x0=x0)


class TestBenchmark:
    def test_power_identity_along_path(self):
        params = ModelParams(alpha=0.5, x0=1.0)
        grid = make_grid(1.0, 256)
        b = sample_brownian(grid, SeedSpec(41))
        x = benchmark_solution(params, b)
        signed_root = signed_power(x.values, 0.5)
        np.testing.assert_allclose(signed_root, 0.5 * b.values + 1.0, atol=1e-12)

    def test_flat_driver_keeps_start(self):
        params = ModelParams(alpha=0.5, x0=1.0)
        grid = make_grid(1.0, 4)
        x = benchmark_solution(params, Path(grid, np.zeros(5)))
        np.testing.assert_allclose(x.values, 1.0)


class TestStopped:
    def test_absorbs_at_first_argument_sign_change(self):
        params = ModelParams(alpha=0.5, x0=1.0)
        grid = make_grid(4.0, 4)
        # argument 1 + 0.5 B: crosses 0 when B goes below -2
        b = Path(grid, np.array([0.0, -1.0, -3.0, 1.0, 5.0]))
        x = stopped_solution(params, b)
        benchmark = benchmark_solution(params, b)
        np.testing.assert_allclose(x.values[:2], benchmark.values[:2])
        np.testing.assert_array_equal(x.values[2:], 0.0)

    def test_no_crossing_equals_benchmark(self):
        params = ModelParams(alpha=-0.5, x0=1.0)
        grid = make_grid(1.0, 128)
        b = sample_brownian(grid, SeedSpec(42))
        if np.min(1.5 * b.values + 1.0) > 0.0:  # seed chosen to stay positive
            np.testing.assert_array_equal(
                stopped_solution(params, b).values,
                benchmark_solution(params, b).values,
            )
        else:  # pragma: no cover - guards against a seed change
            pytest.fail("seed 42 was expected to stay on the positive side")


class TestNonMarkov:
    def test_window_interior_is_absorbed(self):
        params = ModelParams(alpha=0.5, x0=0.0)
        nm = NonMarkovParams(A=0.4, B_level=0.6)
        grid = make_grid(3.0, 3)
        b = Path(grid, np.array([0.0, 0.5, -0.5, 2.0]))  # argument = B/2
        x = nonmarkov_solution(params, nm, b)
        assert x.values[0] == 0.0
        assert x.values[1] == 0.0  # argument 0.25 inside (-0.4, 0.6)
        assert x.values[2] == 0.0
        assert x.values[3] == signed_power(1.0 - 0.6, 2.0)

    def test_vanishing_window_recovers_benchmark(self):
        params = ModelParams(alpha=0.5, x0=0.0)
        nm = NonMarkovParams(A=1e-12, B_level=1e-12)
        grid = make_grid(1.0, 64)
        b = sample_brownian(grid, SeedSpec(43))
        np.testing.assert_allclose(
            nonmarkov_solution(params, nm, b).values,
            benchmark_solution(params, b).values,
            atol=1e-10,
        )

    @pytest.mark.parametrize("a,b_level", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_window_validation(self, a, b_level):
        with pytest.raises(ValueError):
            NonMarkovParams(A=a, B_level=b_level)


class TestReflected:
    def test_nonnegative_and_starts_at_x0(self):
        grid = make_grid(1.0, 512)
        b = sample_brownian(grid, SeedSpec(44))
        x = reflected_solution_explicit(0.5, 0.25, b)
        assert np.all(x.values >= 0.0)
        assert abs(x.values[0] - 0.25) < 1e-12

    def test_equals_benchmark_before_reflection_bites(self):
        grid = make_grid(1.0, 256)
        b = sample_brownian(grid, SeedSpec(45))
        shift = signed_power(4.0, 0.5)  # x0 = 4, alpha = 0.5
        if np.min(0.5 * b.values + shift) > 0.0:
            np.testing.assert_allclose(
                reflected_solution_explicit(0.5, 4.0, b).values,
                benchmark_solution(ModelParams(0.5, 0.0, 4.0), b).values,
                atol=1e-12,
            )
        else:  # pragma: no cover - guards against a seed change
            pytest.fail("seed 45 was expected to keep the argument positive")

    def test_validation(self):
        b = sample_brownian(make_grid(1.0, 4), SeedSpec(1))
        with pytest.raises(ValueError):
            reflected_solution_explicit(0.5, -1.0, b)
        with pytest.raises(ValueError):
            reflected_solution_explicit(1.0, 1.0, b)


class TestSkewSolution:
    def test_transform_of_walk(self):
        grid = make_grid(1.0, 400)
        coupled = simulate_skew_pair(0.5, 0.0, grid, SeedSpec(46))
        x = skew_solution(ModelParams(0.5, 0.5, 0.0), coupled)
        np.testing.assert_allclose(
            x.values, signed_power(0.5 * coupled.skew_B.values, 2.0), atol=1e-12
        )

    def test_theta_mismatch_rejected(self):
        grid = make_grid(1.0, 16)
        coupled = simulate_skew_pair(0.5, 0.0, grid, SeedSpec(47))
        with pytest.raises(ValueError, match="theta"):
            skew_solution(ModelParams(0.5, 0.3, 0.0), coupled)

    def test_start_mismatch_rejected(self):
        grid = make_grid(1.0, 16)
        coupled = simulate_skew_pair(0.5, 2.0, grid, SeedSpec(48))
        with pytest.raises(ValueError, match="starts at"):
            skew_solution(ModelParams(0.5, 0.5, 0.0), coupled)

    def test_non_solution_family_warns(self):
        grid = make_grid(1.0, 64)
        coupled = simulate_skew_pair(0.5, 0.0, grid, SeedSpec(49))
        with pytest.warns(UserWarning, match="non-solution"):
            skew_solution(ModelParams(0.0, 0.5, 0.0), coupled)
