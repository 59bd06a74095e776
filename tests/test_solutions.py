"""Closed-form solution families and the signed-power transform."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdp_lab import (
    ModelParams,
    NonMarkovParams,
    Path,
    SeedSpec,
    TimeGrid,
    benchmark_solution,
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
        grid = TimeGrid(1.0, 256)
        b = sample_brownian(grid, SeedSpec(41))
        x = benchmark_solution(params, b)
        signed_root = signed_power(x.values, 0.5)
        np.testing.assert_allclose(signed_root, 0.5 * b.values + 1.0, atol=1e-12)

    def test_flat_driver_keeps_start(self):
        params = ModelParams(alpha=0.5, x0=1.0)
        grid = TimeGrid(1.0, 4)
        x = benchmark_solution(params, Path(grid, np.zeros(5)))
        np.testing.assert_allclose(x.values, 1.0)


class TestStopped:
    def test_absorbs_at_first_argument_sign_change(self):
        params = ModelParams(alpha=0.5, x0=1.0)
        grid = TimeGrid(4.0, 4)
        # argument 1 + 0.5 B: crosses 0 when B goes below -2
        b = Path(grid, np.array([0.0, -1.0, -3.0, 1.0, 5.0]))
        x = stopped_solution(params, b)
        benchmark = benchmark_solution(params, b)
        np.testing.assert_allclose(x.values[:2], benchmark.values[:2])
        np.testing.assert_array_equal(x.values[2:], 0.0)

    def test_no_crossing_equals_benchmark(self):
        params = ModelParams(alpha=-0.5, x0=1.0)
        grid = TimeGrid(1.0, 128)
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
        grid = TimeGrid(3.0, 3)
        b = Path(grid, np.array([0.0, 0.5, -0.5, 2.0]))  # argument = B/2
        x = nonmarkov_solution(params, nm, b)
        assert x.values[0] == 0.0
        assert x.values[1] == 0.0  # argument 0.25 inside (-0.4, 0.6)
        assert x.values[2] == 0.0
        assert x.values[3] == signed_power(1.0 - 0.6, 2.0)

    def test_vanishing_window_recovers_benchmark(self):
        params = ModelParams(alpha=0.5, x0=0.0)
        nm = NonMarkovParams(A=1e-12, B_level=1e-12)
        grid = TimeGrid(1.0, 64)
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
        grid = TimeGrid(1.0, 512)
        b = sample_brownian(grid, SeedSpec(44))
        x = reflected_solution_explicit(ModelParams(0.5, x0=0.25), b)
        assert np.all(x.values >= 0.0)
        assert abs(x.values[0] - 0.25) < 1e-12

    def test_equals_benchmark_before_reflection_bites(self):
        grid = TimeGrid(1.0, 256)
        b = sample_brownian(grid, SeedSpec(45))
        shift = signed_power(4.0, 0.5)  # x0 = 4, alpha = 0.5
        params = ModelParams(0.5, 0.0, 4.0)
        if np.min(0.5 * b.values + shift) > 0.0:
            np.testing.assert_allclose(
                reflected_solution_explicit(params, b).values,
                benchmark_solution(params, b).values,
                atol=1e-12,
            )
        else:  # pragma: no cover - guards against a seed change
            pytest.fail("seed 45 was expected to keep the argument positive")

    def test_validation(self):
        b = sample_brownian(TimeGrid(1.0, 4), SeedSpec(1))
        with pytest.raises(ValueError, match="x0 must be >= 0"):
            reflected_solution_explicit(ModelParams(0.5, x0=-1.0), b)

    @settings(max_examples=200)
    @given(
        alpha=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        x0=st.just(0.0) | st.floats(0.0, 10.0),
        t_end=st.floats(0.01, 100.0),
        n_steps=st.integers(1, 300),
        master=st.integers(0, 2**64 - 1),
    )
    def test_matches_the_driver_minimum_form_bit_for_bit(self, alpha, x0, t_end, n_steps, master):
        # the running minimum taken of the driver, then scaled and shifted: the
        # affine map is nondecreasing in floats, so it commutes with the minimum
        b = sample_brownian(TimeGrid(t_end, n_steps), SeedSpec(master))
        shift = signed_power(x0, 1.0 - alpha)
        running_min = np.minimum.accumulate(b.values)
        inner = (1.0 - alpha) * b.values + shift + np.maximum(
            -((1.0 - alpha) * running_min + shift), 0.0
        )
        expected = signed_power(inner, 1.0 / (1.0 - alpha))
        x = reflected_solution_explicit(ModelParams(alpha, x0=x0), b)
        np.testing.assert_array_equal(x.values.view(np.int64), expected.view(np.int64))


class TestSkewSolution:
    def test_transform_of_walk(self):
        grid = TimeGrid(1.0, 400)
        coupled, x = skew_solution(ModelParams(0.5, 0.5, 0.0), grid, SeedSpec(46))
        walk = simulate_skew_pair(0.5, 0.0, grid, SeedSpec(46)).skew_B.values
        np.testing.assert_array_equal(coupled.skew_B.values, walk)
        np.testing.assert_allclose(x.values, signed_power(0.5 * walk, 2.0), atol=1e-12)

    def test_walk_starts_at_the_skew_start(self):
        grid = TimeGrid(1.0, 10_000)
        params = ModelParams(0.5, 0.3, 2.0)
        coupled, x = skew_solution(params, grid, SeedSpec(48))
        assert abs(coupled.x0 - params.skew_start) <= 0.5 * math.sqrt(grid.h)
        assert x.values[0] == params.transform(coupled.x0)

    def test_non_solution_family_is_built_without_a_warning(self):
        """``is_known_solution`` is the library's signal; the CLI warns once per run, not per path."""
        params = ModelParams(0.0, 0.5, 0.0)
        assert not params.is_known_solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            skew_solution(params, TimeGrid(1.0, 64), SeedSpec(49))
