"""Closed-form analytics: msd, joint densities, reversal, heat identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from hdp_lab import (
    SeedSpec,
    SkewCoefficients,
    heat_check_density,
    joint_density_BL,
    joint_density_YB,
    make_grid,
    msd,
    reversed_bridge_ensemble,
    reversed_pair_bridge,
    skew_transition_sample,
)
from hdp_lab.analytics import (
    _bridge_draws,
    _reversed_bridge_core,
    reversed_drift_reflected,
    reversed_drift_y,
    reversed_drift_z,
)
from hdp_lab.stats import ks_test

from test_core import _full_state


class TestMsd:
    def test_analytic_anchors(self):
        assert msd(0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert msd(0.0, 1.0, 1.0) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)
        assert msd(0.5, 0.0, 1.0) == pytest.approx(0.1875, abs=1e-12)

    @pytest.mark.parametrize("alpha, t", [(0.5, 1e307), (0.5, 1e308), (0.999, 1.0)])
    def test_overflow_rejected(self, alpha, t):
        with pytest.raises(ValueError, match="overflows"):
            msd(alpha, 0.5, t)

    def test_even_in_theta(self):
        for alpha in (-0.5, 0.0, 0.5):
            assert msd(alpha, 0.6, 1.0) == pytest.approx(msd(alpha, -0.6, 1.0), rel=1e-12)

    def test_matches_exact_sampler(self):
        alpha, theta = 0.3, 0.4
        b = skew_transition_sample(theta, 0.0, 1.0, SeedSpec(71), size=50_000)
        x = np.sign(b) * np.abs((1.0 - alpha) * b) ** (1.0 / (1.0 - alpha))
        sample = np.var(x, ddof=1)
        assert abs(sample - msd(alpha, theta, 1.0)) < 4.0 * sample / math.sqrt(x.size) * 3.0


class TestJointDensities:
    def test_bl_formula_spot_value(self):
        theta, t, b, ell = 0.5, 1.0, 0.3, 0.2
        co = SkewCoefficients(theta)
        m = ell + abs(b)
        by_hand = 2.0 * co.beta(b) * m / math.sqrt(2.0 * math.pi) * math.exp(-m * m / 2.0)
        assert joint_density_BL(theta, t, 0.0, b, ell) == pytest.approx(by_hand, rel=1e-14)

    def test_bl_validation(self):
        with pytest.raises(ValueError, match="l must be positive"):
            joint_density_BL(0.5, 1.0, 0.0, 0.3, 0.0)
        with pytest.raises(ValueError, match="t must be positive"):
            joint_density_BL(0.5, 0.0, 0.0, 0.3, 0.1)

    @pytest.mark.parametrize("w0", [math.inf, -math.inf, math.nan])
    def test_bl_non_finite_start_rejected(self, w0):
        with pytest.raises(ValueError, match="w0 must be finite"):
            joint_density_BL(0.5, 1.0, w0, 0.3, 0.1)

    def test_yb_vanishes_outside_wedge(self):
        co = SkewCoefficients(0.5)
        y = 0.8
        edge = co.r(y)
        assert joint_density_YB(0.5, 1.0, y, edge + 0.1) == 0.0
        assert joint_density_YB(0.5, 1.0, y, edge - 0.1) > 0.0

    def test_yb_mirror(self):
        for y, z in ((0.4, 0.1), (-0.7, -0.9), (1.2, 0.3)):
            assert joint_density_YB(0.6, 1.0, y, z) == pytest.approx(
                joint_density_YB(-0.6, 1.0, -y, -z), rel=1e-13
            )

    def test_yb_degenerate_theta_rejected(self):
        with pytest.raises(ValueError, match="theta = 0"):
            joint_density_YB(0.0, 1.0, 0.5, 0.1)


class TestReversedDrifts:
    def test_frozen_values(self):
        assert reversed_drift_y(0.5, 1.0, 0.5, 1.0, 0.0) == pytest.approx(
            -5.4074074074074066, rel=1e-13
        )
        assert reversed_drift_z(0.5, 1.0, 0.5, 1.0, 0.0) == pytest.approx(
            -4.055555555555555, rel=1e-13
        )
        assert reversed_drift_reflected(0.25, 0.8) == pytest.approx(3.2, rel=1e-13)

    def test_mirror_antisymmetry(self):
        for s, y, z in ((0.5, 0.7, -0.2), (0.2, -0.4, -0.9), (0.8, 1.1, 0.3)):
            assert reversed_drift_y(0.5, 1.0, s, y, z) == pytest.approx(
                -reversed_drift_y(-0.5, 1.0, s, -y, -z), rel=1e-12
            )


class TestBridgeReversal:
    def test_endpoints_are_exact(self):
        co = SkewCoefficients(0.5)
        grid = make_grid(1.0, 500)
        y, z = reversed_pair_bridge(0.5, 0.8, grid, SeedSpec(73))
        assert y.values[0] == pytest.approx(co.s(0.8), abs=1e-14)
        assert y.terminal == 0.0
        assert z.terminal == 0.0

    def test_driver_start_carries_accumulated_local_time(self):
        # z_0 = b - theta * total local time <= b, strictly when L_T > 0
        y, z = reversed_pair_bridge(0.5, 0.1, make_grid(1.0, 2000), SeedSpec(74))
        assert z.values[0] < 0.1

    def test_mirror(self):
        grid = make_grid(1.0, 300)
        y_p, z_p = reversed_pair_bridge(0.5, 0.6, grid, SeedSpec(75))
        y_m, z_m = reversed_pair_bridge(-0.5, -0.6, grid, SeedSpec(75))
        np.testing.assert_allclose(y_p.values, -y_m.values, atol=1e-12)
        np.testing.assert_allclose(z_p.values, -z_m.values, atol=1e-12)

    def test_full_skew_wrong_side_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            reversed_pair_bridge(1.0, -0.5, make_grid(1.0, 100), SeedSpec(76))

    def test_ensemble_mid_capture_law(self):
        theta, horizon = 0.5, 1.0
        terminals = skew_transition_sample(theta, 0.0, horizon, SeedSpec(77), size=4000)
        grid = make_grid(horizon, 2000)
        y, z, ell = reversed_bridge_ensemble(theta, terminals, grid, SeedSpec(78), 1000)
        assert y.shape == z.shape == ell.shape == (4000,)
        _, p = ks_test(z, lambda v: ndtr(np.asarray(v) / math.sqrt(0.5)))
        assert p > 0.01
        # total boundary local time over [0, T] is half-normal: mean sqrt(2T/pi)
        target = math.sqrt(2.0 * horizon / math.pi)
        assert abs(np.mean(ell) - target) < 4.0 * np.std(ell) / math.sqrt(ell.size)


@st.composite
def bridge_ensembles(draw):
    """(theta, reachable terminals, grid, one seed per path) for the lockstep bridge."""
    theta = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0).filter(lambda t: t != 0.0))
    terminals = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    if abs(theta) == 1.0:  # full skew keeps the skew value on theta's half-line
        terminals = [math.copysign(abs(b), theta) for b in terminals]
    grid = make_grid(draw(st.floats(0.1, 2.0)), draw(st.integers(1, 40)))
    master = draw(st.integers(0, 2**64 - 1))
    first = draw(st.integers(0, 10_000))
    return theta, terminals, grid, [SeedSpec(master, first + j) for j in range(len(terminals))]


class TestLockstepBridge:
    @settings(max_examples=60)
    @given(case=bridge_ensembles())
    def test_per_path_streams_match_single_path_bridges(self, case):
        theta, terminals, grid, seeds = case
        y, z = reversed_bridge_ensemble(theta, terminals, grid, seeds)
        assert y.shape == z.shape == (len(terminals), grid.n_steps + 1)
        for j, (terminal, seed) in enumerate(zip(terminals, seeds)):
            y_j, z_j = reversed_pair_bridge(theta, terminal, grid, seed)
            np.testing.assert_array_equal(y[j], y_j.values)
            np.testing.assert_array_equal(z[j], z_j.values)

    def test_seed_count_must_match_paths(self):
        with pytest.raises(ValueError, match="1 seeds for 2 paths"):
            reversed_bridge_ensemble(0.5, [0.1, 0.2], make_grid(1.0, 10), [SeedSpec(1)])


def bridge_draws_every_path(rng, m):
    """Reference draws: one shared generator draws m-vectors, per-path generators a scalar each."""
    if isinstance(rng, np.random.Generator):
        return (lambda: rng.standard_normal(m)), (lambda: rng.random(m))
    normals, uniforms = [g.standard_normal for g in rng], [g.random for g in rng]
    return (lambda: np.array([f() for f in normals])), (lambda: np.array([f() for f in uniforms]))


def bridge_core_every_path(theta, b0, grid, rng, capture_step):
    """Reference bridge core: tail, sign refresh and local time evaluated on every path at every step."""
    n = grid.n_steps
    h = grid.h
    m = b0.size
    normal, uniform = bridge_draws_every_path(rng, m)
    record = capture_step is None
    g = b0.copy()
    sign = np.where(b0 >= 0.0, 1.0, -1.0)
    beta_plus = (1.0 + theta) / 2.0
    ell = np.zeros(m)
    if record:
        skew_nodes = np.empty((n + 1, m))
        ell_nodes = np.empty((n + 1, m))
        skew_nodes[0] = b0
        ell_nodes[0] = 0.0
    cap_skew = b0.copy() if capture_step == 0 else None
    cap_ell = np.zeros(m) if capture_step == 0 else None
    for k in range(n):
        rem = grid.t_end - k * h
        ratio = max((rem - h) / rem, 0.0) if k < n - 1 else 0.0
        g_new = g * ratio + math.sqrt(h * ratio) * normal()
        gap2 = np.square(g_new - g)
        amp = np.abs(g) + np.abs(g_new)
        tail = np.sqrt(gap2 - 2.0 * h * np.log(1.0 - uniform()))
        step_ell = np.maximum(0.0, tail - amp)
        fresh = np.where(uniform() < beta_plus, 1.0, -1.0)
        sign = np.where(step_ell > 0.0, fresh, sign)
        ell += step_ell
        g = g_new
        if record:
            skew_nodes[k + 1] = sign * np.abs(g)
            ell_nodes[k + 1] = ell
        if capture_step == k + 1:
            cap_skew = sign * np.abs(g)
            cap_ell = ell.copy()
    if record:
        return skew_nodes, ell_nodes
    return cap_skew, cap_ell, ell


def stream_position(rng):
    """Counter, buffer and buffer position of a Philox generator."""
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer"].tolist(), state["buffer_pos"]


@st.composite
def bridge_cores(draw):
    """Core arguments as reversed_bridge_ensemble makes them: theta -> |theta|, mirrored starts."""
    theta = draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0))
    n_paths = draw(st.integers(1, 40))
    terminals = np.asarray(draw(st.lists(st.floats(-4.0, 4.0), min_size=n_paths, max_size=n_paths)))
    b0 = -terminals if theta < 0.0 else terminals
    if abs(theta) == 1.0:  # full skew keeps the skew value on theta's half-line
        b0 = np.abs(b0)
    grid = make_grid(draw(st.floats(0.01, 2.0)), draw(st.integers(1, 60)))
    capture = draw(st.none() | st.sampled_from([0, grid.n_steps]) | st.integers(0, grid.n_steps))
    master = draw(st.integers(0, 2**64 - 1))
    per_path = draw(st.booleans())
    return abs(theta), b0, grid, capture, master, per_path


class TestBridgeCore:
    """The bridge core gives the same bits, and leaves the streams in the same state,
    whichever paths it evaluates the tail on and whether it makes the dead sign uniforms."""

    @settings(max_examples=120)
    @given(case=bridge_cores())
    def test_equals_every_path_step(self, case):
        theta, b0, grid, capture, master, per_path = case

        def streams():
            if per_path:
                return [SeedSpec(master, j).generator() for j in range(b0.size)]
            return SeedSpec(master).generator()

        got_rng, want_rng = streams(), streams()
        got = _reversed_bridge_core(theta, b0.copy(), grid, got_rng, capture)
        want = bridge_core_every_path(theta, b0.copy(), grid, want_rng, capture)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        for a, b in zip(got_rng, want_rng) if per_path else [(got_rng, want_rng)]:
            assert stream_position(a) == stream_position(b)


class TestPerPathUniforms:
    """A per-path uniform made from a raw Philox output is the double ``random()`` makes."""

    @pytest.mark.parametrize("draws", range(1, 10))
    def test_equal_to_random_bit_for_bit_and_same_state(self, draws):
        # 1-9 draws in a row cross the four-output Philox buffer at every offset
        made = [SeedSpec(23, j).generator() for j in range(5)]
        drawn = [SeedSpec(23, j).generator() for j in range(5)]
        made[2].random(3)  # paths part-way through their buffers
        drawn[2].random(3)
        _, uniform, skip = _bridge_draws(made, len(made))
        for k in range(draws):
            got = (uniform if k % 3 else skip)()
            want = np.array([g.random() for g in drawn])
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert [_full_state(g) for g in made] == [_full_state(g) for g in drawn]


class TestHeatIdentity:
    def test_residual_small_at_interior_point(self):
        co = SkewCoefficients(0.3)
        y = 0.9
        z = co.r(y) - 0.7
        assert heat_check_density(0.3, 0.7, y, z, fd_step=2e-4) < 1e-4

