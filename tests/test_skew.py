"""Skew walk construction, closed-form marginals, and exact samplers."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from hdp_lab import (
    SeedSpec,
    SkewCoefficients,
    local_time_occupation,
    msd,
    simulate_skew_pair,
    skew_cdf,
    skew_chain_terminals,
    skew_density,
    skew_transition_sample,
)
from hdp_lab.core import Path, TimeGrid
from hdp_lab.stats import exit_probability, ks_test
from test_core import _full_state


def reflection_cdf(theta, start, t, b):
    """Transition cdf of the skew process from ``start`` >= 0, by reflection.

    The density from a >= 0 is phi_t(b - a) + theta * phi_t(b + a) for b > 0
    and (1 - theta) * phi_t(b - a) for b <= 0; integrating gives the pieces
    below.  Starts on the negative half-line map through the theta -> -theta
    mirror.  Independent of the sampler's acceptance construction.
    """
    if start < 0.0:
        return 1.0 - reflection_cdf(-theta, -start, t, -b)
    root = math.sqrt(t)
    b = np.asarray(b, dtype=float)
    low = (1.0 - theta) * ndtr((b - start) / root)
    high = (
        ndtr((b - start) / root)
        - theta * ndtr((-start) / root)
        + theta * (ndtr((b + start) / root) - ndtr(start / root))
    )
    return np.where(b <= 0.0, low, high)


#: skewness values with the full-skew endpoints drawn explicitly
THETAS = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
GRIDS = st.builds(TimeGrid, st.floats(0.01, 2.0), st.integers(1, 500))
SEEDS = st.integers(0, 2**64 - 1)


class TestSkewCoefficients:
    @pytest.mark.parametrize("theta", [-1.5, 1.5, 2.0])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError):
            SkewCoefficients(theta)

    @pytest.mark.parametrize("theta", [-1.5, 1.5, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda theta: SkewCoefficients(theta),
            lambda theta: skew_density(theta, 1.0, 0.3),
            lambda theta: skew_cdf(theta, 1.0, 0.3),
            lambda theta: msd(0.5, theta, 1.0),
            lambda theta: skew_transition_sample(theta, 0.0, 1.0, SeedSpec(1), size=1),
            lambda theta: skew_chain_terminals(theta, TimeGrid(1.0, 2), SeedSpec(1), 3),
            lambda theta: exit_probability(theta, 0.1, 2, 1e-3, SeedSpec(1)),
        ],
    )
    def test_every_theta_check_gives_one_message(self, call, theta):
        with pytest.raises(ValueError, match=rf"^theta must lie in \[-1, 1\], got {theta}$"):
            call(theta)

    def test_split_probabilities(self):
        co = SkewCoefficients(0.5)
        assert co.beta_plus == 0.75
        assert co.beta_minus == 0.25

    @settings(max_examples=100)
    @given(theta=THETAS, values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
    def test_r_and_s_are_inverse(self, theta, values):
        if abs(theta) == 1.0:  # s is finite only on theta's half-line
            values = [math.copysign(abs(v), theta) for v in values]
        co = SkewCoefficients(theta)
        y = np.asarray(values)
        np.testing.assert_allclose(co.s(co.r(y)), y, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(co.r(co.s(y)), y, rtol=1e-14, atol=1e-14)

    def test_r_spot_value(self):
        # r scales each half-line by its split probability: r(1) = beta_plus
        assert SkewCoefficients(0.5).r(1.0) == 0.75

    def test_sigma_is_two_valued(self):
        co = SkewCoefficients(0.5)
        assert co.sigma(2.0) == co.sigma(0.5)
        assert co.sigma(-2.0) == co.sigma(-0.5)
        assert co.sigma(1.0) != co.sigma(-1.0)


#: sha256 of the skew walks of simulate_skew_pair(0.5, 0.0, TimeGrid(1.0, 10**5), SeedSpec(7, j)),
#: j = 0, 1, end to end.  Their few hundred excursion signs each draw against beta_plus, so a shift
#: of it by 1e-3 either way moves a sign at this seed; the CLI goldens' shorter walks do not see it.
WALK_GOLDEN = "f890f5e12e1c3d90cfcf4b70bc5622ee53a3301e86c5a396804a30e8bccc9684"


class TestSimulateSkewPair:
    def test_golden_bytes(self):
        grid = TimeGrid(1.0, 10**5)
        walks = [simulate_skew_pair(0.5, 0.0, grid, SeedSpec(7, j)).skew_B.values for j in range(2)]
        assert hashlib.sha256(np.concatenate(walks).tobytes()).hexdigest() == WALK_GOLDEN

    def test_walk_lives_on_lattice(self):
        grid = TimeGrid(1.0, 500)
        coupled = simulate_skew_pair(0.5, 0.0, grid, SeedSpec(21))
        root_h = math.sqrt(grid.h)
        lattice = coupled.skew_B.values / root_h
        np.testing.assert_allclose(lattice, np.round(lattice), atol=1e-9)

    @settings(max_examples=50)
    @given(theta=THETAS, x0=st.floats(-1.0, 1.0), grid=GRIDS, master=SEEDS)
    def test_driver_satisfies_defining_relation(self, theta, x0, grid, master):
        # B = B^theta - x0 - theta * L node-wise, exactly
        coupled = simulate_skew_pair(theta, x0, grid, SeedSpec(master))
        np.testing.assert_allclose(
            coupled.driver_B.values,
            coupled.skew_B.values - coupled.x0 - theta * coupled.local_time_L.values,
            atol=1e-12,
        )

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan, 1e300])
    def test_start_off_the_int64_lattice_rejected(self, x0):
        with pytest.raises(ValueError, match="lattice"):
            simulate_skew_pair(0.5, x0, TimeGrid(1.0, 10), SeedSpec(1))

    def test_start_snaps_to_lattice(self):
        grid = TimeGrid(1.0, 400)
        coupled = simulate_skew_pair(0.3, 0.26, grid, SeedSpec(22))
        assert abs(coupled.x0 - 0.26) <= 0.5 * math.sqrt(grid.h)
        assert coupled.skew_B.values[0] == coupled.x0

    def test_local_time_counts_arrivals(self):
        grid = TimeGrid(1.0, 2000)
        coupled = simulate_skew_pair(0.0, 0.0, grid, SeedSpec(23))
        ell = coupled.local_time_L.values
        assert ell[0] == 0.0
        assert np.all(np.diff(ell) >= 0.0)
        arrivals = np.flatnonzero(coupled.skew_B.values[1:] == 0.0)
        expected = math.sqrt(grid.h) * (1 + np.arange(arrivals.size))
        np.testing.assert_allclose(ell[1:][arrivals], expected, atol=1e-12)

    def test_theta_one_is_driver_minus_running_minimum(self):
        grid = TimeGrid(1.0, 3000)
        coupled = simulate_skew_pair(1.0, 0.0, grid, SeedSpec(24))
        b = coupled.driver_B.values
        np.testing.assert_allclose(
            coupled.skew_B.values, b - np.minimum.accumulate(b), atol=1e-12
        )

    def test_theta_minus_one_is_driver_minus_running_maximum(self):
        grid = TimeGrid(1.0, 3000)
        coupled = simulate_skew_pair(-1.0, 0.0, grid, SeedSpec(24))
        b = coupled.driver_B.values
        np.testing.assert_allclose(
            coupled.skew_B.values, b - np.maximum.accumulate(b), atol=1e-12
        )

    @settings(max_examples=50)
    @given(theta=THETAS, x0=st.floats(-1.0, 1.0), grid=GRIDS, master=SEEDS)
    def test_mirror_shares_modulus_and_local_time(self, theta, x0, grid, master):
        # the theta -> -theta walk on the same seed redraws excursion signs,
        # so only the modulus and the local time are pathwise invariant
        plus = simulate_skew_pair(theta, x0, grid, SeedSpec(master))
        minus = simulate_skew_pair(-theta, x0, grid, SeedSpec(master))
        np.testing.assert_allclose(
            np.abs(plus.skew_B.values), np.abs(minus.skew_B.values), atol=1e-12
        )
        np.testing.assert_array_equal(
            plus.local_time_L.values, minus.local_time_L.values
        )


    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_peak_memory_is_four_node_arrays(self, theta):
        # the three returned (n + 1)-node arrays and one temporary: the walk's
        # steps, lattice and excursion index are dropped once used
        grid = TimeGrid(1.0, 10**6)
        tracemalloc.start()
        try:
            simulate_skew_pair(theta, 0.0, grid, SeedSpec(3402))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * (grid.n_steps + 1)


class TestLocalTimeOccupation:
    def test_literal_band_count(self):
        # left-endpoint values 0, .5, 2, -.5, 1 with eps = 1: weights 1, 1, 0, 1, 0.5
        grid = TimeGrid(5.0, 5)
        path = Path(grid, np.array([0.0, 0.5, 2.0, -0.5, 1.0, 3.0]))
        est = local_time_occupation(path, 1.0)
        np.testing.assert_allclose(est.values, [0.0, 0.5, 1.0, 1.0, 1.5, 1.75])

    def test_epsilon_validation(self):
        path = Path(TimeGrid(1.0, 1), np.zeros(2))
        with pytest.raises(ValueError):
            local_time_occupation(path, 0.0)

    def test_tracks_walk_local_time(self):
        grid = TimeGrid(1.0, 50_000)
        coupled = simulate_skew_pair(0.0, 0.0, grid, SeedSpec(26))
        est = local_time_occupation(coupled.skew_B, 2.0 * math.sqrt(grid.h)).terminal
        exact = coupled.local_time_L.terminal
        assert abs(est - exact) / exact < 0.08


class TestClosedFormMarginals:
    def test_density_integrates_to_cdf(self):
        theta, t = 0.7, 0.5
        for b in (-1.2, -0.2, 0.4, 1.3):
            mass, _ = integrate.quad(
                lambda u: skew_density(theta, t, u), -10.0 * math.sqrt(t), b,
                points=[0.0] if b > 0 else None, epsabs=1e-12,
            )
            assert abs(mass - skew_cdf(theta, t, b)) < 1e-9

    def test_cdf_frozen_values(self):
        assert abs(skew_cdf(0.5, 1.0, -0.3) - 0.1910442889055237) < 1e-14
        assert abs(skew_cdf(0.5, 1.0, 0.7) - 0.6370545216653904) < 1e-14

    def test_density_total_mass_and_split(self):
        theta = 0.4
        up, _ = integrate.quad(lambda u: skew_density(theta, 1.0, u), 0.0, 12.0)
        down, _ = integrate.quad(lambda u: skew_density(theta, 1.0, u), -12.0, 0.0)
        assert abs(up - 0.7) < 1e-10
        assert abs(down - 0.3) < 1e-10


class TestExactSamplers:
    def test_transition_sample_matches_reflection_cdf(self):
        theta, start, t = 0.6, 0.7, 0.8
        draws = skew_transition_sample(theta, start, t, SeedSpec(27), size=20_000)
        _, p = ks_test(draws, lambda b: reflection_cdf(theta, start, t, b))
        assert p > 0.01

    def test_transition_sample_from_negative_start(self):
        theta, start, t = 0.6, -0.5, 1.0
        draws = skew_transition_sample(theta, start, t, SeedSpec(28), size=20_000)
        _, p = ks_test(draws, lambda b: reflection_cdf(theta, start, t, b))
        assert p > 0.01

    def test_transition_sample_mirror(self):
        a = skew_transition_sample(0.6, 0.4, 1.0, SeedSpec(29), size=1000)
        b = skew_transition_sample(-0.6, -0.4, 1.0, SeedSpec(29), size=1000)
        np.testing.assert_allclose(a, -b, atol=1e-12)

    # exact transitions compose, so the law holds at any grid, the coarsest included
    @pytest.mark.parametrize("steps", [1, 10, 200])
    def test_chain_terminals_match_marginal(self, steps):
        theta = 0.5
        draws = skew_chain_terminals(theta, TimeGrid(1.0, steps), SeedSpec(32), 20_000)
        _, p = ks_test(draws, lambda u: skew_cdf(theta, 1.0, u))
        assert p > 0.01

    def test_chain_terminals_validation(self):
        with pytest.raises(ValueError):
            skew_chain_terminals(0.5, TimeGrid(1.0, 10), SeedSpec(1), 0)

    def test_chain_stays_on_half_line_at_full_skew(self):
        draws = skew_chain_terminals(1.0, TimeGrid(1.0, 100), SeedSpec(33), 5000)
        assert np.all(draws >= 0.0)


def chain_terminals_all_paths(theta, grid, seed, n_paths):
    """Reference chain: the damped sign probability evaluated on every path at every step."""
    rng = seed.generator()
    h = grid.h
    root_h = math.sqrt(h)
    x = np.zeros(n_paths)
    for _ in range(grid.n_steps):
        side = np.where(x >= 0.0, 1.0, -1.0)
        xa = np.abs(x)
        rho = np.abs(xa + root_h * rng.standard_normal(n_paths))
        damp = np.exp(-2.0 * rho * xa / h)
        p_plus = (1.0 + side * float(theta) * damp) / (1.0 + damp)
        x = side * np.where(rng.random(n_paths) < p_plus, rho, -rho)
    return x


def transition_sample_all_paths(theta, x_start, t, seed, size):
    """Reference two-stage transition: the damped sign probability on every draw."""
    rng = seed.generator()
    mirrored = x_start < 0
    a = abs(x_start)
    th = -theta if mirrored else theta
    rho = np.abs(a + math.sqrt(t) * rng.standard_normal(size))
    damp = np.exp(-2.0 * rho * a / t)
    p_plus = (1.0 + th * damp) / (1.0 + damp)
    draws = np.where(rng.random(size) < p_plus, rho, -rho)
    return -draws if mirrored else draws


#: sha256 of skew_chain_terminals(theta, TimeGrid(1.0, 400), SeedSpec(4242), 3000).tobytes(),
#: recorded with the sign probability evaluated on every path
CHAIN_GOLDEN = {
    0.0: "a13ba850087f1165d4f7ac634a8362209e8a05699ae289705369bff2a338dfc3",
    0.5: "cd3cb48b5122ef3038e16818b53cf0e2ca76ebbafb06c3562fc2c300054ed14b",
    1.0: "a1e1a4b008c50a8e45676a11981143717d3bb39cb2878961a47f33e7adac3dd8",
    -0.7: "073e8fd4dc2c600eaf4b217fcd6ebdb55f0bc52d4284af2047a4856abf2b62c5",
    -1.0: "bec2d12439b96deb542b1b785cecdbabcde15b4ace84f8d7fd80601bf6188c23",
}


class ScriptedSeed:
    """A seed that is its own generator: SeedSpec(master)'s, with scripted ``standard_normal`` arrays first.

    Scripted calls draw nothing; every other call and attribute, ``bit_generator``
    included, is the wrapped Philox generator's.
    """

    def __init__(self, master, normals):
        self._rng = SeedSpec(master).generator()
        self._normals = list(normals)

    def generator(self):
        return self

    def standard_normal(self, size):
        if self._normals:
            return np.array(self._normals.pop(0), dtype=float)
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


#: Two scripted steps of six paths.  The moduli they give, in units of sqrt(h):
#: path 0 goes 1, 0 and path 5 goes 2, 0 (zero landings from a side taken at
#: step 1), paths 2 and 3 land on 0 at step 1, path 2 again at step 2.
ZERO_LANDINGS = (
    [1.0, 1.0, 0.0, 0.0, -1.0, 2.0],
    [-1.0, 0.5, 0.0, 1.0, 1.0, -2.0],
)


class TestChainKernel:
    """The chained transition draws the same bits whichever paths evaluate the damping."""

    @pytest.mark.parametrize("theta", [-1.0, 1.0, 0.5])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 40])
    def test_zero_landings_and_stream_position(self, theta, n_steps):
        grid = TimeGrid(1.0, n_steps)
        n_paths = len(ZERO_LANDINGS[0])
        kernel, reference = (ScriptedSeed(77, ZERO_LANDINGS[:n_steps]) for _ in range(2))
        got = skew_chain_terminals(theta, grid, kernel, n_paths)
        want = chain_terminals_all_paths(theta, grid, reference, n_paths)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert _full_state(kernel) == _full_state(reference)
        if theta == -1.0 and n_steps == 2:  # the zero landings end on -0.0
            landed = got[[0, 2, 5]]
            assert not landed.any() and np.signbit(landed).all()

    @pytest.mark.parametrize("theta", sorted(CHAIN_GOLDEN))
    def test_golden_bytes(self, theta):
        x = skew_chain_terminals(theta, TimeGrid(1.0, 400), SeedSpec(4242), 3000)
        assert hashlib.sha256(x.tobytes()).hexdigest() == CHAIN_GOLDEN[theta]

    @settings(max_examples=60)
    @given(
        theta=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
        t_end=st.floats(1e-3, 10.0),
        n_steps=st.integers(1, 300),
        n_paths=st.integers(1, 200),
        master=SEEDS,
    )
    def test_equals_all_paths_step(self, theta, t_end, n_steps, n_paths, master):
        grid = TimeGrid(t_end, n_steps)
        got = skew_chain_terminals(theta, grid, SeedSpec(master), n_paths)
        want = chain_terminals_all_paths(theta, grid, SeedSpec(master), n_paths)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=60)
    @given(
        theta=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
        x_start=st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 50.0),
        t=st.floats(1e-3, 10.0),
        size=st.integers(1, 200),
        master=SEEDS,
    )
    def test_transition_sample_equals_all_paths_draw(self, theta, x_start, t, size, master):
        got = skew_transition_sample(theta, x_start, t, SeedSpec(master), size=size)
        want = transition_sample_all_paths(theta, x_start, t, SeedSpec(master), size)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("theta", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_transition_sample_is_one_chain_step(self, theta):
        got = skew_transition_sample(theta, 0.0, 0.7, SeedSpec(36), size=500)
        want = skew_chain_terminals(theta, TimeGrid(0.7, 1), SeedSpec(36), 500)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("size, shape", [(0, (0,)), ((3, 0), (3, 0))])
    def test_transition_sample_of_no_draws_is_empty(self, size, shape):
        got = skew_transition_sample(0.5, 0.2, 1.0, SeedSpec(37), size=size)
        assert (got.shape, got.dtype) == (shape, np.float64)

    def test_transition_sample_keeps_the_requested_shape(self):
        got = skew_transition_sample(0.6, -0.4, 0.1, SeedSpec(35), size=(3, 50))
        want = transition_sample_all_paths(0.6, -0.4, 0.1, SeedSpec(35), (3, 50))
        assert got.shape == (3, 50)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def skew_pair_full_width(theta, x0, grid, seed):
    """Reference skew walk: excursion signs put in by a full-width ``where``.

    Returns the (driver, skew, local time) node arrays and the snapped start.
    """
    rng = seed.generator()
    n = grid.n_steps
    root_h = math.sqrt(grid.h)
    m0 = int(round(x0 / root_h))
    x0_used = m0 * root_h
    steps = rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
    s_lattice = np.empty(n + 1, dtype=np.int64)
    s_lattice[0] = m0
    np.cumsum(steps, out=s_lattice[1:])
    s_lattice[1:] += m0
    exc = np.cumsum(s_lattice == 0)
    n_zeros = int(exc[-1])
    if theta == 0.0 or n_zeros == 0:
        w_lattice = s_lattice.astype(np.float64)
    else:
        flips = np.where(rng.random(n_zeros) < (1.0 + theta) / 2.0, 1.0, -1.0)
        signs = np.concatenate(([1.0], flips))[exc]
        w_lattice = np.where(exc == 0, s_lattice, signs * np.abs(s_lattice))
    skew_values = w_lattice * root_h
    local_time = (exc - exc[0]) * root_h
    driver_values = skew_values - x0_used - theta * local_time
    return driver_values, skew_values, local_time, x0_used


class TestSkewWalkKernel:
    @settings(max_examples=80)
    @given(
        theta=THETAS | st.just(0.0),
        start=st.sampled_from([0.0, -0.0])
        | st.floats(-1.0, 1.0)
        | st.tuples(st.integers(-4, 4), st.floats(-0.45, 0.45)),
        grid=GRIDS,
        master=SEEDS,
    )
    def test_equals_full_width_signs(self, theta, start, grid, master):
        # a (sites, fraction) start lies that many lattice sites from 0, off the
        # lattice, so the walk often reaches 0 after a stretch on the start's side
        x0 = (start[0] + start[1]) * math.sqrt(grid.h) if isinstance(start, tuple) else start
        coupled = simulate_skew_pair(theta, x0, grid, SeedSpec(master))
        got = (coupled.driver_B.values, coupled.skew_B.values, coupled.local_time_L.values)
        *want, x0_used = skew_pair_full_width(theta, x0, grid, SeedSpec(master))
        assert coupled.x0 == x0_used
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
