"""Skew Brownian motion: coupled walk simulation, local time, exact marginals.

The coupled object is the triple (B, B^theta, L) on one grid, where B^theta
solves dB^theta = dB + theta dL with L its symmetric local time at 0, so that

    B^theta_t = x0 + B_t + theta * L_t

holds exactly at every node by construction.  The simulator is a skew random
walk with Donsker scaling: at state 0 the walk steps +/- sqrt(h) with
probabilities beta_plus / beta_minus, elsewhere symmetrically; L accumulates
sqrt(h) per visit to 0; the driver is *defined* by the identity above.

Implementation note: instead of stepping the chain state by state, we draw a
symmetric walk S and flip the sign of each excursion from 0 independently
(+ with probability beta_plus).  Conditional on |S|, the excursion signs of
the skew walk are exactly i.i.d. beta_+/- coin flips, so the flipped walk has
the same law as the sequential chain while vectorizing over steps.  The
sequential chain is kept (module stats, exit_probability) and the two are
cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Path, SeedSpec, TimeGrid, _require_positive, _skip_doubles

__all__ = [
    "SkewCoefficients",
    "CoupledSkewPath",
    "simulate_skew_pair",
    "local_time_occupation",
    "oscillating_from_skew",
    "skew_transition_sample",
    "skew_chain_terminals",
    "skew_density",
    "skew_cdf",
    "sample_skew_with_local_time",
]


def gauss_pdf(t: float, x):
    """Density of N(0, t) at x."""
    return np.exp(-np.square(x) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def _require_theta(theta) -> float:
    """Reject a skewness outside [-1, 1]; nan fails too.  Returns it as a float."""
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    return float(theta)


@dataclass(frozen=True)
class SkewCoefficients:
    """Coefficient bundle attached to a skewness parameter theta in [-1, 1].

    sigma and beta are the oscillating diffusion coefficient and its
    reciprocal, r and s the straightening/unstraightening maps with
    s(r(x)) = x; beta(0) = 1/2 and sigma(0) = 2 by the sign(0) = 0 convention.
    """

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _require_theta(self.theta))

    @property
    def beta_plus(self) -> float:
        return (1.0 + self.theta) / 2.0

    @property
    def beta_minus(self) -> float:
        return (1.0 - self.theta) / 2.0

    @property
    def kappa(self) -> float:
        return (1.0 - self.theta**2) / 2.0

    def beta(self, x):
        """(1 + theta*sign x)/2; jumps across 0, beta(0) = 1/2."""
        return (1.0 + self.theta * np.sign(x)) / 2.0

    def sigma(self, x):
        """2/(1 + theta*sign x) = 1/beta; infinite on the unreachable side at |theta| = 1."""
        with np.errstate(divide="ignore"):
            return np.true_divide(2.0, 1.0 + self.theta * np.sign(x))

    def r(self, x):
        """x * beta(x): maps the oscillating process back to the skew one."""
        return x * self.beta(x)

    def s(self, x):
        """x * sigma(x): maps the skew process to the oscillating one."""
        return x * self.sigma(x)


@dataclass(frozen=True)
class CoupledSkewPath:
    """The jointly simulated triple (driver B, skew B^theta, local time L)."""

    grid: TimeGrid
    driver_B: Path
    skew_B: Path
    local_time_L: Path
    theta: float
    x0: float


def simulate_skew_pair(theta: float, x0: float, grid: TimeGrid, seed: SeedSpec) -> CoupledSkewPath:
    """Simulate the coupled (driver, skew walk, local time) triple on ``grid``.

    The start is snapped to the walk's sqrt(h) lattice (recorded in the
    returned ``x0``), since the scheme only touches 0 exactly when started on
    the lattice; the snap moves the start by at most sqrt(h)/2.

    L counts sqrt(h) per *arrival* at 0 (nodes k >= 1 with walk value 0).
    Under this convention the theta = +/-1 cases reduce exactly to
    driver minus running minimum / maximum.

    The skew walk is signs[e] * |S| at a node of excursion e; the stretch
    before the first zero (e = 0, empty when m0 = 0) takes sign(m0), so one
    gather gives every node.
    """
    coeffs = SkewCoefficients(theta)  # validates theta
    rng = seed.generator()
    n = grid.n_steps
    root_h = math.sqrt(grid.h)
    if not abs(x0) / root_h < 2**62:  # also rejects inf and nan
        raise ValueError(f"x0 = {x0} does not fit the walk's int64 lattice at h = {grid.h}")
    m0 = int(round(x0 / root_h))
    x0_used = m0 * root_h

    steps = rng.integers(0, 2, size=n, dtype=np.int64)
    steps *= 2
    steps -= 1
    s_lattice = np.empty(n + 1, dtype=np.int64)
    s_lattice[0] = m0
    np.cumsum(steps, out=s_lattice[1:])
    s_lattice[1:] += m0

    # excursion index at node k = number of zeros at nodes <= k;
    # index 0 = the stretch before the first zero, which keeps S's own sign
    exc = (s_lattice == 0).astype(np.int64)
    np.cumsum(exc, out=exc)
    n_zeros = int(exc[-1])
    if theta == 0.0 or n_zeros == 0:
        skew_values = s_lattice.astype(np.float64)
    else:
        signs = np.empty(n_zeros + 1)
        signs[0] = np.sign(m0)
        signs[1:] = np.where(rng.random(n_zeros) < coeffs.beta_plus, 1.0, -1.0)
        skew_values = signs[exc]
        skew_values *= np.abs(s_lattice, out=s_lattice)
    skew_values *= root_h
    exc -= exc[0]  # arrivals: zeros at nodes 1..k; a zero start is no arrival
    local_time = exc * root_h
    driver_values = skew_values - x0_used
    driver_values -= theta * local_time

    return CoupledSkewPath(
        grid=grid,
        driver_B=Path(grid, driver_values),
        skew_B=Path(grid, skew_values),
        local_time_L=Path(grid, local_time),
        theta=coeffs.theta,
        x0=x0_used,
    )


def local_time_occupation(path: Path, epsilon: float) -> Path:
    """Occupation-time estimate of the local time at 0: (1/2eps) * time in [-eps, eps].

    Left-endpoint rule with midpoint counting on the band boundary: nodes with
    |X| < eps weigh 1, nodes with |X| = eps weigh 1/2.  The boundary has
    measure zero for diffusive input, but on lattice walks with eps a lattice
    multiple the plain indicator would overweight the band by half a site on
    each side (a ~25% bias at eps = 2*sqrt(h)).
    """
    _require_positive("epsilon", epsilon)
    absx = np.abs(path.values[:-1])
    weights = 0.5 * (absx <= epsilon) + 0.5 * (absx < epsilon)
    estimate = np.empty(path.grid.n_steps + 1)
    estimate[0] = 0.0
    np.cumsum(weights, out=estimate[1:])
    estimate[1:] *= path.grid.h / (2.0 * epsilon)
    return Path(path.grid, estimate)


def oscillating_from_skew(coupled: CoupledSkewPath) -> Path:
    """Transform the skew path to the oscillating one: Y = s(B^theta).

    r(Y) recovers skew_B node-wise.  At |theta| = 1 the map is finite only on
    the side the skew path actually lives on; values on the degenerate side
    (possible only for starts there) are rejected.
    """
    coeffs = SkewCoefficients(coupled.theta)
    y = coeffs.s(coupled.skew_B.values)
    if not np.all(np.isfinite(y)):
        raise ValueError(
            "oscillating transform is infinite where sigma degenerates "
            f"(theta = {coupled.theta}, path visits the unreachable half-line)"
        )
    return Path(coupled.grid, y)


#: A draw from modulus xa to rho can leave its side only where rho*xa < 33*t.
#: Beyond, the exponent -2*rho*xa/t of the damping is below -64 even after
#: rounding, the damping is under 2**-92, 1 + theta*damp and 1 + damp both
#: round to 1.0, the sign probability is exactly 1.0, and every uniform draw
#: in [0, 1) keeps the side; evaluating it there would change no bit.
_NEAR = 33.0


def _sign_stage(theta, side, xa, rho, t, u):
    """side * (+rho or -rho): the sign stage of the exact skew-BM transition from side*xa.

    The draw keeps its side (side = +-1, xa >= 0) with probability
    (1 + side*theta*damp) / (1 + damp), damp = exp(-2*rho*xa/t), that is iff
    the uniform ``u`` is below it.  Callers pass only the draws near 0
    (``rho*xa < _NEAR*t``); on the others the result is side*rho.
    """
    damp = np.exp(-2.0 * rho * xa / t)
    p_plus = (1.0 + side * theta * damp) / (1.0 + damp)
    return side * np.where(u < p_plus, rho, -rho)


def skew_transition_sample(theta, x_start, t, seed: SeedSpec, size=None):
    """Exact draw(s) from the time-t skew-BM marginal started at x_start.

    Two stages, no discretization error: |B^theta_t| is reflected BM from
    |x_start|, i.e. |N(|x_start|, t)|; conditionally on its value rho the sign
    is + with probability (1 + theta*exp(-2*rho*|x_start|/t)) /
    (1 + exp(-2*rho*|x_start|/t)).  Starts below 0 are handled through the
    mirror symmetry (theta, x) -> (-theta, -x).  The sign probability is
    evaluated only on the draws with rho*|x_start| < 33*t; on the others it
    is exactly 1.0 (see ``_NEAR``).

    With ``size=None`` returns a float, otherwise an ndarray of that shape.
    """
    theta = _require_theta(theta)
    _require_positive("t", t)
    rng = seed.generator()
    a = abs(x_start)
    n = 1 if size is None else size
    side = -1.0 if x_start < 0 else 1.0
    rho = np.abs(a + math.sqrt(t) * rng.standard_normal(n))
    u = rng.random(n)
    draws = side * rho
    near = np.flatnonzero(rho * a < _NEAR * t)  # flat indices: take/put serve any shape
    np.put(draws, near, _sign_stage(theta, side, a, rho.take(near), t, u.take(near)))
    return float(draws[0]) if size is None else draws


def skew_chain_terminals(theta, grid: TimeGrid, seed: SeedSpec, n_paths: int):
    """Terminal skew-BM values from 0 by chaining exact one-step transitions.

    Runs ``n_paths`` paths through every node of ``grid`` in lockstep; each
    step draws the next value from the same two-stage transition law as
    :func:`skew_transition_sample` (reflected shifted-normal modulus, then a
    sign with the damped-skewness probability), with the mirror handled per
    path through the current sign.  The terminal law is exact at any step
    count -- no scheme bias and no sqrt(h) value lattice, which matters for
    distribution-level tests on the terminal.

    Every step draws ``standard_normal(n_paths)``, then ``random(n_paths)``
    or the same move of the stream (see below).  The paths carry their modulus and side (+-1) from step to step, and the
    value side*modulus is built once, at the end.  The sign stage runs only
    on the paths near 0, those with rho*|x| < 33*h: elsewhere the damping
    exp(-2*rho*|x|/h) is below 2**-92, the sign probability rounds to
    exactly 1.0 and the path keeps its side, so skipping it changes no bit
    of the result.  Once the paths have spread out that is most of them.
    A path whose new value is a zero, of either sign, takes side +1, as
    ``x >= 0`` gives it.

    At |theta| = 1 a path whose side s has s*theta = 1 is pinned to it: its
    sign probability (1 + damp)/(1 + damp) is exactly 1.0 in floating point,
    it keeps its side at every step, and it never enters the sign stage.  At
    theta = 1 that is every path from the start; at theta = -1 every path
    after the first step (bar exact zero landings there).  A pinned path
    that lands on a zero keeps side -1 where ``x >= 0`` would give +1; that
    changes no bit, since from modulus 0 theta = -1 gives -rho whichever
    side the path carries, and the terminal -1 * 0.0 is the -0.0 the sign
    stage gives.  A step with no path near 0 moves the stream past its
    uniforms (:func:`~hdp_lab.core._skip_doubles`) without making them.
    """
    theta = _require_theta(theta)
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    rng = seed.generator()
    h = grid.h
    root_h = math.sqrt(h)
    near_bound = _NEAR * h
    side = np.ones(n_paths)
    xa = np.zeros(n_paths)
    # the paths not pinned to their side; None while |theta| < 1 pins none
    free = None if abs(theta) < 1.0 else np.flatnonzero(side != theta)
    for _ in range(grid.n_steps):
        rho = rng.standard_normal(n_paths)
        rho *= root_h
        rho += xa
        np.abs(rho, out=rho)
        if free is None:
            near = np.flatnonzero(rho * xa < near_bound)
        else:
            near = free[rho.take(free) * xa.take(free) < near_bound]
        if near.size:
            u = rng.random(n_paths)
            x_near = _sign_stage(theta, side.take(near), xa.take(near), rho.take(near), h, u.take(near))
            side.put(near, (x_near >= 0.0) * 2.0 - 1.0)
            if free is not None:
                free = free[side.take(free) != theta]
        else:
            _skip_doubles(rng, n_paths)
        xa = rho
    x = side * xa
    if near.size:
        x.put(near, x_near)  # the last step's values near 0, with the sign of a zero kept
    return x


def skew_density(theta, t, b):
    """Time-t marginal density of skew BM from 0: (1 + theta*sign b) * phi_t(b)."""
    _require_theta(theta)
    _require_positive("t", t)
    return (1.0 + theta * np.sign(b)) * gauss_pdf(t, b)


def skew_cdf(theta, t, b):
    """Cumulative distribution of the time-t skew-BM marginal from 0."""
    from scipy.special import ndtr

    _require_theta(theta)
    _require_positive("t", t)
    b = np.asarray(b, dtype=float)
    z = ndtr(b / math.sqrt(t))
    out = np.where(b <= 0, (1.0 - theta) * z, (1.0 - theta) / 2.0 + (1.0 + theta) * (z - 0.5))
    return float(out) if out.ndim == 0 else out


def sample_skew_with_local_time(theta, t, seed: SeedSpec, size=None):
    """Exact joint draw(s) of (B^theta_t, L_t) for the skew BM started at 0.

    The sum M = |B^theta_t| + L_t is Maxwell distributed (sqrt(t) times a
    chi with 3 degrees of freedom), and conditionally on M the skew value is
    uniform on (0, M) with probability beta_plus and uniform on (-M, 0)
    otherwise; L = M - |B^theta|.  Returns a pair (b, l).
    """
    coeffs = SkewCoefficients(theta)
    _require_positive("t", t)
    rng = seed.generator()
    n = 1 if size is None else size
    m = math.sqrt(t) * np.sqrt(np.sum(np.square(rng.standard_normal((3, n))), axis=0))
    u = rng.random(n)
    sign = np.where(rng.random(n) < coeffs.beta_plus, 1.0, -1.0)
    b = sign * u * m
    l = m - np.abs(b)
    if size is None:
        return float(b[0]), float(l[0])
    return b, l
