"""Closed forms: joint densities, mean square displacement, reversed drifts.

Everything here is exact-formula work for the skew Brownian motion B^theta
started at 0, its symmetric local time L, the oscillating process
Y = s(B^theta), and the time reversal of the pair (Y, B) over a horizon T.

Sign conventions: the formulas are stated for theta > 0 in the references
they implement; negative theta is reached through the mirror symmetry
(theta, y, z) -> (-theta, -y, -z), under which the reversed drift is odd and
the joint density invariant.  The implementations below apply to all
theta != 0 directly, with the support wedge { (r(y) - z)/theta > 0 } and an
absolute value on the Gaussian-argument factor carrying the mirror.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Path, SeedSpec, TimeGrid, _require_positive, _skip_doubles
from .skew import SkewCoefficients, _require_theta

__all__ = [
    "joint_density_BL",
    "joint_density_YB",
    "msd",
    "reversed_drift_y",
    "reversed_drift_z",
    "reversed_drift_reflected",
    "reversed_pair_bridge",
    "reversed_bridge_ensemble",
    "heat_check_density",
]


def joint_density_BL(theta, t, w0, b, l):
    """Joint density of (B^theta_t, L_t) started at w0, at (b, l) with l > 0.

    2*beta(b) * (l + |w0| + |b|) / sqrt(2 pi t^3) * exp(-(l + |w0| + |b|)^2 / (2t)).

    For w0 != 0 the law also has an atom at l = 0 (paths that never reach 0);
    this function evaluates only the absolutely continuous l > 0 part.
    """
    coeffs = SkewCoefficients(theta)
    _require_positive("t", t)
    if not math.isfinite(w0):
        raise ValueError(f"w0 must be finite, got {w0}")
    l_arr = np.asarray(l, dtype=float)
    if np.any(l_arr <= 0.0):
        raise ValueError("l must be positive (the density's continuous part lives on l > 0)")
    m = l_arr + abs(w0) + np.abs(b)
    out = 2.0 * coeffs.beta(b) * m / math.sqrt(2.0 * math.pi * t**3) * np.exp(
        -np.square(m) / (2.0 * t)
    )
    return float(out) if out.ndim == 0 else out


def joint_density_YB(theta, t, y, z):
    """Joint density of (Y_t, B_t) started at 0, with Y = s(B^theta).

    (2 beta^2(y) / (theta^2 sqrt(2 pi t^3))) * |2 y beta^2(y) - z|
        * exp(-(2 y beta^2(y) - z)^2 / (2 theta^2 t))

    on the support wedge (r(y) - z)/theta > 0, zero outside.  The absolute
    value makes the theta < 0 mirror exact; for theta > 0 the factor is
    positive on the wedge anyway.
    """
    coeffs = SkewCoefficients(theta)
    if theta == 0.0:
        raise ValueError("theta = 0 degenerates the joint law to the line y = 2z")
    _require_positive("t", t)
    y_arr = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    beta = coeffs.beta(y_arr)
    m = 2.0 * y_arr * np.square(beta) - z_arr
    support = (coeffs.r(y_arr) - z_arr) / theta > 0.0
    dens = (
        2.0
        * np.square(beta)
        / (theta**2 * math.sqrt(2.0 * math.pi * t**3))
        * np.abs(m)
        * np.exp(-np.square(m) / (2.0 * theta**2 * t))
    )
    out = np.where(support, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def msd(alpha: float, theta: float, t: float) -> float:
    """Variance of the power-transformed skew value X_t = ((1-a) B^theta_t)^(1/(1-a)), X_0 = 0.

    (2 t (1-alpha)^2)^(1/(1-alpha)) * [ Gamma((3-alpha)/(2(1-alpha))) / sqrt(pi)
                                        - theta^2 Gamma((2-alpha)/(2(1-alpha)))^2 / pi ].

    Both bracket terms carry their Gaussian-moment normalization; dropping
    the 1/pi on the second would give a negative value at (alpha, theta) =
    (0, 1), where the true answer is Var|B_1| = 1 - 2/pi.  Even in theta;
    scales exactly like t^(1/(1-alpha)).
    """
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha}")
    _require_theta(theta)
    _require_positive("t", t)
    q = 1.0 / (1.0 - alpha)
    try:
        second_moment = math.gamma(q + 0.5) / math.sqrt(math.pi)
        first_moment_sq = math.gamma((q + 1.0) / 2.0) ** 2 / math.pi
        value = (2.0 * t * (1.0 - alpha) ** 2) ** q * (second_moment - theta**2 * first_moment_sq)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"msd overflows the float range at t = {t}, alpha = {alpha}")
    return value


def _require_wedge(coeffs: SkewCoefficients, y: float, z: float) -> None:
    if (coeffs.r(y) - z) / coeffs.theta <= 0.0:
        raise ValueError(
            f"(y, z) = ({y}, {z}) lies outside the support wedge "
            f"(r(y) - z)/theta > 0 for theta = {coeffs.theta}"
        )


def reversed_drift_y(theta: float, T: float, s: float, y: float, z: float) -> float:
    """Drift of the reversed oscillating coordinate at reversed time s in [0, T].

    (theta sign y / beta(y)) * (1/(2 y beta^2(y) - z) - (2 y beta^2(y) - z)/(theta^2 (T - s)))

    on {y != 0, (r(y)-z)/theta > 0}; returns 0 at y = 0 and s = T by convention.
    """
    coeffs = SkewCoefficients(theta)
    if theta == 0.0:
        raise ValueError("reversed drift requires theta != 0")
    _require_positive("T", T)
    if not (0.0 <= s <= T):
        raise ValueError(f"s must lie in [0, T], got {s}")
    if y == 0.0:
        return 0.0
    _require_wedge(coeffs, y, z)
    if s == T:
        return 0.0
    beta = float(coeffs.beta(y))
    m = 2.0 * y * beta**2 - z
    return (theta * math.copysign(1.0, y) / beta) * (1.0 / m - m / (theta**2 * (T - s)))


def reversed_drift_z(theta: float, T: float, s: float, y: float, z: float) -> float:
    """Drift of the reversed driver coordinate: reversed_drift_y / sigma(y)."""
    coeffs = SkewCoefficients(theta)
    b_y = reversed_drift_y(theta, T, s, y, z)
    return b_y * float(coeffs.beta(y))  # 1/sigma = beta


def reversed_drift_reflected(s: float, z: float) -> float:
    """Drift z/s of time-reversed reflected Brownian motion (z >= 0, s > 0)."""
    _require_positive("s", s)
    if z < 0.0:
        raise ValueError(f"z must be nonnegative, got {z}")
    return z / s


def _bridge_draws(rng, m: int):
    """Per-step draw functions (normals, uniforms, skipped uniforms) of the bridge core.

    One shared generator draws m-vectors, and skips m uniforms by moving its
    stream past them without making them (:func:`~hdp_lab.core._skip_doubles`);
    a list of per-path generators draws one scalar per path, so path j draws
    exactly what a one-path run on its own stream draws, and skips by drawing.
    A per-path uniform is one raw 64-bit Philox output turned into a double
    as ``Generator.random`` does, ``(raw >> 11) * 2**-53``: the same bits
    and the same stream position, at about half the cost of a ``random()``
    call.  Normals stay ``standard_normal()``: the ziggurat reads a variable
    number of outputs.
    """
    if isinstance(rng, np.random.Generator):
        return (
            lambda: rng.standard_normal(m),
            lambda: rng.random(m),
            lambda: _skip_doubles(rng, m),
        )
    normals, raws = [g.standard_normal for g in rng], [g.bit_generator.random_raw for g in rng]
    uniform = lambda: (np.array([f() for f in raws], dtype=np.uint64) >> 11) * 2.0**-53
    return (lambda: np.array([f() for f in normals])), uniform, uniform


#: A bridge step from g to g_new charges local time only where g*g_new <= 32*h.
#: The local time is max(0, tail - amp) with amp = |g| + |g_new| and
#: tail**2 = (g_new - g)**2 - 2h*log(1 - u); a uniform u <= 1 - 2**-53 bounds
#: -2h*log(1 - u) by 73.5h, and amp**2 - (g_new - g)**2 = 4*g*g_new exceeds
#: 128h beyond the bound, so there the step's local time is exactly 0.0.
_CHARGE_BOUND = 32.0


def _reversed_bridge_core(theta, b0, grid, rng, capture_step):
    """Bridge-to-zero reversal for theta >= 0, vectorized over paths.

    The modulus runs the exact Gaussian bridge recursion from |b0| down to 0
    over the grid; each step draws the exact local time spent at 0 given the
    step endpoints (an atom at 0 plus a shifted-Gaussian tail), and every
    step that charges local time re-draws the excursion sign with the skew
    split.  With ``capture_step`` None returns the recorded (skew,
    local-time) node arrays, else the captured slice plus total local time.

    Every step draws a normal, a tail uniform and a sign uniform per path.
    The tail, the sign refresh and the local-time update are evaluated only
    on the paths with g*g_new <= 32*h (see ``_CHARGE_BOUND``); elsewhere the
    step charges exactly 0.0, so the result is bit for bit that of
    evaluating them on every path.  In capture mode the sign is not read
    after the capture step, so a shared generator skips the sign uniforms
    of the later steps instead of making them.
    """
    n = grid.n_steps
    h = grid.h
    horizon = grid.t_end
    m = b0.size
    normal, uniform, skip = _bridge_draws(rng, m)
    record = capture_step is None
    charge_bound = _CHARGE_BOUND * h
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
        rem = horizon - k * h
        # the final step has rem = h up to rounding; pin the ratio so the
        # bridge lands on 0 exactly instead of within sqrt(eps) of it
        ratio = max((rem - h) / rem, 0.0) if k < n - 1 else 0.0
        g_new = normal()
        g_new *= math.sqrt(h * ratio)
        g_new += g * ratio
        u_tail = uniform()
        near = np.flatnonzero(g * g_new <= charge_bound)
        g_near, g_new_near = g.take(near), g_new.take(near)
        tail = np.sqrt(np.square(g_new_near - g_near) - 2.0 * h * np.log(1.0 - u_tail.take(near)))
        step_ell = np.maximum(0.0, tail - (np.abs(g_near) + np.abs(g_new_near)))
        charged = step_ell > 0.0
        hit = near[charged]
        ell[hit] += step_ell[charged]
        if record or k < capture_step:
            sign[hit] = np.where(uniform().take(hit) < beta_plus, 1.0, -1.0)
        else:
            skip()
        g = g_new
        if record:
            np.abs(g, out=skew_nodes[k + 1])
            skew_nodes[k + 1] *= sign
            ell_nodes[k + 1] = ell
        if capture_step == k + 1:
            cap_skew = sign * np.abs(g)
            cap_ell = ell.copy()
    if record:
        return skew_nodes, ell_nodes
    return cap_skew, cap_ell, ell


def reversed_pair_bridge(
    theta: float, terminal_skew: float, grid: TimeGrid, seed: SeedSpec
) -> tuple[Path, Path]:
    """Law-exact reversed pair (Y-bar, B-bar) on [0, t_end] from a terminal skew value.

    Conditioned on the forward skew value at time t_end, the reversed skew
    coordinate is a bridge to 0: its modulus follows the exact Gaussian
    bridge recursion, local time at 0 is drawn exactly per step, and the
    excursion sign refreshes with the skew split at every zero passage.  The
    driver coordinate is the skew value minus theta times the *remaining*
    local time, so it ends at 0, the forward start.  Marginals are exact in
    law at the grid nodes; theta < 0 runs the mirrored system and negates.
    This is :func:`reversed_bridge_ensemble` with one path.  It spans the
    full horizon, since the remaining local time needs the whole bridge.
    """
    y, z = reversed_bridge_ensemble(theta, [float(terminal_skew)], grid, seed)
    return Path(grid, y[0]), Path(grid, z[0])


def reversed_bridge_ensemble(
    theta: float,
    terminal_skew,
    grid: TimeGrid,
    seed,
    capture_step: int | None = None,
):
    """Ensemble version of :func:`reversed_pair_bridge`, all paths in lockstep.

    ``seed`` is one :class:`SeedSpec` shared by all paths, or one per path;
    path j then draws exactly what ``reversed_pair_bridge`` does on seed[j].
    With ``capture_step`` None returns ``(y, z)`` of shape (paths, n + 1),
    row j holding path j's (Y-bar, B-bar) at every node.  Otherwise returns
    ``(y, z, local_time_total)``: the values at node ``capture_step`` and
    each path's total boundary local time (whose law is that of the forward
    local time at t_end -- handy for cross-checks).
    """
    coeffs = SkewCoefficients(theta)
    terminal_skew = np.asarray(terminal_skew, dtype=float)
    if terminal_skew.ndim != 1 or terminal_skew.size == 0:
        raise ValueError("terminal_skew must be a nonempty 1-d array")
    if not np.all(np.isfinite(terminal_skew)):
        raise ValueError("terminal_skew must be finite")
    if capture_step is not None and not 0 <= int(capture_step) <= grid.n_steps:
        raise ValueError(f"capture_step must lie in [0, {grid.n_steps}], got {capture_step}")
    flip = theta < 0.0
    th = -theta if flip else theta
    b0 = -terminal_skew if flip else terminal_skew
    if th == 1.0 and np.any(b0 < 0.0):
        raise ValueError("|theta| = 1 keeps the skew value on one half-line; terminal is unreachable")
    rng = seed.generator() if isinstance(seed, SeedSpec) else [spec.generator() for spec in seed]
    if isinstance(rng, list) and len(rng) != b0.size:
        raise ValueError(f"got {len(rng)} seeds for {b0.size} paths")
    sgn = -1.0 if flip else 1.0
    if capture_step is None:
        skew, ell = _reversed_bridge_core(th, b0.copy(), grid, rng, None)
        # path by path and in place: no full-size temporaries
        for j in range(b0.size):
            ell[:, j] = sgn * (skew[:, j] - th * (ell[-1, j] - ell[:, j]))
            skew[:, j] = coeffs.s(sgn * skew[:, j])
        return skew.T, ell.T
    cap_skew, cap_ell, ell_total = _reversed_bridge_core(
        th, b0.copy(), grid, rng, int(capture_step)
    )
    driver = cap_skew - th * (ell_total - cap_ell)
    return coeffs.s(sgn * cap_skew), sgn * driver, ell_total


def heat_check_density(theta: float, u: float, y: float, z: float, fd_step: float) -> float:
    """Relative residual of the joint-density heat identity at one point.

    Central finite differences approximate d/du p and the spatial operator
    (sigma^2(y)/2) d_yy p + sigma(y) d_yz p + (1/2) d_zz p of the (Y, B)
    joint density p(u, y, z); the identity equates them.  Returns
    |L p - d_u p| / |d_u p|.  The full 3x3 stencil must stay inside the
    wedge, off y = 0, and at positive times.
    """
    _require_positive("fd_step", fd_step)
    if not u - fd_step > 0.0:
        raise ValueError("u - fd_step must stay positive")
    if abs(y) <= fd_step:
        raise ValueError("stencil would cross y = 0; pick |y| > fd_step")
    coeffs = SkewCoefficients(theta)
    for yy in (y - fd_step, y, y + fd_step):
        for zz in (z - fd_step, z, z + fd_step):
            if (coeffs.r(yy) - zz) / theta <= 0.0:
                raise ValueError(
                    f"stencil point ({yy}, {zz}) leaves the support wedge"
                )

    d = fd_step
    p = lambda uu, yy, zz: joint_density_YB(theta, uu, yy, zz)
    du = (p(u + d, y, z) - p(u - d, y, z)) / (2.0 * d)
    p0 = p(u, y, z)
    dyy = (p(u, y + d, z) - 2.0 * p0 + p(u, y - d, z)) / d**2
    dzz = (p(u, y, z + d) - 2.0 * p0 + p(u, y, z - d)) / d**2
    dyz = (
        p(u, y + d, z + d) - p(u, y + d, z - d) - p(u, y - d, z + d) + p(u, y - d, z - d)
    ) / (4.0 * d**2)
    sigma = float(coeffs.sigma(y))
    spatial = 0.5 * sigma**2 * dyy + sigma * dyz + 0.5 * dzz
    if du == 0.0:
        raise ValueError("d/du p vanishes at this point; pick another evaluation point")
    return abs(spatial - du) / abs(du)

