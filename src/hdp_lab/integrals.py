"""Partition-sum stochastic integrals, brackets, principal values, residuals.

All integrals are realized as grid sums at the working mesh; convergence
statements about them are operationalized elsewhere as mesh-refinement
trend studies.  Forward (Ito), backward, and symmetric (Stratonovich) sums
share one implementation skeleton and satisfy two exact identities that the
tests rely on:

    stratonovich = (forward + backward) / 2        bracket = backward - forward

node-wise to rounding, for every integrand/driver pair on a shared grid.
The principal-value and mollified-bracket kernels return plain arrays, one
entry per truncation level or width; whether such a profile stabilizes,
drifts or shrinks is judged by the verify check that reads it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import Path, _require_positive, _require_same_grid
from .skew import CoupledSkewPath
from .solutions import ModelParams, _abs_power, signed_power

__all__ = [
    "ito_sum",
    "backward_sum",
    "stratonovich_sum",
    "bracket_estimate",
    "bracket_convergence",
    "mollify",
    "pv_integral",
    "sde_residual",
    "abs_power_along_path",
]


def _running_sum(grid, terms: np.ndarray) -> Path:
    """Running partition sum: the curve of values at the grid nodes, 0 at the first."""
    curve = np.empty(grid.n_steps + 1)
    curve[0] = 0.0
    np.cumsum(terms, out=curve[1:])
    return Path(grid, curve)


def ito_sum(integrand: Path, driver: Path) -> Path:
    """Left-endpoint (forward/Ito) sums: sum of X_{t_k} (Y_{t_{k+1}} - Y_{t_k})."""
    _require_same_grid(integrand, driver)
    return _running_sum(integrand.grid, integrand.values[:-1] * driver.increments())


def backward_sum(integrand: Path, driver: Path) -> Path:
    """Right-endpoint (backward) sums: sum of X_{t_{k+1}} (Y_{t_{k+1}} - Y_{t_k})."""
    _require_same_grid(integrand, driver)
    return _running_sum(integrand.grid, integrand.values[1:] * driver.increments())


def stratonovich_sum(integrand: Path, driver: Path) -> Path:
    """Midpoint (Stratonovich) sums: sum of (X_{t_k} + X_{t_{k+1}})/2 * increments."""
    _require_same_grid(integrand, driver)
    mid = 0.5 * (integrand.values[:-1] + integrand.values[1:])
    return _running_sum(integrand.grid, mid * driver.increments())


def bracket_estimate(f_of_X: Path, driver: Path) -> Path:
    """Quadratic-covariation sums: sum of increment products of f(X) and the driver.

    The caller applies f to the path first, so rough f (sign, fractional
    powers) is allowed.  Equals backward_sum - ito_sum node-wise.
    """
    _require_same_grid(f_of_X, driver)
    return _running_sum(f_of_X.grid, f_of_X.increments() * driver.increments())


def mollify(f: Callable, width: float) -> Callable:
    """Continuous surrogate of f: linear interpolation across [-width, width].

    Outside the window the surrogate is f itself; inside it is the chord
    through (-width, f(-width)) and (width, f(width)).  For f = sign this is
    the capped ramp; for continuous f the surrogate converges to f uniformly
    on compacts as width -> 0.
    """
    _require_positive("width", width)
    f_lo = float(f(-width))
    f_hi = float(f(width))

    def smoothed(x):
        x = np.asarray(x, dtype=float)
        chord = f_lo + (f_hi - f_lo) * (x + width) / (2.0 * width)
        return np.where(np.abs(x) < width, chord, f(x))

    return smoothed


def bracket_convergence(
    f: Callable, coupled: CoupledSkewPath, mollifier_widths: Sequence[float]
) -> np.ndarray:
    """Sup-differences between mollified-f and rough-f brackets on one path, one per width.

    For each width w the bracket of mollify(f, w)(B^theta) against the driver
    is computed, and the sup over nodes of its difference from the rough
    bracket is the entry for w.  Widths must be strictly decreasing.  Whether
    the entries shrink is judged by
    :func:`~hdp_lab.experiments.check_mollified_bracket_convergence`.
    """
    widths = [float(w) for w in mollifier_widths]
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise ValueError("mollifier widths must be strictly decreasing")
    rough = bracket_estimate(
        Path(coupled.grid, f(coupled.skew_B.values)), coupled.driver_B
    ).values
    sups = []
    for w in widths:
        smooth_path = Path(coupled.grid, mollify(f, w)(coupled.skew_B.values))
        smooth = bracket_estimate(smooth_path, coupled.driver_B).values
        sups.append(np.max(np.abs(smooth - rough)))
    return np.array(sups)


def pv_integral(X: Path, exponent: float, eps_sequence: Sequence[float]) -> np.ndarray:
    """Truncated signed-power time integrals sum h * (X_k)^exponent 1(|X_k| > eps).

    Left-endpoint Lebesgue sums at t_end, one per truncation level of the
    positive, strictly decreasing ``eps_sequence``.  Whether the values
    stabilize (Cauchy) or drift one-signedly is judged by
    :func:`~hdp_lab.experiments.check_pv_truncation`.
    """
    eps_list = [float(e) for e in eps_sequence]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("eps_sequence must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")
    base = X.values[:-1]
    powered = signed_power(base, exponent)
    absx = np.abs(base)
    return np.array([X.grid.h * np.sum(powered[absx > e]) for e in eps_list])


def abs_power_along_path(values: np.ndarray, alpha: float) -> np.ndarray:
    """|x|^alpha node-wise, in the almost-everywhere sense along a grid path.

    For alpha != 0 this is the plain power with |x| below 1e-300 mapped to 0.
    For alpha = 0 the function is the indicator 1(x != 0), whose essential
    value along a path that spends zero time at 0 is 1; grid zeros are
    crossings, not occupation.  So *isolated* zeros (no zero neighbor)
    evaluate to 1, while runs of zeros - genuinely absorbed stretches -
    keep the convention value 0.  Without this, lattice-walk paths (which
    touch 0 on ~sqrt(n) nodes) bias the symmetric sums by half the
    local-time defect.
    """
    if alpha == 0.0:
        nonzero = values != 0.0
        out = nonzero.astype(np.float64)
        left_free = np.ones(values.shape, dtype=bool)
        left_free[1:] = nonzero[:-1]
        right_free = np.ones(values.shape, dtype=bool)
        right_free[:-1] = nonzero[1:]
        out[~nonzero & left_free & right_free] = 1.0
        return out
    return _abs_power(np.abs(values), alpha)


def sde_residual(params: ModelParams, X: Path, driver: Path) -> Path:
    """Residual of the Stratonovich equation: X_t - X_0 - sym-sum of |X|^alpha dB.

    Zero in the refinement limit exactly when X solves dX = |X|^alpha o dB
    against the given driver; for the skew family with alpha = 0 the residual
    reproduces theta * L_t instead.
    """
    _require_same_grid(X, driver)
    integrand = Path(X.grid, abs_power_along_path(X.values, params.alpha))
    sym = stratonovich_sum(integrand, driver)
    return Path(X.grid, X.values - X.values[0] - sym.values)
