"""Partition-sum stochastic integrals, brackets, principal values, residuals.

All integrals are realized as grid sums at the working mesh; convergence
statements about them are operationalized elsewhere as mesh-refinement
trend studies.  Forward (Ito), backward, and symmetric (Stratonovich) sums
share one implementation skeleton and satisfy two exact identities that the
tests rely on:

    stratonovich = (forward + backward) / 2        bracket = backward - forward

node-wise to rounding, for every integrand/driver pair on a shared grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Path, _require_positive, _require_same_grid
from .skew import CoupledSkewPath
from .solutions import TINY_BASE, ModelParams, signed_power

__all__ = [
    "MollifierBracketReport",
    "PvReport",
    "ito_sum",
    "backward_sum",
    "stratonovich_sum",
    "bracket_estimate",
    "bracket_convergence",
    "mollify",
    "default_eps_sequence",
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


@dataclass(frozen=True)
class MollifierBracketReport:
    """Sup-differences between mollified and rough brackets, one per width."""

    widths: tuple
    sup_differences: tuple

    @property
    def nonincreasing(self) -> bool:
        d = self.sup_differences
        return all(d[i + 1] <= d[i] for i in range(len(d) - 1))

    @property
    def strictly_shrinks(self) -> bool:
        """Nonincreasing with a strict overall drop (ties at the floor allowed)."""
        d = self.sup_differences
        return self.nonincreasing and d[-1] < d[0]


def bracket_convergence(
    f: Callable, coupled: CoupledSkewPath, mollifier_widths: Sequence[float]
) -> MollifierBracketReport:
    """Compare brackets of mollified f against the rough-f bracket on one path.

    For each width w the bracket of mollify(f, w)(B^theta) against the driver
    is computed and the sup over nodes of its difference from the rough
    bracket is reported.  Widths must be strictly decreasing.
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
        sups.append(float(np.max(np.abs(smooth - rough))))
    return MollifierBracketReport(tuple(widths), tuple(sups))


@dataclass(frozen=True)
class PvReport:
    """Truncated principal-value integrals at t_end, one per truncation level."""

    eps: tuple
    values: tuple
    exponent: float

    def diffs(self) -> np.ndarray:
        return np.diff(np.asarray(self.values))

    def is_cauchy(self, tolerance: float) -> bool:
        """All successive truncated values within ``tolerance`` of each other."""
        return bool(np.all(np.abs(self.diffs()) < tolerance))

    def has_monotone_drift(self, tolerance: float) -> bool:
        """Successive differences one-signed and at least one exceeding ``tolerance``."""
        d = self.diffs()
        one_signed = bool(np.all(d > 0.0)) or bool(np.all(d < 0.0))
        return one_signed and bool(np.max(np.abs(d)) >= tolerance)


def default_eps_sequence(h: float) -> list:
    """Dyadic truncation levels 2^-j, stopping below the spatial resolution 10*sqrt(h)."""
    floor = 10.0 * math.sqrt(h)
    eps = [2.0**-j for j in range(1, 64) if 2.0**-j >= floor]
    if not eps:
        raise ValueError(
            f"grid too coarse for any principal-value truncation (10*sqrt(h) = {floor:.3g} > 1/2)"
        )
    return eps


def pv_integral(X: Path, exponent: float, eps_sequence: Sequence[float] | None = None) -> PvReport:
    """Truncated signed-power time integrals sum h * (X_k)^exponent 1(|X_k| > eps).

    Left-endpoint Lebesgue sums at t_end for each truncation level.  If the
    sequence is omitted, dyadic levels down to the grid's spatial resolution
    are used.  Whether the values stabilize (Cauchy) or drift one-signedly is
    left to the report's predicates.
    """
    if eps_sequence is None:
        eps_list = default_eps_sequence(X.grid.h)
    else:
        eps_list = [float(e) for e in eps_sequence]
        if not eps_list or any(e <= 0 for e in eps_list):
            raise ValueError("eps_sequence must be positive")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ValueError("eps_sequence must be strictly decreasing")
    base = X.values[:-1]
    powered = signed_power(base, exponent)
    absx = np.abs(base)
    values = [float(X.grid.h * np.sum(powered[absx > e])) for e in eps_list]
    return PvReport(tuple(eps_list), tuple(values), float(exponent))


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
    ax = np.abs(values)
    out = np.zeros_like(ax)
    mask = ax > TINY_BASE
    with np.errstate(over="ignore"):
        np.power(ax, alpha, where=mask, out=out)
    return out


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
