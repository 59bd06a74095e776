"""Explicit solution families of the Stratonovich SDE dX = |X|^alpha o dB.

All families are node-wise transforms of a driving path through signed
powers of the linear argument (1-alpha)*B_t + (X0)^(1-alpha):

* benchmark      - the global strong solution through signed powers,
* stopped        - benchmark absorbed at its first hitting time of 0,
* non-Markov     - a two-sided absorption window [-A, B_level] in argument
                   space, entered and left at signed-power branches,
* skew           - signed power of (1-alpha) * (skew BM), one solution per
                   skewness theta in [-1, 1] when alpha is in (0, 1),
* reflected      - the theta = 1 member in closed form via the running
                   minimum of the driver.

The skew family with alpha <= 0 and theta != 0 is *not* a solution (the
local-time term survives in the limit); the constructor still emits the
path, flagged by a warning, so the failure itself can be measured.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Path, _require_positive
from .skew import CoupledSkewPath

__all__ = [
    "ModelParams",
    "NonMarkovParams",
    "signed_power",
    "benchmark_solution",
    "stopped_solution",
    "nonmarkov_solution",
    "skew_solution",
    "reflected_solution_explicit",
]

#: below this magnitude the base of a signed power is treated as exact zero,
#: so negative exponents cannot manufacture infinities out of rounding dust
TINY_BASE = 1e-300


@dataclass(frozen=True)
class ModelParams:
    """Model exponent alpha in (-1, 1), skewness theta in [-1, 1], start X0."""

    alpha: float
    theta: float = 0.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not (-1.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly inside (-1, 1), got {self.alpha}")
        if not (-1.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [-1, 1], got {self.theta}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "x0", float(self.x0))

    @property
    def is_known_solution(self) -> bool:
        """False exactly for the (alpha <= 0, theta != 0) non-solution family."""
        return not (self.alpha <= 0.0 and self.theta != 0.0)

    @property
    def inverse_exponent(self) -> float:
        """1/(1-alpha), the outer exponent of every solution formula."""
        return 1.0 / (1.0 - self.alpha)


@dataclass(frozen=True)
class NonMarkovParams:
    """Absorption window parameters: zero on [-A, B_level] in argument space."""

    A: float
    B_level: float

    def __post_init__(self) -> None:
        _require_positive("A", self.A)
        _require_positive("B_level", self.B_level)


def signed_power(x, gamma: float):
    """|x|^gamma * sign(x) with the total convention 0 at x = 0 for every gamma.

    Scalars in, float out; arrays in, array out.
    """
    arr = np.asarray(x, dtype=np.float64)
    ax = np.abs(arr)
    mask = ax > TINY_BASE
    out = np.zeros_like(ax)
    with np.errstate(over="ignore", divide="ignore"):
        np.power(ax, gamma, where=mask, out=out)
    out *= np.sign(arr)
    return float(out) if arr.ndim == 0 else out


def _linear_argument(params: ModelParams, B: Path) -> np.ndarray:
    """(1-alpha) * B_t + (X0)^(1-alpha), the argument all families share."""
    return (1.0 - params.alpha) * B.values + signed_power(params.x0, 1.0 - params.alpha)


def benchmark_solution(params: ModelParams, B: Path) -> Path:
    """The signed-power strong solution X_t = ((1-alpha)B_t + (X0)^(1-alpha))^(1/(1-alpha))."""
    return Path(B.grid, signed_power(_linear_argument(params, B), params.inverse_exponent))


def stopped_solution(params: ModelParams, B: Path) -> Path:
    """The benchmark absorbed at its first visit to 0.

    On a grid, the hitting time is detected as the first node where the
    linear argument changes sign relative to its start (or hits 0 exactly);
    sub-step crossings that return within one step are missed, an O(sqrt(h))
    resolution effect inherent to grid detection.
    """
    arg = _linear_argument(params, B)
    start_sign = np.sign(arg[0])
    hit = np.flatnonzero((np.sign(arg) != start_sign) | (arg == 0.0))
    values = signed_power(arg, params.inverse_exponent)
    if hit.size:
        values[hit[0]:] = 0.0
    return Path(B.grid, values)


def nonmarkov_solution(params: ModelParams, nm: NonMarkovParams, B: Path) -> Path:
    """A non-Markov solution: absorbed on the window [-A, B_level] in argument space.

    With u the linear argument, the value is -|u + A|^(1/(1-alpha)) below the
    window, 0 inside, |u - B_level|^(1/(1-alpha)) above.  As A, B_level -> 0
    the branches close up to the benchmark transform.
    """
    u = _linear_argument(params, B)
    q = params.inverse_exponent
    values = np.where(
        u > nm.B_level,
        signed_power(np.maximum(u - nm.B_level, 0.0), q),
        np.where(u < -nm.A, -signed_power(np.maximum(-u - nm.A, 0.0), q), 0.0),
    )
    return Path(B.grid, values)


def skew_solution(params: ModelParams, coupled: CoupledSkewPath) -> Path:
    """X^theta = ((1-alpha) * B^theta)^(1/(1-alpha)) from a coupled skew triple.

    The coupled path must carry the same theta and must have been started at
    signed_power(X0, 1-alpha)/(1-alpha) (up to its sqrt(h) lattice snap).
    For alpha <= 0 with theta != 0 the transform is emitted with a warning:
    that family fails the SDE, which is exactly what the residual
    diagnostics are meant to show.
    """
    if coupled.theta != params.theta:
        raise ValueError(
            f"coupled path has theta = {coupled.theta}, params have theta = {params.theta}"
        )
    expected_start = signed_power(params.x0, 1.0 - params.alpha) / (1.0 - params.alpha)
    lattice = np.sqrt(coupled.grid.h)
    if abs(coupled.x0 - expected_start) > 0.5000001 * lattice:
        raise ValueError(
            f"coupled path starts at {coupled.x0}, expected "
            f"signed_power(x0, 1-alpha)/(1-alpha) = {expected_start} "
            f"(up to the sqrt(h)/2 lattice snap)"
        )
    if not params.is_known_solution:
        warnings.warn(
            f"(alpha={params.alpha}, theta={params.theta}) is a known non-solution: "
            "the local-time term does not vanish; path emitted for diagnostics",
            stacklevel=2,
        )
    values = signed_power((1.0 - params.alpha) * coupled.skew_B.values, params.inverse_exponent)
    return Path(coupled.grid, values)


def reflected_solution_explicit(alpha: float, x0: float, B: Path) -> Path:
    """The nonnegative (theta = 1) solution in closed form from the running minimum.

    X_t = ((1-alpha)B_t + X0^(1-alpha) + ((1-alpha)min_{s<=t}B_s + X0^(1-alpha))_-)^(1/(1-alpha))

    where (x)_- = max(-x, 0).  Requires X0 >= 0; the inner argument is
    nonnegative by construction, so the outer signed power is a plain power.
    """
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha}")
    if x0 < 0.0:
        raise ValueError(f"x0 must be >= 0 for the reflected solution, got {x0}")
    shift = signed_power(x0, 1.0 - alpha)
    running_min = np.minimum.accumulate(B.values)
    inner = (1.0 - alpha) * B.values + shift + np.maximum(
        -((1.0 - alpha) * running_min + shift), 0.0
    )
    return Path(B.grid, signed_power(inner, 1.0 / (1.0 - alpha)))
