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
                   minimum of the linear argument.

The skew family with alpha <= 0 and theta != 0 is *not* a solution (the
local-time term survives in the limit); the constructor still emits the
path, so the failure itself can be measured (``ModelParams.is_known_solution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Path, SeedSpec, TimeGrid, _require_positive
from .skew import CoupledSkewPath, _require_theta, simulate_skew_pair

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


def _require_alpha(alpha) -> float:
    """Reject a model exponent outside (-1, 1); nan fails too.  Returns it as a float."""
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (-1, 1), got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class ModelParams:
    """Model exponent alpha in (-1, 1), skewness theta in [-1, 1], start X0."""

    alpha: float
    theta: float = 0.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _require_alpha(self.alpha))
        object.__setattr__(self, "theta", _require_theta(self.theta))
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        object.__setattr__(self, "x0", float(self.x0))

    @property
    def is_known_solution(self) -> bool:
        """False exactly for the (alpha <= 0, theta != 0) non-solution family."""
        return not (self.alpha <= 0.0 and self.theta != 0.0)

    @property
    def inverse_exponent(self) -> float:
        """1/(1-alpha), the outer exponent of every solution formula."""
        return 1.0 / (1.0 - self.alpha)

    @property
    def start_argument(self) -> float:
        """(X0)^(1-alpha), the start transform every family's argument begins at."""
        return signed_power(self.x0, 1.0 - self.alpha)

    @property
    def skew_start(self) -> float:
        """B^theta_0 = (X0)^(1-alpha)/(1-alpha), the skew start that the solution X^theta maps to X0."""
        return self.start_argument / (1.0 - self.alpha)

    def transform(self, b):
        """X = ((1-alpha) b)^(1/(1-alpha)) in signed powers, the solution map of a skew-BM value b."""
        return signed_power((1.0 - self.alpha) * b, self.inverse_exponent)


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
    out = _abs_power(np.abs(arr), gamma)
    out *= np.sign(arr)
    return float(out) if arr.ndim == 0 else out


def _abs_power(ax: np.ndarray, gamma: float) -> np.ndarray:
    """ax**gamma for ax >= 0, with 0 wherever ax <= TINY_BASE, for every gamma."""
    out = np.zeros_like(ax)
    with np.errstate(over="ignore", divide="ignore"):
        np.power(ax, gamma, where=ax > TINY_BASE, out=out)
    return out


def _linear_argument(params: ModelParams, B: Path) -> np.ndarray:
    """(1-alpha) * B_t + (X0)^(1-alpha), the argument all families share."""
    return (1.0 - params.alpha) * B.values + params.start_argument


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


def skew_solution(params: ModelParams, grid: TimeGrid, seed: SeedSpec) -> tuple[CoupledSkewPath, Path]:
    """The coupled skew triple and X^theta = ((1-alpha) * B^theta)^(1/(1-alpha)) built from it.

    Returns ``(coupled, X)``: the walk of :func:`simulate_skew_pair` from
    ``params.skew_start`` (up to its sqrt(h) lattice snap) and its solution.
    Where ``params.is_known_solution`` is false the transform is emitted all
    the same: that family fails the SDE, which is exactly what the residual
    diagnostics are meant to show.
    """
    coupled = simulate_skew_pair(params.theta, params.skew_start, grid, seed)
    return coupled, Path(grid, params.transform(coupled.skew_B.values))


def reflected_solution_explicit(params: ModelParams, B: Path) -> Path:
    """The nonnegative (theta = 1) solution in closed form from the running minimum.

    X_t = (u_t + (min_{s<=t} u_s)_-)^(1/(1-alpha)),  u the linear argument,

    where (x)_- = max(-x, 0).  Requires X0 >= 0; the inner argument is
    nonnegative by construction, so the outer signed power is a plain power.
    """
    if params.x0 < 0.0:
        raise ValueError(f"x0 must be >= 0 for the reflected solution, got {params.x0}")
    u = _linear_argument(params, B)
    u += np.maximum(-np.minimum.accumulate(u), 0.0)
    return Path(B.grid, signed_power(u, params.inverse_exponent))
