"""Monte Carlo estimators, goodness-of-fit tests, and refinement studies.

The reporting currency is :class:`VerificationReport`: every named check in
the package produces one, carrying the measured number, its reference, the
tolerance rule, and enough metadata (seeds, mesh, sample sizes) to reproduce
the run bit-for-bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import SeedSpec, _require_positive
from .skew import SkewCoefficients, skew_transition_sample
from .solutions import ModelParams

__all__ = [
    "EstimatorResult",
    "VerificationReport",
    "report_within_tolerance",
    "mc_mean_ci",
    "ks_statistic",
    "ks_test",
    "exit_probability",
    "convergence_study",
    "variance_with_se",
    "msd_estimate",
]


@dataclass(frozen=True)
class EstimatorResult:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named numerical check.

    ``passed`` is |measured - reference| <= tolerance unless the check uses a
    different rule, in which case measured/reference/tolerance encode that
    rule and ``metadata['rule']`` spells it out.  Serialized with the key
    ``pass``.
    """

    check_name: str
    measured: float
    reference: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {("pass" if key == "passed" else key): value for key, value in asdict(self).items()}


def report_within_tolerance(
    check_name: str, measured: float, reference: float, tolerance: float, **metadata
) -> VerificationReport:
    """The default |measured - reference| <= tolerance report."""
    return VerificationReport(
        check_name=check_name,
        measured=float(measured),
        reference=float(reference),
        tolerance=float(tolerance),
        passed=bool(abs(measured - reference) <= tolerance),
        metadata=metadata,
    )


def mc_mean_ci(samples) -> EstimatorResult:
    """Sample mean with standard error sample_std / sqrt(n); needs n >= 2."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("mc_mean_ci needs a 1-d collection of at least 2 samples")
    return EstimatorResult(
        value=float(np.mean(arr)),
        std_error=float(np.std(arr, ddof=1) / math.sqrt(arr.size)),
    )


def variance_with_se(samples) -> EstimatorResult:
    """Sample variance with its large-n standard error sqrt((m4 - s^4)/n).

    A sample whose largest |x| is below 0.5 is first scaled by a power of
    two that puts that largest |x| in [0.5, 1), so its fourth moments do not
    underflow, and both figures are scaled back.  The scaling rounds nothing
    unless a figure ends below the normal float range.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 4:
        raise ValueError("variance_with_se needs a 1-d collection of at least 4 samples")
    exponent = min(math.frexp(float(np.max(np.abs(arr))))[1], 0)
    arr = np.ldexp(arr, -exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = float(np.var(arr, ddof=1))
        centered = arr - np.mean(arr)
        m4 = float(np.mean(centered**4))
    try:
        se = math.sqrt(max(m4 - s2**2, 0.0) / arr.size)
    except OverflowError:  # s2**2 beyond the float range
        se = math.inf
    if not (math.isfinite(s2) and math.isfinite(se)):
        raise ValueError("sample variance or its standard error is not finite (samples too large to square?)")
    return EstimatorResult(value=math.ldexp(s2, 2 * exponent), std_error=math.ldexp(se, 2 * exponent))


def msd_estimate(alpha: float, theta: float, t: float, n_samples: int, seed: SeedSpec) -> EstimatorResult:
    """Monte Carlo :func:`~hdp_lab.analytics.msd`: variance and SE of ``n_samples`` exact X_t from ``seed``."""
    params = ModelParams(alpha)
    draws = skew_transition_sample(theta, 0.0, t, seed, size=n_samples)
    return variance_with_se(params.transform(draws))


def ks_statistic(samples, cdf: Callable) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F| (any n >= 1).

    The cdf is validated on the sorted samples: values in [0, 1] and
    nondecreasing, else the cdf is rejected as invalid.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size < 1:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(arr), dtype=float)
    if f.shape != arr.shape:
        raise ValueError("cdf evaluator must return one value per sample")
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12) or np.any(np.diff(f) < -1e-12):
        raise ValueError("invalid cdf: values must be nondecreasing within [0, 1]")
    n = arr.size
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus, 0.0))


def ks_test(samples, cdf: Callable) -> tuple[float, float]:
    """KS statistic and asymptotic p-value (effective-size corrected).

    Requires n >= 10; the p-value uses the Kolmogorov distribution evaluated
    at (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.
    """
    from scipy.special import kolmogorov

    arr = np.asarray(samples, dtype=float)
    if arr.size < 10:
        raise ValueError("ks_test needs at least 10 samples")
    d = ks_statistic(arr, cdf)
    en = math.sqrt(arr.size)
    p = float(kolmogorov((en + 0.12 + 0.11 / en) * d))
    return d, min(max(p, 0.0), 1.0)


#: Largest exit level, in lattice sites, that :func:`exit_probability` runs.
MAX_EXIT_LEVEL = 1000


def exit_probability(
    theta: float, eps: float, n_paths: int, h: float, seed: SeedSpec
) -> EstimatorResult:
    """Fraction of skew walks from 0 exiting (-eps, eps) through the top.

    Runs the sequential skew chain directly (at 0 step up with probability
    (1+theta)/2, symmetric elsewhere), all paths in lockstep, until every
    path has left the interval.  The limiting answer (1+theta)/2 is also the
    exact lattice answer for every exit level, so the estimate carries
    binomial noise only.  Each iteration draws one uniform per live walker,
    in path order; the positions of the live walkers are kept compact, in
    that order, and shrink with them when walkers exit.

    A walk needs about level**2 steps to leave, level = ceil(eps/sqrt(h))
    lattice sites, so the exit level is capped at ``MAX_EXIT_LEVEL`` = 1000
    (10**6 expected steps, about 1000 times the 32**2 of the verify protocol
    and the CLI defaults); a finer step or a wider band raises
    :class:`ValueError` before the loop starts.
    """
    beta_plus = SkewCoefficients(theta).beta_plus
    _require_positive("eps", eps)
    _require_positive("h", h)
    if int(n_paths) < 2:
        raise ValueError("need at least 2 paths")
    sites = eps / math.sqrt(h)
    if not sites <= MAX_EXIT_LEVEL:
        raise ValueError(
            f"eps/sqrt(h) = {sites:.4g} lattice sites to the exit level; a walk needs about "
            f"{sites * sites:.3g} steps to leave, over the ceiling of {MAX_EXIT_LEVEL**2:.0e} "
            f"(exit level {MAX_EXIT_LEVEL}); use a coarser h or a smaller eps"
        )
    if h > eps * eps / 100.0:
        warnings.warn(
            f"h = {h} is coarse relative to eps^2 = {eps * eps:.6g}; "
            "the walk exits in only ~eps^2/h steps",
            stacklevel=2,
        )
    rng = seed.generator()
    level = max(int(math.ceil(sites)), 1)

    exited_top = np.zeros(int(n_paths), dtype=bool)
    alive = np.arange(int(n_paths))
    position = np.zeros(int(n_paths), dtype=np.int64)  # of the walkers in alive, in its order
    while alive.size:
        u = rng.random(alive.size)
        up = np.where(position == 0, u < beta_plus, u < 0.5)
        position += up  # +1 up, -1 down
        position += up
        position -= 1
        done = np.abs(position) >= level
        if done.any():
            exited_top[alive[done]] = position[done] >= level
            keep = ~done
            alive = alive[keep]
            position = position[keep]
    return mc_mean_ci(exited_top.astype(float))


#: Median sup-residual at or below which :func:`convergence_study` counts no rise.
CONVERGENCE_FLOOR = 1e-12


def convergence_study(
    name: str, residuals: Callable[[int], np.ndarray], meshes: Sequence[int]
) -> VerificationReport:
    """Refinement trend study: median sup-residual per mesh must not rise.

    ``residuals(n_steps)`` gives one sup-residual per path at that mesh, and
    the report is named ``name``.  ``meshes`` is a strictly increasing
    sequence of at least 3 step counts (so h is strictly decreasing).  The
    report counts inversions -- a median strictly above both its predecessor
    and ``CONVERGENCE_FLOOR`` -- and the study passes with at most one.  The
    floor makes profiles that sit at rounding level (including identically
    zero residuals) trivially passing rather than letting their ties count
    as increases.
    """
    mesh_list = [int(m) for m in meshes]
    if len(mesh_list) < 3:
        raise ValueError("need at least 3 meshes")
    if any(b <= a for a, b in zip(mesh_list, mesh_list[1:])):
        raise ValueError("meshes must be strictly increasing step counts")
    medians = []
    for n_steps in mesh_list:
        sup_residuals = np.asarray(residuals(n_steps), dtype=float)
        medians.append(float(np.median(sup_residuals)))
    inversions = sum(
        1 for a, b in zip(medians, medians[1:]) if b > a and b > CONVERGENCE_FLOOR
    )
    return VerificationReport(
        check_name=name,
        measured=float(inversions),
        reference=0.0,
        tolerance=1.0,
        passed=inversions <= 1,
        metadata={
            "rule": "median sup-residual decreasing in mesh, at most one inversion",
            "meshes": mesh_list,
            "medians": medians,
            "floor": CONVERGENCE_FLOOR,
        },
    )
