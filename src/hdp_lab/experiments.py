"""Named verification experiments with frozen seeds, meshes, and tolerances.

Each ``check_*`` function runs one desk-scale experiment against a closed
form or a proven failure mode and returns a list of
:class:`~hdp_lab.stats.VerificationReport`; ``SUITES`` groups them under the
CLI suite names.  Protocol values (seeds, sample and path counts, grids,
starts, thetas, exponents, pass thresholds) live here rather than in the
library modules.  Each check binds each of its values once, and the run and
the report -- its reference, tolerance, verdict and metadata -- read that
binding, so the report states the protocol that ran and can be reproduced
from its metadata alone.

A check is made of **units**, one per parameter point (a theta, an
(alpha, theta) pair, a (theta, t) pair, ...), each drawing from its own
frozen seeds in a fixed order, so a unit gives the same reports wherever
and whenever it runs.  ``check()`` runs every unit in order and
``check(i)`` only unit ``i``; :func:`run_suite` deals the units of a
suite into shares up front, heaviest first by their measured seconds, runs
the lightest share in its own process and the others in forked workers, and
puts the reports back in registry order.
``elapsed_s`` on a report is the wall-clock seconds of the call that made
it; in :func:`run_suite` output it is the sum over the check's units, so it
measures the check's work, not the time its units overlapped.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from typing import Callable

import numpy as np

from .analytics import _bl_density, _yb_density, heat_check_density, msd, reversed_bridge_ensemble
from .core import Path, SeedSpec, TimeGrid, _fork_map, sample_brownian
from .integrals import bracket_convergence, bracket_estimate, pv_integral, sde_residual
from .skew import (
    SkewCoefficients,
    local_time_occupation,
    simulate_skew_pair,
    skew_cdf,
    skew_chain_terminals,
    skew_transition_sample,
)
from .solutions import ModelParams, benchmark_solution, skew_solution
from .stats import (
    VerificationReport,
    convergence_study,
    exit_probability,
    ks_test,
    msd_estimate,
    report_within_tolerance,
)


def _check(*points: tuple, seconds: tuple = (), imports: tuple = ()):
    """Make ``unit(*point)`` a check with one unit per point (one unit, no arguments, if none).

    The check takes unit indices: ``check()`` runs every unit in order,
    ``check(i, ...)`` only those.  The reports of a call are stamped with its
    wall-clock seconds as ``elapsed_s``.  ``seconds`` are the units' serial
    seconds as measured (2 vCPUs), left out where they take a few hundredths.
    :func:`run_suite` deals the units into its shares by them before any
    runs, and a share that ends early takes over no work, so a stale entry
    costs wall time.
    ``imports`` names the modules the units import inside their functions
    (scipy's, which importing the package leaves unloaded): :func:`run_suite`
    imports them before it forks its workers or runs the first unit, so no
    worker imports them again and no ``elapsed_s`` includes them.
    """
    points = points or ((),)

    def register(unit: Callable[..., list[VerificationReport]]):
        @functools.wraps(unit)
        def check(*indices: int) -> list[VerificationReport]:
            t0 = time.perf_counter()
            reports = [r for i in indices or range(len(points)) for r in unit(*points[i])]
            elapsed = round(time.perf_counter() - t0, 3)
            for report in reports:
                report.metadata["elapsed_s"] = elapsed
            return reports

        del check.__wrapped__  # a check takes unit indices, not the unit's arguments
        check.n_units = len(points)
        check.unit_seconds = seconds or (0.0,) * len(points)
        check.imports = imports
        return check

    return register


@_check((-0.6, 1101), (0.0, 1102), (0.6, 1103), (1.0, 1104), seconds=(0.5, 0.4, 0.5, 0.4))
def check_exit_probabilities(theta: float, master: int) -> list[VerificationReport]:
    """Exit through +eps from a symmetric band matches the skew split (1+theta)/2."""
    eps, h, n_paths = 0.1, 1e-5, 20_000
    est = exit_probability(theta, eps=eps, n_paths=n_paths, h=h, seed=SeedSpec(master))
    return [
        report_within_tolerance(
            f"exit probability, theta={theta}",
            est.value,
            # not SkewCoefficients.beta_plus: a reference sharing the kernel's code moves with it
            (1.0 + theta) / 2.0,
            3.0 * est.std_error,
            rule="upper-exit fraction within 3 SE of (1+theta)/2",
            theta=theta,
            eps=eps,
            h=h,
            n_paths=n_paths,
            master_seed=master,
        )
    ]


@_check(
    (-0.5, 0.0, 1201),
    (0.0, 0.0, 1202),
    (0.0, 1.0, 1203),
    (0.5, 0.0, 1204),
    (0.5, 0.5, 1205),
    (0.5, 1.0, 1206),
)
def check_mean_square_displacement(alpha: float, theta: float, master: int) -> list[VerificationReport]:
    """Sample variance of exactly sampled solutions matches the closed-form msd."""
    t, n_samples = 1.0, 100_000
    est = msd_estimate(alpha, theta, t, n_samples, SeedSpec(master))
    return [
        report_within_tolerance(
            f"mean-square displacement, alpha={alpha}, theta={theta}",
            est.value,
            msd(alpha, theta, t),
            3.0 * est.std_error,
            rule="variance of 1e5 exact transformed draws within 3 SE of msd",
            alpha=alpha,
            theta=theta,
            t=t,
            n_samples=n_samples,
            master_seed=master,
        )
    ]


@_check(seconds=(0.6,))
def check_benchmark_residual_refinement() -> list[VerificationReport]:
    """Benchmark-solution sup-residuals shrink under mesh refinement.

    Fifty driving paths are sampled once at the finest mesh and subsampled to
    the coarser ones, so each mesh sees the same Brownian paths (and both
    alphas too, which is why this check is one unit).  For
    alpha = -0.5 the integrand has a singularity inside the band the paths
    explore; the frozen seed family keeps the ensemble median on the regular
    side of that singularity, where the decrease is clean (the metadata
    records the medians so the rate is visible).
    """
    master, n_paths, horizon, x0 = 3007, 50, 1.0, 1.0
    meshes = [2**e for e in range(10, 17)]
    n_fine = meshes[-1]
    fine = [sample_brownian(TimeGrid(horizon, n_fine), SeedSpec(master, i)) for i in range(n_paths)]
    reports = []
    for alpha in (-0.5, 0.5):
        params = ModelParams(alpha=alpha, theta=0.0, x0=x0)

        def residuals(n_steps: int, params=params) -> np.ndarray:
            stride = n_fine // n_steps
            grid = TimeGrid(horizon, n_steps)
            sups = []
            for path in fine:
                sub = Path(grid, path.values[::stride].copy())
                solution = benchmark_solution(params, sub)
                res = sde_residual(params, solution, sub)
                sups.append(float(np.max(np.abs(res.values))))
            return np.asarray(sups)

        report = convergence_study(f"benchmark residual refinement, alpha={alpha}", residuals, meshes)
        report.metadata.update(
            {"alpha": alpha, "x0": x0, "n_paths": n_paths, "master_seed": master}
        )
        reports.append(report)
    return reports


@_check(seconds=(0.5,))
def check_skew_residual_refinement() -> list[VerificationReport]:
    """Skew-solution sup-residuals shrink under mesh refinement (fresh walks per mesh)."""
    n_paths, first_master = 50, 3101
    meshes = [2**e for e in range(10, 17)]
    params = ModelParams(alpha=0.5, theta=0.5, x0=0.0)

    def residuals(n_steps: int) -> np.ndarray:
        master = first_master + meshes.index(n_steps)
        grid = TimeGrid(1.0, n_steps)
        sups = []
        for i in range(n_paths):
            coupled, solution = skew_solution(params, grid, SeedSpec(master, i))
            res = sde_residual(params, solution, coupled.driver_B)
            sups.append(float(np.max(np.abs(res.values))))
        return np.asarray(sups)

    report = convergence_study("skew residual refinement", residuals, meshes)
    report.metadata.update(
        {
            "alpha": params.alpha,
            "theta": params.theta,
            "x0": params.x0,
            "n_paths": n_paths,
            "master_seeds": f"{first_master} + mesh index, stream = path index",
        }
    )
    return [report]


@_check((0.5,), (1.0,), seconds=(0.8, 0.8))
def check_alpha_zero_defect_slope(theta: float) -> list[VerificationReport]:
    """At alpha = 0 the residual grows as theta times the local time.

    The skew process is deliberately fed to the equation it does not solve;
    the per-path terminal residual regressed on the occupation local-time
    estimate must have slope theta (the non-solution defect is theta * L,
    not zero and not theta/2 * L).
    """
    grid = TimeGrid(1.0, 100_000)
    eps = 2.0 * math.sqrt(grid.h)
    master, n_paths, tolerance = 31, 100, 0.05
    params = ModelParams(alpha=0.0, theta=theta, x0=0.0)
    lhat, resid = [], []
    for i in range(n_paths):
        coupled, solution = skew_solution(params, grid, SeedSpec(master, i))
        res = sde_residual(params, solution, coupled.driver_B)
        resid.append(res.terminal)
        lhat.append(local_time_occupation(coupled.skew_B, eps).terminal)
    xs, ys = np.asarray(lhat), np.asarray(resid)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    r2 = 1.0 - np.sum((ys - predicted) ** 2) / np.sum((ys - ys.mean()) ** 2)
    passed = abs(slope - theta) <= tolerance and r2 > 0.98
    return [
        VerificationReport(
            check_name=f"alpha=0 defect slope, theta={theta}",
            measured=float(slope),
            reference=theta,
            tolerance=tolerance,
            passed=bool(passed),
            metadata={
                "rule": "terminal residual vs occupation local time: slope within 0.05 of theta and R^2 > 0.98",
                "r_squared": float(r2),
                "intercept": float(intercept),
                "h": grid.h,
                "n_paths": n_paths,
                "occupation_eps": eps,
                "master_seed": master,
            },
        )
    ]


@_check(seconds=(0.8,))
def check_sign_bracket_local_time() -> list[VerificationReport]:
    """The bracket of sign(B) against B estimates twice the local time."""
    grid = TimeGrid(1.0, 100_000)
    eps = 2.0 * math.sqrt(grid.h)
    master, n_paths, tolerance = 202, 100, 0.10
    deviations = []
    for i in range(n_paths):
        b = sample_brownian(grid, SeedSpec(master, i))
        bracket = bracket_estimate(Path(grid, np.sign(b.values)), b).terminal
        lhat = local_time_occupation(b, eps).terminal
        deviations.append(abs(bracket - 2.0 * lhat) / (2.0 * lhat))
    mean_dev = float(np.mean(deviations))
    return [
        VerificationReport(
            check_name="sign bracket vs local time",
            measured=mean_dev,
            reference=0.0,
            tolerance=tolerance,
            passed=mean_dev < tolerance,
            metadata={
                "rule": "mean over paths of |bracket(sign B, B) - 2 L| / (2 L) below 0.10",
                "h": grid.h,
                "n_paths": n_paths,
                "occupation_eps": eps,
                "master_seed": master,
            },
        )
    ]


@_check(("|x|^0.5", lambda x: np.sqrt(np.abs(x))), ("sign", np.sign))
def check_mollified_bracket_convergence(label: str, f: Callable) -> list[VerificationReport]:
    """Mollified brackets approach the rough bracket as the width shrinks."""
    grid = TimeGrid(1.0, 10_000)
    widths = (0.1, 0.01, 0.001)
    master, n_paths, theta = 3200, 10, 0.5
    first, last, all_pass = [], [], True
    for i in range(n_paths):
        coupled = simulate_skew_pair(theta, 0.0, grid, SeedSpec(master, i))
        sups = bracket_convergence(f, coupled, widths)
        first.append(sups[0])
        last.append(sups[-1])
        all_pass = all_pass and bool(np.all(sups[1:] <= sups[:-1])) and sups[-1] < sups[0]
    return [
        VerificationReport(
            check_name=f"mollified bracket convergence, f = {label}",
            measured=float(np.max(last)),
            reference=0.0,
            tolerance=float(np.min(first)),
            passed=bool(all_pass),
            metadata={
                "rule": "per-path sup-differences nonincreasing in width with a strict overall drop",
                "widths": list(widths),
                "theta": theta,
                "h": grid.h,
                "n_paths": n_paths,
                "master_seed": master,
                "first_width_sups": [float(v) for v in first],
                "last_width_sups": [float(v) for v in last],
            },
        )
    ]


def _yb_mass(theta: float, t: float) -> float:
    """Total mass of the (Y, B) joint density by wedge-aware nested quadrature."""
    from scipy import integrate

    coeffs = SkewCoefficients(theta)
    density = _yb_density(theta, t)
    y_max = 14.0 * math.sqrt(t) / coeffs.beta_minus

    def inner(y: float) -> float:
        m_hi = theta * coeffs.beta(y) * abs(y) + 14.0 * theta * math.sqrt(t)
        z_lo = 2.0 * y * coeffs.beta(y) ** 2 - m_hi
        z_hi = coeffs.r(y)
        value, _ = integrate.quad(lambda z: density(y, z), z_lo, z_hi, epsabs=1e-12, limit=200)
        return value

    negative, _ = integrate.quad(inner, -y_max, 0.0, epsabs=1e-10, limit=200)
    positive, _ = integrate.quad(inner, 0.0, y_max, epsabs=1e-10, limit=200)
    return negative + positive


def _density_masses(theta: float, t: float) -> VerificationReport:
    """Both joint densities integrate to one at (theta, t)."""
    from scipy import integrate

    bl_density = _bl_density(theta, t, 0.0)
    bl_mass, _ = integrate.dblquad(
        lambda l, b: bl_density(b, l),
        -12.0 * math.sqrt(t),
        12.0 * math.sqrt(t),
        1e-12,
        15.0 * math.sqrt(t),
        epsabs=1e-10,
        epsrel=1e-10,
    )
    yb_mass = _yb_mass(theta, t)
    return report_within_tolerance(
        f"joint density masses, theta={theta}, t={t}",
        max(abs(bl_mass - 1.0), abs(yb_mass - 1.0)),
        0.0,
        1e-4,
        rule="adaptive quadrature of both joint densities within 1e-4 of 1",
        bl_mass=float(bl_mass),
        yb_mass=float(yb_mass),
        theta=theta,
        t=t,
    )


def _yb_z_marginal(theta: float, t: float) -> VerificationReport:
    """Integrating y out of the (Y, B) joint density leaves the Gaussian in z."""
    from scipy import integrate

    coeffs = SkewCoefficients(theta)
    density = _yb_density(theta, t)
    n_z, worst = 20, 0.0
    for z in np.linspace(-2.2, 2.2, n_z).tolist():
        y_lo = coeffs.s(z)
        y_hi = coeffs.s(abs(z) + 14.0 * math.sqrt(t)) + 1.0
        pieces = [(y_lo, 0.0), (0.0, y_hi)] if y_lo < 0 else [(y_lo, y_hi)]
        total = 0.0
        for a, b in pieces:
            value, _ = integrate.quad(lambda y: density(y, z), a, b, epsabs=1e-12, limit=300)
            total += value
        gauss = math.exp(-z * z / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
        worst = max(worst, abs(total - gauss))
    return report_within_tolerance(
        "(Y, B) z-marginal vs Gaussian",
        worst,
        0.0,
        1e-4,
        rule="integrated-out y marginal within 1e-4 of the Gaussian at 20 z points",
        theta=theta,
        t=t,
        z_points=n_z,
    )


@_check(
    (_density_masses, 0.3, 0.5),
    (_density_masses, 0.3, 1.0),
    (_density_masses, 0.7, 0.5),
    (_density_masses, 0.7, 1.0),
    (_yb_z_marginal, 0.7, 1.0),
    imports=("scipy.integrate",),
)
def check_density_normalizations(part: Callable, theta: float, t: float) -> list[VerificationReport]:
    """Joint densities integrate to one; the (Y, B) z-marginal is Gaussian."""
    return [part(theta, t)]


@_check((0.3,), (0.7,))
def check_heat_identity(theta: float) -> list[VerificationReport]:
    """The joint density solves its forward equation, with second-order FD decay.

    Twenty wedge points pass a time-derivative magnitude screen; at each the
    relative residual uses central differences at two steps.  Individual
    ratios are roundoff-limited where the residual sits near the double
    precision FD floor, so the halving check applies to the median ratio.
    """
    u, fd_steps, du_screen, tolerance = 0.7, (2e-4, 1e-4), 0.05, 1e-4
    coeffs = SkewCoefficients(theta)
    candidates = []
    for y in list(np.linspace(0.2, 1.3, 8)) + list(-np.linspace(0.2, 1.1, 7)):
        for offset in (0.3, 0.7, 1.2):
            candidates.append((float(y), float(coeffs.r(y) - offset)))
    picked = []
    d = fd_steps[0]
    later, earlier = _yb_density(theta, u + d), _yb_density(theta, u - d)
    for y, z in candidates:
        slope = (later(y, z) - earlier(y, z)) / (2.0 * d)
        if abs(slope) >= du_screen:
            picked.append((y, z))
        if len(picked) == 20:
            break
    residuals, ratios = [], []
    for y, z in picked:
        r1, r2 = (heat_check_density(theta, u, y, z, fd_step=step) for step in fd_steps)
        residuals.append(r1)
        if r2 > 0.0:
            ratios.append(r1 / r2)
    worst = float(np.max(residuals))
    median_ratio = float(np.median(ratios))
    passed = worst <= tolerance and 3.0 <= median_ratio <= 5.0
    return [
        VerificationReport(
            check_name=f"heat identity, theta={theta}",
            measured=worst,
            reference=0.0,
            tolerance=tolerance,
            passed=bool(passed),
            metadata={
                "rule": "worst relative residual at fd=2e-4 below 1e-4 and median halving ratio in [3, 5]",
                "median_ratio": median_ratio,
                "n_points": len(picked),
                "u": u,
                "theta": theta,
                "fd_steps": list(fd_steps),
                "du_screen": du_screen,
            },
        )
    ]


def _ks_report(check_name: str, p: float, **metadata) -> VerificationReport:
    """The verdict of a check that tests a law by KS: p above the 0.01 level, reported as the reference."""
    level = 0.01
    return VerificationReport(check_name, float(p), level, 0.0, bool(p > level), metadata)


@_check((0.5,), (1.0,), seconds=(5.2, 5.0), imports=("scipy.special",))
def check_time_reversal(theta: float) -> list[VerificationReport]:
    """Reversed ensembles reproduce the forward marginals at mid-horizon.

    Terminals come from the exact marginal sampler; the reversed paths use
    the conditioned-bridge construction, and both reversed coordinates are
    tested against their forward laws at T/2 (the skew solution coordinate
    against the transformed skew cdf, the driver against the Gaussian).
    """
    from scipy.special import ndtr

    horizon, n_steps, n_paths, terminal_seed, bridge_seed = 1.0, 10_000, 10_000, 7201, 7202
    capture = n_steps // 2
    grid = TimeGrid(horizon, n_steps)
    coeffs = SkewCoefficients(theta)
    terminals = skew_transition_sample(theta, 0.0, horizon, SeedSpec(terminal_seed), size=n_paths)
    y, z, _ = reversed_bridge_ensemble(theta, terminals, grid, SeedSpec(bridge_seed), capture)
    _, p_y = ks_test(y[:, 0], lambda v: skew_cdf(theta, horizon / 2.0, coeffs.r(v)))
    _, p_z = ks_test(z[:, 0], lambda v: ndtr(np.asarray(v) / math.sqrt(horizon / 2.0)))
    return [
        _ks_report(
            f"time reversal, theta={theta}",
            min(p_y, p_z),
            rule="KS p > 0.01 for both reversed coordinates at mid-horizon",
            p_solution=float(p_y),
            p_driver=float(p_z),
            theta=theta,
            horizon=horizon,
            h=grid.h,
            n_paths=n_paths,
            terminal_seed=terminal_seed,
            bridge_seed=bridge_seed,
        )
    ]


@_check((0.0, 3401), (0.5, 3402), seconds=(4.1, 4.6))
def check_pv_truncation(theta: float, master: int) -> list[VerificationReport]:
    """Principal-value truncations stabilize on Brownian paths and drift on skew ones."""
    eps_sequence = (1e-1, 1e-2, 1e-3, 1e-4)
    grid = TimeGrid(1.0, 10**6)
    n_paths, tolerance, exponent = 64, 0.5, -1.0
    profile = np.zeros(len(eps_sequence))
    for i in range(n_paths):
        if theta == 0.0:
            path = sample_brownian(grid, SeedSpec(master, i))
        else:
            path = simulate_skew_pair(theta, 0.0, grid, SeedSpec(master, i)).skew_B
        profile += pv_integral(path, exponent, eps_sequence)
    profile /= n_paths
    diffs = np.diff(profile)
    largest = float(np.max(np.abs(diffs)))
    if theta == 0.0:
        passed = largest < tolerance
        rule = "ensemble-mean truncated values Cauchy within 0.5"
    else:
        one_signed = bool(np.all(diffs > 0.0)) or bool(np.all(diffs < 0.0))
        passed = one_signed and largest >= tolerance
        rule = "ensemble-mean truncated values drift one-signed beyond 0.5"
    return [
        VerificationReport(
            check_name=f"pv truncation, theta={theta}",
            measured=largest,
            reference=0.0,
            tolerance=tolerance,
            passed=bool(passed),
            metadata={
                "rule": rule,
                "profile": [float(v) for v in profile],
                "eps_sequence": list(eps_sequence),
                "exponent": exponent,
                "h": grid.h,
                "n_paths": n_paths,
                "master_seed": master,
            },
        )
    ]


@_check((0.0, 7301), (0.5, 7311), (1.0, 7321), seconds=(4.3, 4.4, 2.5), imports=("scipy.special",))
def check_power_transform_law(theta: float, master: int) -> list[VerificationReport]:
    """The straightening transform of grid-simulated solutions is reflected BM in law."""
    from scipy.special import ndtr

    alpha = 0.5
    grid = TimeGrid(1.0, 10_000)
    n_paths = 10_000
    terminals = skew_chain_terminals(theta, grid, SeedSpec(master), n_paths)
    solution = ModelParams(alpha).transform(terminals)
    transformed = np.abs(solution) ** (1.0 - alpha) / (1.0 - alpha)
    _, p = ks_test(transformed, lambda v: 2.0 * ndtr(np.asarray(v)) - 1.0)
    return [
        _ks_report(
            f"power-transform law, theta={theta}",
            p,
            rule="KS of |X_1|^(1-alpha)/(1-alpha) against the reflected-BM cdf, p > 0.01",
            alpha=alpha,
            theta=theta,
            h=grid.h,
            n_paths=n_paths,
            master_seed=master,
        )
    ]


SUITES: dict[str, list[Callable[[], list[VerificationReport]]]] = {
    "densities": [check_density_normalizations],
    "msd": [check_mean_square_displacement],
    "exit-prob": [check_exit_probabilities],
    "brackets": [check_sign_bracket_local_time, check_mollified_bracket_convergence],
    "sde-residuals": [
        check_benchmark_residual_refinement,
        check_skew_residual_refinement,
        check_alpha_zero_defect_slope,
    ],
    "reversal": [check_time_reversal],
    "heat": [check_heat_identity],
    "pv": [check_pv_truncation],
    "chain-rule": [check_power_transform_law],
}


def _deal(units: list, workers: int) -> list[list]:
    """The ``(check, index)`` units dealt into ``workers`` shares up front by their measured seconds, lightest first.

    Heaviest first (ties in registry order), each unit joins the share with
    the fewest seconds so far, of those the one with the fewest units, of
    those the first.  So the longest units start at once, and units of
    equal weight split evenly: six 0-second units go 3/3 over two shares.
    The lightest share comes first because :func:`run_suite` runs the first
    share in its own process, where a unit's peak RSS reads about 10 MB
    above what it reads in a forked worker (which leaves out the library
    pages it never touches); so the heaviest units, here also the largest,
    run in workers.
    """
    shares: list[list] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for check, index in sorted(units, key=lambda unit: -unit[0].unit_seconds[unit[1]]):
        k = min(range(workers), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append((check, index))
        loads[k] += check.unit_seconds[index]
    return [shares[k] for k in sorted(range(workers), key=loads.__getitem__)]


def run_suite(name: str, workers: int | None = None) -> list[VerificationReport]:
    """Run every check registered under a suite name ('all' runs everything).

    The modules the suites' checks declare are imported first, here.  The
    checks' units are dealt into ``workers`` shares (:func:`_deal`), by
    default one per available CPU and never more than units; this process
    runs the lightest share and forked workers the others
    (``core._fork_map``), so one worker means no fork.  The reports come back in registry order,
    each check's ``elapsed_s`` being the sum of its units' seconds.  A worker
    that dies raises :class:`ChildProcessError`.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        known = ", ".join([*SUITES, "all"])
        raise KeyError(f"unknown suite {name!r}; known suites: {known}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    checks = [check for suite in names for check in SUITES[suite]]
    units = [(check, index) for check in checks for index in range(check.n_units)]
    workers = min(workers or len(os.sched_getaffinity(0)), len(units))
    declared = {module for check in checks for module in check.imports}
    for module in sorted(declared):
        importlib.import_module(module)
    shares = _deal(units, workers)
    results = _fork_map(lambda share: [check(index) for check, index in share], shares)
    by_unit = {
        unit: unit_reports for share, reports in zip(shares, results)
        for unit, unit_reports in zip(share, reports)
    }
    reports = []
    for check in checks:
        parts = [by_unit[check, index] for index in range(check.n_units)]
        elapsed = round(sum(part[0].metadata["elapsed_s"] for part in parts), 3)
        for part in parts:
            for report in part:
                report.metadata["elapsed_s"] = elapsed
                reports.append(report)
    return reports
