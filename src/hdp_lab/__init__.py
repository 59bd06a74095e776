"""Simulation and verification lab for the Stratonovich equation dX = |X|^alpha o dB.

The library simulates every explicit solution family of the equation
(benchmark, stopped at zero, non-Markov window, skew, reflected), estimates
forward/backward/symmetric partition-sum integrals and covariation brackets
along the paths, evaluates the closed-form densities and moments of the
skew machinery, bridges its time reversal, and packages statistical checks of each
identity at desk scale.  The ``hdp-lab`` CLI exposes simulation, density
evaluation, and the named verification suites.
"""

from .core import Path, SeedSpec, TimeGrid, make_grid, sample_brownian
from .skew import (
    CoupledSkewPath,
    SkewCoefficients,
    local_time_occupation,
    sample_skew_with_local_time,
    simulate_skew_pair,
    skew_cdf,
    skew_chain_terminals,
    skew_density,
    skew_transition_sample,
)
from .solutions import (
    ModelParams,
    NonMarkovParams,
    benchmark_solution,
    nonmarkov_solution,
    reflected_solution_explicit,
    signed_power,
    skew_solution,
    stopped_solution,
)
from .integrals import (
    MollifierBracketReport,
    PvReport,
    abs_power_along_path,
    backward_sum,
    bracket_convergence,
    bracket_estimate,
    default_eps_sequence,
    ito_sum,
    mollify,
    pv_integral,
    sde_residual,
    stratonovich_sum,
)
from .analytics import (
    heat_check_density,
    joint_density_BL,
    joint_density_YB,
    msd,
    reversed_bridge_ensemble,
    reversed_pair_bridge,
)
from .stats import (
    EstimatorResult,
    VerificationReport,
    convergence_study,
    exit_probability,
    ks_statistic,
    ks_test,
    mc_mean_ci,
    variance_with_se,
)

__version__ = "0.1.0"
