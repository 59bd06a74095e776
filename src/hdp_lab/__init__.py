"""Simulation and verification lab for the Stratonovich equation dX = |X|^alpha o dB.

The library simulates every explicit solution family of the equation
(benchmark, stopped at zero, non-Markov window, skew, reflected), estimates
forward/backward/symmetric partition-sum integrals and covariation brackets
along the paths, evaluates the closed-form densities and moments of the
skew machinery, bridges its time reversal, and packages statistical checks of each
identity at desk scale.  The ``hdp-lab`` CLI exposes simulation, density
evaluation, and the named verification suites.
"""

# the public names are each module's __all__
from .core import *
from .skew import *
from .solutions import *
from .integrals import *
from .analytics import *
from .stats import *

__version__ = "0.1.0"
