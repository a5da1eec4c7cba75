"""Two-state Markov-modulated Ornstein-Uhlenbeck processes.

Exact event-driven simulation, closed-form first-passage Laplace transforms,
closed-form invariant densities, and numerically verified scaling limits,
with every closed form cross-checked against an independent simulation or
integral-equation oracle.

The package namespace holds the entry points of the README's library sketch
and the error classes; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .errors import (
    DoubleRangeError,
    KacOuError,
    NoInvariantMeasureError,
    OracleError,
    OutOfDomainError,
    ParameterError,
    SeriesConvergenceError,
    UnsupportedRegimeError,
    WorkLimitError,
)
from .first_passage import FptQuery, fpt_integral_oracle, laplace_fpt
from .invariant import invariant_density, invariant_mass
from .model import KacOuModel, pattern_phi
from .simulate import evaluate_x, mc_laplace_fpt

__all__ = [
    "KacOuModel",
    "FptQuery",
    "laplace_fpt",
    "fpt_integral_oracle",
    "mc_laplace_fpt",
    "invariant_density",
    "invariant_mass",
    "evaluate_x",
    "pattern_phi",
    "KacOuError",
    "ParameterError",
    "DoubleRangeError",
    "WorkLimitError",
    "OutOfDomainError",
    "UnsupportedRegimeError",
    "NoInvariantMeasureError",
    "OracleError",
    "SeriesConvergenceError",
]
