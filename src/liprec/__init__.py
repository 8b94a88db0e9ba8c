"""Iterated random Lipschitz maps at desk scale.

Simulate stationary laws of random-map recursions with certified
accuracy, locate heavy-tail exponents and their constants, and check the
distributional limits of Birkhoff sums against the classified stable
regimes, all from explicit, reproducible estimators.
"""

from ._version import VERSION as __version__
from .chains import StationaryBatch, birkhoff_sums, exact_batch, stationary_batch
from .cramer import Moments, cramer_report, moments, solve_cramer
from .errors import (
    AssertionFlagError,
    BracketError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    LiprecError,
    MomentDivergenceError,
    PreconditionError,
)
from .models import FAMILIES, ModelSpec, make_model
from .randomness import (
    DistributionSpec,
    constant,
    discrete,
    lognormal,
    normal,
    stream,
    uniform,
)
from .stable import (
    c_alpha,
    c_two,
    gaussian_check,
    lambda_functional,
    limit_params,
    normalize_birkhoff,
    sample_stable_symmetric,
    stable_index_fit,
)
from .support import coverage_check, enumerate_fixed_points
from .tails import (
    direction_masses,
    goldie_constant,
    hill_estimator,
    moment_identity_residual,
    moment_upper_bound,
    tail_report,
)

__all__ = [
    "__version__",
    "AssertionFlagError",
    "BracketError",
    "CapacityError",
    "ConfigError",
    "ConvergenceError",
    "DistributionSpec",
    "DomainError",
    "FAMILIES",
    "LiprecError",
    "ModelSpec",
    "MomentDivergenceError",
    "Moments",
    "PreconditionError",
    "StationaryBatch",
    "birkhoff_sums",
    "c_alpha",
    "c_two",
    "constant",
    "coverage_check",
    "cramer_report",
    "direction_masses",
    "discrete",
    "enumerate_fixed_points",
    "exact_batch",
    "gaussian_check",
    "goldie_constant",
    "hill_estimator",
    "lambda_functional",
    "limit_params",
    "lognormal",
    "make_model",
    "moment_identity_residual",
    "moment_upper_bound",
    "moments",
    "normal",
    "normalize_birkhoff",
    "sample_stable_symmetric",
    "solve_cramer",
    "stable_index_fit",
    "stationary_batch",
    "stream",
    "tail_report",
    "uniform",
]
