"""nvlab: a strong-convergence and asymptotic-error laboratory for the
Ninomiya-Victoir splitting scheme on multidimensional SDEs.

The package measures strong convergence rates (order 1/2 in general, order 1
for commuting Brownian fields), compares the scheme against its adapted
one-step surrogate, and statistically verifies the limiting law of the
rescaled error by simulating the associated affine SDE with Lie-bracket
source terms.
"""

__version__ = "0.1.0"

from .analysis import (
    ErrorPoint,
    LimitLawReport,
    RateFit,
    SourceTermEstimate,
    compare_distributions,
    fit_rate,
    limit_law_study,
    normalized_error_samples,
    scheme_gap,
    simulate_limit_sde,
    source_term_variance,
    strong_error,
    strong_error_ladder,
)
from .catalog import PROBLEM_IDS, catalog, get_problem
from .flows import FlowExplosionError
from .mlmc import LevelStats, MlmcReport, level_difference_samples, mlmc_estimate, parse_payoff
from .models import (
    BracketTable,
    Problem,
    VectorFieldSet,
    build_bracket_table,
    lie_bracket,
    stratonovich_drift,
)
from .paths import GridSpec, PathBundle, coarsen, make_bundle, make_bundle_batch
from .schemes import (
    SCHEME_IDS,
    Trajectory,
    discrete_nv_trajectory,
    exact_trajectory,
    nv_trajectory,
    trajectory,
)

__all__ = [
    "BracketTable",
    "ErrorPoint",
    "FlowExplosionError",
    "GridSpec",
    "LevelStats",
    "LimitLawReport",
    "MlmcReport",
    "PathBundle",
    "PROBLEM_IDS",
    "Problem",
    "RateFit",
    "SCHEME_IDS",
    "SourceTermEstimate",
    "Trajectory",
    "VectorFieldSet",
    "build_bracket_table",
    "catalog",
    "coarsen",
    "compare_distributions",
    "discrete_nv_trajectory",
    "exact_trajectory",
    "fit_rate",
    "get_problem",
    "level_difference_samples",
    "lie_bracket",
    "limit_law_study",
    "make_bundle",
    "make_bundle_batch",
    "mlmc_estimate",
    "normalized_error_samples",
    "nv_trajectory",
    "parse_payoff",
    "scheme_gap",
    "simulate_limit_sde",
    "source_term_variance",
    "stratonovich_drift",
    "strong_error",
    "strong_error_ladder",
    "trajectory",
]
