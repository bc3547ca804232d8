"""fpkit: stationary Fokker-Planck-Kolmogorov toolkit.

Solvers for stationary densities of non-divergence elliptic generators with
rough (Dini-type) diffusion coefficients, mean-oscillation moduli with the
Dini integral test, Poisson-equation solvers with polynomial growth bounds,
weighted-L1 coefficient-stability estimates, and mean-field fixed-point
iteration, plus a config-driven CLI.
"""

__version__ = "0.1.0"

from .errors import (ConfinementError, ConvergenceError, DegenerateDensityError,
                     EllipticityError, EllipticityMarginError, EvaluationError, FpkError,
                     GridMismatchError, IncompatibilityError, InsufficientResolutionError,
                     NonContractionError, SchemePositivityError, SupportError,
                     TruncationError, ValidationError)
from .fields import (ClosureField, ConstantField, DiffusionMatrixField, DriftField,
                     ExpressionField, GrowthParams, MollifierSpec, ScalarField,
                     linear_drift, make_example_field, mollify, polynomial_drift)
from .fpk import (ModelSpec, builtin_models, discretization_error, harnack_ratio, moment,
                  solve_exact_1d, solve_grid, weak_residual, weighted_lp_norm)
from .grids import GridDensity, GridSpec, default_radius
from .meanfield import (ContractionEstimate, FixedPointTrace, InteractionKernel,
                        MeanFieldModel, apply_phi, contraction_estimate, gaussian_probe,
                        nonlocal_coefficients, picard_iterate)
from .oscillation import (DiniEstimate, OscillationModulus, SamplingSpec, dini_integral,
                          dini_mean_oscillation)
from .poisson import (GrowthBoundReport, LyapunovWitness, PoissonProblem, PoissonSolution,
                      builtin_poisson_cases, lyapunov_constants, solve_poisson,
                      solve_poisson_1d, solve_poisson_grid, stationary_poisson,
                      verify_growth_bounds)
from .stability import (CoefficientPair, DualityReport, StabilityReport, SweepResult,
                        duality_check, rhs_discrepancy, stability_sweep, weighted_l1_distance)
from .testfunctions import BumpFunction, SmoothTestFunction, random_bumps

__all__ = [
    "__version__",
    "BumpFunction", "ClosureField", "CoefficientPair", "ConfinementError",
    "ConstantField", "ContractionEstimate", "ConvergenceError",
    "DegenerateDensityError", "DiffusionMatrixField", "DiniEstimate", "DriftField",
    "DualityReport", "EllipticityError", "EllipticityMarginError", "EvaluationError",
    "ExpressionField", "FixedPointTrace", "FpkError", "GridDensity",
    "GridMismatchError", "GridSpec", "GrowthBoundReport", "GrowthParams",
    "IncompatibilityError", "InsufficientResolutionError", "InteractionKernel",
    "LyapunovWitness", "MeanFieldModel", "ModelSpec", "MollifierSpec",
    "NonContractionError", "OscillationModulus", "PoissonProblem", "PoissonSolution",
    "SamplingSpec", "ScalarField", "SchemePositivityError", "SmoothTestFunction",
    "StabilityReport", "SupportError", "SweepResult", "TruncationError",
    "ValidationError", "apply_phi", "builtin_models", "builtin_poisson_cases",
    "contraction_estimate", "default_radius", "dini_integral", "dini_mean_oscillation",
    "discretization_error", "duality_check", "gaussian_probe", "harnack_ratio",
    "linear_drift", "lyapunov_constants", "make_example_field", "moment", "mollify",
    "nonlocal_coefficients", "picard_iterate", "polynomial_drift", "random_bumps",
    "rhs_discrepancy", "solve_exact_1d", "solve_grid", "solve_poisson",
    "solve_poisson_1d", "solve_poisson_grid", "stability_sweep", "stationary_poisson",
    "verify_growth_bounds", "weak_residual", "weighted_l1_distance", "weighted_lp_norm",
]
