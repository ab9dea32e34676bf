"""Similarity solutions of one-phase melting problems whose latent heat
grows as a power of position, under convective, temperature, or flux
boundary conditions, together with an independent finite-difference
oracle for cross-validation."""

from .equivalence import (
    EquivalenceReport,
    convective_to_flux,
    convective_to_temperature,
    equivalence_report,
    flux_threshold,
    flux_to_convective,
    temperature_to_convective,
)
from .kummer import (
    NonConvergenceError,
    e_n,
    erfc,
    f_n,
    gamma_fn,
    iterated_erfc,
    kummer_m,
    kummer_m_array,
    kummer_m_derivative,
)
from .limits import LimitStudy, field_convergence_gap, limit_problem, run_limit_study
from .oracle import (
    ComparisonReport,
    OracleConfig,
    OracleResult,
    compare_to_closed_form,
    run_oracle,
)
from .stefan import (
    BracketNotFoundError,
    Convective,
    Flux,
    ProblemSpec,
    SimilaritySolution,
    SolverReport,
    Temperature,
    front_equation_integer_alpha,
    front_equation_lhs,
    front_equation_residual,
    residual_derivative,
    solve_front,
    temperature_integer_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "BracketNotFoundError",
    "ComparisonReport",
    "Convective",
    "EquivalenceReport",
    "Flux",
    "LimitStudy",
    "NonConvergenceError",
    "OracleConfig",
    "OracleResult",
    "ProblemSpec",
    "SimilaritySolution",
    "SolverReport",
    "Temperature",
    "compare_to_closed_form",
    "convective_to_flux",
    "convective_to_temperature",
    "e_n",
    "equivalence_report",
    "erfc",
    "f_n",
    "field_convergence_gap",
    "flux_threshold",
    "flux_to_convective",
    "front_equation_integer_alpha",
    "front_equation_lhs",
    "front_equation_residual",
    "gamma_fn",
    "iterated_erfc",
    "kummer_m",
    "kummer_m_array",
    "kummer_m_derivative",
    "limit_problem",
    "residual_derivative",
    "run_limit_study",
    "run_oracle",
    "solve_front",
    "temperature_integer_alpha",
    "temperature_to_convective",
    "__version__",
]
