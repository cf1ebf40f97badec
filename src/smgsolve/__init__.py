"""Solver toolkit for finite zero-sum semi-Markov games.

Models carry state-action-dependent discount rates and arbitrary holding-time
laws.  The toolkit certifies the solvability conditions, runs value iteration
over per-state matrix games to an approximate equilibrium, and cross-checks
results by exact stationary-pair evaluation and Monte Carlo simulation of the
continuous-time discounted payoff.
"""

from .matrixgame import (
    MatrixGameError,
    MatrixGameSolution,
    solve_matrix_game,
)
from .model import (
    Deterministic,
    DirectWeights,
    Exponential,
    GameModel,
    ModelError,
    ModelFormatError,
    ModelValidationError,
    SojournLaw,
    Uniform,
    load_model,
    serialize,
    validate_model,
)
from .shapley import (
    ShapleyOperator,
    StationaryStrategyPair,
    discounted_kernel_row,
    evaluate_stationary_pair,
    omega_norm,
)
from .simulate import (
    MCEstimate,
    NotSamplableError,
    estimate_value,
    simulate_trajectory,
    trajectory_rng,
)
from .solver import (
    CertificateError,
    CertificationResult,
    ConvergenceError,
    SolveReport,
    certify_solution,
    strategy_tables,
    trace_csv,
    value_iterate,
)
from .verify import (
    AssumptionCertificate,
    AssumptionCheck,
    DriftResult,
    check_assumptions,
    check_drift,
    compute_gamma,
    find_regularity_params,
    regularity_from_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionCertificate",
    "AssumptionCheck",
    "CertificateError",
    "CertificationResult",
    "ConvergenceError",
    "Deterministic",
    "DirectWeights",
    "DriftResult",
    "Exponential",
    "GameModel",
    "MCEstimate",
    "MatrixGameError",
    "MatrixGameSolution",
    "ModelError",
    "ModelFormatError",
    "ModelValidationError",
    "NotSamplableError",
    "ShapleyOperator",
    "SojournLaw",
    "SolveReport",
    "StationaryStrategyPair",
    "Uniform",
    "certify_solution",
    "check_assumptions",
    "check_drift",
    "compute_gamma",
    "discounted_kernel_row",
    "estimate_value",
    "evaluate_stationary_pair",
    "find_regularity_params",
    "load_model",
    "omega_norm",
    "regularity_from_bounds",
    "serialize",
    "simulate_trajectory",
    "solve_matrix_game",
    "strategy_tables",
    "trace_csv",
    "trajectory_rng",
    "validate_model",
    "value_iterate",
]
