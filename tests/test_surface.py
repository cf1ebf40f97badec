"""The package's public surface: every name the CLI, the tests or README use."""

import smgsolve

PUBLIC = [
    "AssumptionCertificate", "AssumptionCheck", "CertificateError", "CertificationResult",
    "ConvergenceError", "Deterministic", "DirectWeights", "DriftResult", "Exponential",
    "GameModel", "MCEstimate", "MatrixGameError", "MatrixGameSolution", "ModelError",
    "ModelFormatError", "ModelValidationError", "NotSamplableError", "ShapleyOperator",
    "SojournLaw", "SolveReport", "StationaryStrategyPair", "Uniform", "certify_solution",
    "check_assumptions", "check_drift", "compute_gamma", "discounted_kernel_row",
    "estimate_value", "evaluate_stationary_pair", "find_regularity_params", "load_model",
    "omega_norm", "regularity_from_bounds", "serialize", "simulate_trajectory",
    "solve_matrix_game", "strategy_tables", "trace_csv", "trajectory_rng", "validate_model",
    "value_iterate",
]


def test_public_names_are_pinned_and_resolve():
    # a new public name, or a deleted wrapper coming back, shows up here
    assert len(PUBLIC) == 41
    assert sorted(smgsolve.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(smgsolve, name) is not None, name
