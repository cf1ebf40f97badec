"""Matrix-game LP accuracy when tiny payoff entries force tiny pivots."""

import numpy as np
import pytest

from smgsolve import solve_matrix_game, verify_saddle_point


def test_forced_tiny_pivot_keeps_the_exact_value():
    # the ratio test must pivot on the 9.2e-9 entry, which scales the tableau by 1e8
    a = np.array([[1.0, 1.0], [2.0, 9.245716164560459e-09]])
    sol = solve_matrix_game(a)
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert solve_matrix_game(-a.T).value == pytest.approx(-1.0, abs=1e-12)
    ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, 1e-12)
    assert ok, violation


def test_saddle_on_random_matrices_with_tiny_entries():
    rng = np.random.default_rng(2)
    for _ in range(1500):
        shape = rng.integers(2, 7, size=2)
        a = rng.uniform(-10.0, 10.0, size=shape)
        tiny = rng.random(shape) < 0.2
        a[tiny] *= 10.0 ** rng.integers(-13, -4, size=int(tiny.sum()))
        sol = solve_matrix_game(a)
        tol = 1e-9 * max(1.0, abs(sol.value))
        ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, tol)
        assert ok, f"saddle violated by {violation} on {a!r}"
        assert sol.duality_gap <= tol
