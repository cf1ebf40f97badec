"""Matrix-game LP accuracy when tiny payoff entries force tiny pivots."""

import numpy as np
import pytest

from smgsolve import solve_matrix_game
from smgsolve.matrixgame import exploitability

from conftest import verify_saddle_point


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


def _assert_exploitability_sweep_over_hard_random_games():
    # a fixed sweep over three kinds of game: uniform, small integers with
    # ties, and uniform with 20% of the entries shrunk by 1e-13 to 1e-5
    rng = np.random.default_rng(123)
    for n in range(6000):
        shape = rng.integers(2, 11, size=2)
        kind = n % 3
        if kind == 1:
            a = rng.integers(-2, 3, size=shape).astype(float)
        else:
            a = rng.uniform(-10.0, 10.0, size=shape)
            if kind == 2:
                tiny = rng.random(shape) < 0.2
                a[tiny] *= 10.0 ** rng.integers(-13, -4, size=int(tiny.sum()))
        sol = solve_matrix_game(a)
        x, y = sol.row_strategy, sol.col_strategy
        assert x.min() >= 0.0 and y.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        (gap,) = exploitability(a[None], x[None], y[None])
        assert sol.duality_gap == gap
        assert gap <= 1e-12 * max(1.0, np.abs(a).max()), f"game {n}: {gap} on {a!r}"


def test_exploitability_sweep_over_hard_random_games():
    _assert_exploitability_sweep_over_hard_random_games()


def test_exploitability_sweep_under_blands_rule(exact_path, simplex_calls):
    _assert_exploitability_sweep_over_hard_random_games()
    assert len(exact_path) == len(simplex_calls) > 0  # every game the simplex saw
