"""Matrix-game LP solver: oracles, duality, and invariance properties."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import smgsolve.matrixgame as matrixgame
from smgsolve import (
    MatrixGameError,
    certify_solution,
    load_model,
    solve_matrix_game,
    value_iterate,
)
from smgsolve.cli import main

from conftest import (
    INVESTMENT_DOC,
    failing_simplex,
    random_model,
    solve_2x2_by_equalizing,
    sparse_doc,
    verify_saddle_point,
)

SADDLE_TOL = 1e-9


def _assert_simplex(v):
    assert np.min(v) >= -1e-10
    assert float(np.sum(v)) == pytest.approx(1.0, abs=1e-10)


def test_one_by_one_game():
    sol = solve_matrix_game([[5.0]])
    assert sol.value == 5.0
    np.testing.assert_allclose(sol.row_strategy, [1.0])
    np.testing.assert_allclose(sol.col_strategy, [1.0])
    assert sol.duality_gap == 0.0


def test_matching_pennies():
    sol = solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(sol.col_strategy, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize(
    "payoff",
    [
        [[1.0, -1.0], [-1.0, 1.0]], [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], [[-0.0]], [[-0.0, 0.0]],
        # one row or one column, wider than the enumerated shapes: the simplex answers them
        [[0.0, 3.0, -0.0, 1.0, 2.0]], [[-1.0], [-0.0], [-3.0], [0.0], [-2.0]],
    ],
    ids=["pennies", "3x3", "1x1", "1x2", "1x5", "5x1"],
)
def test_a_game_of_value_zero_has_a_positive_zero_value(payoff):
    value = solve_matrix_game(payoff).value
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_two_by_two_mixed_game_against_oracles():
    a = np.array([[3.0, 1.0], [0.0, 2.0]])
    sol = solve_matrix_game(a)
    assert sol.value == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(sol.col_strategy, [0.25, 0.75], atol=1e-12)
    # equalization oracle
    v, x, y = solve_2x2_by_equalizing(a)
    assert sol.value == pytest.approx(v, abs=1e-12)
    # brute-force grid over the row player's mixtures at step 1e-3
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    payoffs = np.minimum(grid * 3.0 + (1 - grid) * 0.0, grid * 1.0 + (1 - grid) * 2.0)
    assert sol.value == pytest.approx(float(payoffs.max()), abs=2e-3)


def test_row_and_column_scans_for_degenerate_shapes():
    sol = solve_matrix_game([[4.0, -2.0, 7.0]])
    assert sol.value == -2.0
    np.testing.assert_allclose(sol.col_strategy, [0.0, 1.0, 0.0])
    sol = solve_matrix_game([[4.0], [-2.0], [7.0]])
    assert sol.value == 7.0
    np.testing.assert_allclose(sol.row_strategy, [0.0, 0.0, 1.0])


def test_a_pure_simplex_answer_reads_its_saddle_entry_exactly():
    # wider than the enumerated shapes, so the simplex answers; a pure answer
    # reads the entry itself, not the entry scaled down and back up. The 1x5
    # game ends on a 1x1 block, the 4x4 game on a 3x3 block whose equalizing
    # strategies are pure
    row = [[-0.7583697508984092, 1.4209820223119163, 0.726093788947765, 0.843732662303268,
            1.1648639811110282]]
    assert solve_matrix_game(row).value == row[0][0]
    square = [[0.0, 0.0, 1.0, -1e8], [-1e8, 1e8, 1.0, -1.0], [-1e8, 1.0, 1.0, 1e8],
              [1e8, 1.0, 1.0, 1.0]]
    sol = solve_matrix_game(square)
    assert sol.row_strategy.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert sol.col_strategy.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert sol.value == 1.0


@pytest.mark.parametrize("width", range(4, 10))
def test_a_one_row_or_one_column_game_reads_its_saddle_entry_exactly(width):
    rng = np.random.default_rng(width)
    for _ in range(50):
        row = rng.standard_normal((1, width)) * 10.0 ** rng.integers(-3, 4)
        assert solve_matrix_game(row).value == row.min()
        assert solve_matrix_game(row.T).value == row.max()


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError, match="finite"):
        solve_matrix_game([[1.0, np.nan]])
    with pytest.raises(ValueError, match="nonempty"):
        solve_matrix_game(np.zeros((0, 2)))


def test_verify_saddle_point_accepts_and_rejects():
    a = [[3.0, 1.0], [0.0, 2.0]]
    ok, violation = verify_saddle_point(a, [0.5, 0.5], [0.25, 0.75], tol=1e-9)
    assert ok and violation <= 1e-9
    ok, violation = verify_saddle_point(a, [1.0, 0.0], [0.25, 0.75], tol=1e-9)
    assert not ok
    # E((1,0), y) = 1.5 but the minimizer's best pure response to (1,0) is 1
    assert violation == pytest.approx(0.5, abs=1e-12)


def test_verify_saddle_point_trivial_and_mismatch():
    ok, violation = verify_saddle_point([[-3.7]], [1.0], [1.0], tol=0.0)
    assert ok and violation == 0.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_saddle_point([[1.0, 2.0]], [1.0, 0.0], [1.0, 0.0], tol=1e-9)


def test_duality_and_saddle_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(120):
        shape = rng.integers(1, 9, size=2)
        a = rng.uniform(-10.0, 10.0, size=shape)
        sol = solve_matrix_game(a)
        assert sol.duality_gap <= 1e-9 * max(1.0, abs(sol.value))
        _assert_simplex(sol.row_strategy)
        _assert_simplex(sol.col_strategy)
        tol = SADDLE_TOL * max(1.0, abs(sol.value))
        ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, tol)
        assert ok, f"saddle violated by {violation} on {a!r}"


def test_two_by_two_random_against_equalization_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.uniform(-10.0, 10.0, size=(2, 2))
        sol = solve_matrix_game(a)
        v, x, y = solve_2x2_by_equalizing(a)
        assert sol.value == pytest.approx(v, abs=1e-9)
        np.testing.assert_allclose(sol.row_strategy, x, atol=1e-9)
        np.testing.assert_allclose(sol.col_strategy, y, atol=1e-9)


def test_deterministic_resolution_across_runs():
    rng = np.random.default_rng(5)
    a = rng.uniform(-5.0, 5.0, size=(6, 4))
    first = solve_matrix_game(a)
    for _ in range(3):
        again = solve_matrix_game(a)
        assert again.value == first.value
        np.testing.assert_array_equal(again.row_strategy, first.row_strategy)
        np.testing.assert_array_equal(again.col_strategy, first.col_strategy)


MATRIX_22 = st.lists(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=2),
    min_size=2, max_size=2,
)


@given(rows=MATRIX_22, k=st.floats(min_value=0.1, max_value=5.0), c=st.floats(min_value=-5, max_value=5))
@settings(max_examples=120, deadline=None)
def test_affine_covariance_of_the_value(rows, k, c):
    a = np.array(rows)
    base = solve_matrix_game(a)
    shifted = solve_matrix_game(k * a + c)
    assert shifted.value == pytest.approx(k * base.value + c, abs=1e-9 * max(1.0, abs(k * base.value + c)))
    # optimal strategies for a stay optimal on the affine image
    tol = 1e-9 * max(1.0, abs(shifted.value))
    ok, violation = verify_saddle_point(k * a + c, base.row_strategy, base.col_strategy, tol)
    assert ok, violation


@given(rows=MATRIX_22)
@settings(max_examples=120, deadline=None)
def test_negated_transpose_symmetry(rows):
    a = np.array(rows)
    assert solve_matrix_game(-a.T).value == pytest.approx(-solve_matrix_game(a).value, abs=1e-9)


def test_zero_matrix_through_the_lp_path():
    sol = solve_matrix_game(np.zeros((4, 2)))  # above the enumerated shapes
    assert sol.value == 0.0
    assert sol.duality_gap == 0.0
    _assert_simplex(sol.row_strategy)
    _assert_simplex(sol.col_strategy)


def test_tiny_entry_regressions():
    # mixed 1e-5 and order-1 entries once drove pivots onto tiny coefficients,
    # blowing the priced objective up into rounding noise
    for rows in (
        [[8.253442102506341, -1e-05], [0.0, -6.707146660581355]],
        [[8.0, -1e-05], [0.0, -1.0]],
    ):
        a = np.array(rows)
        sol = solve_matrix_game(a)
        assert sol.value == pytest.approx(-1e-05, rel=1e-9)
        assert solve_matrix_game(-a.T).value == pytest.approx(1e-05, rel=1e-9)
        ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, 1e-12)
        assert ok, violation


# this matrix once cycled under the float simplex's tie-breaking rules
TIE_CYCLING = [
    [828549.6, 484010.4, -483621.7, -680625.1, -488052.5, -780107.0, 639727.2, 225274.4],
    [-118355.2, 972918.7, -957091.1, -187683.9, 201599.2, -613801.2, 737991.4, -44150.9],
    [484186.4, 915617.9, 986200.8, -821612.5, -259149.8, -14331.9, 571932.9, 749807.5],
    [-177802.8, -363067.1, -717737.5, -510810.8, -747165.2, 252222.2, -569309.9, -210592.1],
    [-282374.9, -943731.7, -573149.3, -882788.7, -840495.4, -180980.8, 107104.7, 559460.5],
    [338336.6, -765714.5, -819983.5, 230540.4, 774857.6, -403403.7, 80948.4, -156471.4],
]


def test_degenerate_tie_cycling_regression():
    a = np.array(TIE_CYCLING)
    sol = solve_matrix_game(a)
    rel = max(1.0, abs(sol.value))
    assert sol.duality_gap <= 1e-9 * rel
    ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, 1e-9 * rel)
    assert ok, violation


def _random_stacks():
    """Stacks of same-shape games: normal floats, small integers full of ties, entries of +-1e8."""
    rng = np.random.default_rng(23)
    for m, l in [(2, 2), (2, 7), (5, 3), (4, 4), (6, 8), (9, 4), (10, 10), (12, 11), (12, 12)]:
        yield rng.normal(size=(6, m, l))
        yield rng.integers(-2, 3, size=(6, m, l)).astype(float)
        huge = rng.normal(size=(6, m, l))
        huge[rng.random((6, m, l)) < 0.3] = 1e8
        huge[rng.random((6, m, l)) < 0.3] = -1e8
        yield huge
    yield np.concatenate([[TIE_CYCLING], rng.normal(size=(3, 6, 8)) * 1e6])


def _assert_each_game_of_a_stack_is_solved_as_alone(monkeypatch) -> int:
    """Returns the number of stacks in which some game left the simplex before the last pivot."""
    live = []  # the games in the stack at each pivot
    pivot = matrixgame._pivot
    monkeypatch.setattr(matrixgame, "_pivot", lambda tab, *rest: live.append(len(tab)) or pivot(tab, *rest))
    finish_apart = 0
    for stack in _random_stacks():
        alone = [matrixgame.solve_games(a[None]) for a in stack]
        for order in (slice(None), slice(None, None, -1)):
            live.clear()
            value, x, y, failed = matrixgame.solve_games(stack[order])
            assert failed == {}
            for (v_a, x_a, y_a, failed_a), v, xi, yi in zip(alone[order], value, x, y):
                assert failed_a == {}
                assert v_a.tobytes() == v.tobytes()
                assert (x_a.tobytes(), y_a.tobytes()) == (xi.tobytes(), yi.tobytes())
        finish_apart += bool(live) and live[0] > live[-1]  # some game left before the last pivot
    return finish_apart


def test_a_stack_solves_each_game_as_it_is_solved_alone(monkeypatch):
    assert _assert_each_game_of_a_stack_is_solved_as_alone(monkeypatch) >= 10


def test_under_blands_rule_a_stack_solves_each_game_as_it_is_solved_alone(
    monkeypatch, exact_path, simplex_calls
):
    _assert_each_game_of_a_stack_is_solved_as_alone(monkeypatch)
    assert len(exact_path) == len(simplex_calls) > 0  # every game the simplex saw went to _exact


def test_every_game_the_simplex_fails_is_reported(monkeypatch):
    failing_simplex(monkeypatch, range(3))
    stack = np.random.default_rng(3).normal(size=(3, 4, 5))
    value, x, y, failed = matrixgame.solve_games(stack)
    assert failed == dict.fromkeys(range(3), "exact answer failed the acceptance test")
    with pytest.raises(MatrixGameError, match="^exact answer failed the acceptance test$"):
        solve_matrix_game(stack[0])


@pytest.mark.parametrize("singular, regular", [
    # the singular block's determinant divided by zero
    ([[1e-300, 0.0, 1e8], [1e-300, 0.0, 1e8], [1e-300, 1e-300, 1e8]], np.eye(3)),
    # the regular block's determinant overflowed
    ([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 1.0]], np.eye(3) * 1e200),
    # the regular block's determinant underflowed
    ([[1e-300, 0.0, 1e8], [1e-300, 0.0, 1e8], [1e-300, 1e-300, 1e8]], np.eye(3) * 1e-200),
])
def test_a_singular_block_is_flagged_without_a_floating_point_warning(singular, regular):
    # RuntimeWarnings are errors here (pyproject.toml)
    *_, flags = matrixgame.equalize(np.array([singular, regular]), matrixgame._bordered(2, 3))
    assert flags.tolist() == [False, True]


# bounded, feasible games on which the simplex ends on a basis whose block is
# singular; the first found by hand, the second by a seeded sweep of 40,000 games
SINGULAR_BASIS = {
    "9x8": [
        [1e8, 1e8, 1, 1, 0, 0, 1, 1e8], [0, 1, 0, -1e8, 1, 1, 0, 1],
        [1e8, 1, -1e8, 0, 1e8, 0, 1, 1], [-1e8, 1e8, 1, 1, 1e8, 1, 1e8, 1],
        [0, 1e8, 0, 0, 1e8, -1e8, -1e8, -1e8], [1, -1e8, -1e8, 0, 0, 1e8, 1e8, 1],
        [1e8, -1e8, 1, -1e8, 1, 1, 0, 1e8], [1, -1e8, -1e8, 1, 1e8, -1e8, 0, 1],
        [1, 1e8, 1, 1, 0, 1e8, 0, 1],
    ],
    "9x3": [
        [1, 0, -1e8], [1e8, 0, 1], [-1e8, 1, -1], [1e8, -1e8, 1], [0, -1, 1e8],
        [1e8, -1e8, -1e8], [-1e8, -1, -1e8], [1e8, 1, 1], [-1e8, 1, 1],
    ],
}


def _value_bracket(a: np.ndarray, x, y) -> tuple[Fraction, Fraction]:
    """Exact bounds on the value of ``a``: ``min(x A)`` and ``max(A y)`` over the normalized ``x`` and ``y``.

    An LP solver's tolerances are no oracle here: on sweep game 56198, scipy's
    HiGHS reads -0.25 for a value of -0.1667.
    """
    rows = [[Fraction(v) for v in row] for row in a.tolist()]
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    low = min(sum(p * row[j] for p, row in zip(x, rows)) for j in range(a.shape[1])) / sum(x)
    high = max(sum(v * q for v, q in zip(row, y)) for row in rows) / sum(y)
    return low, high


# a bounded, feasible 8x9 game on which the float simplex's ratio test finds
# no leaving row: rounding alone makes its LP look unbounded
UNBOUNDED_VERDICT = [
    [1e8, 0, 1e8, -1, -1e8, -1, -1, -1e8, 1e8], [-1e8, -1e8, -1, -1e8, 0, -1e8, 1, 1e8, 1],
    [1e8, 1e8, 1, -1, -1, -1, -1, 1e8, 1e8], [1e8, 0, -1, 0, 1e8, -1e8, 1, -1e8, -1],
    [-1, -1e8, 1e8, -1, 1, 1, -1, 1, -1e8], [1e8, -1, 1e8, 0, -1e8, 0, -1e8, 0, -1e8],
    [0, -1, 0, 1e8, -1, -1e8, 1e8, 1e8, 0], [1e8, 0, 0, -1e8, -1e8, 1e8, -1, 1, 1],
]

# games of a seeded sweep, by number: on 55584, 56198 and 85872 the float
# simplex ends on a singular block with no passing support one row or one
# column away; on 180 and 179414 it ends on a regular block of a wrong
# support, whose equalizers have exploitability 1 and 2e8 (the latter with a
# value of 1e16 on entries of at most 1e8)
SWEEP_GAMES = {
    "180": [
        [1, 1, 1e8, 0, 1, 1e8, 0, 1, -1], [1e8, 1, -1, 1e8, 1, 1, 1, -1, 0],
        [0, 0, -1, -1e8, -1e8, 1e8, 1, 0, -1], [0, -1, -1, 0, 0, 0, -1e8, -1e8, 0],
        [1, 1e8, 1e8, 1, -1, 1e8, -1e8, 0, 0], [1e8, -1, 0, -1, 0, 1e8, 1, 0, -1e8],
        [1, -1e8, -1, 0, -1, 0, 0, -1e8, -1],
    ],
    "55584": [
        [-1, 1, -1, 0, -1e8, 0, 0, 0], [0, 1e8, 1e8, -1, 0, 1, 1e8, -1],
        [-1, 1, 0, 1e8, 0, -1, -1e8, 1], [-1, 0, 0, -1e8, 0, -1, -1, 1],
        [1e8, -1, 0, 1e8, 0, 1, 0, -1], [1e8, 0, 1e8, 1, -1, -1e8, 1e8, 1e8],
        [1, -1e8, -1e8, 1e8, 1, -1e8, 1, 1],
    ],
    "56198": [
        [0, 0, 1, -1e8, -1e8, 1e8, -1e8, -1e8, 0], [1, 0, 0, 0, 1e8, -1, 0, -1, -1e8],
        [-1, 1e8, -1, 1e8, -1, 0, 0, 1e8, 0], [0, 0, 0, 0, 1e8, -1e8, 1, 0, 0],
        [-1, 0, -1, 0, -1e8, -1e8, 0, 1, -1e8], [1e8, 0, 0, 1e8, -1, 1e8, 1, 1e8, -1],
        [-1e8, 1e8, 1e8, 1e8, 0, 1, -1e8, 1e8, 0], [1e8, 1e8, -1e8, -1e8, 0, -1, -1e8, 0, -1],
    ],
    "85872": [
        [1e8, -1, 1e8, 0, -1, -1e8, -1, -1e8, -1], [1e8, 0, 0, 1e8, 0, 1e8, 0, 0, -1],
        [1e8, 0, -1e8, -1e8, 1, -1e8, -1, -1, -1e8], [1, -1e8, 1e8, 1e8, -1e8, 1e8, 1e8, 0, 1e8],
        [0, 1e8, -1, 0, 1, 1e8, 0, 1, 1], [1e8, 0, 1e8, 1e8, 0, 1, -1, 0, 0],
        [-1e8, 0, -1, -1e8, -1, -1e8, -1, 1, -1], [1e8, -1, -1e8, 0, -1, 0, -1, -1e8, 0],
    ],
    "179414": [
        [1e8, -1e8, -1e8, -1e8, 0, 1, -1e8, 1e8], [-1, 0, 0, -1e8, -1e8, 1e8, -1e8, -1],
        [-1e8, 1, 0, 1e8, 1e8, 1, 1, -1e8], [1e8, -1, -1, 1, 1, 1, -1, 1e8],
        [0, -1, 1e8, 1e8, 0, 1e8, 1e8, 0], [1e8, 0, 1e8, -1, -1, 1, 0, 1e8],
        [1e8, -1, 0, 1, 1, 1e8, 0, 1e8], [-1, 1, 0, -1e8, -1, -1, -1e8, 1e8],
    ],
}


@pytest.mark.parametrize("rows", [
    *(pytest.param(rows, id=f"singular-{name}") for name, rows in SINGULAR_BASIS.items()),
    pytest.param(UNBOUNDED_VERDICT, id="unbounded-8x9"),
    *(pytest.param(rows, id=f"sweep-{name}") for name, rows in SWEEP_GAMES.items()),
])  # fmt: skip
def test_a_game_the_float_simplex_cannot_answer_is_answered_exactly(rows, tmp_path, exact_calls):
    a = np.array(rows, dtype=float)
    out = tmp_path / "game.json"
    assert main(["game", json.dumps(rows), "--out", str(out)]) == 0
    assert len(exact_calls) == 1
    doc = json.loads(out.read_text())
    scale = max(1.0, float(np.abs(a).max()))
    ok, _ = verify_saddle_point(a, doc["rowStrategy"], doc["colStrategy"], tol=1e-9 * scale)
    assert ok and doc["dualityGap"] <= 1e-12 * scale
    low, high = _value_bracket(a, doc["rowStrategy"], doc["colStrategy"])
    tol = 1e-12 * scale
    assert doc["value"] - tol <= low <= high <= doc["value"] + tol


def test_a_stack_the_simplex_gives_up_on_goes_to_the_exact_simplex_once_per_game(exact_path):
    stack = np.random.default_rng(4).normal(size=(3, 4, 5))
    value, x, y, failed = matrixgame.solve_games(stack)
    assert failed == {}
    assert [a.tobytes() for a in exact_path] == [a.tobytes() for a in stack]
    for a, v, xi, yi in zip(stack, value, x, y):
        v_a, x_a, y_a = matrixgame._exact(a)
        assert (v, xi.tobytes(), yi.tobytes()) == (v_a, x_a.tobytes(), y_a.tobytes())


# an 8x8 game whose exact simplex takes 18 pivots, more than its 16 rows and
# columns: every game tier-1 sends to the exact simplex takes at most one per
# row and column
PAST_ONE_PIVOT_PER_SIDE = [
    [1e8, 0, -1e8, 0, -1e8, 1e8, 1e8, -1], [0, 0, -1, 1, 1e8, -1e8, -1, 0],
    [1e8, -1e8, -1, 1, 0, -1, -1, 1e8], [1, -1, 1, 1e8, -1, 1e8, 0, -1e8],
    [1e8, 0, 0, 1, 1, -1, 1, 0], [0, 0, -1e8, -1, 1, -1e8, -1, -1e8],
    [1e8, 0, 1e8, 1e8, 1, 1, 1, -1e8], [1e8, 1, 1, 0, -1, 1e8, 1e8, -1],
]


def test_a_game_past_the_exact_pivot_cap_fails_naming_the_cap(monkeypatch, exact_path, tmp_path, capsys):
    rows = PAST_ONE_PIVOT_PER_SIDE
    a = np.array(rows, dtype=float)
    value, x, y, failed = matrixgame.solve_games(a[None])
    assert failed == {} and len(exact_path) == 1  # under the default cap of 160 pivots
    monkeypatch.setattr(matrixgame, "_EXACT_PIVOTS", 1)
    message = "exact simplex reached its cap of 16 pivots before an optimum"
    assert matrixgame.solve_games(a[None])[3] == {0: message}
    with pytest.raises(MatrixGameError, match=f"^{message}$"):
        solve_matrix_game(a)
    capsys.readouterr()
    assert main(["game", json.dumps(rows), "--out", str(tmp_path / "game.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "game.json").exists()


def test_the_exact_simplex_stays_off_the_hot_path(exact_calls):
    for doc in (INVESTMENT_DOC, sparse_doc(200)):
        m = load_model(json.dumps(doc))
        report = value_iterate(m, 1e-6)
        certify_solution(m, report, 1e-4)
    games = np.random.default_rng(8).normal(size=(20, 10, 10))
    value, x, y, failed = matrixgame.solve_games(games)
    matrixgame.solve_games(games + 1e-3, matrixgame._warm_plan(x, y, None))
    assert failed == {} and exact_calls == []


@pytest.mark.parametrize("power", [-60, -50, -40])
def test_a_game_scaled_down_keeps_its_value_at_its_own_scale(power):
    # a bound floored at an absolute 1e-12 accepts almost any answer on these games
    c = 2.0**power
    rng = np.random.default_rng(-power)
    for shape in [(2, 2), (2, 3), (3, 3), (5, 4), (8, 8)]:
        games = rng.normal(size=(20, *shape))
        value, *_, failed = matrixgame.solve_games(games)
        scaled, *_, failed_scaled = matrixgame.solve_games(c * games)
        assert failed == failed_scaled == {}
        bound = 1e-12 * c * np.abs(games).max(axis=(1, 2))
        np.testing.assert_array_less(np.abs(scaled - c * value), bound)
        assert [solve_matrix_game(a).value for a in c * games] == scaled.tolist()


def test_games_of_subnormal_entries_pass_the_acceptance_test():
    # 1e-12 * max|A| would underflow below the rounding of the exploitability
    # itself, so below the smallest normal float the bound stops shrinking
    games = np.random.default_rng(9).normal(size=(40, 4, 5)) * 2.0**-1060
    value, x, y, failed = matrixgame.solve_games(games)
    assert failed == {}


def test_extreme_scales_stay_accurate():
    rng = np.random.default_rng(77)
    for _ in range(60):
        shape = rng.integers(1, 9, size=2)
        a = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-6, 7)
        sol = solve_matrix_game(a)
        rel = max(1.0, abs(sol.value))
        assert sol.duality_gap <= 1e-9 * rel
        ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, 1e-6 * rel)
        assert ok, violation


def test_dominance_gives_pure_saddle():
    # row 0 weakly dominates; column 1 is weakly dominated for the minimizer
    a = np.array([[4.0, 5.0, 4.0], [1.0, 2.0, 3.0], [0.0, 5.0, 1.0]])
    sol = solve_matrix_game(a)
    assert sol.value == pytest.approx(4.0, abs=1e-12)
    ok, _ = verify_saddle_point(a, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], tol=1e-9)
    assert ok


@pytest.mark.parametrize("rows", [
    [[2.225073858507203e-309, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [2.225073858507203e-309, 0.0]],
])
def test_subnormal_matrix_is_solved_on_its_normalized_support(rows):
    # the block left by the simplex must be solved normalized: unnormalized,
    # its bordered system underflows
    sol = solve_matrix_game(rows)
    assert np.all(np.isfinite(sol.row_strategy)) and np.all(np.isfinite(sol.col_strategy))
    _assert_simplex(sol.row_strategy)
    _assert_simplex(sol.col_strategy)
    assert sol.value == 0.0
    ok, violation = verify_saddle_point(rows, sol.row_strategy, sol.col_strategy, tol=0.0)
    assert ok, violation


def _warm_pass_per_size(payoffs, previous):
    """The warm pass as one :func:`equalize` and one acceptance test per support size.

    Returns ``(value, x, y)``, meaningful for the games that passed, and the
    sorted positions of the games that did not.  No value reads -0.0.
    """
    n, m, l = payoffs.shape
    out = (np.empty(n), np.zeros((n, m)), np.zeros((n, l)))
    scale = matrixgame.WARM_START_TOL * np.abs(payoffs).max(axis=(1, 2), initial=np.finfo(float).tiny)
    f, g = (v != 0 for v in previous)
    side = f.sum(axis=1)
    side[side != g.sum(axis=1)] = 0
    left = [np.flatnonzero(side == 0)]
    for k in range(1, min(m, l) + 1):
        at = np.flatnonzero(side == k)
        if not at.size:
            continue
        rs, cs = f[at].nonzero()[1].reshape(-1, k), g[at].nonzero()[1].reshape(-1, k)
        sub = payoffs[at[:, None, None], rs[:, :, None], cs[:, None, :]]
        v, x_s, y_t, regular = matrixgame.equalize(sub, matrixgame._bordered(at.size, k))
        ix = np.arange(at.size)[:, None]
        x, y = np.zeros((at.size, m)), np.zeros((at.size, l))
        x[ix, rs], y[ix, cs] = x_s, y_t
        ok = regular & (x.min(axis=1) >= 0.0) & (y.min(axis=1) >= 0.0)
        ok &= matrixgame.exploitability(payoffs[at], x, y) <= scale[at]
        for o, a in zip(out, (v, x, y)):
            o[at[ok]] = a[ok]
        left.append(at[~ok])
    return (out[0] + 0.0, *out[1:]), np.sort(np.concatenate(left))


ENTRY = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e8, -1e8]), st.floats(-10.0, 10.0))


@st.composite
def warm_stacks(draw):
    """A stack of games and a previous pair: supports of mixed sizes, some not square, some optimal."""
    m, l, n = draw(st.integers(2, 10)), draw(st.integers(2, 10)), draw(st.integers(1, 12))
    payoffs = draw(arrays(np.float64, (n, m, l), elements=ENTRY, fill=st.nothing()))
    x, y = np.zeros((n, m)), np.zeros((n, l))
    for i in range(n):
        if draw(st.booleans()):
            payoffs[i, 1] = payoffs[i, 0]  # a block holding both rows is singular
        own = None
        if draw(st.booleans()):
            try:  # the game's own optimal supports, so the candidate can pass
                own = solve_matrix_game(payoffs[i])
            except MatrixGameError:
                pass
        if own is not None:
            x[i], y[i] = own.row_strategy, own.col_strategy
            continue
        k = draw(st.integers(1, min(m, l)))
        k_cols = draw(st.sampled_from([k, draw(st.integers(1, l))]))  # not always square
        x[i, draw(st.permutations(range(m)))[:k]] = 1.0 / k
        y[i, draw(st.permutations(range(l)))[:k_cols]] = 1.0 / k_cols
    return payoffs, (x, y)


@given(stack=warm_stacks())
@settings(max_examples=150, deadline=None)
def test_the_warm_pass_answers_each_game_as_the_per_size_passes_do(stack):
    payoffs, previous = stack
    (value, x, y), pending = _warm_pass_per_size(payoffs, previous)
    reached = []  # the games the warm pass leaves open
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrixgame, "_square_supports", lambda *shape: ())
        failing_simplex(patch, range(len(payoffs)))
        give_up = matrixgame._maximin
        patch.setattr(matrixgame, "_maximin", lambda c: reached.append(c.copy()) or give_up(c))
        got_value, got_x, got_y, failed = matrixgame.solve_games(payoffs, matrixgame._warm_plan(*previous, None))
    np.testing.assert_array_equal(sorted(failed), pending)
    if reached:
        assert reached[0].tobytes() == payoffs[pending].tobytes()
    kept = np.setdiff1d(np.arange(len(payoffs)), pending)
    assert got_value[kept].tobytes() == value[kept].tobytes()
    assert got_x[kept].tobytes() == x[kept].tobytes()
    assert got_y[kept].tobytes() == y[kept].tobytes()


def _per_row_exploitability(payoffs, x, y):
    """``exploitability`` with each game's maximum and minimum taken along its own row."""
    best_row = np.einsum("...ij,...j->...i", payoffs, y).max(axis=-1)
    best_col = np.einsum("...i,...ij->...j", x, payoffs).min(axis=-1)
    return np.maximum(best_row - best_col, 0.0)


def _assert_same_bits(got, want):
    """Bit for bit, but any NaN for a NaN: which NaN a max or min returns depends on its order."""
    lost = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), lost)
    assert got[~lost].tobytes() == want[~lost].tobytes()


def _odd_stack(rng, size, m, l):
    """Payoffs and candidate strategies holding NaN, negative entries, -0.0 and +-inf."""
    payoffs = rng.normal(size=(size, m, l))
    x, y = rng.dirichlet(np.ones(m), size), rng.dirichlet(np.ones(l), size)
    for a in (payoffs, x, y):
        odd = rng.random(a.shape)
        a[odd < 0.04] = -0.0
        a[(0.04 <= odd) & (odd < 0.06)] = -0.25
        a[(0.06 <= odd) & (odd < 0.07)] = np.nan
        if a is payoffs:
            a[(0.07 <= odd) & (odd < 0.08)] = np.inf
            a[(0.08 <= odd) & (odd < 0.09)] = -np.inf
    return payoffs, x, y


@pytest.mark.parametrize("size", [1, 3, 191, 600])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2), (10, 10)])
def test_the_acceptance_test_matches_the_per_row_reference_game_by_game(size, shape):
    rng = np.random.default_rng(size * 100 + shape[0] * 10 + shape[1])
    payoffs, x, y = _odd_stack(rng, size, *shape)
    regular = rng.random(size) < 0.9
    # max|A| across the games, as solve_games takes it for the scale
    top = matrixgame._across(np.maximum, np.abs(payoffs).reshape(size, -1), initial=matrixgame._TINY)
    _assert_same_bits(top, np.abs(payoffs).max(axis=(1, 2), initial=np.finfo(float).tiny))
    with np.errstate(invalid="ignore"):  # inf - inf, and inf times a zero weight
        gap = _per_row_exploitability(payoffs, x, y)
        _assert_same_bits(matrixgame.exploitability(payoffs, x, y), gap)
        # a third of the games sit exactly at their scale, a third just below it
        scale = matrixgame.WARM_START_TOL * top
        at, below = rng.random(size) < 1 / 3, rng.random(size) < 1 / 2
        scale[at] = gap[at]
        scale[~at & below] = np.nextafter(gap[~at & below], -np.inf)
        signs = regular & (x.min(axis=1) >= 0.0) & (y.min(axis=1) >= 0.0)
        got = matrixgame._passes(payoffs, (np.zeros(size), x, y, regular), scale)
    np.testing.assert_array_equal(got, signs & (gap <= scale))
    assert got[signs & at & ~np.isnan(gap)].all()


def test_exploitability_takes_a_stack_and_solve_matrix_game_reports_it_for_one_game():
    rng = np.random.default_rng(33)
    payoffs, x, y = _odd_stack(rng, 12, 4, 3)
    with np.errstate(invalid="ignore"):
        gap = _per_row_exploitability(payoffs, x, y)
        _assert_same_bits(matrixgame.exploitability(payoffs, x, y), gap)
        for i in range(12):  # a stack of one
            one = matrixgame.exploitability(payoffs[i : i + 1], x[i : i + 1], y[i : i + 1])
            assert one.shape == (1,)
            _assert_same_bits(one, gap[i : i + 1])
    for a in rng.normal(size=(12, 4, 3)):
        sol = solve_matrix_game(a)
        one = _per_row_exploitability(a, sol.row_strategy, sol.col_strategy)
        assert np.ndim(one) == 0
        assert np.float64(sol.duality_gap).tobytes() == one.tobytes()


def _steady_stack(rng):
    """600 2x2 games and their answers, then the games nudged so that every previous support still holds."""
    payoffs = rng.normal(size=(600, 2, 2))
    value, x, y, failed = matrixgame.solve_games(payoffs)
    assert failed == {}
    return payoffs + 1e-9 * rng.normal(size=payoffs.shape), (x, y)


def test_a_steady_warm_stack_hands_over_the_copy_paths_answers_sharing_no_memory(simplex_calls):
    payoffs, previous = _steady_stack(np.random.default_rng(34))
    (value, x, y), pending = _warm_pass_per_size(payoffs, previous)
    assert pending.size == 0  # every game passes on its previous supports
    got = matrixgame.solve_games(payoffs, matrixgame._warm_plan(*previous, None))
    assert simplex_calls == [] and got[3] == {}
    for a, b in zip(got[:3], (value, x, y)):
        assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(a, payoffs)
    none = np.zeros((0, 2))
    empty = matrixgame.solve_games(np.zeros((0, 2, 2)), matrixgame._warm_plan(none, none, None))
    assert [a.shape for a in empty[:3]] == [(0,), (0, 2), (0, 2)] and empty[3] == {}


def test_a_warm_stack_with_one_failing_game_keeps_the_others_and_solves_that_one_afresh():
    rng = np.random.default_rng(35)
    payoffs, previous = _steady_stack(rng)
    # the row its previous support leaves out, or the other one, strictly dominates
    payoffs[417] = [[3.0, 2.0], [0.0, 1.0]] if previous[0][417, 0] == 0.0 else [[0.0, 1.0], [3.0, 2.0]]
    (value, x, y), pending = _warm_pass_per_size(payoffs, previous)
    assert pending.tolist() == [417]
    value[417], x[417], y[417] = (a[0] for a in matrixgame.solve_games(payoffs[417:418])[:3])
    got = matrixgame.solve_games(payoffs, matrixgame._warm_plan(*previous, None))
    assert got[3] == {}
    for a, b in zip(got[:3], (value, x, y)):
        assert a.tobytes() == b.tobytes()


def test_a_stack_with_no_proposed_support_tests_nothing_before_the_enumerated_ones(monkeypatch):
    payoffs = np.random.default_rng(38).normal(size=(50, 2, 2))
    # a plan proposing the first enumerated candidate, rows and columns {0}, to
    # every game: it answers as a cold stack whose blank answer is tested first
    first = np.zeros((50, 2))
    first[:, 0] = 1.0
    want = matrixgame.solve_games(payoffs, matrixgame._warm_plan(first, first, None))
    assert 0 < np.count_nonzero((want[1][:, 0] == 1.0) & (want[2][:, 0] == 1.0)) < 50  # some pass it
    calls = []
    on_plan, exploitability = matrixgame._on_plan, matrixgame.exploitability
    monkeypatch.setattr(matrixgame, "_on_plan", lambda c, plan: calls.append("plan") or on_plan(c, plan))
    monkeypatch.setattr(matrixgame, "exploitability", lambda *args: calls.append("test") or exploitability(*args))
    none = np.zeros((50, 2))  # no square support, so a plan with no group
    for previous in (None, matrixgame._warm_plan(none, none, None)):
        calls.clear()
        got = matrixgame.solve_games(payoffs, previous)
        assert calls[:3] == ["plan", "plan", "test"]  # the blank answer, untested, then the first candidate
        assert got[3] == want[3] == {}
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()


def test_a_stack_that_passes_whole_answers_as_one_that_takes_the_later_stages(simplex_calls):
    payoffs, (x, y) = _steady_stack(np.random.default_rng(39))
    payoffs[7] = [[1.0, -1.0], [-1.0, 1.0]]  # value 0, which must not read -0.0
    x[7] = y[7] = 0.5
    whole = matrixgame.solve_games(payoffs, matrixgame._warm_plan(x, y, None))
    assert whole[3] == {} and simplex_calls == []
    # one more game on an empty support keeps the stack past the warm pass
    more = np.concatenate([payoffs, [[[2.0, 0.0], [0.0, 1.0]]]])
    x, y = (np.concatenate([v, np.zeros((1, 2))]) for v in (x, y))
    staged = matrixgame.solve_games(more, matrixgame._warm_plan(x, y, None))
    assert staged[3] == {} and simplex_calls == []  # the enumerated supports answer it
    for a, b in zip(whole[:3], staged[:3]):
        assert a.tobytes() == b[:-1].tobytes()
        assert not np.shares_memory(a, payoffs)
    assert whole[0][7] == 0.0 and not np.signbit(whole[0][7])


def test_a_carried_plan_solves_a_singular_block_in_a_copy_and_keeps_its_border():
    # both games keep their full 2x2 supports; in the first stack game 0's block is singular
    x = y = np.full((2, 2), 0.5)
    carried = matrixgame._warm_plan(x, y, None)
    ((*_, system),) = carried[1]
    regular = np.array([[[3.0, 1.0], [0.0, 2.0]], [[1.0, -1.0], [-1.0, 1.0]]])
    singular = regular.copy()
    singular[0] = 1.0
    for stack in (singular, regular, singular, regular):
        got = matrixgame.solve_games(stack, carried)
        want = matrixgame.solve_games(stack, matrixgame._warm_plan(x, y, None))
        assert got[3] == want[3] == {}
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(system[:, :, :2, 2], -1.0)
        np.testing.assert_array_equal(system[:, :, 2], [[[1.0, 1.0, 0.0]] * 2] * 2)


def test_the_across_games_reductions_change_no_bit_of_value_iteration(monkeypatch):
    rng = np.random.default_rng(36)
    models = [random_model(rng, max_states=6, max_actions=6) for _ in range(150)]
    across = [value_iterate(m, 1e-6) for m in models]
    # the per-row reductions the acceptance test used to take
    monkeypatch.setattr(matrixgame, "_across", lambda ufunc, a, **kw: ufunc.reduce(a, axis=-1, **kw))
    for m, want in zip(models, across):
        got = value_iterate(m, 1e-6)
        assert got.value_trace.tobytes() == want.value_trace.tobytes()
        assert got.equilibrium.f.flat.tobytes() == want.equilibrium.f.flat.tobytes()
        assert got.equilibrium.g.flat.tobytes() == want.equilibrium.g.flat.tobytes()


def test_the_solver_never_imports_numpy_ma():
    # scipy imports numpy.ma into this process, so a fresh one answers; the
    # 10x10 stack reaches the simplex, then its warm pass, and each
    # SINGULAR_BASIS game goes through the exact simplex
    code = f"""
import sys
import numpy as np
from smgsolve.matrixgame import _warm_plan, solve_games, solve_matrix_game
games = np.random.default_rng(5).normal(size=(20, 10, 10))
value, x, y, failed = solve_games(games)
solve_games(games + 1e-3, _warm_plan(x, y, None))
solve_games(np.random.default_rng(6).normal(size=(20, 3, 3)))
for a in {list(SINGULAR_BASIS.values())!r}:
    solve_matrix_game(a)
sys.exit("numpy.ma" in sys.modules or failed != {{}})
"""
    src = str(Path(matrixgame.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _cold_and_empty_plan(payoffs):
    """``solve_games(payoffs)`` and the same stack on the plan of all-zero strategy stacks."""
    size, n_rows, n_cols = payoffs.shape
    empty = matrixgame._warm_plan(np.zeros((size, n_rows)), np.zeros((size, n_cols)), None)
    assert empty[1] == ()
    return matrixgame.solve_games(payoffs), matrixgame.solve_games(payoffs, empty)


@pytest.mark.parametrize("n_rows, n_cols", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (4, 4), (10, 10)])
def test_a_cold_stack_answers_as_the_warm_pass_on_the_empty_plan(n_rows, n_cols):
    rng = np.random.default_rng(37 + 10 * n_rows + n_cols)
    games = [rng.normal(size=(n_rows, n_cols)) * 10.0 for _ in range(12)]
    games += [rng.integers(-2, 3, size=(n_rows, n_cols)).astype(float) for _ in range(12)]
    games.append(np.full((n_rows, n_cols), 1.5))  # every square block above 1x1 is singular
    games.append(np.outer(rng.normal(size=n_rows), rng.normal(size=n_cols)))  # rank one
    for stack in (np.array(games), np.array(games[-2:]), np.zeros((0, n_rows, n_cols))):
        cold, empty = _cold_and_empty_plan(stack)
        assert cold[3] == empty[3] == {}
        for a, b in zip(cold[:3], empty[:3]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(SINGULAR_BASIS))
def test_a_cold_stack_whose_simplex_ends_on_a_singular_block_answers_as_the_empty_plan(name, exact_calls):
    a = np.array(SINGULAR_BASIS[name], dtype=float)
    stack = np.concatenate([a[None], np.random.default_rng(38).normal(size=(5, *a.shape))])
    cold, empty = _cold_and_empty_plan(stack)
    assert [c.tobytes() for c in exact_calls] == [a.tobytes()] * 2  # the singular game, both times
    assert cold[3] == empty[3] == {}
    for got, want in zip(cold[:3], empty[:3]):
        assert got.tobytes() == want.tobytes()
