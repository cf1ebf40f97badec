"""Exact zero-sum matrix game solver: one simplex phase, then an equalizer solve.

The payoff matrix ``A`` is normalized by its largest magnitude and shifted,
``P = A / max|A| + 2``, so every entry of ``P`` lies in ``[1, 3]``.  Optimal
strategies are unchanged by this positive affine map, and the game on ``P``
has the linear program (Dantzig 1951)

    max sum(y)   subject to   P y <= 1,   y >= 0,

whose optimum is ``1 / value(P)`` and whose optimal ``y``, normalized, is
an optimal column strategy.  ``y = 0`` is feasible, so a dense primal
simplex starts from the slack basis: there is no phase 1.  The normal
pivoting rules fall back to Bland's rule on a stall, and every rule is
deterministic, so when the optimal face is not a single point the returned
strategy is still reproducible across runs.

The final basis holds ``k`` columns of ``y`` (the support ``J``) and the
slacks of all but ``k`` rows; the ``k`` rows whose slacks left (the support
``I``) are tight.  Both strategies and the value are then solved afresh
from the bordered equalizer system on the normalized block ``A[I, J]``
(Shapley and Snow 1950), the one :func:`equalize` that the operator's
support candidates also use, so the rounding of the pivots does not reach
the result.  The solution carries the exploitability ``max(A y) - min(x A)``
of the pair, which bounds how far either strategy is from optimal.

Single-row and single-column games are solved by direct scan.
"""

from dataclasses import dataclass

import numpy as np

# the objective is 1 / value(P), which compresses value gaps by up to value(P)^2 <= 9
PIVOT_TOL = 1e-12


class MatrixGameError(RuntimeError):
    """The simplex failed: an unbounded ratio test, no termination or a singular basis."""


@dataclass(frozen=True, eq=False)
class MatrixGameSolution:
    """Game value, a mixed saddle point, and its exploitability.

    ``duality_gap`` (``dualityGap`` in the CLI's output) is the
    exploitability ``max(A y) - min(x A)``: what the two players together
    could gain by switching to best pure responses.  It is zero exactly at a
    saddle point, and the game value lies within it of ``value``.
    """

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    duality_gap: float


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    # reimpose an exact unit column so reduced costs of basics are exactly 0
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _leaving_row(tableau: np.ndarray, basis: np.ndarray, enter: int, anti_cycling: bool) -> int:
    """Minimum-ratio row for the entering column, with deterministic ties.

    Among rows at exactly the minimum ratio, normal pivoting takes the
    largest pivot coefficient, then the lowest basis index; anti-cycling
    takes the lowest basis index alone.
    """
    coef = tableau[:-1, enter]
    eligible = (coef > PIVOT_TOL).nonzero()[0]
    if eligible.size == 0:
        raise MatrixGameError("linear program is unbounded")
    ratios = tableau[eligible, -1] / coef[eligible]
    tied = eligible[ratios == ratios.min()]
    if tied.size == 1:
        return int(tied[0])
    if not anti_cycling:
        tied = tied[coef[tied] == coef[tied].max()]
    return int(tied[basis[tied].argmin()])


def _bland(tableau: np.ndarray, basis: np.ndarray) -> None:
    """Run the simplex to optimality on a feasible tableau (objective row last).

    Normal pivoting: most negative reduced cost enters (ties at the lowest
    index), and the leaving row takes the minimum ratio with exact ties
    preferring the largest pivot coefficient, then the lowest basis index
    (pivoting on a tiny coefficient scales its row, and the priced objective,
    up by the reciprocal, drowning later reduced costs in rounding noise).
    Should that stall on a degenerate basis, the rules switch to Bland's
    lowest-index/lowest-basis-index pair, which cannot cycle, so termination
    is guaranteed.  Every rule is deterministic.
    """
    stall_limit = 100 + 10 * (tableau.shape[0] + tableau.shape[1])
    hard_limit = 100 * stall_limit
    for pivots in range(hard_limit):
        reduced = tableau[-1, :-1]
        anti_cycling = pivots >= stall_limit
        if anti_cycling:
            improving = (reduced < -PIVOT_TOL).nonzero()[0]
            if improving.size == 0:
                return
            enter = int(improving[0])
        else:
            enter = int(reduced.argmin())
            if reduced[enter] >= -PIVOT_TOL:
                return
        leave = _leaving_row(tableau, basis, enter, anti_cycling)
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    raise MatrixGameError("simplex failed to terminate")


def equalize(sub: np.ndarray):
    """Both players' equalizer solutions on a stack of ``k x k`` blocks.

    For each block ``C`` of ``sub`` (shape ``(n, k, k)``) it solves the
    bordered systems ``x C = v``, ``C y = v``, ``sum(x) = sum(y) = 1`` in
    one stacked ``np.linalg.solve`` and returns ``(v, x, y, regular)``; for
    ``k == 1`` the answer is ``v = C[0, 0]`` and both mixtures the scalar
    1, with no solve.  ``regular`` is True, or False for the blocks whose
    system is singular, whose ``v``, ``x`` and ``y`` are then meaningless.
    Nothing here checks signs or optimality.
    """
    n, k = sub.shape[0], sub.shape[1]
    if k == 1:
        return sub[:, 0, 0], 1.0, 1.0, True
    # unknowns (x, v) and (y, v): x C = v, C y = v, each mixture sums to 1
    system = np.zeros((2, n, k + 1, k + 1))
    system[0, :, :k, :k] = sub.transpose(0, 2, 1)
    system[1, :, :k, :k] = sub
    system[:, :, :k, k] = -1.0
    system[:, :, k, :k] = 1.0
    rhs = np.zeros((k + 1, 1))  # a column, so NumPy 1.x broadcasts it too
    rhs[k] = 1.0
    regular = True
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        # the determinant comes from the same LU, so it is 0 exactly where a pivot is
        regular = (np.linalg.det(system) != 0.0).all(axis=0)
        system[:, ~regular] = np.eye(k + 1)
        sol = np.linalg.solve(system, rhs)
    sol = sol[..., 0]
    return sol[0, :, k], sol[0, :, :k], sol[1, :, :k], regular


def _maximin(payoff: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal mixtures of both players of ``payoff``.

    The simplex runs on ``P = payoff / max|payoff| + 2`` from the slack
    basis of ``P y <= 1``; its final basis names the supports, and
    :func:`equalize` on the normalized block gives the answer, with the
    value scaled back by ``max|payoff|``.
    """
    m, l = payoff.shape
    norm = float(np.max(np.abs(payoff)))
    if norm == 0.0:
        norm = 1.0
    scaled = payoff / norm
    tab = np.zeros((m + 1, l + m + 1))  # columns y_1..y_l, one slack per row, rhs
    tab[:m, :l] = scaled + 2.0
    tab[:m, l:-1] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[-1, :l] = -1.0  # minimize -sum(y)
    basis = np.arange(l, l + m)
    _bland(tab, basis)
    basic = np.zeros(l + m, dtype=bool)
    basic[basis] = True
    cols = np.flatnonzero(basic[:l])
    rows = np.flatnonzero(~basic[l:])  # the rows whose slacks left
    v, x_s, y_t, regular = equalize(scaled[np.ix_(rows, cols)][None])
    if not np.all(regular):
        raise MatrixGameError("simplex ended on a singular basis")
    x = np.zeros(m)
    x[rows] = np.maximum(x_s, 0.0)
    y = np.zeros(l)
    y[cols] = np.maximum(y_t, 0.0)
    return float(v[0]) * norm + 0.0, x / x.sum(), y / y.sum()  # + 0.0: no value reads -0.0


def _point_mass(size: int, index: int) -> np.ndarray:
    e = np.zeros(size)
    e[index] = 1.0
    return e


def exploitability(payoff: np.ndarray, row_strategy: np.ndarray, col_strategy: np.ndarray):
    """``max(A y) - min(x A)``, clipped at 0: the pair's total best-response gain.

    Takes one game or a stack of equally shaped games along leading axes.
    """
    best_row = np.einsum("...ij,...j->...i", payoff, col_strategy).max(axis=-1)
    best_col = np.einsum("...i,...ij->...j", row_strategy, payoff).min(axis=-1)
    return np.maximum(best_row - best_col, 0.0)


def solve_matrix_game(payoff) -> MatrixGameSolution:
    """Solve the zero-sum game with the row player maximizing ``payoff``.

    One simplex phase finds an optimal basis; the equalizer system on the
    support it names gives the value and both players' strategies, whose
    exploitability is reported as ``duality_gap``.  Raises ``ValueError``
    for empty or non-finite matrices and :class:`MatrixGameError` when the
    simplex fails.
    """
    a = np.asarray(payoff, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("payoff must be a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("payoff entries must be finite")
    m, l = a.shape
    if l == 1:
        i = int(np.argmax(a[:, 0]))
        return MatrixGameSolution(
            value=float(a[i, 0]) + 0.0,
            row_strategy=_point_mass(m, i),
            col_strategy=np.ones(1),
            duality_gap=0.0,
        )
    if m == 1:
        j = int(np.argmin(a[0]))
        return MatrixGameSolution(
            value=float(a[0, j]) + 0.0,
            row_strategy=np.ones(1),
            col_strategy=_point_mass(l, j),
            duality_gap=0.0,
        )
    value, x, y = _maximin(a)
    return MatrixGameSolution(
        value=value, row_strategy=x, col_strategy=y, duality_gap=float(exploitability(a, x, y))
    )


def verify_saddle_point(payoff, row_strategy, col_strategy, tol: float) -> tuple[bool, float]:
    """Check that no pure deviation beats the mixed pair by more than ``tol``.

    Returns ``(ok, worst_violation)`` where the violation is the largest gain
    available to either player from a single pure-strategy deviation.
    """
    a = np.asarray(payoff, dtype=float)
    x = np.asarray(row_strategy, dtype=float)
    y = np.asarray(col_strategy, dtype=float)
    if a.ndim != 2 or x.shape != (a.shape[0],) or y.shape != (a.shape[1],):
        raise ValueError(
            f"dimension mismatch: payoff {a.shape}, row {x.shape}, col {y.shape}"
        )
    value = float(x @ a @ y)
    gain_row = float(np.max(a @ y)) - value
    gain_col = value - float(np.min(x @ a))
    violation = max(gain_row, gain_col, 0.0)
    return violation <= tol, violation
