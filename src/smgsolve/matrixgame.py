"""Exact zero-sum matrix game solver via linear programming.

The maximizing player's problem

    max v   subject to   sum_i A[i, j] x_i - s_j = v  for every column j,
                         s >= 0,  x in the probability simplex

is solved as a standard-form LP by a dense two-phase primal simplex, with
Bland's rule as the anti-cycling fallback.  Every pivoting rule is
deterministic, so when the optimal face is not a single point the returned
strategy is still reproducible across runs.  The free game value is split as
``v = v_plus - v_minus``, and the matrix is pre-normalized by its largest
magnitude so the absolute pivot tolerance is meaningful at any payoff scale.
Once the simplex has found an optimal basis, that basis's primal point and
dual prices are solved afresh from the original rows, so a forced pivot on
a tiny coefficient does not leave its amplified rounding in the result.

One LP serves both players.  The reduced cost of the surplus ``s_j`` at the
optimal basis is the dual price of column ``j``'s constraint, and the duals
of the row player's program are the column player's optimal mixture; they
are clipped at zero and normalized.  The solution carries the exploitability
``max(A y) - min(x A)`` of the pair, which bounds how far either strategy is
from optimal.

Single-row and single-column games are solved by direct scan, which avoids
degenerate simplex bases.
"""

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-10


class MatrixGameError(RuntimeError):
    """The LP machinery failed (unbounded or infeasible program)."""


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


def _bland(tableau: np.ndarray, basis: np.ndarray, objective_floor: float | None = None) -> None:
    """Run the simplex to optimality on a feasible tableau (objective row last).

    Normal pivoting: most negative reduced cost enters (ties at the lowest
    index), and the leaving row takes the minimum ratio with exact ties
    preferring the largest pivot coefficient, then the lowest basis index
    (pivoting on a tiny coefficient scales its row, and the priced objective,
    up by the reciprocal, drowning later reduced costs in rounding noise).
    Should that stall on a degenerate basis, the rules switch to Bland's
    lowest-index/lowest-basis-index pair, which cannot cycle, so termination
    is guaranteed.  Every rule is deterministic.

    ``objective_floor`` stops early once the true objective cannot sit above
    it; phase 1 passes its feasibility tolerance, since its objective is
    nonnegative by construction and apparent progress below the floor is
    rounding noise, not improvement.
    """
    stall_limit = 100 + 10 * (tableau.shape[0] + tableau.shape[1])
    hard_limit = 100 * stall_limit
    for pivots in range(hard_limit):
        if objective_floor is not None and -tableau[-1, -1] <= objective_floor:
            return
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


def _solve_standard_lp(
    c: np.ndarray, eq: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimize ``c @ z`` subject to ``eq @ z == rhs``, ``z >= 0``.

    Requires ``rhs >= 0`` (callers arrange signs).  Returns the optimal
    vector, the objective value and the final reduced costs ``c - eq.T @ p``,
    where ``p`` are the optimal dual prices of the equality rows.
    """
    n_rows, n_cols = eq.shape
    tab = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    tab[:n_rows, :n_cols] = eq
    tab[:n_rows, n_cols : n_cols + n_rows] = np.eye(n_rows)
    tab[:n_rows, -1] = rhs
    basis = np.arange(n_cols, n_cols + n_rows)
    # phase-1 objective: the artificials' sum, priced out (their columns become 0)
    tab[-1, :n_cols] = -eq.sum(axis=0)
    tab[-1, -1] = -rhs.sum()
    scale = max(1.0, float(np.max(np.abs(eq))), float(np.max(np.abs(rhs))))
    _bland(tab, basis, objective_floor=_FEAS_TOL * scale)
    if -tab[-1, -1] > _FEAS_TOL * scale:
        raise MatrixGameError("linear program is infeasible")
    np.clip(tab[:n_rows, -1], 0.0, None, out=tab[:n_rows, -1])

    # pivot any artificial still basic (at value 0) onto a real column
    keep = np.ones(n_rows, dtype=bool)
    for i in np.flatnonzero(basis >= n_cols):
        nonzero = np.flatnonzero(np.abs(tab[i, :n_cols]) > PIVOT_TOL)
        if nonzero.size == 0:
            keep[i] = False  # redundant zero row
            continue
        _pivot(tab, i, int(nonzero[0]))
        basis[i] = nonzero[0]

    rows = np.flatnonzero(keep)
    phase2 = np.zeros((rows.size + 1, n_cols + 1))
    phase2[:-1, :n_cols] = tab[rows, :n_cols]
    phase2[:-1, -1] = tab[rows, -1]
    basis2 = basis[rows]
    phase2[-1, :n_cols] = c
    # basic columns are exact unit vectors, so rows with a zero cost change nothing
    for r in np.flatnonzero(c[basis2]):
        phase2[-1] -= phase2[-1, basis2[r]] * phase2[r]
    _bland(phase2, basis2)

    # Every pivot adds rounding to the tableau, and a forced pivot on a tiny
    # coefficient multiplies it; so solve the final basis from the original rows.
    basic = eq[rows][:, basis2]
    z = np.zeros(n_cols)
    z[basis2] = np.linalg.solve(basic, rhs[rows])
    reduced = c - np.linalg.solve(basic.T, c[basis2]) @ eq[rows]
    reduced[basis2] = 0.0  # zero by definition; keeps the dual's support exact
    return z, float(c @ z), reduced


def _maximin(payoff: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal mixtures of both players of ``payoff``, from one LP.

    The matrix is normalized by its largest magnitude first, so the absolute
    pivot tolerance means the same thing whatever the payoff scale; optimal
    strategies are unchanged by positive scaling and the value scales back.
    The column player's mixture is the dual of the row player's program: the
    reduced cost of each surplus is its column constraint's dual price.
    """
    m, l = payoff.shape
    norm = float(np.max(np.abs(payoff)))
    scaled = payoff / norm if norm > 0.0 else payoff
    n_vars = m + 2 + l  # x_1..x_m, v_plus, v_minus, one surplus per column
    eq = np.zeros((l + 1, n_vars))
    rhs = np.zeros(l + 1)
    eq[:l, :m] = scaled.T
    eq[:l, m] = -1.0
    eq[:l, m + 1] = 1.0
    eq[:l, m + 2 :] = -np.eye(l)
    eq[l, :m] = 1.0
    rhs[l] = 1.0
    c = np.zeros(n_vars)
    c[m] = -1.0
    c[m + 1] = 1.0
    z, objective, reduced = _solve_standard_lp(c, eq, rhs)
    row = np.maximum(z[:m], 0.0)
    row /= row.sum()
    col = np.maximum(reduced[m + 2 :], 0.0)
    col /= col.sum()
    return -objective * (norm if norm > 0.0 else 1.0), row, col


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

    One LP gives the row player's strategy and, through its duals, the
    column player's; their exploitability is reported as ``duality_gap``.
    Raises ``ValueError`` for empty or non-finite matrices.
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
            value=float(a[i, 0]),
            row_strategy=_point_mass(m, i),
            col_strategy=np.ones(1),
            duality_gap=0.0,
        )
    if m == 1:
        j = int(np.argmin(a[0]))
        return MatrixGameSolution(
            value=float(a[0, j]),
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
