"""Exact zero-sum matrix games, answered in stacks of one shape.

A game's answer depends only on its own matrix and previous supports,
never on the other games of its stack.  :func:`solve_games` is the one
pipeline, for the operator and for a single game alike.  Its stages each
propose answers for the games still open: the game's previous supports,
when square; for shapes of at most :data:`ENUMERATED_SIDE` rows and
columns, every square support pair, smallest first; the supports the
simplex ends on; and the exact simplex :func:`_exact`.  A game keeps the
first answer whose strategies are both ``>= 0`` with exploitability
``max(A y) - min(x A)`` at most ``WARM_START_TOL * max|A|`` (``max|A|``
taken at least the smallest normal float, below which floats hold only an
absolute precision), each minimum and maximum taken across the games.
A support's answer is the equalizing pair of its block (Shapley and Snow
1950): the previous supports of every size take one stacked solve of both
players' bordered equalizer systems (:func:`equalize`) per support size
and one acceptance test over all the games, and each enumerated candidate
one more of each.  The grouping by support size is a plan of flat indices
and of each size's bordered systems, their border written once per plan,
carried from call to call while supports hold; a stack passing whole ends there.

For the simplex, the payoff matrix ``A`` is normalized by its largest
magnitude and shifted, ``P = A / max|A| + 2``, so every entry of ``P`` lies
in ``[1, 3]``.  Optimal strategies are unchanged by this positive affine
map, and the game on ``P`` has the linear program (Dantzig 1951)

    max sum(y)   subject to   P y <= 1,   y >= 0,

whose optimum is ``1 / value(P)`` and whose optimal ``y``, normalized, is
an optimal column strategy.  ``y = 0`` is feasible, so a dense primal
simplex starts from the slack basis: there is no phase 1.

The simplex runs on the stack in lockstep: each step pivots every game
still in the stack once, by that game's own rules, and a game leaves the
stack once it is optimal.  Every game's arithmetic is the arithmetic it
would see alone.

The final basis holds ``k`` columns of ``y`` (the support ``J``) and the
slacks of all but ``k`` rows; the ``k`` rows whose slacks left (the support
``I``) are tight.  Both strategies and the value are then solved afresh
from the equalizer system on the normalized block ``A[I, J]``, one stacked
solve per support size, so the rounding of the pivots does not reach the
result.

A game the float simplex fails (a stall on a degenerate basis, no leaving
row through rounding, a singular block, or a wrong support when the
entries span many magnitudes) is solved once more, alone, by
:func:`_exact`: the same linear program in Python integers with
fraction-free pivots (Edmonds 1967; Bareiss 1968), degenerate ones by
Bland's rule (Bland 1977), so it cannot cycle.  Its answer is exact up to
the rounding to floats; should it fail the acceptance test too, that is a
bug.  It stops at :data:`_EXACT_PIVOTS` pivots per variable of its linear
program, far more than any game it has been seen to need, and the game
then fails with a message naming that cap.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

# a proposed pair must be this exact, relative to max|A|
WARM_START_TOL = 1e-12
# shapes up to this many rows and columns try every square support pair
ENUMERATED_SIDE = 3
# the objective is 1 / value(P), which compresses value gaps by up to value(P)^2 <= 9
PIVOT_TOL = 1e-12
_STALL_PIVOTS = 10  # pivots per (rows + columns + 10) of a tableau before the exact simplex
_EXACT_PIVOTS = 10  # pivots per (rows + columns) of a game before the exact simplex gives up
_TINY = np.finfo(float).tiny


class MatrixGameError(RuntimeError):
    """A game's exact answer failed the acceptance test, or its exact simplex hit the pivot cap."""


@dataclass(frozen=True, eq=False)
class MatrixGameSolution:
    """Game value, a mixed saddle point, and its exploitability.

    ``duality_gap`` (``dualityGap`` in the CLI's output) is the
    exploitability ``max(A y) - min(x A)``: what the two players together
    could gain by switching to best pure responses.  It is zero exactly at a
    saddle point, and the game value lies within it of ``value`` up to
    rounding at the scale of ``max|A|``: on ``[[1e308, -1e308], [-1e308,
    1e308]]`` the value reads 4.99e291 with a gap of 0.0, where the game's is 0.
    """

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    duality_gap: float


def _pivot(tab: np.ndarray, at: np.ndarray, row: np.ndarray, col: np.ndarray) -> None:
    """One pivot on each tableau of the stack, on ``tab[at, row, col]``."""
    pivot_row = tab[at, row] / tab[at, row, col][:, None]
    tab[at, row] = pivot_row
    factors = tab[at, :, col]
    factors[at, row] = 0.0
    tab -= factors[:, :, None] * pivot_row[:, None, :]
    # reimpose an exact unit column so reduced costs of basics are exactly 0
    tab[at, :, col] = 0.0
    tab[at, row, col] = 1.0


def _simplex(tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Run the simplex on a stack of feasible tableaux (objective rows last); return the final bases.

    Every game of the stack takes one pivot per step, under the rules it
    would follow alone: the most negative reduced cost enters (ties at the
    lowest index), and the leaving row takes the minimum ratio over the
    coefficients above :data:`PIVOT_TOL`, with exact ties preferring the
    largest pivot coefficient, then the lowest basis index (pivoting on a
    tiny coefficient scales its row, and the priced objective, up by the
    reciprocal, drowning later reduced costs in rounding noise).  A game
    leaves the stack once it is optimal; the stack is compacted only on the
    steps where some game leaves it.  A game whose entering column has no
    leaving row, or that is still in the stack after ``_STALL_PIVOTS *
    (rows + columns + 10)`` pivots (a stall on a degenerate basis), gives
    up: its final basis is the slack basis it started from.
    """
    final = basis.copy()
    live = at = np.arange(len(tab))
    for _ in range(_STALL_PIVOTS * (10 + tab.shape[1] + tab.shape[2])):
        reduced = tab[:, -1, :-1]
        enter = reduced.argmin(axis=1)
        optimal = reduced[at, enter] >= -PIVOT_TOL
        coef = tab[at, :-1, enter]
        eligible = coef > PIVOT_TOL
        leaves = optimal | ~eligible.any(axis=1)
        if leaves.any():
            final[live[optimal]] = basis[optimal]
            stay = ~leaves
            live, tab, basis, enter, coef, eligible = (
                v[stay] for v in (live, tab, basis, enter, coef, eligible)
            )
            if not live.size:
                break
            at = np.arange(live.size)
        # the rows off the eligible coefficients get a NaN ratio, which sorts last
        ratio = np.divide(tab[:, :-1, -1], coef, out=np.full(coef.shape, np.nan), where=eligible)
        leave = np.lexsort((basis, -coef, ratio), axis=1)[:, 0]
        _pivot(tab, at, leave, enter)
        basis[at, leave] = enter
    return final


def _exact(a: np.ndarray):
    """``(value, x, y)`` of the game ``a`` from its linear program solved in integers.

    The program is ``max sum(y)`` subject to ``Q y <= 1``, ``y >= 0``, with
    ``Q = (A - min(A) + 1) * scale`` an integer matrix: every float is ``n /
    2**k``, and ``scale`` is the largest denominator.  The tableau holds the
    basis inverse and the right-hand side, objective row last, each entry
    the true one times the last pivot ``last``, so after a pivot on ``p``
    every other row becomes ``(v * p - c * w) // last``, an exact division;
    the columns of ``Q`` are priced from it.  The most negative reduced cost
    enters, the lowest-index negative one after a degenerate pivot; the
    minimum ratio leaves, ties at the lowest basis index.  A cycle would
    pivot by Bland's rule alone, which cannot cycle, so the loop ends; it
    raises :class:`MatrixGameError` should it need more than
    ``_EXACT_PIVOTS * (rows + columns)`` pivots.
    ``value(Q) = last / total``, the objective row's right-hand side.
    """
    m, l = a.shape
    ratios = [v.as_integer_ratio() for v in a.ravel().tolist()]
    scale = max(d for _, d in ratios)  # a power of 2, so every d divides it
    entries = [n * (scale // d) for n, d in ratios]
    shift = scale - min(entries)
    q = [[v + shift for v in entries[i * l : (i + 1) * l]] for i in range(m)]
    rows = [[int(i == k) for k in range(m)] + [1] for i in range(m)] + [[0] * (m + 1)]
    basis = list(range(l, l + m))  # y_j is variable j, the slack of row i is l + i
    last, degenerate, cap = 1, False, _EXACT_PIVOTS * (m + l)
    for pivots in range(cap + 1):
        dual = [(i, u) for i, u in enumerate(rows[-1][:m]) if u]
        reduced = [sum(u * q[i][j] for i, u in dual) - last for j in range(l)] + rows[-1][:m]
        cost = next((v for v in reduced if v < 0), 0) if degenerate else min(reduced)
        if cost >= 0:
            break
        if pivots == cap:
            raise MatrixGameError(f"exact simplex reached its cap of {cap} pivots before an optimum")
        enter = reduced.index(cost)
        if enter < l:
            column = [sum(v * q[k][enter] for k, v in enumerate(row[:m]) if v) for row in rows[:m]]
            column.append(cost)
        else:
            column = [row[enter - l] for row in rows]
        leave = None
        for i, c in enumerate(column[:m]):
            if c > 0 and (
                leave is None
                or (d := rows[i][-1] * p - rows[leave][-1] * c) < 0
                or (d == 0 and basis[i] < basis[leave])
            ):
                leave, p = i, c
        pivot = rows[leave]
        rows = [
            row if i == leave else [(v * p - c * w) // last for v, w in zip(row, pivot)]
            for i, (row, c) in enumerate(zip(rows, column))
        ]
        last, basis[leave], degenerate = p, enter, pivot[-1] == 0
    total = rows[-1][-1]
    y = dict.fromkeys(range(l), 0) | {j: row[-1] for row, j in zip(rows, basis) if j < l}
    x, y = (np.array([v / total for v in u]) for u in (rows[-1][:m], y.values()))
    return (last - total * shift) / (total * scale) + 0.0, x, y


def _bordered(n: int, k: int) -> np.ndarray:
    """``n`` pairs of systems in ``(x, v)``, ``(y, v)``: blank blocks, a ``-1`` column, a ``1`` row."""
    system = np.zeros((2, n, k + 1, k + 1))
    system[:, :, :k, k] = -1.0
    system[:, :, k, :k] = 1.0
    return system


@cache
def _rhs(k: int) -> np.ndarray:
    """The right-hand side of a bordered ``k x k`` system, read-only: a column, so NumPy 1.x broadcasts it."""
    rhs = np.eye(k + 1)[:, k:].copy()
    rhs.flags.writeable = False  # each call of one size shares it
    return rhs


def equalize(sub: np.ndarray, system: np.ndarray):
    """Both players' equalizer solutions on a stack of ``k x k`` blocks.

    For each block ``C`` of ``sub`` (shape ``(n, k, k)``) it solves the
    bordered systems ``x C = v``, ``C y = v``, ``sum(x) = sum(y) = 1`` in
    one stacked ``np.linalg.solve`` and returns ``(v, x, y, regular)``; for
    ``k == 1`` the answer is ``v = C[0, 0]`` and both mixtures the scalar
    1, with no solve.  ``regular`` is True, or False for the blocks whose
    system is singular, whose ``v``, ``x`` and ``y`` are then meaningless.
    Nothing here checks signs or optimality.  Only the blocks of ``system``,
    the :func:`_bordered` buffer a plan carries (unread for ``k == 1``), are
    written here; a singular block is replaced in a copy, never in the buffer.
    """
    k = sub.shape[1]
    if k == 1:
        return sub[:, 0, 0], 1.0, 1.0, True
    system[0, :, :k, :k] = sub.transpose(0, 2, 1)
    system[1, :, :k, :k] = sub
    rhs = _rhs(k)
    regular = True
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        # the determinant's sign comes from the same LU, so it is 0 exactly
        # where a pivot is, and cannot underflow; its log(0), and the log of
        # an LU that overflows near the float limit, is no fault
        with np.errstate(divide="ignore", invalid="ignore"):
            regular = (np.linalg.slogdet(system)[0] != 0.0).all(axis=0)
        system = system.copy()
        system[:, ~regular] = np.eye(k + 1)
        sol = np.linalg.solve(system, rhs)
    sol = sol[..., 0]
    return sol[0, :, k], sol[0, :, :k], sol[1, :, :k], regular


@cache
def _square_supports(n_rows: int, n_cols: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every square support pair of an ``n_rows x n_cols`` game, smallest first.

    Within one size the order is that of :func:`itertools.combinations`,
    row supports outermost: 5 pairs for 2x2, 19 for 3x3, none above
    :data:`ENUMERATED_SIDE`.
    """
    if max(n_rows, n_cols) > ENUMERATED_SIDE:
        return ()
    return tuple(
        (np.array(s), np.array(t))
        for k in range(1, min(n_rows, n_cols) + 1)
        for s in combinations(range(n_rows), k)
        for t in combinations(range(n_cols), k)
    )


def _blank(games):
    """Zeroed ``(value, x, y, regular)`` for the stack ``games``."""
    n, m, l = games.shape
    return np.zeros(n), np.zeros((n, m)), np.zeros((n, l)), np.zeros(n, dtype=bool)


def _group(at, rs, cs, n_rows: int, n_cols: int):
    """``(at, cells, x_slots, y_slots, system)``: the ``k x k`` blocks ``rs x cs`` of the games ``at``.

    ``rs`` and ``cs`` hold each game's ``k`` row and column indices, or one
    row of them that every game shares.  ``cells``, ``x_slots`` and
    ``y_slots`` index the raveled stack of ``n_rows x n_cols`` games and its
    raveled strategy stacks; ``system`` is the games' :func:`_bordered`
    buffer for :func:`equalize`, or None for ``k == 1``, which solves nothing.
    """
    cells = (at * (n_rows * n_cols))[:, None, None] + rs[:, :, None] * n_cols + cs[:, None, :]
    system = _bordered(at.size, rs.shape[1]) if rs.shape[1] > 1 else None
    return at, cells, (at * n_rows)[:, None] + rs, (at * n_cols)[:, None] + cs, system


def _plan(rows, cols) -> tuple:
    """The plan of the supports given as masks: one :func:`_group` per size, smallest first.

    A game whose support is empty or not square is in no group.
    """
    side, groups = rows.sum(axis=1), []
    side[side != cols.sum(axis=1)] = 0
    for k in sorted(set(side.tolist()) - {0}):
        at = np.flatnonzero(side == k)
        rs, cs = rows[at].nonzero()[1].reshape(-1, k), cols[at].nonzero()[1].reshape(-1, k)
        groups.append(_group(at, rs, cs, rows.shape[1], cols.shape[1]))
    return tuple(groups)


def _warm_plan(x, y, reuse=None) -> tuple:
    """``(masks, plan)`` of the supports of the strategy stacks ``x``, ``y``; ``reuse`` if its masks match."""
    rows, cols = x != 0, y != 0
    masks = (rows.shape, cols.shape, rows.tobytes(), cols.tobytes())
    return reuse if reuse is not None and reuse[0] == masks else (masks, _plan(rows, cols))


def _on_plan(c, plan):
    """Dense ``(value, x, y, regular)`` of the games ``c`` on ``plan``, one :func:`equalize` per group.

    A game in no group is not solved and reads ``regular`` False.
    """
    value, x, y, regular = answer = _blank(c)
    for at, cells, x_slots, y_slots, system in plan:
        value[at], x_s, y_t, regular[at] = equalize(c.take(cells), system)
        x.put(x_slots, x_s)
        y.put(y_slots, y_t)
    return answer


def _across(ufunc, a: np.ndarray, **reduce) -> np.ndarray:
    """``ufunc`` along each row of the 2-d ``a``, reduced across the games, not one short row at a time."""
    return ufunc.reduce(np.ascontiguousarray(a.T), axis=0, **reduce)


def _passes(games, answer, scale) -> np.ndarray:
    """Which games of ``answer = (value, x, y, regular)`` are regular, ``x, y >= 0``, gain ``<= scale``."""
    _, x, y, regular = answer
    # NaN from a near-singular system fails every comparison
    ok = regular & (_across(np.minimum, x) >= 0.0) & (_across(np.minimum, y) >= 0.0)
    return ok & (exploitability(games, x, y) <= scale)


def _keep(out, at, games, answer, scale) -> np.ndarray:
    """Write the answers of the games ``at`` that pass :func:`_passes` into ``out``; return the others.

    ``games``, ``answer`` and ``scale`` hold one candidate per game of
    ``at``; ``out = (value, x, y)`` is indexed by game.
    """
    ok = _passes(games, answer, scale)
    kept = at[ok]
    for o, a in zip(out, answer[:3]):
        o[kept] = a[ok]
    return at[~ok]


def _maximin(payoffs: np.ndarray):
    """The simplex's proposal ``(value, x, y, regular)`` for each game of the stack ``payoffs``.

    The simplex runs on ``P = payoff / max|payoff| + 2`` from the slack
    basis of ``P y <= 1``, all the games of the stack together; each final
    basis names a support, and :func:`_on_plan` gives the answers on the
    normalized blocks, with the strategies clipped at 0 and renormalized and
    the values scaled back by ``max|payoff|`` (a pure pair reads its entry).
    ``regular`` is False for a game whose block is singular or whose simplex
    gave up (an empty support).  Nothing here tests the answers.
    """
    n, m, l = payoffs.shape
    norm = np.abs(payoffs).max(axis=(1, 2))
    norm[norm == 0.0] = 1.0
    scaled = payoffs / norm[:, None, None]
    tab = np.zeros((n, m + 1, l + m + 1))  # columns y_1..y_l, one slack per row, rhs
    tab[:, :m, :l] = scaled + 2.0
    tab[:, :m, l:-1] = np.eye(m)
    tab[:, :m, -1] = 1.0
    tab[:, -1, :l] = -1.0  # minimize -sum(y)
    basic = np.zeros((n, l + m), dtype=bool)
    basic[np.arange(n)[:, None], _simplex(tab, np.tile(np.arange(l, l + m), (n, 1)))] = True
    rows, cols = ~basic[:, l:], basic[:, :l]  # the rows whose slacks left, the columns that entered
    value, x, y, regular = _on_plan(scaled, _plan(rows, cols))
    x, y = np.maximum(x, 0.0), np.maximum(y, 0.0)
    x[regular] /= x[regular].sum(axis=1, keepdims=True)
    y[regular] /= y[regular].sum(axis=1, keepdims=True)
    pure = regular & ((x > 0.0).sum(axis=1) == 1) & ((y > 0.0).sum(axis=1) == 1)
    entry = payoffs[np.arange(n), x.argmax(axis=1), y.argmax(axis=1)]
    return np.where(pure, entry, value * norm), x, y, regular


def solve_games(payoffs: np.ndarray, previous=None):
    """Values and both players' strategies of the stacked games ``payoffs``.

    ``previous`` is :func:`_warm_plan` of the last answer's strategy stacks,
    whose square supports are the first candidates of the module docstring;
    a caller carries it to the next call, which rebuilds it only when a
    support has changed.  A missing ``previous`` is the empty plan ``()``,
    which solves no game, so a cold stack takes the same warm pass with
    every game still open.  The supports are tried in one pass, by one
    :func:`_on_plan` and one :func:`_passes`, whose arrays are the results,
    uncopied, for the games that pass, and the whole answer when all of them
    do; each enumerated candidate is one more
    :func:`_on_plan` and :func:`_keep` over the games still open.  The games
    left over go to :func:`_maximin` as one stack, and those it leaves open
    to :func:`_exact` one at a time, each stage's answers through the same
    :func:`_keep`.  Returns ``(value, x, y, failed)``: ``failed`` maps the
    position in ``payoffs`` of each game whose exact answer failed the test,
    or that reached the exact simplex's pivot cap, to the message, and the
    other results of those games are meaningless.
    """
    size, n_rows, n_cols = payoffs.shape
    magnitudes = np.abs(payoffs).reshape(size, n_rows * n_cols)
    scale = WARM_START_TOL * _across(np.maximum, magnitudes, initial=_TINY)
    # a later stage overwrites the warm answer of each game that fails
    answer = _on_plan(payoffs, () if previous is None else previous[1])
    ok = _passes(payoffs, answer, scale)
    if ok.all():
        return answer[0] + 0.0, answer[1], answer[2], {}
    out, pending = answer[:3], np.flatnonzero(~ok)
    for s, t in _square_supports(n_rows, n_cols):
        if not pending.size:
            break
        games = payoffs[pending]
        answer = _on_plan(games, [_group(np.arange(pending.size), s[None], t[None], n_rows, n_cols)])
        pending = _keep(out, pending, games, answer, scale[pending])
    if pending.size:
        games = payoffs[pending]
        pending = _keep(out, pending, games, _maximin(games), scale[pending])
    capped = {}
    if pending.size:
        games = payoffs[pending]
        value, x, y, regular = answer = _blank(games)  # regular stays False past the cap
        for i, a in enumerate(games):
            try:
                value[i], x[i], y[i] = _exact(a)
                regular[i] = True
            except MatrixGameError as stop:
                capped[int(pending[i])] = str(stop)
        pending = _keep(out, pending, games, answer, scale[pending])
    failed = dict.fromkeys(pending.tolist(), "exact answer failed the acceptance test") | capped
    return out[0] + 0.0, *out[1:], failed  # + 0.0: no value reads -0.0


def exploitability(payoff: np.ndarray, row_strategy: np.ndarray, col_strategy: np.ndarray):
    """``max(A y) - min(x A)``, clipped at 0, per game of a stack: the pair's total best-response gain."""
    best_row = _across(np.maximum, np.einsum("nij,nj->ni", payoff, col_strategy))
    best_col = _across(np.minimum, np.einsum("ni,nij->nj", row_strategy, payoff))
    return np.maximum(best_row - best_col, 0.0)


def solve_matrix_game(payoff) -> MatrixGameSolution:
    """Solve the zero-sum game with the row player maximizing ``payoff``.

    The game is a stack of one for :func:`solve_games`, the pipeline the
    operator runs; the exploitability of the pair it keeps is reported as
    ``duality_gap``.  Raises ``ValueError`` for empty or non-finite
    matrices and :class:`MatrixGameError` when the exact answer fails the
    acceptance test or the exact simplex reaches its pivot cap.
    """
    a = np.asarray(payoff, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("payoff must be a nonempty 2-d matrix")
    if not np.isfinite(a).all():
        raise ValueError("payoff entries must be finite")
    # near the float limit a candidate's exploitability overflows to inf, which rejects it
    with np.errstate(over="ignore"):
        value, x, y, failed = solve_games(a[None])
        (gap,) = exploitability(a[None], x, y)
    if failed:
        raise MatrixGameError(failed[0])
    return MatrixGameSolution(float(value[0]), row_strategy=x[0], col_strategy=y[0], duality_gap=float(gap))

