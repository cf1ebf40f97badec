"""Discount coefficients, payoff matrices and the minimax value-update operator.

For a holding-time law ``H`` and discount rate ``alpha``, everything the
value recursion needs is two scalars:

* ``d``, the expected discounted duration of one sojourn
  (the integral of ``exp(-alpha t) (1 - H(t))`` over ``t >= 0``), and
* ``lam``, the expected discount accrued over one full sojourn
  (the integral of ``exp(-alpha t)`` against ``H(dt)``).

Integration by parts ties them together: ``d == (1 - lam) / alpha``.  All
supported laws have closed forms, each kept with its law class in
:mod:`smgsolve.model` (``continuation``), so the coefficients are exact and
cheap; numerical quadrature appears only in the test suite as an independent
check.  A model's coefficients are computed once, into its triple table.

For a value estimate ``u`` the matrix ``C(u, x)`` has entries

    C[i, j] = r(x, a_i, b_j) * d(x, a_i, b_j)
              + lam(x, a_i, b_j) * sum_y p(y | x, a_i, b_j) u(y),

one admissible action pair per cell.  The value-update operator maps ``u``
to the vector of matrix-game values of ``C(u, x)`` over states; its fixed
point is the game value, and the per-state saddle strategies at the fixed
point form an optimal stationary pair.

All states' matrices are assembled at once from the model's triple table
and stacked by shape.  Each stack's games are answered together by
:func:`smgsolve.matrixgame.solve_games`, which says which supports are
tried and when the simplex runs; the operator warm-starts them from its
own last token, the strategy stacks and plans it returned.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrixgame import MatrixGameError, _warm_plan, solve_games
from .model import GameModel, Triple

# how far a strategy's entries may fall below 0, and its sum stray from 1
STRATEGY_TOL = 1e-10
# pair evaluation stops once its error bound is this, relative to max(1, ||v||_omega)
EVAL_TOL = 1e-12
# Krylov vectors in an evaluation's first GMRES cycle, and the most cycles it may take
GMRES_RESTART = 30
GMRES_CYCLES = 50


@dataclass(frozen=True, eq=False)
class StationaryStrategyPair:
    """Per-state mixed strategies for both players: the public form of a pair.

    ``f[x]`` is a probability vector over ``actions1[x]`` and ``g[x]`` over
    ``actions2[x]``, aligned with the model's action declaration order.
    Inside the library a pair is two flat arrays, cut by ``f_ptr`` and ``g_ptr``.

    In a pair that :func:`~smgsolve.solver.value_iterate` or
    :meth:`ShapleyOperator.apply` returns, ``f`` and ``g`` are read-only
    mappings over those flat arrays, each per-state array a read-only view,
    and a model whose table cut them takes the flat arrays as they are.  Any
    other pair, such as one built from a file, is joined from its mappings.
    """

    f: Mapping[str, np.ndarray]
    g: Mapping[str, np.ndarray]


class _Slices(Mapping):
    """Read-only ``{x: flat[ptr[index[x]]:ptr[index[x] + 1]]}`` over one player's flat strategies."""

    __slots__ = ("index", "flat", "ptr")

    def __init__(self, index: dict, flat: np.ndarray, ptr: np.ndarray):
        flat.flags.writeable = False  # and so is each view of it
        self.index, self.flat, self.ptr = index, flat, ptr

    def __getitem__(self, x) -> np.ndarray:
        i = self.index[x]
        return self.flat[self.ptr[i]:self.ptr[i + 1]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):  # through __init__, so a copy is read-only too
        return type(self), (self.index, self.flat, self.ptr)


def omega_norm(values, weights) -> float:
    """Weighted sup-norm ``max_x |u(x)| / omega(x)``."""
    # the method, not np.max, whose dispatch outweighs the arithmetic on a few states
    return float((np.abs(values) / weights).max())


def _checked_distribution(vec, size: int, what: str) -> np.ndarray:
    try:
        v = np.asarray(vec, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a vector of numbers: {vec!r}") from None
    if v.shape != (size,):
        raise ValueError(f"{what} must have length {size}, got shape {v.shape}")
    # written so that a NaN or infinite entry fails it: NaN compares False
    if not (np.min(v) >= -STRATEGY_TOL and abs(float(v.sum()) - 1.0) <= STRATEGY_TOL):
        raise ValueError(f"{what} is not a probability vector: {v!r}")
    return v


def _joined(strategies: Mapping, states, ptr: np.ndarray) -> np.ndarray | None:
    """The strategies of ``states`` as one flat array cut by ``ptr``, or None unless each has its width."""
    if type(strategies) is _Slices and strategies.ptr is ptr:  # joined already
        return strategies.flat
    try:
        parts = [strategies[x] for x in states]
        flat = np.concatenate(parts, dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    # after a join, every part is 1-d exactly when the result is
    sizes = np.fromiter(map(len, parts), np.intp, len(parts))
    return flat if flat.ndim == 1 and (sizes == np.diff(ptr)).all() else None


def _pair_arrays(m: GameModel, pair: StationaryStrategyPair) -> tuple[np.ndarray, np.ndarray]:
    """The validated pair as ``(f, g)``, flat and segmented by ``f_ptr`` and ``g_ptr``.

    Each player's strategies are joined at once by :func:`_joined`, which
    hands over the flat array of a pair the operator built for ``m.table``
    itself, and the arrays are checked per state at once.  Unless all pass,
    the states are checked and joined one at a time in state order, ``f``
    before ``g``, so the first that fails raises naming itself.
    """
    t = m.table
    f, g = _joined(pair.f, m.states, t.f_ptr), _joined(pair.g, m.states, t.g_ptr)
    if f is not None and g is not None and all(  # the test of _checked_distribution, per state
        ((np.minimum.reduceat(v, ptr[:-1]) >= -STRATEGY_TOL)
         & (np.abs(np.add.reduceat(v, ptr[:-1]) - 1.0) <= STRATEGY_TOL)).all()
        for v, ptr in ((f, t.f_ptr), (g, t.g_ptr))
    ):
        return f, g
    f, g = [], []
    for x, rows, cols in zip(m.states, t.rows.tolist(), t.cols.tolist()):
        if x not in pair.f or x not in pair.g:
            raise ValueError(f"strategy pair missing state {x!r}")
        f.append(_checked_distribution(pair.f[x], rows, f"f[{x!r}]"))
        g.append(_checked_distribution(pair.g[x], cols, f"g[{x!r}]"))
    return np.concatenate(f), np.concatenate(g)


def discounted_kernel_row(
    m: GameModel, triple: Triple
) -> tuple[float, float, np.ndarray]:
    """Coefficients and the continuation-weighted transition row of a triple.

    Returns ``(d, lam, lam * p(.|x,a,b))``; the row's entries are nonnegative
    and sum to ``lam``.  Raises ``KeyError`` for a triple the model does not
    contain.
    """
    t = m.table
    i = t.where.get(triple)
    if i is None:
        raise KeyError(f"unknown triple {triple!r}")
    lo, hi = t.indptr[i], t.indptr[i + 1]
    row = np.zeros(m.n_states)
    row[t.succ[lo:hi]] = t.lam[i] * t.prob[lo:hi]
    return float(t.d[i]), float(t.lam[i]), row


class _ShapeGroup(NamedTuple):
    """The states whose games share one shape, as the operator stacks them.

    ``_payoffs(u)[gather]`` stacks the group's matrices in ``index`` order,
    and ``f[f_at]`` and ``g[g_at]`` its strategies in a flat pair ``(f, g)``.
    """

    index: np.ndarray
    gather: np.ndarray
    f_at: np.ndarray
    g_at: np.ndarray


def _shape_groups(t) -> list[_ShapeGroup]:
    """The table's states grouped by the shape of their games, smallest shape first."""
    groups = []
    for n_rows, n_cols in sorted(set(zip(t.rows.tolist(), t.cols.tolist()))):
        index = np.flatnonzero((t.rows == n_rows) & (t.cols == n_cols))
        cells = np.arange(n_rows * n_cols).reshape(n_rows, n_cols)
        groups.append(_ShapeGroup(
            index=index,
            gather=t.offset[index][:, None, None] + cells,
            f_at=t.f_ptr[index][:, None] + np.arange(n_rows),
            g_at=t.g_ptr[index][:, None] + np.arange(n_cols),
        ))
    return groups


class ShapleyOperator:
    """Value-update operator over the model's triple table.

    It keeps, per triple, the reward part ``r * d`` and its actions' slots
    ``f_slot`` and ``g_slot`` in a flat pair, and, per transition nonzero,
    the continuation weight ``lam * p``.  One application gathers ``u`` at
    the successors, sums each triple's nonzeros with one ``np.add.reduceat``,
    stacks the states' matrices by shape and solves each stack's games together.
    Raises ``OverflowError`` when some ``r * d`` lies beyond the float64 range.
    """

    def __init__(self, m: GameModel):
        t = m.table
        # the model's parts, not the model: the model caches its operator
        self.states = m.states
        self.table = t
        self.n = m.n_states
        with np.errstate(over="ignore"):
            self.base = t.reward * t.d  # r*d per triple
        _raise_beyond_range(self.base, "the payoff rate r * d of triple", t.labels)
        # each row's weights lam * p sum to at most 1 + TRANSITION_SUM_TOL, well below 2,
        # so no entry of C(u, x) overflows while max|u| is at most this
        self.room = (float(np.finfo(float).max) - float(np.abs(self.base).max())) / 2.0
        # an evaluation with ||v / w|| at most this neither squares past the
        # float range in GMRES nor overflows in v = (v / w) * w
        self.reach = 2.0**480 / float(t.weight.max())
        a, b = np.divmod(np.arange(t.state.size) - t.offset[t.state], t.cols[t.state])
        self.f_slot, self.g_slot = t.f_ptr[t.state] + a, t.g_ptr[t.state] + b  # per triple
        self.lam_prob = t.lam[t.row_of] * t.prob  # lam*p per nonzero
        self.succ = t.succ
        self.starts = t.indptr[:-1]  # every row has a nonzero: each sums to 1
        self.groups = _shape_groups(t)

    def _payoffs(self, values, top=None) -> np.ndarray:
        """Every triple's entry of ``C(u, x)``, in table order.

        ``ValueError`` names the first state where ``u`` is not finite, and
        ``OverflowError`` the first triple whose entry lies beyond the float64
        range; while ``max|u| <= room`` neither can happen, and nothing is
        scanned.  ``top`` is ``max|u|`` when the caller has it at hand.
        """
        u = np.asarray(values, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"value vector must have length {self.n}, got {u.shape}")
        if (np.abs(u).max() if top is None else top) <= self.room:  # False on NaN
            return self.base + np.add.reduceat(self.lam_prob * u[self.succ], self.starts)
        bad = np.flatnonzero(~np.isfinite(u))
        if bad.size:
            x, v = self.states[bad[0]], float(u[bad[0]])
            raise ValueError(f"value vector must be finite, got {v!r} at state {x!r}")
        with np.errstate(over="ignore"):
            flat = self.base + np.add.reduceat(self.lam_prob * u[self.succ], self.starts)
        _raise_beyond_range(flat, "the payoff of triple", self.table.labels)
        return flat

    def apply(self, values) -> tuple[np.ndarray, StationaryStrategyPair]:
        """One operator application: per-state game values and saddle pair.

        Each shape's games are solved together, by
        :func:`~smgsolve.matrixgame.solve_games`; when it fails on some of
        them, :class:`MatrixGameError` names the first of those states.
        """
        out, strategies, _ = self._solve(values)
        return out, self._pair(*strategies)

    def _solve(self, values, warm=None, top=None) -> tuple[np.ndarray, tuple, tuple]:
        """:meth:`apply` on flat pairs ``(f, g)``, warm-started from the token ``warm``.

        ``top`` is as in :meth:`_payoffs`.  Returns ``(values, (f, g), warm)``,
        the token holding per shape group ``(x, y, plan)``: the stacks that
        :func:`solve_games` returned and the plan they were solved on.  Handed
        back, each plan is built from those stacks by :func:`_warm_plan`, or reused.
        """
        flat = self._payoffs(values, top)
        t = self.table
        out, f, g = np.empty(self.n), np.empty(t.f_ptr[-1]), np.empty(t.g_ptr[-1])
        token = []
        for i, group in enumerate(self.groups):
            plan = None if warm is None else _warm_plan(*warm[i])
            value, x, y, failed = solve_games(flat[group.gather], plan)
            if failed:
                first = min(failed)
                raise MatrixGameError(f"state {self.states[group.index[first]]!r}: {failed[first]}")
            out[group.index] = value
            f[group.f_at], g[group.g_at] = x, y
            token.append((x, y, plan))
        return out, (f, g), tuple(token)

    def _pair(self, f: np.ndarray, g: np.ndarray) -> StationaryStrategyPair:
        """The pair whose per-state arrays are views of the flat ``f`` and ``g``, made read-only."""
        t = self.table
        return StationaryStrategyPair(_Slices(t.index, f, t.f_ptr), _Slices(t.index, g, t.g_ptr))


def _raise_beyond_range(values: np.ndarray, what: str, names) -> None:
    """Raise ``OverflowError`` naming the first of ``names`` whose entry of ``values`` is not finite."""
    lost = np.flatnonzero(~np.isfinite(values))
    if lost.size:
        raise OverflowError(f"values beyond the float64 range: {what} {names[lost[0]]!r} overflows")


def evaluate_stationary_pair(m: GameModel, pair: StationaryStrategyPair) -> np.ndarray:
    """Expected discounted payoff of a stationary pair, per state, to a stated bound.

    The pair's value vector ``V`` is the unique fixed point of its one-sojourn
    update; it solves the linear system ``(I - M) V = R`` with
    ``M[x, y] = sum_ab f(a|x) g(b|x) lam(x,a,b) p(y|x,a,b)`` and
    ``R[x] = sum_ab f(a|x) g(b|x) r(x,a,b) d(x,a,b)``, both as formed in
    float64.  Let ``w`` be the model's weight ``omega``, or all ones when
    ``||M||_omega >= 1`` (possible only on a model that fails its
    certificate).  The result ``v`` satisfies::

        ||v - V||_w <= (||res||_w + rho) / (1 - ||M||_w)
                    <= max(1e-12 * max(1, ||v||_w), 2 * rho / (1 - ||M||_w))

    where ``res`` is the residual ``R - (I - M) v`` as computed in float64
    and ``rho = k * 2**-53 * (||R||_w + 2 * ||v||_w)`` bounds its rounding
    error: ``k`` bounds the roundings in one of its rows (four, plus the
    row's nonzeros, or plus ``states`` and one state's triples when the
    system is held dense).  The bound thus allows for that rounding.  The
    second term is the larger only when ``||M||_w`` is within about
    ``k * 4e-4`` of 1: float64 resolves the residual no finer, and a dense
    LU solve's error is of the same order.
    The factor 1e-12 is :data:`EVAL_TOL`.  The bound holds whatever vector
    the refinement starts from; here, with no value at hand, a sparse
    system starts from ``R``.

    Time and memory are O(the model's triples and transition nonzeros, plus
    ``states`` times the GMRES restart), by the restart rule of
    :func:`_refined`.  Raises ``ArithmeticError`` when ``||M|| >= 1`` in
    both norms, naming the largest continuation factor the pair plays at the
    worst state, or when :data:`GMRES_CYCLES` cycles do not reach the bound,
    and its subclass ``OverflowError`` naming a state whose value lies
    beyond the float64 range.
    """
    return _evaluate_with(m._operator, *_pair_arrays(m, pair))


def _evaluate_with(op: ShapleyOperator, f: np.ndarray, g: np.ndarray, start=None) -> np.ndarray:
    """:func:`evaluate_stationary_pair` on an operator and a flat pair ``(f, g)``.

    It works on the system scaled by ``w``: ``v / w`` solves
    ``(I - S) (v / w) = R / w`` with ``S[x, y] = M[x, y] w(y) / w(x)``,
    whose sup-norm is ``||M||_w``.  When the nonzero list holds fewer than
    ``states**2`` entries, the start is ``start / w`` (``start`` in value
    units, such as a solver's iterate, and left unchanged), or ``R / w``
    when ``start`` is None, and a product with ``S`` is one ``np.bincount``
    over the list.  Otherwise ``I - S`` is held dense, no larger than the
    list: one ``np.linalg.solve`` gives the start and a product is a
    matrix-vector product.  Restarted GMRES (:func:`_refined`) refines the
    start until the bound holds; only the number of cycles depends on it.
    """
    t = op.table
    n = op.n
    # the probability that the pair plays each triple of its state
    mass = f[op.f_slot] * g[op.g_slot]
    rewards = np.bincount(t.state, weights=mass * op.base, minlength=n)
    # the transition nonzeros of the triples the pair plays, by triple
    at = np.flatnonzero(mass)
    counts = t.indptr[at + 1] - t.indptr[at]
    nz = np.repeat(t.indptr[at] + counts - np.cumsum(counts), counts) + np.arange(counts.sum())
    rows, cols = np.repeat(t.state[at], counts), op.succ[nz]
    weights = np.repeat(mass[at], counts) * op.lam_prob[nz]
    for omega in (t.weight, np.ones(n)):
        scaled = weights * (omega[cols] / omega[rows])
        sums = np.bincount(rows, weights=np.abs(scaled), minlength=n)
        rate = float(sums.max())
        if rate < 1.0:
            break
    else:
        x = int(np.argmax(sums))
        at = at[t.state[at] == x]
        worst = at[np.argmax(t.lam[at])]
        raise ArithmeticError(
            f"the pair's continuation weights sum to {rate!r} at state {op.states[x]!r}, "
            "so its evaluation has no error bound; some continuation factor is not below 1 "
            f"(largest: {float(t.lam[worst])!r} at triple {t.labels[worst]!r})"
        )
    rhs = rewards / omega
    # ||v / w|| <= max|rhs| / (1 - rate), and GMRES's 2-norms square entries:
    # where that bound passes reach, the system is solved scaled down by a power
    # of two, which moves no bits, and each state's value is checked as it is
    # scaled back
    given = float(np.abs(rhs).max())
    near = not given / (1.0 - rate) <= op.reach  # omega is at most table.weight
    if near:
        _raise_beyond_range(rhs, "the pair's reward at state", op.states)
        drop = math.log2(given) - math.log2(1.0 - rate) - 480.0
        shrink = 2.0 ** -max(0, math.ceil(drop))
        rhs *= shrink
        given *= shrink
        start = None if start is None else start * shrink
    # the terms a row of the computed residual sums, at most, besides its
    # nonzeros: the omega scaling, the product and two subtractions
    terms = 4
    if nz.size < n * n:

        def apply(v):  # (I - S) v
            return v - np.bincount(rows, weights=scaled * v[cols], minlength=n)

        start = rhs.copy() if start is None else start / omega  # either way a new array
        terms += np.bincount(t.state[at], weights=counts, minlength=n).max()
    else:
        # a row of the dense I - S sums n products, its cells each at most
        # one state's triples
        system = np.bincount(rows * n + cols, weights=-scaled, minlength=n * n).reshape(n, n)
        system.flat[:: n + 1] += 1.0
        apply, start = system.__matmul__, np.linalg.solve(system, rhs)
        terms += n + int(np.diff(t.offset).max())
    v = _refined(apply, rhs, start, rate, terms, given)
    if v is None:
        raise ArithmeticError(
            f"pair evaluation did not reach its error bound within {GMRES_CYCLES} GMRES cycles "
            f"(||M|| = {rate!r})"
        )
    if not near:
        return v * omega
    with np.errstate(over="ignore"):
        v = v * omega / shrink
    _raise_beyond_range(v, "the pair's value at state", op.states)
    return v


def _refined(apply, rhs, v, rate: float, terms: float, given: float) -> np.ndarray | None:
    """``v`` refined by restarted GMRES on ``apply(v) = rhs`` until its residual is on target.

    ``given`` is ``max|rhs|``.  The target is the residual that proves the bound of
    :func:`evaluate_stationary_pair`, or the residual's own rounding floor
    when that is higher.  The first cycle searches :data:`GMRES_RESTART`
    Krylov vectors; after each cycle that does not halve the residual's
    sup-norm, the next searches twice as many, capped at the system's size,
    where a cycle is full GMRES.  Returns None when :data:`GMRES_CYCLES`
    cycles do not reach the target.
    """
    restart, last = min(GMRES_RESTART, rhs.size), np.inf
    for cycle in range(GMRES_CYCLES + 1):
        residual = rhs - apply(v)
        size = float(np.abs(v).max())
        # the computed residual's rounding error, at most (Higham's gamma_terms)
        noise = terms * 2.0**-53 * (given + 2.0 * size)
        target = max(EVAL_TOL * max(1.0, size) * (1.0 - rate) - noise, noise)
        error = float(np.abs(residual).max())
        if error <= target:
            return v
        if cycle < GMRES_CYCLES:
            if error > last / 2.0:
                restart = min(2 * restart, rhs.size)
            last = error
            v += _gmres_cycle(apply, residual, target, restart)
    return None


def _gmres_cycle(apply, residual: np.ndarray, target: float, restart: int) -> np.ndarray:
    """One GMRES cycle on ``A z = residual`` from ``z = 0``, ``apply(u)`` being ``A u``.

    It searches at most ``restart`` Krylov vectors.  Each vector's product
    is orthogonalised by classical Gram-Schmidt, applied twice.  The cycle
    stops early once the Givens-rotated least-squares residual, a 2-norm and
    so at least the sup-norm, is at most ``target``.
    """
    beta = float(np.linalg.norm(residual))
    basis = np.empty((restart + 1, residual.size))
    basis[0] = residual / beta
    h = np.zeros((restart + 1, restart))
    rotations = []
    g = [beta]
    for k in range(restart):
        w = apply(basis[k])
        for _ in range(2):
            c = basis[: k + 1] @ w
            w -= c @ basis[: k + 1]
            h[: k + 1, k] += c
        norm = float(np.linalg.norm(w))
        col = h[: k + 2, k]
        col[k + 1] = norm
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        r = float(np.hypot(col[k], col[k + 1]))
        cs, sn = col[k] / r, col[k + 1] / r
        rotations.append((cs, sn))
        col[k], col[k + 1] = r, 0.0
        g.append(-sn * g[k])
        g[k] *= cs
        if abs(g[k + 1]) <= target or norm == 0.0:  # zero: the search space is invariant
            break
        basis[k + 1] = w / norm
    used = k + 1
    y = np.linalg.solve(h[:used, :used], g[:used])
    return y @ basis[:used]
