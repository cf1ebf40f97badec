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

All states' matrices are assembled at once from the model's triple table;
the per-state game solves are independent within one application, so they
could run concurrently, and the sequential loop here writes disjoint outputs.
"""

from dataclasses import dataclass

import numpy as np

from .matrixgame import exploitability, solve_matrix_game
from .model import GameModel, Triple

SIMPLEX_TOL = 1e-10
# a warm-started state's pair must be this exact, relative to max(1, max|C|)
WARM_START_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StationaryStrategyPair:
    """Per-state mixed strategies for both players.

    ``f[x]`` is a probability vector over ``actions1[x]`` and ``g[x]`` over
    ``actions2[x]``, aligned with the model's action declaration order.
    """

    f: dict[str, np.ndarray]
    g: dict[str, np.ndarray]


def omega_norm(values, weights) -> float:
    """Weighted sup-norm ``max_x |u(x)| / omega(x)``."""
    u = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    return float(np.max(np.abs(u) / w))


def _checked_distribution(vec, size: int, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"{what} must have length {size}, got shape {v.shape}")
    if np.min(v) < -SIMPLEX_TOL or abs(float(v.sum()) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"{what} is not a probability vector: {v!r}")
    return v


def _pair_arrays(m: GameModel, pair: StationaryStrategyPair):
    """Validated (f, g) vectors per state, in state order."""
    out = []
    for x in m.states:
        if x not in pair.f or x not in pair.g:
            raise ValueError(f"strategy pair missing state {x!r}")
        fv = _checked_distribution(pair.f[x], len(m.actions1[x]), f"f[{x!r}]")
        gv = _checked_distribution(pair.g[x], len(m.actions2[x]), f"g[{x!r}]")
        out.append((fv, gv))
    return out


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


class ShapleyOperator:
    """Value-update operator over the model's triple table.

    It keeps, per triple, the reward part ``r * d`` and, per transition
    nonzero, the continuation weight ``lam * p``; neither changes across
    applications.  One application gathers ``u`` at the successors, sums
    each triple's nonzeros with one ``np.add.reduceat``, slices the result
    into the per-state matrices and solves one matrix game per state.
    """

    def __init__(self, m: GameModel):
        t = m.table
        self.model = m
        self.n = m.n_states
        self.weights = np.asarray(m.weight_vector(), dtype=float)
        self.base = t.reward * t.d  # r*d per triple
        # the triple (row) of each transition nonzero
        self.nz_triple = np.repeat(np.arange(len(t.labels)), np.diff(t.indptr))
        self.lam_prob = t.lam[self.nz_triple] * t.prob  # lam*p per nonzero
        self.succ = t.succ
        self.starts = t.indptr[:-1]  # every row has a nonzero: each sums to 1
        self.spans = list(zip(t.offset[:-1], t.offset[1:], t.rows, t.cols))

    def _value_vector(self, values) -> np.ndarray:
        u = np.asarray(values, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"value vector must have length {self.n}, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("value vector must be finite")
        return u

    def matrices(self, values) -> list[np.ndarray]:
        """Every state's matrix ``C(u, x)``, in state order."""
        u = self._value_vector(values)
        flat = self.base + np.add.reduceat(self.lam_prob * u[self.succ], self.starts)
        return [flat[lo:hi].reshape(k1, k2) for lo, hi, k1, k2 in self.spans]

    def apply(
        self, values, previous: StationaryStrategyPair | None = None
    ) -> tuple[np.ndarray, StationaryStrategyPair]:
        """One operator application: per-state game values and saddle pair.

        Without ``previous`` every state's game is solved by the simplex of
        :func:`solve_matrix_game`; that is the reference path.  With
        ``previous`` (the pair of the last application) each state whose
        previous supports are square, of size ``k``, first solves both
        players' equalizer systems on that ``k x k`` submatrix; states are
        grouped by ``k`` and matrix shape, and each group is one stacked
        ``np.linalg.solve``.
        A state keeps that result only when both strategies are ``>= 0`` and
        their exploitability ``max(C y) - min(x C)`` is at most
        ``WARM_START_TOL * max(1, max|C|)``.  Every other state, and every
        state of a group whose stack is singular, goes to the simplex.
        """
        matrices = self.matrices(values)
        out = np.empty(self.n)
        rows: list[np.ndarray | None] = [None] * self.n
        cols: list[np.ndarray | None] = [None] * self.n
        pending = range(self.n)
        if previous is not None:
            pending = self._warm_start(matrices, previous, out, rows, cols)
        for xi in pending:
            sol = solve_matrix_game(matrices[xi])
            out[xi], rows[xi], cols[xi] = sol.value, sol.row_strategy, sol.col_strategy
        states = self.model.states
        return out, StationaryStrategyPair(f=dict(zip(states, rows)), g=dict(zip(states, cols)))

    def _warm_start(self, matrices, previous, out, rows, cols) -> list[int]:
        """Fill the states the previous supports solve; return the others."""
        groups: dict[tuple[int, int, int], list[tuple[int, np.ndarray, np.ndarray]]] = {}
        rest: list[int] = []
        for xi, x in enumerate(self.model.states):
            c = matrices[xi]
            fv, gv = previous.f.get(x), previous.g.get(x)
            if fv is None or gv is None or fv.shape != (c.shape[0],) or gv.shape != (c.shape[1],):
                rest.append(xi)
                continue
            rs, cs = fv.nonzero()[0], gv.nonzero()[0]
            if rs.size == cs.size:
                groups.setdefault((rs.size, *c.shape), []).append((xi, rs, cs))
            else:
                rest.append(xi)
        for (k, n_rows, n_cols), members in groups.items():
            size = len(members)
            idx = np.array([xi for xi, _, _ in members])
            c = np.stack([matrices[xi] for xi in idx])
            rs = np.stack([r for _, r, _ in members])
            cs = np.stack([r for _, _, r in members])
            at = np.arange(size)[:, None]
            sub = c[at[:, :, None], rs[:, :, None], cs[:, None, :]]
            # unknowns (x_S, v) and (y_T, v): x C[S, T] = v, C[S, T] y = v, each mixture sums to 1
            system = np.zeros((2, size, k + 1, k + 1))
            system[0, :, :k, :k] = sub.transpose(0, 2, 1)
            system[1, :, :k, :k] = sub
            system[:, :, :k, k] = -1.0
            system[:, :, k, :k] = 1.0
            rhs = np.zeros((2, size, k + 1, 1))
            rhs[:, :, k] = 1.0
            try:
                solved = np.linalg.solve(system, rhs)[..., 0]
            except np.linalg.LinAlgError:
                rest.extend(idx.tolist())
                continue
            x = np.zeros((size, n_rows))
            x[at, rs] = solved[0, :, :k]
            y = np.zeros((size, n_cols))
            y[at, cs] = solved[1, :, :k]
            tol = WARM_START_TOL * np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
            # NaN from a near-singular system fails every comparison
            ok = (x.min(axis=1) >= 0.0) & (y.min(axis=1) >= 0.0) & (exploitability(c, x, y) <= tol)
            for n in ok.nonzero()[0]:
                xi = idx[n]
                out[xi], rows[xi], cols[xi] = solved[0, n, k], x[n], y[n]
            rest.extend(idx[~ok].tolist())
        return sorted(rest)


def evaluate_stationary_pair(m: GameModel, pair: StationaryStrategyPair) -> np.ndarray:
    """Exact expected discounted payoff of a stationary pair, per state.

    The pair's value vector is the unique fixed point of its one-sojourn
    update; it solves the linear system ``(I - M) V = R`` with
    ``M[x, y] = sum_ab f(a|x) g(b|x) lam(x,a,b) p(y|x,a,b)`` and
    ``R[x] = sum_ab f(a|x) g(b|x) r(x,a,b) d(x,a,b)``.  Solved directly (LU
    with partial pivoting plus one refinement step), so the result is an
    iteration-free oracle with residual below 1e-10 in the weighted sup-norm.
    """
    return _evaluate_with(ShapleyOperator(m), pair)


def _evaluate_with(op: ShapleyOperator, pair: StationaryStrategyPair) -> np.ndarray:
    """:func:`evaluate_stationary_pair` on an operator already built."""
    t = op.model.table
    n = op.n
    # the probability that the pair plays each triple of its state
    mass = np.concatenate([np.outer(fv, gv).ravel() for fv, gv in _pair_arrays(op.model, pair)])
    rewards = np.bincount(t.state, weights=mass * op.base, minlength=n)
    nz = op.nz_triple
    # I - M built in place: scatter -M, then add 1 to the diagonal
    system = np.bincount(
        t.state[nz] * n + op.succ, weights=-(mass[nz] * op.lam_prob), minlength=n * n
    ).reshape(n, n)
    system.flat[:: n + 1] += 1.0
    try:
        values = np.linalg.solve(system, rewards)
        values += np.linalg.solve(system, rewards - system @ values)
    except np.linalg.LinAlgError as exc:
        worst = int(np.argmax(t.lam))
        raise ArithmeticError(
            "stationary-pair system is singular; some continuation factor is not below 1 "
            f"(largest: {float(t.lam[worst])!r} at triple {t.labels[worst]!r})"
        ) from exc
    return values
