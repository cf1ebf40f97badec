"""Monte Carlo simulation of the continuous-time discounted payoff.

Trajectories alternate sojourns and jumps under a fixed stationary pair.
Within one sojourn of length ``tau`` at discount rate ``alpha`` the running
reward integrates in closed form, so each sojourn contributes

    D * r * (1 - exp(-alpha * tau)) / alpha

to the realized payoff, where ``D`` is the discount accumulated before the
sojourn; no within-sojourn discretization is involved.  A trajectory is
truncated once ``D`` falls below ``DISCOUNT_FLOOR``, or after ``MAX_SOJOURNS``
sojourns, and the discarded tail is bounded by ``M * omega_max * D / alpha0``
(``M`` the weighted payoff bound), which is reported alongside every
estimate.

Randomness is counter-based (Salmon et al. 2011, "Parallel random numbers:
as easy as 1, 2, 3"): the uniform in slot ``s`` of trajectory ``i`` is a pure
function of ``(seed, i, s)``, computed in numpy ``uint64`` arithmetic with
the SplitMix64 finalizer ``mix``:

    key  = SeedSequence(seed).generate_state(1, uint64)
    base = mix(key ^ i * G)
    u    = (mix(base + (s + 1) * G) >> 11) * 2**-53

where ``G = 0x9E3779B97F4A7C15``, so each trajectory reads a SplitMix64
stream started at ``base``.  Sojourn ``k`` takes the four slots
``[4k, 4k+4)`` in a fixed order (both actions, the holding time, the
successor).  The batched driver and the single-trajectory entry point share
one implementation, so an estimate is reproducible and independent of
batching.

An action is the count of the state's cumulative strategy entries at or
below its uniform, one contiguous array per strategy column; the count ends
at the last positive action.  A successor is the count of the row's running
sums at or below its uniform, capped at the last nonzero.  So no
zero-probability action or successor is ever drawn.  Holding times are
computed only for the analytic laws the model holds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ANALYTIC_LAWS, GameModel, NotSamplableError
from .shapley import StationaryStrategyPair, _pair_arrays, _raise_beyond_range

DISCOUNT_FLOOR = 1e-8
MAX_SOJOURNS = 16_384  # per-trajectory cap on sojourns
_BATCH = 16384  # trajectories run together; bounds only the per-sojourn work arrays
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean of the discounted payoff with its uncertainty budget."""

    mean: float
    std_error: float
    trajectories: int
    truncation_bound: float
    seed: int


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, applied in place to a ``uint64`` array."""
    z ^= z >> 30
    z *= _M1
    z ^= z >> 27
    z *= _M2
    z ^= z >> 31
    return z


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_run(trajectories, seed) -> None:
    """Raise ``ValueError`` unless a run of ``trajectories`` at ``seed`` can be estimated."""
    integral = isinstance(trajectories, (int, np.integer)) and not isinstance(trajectories, bool)
    if not integral or trajectories < 2:
        raise ValueError(f"trajectories must be an integer of at least 2, got {trajectories!r}")
    _check_seed(seed)


def _bases(seed: int, indices: np.ndarray) -> np.ndarray:
    """The stream origin of each trajectory in ``indices`` of a run at a checked ``seed``."""
    key = np.random.SeedSequence(int(seed)).generate_state(1, np.uint64)
    return _mix(key ^ indices.astype(np.uint64) * _GOLDEN)


def _uniforms(bases: np.ndarray, first: int, n: int) -> np.ndarray:
    """Slots ``[first, first + n)`` of each stream, one row per slot, one column per base."""
    z = _mix(np.arange(first + 1, first + n + 1, dtype=np.uint64)[:, None] * _GOLDEN + bases)
    z >>= 11
    u = z.astype(float)
    u *= 2.0**-53
    return u


class _CounterStream:
    """One trajectory's slots, read in order: ``random(n)`` returns the next ``n``."""

    def __init__(self, base: np.ndarray):
        self._base = base
        self._next = 0

    def random(self, n: int) -> np.ndarray:
        u = _uniforms(self._base, self._next, n)[:, 0]
        self._next += n
        return u


def trajectory_rng(seed: int, index: int) -> _CounterStream:
    """The stream driving trajectory ``index`` of a run at ``seed``."""
    _check_seed(seed)
    return _CounterStream(_bases(seed, np.array([index])))


def _cum_columns(s: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns ``0 .. width - 2`` of the states' cumulative strategy rows, each contiguous.

    Row ``x`` holds state ``x``'s ``size[x]`` slots of the flat ``s``, padded
    with zeros to the widest, ``width``.  Entries from a row's last positive
    action on, and the padding past its width, are 1.0, which no uniform reaches.
    """
    width = int(size.max())
    rows = np.zeros((size.size, width))
    rows[np.arange(width) < size[:, None]] = s
    c = np.cumsum(rows[:, :-1], axis=1)
    last = width - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
    c[np.arange(width - 1) >= last[:, None]] = 1.0
    return tuple(c.T.copy())


def _row_cumsum(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running sums of per-nonzero ``values`` within each row of ``indptr``, added left to right.

    With the rows sorted by length, the rows of each length are one block,
    summed by one ``np.cumsum`` along its rows, which adds left to right.
    """
    out = np.array(values, dtype=float)
    nnz = np.diff(indptr)
    order = np.argsort(nnz)
    lengths, first = np.unique(nnz[order], return_index=True)
    for n, rows in zip(lengths.tolist(), np.split(indptr[:-1][order], first[1:])):
        at = rows[:, None] + np.arange(n)
        out[at] = np.cumsum(out[at], axis=1)
    return out


class _SamplingTable:
    """What trajectories draw from that depends on the model alone, built once per model.

    ``GameModel._sampling`` caches it.  ``laws`` is the ``(code, law)`` of
    each analytic law the table holds, ``cum`` each transition row's running
    sums over its nonzeros, ``last`` each row's last nonzero, ``strides``
    the steps of :meth:`successor`'s search and ``tail_coef`` the truncation
    bound per unit of discount.  Raises ``NotSamplableError`` when some
    triple carries direct weights.
    """

    def __init__(self, m: GameModel):
        t = m.table
        direct = np.flatnonzero(t.kind >= len(ANALYTIC_LAWS))
        if direct.size:
            raise NotSamplableError(
                f"triple {t.labels[direct[0]]!r} carries direct weights; simulation unavailable"
            )
        laws = enumerate(ANALYTIC_LAWS)
        self.laws = tuple((code, law) for code, law in laws if (t.kind == code).any())
        self.table = t
        self.cum = _row_cumsum(t.indptr, t.prob)
        depth = int(np.diff(t.indptr).max() - 1).bit_length()
        self.strides = tuple(1 << k for k in reversed(range(depth)))
        self.last = t.indptr[1:] - 1  # each row's last successor
        self.tail_coef = m.payoff_bound() * float(t.weight.max()) / float(t.alpha.min())

    def successor(self, tid: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each row ``tid``'s first successor whose running sum exceeds ``u``.

        Running sums never decrease, so this is the row's start plus the
        count of its sums ``<= u``, found in halving power-of-two strides.
        A probe past the last successor reads the row's total; when rounding
        leaves that at or below ``u`` the count overshoots, and the cap
        returns the last successor.  Adding a zero changes no float sum, so
        this is the state a search of the dense row's cumulative sums finds.
        """
        pos, last = self.table.indptr[tid], self.last[tid]
        for stride in self.strides:
            pos += (self.cum[np.minimum(pos + (stride - 1), last)] <= u) * stride
        return self.table.succ[np.minimum(pos, last)]

    def triple(self, cols, state: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """The row of each ``state``'s action pair drawn with uniforms ``ua`` and ``ub``.

        ``cols`` is :func:`_columns` of the pair played; each action counts
        the state's cumulative strategy entries ``<= u``, one column at a time.
        """
        t, a = self.table, np.zeros(state.size, dtype=np.intp)
        for col in cols[0]:
            a += col[state] <= ua
        tid = t.offset[state] + a * t.cols[state]
        for col in cols[1]:
            tid += col[state] <= ub
        return tid


def _columns(m: GameModel, pair: StationaryStrategyPair) -> tuple[tuple[np.ndarray, ...], ...]:
    """``(f_cols, g_cols)``, the :func:`_cum_columns` of the checked ``pair``'s two flat arrays."""
    f, g = _pair_arrays(m, pair)
    return _cum_columns(f, m.table.rows), _cum_columns(g, m.table.cols)


def _run_batch(sampling: _SamplingTable, cols, draw, total: int, x0: int):
    """Drive ``total`` trajectories to truncation; returns (payoffs, tail_bounds).

    ``draw(k, ids)`` gives the four uniforms of sojourn ``k`` for each live
    trajectory in ``ids``, one row per slot and one column per trajectory,
    identically however many trajectories run together.  Actions are drawn
    straight from the model's sampling table by :meth:`_SamplingTable.triple`
    with the pair's columns ``cols`` (one count per cumulative strategy
    column, ending at the last positive action), successors by
    :meth:`_SamplingTable.successor`, and holding times only from the
    laws the table holds.  A trajectory leaves the arrays on the sojourn its
    discount falls below ``DISCOUNT_FLOOR``, or stops after ``MAX_SOJOURNS``
    sojourns; its tail bound is ``tail_coef`` times that discount.
    """
    t = sampling.table
    payoffs = np.empty(total)
    tails = np.empty(total)
    ids = np.arange(total)
    state = np.full(total, x0)
    discount = np.ones(total)
    acc = np.zeros(total)
    (_, first), *rest = sampling.laws
    for k in range(MAX_SOJOURNS):
        u = draw(k, ids)
        tid = sampling.triple(cols, state, u[0], u[1])
        par = t.param[tid]
        tau = first.holding_time(u[2], par)
        kind = t.kind[tid]
        for code, law in rest:
            tau = np.where(kind == code, law.holding_time(u[2], par), tau)
        rate = t.alpha[tid]
        step = np.exp(-rate * tau)
        acc += discount * t.reward[tid] * (1.0 - step) / rate
        discount *= step
        state = sampling.successor(tid, u[3])
        done = discount < DISCOUNT_FLOOR
        if done.any():
            payoffs[ids[done]] = acc[done]
            tails[ids[done]] = sampling.tail_coef * discount[done]
            keep = ~done
            ids, state, discount, acc = ids[keep], state[keep], discount[keep], acc[keep]
            if not ids.size:
                break
    payoffs[ids] = acc  # trajectories still running at the sojourn cap
    tails[ids] = sampling.tail_coef * discount
    return payoffs, tails


def simulate_trajectory(
    m: GameModel,
    pair: StationaryStrategyPair,
    x0: str,
    rng,
) -> tuple[float, float]:
    """One realized discounted payoff from ``x0`` plus its truncation bound.

    ``rng`` is any object whose ``random(n)`` returns the next ``n``
    uniforms, such as ``trajectory_rng(seed, index)``.
    """
    cols, sampling, x0i = _columns(m, pair), m._sampling, m.state_index(x0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        payoffs, tails = _run_batch(sampling, cols, lambda k, ids: rng.random(4)[:, None], 1, x0i)
    _raise_beyond_range(np.append(payoffs, tails), "the Monte Carlo estimate from state", [x0] * 2)
    return float(payoffs[0]), float(tails[0])


def estimate_value(
    m: GameModel,
    pair: StationaryStrategyPair,
    x0: str,
    trajectories: int,
    seed: int,
) -> MCEstimate:
    """Estimate the expected discounted payoff from ``x0`` under ``pair``.

    Trajectory ``i`` always reads the slots of ``trajectory_rng(seed, i)``,
    so the estimate depends only on the arguments, not on batch sizes.
    """
    _check_run(trajectories, seed)
    bases = _bases(seed, np.arange(trajectories))
    cols, sampling, x0i = _columns(m, pair), m._sampling, m.state_index(x0)
    payoffs, tails = np.empty(trajectories), np.empty(trajectories)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for start in range(0, trajectories, _BATCH):
            part = slice(start, start + _BATCH)
            batch = bases[part]
            payoffs[part], tails[part] = _run_batch(
                sampling, cols, lambda k, ids: _uniforms(batch[ids], 4 * k, 4), batch.size, x0i
            )
        mean, spread = payoffs.mean(), payoffs.std(ddof=1)
        if not (math.isfinite(mean) and math.isfinite(spread)) and np.isfinite(payoffs).all():
            # the sum or the squares overflow on finite payoffs: take both on
            # payoffs scaled by a power of two, below 1 in magnitude
            k = math.frexp(float(np.abs(payoffs).max()))[1]
            scaled = np.ldexp(payoffs, -k)
            mean, spread = np.ldexp(scaled.mean(), k), np.ldexp(scaled.std(ddof=1), k)
        est = MCEstimate(
            mean=float(mean),
            std_error=float(spread / math.sqrt(trajectories)),
            trajectories=trajectories,
            truncation_bound=float(tails.mean()),
            seed=seed,
        )
    outcome = np.array([est.mean, est.std_error, est.truncation_bound])
    _raise_beyond_range(outcome, "the Monte Carlo estimate from state", [x0] * 3)
    return est
