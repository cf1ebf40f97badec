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
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ANALYTIC_LAWS, GameModel, NotSamplableError
from .shapley import StationaryStrategyPair, _pair_arrays

DISCOUNT_FLOOR = 1e-8
MAX_SOJOURNS = 16_384  # per-trajectory cap on sojourns
_BATCH = 16384  # trajectories run together; bounds memory only
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


def _bases(seed: int, indices: np.ndarray) -> np.ndarray:
    """The stream origin of each trajectory in ``indices`` of a run at ``seed``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    key = np.random.SeedSequence(int(seed)).generate_state(1, np.uint64)
    return _mix(key ^ indices.astype(np.uint64) * _GOLDEN)


def _uniforms(bases: np.ndarray, first: int, n: int) -> np.ndarray:
    """Slots ``[first, first + n)`` of each stream, one row per base."""
    z = bases[:, None] + np.arange(first + 1, first + n + 1, dtype=np.uint64) * _GOLDEN
    return (_mix(z) >> 11) * 2.0**-53


class _CounterStream:
    """One trajectory's slots, read in order: ``random(n)`` returns the next ``n``."""

    def __init__(self, base: np.ndarray):
        self._base = base
        self._next = 0

    def random(self, n: int) -> np.ndarray:
        u = _uniforms(self._base, self._next, n)[0]
        self._next += n
        return u


def trajectory_rng(seed: int, index: int) -> _CounterStream:
    """The stream driving trajectory ``index`` of a run at ``seed``."""
    return _CounterStream(_bases(seed, np.array([index])))


class _Sampler:
    """The model's triple table plus the cumulative sums trajectories draw from.

    ``f_cum``/``g_cum`` are each state's cumulative strategy rows and
    ``cum`` each transition row's running sums over its nonzeros.
    """

    def __init__(self, m: GameModel, pair: StationaryStrategyPair):
        t = m.table
        vecs = _pair_arrays(m, pair)
        direct = np.flatnonzero(t.kind >= len(ANALYTIC_LAWS))
        if direct.size:
            raise NotSamplableError(
                f"triple {t.labels[direct[0]]!r} carries direct weights; simulation unavailable"
            )
        self.f_cum = np.ones((m.n_states, t.rows.max()))
        self.g_cum = np.ones((m.n_states, t.cols.max()))
        for xi, (fv, gv) in enumerate(vecs):  # each row's last entry stays 1.0
            self.f_cum[xi, : fv.size - 1] = np.cumsum(fv[:-1])
            self.g_cum[xi, : gv.size - 1] = np.cumsum(gv[:-1])
        self.table = t
        self.cum = t.row_cumsum(t.prob)
        self.depth = int(np.diff(t.indptr).max() - 1).bit_length()  # binary-search steps
        omega = np.asarray(m.weight_vector())
        self.tail_coef = m.payoff_bound() * float(omega.max()) / float(t.alpha.min())

    def successor(self, tid: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each row ``tid``'s first successor whose running sum exceeds ``u``.

        Adding a zero changes no float sum, so this is the state a search of
        the dense row's cumulative sums finds.  ``lo`` never passes the row's
        last successor, which the search returns when rounding leaves the
        row's total at or below ``u``.
        """
        lo, hi = self.table.indptr[tid], self.table.indptr[tid + 1] - 1
        for _ in range(self.depth):
            mid = (lo + hi) // 2
            right = self.cum[mid] <= u
            lo = np.where(right, np.minimum(mid + 1, hi), lo)
            hi = np.where(right, hi, mid)
        return self.table.succ[lo]


def _run_batch(sampler: _Sampler, draw, total: int, x0: int):
    """Drive ``total`` trajectories to truncation; returns (payoffs, tail_bounds).

    ``draw(k, ids)`` gives the four uniforms of sojourn ``k`` for each live
    trajectory in ``ids``, one row each, identically however many
    trajectories run together.  A trajectory leaves the arrays on the
    sojourn its discount falls below ``DISCOUNT_FLOOR``, or stops after
    ``MAX_SOJOURNS`` sojourns; its tail bound is ``tail_coef`` times that
    discount.
    """
    t = sampler.table
    payoffs = np.empty(total)
    tails = np.empty(total)
    ids = np.arange(total)
    state = np.full(total, x0)
    discount = np.ones(total)
    acc = np.zeros(total)
    for k in range(MAX_SOJOURNS):
        u = draw(k, ids)
        a = (sampler.f_cum[state] <= u[:, 0, None]).sum(axis=1)
        b = (sampler.g_cum[state] <= u[:, 1, None]).sum(axis=1)
        tid = t.offset[state] + a * t.cols[state] + b
        par = t.param[tid]
        kind = t.kind[tid]
        tau = par
        for code, law in enumerate(ANALYTIC_LAWS):
            tau = np.where(kind == code, law.holding_time(u[:, 2], par), tau)
        rate = t.alpha[tid]
        step = np.exp(-rate * tau)
        acc += discount * t.reward[tid] * (1.0 - step) / rate
        discount *= step
        state = sampler.successor(tid, u[:, 3])
        done = discount < DISCOUNT_FLOOR
        if done.any():
            payoffs[ids[done]] = acc[done]
            tails[ids[done]] = sampler.tail_coef * discount[done]
            keep = ~done
            ids, state, discount, acc = ids[keep], state[keep], discount[keep], acc[keep]
            if not ids.size:
                break
    payoffs[ids] = acc  # trajectories still running at the sojourn cap
    tails[ids] = sampler.tail_coef * discount
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
    sampler = _Sampler(m, pair)
    payoffs, tails = _run_batch(sampler, lambda k, ids: rng.random(4)[None], 1, m.state_index(x0))
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
    if trajectories < 2:
        raise ValueError(f"need at least 2 trajectories, got {trajectories!r}")
    bases = _bases(seed, np.arange(trajectories))
    sampler = _Sampler(m, pair)
    x0i = m.state_index(x0)
    payoffs = np.empty(trajectories)
    tails = np.empty(trajectories)
    for start in range(0, trajectories, _BATCH):
        part = slice(start, start + _BATCH)
        batch = bases[part]
        payoffs[part], tails[part] = _run_batch(
            sampler, lambda k, ids: _uniforms(batch[ids], 4 * k, 4), batch.size, x0i
        )
    return MCEstimate(
        mean=float(payoffs.mean()),
        std_error=float(payoffs.std(ddof=1) / math.sqrt(trajectories)),
        trajectories=trajectories,
        truncation_bound=float(tails.mean()),
        seed=seed,
    )


@dataclass(frozen=True)
class DeviationRow:
    """One pure-deviation experiment against the baseline pair."""

    deviation: tuple[int, str, str]  # (player, state, action)
    estimate: MCEstimate
    difference: float  # estimate mean minus baseline mean at the deviated state


def pure_deviations(m: GameModel) -> list[tuple[int, str, str]]:
    """Every meaningful pure override: states where the player has a choice."""
    out = []
    for x in m.states:
        if len(m.actions1[x]) > 1:
            out.extend((1, x, a) for a in m.actions1[x])
        if len(m.actions2[x]) > 1:
            out.extend((2, x, b) for b in m.actions2[x])
    return out


def _override(m: GameModel, pair: StationaryStrategyPair, player: int, x: str, action: str):
    acts = m.actions1[x] if player == 1 else m.actions2[x]
    try:
        idx = acts.index(action)
    except ValueError:
        raise ValueError(f"unknown action {action!r} for player {player} at state {x!r}") from None
    mass = np.zeros(len(acts))
    mass[idx] = 1.0
    if player == 1:
        return StationaryStrategyPair(f={**pair.f, x: mass}, g=pair.g)
    return StationaryStrategyPair(f=pair.f, g={**pair.g, x: mass})


def check_equilibrium_deviation(
    m: GameModel,
    pair: StationaryStrategyPair,
    deviations: list[tuple[int, str, str]],
    trajectories: int,
    seed: int,
) -> list[DeviationRow]:
    """Estimate each pure deviation's payoff against the baseline pair.

    Each deviation is simulated from the deviated state with the same seed as
    its baseline (common random numbers), and reported without judgment; at
    an equilibrium, player 1 deviations should not estimate above the
    baseline nor player 2 deviations below it, beyond sampling error.
    """
    baselines: dict[str, MCEstimate] = {}
    rows = []
    for player, x, action in deviations:
        if player not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {player!r}")
        if x not in baselines:
            baselines[x] = estimate_value(m, pair, x, trajectories, seed)
        changed = _override(m, pair, player, x, action)
        est = estimate_value(m, changed, x, trajectories, seed)
        rows.append(
            DeviationRow(
                deviation=(player, x, action),
                estimate=est,
                difference=est.mean - baselines[x].mean,
            )
        )
    return rows
