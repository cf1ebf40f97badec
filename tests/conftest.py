"""Shared fixtures: reference models, random model generation, oracles."""

import json
from pathlib import Path

import numpy as np
import pytest

from smgsolve import GameModel, StationaryStrategyPair, discounted_kernel_row, load_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

# Three-state investment game: two exponential-sojourn states, one uniform,
# 2x2 actions everywhere.  Doubles as the serialization reference document.
INVESTMENT_DOC = {
    "states": ["1", "2", "3"],
    "actions1": {"1": ["a11", "a12"], "2": ["a21", "a22"], "3": ["a31", "a32"]},
    "actions2": {"1": ["b11", "b12"], "2": ["b21", "b22"], "3": ["b31", "b32"]},
    "weight": {"1": 1.0, "2": 1.0, "3": 1.0},
    "triples": [
        {"state": "1", "a": "a11", "b": "b11", "alpha": 0.98, "reward": 40,
         "sojourn": {"kind": "exponential", "rate": 20}, "transition": {"2": 0.5, "3": 0.5}},
        {"state": "1", "a": "a11", "b": "b12", "alpha": 0.96, "reward": 24,
         "sojourn": {"kind": "exponential", "rate": 30}, "transition": {"2": 0.43, "3": 0.57}},
        {"state": "1", "a": "a12", "b": "b11", "alpha": 0.92, "reward": 18,
         "sojourn": {"kind": "exponential", "rate": 11}, "transition": {"2": 0.32, "3": 0.68}},
        {"state": "1", "a": "a12", "b": "b12", "alpha": 0.9, "reward": 33,
         "sojourn": {"kind": "exponential", "rate": 13}, "transition": {"2": 0.62, "3": 0.38}},
        {"state": "2", "a": "a21", "b": "b21", "alpha": 0.78, "reward": 12,
         "sojourn": {"kind": "exponential", "rate": 7}, "transition": {"1": 0.46, "3": 0.54}},
        {"state": "2", "a": "a21", "b": "b22", "alpha": 0.76, "reward": 8,
         "sojourn": {"kind": "exponential", "rate": 8}, "transition": {"1": 0.48, "3": 0.52}},
        {"state": "2", "a": "a22", "b": "b21", "alpha": 0.73, "reward": 10,
         "sojourn": {"kind": "exponential", "rate": 6.5}, "transition": {"1": 0.39, "3": 0.61}},
        {"state": "2", "a": "a22", "b": "b22", "alpha": 0.7, "reward": 17,
         "sojourn": {"kind": "exponential", "rate": 4}, "transition": {"1": 0.3, "3": 0.7}},
        {"state": "3", "a": "a31", "b": "b31", "alpha": 0.86, "reward": 3,
         "sojourn": {"kind": "uniform", "upper": 0.34}, "transition": {"1": 0.45, "2": 0.55}},
        {"state": "3", "a": "a31", "b": "b32", "alpha": 0.84, "reward": 5,
         "sojourn": {"kind": "uniform", "upper": 0.44}, "transition": {"1": 0.24, "2": 0.76}},
        {"state": "3", "a": "a32", "b": "b31", "alpha": 0.89, "reward": 2,
         "sojourn": {"kind": "uniform", "upper": 0.55}, "transition": {"1": 0.43, "2": 0.57}},
        {"state": "3", "a": "a32", "b": "b32", "alpha": 0.82, "reward": 6,
         "sojourn": {"kind": "uniform", "upper": 0.15}, "transition": {"1": 0.4, "2": 0.6}},
    ],
}

SINGLE_STATE_DOC = {
    "states": ["only"],
    "actions1": {"only": ["stay"]},
    "actions2": {"only": ["stay"]},
    "triples": [
        {"state": "only", "a": "stay", "b": "stay", "alpha": 0.5, "reward": 2,
         "sojourn": {"kind": "exponential", "rate": 1.5}, "transition": {"only": 1.0}}
    ],
}

# Two states, one triple of each sojourn kind (the direct weights satisfy
# d == (1 - lam) / alpha).
MIXED_LAWS_DOC = {
    "states": ["x", "y"],
    "actions1": {"x": ["a1", "a2"], "y": ["a1"]},
    "actions2": {"x": ["b1"], "y": ["b1", "b2"]},
    "triples": [
        {"state": "x", "a": "a1", "b": "b1", "alpha": 0.9, "reward": 3.0,
         "sojourn": {"kind": "exponential", "rate": 2.0}, "transition": {"x": 0.25, "y": 0.75}},
        {"state": "x", "a": "a2", "b": "b1", "alpha": 1.2, "reward": -1.0,
         "sojourn": {"kind": "uniform", "upper": 0.8}, "transition": {"y": 1.0}},
        {"state": "y", "a": "a1", "b": "b1", "alpha": 0.6, "reward": 2.0,
         "sojourn": {"kind": "deterministic", "duration": 0.5}, "transition": {"x": 0.5, "y": 0.5}},
        {"state": "y", "a": "a1", "b": "b2", "alpha": 0.75, "reward": 5.0,
         "sojourn": {"kind": "direct", "d": 0.5333333333333333, "lam": 0.6},
         "transition": {"x": 1.0}},
    ],
}

# Reference solution of the investment game (the value vector at the 1e-4
# stop; the reference strategy attribution is player-swapped, see
# test_acceptance).
INVESTMENT_VALUES = (12.6054, 12.1271, 11.1653)


@pytest.fixture()
def simplex_calls(monkeypatch):
    """Count the per-state games ``ShapleyOperator.apply`` hands to the simplex, one entry per game."""
    import smgsolve.matrixgame as matrixgame

    calls = []
    solve = matrixgame._maximin
    monkeypatch.setattr(matrixgame, "_maximin", lambda c: calls.extend(c) or solve(c))
    return calls


def failing_simplex(monkeypatch, positions):
    """Make the stacked simplex give up on the games at ``positions`` of its stack, and ``_exact`` fail.

    The stand-in for ``_maximin`` proposes the real answers but reads
    ``regular`` False at ``positions``, so those games go on to ``_exact``,
    whose stand-in answers NaN, which no acceptance test passes.
    """
    import smgsolve.matrixgame as matrixgame

    propose = matrixgame._maximin

    def give_up(c):
        value, x, y, regular = propose(c)
        regular[[i for i in positions if i < len(c)]] = False
        return value, x, y, regular

    def fail(a):
        return np.nan, np.full(a.shape[0], np.nan), np.full(a.shape[1], np.nan)

    monkeypatch.setattr(matrixgame, "_maximin", give_up)
    monkeypatch.setattr(matrixgame, "_exact", fail)


@pytest.fixture()
def exact_calls(monkeypatch):
    """Record each game the exact simplex ``_exact`` answers, one entry per call."""
    import smgsolve.matrixgame as matrixgame

    calls = []
    exact = matrixgame._exact
    monkeypatch.setattr(matrixgame, "_exact", lambda a: calls.append(a) or exact(a))
    return calls


@pytest.fixture()
def exact_path(monkeypatch, exact_calls):
    """Make the float simplex give up at once, so every game it sees goes to ``_exact``; lists those games.

    The exact simplex's degenerate pivots follow Bland's rule.
    """
    import smgsolve.matrixgame as matrixgame

    monkeypatch.setattr(matrixgame, "_STALL_PIVOTS", 0)
    return exact_calls


@pytest.fixture(scope="session")
def investment_model() -> GameModel:
    return load_model(json.dumps(INVESTMENT_DOC))


@pytest.fixture(scope="session")
def single_state_model() -> GameModel:
    return load_model(json.dumps(SINGLE_STATE_DOC))


def law_of(m: GameModel, triple):
    """The sojourn law of one triple, read from the model's table."""
    return m.table.law(m.table.where[triple])


def alpha_of(m: GameModel, triple) -> float:
    """The discount rate of one triple, read from the model's table."""
    return float(m.table.alpha[m.table.where[triple]])


def reward_of(m: GameModel, triple) -> float:
    """The reward rate of one triple, read from the model's table."""
    return float(m.table.reward[m.table.where[triple]])


def payoff_matrix(m: GameModel, values, x: str) -> np.ndarray:
    """``C(u, x)`` built cell by cell from ``discounted_kernel_row`` and each triple's reward."""
    u = np.asarray(values, dtype=float)
    c = np.empty((len(m.actions1[x]), len(m.actions2[x])))
    for i, a in enumerate(m.actions1[x]):
        for j, b in enumerate(m.actions2[x]):
            d, _, row = discounted_kernel_row(m, (x, a, b))
            c[i, j] = reward_of(m, (x, a, b)) * d + row @ u
    return c


def transition_of(m: GameModel, triple) -> tuple[float, ...]:
    """The transition row of one triple as a dense tuple aligned with ``states``."""
    t = m.table
    i = t.where[triple]
    row = np.zeros(m.n_states)
    row[t.succ[t.indptr[i] : t.indptr[i + 1]]] = t.prob[t.indptr[i] : t.indptr[i + 1]]
    return tuple(row.tolist())


def kernel_coefficients(law, alpha: float) -> tuple[float, float]:
    """``(d, lam)`` of ``law`` at discount rate ``alpha``, as a loaded model stores them."""
    doc = {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": alpha, "reward": 0.0,
             "sojourn": law.to_obj(), "transition": {"s": 1.0}}
        ],
    }
    d, lam, _ = discounted_kernel_row(load_model(json.dumps(doc)), ("s", "a", "b"))
    return d, lam


def random_model(
    rng: np.random.Generator,
    max_states: int = 5,
    max_actions: int = 4,
    kinds: tuple[str, ...] = ("exponential", "uniform", "deterministic"),
    unit_weight: bool = True,
) -> GameModel:
    """A random valid finite game, built through the document loader."""
    n = int(rng.integers(1, max_states + 1))
    states = [f"s{i}" for i in range(n)]
    actions1 = {x: [f"a{k}" for k in range(rng.integers(1, max_actions + 1))] for x in states}
    actions2 = {x: [f"b{k}" for k in range(rng.integers(1, max_actions + 1))] for x in states}
    triples = []
    for x in states:
        for a in actions1[x]:
            for b in actions2[x]:
                alpha = float(rng.uniform(0.3, 3.0))
                kind = kinds[rng.integers(0, len(kinds))]
                if kind == "exponential":
                    sojourn = {"kind": "exponential", "rate": float(rng.uniform(0.2, 20.0))}
                elif kind == "uniform":
                    sojourn = {"kind": "uniform", "upper": float(rng.uniform(0.05, 3.0))}
                elif kind == "deterministic":
                    sojourn = {"kind": "deterministic", "duration": float(rng.uniform(0.05, 2.0))}
                else:
                    lam = float(rng.uniform(0.2, 0.9))
                    sojourn = {"kind": "direct", "d": (1.0 - lam) / alpha, "lam": lam}
                raw = rng.uniform(0.05, 1.0, size=n)
                probs = raw / raw.sum()
                triples.append(
                    {
                        "state": x, "a": a, "b": b,
                        "alpha": alpha,
                        "reward": float(rng.uniform(-10.0, 10.0)),
                        "sojourn": sojourn,
                        "transition": {y: float(p) for y, p in zip(states, probs)},
                    }
                )
    doc = {
        "states": states,
        "actions1": actions1,
        "actions2": actions2,
        "triples": triples,
    }
    if not unit_weight:
        doc["weight"] = {x: float(rng.uniform(1.0, 1.002)) for x in states}
    return load_model(json.dumps(doc))


def scaled_rewards_doc(factor: float) -> dict:
    """``INVESTMENT_DOC`` with every reward times ``factor``, clipped to +-1.7e308.

    At 1e308 the game's values lie beyond the float64 range; at 1e307 they
    reach about 1.1e308, and a sum of a thousand Monte Carlo payoffs overflows.
    """
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    for triple in doc["triples"]:
        triple["reward"] = max(-1.7e308, min(1.7e308, triple["reward"] * factor))
    return doc


def uniform_pair(m: GameModel) -> StationaryStrategyPair:
    """Every state's actions played with equal probability, by both players."""
    f = {x: np.full(len(m.actions1[x]), 1.0 / len(m.actions1[x])) for x in m.states}
    g = {x: np.full(len(m.actions2[x]), 1.0 / len(m.actions2[x])) for x in m.states}
    return StationaryStrategyPair(f=f, g=g)


def sparse_doc(n_states: int, seed: int = 0, successors: int = 2) -> dict:
    """A fixed-seed model document: 2x2 actions, ``successors`` states per triple.

    Sojourn laws cycle through the three analytic kinds, so the document can
    be certified, solved and simulated.
    """
    rng = np.random.default_rng(seed)
    states = [f"s{i}" for i in range(n_states)]
    laws = (
        ("exponential", "rate", 2.0), ("uniform", "upper", 1.0), ("deterministic", "duration", 0.5)
    )
    triples = []
    for x in range(n_states):
        for a in range(2):
            for b in range(2):
                kind, param, scale = laws[len(triples) % 3]
                succ = rng.choice(n_states, size=successors, replace=False)
                p = rng.dirichlet(np.ones(successors))
                triples.append({
                    "state": states[x], "a": f"a{a}", "b": f"b{b}",
                    "alpha": float(rng.uniform(0.5, 2.0)),
                    "reward": float(rng.uniform(-10.0, 10.0)),
                    "sojourn": {"kind": kind, param: scale * float(rng.uniform(0.5, 1.5))},
                    "transition": {states[y]: float(q) for y, q in zip(succ, p)},
                })
    return {
        "states": states,
        "actions1": {x: ["a0", "a1"] for x in states},
        "actions2": {x: ["b0", "b1"] for x in states},
        "triples": triples,
    }


def ring_doc(n_states: int, scale: float) -> dict:
    """``sparse_doc(n_states)`` as a birth-death ring with every ``alpha`` times ``scale``.

    Every triple moves to its state's two ring neighbours with probability
    1/2 each, the slowest-mixing sparse structure; ``n_states`` must be at
    least 3.
    """
    doc = sparse_doc(n_states)
    for i, triple in enumerate(doc["triples"]):
        x = i // 4
        triple["alpha"] *= scale
        triple["transition"] = {f"s{(x - 1) % n_states}": 0.5, f"s{(x + 1) % n_states}": 0.5}
    return doc


def random_pair(rng: np.random.Generator, m: GameModel) -> StationaryStrategyPair:
    """A random fully mixed stationary pair for ``m``."""
    f, g = {}, {}
    for x in m.states:
        fa = rng.uniform(0.05, 1.0, size=len(m.actions1[x]))
        gb = rng.uniform(0.05, 1.0, size=len(m.actions2[x]))
        f[x] = fa / fa.sum()
        g[x] = gb / gb.sum()
    return StationaryStrategyPair(f=f, g=g)


def warm_token(op, f: np.ndarray, g: np.ndarray) -> tuple:
    """The warm token ``op._solve`` takes, holding the flat pair ``(f, g)``'s group stacks and no plan."""
    return tuple((f[group.f_at], g[group.g_at], None) for group in op.groups)


class SolveReportProxy:
    """Report stand-in carrying a replaced equilibrium."""

    def __init__(self, report, pair):
        self.equilibrium = pair
        self._report = report

    def __getattr__(self, name):
        return getattr(self._report, name)


def solve_2x2_by_equalizing(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Independent 2x2 oracle: pure saddle scan, else the equalizing mix."""
    a = np.asarray(a, dtype=float)
    maximin = a.min(axis=1).max()
    minimax = a.max(axis=0).min()
    if maximin == minimax:  # pure saddle
        i = int(a.min(axis=1).argmax())
        j = int(a.max(axis=0).argmin())
        x = np.zeros(2); x[i] = 1.0
        y = np.zeros(2); y[j] = 1.0
        return float(a[i, j]), x, y
    denom = a[0, 0] + a[1, 1] - a[0, 1] - a[1, 0]
    p = (a[1, 1] - a[1, 0]) / denom
    q = (a[1, 1] - a[0, 1]) / denom
    value = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) / denom
    return float(value), np.array([p, 1.0 - p]), np.array([q, 1.0 - q])


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


def strict_json(text):
    """``text`` parsed as JSON that holds no ``NaN`` or ``Infinity``."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=refuse)
