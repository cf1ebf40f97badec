"""Checks computed apart from smgsolve, from the model document alone.

The discount coefficients come from the closed forms of each holding-time
law, each state's matrix-game value from ``scipy.optimize.linprog``, and the
value of a stationary pair from one dense linear solve of the benchmark's own.
"""

import math

import numpy as np

# The three-state investment game's values as printed in the paper.
PAPER_VALUES = (12.6054, 12.1271, 11.1653)
PAPER_TOL = 5e-3


def _lam(alpha: float, sojourn: dict) -> float:
    """Expected discount over one sojourn: E[exp(-alpha * tau)]."""
    kind = sojourn["kind"]
    if kind == "exponential":
        return sojourn["rate"] / (alpha + sojourn["rate"])
    if kind == "uniform":
        z = alpha * sojourn["upper"]
        return -math.expm1(-z) / z
    if kind == "deterministic":
        return math.exp(-alpha * sojourn["duration"])
    raise ValueError(f"no closed form for sojourn kind {kind!r}")


class Oracle:
    """Per-state coefficient tables of one model document."""

    def __init__(self, doc: dict):
        self.states = list(doc["states"])
        index = {x: i for i, x in enumerate(self.states)}
        weight = doc.get("weight", {})
        self.weights = np.array([float(weight.get(x, 1.0)) for x in self.states])
        self.reward_part = []  # per state: (m, l) array of reward * d
        self.lam = []  # per state: (m, l) array of continuation factors
        self.rows = []  # per state: (m, l) nested lists of (successor index, prob) pairs
        by_triple = {(t["state"], t["a"], t["b"]): t for t in doc["triples"]}
        for x in self.states:
            acts1, acts2 = doc["actions1"][x], doc["actions2"][x]
            reward_part = np.empty((len(acts1), len(acts2)))
            lam = np.empty_like(reward_part)
            rows = []
            for i, a in enumerate(acts1):
                rows.append([])
                for j, b in enumerate(acts2):
                    t = by_triple[(x, a, b)]
                    lam[i, j] = _lam(t["alpha"], t["sojourn"])
                    reward_part[i, j] = t["reward"] * (1.0 - lam[i, j]) / t["alpha"]
                    rows[i].append(
                        (
                            np.array([index[y] for y in t["transition"]]),
                            np.array(list(t["transition"].values()), dtype=float),
                        )
                    )
            self.reward_part.append(reward_part)
            self.lam.append(lam)
            self.rows.append(rows)

    def payoff_matrix(self, values: np.ndarray, xi: int) -> np.ndarray:
        expect = np.array(
            [[probs @ values[succ] for succ, probs in row] for row in self.rows[xi]]
        )
        return self.reward_part[xi] + self.lam[xi] * expect

    def residual(self, values) -> float:
        """Upper bound on ``||T V - V||_omega`` with T from linprog per state.

        Each state's game value is bracketed by the row player's guaranteed
        payoff under the LP's primal strategy and the column player's
        guaranteed loss under its dual, so the bound does not rest on the LP
        solver's tolerances.
        """
        from scipy.optimize import linprog

        v = np.asarray(values, dtype=float)
        worst = 0.0
        for xi in range(len(self.states)):
            c = self.payoff_matrix(v, xi)
            m, l = c.shape
            res = linprog(
                np.r_[np.zeros(m), -1.0],
                A_ub=np.c_[-c.T, np.ones(l)],
                b_ub=np.zeros(l),
                A_eq=np.r_[np.ones(m), 0.0][None, :],
                b_eq=[1.0],
                bounds=[(0.0, None)] * m + [(None, None)],
                method="highs",
            )
            if res.status != 0:
                raise ArithmeticError(f"linprog failed at state {self.states[xi]!r}: {res.message}")
            x = np.clip(res.x[:m], 0.0, None)
            y = np.clip(-res.ineqlin.marginals, 0.0, None)
            lower = float(np.min((x / x.sum()) @ c))
            upper = float(np.max(c @ (y / y.sum())))
            gap = max(abs(lower - v[xi]), abs(upper - v[xi]))
            worst = max(worst, gap / self.weights[xi])
        return worst

    def pair_values(self, f: dict, g: dict) -> np.ndarray:
        """Exact discounted payoff of a stationary pair: ``(I - M) V = R``."""
        n = len(self.states)
        moved = np.zeros((n, n))
        rewards = np.zeros(n)
        for xi, x in enumerate(self.states):
            fv, gv = np.asarray(f[x]), np.asarray(g[x])
            rewards[xi] = fv @ self.reward_part[xi] @ gv
            for i, row in enumerate(self.rows[xi]):
                for j, (succ, probs) in enumerate(row):
                    np.add.at(moved[xi], succ, fv[i] * gv[j] * self.lam[xi][i, j] * probs)
        return np.linalg.solve(np.eye(n) - moved, rewards)
