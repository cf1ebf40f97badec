"""Seeded generator of the benchmark's synthetic models.

Each generated model is a plain dict in smgsolve's JSON model format; the
benchmark serializes it and hands smgsolve only that document.  The same
``(workload, seed)`` pair always yields the same document.

The numbers of a workload's model come from ``STRUCTURE_SEED``; the run's
seed draws the state labels and the order of the triples and of each
transition's entries in the document.  Redrawing the numbers per seed moved
the work itself: on seeds 1-5 the number of operator applications to epsilon
1e-6 ranged over 14-17 on a 1000-state model and 69-84 on a 60-state 10x10
one, a spread larger than the timings can resolve.  A relabelled, reordered
document keeps every per-state game, the solver's work and the Monte Carlo
paths, while the parser and the label-keyed tables see a different input.

Every triple gets ``SUCCESSORS`` distinct successor states drawn uniformly,
with Dirichlet(1) probabilities, and a holding-time law that cycles through
exponential, uniform and deterministic in triple order, so the three laws are
evenly mixed; its mean is drawn uniformly from the workload's range.
Weights are all 1 (the format's default), rewards are uniform on
``[-10, 10]``.
"""

import zlib

import numpy as np

SUCCESSORS = 8
STRUCTURE_SEED = 0

# name: (states, actions per player, alpha range, mean holding-time range)
SHAPES = {
    "many-states": (600, 2, (0.5, 2.0), (1.0, 3.0)),
    "wide-actions": (40, 10, (0.05, 0.3), (1.0, 3.0)),
}

# kind, parameter, parameter as a function of the law's mean
_LAWS = (
    ("exponential", "rate", lambda mean: 1.0 / mean),
    ("uniform", "upper", lambda mean: 2.0 * mean),
    ("deterministic", "duration", lambda mean: mean),
)


def generate(workload: str, seed: int) -> dict:
    """The model document of a generated workload for one seed.

    States keep the structure's order, so the first state, the Monte Carlo
    start state, is the same state under every seed.
    """
    n, k, (alpha_lo, alpha_hi), (mean_lo, mean_hi) = SHAPES[workload]
    tag = zlib.crc32(workload.encode())
    rng = np.random.default_rng([tag, STRUCTURE_SEED])
    triples = []  # (state index, a, b, alpha, reward, kind, param, value, successors, probs)
    for x in range(n):
        for a in range(k):
            for b in range(k):
                kind, param, from_mean = _LAWS[len(triples) % len(_LAWS)]
                succ = rng.choice(n, size=SUCCESSORS, replace=False)
                probs = rng.dirichlet(np.ones(SUCCESSORS))
                alpha = float(rng.uniform(alpha_lo, alpha_hi))
                reward = float(rng.uniform(-10.0, 10.0))
                value = from_mean(float(rng.uniform(mean_lo, mean_hi)))
                triples.append((x, a, b, alpha, reward, kind, param, value, succ, probs))

    shuffle = np.random.default_rng([tag, 1, seed])
    states = [f"s{i}" for i in shuffle.permutation(n)]
    triples = [triples[i] for i in shuffle.permutation(len(triples))]
    return {
        "states": states,
        "actions1": {x: [f"a{i}" for i in range(k)] for x in states},
        "actions2": {x: [f"b{j}" for j in range(k)] for x in states},
        "triples": [
            {
                "state": states[x],
                "a": f"a{a}",
                "b": f"b{b}",
                "alpha": alpha,
                "reward": reward,
                "sojourn": {"kind": kind, param: value},
                "transition": {
                    states[succ[i]]: float(probs[i]) for i in shuffle.permutation(SUCCESSORS)
                },
            }
            for x, a, b, alpha, reward, kind, param, value, succ, probs in triples
        ],
    }
