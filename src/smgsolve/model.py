"""Finite two-player zero-sum semi-Markov game model and its on-disk format.

A game is described by a finite state set, per-state admissible action sets
for both players, and for every admissible (state, action, action) triple:

* a positive discount rate (per unit time),
* a payoff rate to player 1 (player 2 pays the negative),
* a holding-time law governing the sojourn before the next jump,
* a probability vector over successor states,

together with a state weight function ``omega(x) >= 1`` used by the weighted
sup-norm.  The transition kernel factorizes into the holding-time law and the
successor distribution; fully coupled time/state kernels are out of scope and
can only be approximated through :class:`DirectWeights`.

The serialized form is a single JSON object::

    {
      "states": ["1", "2"],
      "actions1": {"1": ["a1"], "2": ["a1", "a2"]},
      "actions2": {"1": ["b1"], "2": ["b1"]},
      "weight": {"1": 1.0, "2": 1.0},            // optional, default 1.0
      "triples": [
        {"state": "1", "a": "a1", "b": "b1",
         "alpha": 0.5, "reward": 2.0,
         "sojourn": {"kind": "exponential", "rate": 1.5},
         "transition": {"1": 0.25, "2": 0.75}},  // omitted states mean 0
        ...
      ]
    }

Sojourn kinds and their parameters: ``exponential`` (``rate``), ``uniform``
(``upper``), ``deterministic`` (``duration``), ``direct`` (``d``, ``lam``).
Each kind is one law class, the one home of its serializer, parameter
checks, closed-form continuation factor, cdf and holding-time draw.  The
other layers read a model through its cached :class:`TripleTable`.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

Triple = tuple[str, str, str]

TRANSITION_SUM_TOL = 1e-12
DIRECT_WEIGHT_REL_TOL = 1e-9
# Below this value of alpha*upper the uniform closed form (1 - e^-z)/z is
# replaced by its Taylor expansion; the truncation error is below 1 ulp there.
_UNIFORM_SERIES_CUTOFF = 1e-8


class ModelError(Exception):
    """Base class for model loading and validation failures."""


class ModelFormatError(ModelError):
    """The model document is malformed (not a well-formed model object)."""


class ModelValidationError(ModelError):
    """A structurally well-formed model violates an invariant."""


class NotSamplableError(ValueError):
    """The model carries direct-weight laws, which have no distribution to draw."""


class _Law:
    """One JSON sojourn kind: serializer, checks, closed forms, holding-time draw."""

    kind: ClassVar[str]
    label: ClassVar[str]  # the parameter as validation messages name it

    @property
    def param(self) -> float:  # the first field, the one TripleTable stores
        return next(iter(vars(self).values()))

    def to_obj(self) -> dict:
        return {"kind": self.kind, **vars(self)}

    def violations(self, alpha, triple: Triple) -> list[str]:
        if _positive_number(self.param):
            return []
        return [f"{self.kind} {self.label} must be positive and finite: triple {triple!r}"]


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential holding time with the given rate (events per unit time)."""

    rate: float
    kind: ClassVar[str] = "exponential"
    label: ClassVar[str] = "rate"

    def continuation(self, alpha: float) -> float:
        return self.rate / (alpha + self.rate)

    def cdf(self, t: float) -> float:
        return -math.expm1(-self.rate * t) if t > 0.0 else 0.0

    @staticmethod
    def holding_time(u, rate):
        return -np.log1p(-u) / rate


@dataclass(frozen=True)
class Uniform(_Law):
    """Holding time uniformly distributed on [0, upper]."""

    upper: float
    kind: ClassVar[str] = "uniform"
    label: ClassVar[str] = "upper bound"

    def continuation(self, alpha: float) -> float:
        z = alpha * self.upper
        if z < _UNIFORM_SERIES_CUTOFF:
            return 1.0 - z / 2.0 + z * z / 6.0
        return -math.expm1(-z) / z

    def cdf(self, t: float) -> float:
        return min(max(t / self.upper, 0.0), 1.0)

    @staticmethod
    def holding_time(u, upper):
        return u * upper


@dataclass(frozen=True)
class Deterministic(_Law):
    """Holding time fixed at `duration`."""

    duration: float
    kind: ClassVar[str] = "deterministic"
    label: ClassVar[str] = "duration"

    def continuation(self, alpha: float) -> float:
        return math.exp(-alpha * self.duration)

    def cdf(self, t: float) -> float:
        return 1.0 if t >= self.duration else 0.0

    @staticmethod
    def holding_time(u, duration):
        return duration


@dataclass(frozen=True)
class DirectWeights(_Law):
    """Pre-integrated discount coefficients for an arbitrary holding-time law.

    ``d`` is the expected discounted sojourn duration and ``lam`` the expected
    discount accrued over one full sojourn.  They are not independent: for a
    discount rate ``alpha`` every holding-time law satisfies
    ``d == (1 - lam) / alpha``, and validation enforces that identity against
    the discount rate of the triple the weights are attached to.  A model
    containing direct weights cannot be simulated (there is no distribution
    to sample), but it can be certified and solved.
    """

    d: float
    lam: float
    kind: ClassVar[str] = "direct"

    def continuation(self, alpha: float) -> float:
        return self.lam

    def violations(self, alpha, triple: Triple) -> list[str]:
        out = []
        if not (isinstance(self.lam, (int, float)) and 0.0 < self.lam < 1.0):
            out.append(f"direct-weight lam must lie in (0, 1): triple {triple!r}")
        if not (_finite_number(self.d) and self.d >= 0.0):
            out.append(f"direct-weight d must be finite and nonnegative: triple {triple!r}")
        if not out and _positive_number(alpha):
            implied = (1.0 - self.lam) / alpha
            if abs(self.d - implied) > DIRECT_WEIGHT_REL_TOL * max(1.0, abs(implied)):
                out.append(
                    f"direct weights inconsistent with discount rate "
                    f"(d={self.d!r}, expected {implied!r}): triple {triple!r}"
                )
        return out

    @staticmethod
    def holding_time(u, param):
        raise NotSamplableError("direct weights carry no holding-time law to sample")


SojournLaw = Exponential | Uniform | Deterministic | DirectWeights

# laws with a holding-time distribution, then the rest; a law's position in
# LAWS is its kind code in TripleTable.kind
ANALYTIC_LAWS = (Exponential, Uniform, Deterministic)
LAWS = (*ANALYTIC_LAWS, DirectWeights)
_KINDS = {law.kind: law for law in LAWS}


class TripleTable:
    """Every admissible triple of a model as flat arrays, in declaration order.

    Row ``i`` is triple ``labels[i]`` (``where`` inverts that).  State ``x``
    owns rows ``offset[x]:offset[x + 1]``, ``rows[x]`` by ``cols[x]`` of
    them, player 1's action major.  ``kind`` indexes :data:`LAWS`.  Row
    ``i``'s successors are ``succ[indptr[i]:indptr[i + 1]]`` (nonzeros only,
    in state order) with probabilities ``prob`` at the same positions.
    """

    def __init__(self, m: "GameModel"):
        self.labels = tuple(m.triples())
        self.where = {t: i for i, t in enumerate(self.labels)}
        self.n_states = m.n_states
        self.rows = np.array([len(m.actions1[x]) for x in m.states])
        self.cols = np.array([len(m.actions2[x]) for x in m.states])
        self.offset = np.concatenate(([0], np.cumsum(self.rows * self.cols)))
        self.state = np.repeat(np.arange(m.n_states), self.rows * self.cols)
        self.alpha = np.array([m.discount[t] for t in self.labels])
        self.reward = np.array([m.payoff[t] for t in self.labels])
        laws = [m.sojourn[t] for t in self.labels]
        self.kind = np.array([LAWS.index(type(law)) for law in laws], dtype=np.int8)
        self.param = np.array([law.param for law in laws])
        self.lam = np.array([law.continuation(a) for law, a in zip(laws, self.alpha.tolist())])
        self.d = (1.0 - self.lam) / self.alpha
        nnz, succ, prob = [], [], []
        # state by state, so that no dense (triples x states) array is ever built
        for lo, hi in zip(self.offset[:-1].tolist(), self.offset[1:].tolist()):
            block = np.array([m.transition[t] for t in self.labels[lo:hi]])
            r, c = block.nonzero()
            nnz.append(np.bincount(r, minlength=hi - lo))
            succ.append(c)
            prob.append(block[r, c])
        self.indptr = np.concatenate(([0], np.cumsum(np.concatenate(nnz))))
        self.succ = np.concatenate(succ)
        self.prob = np.concatenate(prob)

    def dense_transitions(self) -> np.ndarray:
        """Transition rows as a ``(triples, states)`` array."""
        nz_row = np.repeat(np.arange(len(self.labels)), np.diff(self.indptr))
        out = np.zeros((len(self.labels), self.n_states))
        out[nz_row, self.succ] = self.prob
        return out


@dataclass(frozen=True)
class GameModel:
    """Immutable finite zero-sum semi-Markov game.

    ``transition`` vectors are dense and aligned with ``states``; all maps are
    keyed by ``(state, action1, action2)`` triples.  Instances are not mutated
    after validation and are safe to share across threads; ``table`` and the
    state index are cached on first use and take no part in ``==``.
    """

    states: tuple[str, ...]
    actions1: dict[str, tuple[str, ...]]
    actions2: dict[str, tuple[str, ...]]
    discount: dict[Triple, float]
    payoff: dict[Triple, float]
    sojourn: dict[Triple, SojournLaw]
    transition: dict[Triple, tuple[float, ...]]
    weight: dict[str, float]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def table(self) -> TripleTable:
        """The per-triple arrays the operator, certificate and sampler read."""
        return TripleTable(self)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.states)}

    def state_index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def triples(self):
        """All admissible (state, a, b) triples in declaration order."""
        for x in self.states:
            for a in self.actions1[x]:
                for b in self.actions2[x]:
                    yield (x, a, b)

    def weight_vector(self) -> tuple[float, ...]:
        """Weights aligned with the state ordering."""
        return tuple(self.weight[x] for x in self.states)

    def payoff_bound(self) -> float:
        """The smallest ``M`` with ``|reward| <= M * omega(x)`` at every triple."""
        t = self.table
        return float(np.max(np.abs(t.reward) / np.asarray(self.weight_vector())[t.state]))


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    return _number(value) and math.isfinite(value)


def _positive_number(value) -> bool:
    return _finite_number(value) and value > 0.0


def validate_model(m: GameModel) -> list[str]:
    """Collect every invariant violation; an empty list means the model is valid.

    Violations are returned as human-readable strings carrying the offending
    triple, in declaration order, so the first entry is deterministic.
    """
    out: list[str] = []
    if not m.states:
        return ["model must declare at least one state"]
    structural = False
    if len(set(m.states)) != len(m.states):
        out.append("state labels must be unique")
        structural = True
    for x in m.states:
        for label, table in (("actions1", m.actions1), ("actions2", m.actions2)):
            acts = table.get(x)
            if not acts:
                out.append(f"{label} must list at least one action for state {x!r}")
                structural = True
            elif len(set(acts)) != len(acts):
                out.append(f"{label} for state {x!r} has duplicate labels")
                structural = True
        w = m.weight.get(x)
        if w is None:
            out.append(f"weight missing for state {x!r}")
        elif not (_finite_number(w) and w >= 1.0):
            out.append(f"weight must be >= 1 and finite: state {x!r} has {w!r}")
    if structural:  # per-triple checks need well-formed action sets
        return out

    expected = list(m.triples())
    expected_set = set(expected)
    tables = {
        "discount": m.discount,
        "payoff": m.payoff,
        "sojourn": m.sojourn,
        "transition": m.transition,
    }
    for name, table in tables.items():
        extra = set(table) - expected_set
        if extra:
            out.append(f"{name} has entries for inadmissible triples: {sorted(extra)!r}")

    n = m.n_states
    for t in expected:
        missing = [name for name, table in tables.items() if t not in table]
        if missing:
            out.append(f"triple {t!r} missing entries: {', '.join(missing)}")
            continue
        alpha = m.discount[t]
        if not _positive_number(alpha):
            out.append(f"discount must be positive and finite: triple {t!r} has {alpha!r}")
        if not _finite_number(m.payoff[t]):
            out.append(f"payoff must be a finite real number: triple {t!r} has {m.payoff[t]!r}")
        law = m.sojourn[t]
        if type(law) in LAWS:
            out.extend(law.violations(alpha, t))
        else:
            out.append(f"unsupported sojourn law {law!r}: triple {t!r}")
        row = m.transition[t]
        if len(row) != n:
            out.append(f"transition row must have {n} entries: triple {t!r} has {len(row)}")
            continue
        try:
            total = math.fsum(row)
        except (OverflowError, ValueError):  # raised for inf - inf and on overflow
            total = math.nan
        if not math.isfinite(total):
            out.append(f"transition probabilities must be finite: triple {t!r}")
            continue
        if min(row) < 0.0:
            out.append(f"transition probabilities must be nonnegative: triple {t!r}")
        if abs(total - 1.0) > TRANSITION_SUM_TOL:
            out.append(f"transition row must sum to 1 (got {total!r}): triple {t!r}")
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _parse_sojourn(obj, triple: Triple) -> SojournLaw:
    _require(isinstance(obj, dict), f"sojourn must be an object: triple {triple!r}")
    kind = obj.get("kind")
    _require(
        kind in _KINDS,
        f"sojourn kind must be one of {sorted(_KINDS)}: triple {triple!r}",
    )
    cls = _KINDS[kind]
    params = [f.name for f in fields(cls)]
    values = []
    for p in params:
        _require(p in obj, f"sojourn {kind!r} needs parameter {p!r}: triple {triple!r}")
        v = obj[p]
        _require(_number(v), f"sojourn parameter {p!r} must be a number: triple {triple!r}")
        values.append(float(v))
    extra = set(obj) - {"kind", *params}
    _require(not extra, f"sojourn {kind!r} has unknown parameters {sorted(extra)}: triple {triple!r}")
    return cls(*values)


def _parse_actions(doc, key: str, states: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    table = doc.get(key)
    _require(isinstance(table, dict), f"{key!r} must be an object mapping state to action list")
    out = {}
    for x in states:
        _require(x in table, f"{key!r} missing state {x!r}")
        acts = table[x]
        _require(
            isinstance(acts, list) and all(isinstance(a, str) for a in acts),
            f"{key!r} for state {x!r} must be a list of strings",
        )
        out[x] = tuple(acts)
    unknown = set(table) - set(states)
    _require(not unknown, f"{key!r} lists unknown states {sorted(unknown)}")
    return out


def load_model(text: str) -> GameModel:
    """Parse and validate a serialized model document.

    Raises :class:`ModelFormatError` for malformed documents and
    :class:`ModelValidationError` (carrying the first violation) for
    well-formed documents that break an invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "model document must be a JSON object")

    raw_states = doc.get("states")
    _require(
        isinstance(raw_states, list) and raw_states and all(isinstance(s, str) for s in raw_states),
        "'states' must be a nonempty array of strings",
    )
    states: tuple[str, ...] = tuple(raw_states)
    index = {x: i for i, x in enumerate(states)}
    actions1 = _parse_actions(doc, "actions1", states)
    actions2 = _parse_actions(doc, "actions2", states)

    weight = {x: 1.0 for x in states}
    if "weight" in doc:
        table = doc["weight"]
        _require(isinstance(table, dict), "'weight' must be an object mapping state to number")
        for x, w in table.items():
            _require(x in weight, f"'weight' lists unknown state {x!r}")
            _require(_number(w), f"weight for state {x!r} must be a number")
            weight[x] = float(w)

    raw_triples = doc.get("triples")
    _require(isinstance(raw_triples, list), "'triples' must be an array")
    discount: dict[Triple, float] = {}
    payoff: dict[Triple, float] = {}
    sojourn: dict[Triple, SojournLaw] = {}
    transition: dict[Triple, tuple[float, ...]] = {}
    for entry in raw_triples:
        _require(isinstance(entry, dict), "each triple entry must be an object")
        for k in ("state", "a", "b"):
            _require(isinstance(entry.get(k), str), f"triple entry needs string field {k!r}")
        t: Triple = (entry["state"], entry["a"], entry["b"])
        _require(t[0] in weight, f"triple {t!r} names unknown state")
        _require(t[1] in actions1[t[0]], f"triple {t!r} names unknown action for player 1")
        _require(t[2] in actions2[t[0]], f"triple {t!r} names unknown action for player 2")
        _require(t not in discount, f"duplicate triple {t!r}")
        for k in ("alpha", "reward"):
            _require(_number(entry.get(k)), f"triple {t!r} needs numeric field {k!r}")
        discount[t] = float(entry["alpha"])
        payoff[t] = float(entry["reward"])
        sojourn[t] = _parse_sojourn(entry.get("sojourn"), t)
        trans = entry.get("transition")
        _require(isinstance(trans, dict), f"triple {t!r} needs a 'transition' object")
        row = [0.0] * len(states)
        for y, p in trans.items():
            _require(y in index, f"transition for triple {t!r} names unknown state {y!r}")
            _require(
                _number(p), f"transition probability for triple {t!r} -> {y!r} must be a number"
            )
            row[index[y]] = float(p)
        transition[t] = tuple(row)

    model = GameModel(
        states=states,
        actions1=actions1,
        actions2=actions2,
        discount=discount,
        payoff=payoff,
        sojourn=sojourn,
        transition=transition,
        weight=weight,
    )
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations[0])
    return model


def serialize(m: GameModel) -> str:
    """Serialize a model to its JSON document form.

    The output preserves state and action declaration order and omits zero
    transition probabilities; ``load_model(serialize(m))`` reconstructs an
    equal model.
    """
    triples = []
    for t in m.triples():
        x, a, b = t
        row = m.transition[t]
        triples.append(
            {
                "state": x,
                "a": a,
                "b": b,
                "alpha": m.discount[t],
                "reward": m.payoff[t],
                "sojourn": m.sojourn[t].to_obj(),
                "transition": {y: p for y, p in zip(m.states, row) if p != 0.0},
            }
        )
    doc = {
        "states": list(m.states),
        "actions1": {x: list(m.actions1[x]) for x in m.states},
        "actions2": {x: list(m.actions2[x]) for x in m.states},
        "weight": {x: m.weight[x] for x in m.states},
        "triples": triples,
    }
    return json.dumps(doc, indent=2)
