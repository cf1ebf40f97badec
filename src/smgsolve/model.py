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
checks, closed-form continuation factor, cdf and holding-time draw.

The loader makes one pass over the document's triples.  It collects each
column (rate, reward, law, parameters, transition entries) in a plain list,
then converts the lists to arrays once, into the model's
:class:`TripleTable`, with each transition kept as its nonzeros; an error
message is formatted only once its check has failed.  Validation screens
every triple at once in numpy and runs the per-triple checks, which word the
messages, only on the triples the screen cannot clear (see
:func:`_suspect_rows`).  Every other layer reads the model through that
table; no structure with one entry per pair of states is built.
"""

import json
import math
from dataclasses import dataclass
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

    def continuation(self, alpha: float) -> float:
        return self.continuation_factor(self.param, alpha)

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

    @staticmethod
    def continuation_factor(rate, alpha):
        return rate / (alpha + rate)

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

    @staticmethod
    def continuation_factor(upper, alpha):
        z = alpha * upper
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

    @staticmethod
    def continuation_factor(duration, alpha):
        return math.exp(-alpha * duration)

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
_KINDS = {law.kind: code for code, law in enumerate(LAWS)}


class TripleTable:
    """A model's per-triple data as flat arrays, in declaration order.

    This is the only store of per-triple data; memory is O(triples +
    nonzeros).  Row ``i`` is triple ``labels[i]`` (``where`` inverts that).
    State ``x`` owns rows ``offset[x]:offset[x + 1]``, ``rows[x]`` by
    ``cols[x]`` of them, player 1's action major, so ``(x, a_i, b_j)`` is
    row ``offset[x] + i * cols[x] + j``.  ``kind`` indexes :data:`LAWS`, or
    is -1 for a triple the document left out; ``param`` is the law's first
    parameter, and :meth:`law` rebuilds the law object (direct weights keep
    ``d`` in ``param`` and their ``lam`` in ``lam``).  :func:`load_model`
    fills ``lam`` and ``d`` of the other laws once the model is valid.
    Row ``i``'s successors are ``succ[indptr[i]:indptr[i + 1]]`` (nonzeros
    only, in state order) with probabilities ``prob`` at the same positions.
    ``weight`` is the state weight ``omega``, one entry per state, 1.0 where
    the document gives none.  A pair's mixed actions at ``x`` are slots
    ``f_ptr[x]:f_ptr[x + 1]`` and ``g_ptr[x]:g_ptr[x + 1]`` of two flat arrays.
    """

    def __init__(self, states, actions1, actions2):
        """The rows of every admissible triple, all of them still empty."""
        self.labels = tuple((x, a, b) for x in states for a in actions1[x] for b in actions2[x])
        self.where = {t: i for i, t in enumerate(self.labels)}
        self.rows = np.array([len(actions1[x]) for x in states])
        self.cols = np.array([len(actions2[x]) for x in states])
        self.offset = np.concatenate(([0], np.cumsum(self.rows * self.cols)))
        self.f_ptr = np.concatenate(([0], np.cumsum(self.rows)))
        self.g_ptr = np.concatenate(([0], np.cumsum(self.cols)))
        self.state = np.repeat(np.arange(len(states)), self.rows * self.cols)
        self.weight = np.ones(len(states))
        size = len(self.labels)
        self.alpha, self.reward, self.param, self.lam, self.d = np.full((5, size), np.nan)
        self.kind = np.full(size, -1, dtype=np.int8)
        self.indptr = np.zeros(size + 1, dtype=np.intp)
        self.succ = np.zeros(0, dtype=np.intp)
        self.prob = np.zeros(0)

    def __eq__(self, other):
        if not isinstance(other, TripleTable):
            return NotImplemented
        return self.labels == other.labels and all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True)
            for c in (
                "alpha", "reward", "kind", "param", "lam", "d", "indptr", "succ", "prob", "weight"
            )
        )

    def law(self, i: int) -> SojournLaw:
        """Row ``i``'s sojourn law: its ``param``, and for direct weights its ``lam``."""
        cls = LAWS[self.kind[i]]
        return cls(*(float(self.param[i]), float(self.lam[i]))[: len(cls.__match_args__)])

    def row_cumsum(self, values: np.ndarray) -> np.ndarray:
        """Running sums of per-nonzero ``values`` within each row, in state order.

        Each row is added left to right, as a plain ``sum`` or ``np.cumsum``
        over the dense row adds it (a pairwise sum would move last bits).
        """
        out = np.array(values, dtype=float)
        nnz = np.diff(self.indptr)
        for k in range(1, int(nnz.max(initial=0))):
            at = self.indptr[:-1][nnz > k] + k
            out[at] += out[at - 1]
        return out


@dataclass(frozen=True)
class GameModel:
    """Immutable finite zero-sum semi-Markov game.

    Per-triple data and the state weight ``omega`` live only in ``table``.
    Instances are not mutated after validation and are safe to share across
    threads; the state index and the value-update operator are cached on
    first use and take no part in ``==``.
    """

    states: tuple[str, ...]
    actions1: dict[str, tuple[str, ...]]
    actions2: dict[str, tuple[str, ...]]
    table: TripleTable

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.states)}

    @cached_property
    def _operator(self):
        from .shapley import ShapleyOperator  # shapley imports this module

        return ShapleyOperator(self)

    def state_index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def triples(self):
        """All admissible (state, a, b) triples in declaration order."""
        return iter(self.table.labels)

    def payoff_bound(self) -> float:
        """The smallest ``M`` with ``|reward| <= M * omega(x)`` at every triple."""
        t = self.table
        return float(np.max(np.abs(t.reward) / t.weight[t.state]))


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
    for x, w in zip(m.states, m.table.weight.tolist()):
        for label, table in (("actions1", m.actions1), ("actions2", m.actions2)):
            acts = table.get(x)
            if not acts:
                out.append(f"{label} must list at least one action for state {x!r}")
                structural = True
            elif len(set(acts)) != len(acts):
                out.append(f"{label} for state {x!r} has duplicate labels")
                structural = True
        if not (_finite_number(w) and w >= 1.0):
            out.append(f"weight must be >= 1 and finite: state {x!r} has {w!r}")
    if structural:  # per-triple checks need well-formed action sets
        return out

    t = m.table
    for i in _suspect_rows(t).tolist():
        triple = t.labels[i]
        if t.kind[i] < 0:
            out.append(f"triple {triple!r} missing entries: discount, payoff, sojourn, transition")
            continue
        alpha, reward = float(t.alpha[i]), float(t.reward[i])
        if not _positive_number(alpha):
            out.append(f"discount must be positive and finite: triple {triple!r} has {alpha!r}")
        if not _finite_number(reward):
            out.append(f"payoff must be a finite real number: triple {triple!r} has {reward!r}")
        out.extend(t.law(i).violations(alpha, triple))
        row = t.prob[t.indptr[i] : t.indptr[i + 1]].tolist()
        try:
            total = math.fsum(row)
        except (OverflowError, ValueError):  # raised for inf - inf and on overflow
            total = math.nan
        if not math.isfinite(total):
            out.append(f"transition probabilities must be finite: triple {triple!r}")
            continue
        if row and min(row) < 0.0:
            out.append(f"transition probabilities must be nonnegative: triple {triple!r}")
        if abs(total - 1.0) > TRANSITION_SUM_TOL:
            out.append(f"transition row must sum to 1 (got {total!r}): triple {triple!r}")
    return out


def _suspect_rows(t: TripleTable) -> np.ndarray:
    """The rows that may break a per-triple invariant, in declaration order.

    A row not returned is valid: its law is analytic with a positive finite
    parameter, its rate is positive and finite, its reward finite, its
    probabilities nonnegative, and its plain sum ``s`` over ``nnz``
    nonzeros passes ``|s - 1| + (nnz + 2) * 2**-53 * s <= TRANSITION_SUM_TOL``.
    That term bounds the rounding of ``s`` (at most ``(nnz - 1) * 2**-53 *
    s`` to first order) plus that of the exact sum ``math.fsum`` returns,
    so the row's ``fsum`` passes the real test too.  NaN fails every
    comparison, so a row holding one is returned.  Every direct-weight row
    is returned, for its checks involve the rate.
    """
    nnz = np.diff(t.indptr)
    of = np.repeat(np.arange(nnz.size), nnz)  # the row of each nonzero
    total = np.bincount(of, weights=t.prob, minlength=nnz.size)
    fine = (t.kind >= 0) & (t.kind < len(ANALYTIC_LAWS))
    fine &= (t.alpha > 0.0) & (t.alpha < math.inf) & np.isfinite(t.reward)
    fine &= (t.param > 0.0) & (t.param < math.inf)
    fine &= np.abs(total - 1.0) + (nnz + 2) * 2.0**-53 * total <= TRANSITION_SUM_TOL
    fine[of[t.prob < 0.0]] = False
    return np.flatnonzero(~fine)


def _parse_sojourn(obj, triple: Triple) -> tuple[int, float, float]:
    """The law's kind code, its first parameter and, for direct weights, ``lam``."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"sojourn must be an object: triple {triple!r}")
    kind = obj.get("kind")
    code = _KINDS.get(kind) if isinstance(kind, str) else None
    if code is None:
        raise ModelFormatError(f"sojourn kind must be one of {sorted(_KINDS)}: triple {triple!r}")
    params = LAWS[code].__match_args__  # the field names, in order
    values = [obj.get(p) for p in params]
    if len(obj) != len(params) + 1 or not all(type(v) is float for v in values):
        for p in params:
            if p not in obj:
                raise ModelFormatError(f"sojourn {kind!r} needs parameter {p!r}: triple {triple!r}")
            if type(obj[p]) is not float:
                raise ModelFormatError(
                    f"sojourn parameter {p!r} must be a number: triple {triple!r}"
                )
        extra = sorted(set(obj) - {"kind", *params})
        raise ModelFormatError(
            f"sojourn {kind!r} has unknown parameters {extra}: triple {triple!r}"
        )
    return code, values[0], values[1] if len(values) > 1 else math.nan


def _parse_actions(doc, key: str, states: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    table = doc.get(key)
    if not isinstance(table, dict):
        raise ModelFormatError(f"{key!r} must be an object mapping state to action list")
    out = {}
    for x in states:
        if x not in table:
            raise ModelFormatError(f"{key!r} missing state {x!r}")
        acts = table[x]
        if not (isinstance(acts, list) and all(isinstance(a, str) for a in acts)):
            raise ModelFormatError(f"{key!r} for state {x!r} must be a list of strings")
        out[x] = tuple(acts)
    unknown = set(table) - set(states)
    if unknown:
        raise ModelFormatError(f"{key!r} lists unknown states {sorted(unknown)}")
    return out


def _bad_label(entry: dict, index, actions1, actions2) -> str:
    """Why an entry's (state, a, b) labels name no row of the table."""
    for k in ("state", "a", "b"):
        if not isinstance(entry.get(k), str):
            return f"triple entry needs string field {k!r}"
    t = (entry["state"], entry["a"], entry["b"])
    if t[0] not in index:
        return f"triple {t!r} names unknown state"
    if t[1] not in actions1[t[0]]:
        return f"triple {t!r} names unknown action for player 1"
    return f"triple {t!r} names unknown action for player 2"


def _bad_transition(trans: dict, index, t: Triple) -> str:
    """Why the first bad entry of ``trans``, which has one, is not a known state's number."""
    for y, p in trans.items():
        if y not in index:
            return f"transition for triple {t!r} names unknown state {y!r}"
        if type(p) is not float:
            return f"transition probability for triple {t!r} -> {y!r} must be a number"


def load_model(text: str) -> GameModel:
    """Parse and validate a serialized model document.

    Raises :class:`ModelFormatError` for malformed documents and
    :class:`ModelValidationError` (carrying the first violation) for
    well-formed documents that break an invariant.
    """
    try:
        # an integer too large for a float parses as an infinity, which
        # validation rejects naming its triple or state; every JSON number
        # is a float, so ``type(v) is float`` tells a number apart
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")

    raw_states = doc.get("states")
    if not (
        isinstance(raw_states, list) and raw_states and all(isinstance(s, str) for s in raw_states)
    ):
        raise ModelFormatError("'states' must be a nonempty array of strings")
    states: tuple[str, ...] = tuple(raw_states)
    index = {x: i for i, x in enumerate(states)}
    actions1 = _parse_actions(doc, "actions1", states)
    actions2 = _parse_actions(doc, "actions2", states)

    table = TripleTable(states, actions1, actions2)
    if "weight" in doc:
        given = doc["weight"]
        if not isinstance(given, dict):
            raise ModelFormatError("'weight' must be an object mapping state to number")
        for x, w in given.items():
            if x not in index:
                raise ModelFormatError(f"'weight' lists unknown state {x!r}")
            if type(w) is not float:
                raise ModelFormatError(f"weight for state {x!r} must be a number")
            table.weight[index[x]] = w

    raw_triples = doc.get("triples")
    if not isinstance(raw_triples, list):
        raise ModelFormatError("'triples' must be an array")
    row_of = table.where.get  # documents may list triples in any order
    seen = bytearray(len(table.labels))
    rows, alpha, reward, kind, param, lam = [], [], [], [], [], []
    nnz, succ, prob = [], [], []  # per entry, then per transition entry, in document order
    for entry in raw_triples:
        if not isinstance(entry, dict):
            raise ModelFormatError("each triple entry must be an object")
        t = (entry.get("state"), entry.get("a"), entry.get("b"))
        i = row_of(t) if type(t[0]) is type(t[1]) is type(t[2]) is str else None
        if i is None:
            raise ModelFormatError(_bad_label(entry, index, actions1, actions2))
        if seen[i]:
            raise ModelFormatError(f"duplicate triple {t!r}")
        seen[i] = 1
        a, r = entry.get("alpha"), entry.get("reward")
        if type(a) is not float:
            raise ModelFormatError(f"triple {t!r} needs numeric field 'alpha'")
        if type(r) is not float:
            raise ModelFormatError(f"triple {t!r} needs numeric field 'reward'")
        code, p, direct_lam = _parse_sojourn(entry.get("sojourn"), t)
        trans = entry.get("transition")
        if not isinstance(trans, dict):
            raise ModelFormatError(f"triple {t!r} needs a 'transition' object")
        if not (trans.keys() <= index.keys() and all(type(q) is float for q in trans.values())):
            raise ModelFormatError(_bad_transition(trans, index, t))
        succ.extend(map(index.__getitem__, trans))
        prob.extend(trans.values())
        nnz.append(len(trans))
        rows.append(i)
        alpha.append(a)
        reward.append(r)
        kind.append(code)
        param.append(p)
        lam.append(direct_lam)
    at = np.array(rows, dtype=np.intp)
    table.alpha[at], table.reward[at], table.param[at], table.lam[at] = alpha, reward, param, lam
    table.kind[at] = kind
    row = np.repeat(at, nnz)
    succ, prob = np.array(succ, dtype=np.intp), np.array(prob, dtype=float)
    nonzero = prob != 0
    row, succ, prob = row[nonzero], succ[nonzero], prob[nonzero]
    # by triple, then by successor state (a row names each successor once)
    order = np.argsort(row * len(states) + succ)
    table.indptr[1:] = np.cumsum(np.bincount(row, minlength=len(table.labels)))
    table.succ, table.prob = succ[order], prob[order]

    model = GameModel(states, actions1, actions2, table)
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations[0])
    # only a valid law and rate give a finite continuation factor; direct weights carry theirs
    for code, law in enumerate(ANALYTIC_LAWS):
        at = np.flatnonzero(table.kind == code)
        pairs = zip(table.param[at].tolist(), table.alpha[at].tolist())
        table.lam[at] = [law.continuation_factor(p, a) for p, a in pairs]
    table.d = (1.0 - table.lam) / table.alpha
    return model


def serialize(m: GameModel) -> str:
    """Serialize a model to its JSON document form.

    The output preserves state and action declaration order and omits zero
    transition probabilities; ``load_model(serialize(m))`` reconstructs an
    equal model.
    """
    t = m.table
    alpha, reward = t.alpha.tolist(), t.reward.tolist()
    prob, ptr = t.prob.tolist(), t.indptr.tolist()
    succ = [m.states[y] for y in t.succ.tolist()]
    triples = [
        {
            "state": x,
            "a": a,
            "b": b,
            "alpha": alpha[i],
            "reward": reward[i],
            "sojourn": t.law(i).to_obj(),
            "transition": dict(zip(succ[ptr[i] : ptr[i + 1]], prob[ptr[i] : ptr[i + 1]])),
        }
        for i, (x, a, b) in enumerate(t.labels)
    ]
    doc = {
        "states": list(m.states),
        "actions1": {x: list(m.actions1[x]) for x in m.states},
        "actions2": {x: list(m.actions2[x]) for x in m.states},
        "weight": dict(zip(m.states, t.weight.tolist())),
        "triples": triples,
    }
    return json.dumps(doc, indent=2)
