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
checks, closed-form continuation factor, cdf, holding-time draw and
whether its parameter bounds its support.

The loader screens every triple entry at once: it reads each field as one
column across the entries, checks the whole column, and converts the
columns to arrays once, into the model's :class:`TripleTable`, with each
transition kept as its nonzeros (see :func:`_fill`).  Only when the screen
fails does it walk the entries in document order with the per-entry
checks, which word the messages, up to the first malformed entry (see
:func:`_first_fault`).  Validation screens every triple at once in numpy
and runs the per-triple checks, which word the messages, only on the
triples the screen cannot clear (see :func:`_suspect_rows`).  Every other
layer reads the model through that table; no structure with one entry per
pair of states is built.
"""

import gc
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
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
    """One JSON sojourn kind: serializer, checks, closed forms, holding-time draw.

    A law with a ``cdf`` (one of :data:`ANALYTIC_LAWS`) sets ``bounded``:
    True when its parameter ends the support, so ``H(theta)`` falls as it
    grows, False for a rate.  Its survival function ``1 - H(theta)`` must be
    log-concave in ``theta``, as ``verify.find_regularity_params`` assumes.
    """

    kind: ClassVar[str]
    label: ClassVar[str]  # the parameter as validation messages name it
    bounded: ClassVar[bool]  # left unset on a law without a cdf

    @property
    def param(self) -> float:  # the first field, the one TripleTable stores
        return next(iter(vars(self).values()))

    def to_obj(self) -> dict:
        return {"kind": self.kind, **vars(self)}

    def continuation(self, alpha: float) -> float:
        return self.continuation_factor(self.param, alpha)

    def violations(self, alpha, triple: Triple) -> list[str]:
        if 0.0 < self.param < math.inf:  # False on NaN
            return []
        return [f"{self.kind} {self.label} must be positive and finite: triple {triple!r}"]


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential holding time with the given rate (events per unit time)."""

    rate: float
    kind: ClassVar[str] = "exponential"
    label: ClassVar[str] = "rate"
    bounded: ClassVar[bool] = False

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
    bounded: ClassVar[bool] = True

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
    bounded: ClassVar[bool] = True

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
        if not 0.0 < self.lam < 1.0:
            out.append(f"direct-weight lam must lie in (0, 1): triple {triple!r}")
        if not 0.0 <= self.d < math.inf:
            out.append(f"direct-weight d must be finite and nonnegative: triple {triple!r}")
        if not out and 0.0 < alpha < math.inf:
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
    only, in state order) with probabilities ``prob`` at the same positions;
    ``row_of[k]`` is the row that owns nonzero ``k``.  ``index`` maps each
    state to its position.  ``weight`` is the state weight ``omega``, one
    entry per state, 1.0 where the document gives none.  A pair's mixed
    actions at ``x`` are slots ``f_ptr[x]:f_ptr[x + 1]`` and
    ``g_ptr[x]:g_ptr[x + 1]`` of two flat arrays.
    """

    def __init__(self, states, actions1, actions2):
        """The rows of every admissible triple, all of them still empty."""
        self.labels = tuple((x, a, b) for x in states for a in actions1[x] for b in actions2[x])
        self.where = {t: i for i, t in enumerate(self.labels)}
        self.index = {x: i for i, x in enumerate(states)}
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
        self.succ = self.row_of = np.zeros(0, dtype=np.intp)
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


@dataclass(frozen=True)
class GameModel:
    """Immutable finite zero-sum semi-Markov game.

    Per-triple data and the state weight ``omega`` live only in ``table``.
    Instances are not mutated after validation and are safe to share across
    threads; the value-update operator and the sampling table of
    :mod:`smgsolve.simulate` are cached on first use and take no part in
    ``==``.
    """

    states: tuple[str, ...]
    actions1: dict[str, tuple[str, ...]]
    actions2: dict[str, tuple[str, ...]]
    table: TripleTable

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def _operator(self):
        from .shapley import ShapleyOperator  # shapley imports this module

        return ShapleyOperator(self)

    @cached_property
    def _sampling(self):
        from .simulate import _SamplingTable  # simulate imports this module

        return _SamplingTable(self)

    def state_index(self, state: str) -> int:
        try:
            return self.table.index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def triples(self):
        """All admissible (state, a, b) triples in declaration order."""
        return iter(self.table.labels)

    def payoff_bound(self) -> float:
        """The smallest ``M`` with ``|reward| <= M * omega(x)`` at every triple."""
        t = self.table
        return float(np.max(np.abs(t.reward) / t.weight[t.state]))


def validate_model(m: GameModel) -> list[str]:
    """Collect every invariant violation; an empty list means the model is valid.

    Violations are returned as human-readable strings carrying the offending
    triple, in declaration order, so the first entry is deterministic.
    """
    out: list[str] = []
    if not m.states:
        return ["model must declare at least one state"]
    t = m.table
    structural = False
    if len(t.index) != len(m.states):
        out.append("state labels must be unique")
        structural = True
    for x, w in zip(m.states, t.weight.tolist()):
        for label, table in (("actions1", m.actions1), ("actions2", m.actions2)):
            acts = table.get(x)
            if not acts:
                out.append(f"{label} must list at least one action for state {x!r}")
                structural = True
            elif len(set(acts)) != len(acts):
                out.append(f"{label} for state {x!r} has duplicate labels")
                structural = True
        if not 1.0 <= w < math.inf:  # the table holds floats, and NaN fails every comparison
            out.append(f"weight must be >= 1 and finite: state {x!r} has {w!r}")
    if structural:  # per-triple checks need well-formed action sets
        return out

    for i in _suspect_rows(t).tolist():
        triple = t.labels[i]
        if t.kind[i] < 0:
            out.append(f"triple {triple!r} missing entries: discount, payoff, sojourn, transition")
            continue
        alpha, reward = float(t.alpha[i]), float(t.reward[i])
        if not 0.0 < alpha < math.inf:
            out.append(f"discount must be positive and finite: triple {triple!r} has {alpha!r}")
        if not math.isfinite(reward):
            out.append(f"payoff must be a finite real number: triple {triple!r} has {reward!r}")
        out.extend(t.law(i).violations(alpha, triple))
        row = t.prob[t.indptr[i] : t.indptr[i + 1]].tolist()
        if not all(map(math.isfinite, row)):
            out.append(f"transition probabilities must be finite: triple {triple!r}")
            continue
        try:
            total = math.fsum(row)
        except OverflowError:  # finite entries whose sum does not fit a float
            out.append(f"transition probabilities sum beyond the float64 range: triple {triple!r}")
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
    nonzeros passes ``|s - 1| + (nnz + 2) * 2**-53 * |s| <= TRANSITION_SUM_TOL``.
    That term bounds the rounding of ``s`` (at most ``(nnz - 1) * 2**-53 *
    s`` to first order) plus that of the exact sum ``math.fsum`` returns,
    so the row's ``fsum`` passes the real test too.  NaN fails every
    comparison, so a row holding one is returned.  Every direct-weight row
    is returned, for its checks involve the rate.
    """
    nnz = np.diff(t.indptr)
    total = np.bincount(t.row_of, weights=t.prob, minlength=nnz.size)
    fine = (t.kind >= 0) & (t.kind < len(ANALYTIC_LAWS))
    fine &= (t.alpha > 0.0) & (t.alpha < math.inf) & np.isfinite(t.reward)
    fine &= (t.param > 0.0) & (t.param < math.inf)
    fine &= np.abs(total - 1.0) + (nnz + 2) * 2.0**-53 * np.abs(total) <= TRANSITION_SUM_TOL
    fine[t.row_of[t.prob < 0.0]] = False
    return np.flatnonzero(~fine)


def _parse_actions(doc, key: str, states: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    table = doc.get(key)
    if not isinstance(table, dict):
        raise ModelFormatError(f"{key!r} must be an object mapping state to action list")
    acts = list(map(table.get, states))
    if (
        table.keys() == set(states)
        and set(map(type, acts)) <= {list}
        and set(map(type, chain.from_iterable(acts))) <= {str}
    ):
        return dict(zip(states, map(tuple, acts)))
    for x in states:  # the screen failed: find the first fault
        if x not in table:
            raise ModelFormatError(f"{key!r} missing state {x!r}")
        given = table[x]
        if not (isinstance(given, list) and all(isinstance(a, str) for a in given)):
            raise ModelFormatError(f"{key!r} for state {x!r} must be a list of strings")
    unknown = set(table) - set(states)
    raise ModelFormatError(f"{key!r} lists unknown states {sorted(unknown)}")


def _fill(table: TripleTable, entries: list) -> bool:
    """Fill ``table`` from the triple entries if every one is well formed.

    The screen reads each field as one column across all entries and checks
    the column at once.  Its checks accept exactly the entries that
    :func:`_first_fault` passes; when one fails, this returns False with
    ``table`` untouched.  A direct-weight law's ``lam`` goes to
    ``table.lam``, and so does every other law's one parameter, which
    :func:`load_model` replaces by the continuation factor once the model
    is valid.
    """
    if not set(map(type, entries)) <= {dict}:
        return False
    first = [law.__match_args__[0] for law in LAWS]
    last = [law.__match_args__[-1] for law in LAWS]
    size = [len(law.__match_args__) + 1 for law in LAWS]  # with "kind"
    try:
        # a key found in ``where`` is three strings: no other JSON value equals a string
        rows = list(map(table.where.__getitem__, map(itemgetter("state", "a", "b"), entries)))
        alpha = list(map(itemgetter("alpha"), entries))
        reward = list(map(itemgetter("reward"), entries))
        sojourn = list(map(itemgetter("sojourn"), entries))
        trans = list(map(itemgetter("transition"), entries))
        if not set(map(type, chain(sojourn, trans))) <= {dict}:
            return False
        kind = list(map(_KINDS.__getitem__, map(itemgetter("kind"), sojourn)))
        param = list(map(dict.__getitem__, sojourn, map(first.__getitem__, kind)))
        lam = list(map(dict.__getitem__, sojourn, map(last.__getitem__, kind)))
        succ = list(map(table.index.__getitem__, chain.from_iterable(trans)))
    except (KeyError, TypeError):  # a missing key, or an unhashable label or kind
        return False
    prob = list(chain.from_iterable(map(dict.values, trans)))
    if not set(map(type, chain(alpha, reward, param, lam, prob))) <= {float}:
        return False
    # each sojourn holds at least "kind" and its law's parameters, so the
    # totals agree only if no sojourn holds another key
    if sum(map(len, sojourn)) != sum(map(size.__getitem__, kind)):
        return False
    at = np.array(rows, dtype=np.intp)
    seen = np.zeros(len(table.labels), dtype=bool)
    seen[at] = True
    if np.count_nonzero(seen) < at.size:  # a triple listed twice
        return False

    table.alpha[at], table.reward[at], table.param[at], table.lam[at] = alpha, reward, param, lam
    table.kind[at] = kind
    row = np.repeat(at, list(map(len, trans)))
    succ, prob = np.array(succ, dtype=np.intp), np.array(prob, dtype=float)
    nonzero = prob != 0
    row, succ, prob = row[nonzero], succ[nonzero], prob[nonzero]
    # by triple, then by successor state (a row names each successor once)
    order = np.argsort(row * table.weight.size + succ)  # one weight per state
    table.indptr[1:] = np.cumsum(np.bincount(row, minlength=len(table.labels)))
    table.row_of, table.succ, table.prob = row[order], succ[order], prob[order]
    return True


def _first_fault(entries: list, index, actions1, actions2) -> str:
    """The message of the first malformed triple entry, in document order."""
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict):
            return "each triple entry must be an object"
        t = (entry.get("state"), entry.get("a"), entry.get("b"))
        fault = _bad_label(t, index, actions1, actions2)
        if fault is not None:
            return fault
        if t in seen:
            return f"duplicate triple {t!r}"
        seen.add(t)
        for k in ("alpha", "reward"):
            if type(entry.get(k)) is not float:
                return f"triple {t!r} needs numeric field {k!r}"
        fault = _bad_sojourn(entry.get("sojourn"), t) or _bad_transition(
            entry.get("transition"), index, t
        )
        if fault is not None:
            return fault


def _bad_label(t, index, actions1, actions2) -> str | None:
    """Why an entry's (state, a, b) labels name no row of the table, if they name none."""
    for k, label in zip(("state", "a", "b"), t):
        if not isinstance(label, str):
            return f"triple entry needs string field {k!r}"
    if t[0] not in index:
        return f"triple {t!r} names unknown state"
    if t[1] not in actions1[t[0]]:
        return f"triple {t!r} names unknown action for player 1"
    if t[2] not in actions2[t[0]]:
        return f"triple {t!r} names unknown action for player 2"


def _bad_sojourn(obj, t: Triple) -> str | None:
    """Why ``obj`` is not a sojourn law's object, if it is not one."""
    if not isinstance(obj, dict):
        return f"sojourn must be an object: triple {t!r}"
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in _KINDS):
        return f"sojourn kind must be one of {sorted(_KINDS)}: triple {t!r}"
    params = LAWS[_KINDS[kind]].__match_args__  # the field names, in order
    for p in params:
        if p not in obj:
            return f"sojourn {kind!r} needs parameter {p!r}: triple {t!r}"
        if type(obj[p]) is not float:
            return f"sojourn parameter {p!r} must be a number: triple {t!r}"
    extra = sorted(set(obj) - {"kind", *params})
    if extra:
        return f"sojourn {kind!r} has unknown parameters {extra}: triple {t!r}"


def _bad_transition(trans, index, t: Triple) -> str | None:
    """Why ``trans`` is not an object of known states' numbers, if it is not one."""
    if not isinstance(trans, dict):
        return f"triple {t!r} needs a 'transition' object"
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
    # the parsed document holds a container per JSON object and array, in no
    # cycle, all freed when the loader returns; the cyclic collector would
    # walk them over and over, so it is paused until then
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load(text)
    finally:
        if collecting:
            gc.enable()


def _load(text: str) -> GameModel:
    """:func:`load_model`, with the collector paused."""
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
    if not (isinstance(raw_states, list) and raw_states and set(map(type, raw_states)) <= {str}):
        raise ModelFormatError("'states' must be a nonempty array of strings")
    states: tuple[str, ...] = tuple(raw_states)
    actions1 = _parse_actions(doc, "actions1", states)
    actions2 = _parse_actions(doc, "actions2", states)

    table = TripleTable(states, actions1, actions2)
    if "weight" in doc:
        given = doc["weight"]
        if not isinstance(given, dict):
            raise ModelFormatError("'weight' must be an object mapping state to number")
        for x, w in given.items():
            if x not in table.index:
                raise ModelFormatError(f"'weight' lists unknown state {x!r}")
            if type(w) is not float:
                raise ModelFormatError(f"weight for state {x!r} must be a number")
            table.weight[table.index[x]] = w

    raw_triples = doc.get("triples")
    if not isinstance(raw_triples, list):
        raise ModelFormatError("'triples' must be an array")
    if not _fill(table, raw_triples):
        raise ModelFormatError(_first_fault(raw_triples, table.index, actions1, actions2))

    model = GameModel(states, actions1, actions2, table)
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations[0])
    # only a valid law and rate give a finite continuation factor; direct weights carry theirs
    for code, law in enumerate(ANALYTIC_LAWS):
        at = np.flatnonzero(table.kind == code)
        factor = map(law.continuation_factor, table.param[at].tolist(), table.alpha[at].tolist())
        table.lam[at] = list(factor)
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
