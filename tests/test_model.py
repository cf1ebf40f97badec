"""Model parsing, validation, and round-trip serialization."""

import contextlib
import gc
import json
import math
import random
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smgsolve import (
    Exponential,
    ModelFormatError,
    ModelValidationError,
    Uniform,
    load_model,
    serialize,
    validate_model,
)

from conftest import (
    INVESTMENT_DOC,
    MIXED_LAWS_DOC,
    MODELS_DIR,
    SINGLE_STATE_DOC,
    alpha_of,
    law_of,
    random_model,
    reward_of,
    ring_doc,
    sparse_doc,
    transition_of,
)


def test_single_state_document_loads(single_state_model):
    m = single_state_model
    assert m.states == ("only",)
    assert m.actions1["only"] == ("stay",)
    t = ("only", "stay", "stay")
    assert alpha_of(m, t) == 0.5
    assert reward_of(m, t) == 2.0
    assert law_of(m, t) == Exponential(rate=1.5)
    assert transition_of(m, t) == (1.0,)
    assert m.table.weight.tolist() == [1.0]
    assert list(m.triples()) == [t]


def test_investment_document_loads(investment_model):
    m = investment_model
    assert m.n_states == 3
    assert len(list(m.triples())) == 12
    for x in m.states:
        assert len(m.actions1[x]) == 2
        assert len(m.actions2[x]) == 2
    assert law_of(m, ("3", "a31", "b31")) == Uniform(upper=0.34)
    assert alpha_of(m, ("1", "a11", "b12")) == 0.96
    assert transition_of(m, ("2", "a22", "b22")) == (0.3, 0.0, 0.7)


def test_bundled_model_files_match_reference_documents():
    for name, doc in (("investment.json", INVESTMENT_DOC), ("single_state.json", SINGLE_STATE_DOC)):
        bundled = load_model((MODELS_DIR / name).read_text())
        assert bundled == load_model(json.dumps(doc))


def test_validate_investment_is_clean(investment_model):
    assert validate_model(investment_model) == []


def test_transition_row_sum_violation_names_the_triple():
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["triples"][0]["transition"] = {"only": 0.9}
    with pytest.raises(ModelValidationError, match="sum to 1") as err:
        load_model(json.dumps(doc))
    assert "only" in str(err.value)


def test_zero_discount_violation():
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["triples"][0]["alpha"] = 0.0
    with pytest.raises(ModelValidationError, match="discount must be positive"):
        load_model(json.dumps(doc))


def test_weight_below_one_violation():
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["weight"]["2"] = 0.5
    with pytest.raises(ModelValidationError, match="weight must be >= 1"):
        load_model(json.dumps(doc))


def test_direct_weights_must_match_discount_rate():
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["triples"][0]["sojourn"] = {"kind": "direct", "d": 0.9, "lam": 0.75}
    with pytest.raises(ModelValidationError, match="inconsistent with discount rate"):
        load_model(json.dumps(doc))
    # the consistent d for alpha=0.5, lam=0.75:
    doc["triples"][0]["sojourn"] = {"kind": "direct", "d": 0.5, "lam": 0.75}
    m = load_model(json.dumps(doc))
    assert validate_model(m) == []


def test_missing_triple_is_a_violation():
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    del doc["triples"][3]
    with pytest.raises(ModelValidationError, match="missing entries"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(states="nope"), "'states'"),
        (lambda d: d["triples"][0].pop("alpha"), "numeric field 'alpha'"),
        (lambda d: d["triples"][0]["sojourn"].update(kind="weibull"), "sojourn kind"),
        (lambda d: d["triples"][0]["sojourn"].update(kind=["exponential"]), "kind must be one"),
        (lambda d: d["triples"][0]["sojourn"].update(kind={}), "kind must be one of"),
        (lambda d: d["triples"][0]["transition"].update({"ghost": 0.1}), "unknown state"),
        (lambda d: d["triples"].append(dict(d["triples"][0])), "duplicate triple"),
    ],
)
def test_malformed_documents_raise_format_errors(mutate, message):
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    mutate(doc)
    with pytest.raises(ModelFormatError, match=message):
        load_model(json.dumps(doc))


def test_not_json_raises_format_error():
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model("{'states':}")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", [json.dumps(INVESTMENT_DOC), "{'states':}"])
def test_the_collector_is_paused_for_the_parse_and_left_as_it_was(enabled, text, monkeypatch):
    import smgsolve.model as model

    during = []
    loads = model.json.loads

    def watched(*args, **kwargs):
        during.append(gc.isenabled())
        return loads(*args, **kwargs)

    monkeypatch.setattr(model.json, "loads", watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(ModelFormatError):
            load_model(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_duplicate_state_labels_rejected():
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["states"] = ["only", "only"]
    with pytest.raises(ModelValidationError, match="state labels must be unique"):
        load_model(json.dumps(doc))


def test_round_trip_preserves_everything(investment_model):
    mixed = load_model(json.dumps(MIXED_LAWS_DOC))  # one triple of each sojourn kind
    for m in (investment_model, mixed):
        again = load_model(serialize(m))
        assert again == m
        assert again.states == m.states
        assert again.actions1 == m.actions1
        assert [law_of(again, t) for t in again.triples()] == [law_of(m, t) for t in m.triples()]


def test_weights_load_into_one_array_that_equality_and_serialization_read(investment_model):
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["weight"] = {"2": 3.0}  # states "1" and "3" take the default
    m = load_model(json.dumps(doc))
    assert m.table.weight.tolist() == [1.0, 3.0, 1.0]
    assert m != investment_model  # the models differ in their weights only
    assert json.loads(serialize(m))["weight"] == {"1": 1.0, "2": 3.0, "3": 1.0}
    assert load_model(serialize(m)) == m


def test_round_trip_random_models():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        m = random_model(rng, kinds=("exponential", "uniform", "deterministic", "direct"),
                         unit_weight=bool(rng.integers(0, 2)))
        assert load_model(serialize(m)) == m


def test_action_order_is_preserved_by_serialization():
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["actions1"]["1"] = ["a12", "a11"]  # reversed on purpose
    m = load_model(json.dumps(doc))
    assert load_model(serialize(m)).actions1["1"] == ("a12", "a11")


def test_unknown_state_lookup_raises(single_state_model):
    with pytest.raises(KeyError):
        single_state_model.state_index("elsewhere")


def test_validate_collects_violations_without_raising(single_state_model):
    from copy import deepcopy
    from dataclasses import replace

    table = deepcopy(single_state_model.table)
    table.alpha[0] = 0.0  # the one triple ("only", "stay", "stay")
    table.prob[0] = 0.9
    table.weight[0] = 0.5
    broken = replace(single_state_model, table=table)
    violations = validate_model(broken)
    assert len(violations) == 3
    assert any("weight must be >= 1" in v for v in violations)
    assert any("discount must be positive" in v for v in violations)
    assert any("sum to 1" in v for v in violations)


def _mutated(base, mutate):
    doc = json.loads(json.dumps(base))
    mutate(doc)
    return json.dumps(doc)


def _reverse_triples(doc):
    doc["triples"].reverse()


def _zeros_listed_out_of_order(doc):
    """Each transition lists every state, its own with probability 0, last state first."""
    for e in doc["triples"]:
        e["transition"] = {y: e["transition"].get(y, 0.0) for y in reversed(doc["states"])}


ONLY = "('only', 'stay', 'stay')"
FIRST = "('1', 'a11', 'b11')"

# (base document, mutation, exception class, the exact message), one case per
# message of the loader, then one per message of validation
PINNED_MESSAGES = {
    "not-an-object": (
        SINGLE_STATE_DOC, None, ModelFormatError, "model document must be a JSON object"),
    "states-not-array": (
        SINGLE_STATE_DOC, lambda d: d.update(states="nope"), ModelFormatError,
        "'states' must be a nonempty array of strings"),
    "states-empty": (
        SINGLE_STATE_DOC, lambda d: d.update(states=[]), ModelFormatError,
        "'states' must be a nonempty array of strings"),
    "actions-not-object": (
        SINGLE_STATE_DOC, lambda d: d.update(actions1=["stay"]), ModelFormatError,
        "'actions1' must be an object mapping state to action list"),
    "actions-missing-state": (
        SINGLE_STATE_DOC, lambda d: d.update(actions2={}), ModelFormatError,
        "'actions2' missing state 'only'"),
    "actions-not-strings": (
        SINGLE_STATE_DOC, lambda d: d["actions2"].update(only="stay"), ModelFormatError,
        "'actions2' for state 'only' must be a list of strings"),
    "actions-unknown-state": (
        SINGLE_STATE_DOC, lambda d: d["actions1"].update(zz=[], ghost=["a"]), ModelFormatError,
        "'actions1' lists unknown states ['ghost', 'zz']"),
    "weight-not-object": (
        SINGLE_STATE_DOC, lambda d: d.update(weight=[1.0]), ModelFormatError,
        "'weight' must be an object mapping state to number"),
    "weight-unknown-state": (
        SINGLE_STATE_DOC, lambda d: d.update(weight={"ghost": "x", "only": 1.0}),
        ModelFormatError, "'weight' lists unknown state 'ghost'"),
    "weight-not-number": (
        SINGLE_STATE_DOC, lambda d: d.update(weight={"only": True}), ModelFormatError,
        "weight for state 'only' must be a number"),
    "triples-not-array": (
        SINGLE_STATE_DOC, lambda d: d.update(triples={}), ModelFormatError,
        "'triples' must be an array"),
    "entry-not-object": (
        INVESTMENT_DOC, lambda d: d["triples"].insert(3, ["1", "a11", "b11"]), ModelFormatError,
        "each triple entry must be an object"),
    "entry-label-not-string": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(a=1, state=None), ModelFormatError,
        "triple entry needs string field 'state'"),
    "entry-label-missing": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].pop("b"), ModelFormatError,
        "triple entry needs string field 'b'"),
    "unknown-state": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(state="ghost", a="x"),
        ModelFormatError, "triple ('ghost', 'x', 'stay') names unknown state"),
    "unknown-action-1": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(a="go", b="go"), ModelFormatError,
        "triple ('only', 'go', 'go') names unknown action for player 1"),
    "unknown-action-2": (
        INVESTMENT_DOC, lambda d: d["triples"][5].update(b="b11"), ModelFormatError,
        "triple ('2', 'a21', 'b11') names unknown action for player 2"),
    "duplicate": (
        INVESTMENT_DOC, lambda d: d["triples"].append(dict(d["triples"][6], alpha="x")),
        ModelFormatError, "duplicate triple ('2', 'a22', 'b21')"),
    "alpha-missing": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].pop("alpha"), ModelFormatError,
        f"triple {ONLY} needs numeric field 'alpha'"),
    "alpha-boolean": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(alpha=True, reward=None),
        ModelFormatError, f"triple {ONLY} needs numeric field 'alpha'"),
    "reward-not-number": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(reward="2", sojourn=None),
        ModelFormatError, f"triple {ONLY} needs numeric field 'reward'"),
    "sojourn-not-object": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(sojourn="exponential", transition=1),
        ModelFormatError, f"sojourn must be an object: triple {ONLY}"),
    "sojourn-unknown-kind": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(kind="weibull"),
        ModelFormatError,
        f"sojourn kind must be one of ['deterministic', 'direct', 'exponential', 'uniform']: "
        f"triple {ONLY}"),
    "sojourn-kind-missing": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].pop("kind"), ModelFormatError,
        f"sojourn kind must be one of ['deterministic', 'direct', 'exponential', 'uniform']: "
        f"triple {ONLY}"),
    "sojourn-kind-unhashable": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(kind=["exponential"]),
        ModelFormatError,
        f"sojourn kind must be one of ['deterministic', 'direct', 'exponential', 'uniform']: "
        f"triple {ONLY}"),
    "sojourn-parameter-missing": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(sojourn={"kind": "direct", "d": 1}),
        ModelFormatError, f"sojourn 'direct' needs parameter 'lam': triple {ONLY}"),
    "sojourn-parameter-not-number": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(rate=None, shape=1),
        ModelFormatError, f"sojourn parameter 'rate' must be a number: triple {ONLY}"),
    "sojourn-unknown-parameters": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(shape=1, alpha=2),
        ModelFormatError,
        f"sojourn 'exponential' has unknown parameters ['alpha', 'shape']: triple {ONLY}"),
    "transition-not-object": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(transition=[1.0]), ModelFormatError,
        f"triple {ONLY} needs a 'transition' object"),
    "transition-missing": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].pop("transition"), ModelFormatError,
        f"triple {ONLY} needs a 'transition' object"),
    "transition-unknown-state": (
        INVESTMENT_DOC, lambda d: d["triples"][0]["transition"].update({"ghost": 0.0, "x": "y"}),
        ModelFormatError, f"transition for triple {FIRST} names unknown state 'ghost'"),
    "transition-not-number": (
        INVESTMENT_DOC,
        lambda d: d["triples"][0].update(transition={"2": 0.5, "3": None, "ghost": 0.5}),
        ModelFormatError, f"transition probability for triple {FIRST} -> '3' must be a number"),
    "transition-boolean": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(transition={"only": True}),
        ModelFormatError, f"transition probability for triple {ONLY} -> 'only' must be a number"),
    "transition-string": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(transition={"only": "1"}),
        ModelFormatError, f"transition probability for triple {ONLY} -> 'only' must be a number"),
    "first-bad-entry-in-document-order": (
        INVESTMENT_DOC,
        lambda d: (d["triples"][4]["sojourn"].update(kind="gamma"), d["triples"][2].pop("reward")),
        ModelFormatError, "triple ('1', 'a12', 'b11') needs numeric field 'reward'"),
    # validation, on well-formed documents
    "states-not-unique": (
        SINGLE_STATE_DOC, lambda d: d.update(states=["only", "only"]), ModelValidationError,
        "state labels must be unique"),
    "actions-empty": (
        SINGLE_STATE_DOC, lambda d: (d["actions1"].update(only=[]), d.update(triples=[])),
        ModelValidationError, "actions1 must list at least one action for state 'only'"),
    "actions-duplicate": (
        SINGLE_STATE_DOC, lambda d: d["actions2"].update(only=["stay", "stay"]),
        ModelValidationError, "actions2 for state 'only' has duplicate labels"),
    "format-error-before-validation": (
        INVESTMENT_DOC, lambda d: (d["weight"].update({"3": 0.5}), d["triples"][0].pop("alpha")),
        ModelFormatError, f"triple {FIRST} needs numeric field 'alpha'"),
    "weight-not-finite": (
        INVESTMENT_DOC, lambda d: (d["weight"].update({"2": math.inf, "3": 0.5})),
        ModelValidationError, "weight must be >= 1 and finite: state '2' has inf"),
    "weight-before-triples": (
        INVESTMENT_DOC, lambda d: (d["weight"].update({"3": 0.5}), d["triples"][0].update(alpha=0)),
        ModelValidationError, "weight must be >= 1 and finite: state '3' has 0.5"),
    "triple-missing": (
        INVESTMENT_DOC, lambda d: (d["triples"].pop(7), d["triples"][9].update(alpha=-1)),
        ModelValidationError,
        "triple ('2', 'a22', 'b22') missing entries: discount, payoff, sojourn, transition"),
    # the missing row owns no nonzero, so every later nonzero's row shifts
    "triple-missing-among-explicit-zeros": (
        INVESTMENT_DOC, lambda d: (_zeros_listed_out_of_order(d), d["triples"].pop(7)),
        ModelValidationError,
        "triple ('2', 'a22', 'b22') missing entries: discount, payoff, sojourn, transition"),
    "alpha-zero": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(alpha=0), ModelValidationError,
        f"discount must be positive and finite: triple {ONLY} has 0.0"),
    "alpha-nan": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(alpha=math.nan, reward=math.inf),
        ModelValidationError, f"discount must be positive and finite: triple {ONLY} has nan"),
    "alpha-huge-int": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(alpha=10**400), ModelValidationError,
        f"discount must be positive and finite: triple {ONLY} has inf"),
    "reward-not-finite": (
        INVESTMENT_DOC, lambda d: d["triples"][11].update(reward=-math.inf), ModelValidationError,
        "payoff must be a finite real number: triple ('3', 'a32', 'b32') has -inf"),
    "rate-not-positive": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(rate=0), ModelValidationError,
        f"exponential rate must be positive and finite: triple {ONLY}"),
    "upper-not-finite": (
        INVESTMENT_DOC, lambda d: d["triples"][8]["sojourn"].update(upper=math.inf),
        ModelValidationError,
        "uniform upper bound must be positive and finite: triple ('3', 'a31', 'b31')"),
    "duration-negative": (
        MIXED_LAWS_DOC, lambda d: d["triples"][2]["sojourn"].update(duration=-0.5),
        ModelValidationError,
        "deterministic duration must be positive and finite: triple ('y', 'a1', 'b1')"),
    "direct-lam-outside": (
        MIXED_LAWS_DOC, lambda d: d["triples"][3]["sojourn"].update(lam=1), ModelValidationError,
        "direct-weight lam must lie in (0, 1): triple ('y', 'a1', 'b2')"),
    "direct-d-negative": (
        MIXED_LAWS_DOC, lambda d: d["triples"][3]["sojourn"].update(d=-1), ModelValidationError,
        "direct-weight d must be finite and nonnegative: triple ('y', 'a1', 'b2')"),
    "direct-inconsistent": (
        MIXED_LAWS_DOC, lambda d: d["triples"][3]["sojourn"].update(d=0.6), ModelValidationError,
        "direct weights inconsistent with discount rate (d=0.6, expected 0.5333333333333333): "
        "triple ('y', 'a1', 'b2')"),
    "transition-nan": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["transition"].update(only=math.nan),
        ModelValidationError, f"transition probabilities must be finite: triple {ONLY}"),
    "transition-inf-minus-inf": (
        INVESTMENT_DOC,
        lambda d: d["triples"][0].update(transition={"2": math.inf, "3": -math.inf}),
        ModelValidationError, f"transition probabilities must be finite: triple {FIRST}"),
    "transition-overflow": (
        INVESTMENT_DOC, lambda d: d["triples"][0].update(transition={"2": 1e308, "3": 1e308}),
        ModelValidationError, f"transition probabilities must be finite: triple {FIRST}"),
    "transition-negative": (
        INVESTMENT_DOC, lambda d: d["triples"][0].update(transition={"1": 0, "2": -0.5, "3": 1.5}),
        ModelValidationError, f"transition probabilities must be nonnegative: triple {FIRST}"),
    "transition-negative-among-explicit-zeros": (
        INVESTMENT_DOC,
        lambda d: (_zeros_listed_out_of_order(d),
                   d["triples"][11].update(transition={"3": 0.0, "2": 1.5, "1": -0.5})),
        ModelValidationError,
        "transition probabilities must be nonnegative: triple ('3', 'a32', 'b32')"),
    "transition-sum": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0]["transition"].update(only=0.9),
        ModelValidationError, f"transition row must sum to 1 (got 0.9): triple {ONLY}"),
    "transition-sum-just-outside": (
        INVESTMENT_DOC, lambda d: d["triples"][0].update(transition={"2": 0.5, "3": 0.5 + 1.5e-12}),
        ModelValidationError,
        f"transition row must sum to 1 (got 1.0000000000015001): triple {FIRST}"),
    "transition-empty": (
        SINGLE_STATE_DOC, lambda d: d["triples"][0].update(transition={}), ModelValidationError,
        f"transition row must sum to 1 (got 0.0): triple {ONLY}"),
    "transition-all-zero": (
        INVESTMENT_DOC, lambda d: d["triples"][11].update(transition={"1": 0, "3": 0.0}),
        ModelValidationError,
        "transition row must sum to 1 (got 0.0): triple ('3', 'a32', 'b32')"),
    "first-bad-triple-in-declaration-order": (
        INVESTMENT_DOC,
        lambda d: (d["triples"][1].update(alpha=-1), d["triples"][10].update(alpha=0),
                   _reverse_triples(d)),
        ModelValidationError,
        "discount must be positive and finite: triple ('1', 'a11', 'b12') has -1.0"),
}


@pytest.mark.parametrize("case", list(PINNED_MESSAGES))
def test_loader_and_validation_messages_are_pinned(case):
    base, mutate, error, message = PINNED_MESSAGES[case]
    text = "[]" if mutate is None else _mutated(base, mutate)
    with pytest.raises(error) as err:
        load_model(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_invalid_json_message_is_pinned():
    with pytest.raises(ModelFormatError) as err:
        load_model("{'states':}")
    assert str(err.value) == (
        "model document is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def test_validation_messages_without_a_document_are_pinned(investment_model):
    from dataclasses import replace

    assert validate_model(replace(investment_model, states=())) == [
        "model must declare at least one state"
    ]


def test_validation_lists_every_violation_in_declaration_order(investment_model):
    from copy import deepcopy
    from dataclasses import replace

    t = deepcopy(investment_model.table)
    t.alpha[1], t.reward[1] = -0.5, math.nan
    t.param[2] = 0.0  # an exponential rate
    t.prob[t.indptr[4]] = -0.25  # row 4 now sums to 0.29 as well
    t.prob[t.indptr[6] + 1] = math.inf
    t.prob[t.indptr[9]] += 2e-12
    t.kind[10] = -1
    t.kind[11], t.param[11], t.lam[11] = 3, 0.5, 1.5  # direct weights
    t.weight[1:] = 0.25, math.nan
    broken = replace(investment_model, table=t)
    assert validate_model(broken) == [
        "weight must be >= 1 and finite: state '2' has 0.25",
        "weight must be >= 1 and finite: state '3' has nan",
        "discount must be positive and finite: triple ('1', 'a11', 'b12') has -0.5",
        "payoff must be a finite real number: triple ('1', 'a11', 'b12') has nan",
        "exponential rate must be positive and finite: triple ('1', 'a12', 'b11')",
        "transition probabilities must be nonnegative: triple ('2', 'a21', 'b21')",
        "transition row must sum to 1 (got 0.29000000000000004): triple ('2', 'a21', 'b21')",
        "transition probabilities must be finite: triple ('2', 'a22', 'b21')",
        "transition row must sum to 1 (got 1.000000000002): triple ('3', 'a31', 'b32')",
        "triple ('3', 'a32', 'b31') missing entries: discount, payoff, sojourn, transition",
        "direct-weight lam must lie in (0, 1): triple ('3', 'a32', 'b32')",
    ]


def test_a_row_of_5000_nonzeros_summing_to_one_within_rounding_is_valid():
    n = 5000
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(n))
    states = [f"s{i}" for i in range(n)]
    triples = [
        {"state": x, "a": "a", "b": "b", "alpha": 1.0, "reward": 0.0,
         "sojourn": {"kind": "deterministic", "duration": 1.0}, "transition": {x: 1.0}}
        for x in states
    ]
    triples[0]["transition"] = dict(zip(states, p.tolist()))
    doc = {
        "states": states,
        "actions1": {x: ["a"] for x in states},
        "actions2": {x: ["b"] for x in states},
        "triples": triples,
    }
    total = math.fsum(p.tolist())
    assert total != 1.0 or sum(p.tolist()) != 1.0  # rounding is really in play
    assert abs(total - 1.0) <= 1e-12
    m = load_model(json.dumps(doc))
    assert validate_model(m) == []
    assert np.diff(m.table.indptr)[0] == n


_DROP = object()  # stands for deleting the key
# one JSON value of each kind, plus a string and an object that name nothing
_VALUES = (_DROP, None, True, 1.0, "ghost", [], ["exponential"], {}, {"kind": 1.0})


def _fault_sites(entry):
    """Each (object, key, values) of one entry where any of ``values`` is a format fault."""
    numbers = [v for v in _VALUES if type(v) is not float]
    sojourn, trans = entry["sojourn"], entry["transition"]
    sites = [(entry, k, _VALUES) for k in ("state", "a", "b", "sojourn")]
    sites += [(entry, k, numbers) for k in ("alpha", "reward")]
    sites += [(entry, "transition", [v for v in _VALUES if v != {}])]
    sites += [(sojourn, "kind", _VALUES), (sojourn, "shape", [1.0])]
    sites += [(sojourn, p, numbers) for p in sojourn if p != "kind"]
    sites += [(trans, "ghost", _VALUES[1:])]  # an unknown state, whatever its value
    sites += [(trans, y, numbers[1:]) for y in trans]  # dropping a successor is no fault
    return sites


def _put_fault(entry, site: int, value: int):
    """Put value ``value`` of fault site ``site`` of ``_fault_sites(entry)`` into ``entry``."""
    obj, key, values = _fault_sites(entry)[site]
    if values[value] is _DROP:
        del obj[key]
    else:
        obj[key] = deepcopy(values[value])


def _draw_fault(data, entry):
    sites = _fault_sites(entry)
    site = data.draw(st.integers(0, len(sites) - 1))
    _put_fault(entry, site, data.draw(st.integers(0, len(sites[site][2]) - 1)))


def _fault_message(doc, at: int) -> str:
    """The loader's message for ``doc``, checked to name entry ``at``'s triple or label field."""
    with pytest.raises(ModelFormatError) as err:  # never a TypeError, KeyError or AttributeError
        load_model(json.dumps(doc))
    assert type(err.value) is ModelFormatError
    message = str(err.value)
    t = tuple(doc["triples"][at].get(k) for k in ("state", "a", "b"))
    labels = [k for k, label in zip(("state", "a", "b"), t) if type(label) is not str]
    if labels:
        assert message == f"triple entry needs string field {labels[0]!r}"
    else:
        assert repr(t) in message
    return message


def test_every_field_fault_of_every_entry_is_a_format_error_naming_it():
    for base in (INVESTMENT_DOC, MIXED_LAWS_DOC):  # the second holds direct weights
        for at, entry in enumerate(base["triples"]):
            for site, (_, _, values) in enumerate(_fault_sites(deepcopy(entry))):
                for value in range(len(values)):
                    doc = deepcopy(base)
                    _put_fault(doc["triples"][at], site, value)
                    _fault_message(doc, at)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_of_two_faulty_entries_the_first_in_document_order_is_reported(data):
    base = data.draw(st.sampled_from([INVESTMENT_DOC, MIXED_LAWS_DOC]))
    pick = st.integers(0, len(base["triples"]) - 1)
    first, second = sorted(data.draw(st.lists(pick, min_size=2, max_size=2, unique=True)))
    doc = deepcopy(base)
    _draw_fault(data, doc["triples"][first])
    message = _fault_message(doc, first)
    _draw_fault(data, doc["triples"][second])
    assert _fault_message(doc, first) == message


def _shuffled(doc, seed):
    """``doc`` with its entries, and the keys of each entry, sojourn and transition, shuffled."""
    rng = random.Random(seed)

    def mixed(obj):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: obj[k] for k in keys}

    entries = [
        mixed({**e, "sojourn": mixed(e["sojourn"]), "transition": mixed(e["transition"])})
        for e in doc["triples"]
    ]
    rng.shuffle(entries)
    return {**doc, "triples": entries}


@pytest.mark.parametrize(
    "doc",
    [
        lambda: sparse_doc(200, successors=3),
        lambda: ring_doc(100, 0.5),
        lambda: json.loads(serialize(random_model(
            np.random.default_rng(7), max_states=6,
            kinds=("exponential", "uniform", "deterministic", "direct"), unit_weight=False))),
    ],
    ids=["sparse", "ring", "random"],
)
def test_the_table_does_not_depend_on_the_order_of_entries_or_keys(doc):
    doc = doc()
    m = load_model(json.dumps(doc))
    for seed in range(3):
        again = load_model(json.dumps(_shuffled(doc, seed)))
        assert again.table == m.table
        assert again == m


ZEROS_OUT_OF_ORDER_DOC = json.loads(_mutated(INVESTMENT_DOC, _zeros_listed_out_of_order))


@pytest.mark.parametrize(
    "models",
    [
        lambda: [load_model(json.dumps(INVESTMENT_DOC))],
        lambda: [load_model(json.dumps(SINGLE_STATE_DOC))],
        lambda: (random_model(np.random.default_rng(seed)) for seed in range(50)),
        lambda: [load_model(json.dumps(sparse_doc(2000)))],
        lambda: [load_model(json.dumps(ring_doc(500, 0.01)))],
        lambda: [load_model(json.dumps(ZEROS_OUT_OF_ORDER_DOC))],
    ],
    ids=["investment", "single-state", "random", "sparse", "ring", "zeros-out-of-order"],
)
def test_each_nonzero_records_the_row_that_owns_it(models):
    for m in models():
        t = m.table
        assert t.row_of.dtype == np.intp
        assert t.row_of.size == t.succ.size
        assert np.array_equal(t.row_of, np.repeat(np.arange(t.state.size), np.diff(t.indptr)))


def test_explicit_zeros_out_of_state_order_load_as_the_document_without_them(investment_model):
    assert 0.0 in ZEROS_OUT_OF_ORDER_DOC["triples"][0]["transition"].values()
    assert load_model(json.dumps(ZEROS_OUT_OF_ORDER_DOC)).table == investment_model.table


@pytest.mark.parametrize("doc", [INVESTMENT_DOC, SINGLE_STATE_DOC, sparse_doc(50)])
def test_the_table_indexes_the_states_in_declaration_order(doc):
    m = load_model(json.dumps(doc))
    assert list(m.table.index.items()) == [(x, i) for i, x in enumerate(m.states)]
    assert not hasattr(m, "_index")
    assert not hasattr(m._operator, "index")


def test_an_unknown_state_lookup_names_the_state(single_state_model):
    with pytest.raises(KeyError) as err:
        single_state_model.state_index("nope")
    assert err.value.args == ("unknown state 'nope'",)
