"""Model parsing, validation, and round-trip serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

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
    assert m.weight["only"] == 1.0
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
    broken = replace(single_state_model, weight={"only": 0.5}, table=table)
    violations = validate_model(broken)
    assert len(violations) == 3
    assert any("weight must be >= 1" in v for v in violations)
    assert any("discount must be positive" in v for v in violations)
    assert any("sum to 1" in v for v in violations)
