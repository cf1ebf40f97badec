"""Certification: regularity search, drift, constants, and consistency flags."""

import json
import math
import re

import numpy as np
import pytest

from smgsolve import (
    check_assumptions,
    check_drift,
    compute_gamma,
    discounted_kernel_row,
    find_regularity_params,
    load_model,
    regularity_from_bounds,
)
from smgsolve import verify
from smgsolve.cli import main
from smgsolve.model import ANALYTIC_LAWS, DirectWeights

from conftest import MIXED_LAWS_DOC, alpha_of, law_of, random_model, sparse_doc


def one_triple_model(sojourn: dict, alpha: float = 1.0, weight: dict | None = None,
                     states: list | None = None, transition: dict | None = None):
    states = states or ["s0"]
    doc = {
        "states": states,
        "actions1": {x: ["a"] for x in states},
        "actions2": {x: ["b"] for x in states},
        "triples": [
            {"state": states[0], "a": "a", "b": "b", "alpha": alpha, "reward": 1.0,
             "sojourn": sojourn, "transition": transition or {states[0]: 1.0}}
        ],
    }
    if weight:
        doc["weight"] = weight
    # close the model over remaining states with a self-loop
    for x in states[1:]:
        doc["triples"].append(
            {"state": x, "a": "a", "b": "b", "alpha": alpha, "reward": 0.0,
             "sojourn": sojourn, "transition": {x: 1.0}}
        )
    return load_model(json.dumps(doc))


def test_preset_bounds_replicate_reference_constants(investment_model):
    theta, delta, alpha0 = regularity_from_bounds(investment_model)
    assert theta == pytest.approx(math.log(10.0) / 100.0, rel=1e-15)
    assert round(theta, 3) == 0.023
    assert (delta, alpha0) == (0.1, 0.25)
    cert = check_assumptions(investment_model, regularity=(theta, delta, alpha0))
    assert cert.passed
    assert round(cert.gamma, 4) == 0.9994
    assert round(cert.eta_gamma, 4) == 0.9997
    assert cert.eta_gamma == pytest.approx((1.0 + cert.gamma) / 2.0, rel=1e-14)


@pytest.mark.parametrize(
    "regularity, witness",
    [
        ((0.0, 0.5, 0.7), r"invalid constants theta=0\.0, delta=0\.5"),
        ((0.1, 0.5, 0.71), r"alpha0 0\.71 is not a lower bound on the discount rates"),
        # rate 30 ends a sojourn within 0.1 with probability 0.95
        ((0.1, 0.5, 0.7), r"H\(theta\) = 0\.95\d* > 1 - delta at \('1', 'a11', 'b12'\)"),
        # NaN fails every comparison, so a NaN constant must not read as a passed check
        ((math.nan, 0.5, 0.7), r"invalid constants theta=nan, delta=0\.5"),
        ((0.01, 0.5, math.nan), r"alpha0 nan is not a lower bound on the discount rates"),
    ],
    ids=[
        "invalid-constants", "alpha0-above-the-smallest-rate", "horizon-too-long",
        "nan-horizon", "nan-alpha0",
    ],
)
def test_supplied_regularity_that_fails_skips_the_checks_it_feeds(
    investment_model, regularity, witness
):
    cert = check_assumptions(investment_model, regularity=regularity)
    assert not cert.passed
    assert not cert.checks["regularity"].passed
    assert re.fullmatch(witness, cert.checks["regularity"].witness)
    for name in ("drift", "coefficient_bound"):
        assert not cert.checks[name].passed
        assert cert.checks[name].witness == "skipped: no continuation bound"
    assert math.isnan(cert.gamma) and math.isnan(cert.eta_gamma)


@pytest.mark.parametrize("regularity", [None, (0.023, 0.1, 0.25)], ids=["searched", "supplied"])
def test_no_positive_discount_floor_skips_regularity_and_what_it_feeds(
    investment_model, regularity
):
    from copy import deepcopy
    from dataclasses import replace

    t = deepcopy(investment_model.table)
    t.alpha[:] = 0.0
    broken = replace(investment_model, table=t)
    cert = check_assumptions(broken, regularity=regularity)
    assert not cert.passed
    failed = [name for name, check in cert.checks.items() if not check.passed]
    assert failed == ["discount_floor", "regularity", "drift", "coefficient_bound"]
    assert cert.checks["regularity"].witness == "skipped: no positive discount floor"
    for name in ("drift", "coefficient_bound"):
        assert cert.checks[name].witness == "skipped: no continuation bound"
    assert cert.alpha0 == 0.0
    assert cert.lambda_max == float(t.lam.max()) < 1.0
    for nan in (cert.theta, cert.delta, cert.gamma, cert.eta, cert.eta_gamma):
        assert math.isnan(nan)
    with pytest.raises(ValueError, match="discount rates must be positive"):
        find_regularity_params(broken)


def test_preset_bounds_validated_against_the_model():
    m = one_triple_model({"kind": "exponential", "rate": 200.0})
    with pytest.raises(ValueError, match="exceeds bound"):
        regularity_from_bounds(m)
    m = one_triple_model({"kind": "uniform", "upper": 0.05})
    with pytest.raises(ValueError, match="below floor"):
        regularity_from_bounds(m)


@pytest.mark.parametrize("law", ANALYTIC_LAWS, ids=lambda law: law.kind)
def test_bounded_agrees_with_how_the_cdf_moves_with_the_parameter(law):
    # bounded: H(theta) does not rise as the parameter grows; a rate: it does not fall
    assert isinstance(law.bounded, bool)
    params = np.geomspace(1e-3, 1e3, 61)
    moved = False
    for theta in np.geomspace(1e-4, 1e4, 81):
        steps = np.diff([law(float(p)).cdf(float(theta)) for p in params])
        assert np.all(steps <= 0.0) if law.bounded else np.all(steps >= 0.0)
        moved |= bool(np.any(steps != 0.0))
    assert moved


def test_an_analytic_law_that_does_not_declare_bounded_fails_loudly(monkeypatch):
    # a class without a cdf or bounded in the deterministic slot is not skipped
    monkeypatch.setattr(verify, "ANALYTIC_LAWS", (*ANALYTIC_LAWS[:2], DirectWeights))
    m = load_model(json.dumps(MIXED_LAWS_DOC))
    for certify in (check_assumptions, find_regularity_params, regularity_from_bounds):
        with pytest.raises(AttributeError, match="bounded"):
            certify(m)


def test_compute_gamma_formula_and_probes():
    assert round(compute_gamma(0.023, 0.1, 0.25), 4) == 0.9994
    # tiny horizon pushes the bound to 1 regardless of delta
    assert compute_gamma(1e-12, 0.7, 0.25) == pytest.approx(1.0, abs=1e-9)
    # boundary probe delta = 1 (not certifiable, but evaluable)
    alpha0 = 0.8
    assert compute_gamma(math.log(2.0) / alpha0, 1.0, alpha0) == pytest.approx(0.5, rel=1e-14)
    for bad in ((0.0, 0.1, 0.25), (0.1, 0.0, 0.25), (0.1, 1.5, 0.25), (0.1, 0.1, 0.0),
                (math.nan, 0.5, 0.7), (0.1, 0.5, math.nan)):
        with pytest.raises(ValueError):
            compute_gamma(*bad)


def test_gamma_invariant_holds_on_certificates(investment_model):
    cert = check_assumptions(investment_model)
    expected = 1.0 - cert.delta + cert.delta * math.exp(-cert.alpha0 * cert.theta)
    assert cert.gamma == pytest.approx(expected, rel=1e-14)
    assert 0.0 < cert.gamma < 1.0
    assert cert.lambda_max <= cert.gamma
    assert cert.eta_gamma < 1.0


def test_regularity_search_single_exponential():
    m = one_triple_model({"kind": "exponential", "rate": 1.0})
    theta, delta = find_regularity_params(m)
    assert theta > 0.0 and 0.0 < delta < 1.0
    assert delta == pytest.approx(math.exp(-theta), rel=1e-12)
    gamma = compute_gamma(theta, delta, 1.0)
    assert gamma < 1.0
    # the interior optimum for this law sits at theta = ln 2 with gamma = 3/4
    assert theta == pytest.approx(math.log(2.0), abs=1e-6)
    assert gamma == pytest.approx(0.75, abs=1e-9)


def test_regularity_search_uniform_only_beats_probe_point():
    m = one_triple_model({"kind": "uniform", "upper": 2.0}, alpha=0.6)
    theta, delta = find_regularity_params(m)
    assert 0.0 < theta < 2.0 and 0.0 < delta < 1.0
    # direct evaluation at the probe theta = 1: H(1) = 0.5
    probe = 1.0 - 0.5 * (1.0 - math.exp(-0.6))
    assert compute_gamma(theta, delta, 0.6) <= probe


def test_regularity_search_deterministic_only_caps_delta():
    # H is identically 0 below the duration, so the best horizon sits just
    # under it with escape probability capped inside (0, 1)
    m = one_triple_model({"kind": "deterministic", "duration": 0.8}, alpha=1.25)
    theta, delta = find_regularity_params(m)
    assert 0.0 < theta < 0.8
    assert theta == pytest.approx(0.8, rel=1e-3)
    assert 0.0 < delta < 1.0
    gamma = compute_gamma(theta, delta, 1.25)
    lam = law_of(m, ("s0", "a", "b")).continuation(1.25)
    assert lam <= gamma < 1.0


def test_regularity_search_needs_an_analytic_law():
    m = one_triple_model({"kind": "direct", "d": 0.25, "lam": 0.75})
    with pytest.raises(ValueError, match="all direct weights"):
        find_regularity_params(m)


def one_state_doc(sojourns: list[dict], alpha: float = 0.5) -> dict:
    """One state with one row action per sojourn law, all at discount rate ``alpha``."""
    return {
        "states": ["s"],
        "actions1": {"s": [f"a{i}" for i in range(len(sojourns))]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": f"a{i}", "b": "b", "alpha": alpha, "reward": 1.0,
             "sojourn": sojourn, "transition": {"s": 1.0}}
            for i, sojourn in enumerate(sojourns)
        ],
    }


WIDELY_SPREAD = [
    [{"kind": "exponential", "rate": 1.0}, {"kind": "exponential", "rate": 2000.0}],
    [{"kind": "exponential", "rate": 1e-5}, {"kind": "exponential", "rate": 1e5}],
    [{"kind": "exponential", "rate": 1e4}, {"kind": "uniform", "upper": 10.0}],
]


@pytest.mark.parametrize(
    "sojourns", WIDELY_SPREAD, ids=["rates-1-2000", "rates-1e-5-1e5", "rate-1e4-uniform-10"]
)
def test_widely_spread_rates_certify_at_the_closed_form_horizon(tmp_path, sojourns):
    # the fastest exponential decides: 1 - gamma = exp(-r theta) (1 - exp(-alpha theta))
    # peaks at theta = log1p(alpha / r) / alpha
    doc = one_state_doc(sojourns)
    cert = check_assumptions(load_model(json.dumps(doc)))
    assert cert.passed
    rate = max(s["rate"] for s in sojourns if s["kind"] == "exponential")
    theta = math.log1p(0.5 / rate) / 0.5
    assert abs(cert.gamma - compute_gamma(theta, math.exp(-rate * theta), 0.5)) <= 1e-15
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(tmp_path / "cert.json")]) == 0


def test_a_continuation_bound_that_rounds_to_one_on_most_of_the_span_stays_below_one():
    # 1 - gamma = (1 - theta / 1e-5) (1 - exp(-1e-6 theta)) peaks at 2.5e-12 near theta = 5e-6
    m = one_triple_model({"kind": "uniform", "upper": 1e-5}, alpha=1e-6)
    cert = check_assumptions(m)
    assert cert.passed
    assert cert.gamma == pytest.approx(1.0 - 2.5e-12, abs=1e-15)


def assert_no_horizon_is_found(tmp_path, rates):
    """Exponential sojourns at ``rates`` fail ``regularity`` in the search, the certificate and ``check``."""
    doc = one_state_doc([{"kind": "exponential", "rate": rate} for rate in rates])
    message = "no horizon with positive escape probability found"
    m = load_model(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_regularity_params(m)
    cert = check_assumptions(m)
    assert not cert.passed
    assert not cert.checks["regularity"].passed
    assert cert.checks["regularity"].witness == message
    for name in ("drift", "coefficient_bound"):
        assert cert.checks[name].witness == "skipped: no continuation bound"
    path, out = tmp_path / "spread.json", tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["certificate"]["checks"]["regularity"] == {
        "passed": False, "witness": message,
    }


def test_a_search_that_finds_no_horizon_fails_the_regularity_check(tmp_path):
    # rate 1e300 ends every sojourn at once on the whole span, which starts near theta = 1e282
    assert_no_horizon_is_found(tmp_path, (1e-300, 1e300))


def test_a_subnormal_rate_fails_the_regularity_check_without_a_nan_witness(tmp_path):
    # 10 / 1e-310 overflows: the span ends at the largest float, where rate 1 ends every sojourn
    assert_no_horizon_is_found(tmp_path, (1e-310, 1.0))


def test_drift_unit_weights(investment_model):
    cert = check_assumptions(investment_model)
    drift = check_drift(investment_model, cert.gamma)
    assert drift.eta_min == pytest.approx(1.0, rel=1e-14)
    assert drift.eta == pytest.approx((1.0 + cert.gamma) / (2.0 * cert.gamma), rel=1e-14)
    assert drift.passed
    assert drift.eta * cert.gamma == pytest.approx((1.0 + cert.gamma) / 2.0, rel=1e-14)


def test_drift_weighted_ratio():
    m = one_triple_model(
        {"kind": "exponential", "rate": 2.0},
        weight={"s0": 1.0, "s1": 2.0},
        states=["s0", "s1"],
        transition={"s1": 1.0},
    )
    drift = check_drift(m, gamma=0.9)
    assert drift.eta_min == pytest.approx(2.0, rel=1e-14)  # state s0 sends all mass to weight 2
    assert not drift.passed  # 2 * 0.9 >= 1


def test_drift_single_state_unit():
    m = one_triple_model({"kind": "exponential", "rate": 1.0})
    assert check_drift(m, gamma=0.5).eta_min == pytest.approx(1.0, rel=1e-15)


def test_drift_adds_each_row_left_to_right():
    # rows of 9 to 16 nonzeros, where numpy's pairwise sum and a plain one part ways
    differs = False
    for seed in range(8):
        doc = sparse_doc(30, seed=seed, successors=9 + seed)
        rng = np.random.default_rng(seed)
        doc["weight"] = {x: float(rng.uniform(1.0, 5.0)) for x in doc["states"]}
        m = load_model(json.dumps(doc))
        w = dict(zip(m.states, m.table.weight.tolist()))
        plain, pairwise = [], []
        for triple in doc["triples"]:
            row = sorted(triple["transition"].items(), key=lambda e: m.state_index(e[0]))
            terms = [w[y] * p for y, p in row]  # in state order, as the table holds a row
            total = 0.0
            for term in terms:
                total += term
            plain.append(total / w[triple["state"]])
            pairwise.append(float(np.sum(terms)) / w[triple["state"]])
        differs |= max(plain) != max(pairwise)
        assert check_drift(m, gamma=0.5).eta_min == max(plain)
    assert differs  # the rows tell the two rules apart


def test_certificate_investment(investment_model):
    cert = check_assumptions(investment_model)
    assert cert.passed
    assert cert.alpha0 == pytest.approx(0.7, rel=1e-15)
    assert cert.lambda_max == pytest.approx(30.0 / 30.96, rel=1e-12)  # triple (1, a11, b12)
    assert cert.lambda_max == pytest.approx(0.968992, abs=5e-7)
    assert all(c.passed for c in cert.checks.values())
    assert set(cert.checks) == {
        "regularity", "discount_floor", "payoff_bound", "drift", "compactness", "coefficient_bound",
    }


EXPONENTIAL_ONLY_DOC = {
    **MIXED_LAWS_DOC,
    "weight": {"x": 1.0, "y": 1.001},
    "triples": [
        {**entry, "sojourn": {"kind": "exponential", "rate": rate}}
        for entry, rate in zip(MIXED_LAWS_DOC["triples"], (2.0, 5.0, 0.5, 1.5))
    ],
}


@pytest.mark.parametrize(
    "doc, pinned",
    [
        # the search horizon is 10 / min_rate; eta is eta_min under the weights
        (EXPONENTIAL_ONLY_DOC,
         (0.18888114246812512, 0.3889106270242917, 0.9583310041870218, 1.001, 0.8064516129032258)),
        (MIXED_LAWS_DOC,
         (0.4372737710009726, 0.4170506749094629, 0.903757537158274, 1.0532457317835189,
          0.7408182206817179)),
    ],
    ids=["exponential-only", "all-four-kinds"],
)
def test_certificate_constants_are_pinned(doc, pinned):
    cert = check_assumptions(load_model(json.dumps(doc)))
    assert cert.passed
    assert (cert.theta, cert.delta, cert.gamma, cert.eta, cert.lambda_max) == pinned


def gamma_on_a_log_grid(m, points: int = 10_001) -> np.ndarray:
    """``gamma(theta)`` from every analytic triple's law on a log grid over the search span.

    The span runs from 64 doublings below ``theta_hi`` to just under it.
    """
    laws = [law_of(m, triple) for triple in m.triples()]
    supports = [law.param for law in laws if law.kind in ("uniform", "deterministic")]
    rates = [law.param for law in laws if law.kind == "exponential"]
    top = math.log(min(supports) if supports else 10.0 / min(rates))
    theta = np.exp(np.linspace(top - 64 * math.log(2.0), top + math.log1p(-1e-12), points))
    h = np.zeros(points)
    for law in laws:
        if law.kind == "exponential":
            h = np.maximum(h, -np.expm1(-law.param * theta))
        elif law.kind == "uniform":
            h = np.maximum(h, np.minimum(theta / law.param, 1.0))
        elif law.kind == "deterministic":
            h = np.maximum(h, theta >= law.param)
    delta = 1.0 - h
    return 1.0 - delta + delta * np.exp(-float(m.table.alpha.min()) * theta)


def test_regularity_search_beats_every_point_of_a_fine_log_grid(investment_model):
    rng = np.random.default_rng(11)
    models = [investment_model] + [load_model(json.dumps(d)) for d in (MIXED_LAWS_DOC, EXPONENTIAL_ONLY_DOC)]
    models += [load_model(json.dumps(one_state_doc(sojourns))) for sojourns in WIDELY_SPREAD]
    models += [random_model(rng) for _ in range(20)]
    for m in models:
        theta, delta = find_regularity_params(m)
        gamma = compute_gamma(theta, delta, float(m.table.alpha.min()))
        assert gamma_on_a_log_grid(m).min() >= gamma - 1e-15


def test_certificate_single_state(single_state_model):
    assert check_assumptions(single_state_model).passed


def test_certificate_flags_direct_weights_above_gamma():
    lam = 0.999999
    doc = {
        "states": ["s0"],
        "actions1": {"s0": ["a1", "a2"]},
        "actions2": {"s0": ["b"]},
        "triples": [
            {"state": "s0", "a": "a1", "b": "b", "alpha": 1.0, "reward": 1.0,
             "sojourn": {"kind": "exponential", "rate": 1.0}, "transition": {"s0": 1.0}},
            {"state": "s0", "a": "a2", "b": "b", "alpha": 1.0, "reward": 1.0,
             "sojourn": {"kind": "direct", "d": 1.0 - lam, "lam": lam}, "transition": {"s0": 1.0}},
        ],
    }
    m = load_model(json.dumps(doc))
    cert = check_assumptions(m)
    # the searched continuation bound (0.75 for this exponential) sits below the
    # direct-weight factor, an inconsistency the certificate must flag
    assert cert.gamma < lam
    assert not cert.checks["coefficient_bound"].passed
    assert not cert.passed


def test_certificate_all_direct_weights_uses_coefficient_route():
    m = one_triple_model({"kind": "direct", "d": 0.25, "lam": 0.75})
    cert = check_assumptions(m)
    assert cert.passed
    assert cert.lambda_max == pytest.approx(0.75, rel=1e-15)
    assert cert.gamma == pytest.approx((1.0 + 0.75) / 2.0, rel=1e-12)
    assert cert.gamma == pytest.approx(
        1.0 - cert.delta + cert.delta * math.exp(-cert.alpha0 * cert.theta), rel=1e-12
    )


def test_lambda_below_gamma_by_enumeration_on_random_models():
    rng = np.random.default_rng(37)
    done = 0
    while done < 30:
        m = random_model(rng, kinds=("exponential", "uniform", "deterministic", "direct"),
                         unit_weight=True)
        cert = check_assumptions(m)
        if not cert.passed:
            continue
        done += 1
        for t in m.triples():
            assert law_of(m, t).continuation(alpha_of(m, t)) <= cert.gamma + 1e-12


def test_weighted_row_bound_at_every_triple():
    # with u equal to the weight vector, each weighted continuation row must
    # stay within eta*gamma times the local weight
    rng = np.random.default_rng(41)
    done = 0
    while done < 25:
        m = random_model(rng, unit_weight=bool(rng.integers(0, 2)))
        cert = check_assumptions(m)
        if not cert.passed:
            continue
        done += 1
        w = m.table.weight
        for t in m.triples():
            _, _, row = discounted_kernel_row(m, t)
            assert float(row @ w) <= cert.eta_gamma * w[m.state_index(t[0])] + 1e-12


def test_certificates_are_deterministic(investment_model):
    assert check_assumptions(investment_model) == check_assumptions(investment_model)
