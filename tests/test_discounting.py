"""Discount coefficients against quadrature oracles and closed-form targets."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from smgsolve import (
    Deterministic,
    DirectWeights,
    Exponential,
    Uniform,
    discounted_kernel_row,
    load_model,
)
from smgsolve.model import _UNIFORM_SERIES_CUTOFF

from conftest import MIXED_LAWS_DOC, kernel_coefficients

RATES = st.floats(min_value=0.05, max_value=50.0)
ALPHAS = st.floats(min_value=0.05, max_value=5.0)
SPANS = st.floats(min_value=0.01, max_value=5.0)


def quad_continuation(law, alpha: float) -> float:
    """Numerical integral of exp(-alpha t) against the holding-time law."""
    if isinstance(law, Exponential):
        val, _ = integrate.quad(
            lambda t: math.exp(-alpha * t) * law.rate * math.exp(-law.rate * t),
            0.0, np.inf,
        )
        return val
    if isinstance(law, Uniform):
        val, _ = integrate.quad(lambda t: math.exp(-alpha * t) / law.upper, 0.0, law.upper)
        return val
    if isinstance(law, Deterministic):
        return math.exp(-alpha * law.duration)  # point mass, no quadrature needed
    raise TypeError(law)


def quad_reward_weight(law, alpha: float) -> float:
    """Numerical integral of exp(-alpha t) (1 - H(t)) dt.

    Uniform and deterministic survival vanishes beyond the support, so the
    integration range stops there (the integrand has a kink at the edge that
    would otherwise cost quad its accuracy).
    """
    upper = np.inf if isinstance(law, Exponential) else _span(law)
    val, _ = integrate.quad(lambda t: math.exp(-alpha * t) * (1.0 - law.cdf(t)), 0.0, upper)
    return val


def _span(law):
    return law.upper if isinstance(law, Uniform) else law.duration


def test_exponential_closed_form_matches_stated_values():
    lam = Exponential(rate=20.0).continuation(0.98)
    assert lam == pytest.approx(20.0 / 20.98, abs=1e-15)
    assert lam == pytest.approx(0.953289, abs=5e-7)
    assert lam == pytest.approx(quad_continuation(Exponential(20.0), 0.98), abs=1e-9)
    d, _ = kernel_coefficients(Exponential(rate=20.0), 0.98)
    assert d == pytest.approx(1.0 / 20.98, abs=1e-15)
    assert d == pytest.approx(0.047664, abs=5e-7)


def test_uniform_closed_form_matches_quadrature():
    law = Uniform(upper=0.34)
    lam = law.continuation(0.86)
    assert lam == pytest.approx(0.8670660, abs=5e-8)  # frozen from the quadrature oracle
    assert lam == pytest.approx(quad_continuation(law, 0.86), abs=1e-9)
    d, _ = kernel_coefficients(law, 0.86)
    assert d == pytest.approx(0.1545744, abs=5e-8)  # frozen from the quadrature oracle
    assert d == pytest.approx(quad_reward_weight(law, 0.86), abs=1e-9)
    # matches the alternative rendering (alpha*beta - 1 + e^{-alpha*beta}) / (alpha^2 beta)
    z = 0.86 * 0.34
    assert d == pytest.approx((z - 1.0 + math.exp(-z)) / (0.86 * z), rel=1e-12)


def test_direct_weights_pass_through():
    law = DirectWeights(d=0.5, lam=0.75)
    assert law.continuation(0.5) == 0.75
    assert kernel_coefficients(law, 0.5)[0] == pytest.approx(0.5, rel=1e-15)


def test_deterministic_long_duration_limit():
    # alpha*tau = 20 pushes lam to ~2e-9, so d -> 1/alpha
    alpha = 0.25
    d, _ = kernel_coefficients(Deterministic(duration=80.0), alpha)
    assert d == pytest.approx(1.0 / alpha, abs=1e-8)


def test_uniform_small_argument_series_branch():
    # z = alpha*upper = 1e-10 exercises the expansion; the dropped z^3/24 term
    # sits far below one ulp there
    alpha, upper = 1e-5, 1e-5
    lam = Uniform(upper=upper).continuation(alpha)
    z = alpha * upper
    assert lam == pytest.approx(1.0 - z / 2.0 + z * z / 6.0, abs=1e-16)
    assert 0.0 < lam < 1.0
    assert kernel_coefficients(Uniform(upper=upper), alpha)[0] == pytest.approx(
        (1.0 - lam) / alpha, rel=1e-12
    )


def test_loaded_continuation_factors_are_the_law_objects_own():
    doc = copy.deepcopy(MIXED_LAWS_DOC)
    # alpha * upper = 1e-10: the uniform law's series branch
    uniform = {"kind": "uniform", "upper": 1e-5}
    doc["triples"].append(dict(doc["triples"][1], a="a3", alpha=1e-5, sojourn=uniform))
    doc["actions1"]["x"].append("a3")
    table = load_model(json.dumps(doc)).table
    series = table.where["x", "a3", "b1"]
    assert table.alpha[series] * table.param[series] < _UNIFORM_SERIES_CUTOFF
    for i, alpha in enumerate(table.alpha.tolist()):
        assert table.lam[i].tobytes() == np.float64(table.law(i).continuation(alpha)).tobytes()


@given(alpha=ALPHAS, rate=RATES)
@settings(max_examples=150, deadline=None)
def test_identity_and_quadrature_exponential(alpha, rate):
    law = Exponential(rate=rate)
    d, lam = kernel_coefficients(law, alpha)
    assert abs(d - (1.0 - lam) / alpha) <= 1e-12 * max(1.0, abs(d))
    assert lam == pytest.approx(rate / (alpha + rate), rel=1e-14)
    assert 0.0 < lam < 1.0


@given(alpha=ALPHAS, upper=SPANS)
@settings(max_examples=150, deadline=None)
def test_identity_uniform(alpha, upper):
    d, lam = kernel_coefficients(Uniform(upper=upper), alpha)
    assert abs(d - (1.0 - lam) / alpha) <= 1e-12 * max(1.0, abs(d))
    assert 0.0 < lam < 1.0


@given(alpha=ALPHAS, lo=ALPHAS, span=SPANS)
@settings(max_examples=100, deadline=None)
def test_continuation_strictly_decreasing_in_alpha(alpha, lo, span):
    bigger = alpha + max(lo, 0.1)
    for law in (Exponential(rate=span * 10.0), Uniform(upper=span), Deterministic(duration=span)):
        assert law.continuation(bigger) < law.continuation(alpha)


def test_quadrature_agreement_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(60):
        alpha = rng.uniform(0.05, 5.0)
        law = [
            Exponential(rate=rng.uniform(0.05, 50.0)),
            Uniform(upper=rng.uniform(0.01, 5.0)),
            Deterministic(duration=rng.uniform(0.01, 5.0)),
        ][rng.integers(0, 3)]
        d, lam = kernel_coefficients(law, alpha)
        assert lam == pytest.approx(quad_continuation(law, alpha), abs=1e-9)
        assert d == pytest.approx(quad_reward_weight(law, alpha), abs=1e-9)


def test_kernel_row_investment_benefit_state(investment_model):
    d, lam, row = discounted_kernel_row(investment_model, ("1", "a11", "b11"))
    assert lam == pytest.approx(0.953289, abs=5e-7)
    assert d == pytest.approx((1 - lam) / 0.98, rel=1e-14)
    np.testing.assert_allclose(row, [0.0, lam * 0.5, lam * 0.5], rtol=0, atol=1e-15)
    assert row.sum() == pytest.approx(lam, abs=1e-12)


def test_kernel_row_deterministic_point_mass():
    import json
    from smgsolve import load_model
    doc = {
        "states": ["u", "v"],
        "actions1": {"u": ["a"], "v": ["a"]},
        "actions2": {"u": ["b"], "v": ["b"]},
        "triples": [
            {"state": "u", "a": "a", "b": "b", "alpha": 1.0, "reward": 0.0,
             "sojourn": {"kind": "deterministic", "duration": 2.0}, "transition": {"v": 1.0}},
            {"state": "v", "a": "a", "b": "b", "alpha": 1.0, "reward": 0.0,
             "sojourn": {"kind": "deterministic", "duration": 2.0}, "transition": {"u": 1.0}},
        ],
    }
    m = load_model(json.dumps(doc))
    d, lam, row = discounted_kernel_row(m, ("u", "a", "b"))
    assert lam == pytest.approx(math.exp(-2.0), rel=1e-15)
    np.testing.assert_allclose(row, [0.0, lam])


def test_kernel_row_single_state(single_state_model):
    d, lam, row = discounted_kernel_row(single_state_model, ("only", "stay", "stay"))
    np.testing.assert_allclose(row, [lam])
    assert lam == pytest.approx(1.5 / 2.0, rel=1e-15)
    assert d == pytest.approx(0.5, rel=1e-15)


def test_kernel_row_unknown_triple(single_state_model):
    with pytest.raises(KeyError, match="unknown triple"):
        discounted_kernel_row(single_state_model, ("only", "stay", "ghost"))
