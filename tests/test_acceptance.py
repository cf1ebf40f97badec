"""Acceptance suite: end-to-end criteria at their stated tolerances.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with ``-s`` or
on failure) and asserts the criterion at the tolerance it states.
"""

import json
import time

import numpy as np
import pytest

from smgsolve import (
    Deterministic,
    DirectWeights,
    Exponential,
    ShapleyOperator,
    Uniform,
    certify_solution,
    check_assumptions,
    estimate_value,
    evaluate_stationary_pair,
    load_model,
    omega_norm,
    solve_matrix_game,
    value_iterate,
)
from smgsolve.cli import RunConfig, run

from conftest import (
    INVESTMENT_DOC,
    INVESTMENT_VALUES,
    alpha_of,
    kernel_coefficients,
    random_model,
    reward_of,
    solve_2x2_by_equalizing,
    verify_saddle_point,
)
from test_discounting import quad_continuation, quad_reward_weight

# Reference equilibrium probabilities (state: (P1 mix, P2 mix)).  The
# reference attribution swaps the two players' mixes relative to the saddle
# point of the model's own payoff matrices (the swapped pair evaluates ~0.07
# away from the reference values; the correct pair reproduces them), so the
# exact comparison below is expected to fail and the criterion's fallback
# (no profitable one-shot deviation at tol = 2*epsilon_nash) decides.
PUBLISHED_STRATEGIES = {
    "1": ((0.60217, 0.39783), (0.55737, 0.44263)),
    "2": ((0.87111, 0.12889), (0.77887, 0.22113)),
    "3": ((1.0, 0.0), (1.0, 0.0)),
}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def investment_run(investment_model):
    start = time.perf_counter()
    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    return report, time.perf_counter() - start


def test_criterion_01_investment_value_function(investment_model, investment_run):
    report, elapsed = investment_run
    errors = np.abs(report.epsilon_value - np.array(INVESTMENT_VALUES))
    ok = bool(np.all(errors <= 5e-3) and elapsed <= 5.0)
    _line(1, ok, f"V={np.round(report.epsilon_value, 4)} max|err|={errors.max():.2e} "
                 f"time={elapsed:.2f}s")
    assert np.all(errors <= 5e-3)
    assert elapsed <= 5.0


def test_criterion_02_investment_equilibrium(investment_model, investment_run):
    report, _ = investment_run
    exact = True
    for x, (f_pub, g_pub) in PUBLISHED_STRATEGIES.items():
        exact &= bool(np.all(np.abs(report.equilibrium.f[x] - f_pub) <= 1e-3))
        exact &= bool(np.all(np.abs(report.equilibrium.g[x] - g_pub) <= 1e-3))
    if exact:
        _line(2, True, "strategies match the reference probabilities within 1e-3")
        return
    # state 3 must still be the reference pure pair under either attribution
    assert report.equilibrium.f["3"][0] == pytest.approx(1.0, abs=1e-3)
    assert report.equilibrium.g["3"][0] == pytest.approx(1.0, abs=1e-3)
    tol = 2.0 * report.epsilon_nash
    result = certify_solution(investment_model, report, tol=tol)
    _line(2, result.passed,
          "reference attribution not matched (its mixes are swapped between "
          f"players); fallback certificate worst deviation {result.worst_violation:.2e} "
          f"<= {tol:.2e}")
    assert result.passed


def test_criterion_03_iteration_count(investment_run):
    report, _ = investment_run
    applications = len(report.error_trace)
    ok = 83 <= applications <= 103
    _line(3, ok, f"stopped after {applications} operator applications (target 93 +- 10)")
    assert ok


def test_criterion_04_certificate_replication(tmp_path, investment_model):
    model_path = tmp_path / "investment.json"
    model_path.write_text(json.dumps(INVESTMENT_DOC))
    out = tmp_path / "cert.json"
    status = run(RunConfig(command="check", model=str(model_path), paper_params=True, out=str(out)))
    cert = json.loads(out.read_text())["certificate"]
    ok = (
        status == 0
        and round(cert["theta"], 3) == 0.023
        and round(cert["gamma"], 4) == 0.9994
        and round(cert["eta_gamma"], 4) == 0.9997
    )
    _line(4, ok, f"theta={cert['theta']:.6f} gamma={cert['gamma']:.6f} "
                 f"eta_gamma={cert['eta_gamma']:.6f}")
    assert ok


def test_criterion_05_contraction_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    done = 0
    while done < 200:
        m = random_model(rng, max_states=5, max_actions=4, unit_weight=bool(rng.integers(0, 2)))
        cert = check_assumptions(m)
        if not cert.passed:
            continue
        done += 1
        w = m.table.weight
        u = rng.normal(size=m.n_states) * 10.0
        v = rng.normal(size=m.n_states) * 10.0
        op = ShapleyOperator(m)
        tu, _ = op.apply(u)
        tv, _ = op.apply(v)
        lhs = omega_norm(tu - tv, w)
        rhs = cert.eta_gamma * omega_norm(u - v, w)
        if lhs > rhs + 1e-12 * max(1.0, rhs):
            violations += 1
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed <= 30.0
    _line(5, ok, f"200 certified models, {violations} violations, "
                 f"worst lhs/rhs ratio {worst:.9f}, time={elapsed:.1f}s")
    assert violations == 0
    assert elapsed <= 30.0


def _random_single_state_doc(rng, kind: str) -> dict:
    alpha = float(rng.uniform(0.3, 3.0))
    if kind == "exponential":
        sojourn = {"kind": "exponential", "rate": float(rng.uniform(0.2, 20.0))}
    elif kind == "uniform":
        sojourn = {"kind": "uniform", "upper": float(rng.uniform(0.05, 3.0))}
    elif kind == "deterministic":
        sojourn = {"kind": "deterministic", "duration": float(rng.uniform(0.05, 2.0))}
    else:
        lam = float(rng.uniform(0.2, 0.9))
        sojourn = {"kind": "direct", "d": (1.0 - lam) / alpha, "lam": lam}
    return {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": alpha,
             "reward": float(rng.uniform(-10.0, 10.0)),
             "sojourn": sojourn, "transition": {"s": 1.0}}
        ],
    }


def test_criterion_06_single_state_closed_form():
    rng = np.random.default_rng(103)
    kinds = ("exponential", "uniform", "deterministic", "direct")
    worst = 0.0
    for i in range(100):
        doc = _random_single_state_doc(rng, kinds[i % 4])
        m = load_model(json.dumps(doc))
        t = ("s", "a", "b")
        expected = reward_of(m, t) / alpha_of(m, t)
        report = value_iterate(m, 1e-12)
        worst = max(worst, abs(float(report.epsilon_value[0]) - expected))
    ok = worst <= 1e-9
    _line(6, ok, f"100 one-state models across all laws, max |V - r/alpha| = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_07_coefficient_identity_and_quadrature():
    rng = np.random.default_rng(107)
    worst_identity = 0.0
    worst_quad = 0.0
    for i in range(1000):
        alpha = float(rng.uniform(0.05, 5.0))
        kind = i % 4
        if kind == 0:
            law = Exponential(rate=float(rng.uniform(0.05, 50.0)))
        elif kind == 1:
            law = Uniform(upper=float(rng.uniform(0.01, 5.0)))
        elif kind == 2:
            law = Deterministic(duration=float(rng.uniform(0.01, 5.0)))
        else:
            lam = float(rng.uniform(0.05, 0.95))
            law = DirectWeights(d=(1.0 - lam) / alpha, lam=lam)
        d, lam = kernel_coefficients(law, alpha)  # as the solver reads them
        worst_identity = max(
            worst_identity,
            abs(d - (1.0 - lam) / alpha) / max(1.0, abs(d)),
        )
        if not isinstance(law, DirectWeights):
            worst_quad = max(
                worst_quad,
                abs(lam - quad_continuation(law, alpha)),
                abs(d - quad_reward_weight(law, alpha)),
            )
    ok = worst_identity <= 1e-12 and worst_quad <= 1e-9
    _line(7, ok, f"1000 draws: identity residual {worst_identity:.2e}, "
                 f"quadrature residual {worst_quad:.2e}")
    assert worst_identity <= 1e-12
    assert worst_quad <= 1e-9


def test_criterion_08_matrix_game_duality():
    rng = np.random.default_rng(109)
    worst_gap = 0.0
    worst_2x2 = 0.0
    for _ in range(500):
        shape = rng.integers(1, 9, size=2)
        a = rng.uniform(-10.0, 10.0, size=shape)
        sol = solve_matrix_game(a)
        scale = max(1.0, abs(sol.value))
        worst_gap = max(worst_gap, sol.duality_gap / scale)
        ok, violation = verify_saddle_point(a, sol.row_strategy, sol.col_strategy, 1e-9 * scale)
        assert ok, f"saddle violated by {violation} on {a!r}"
        if shape[0] == 2 and shape[1] == 2:
            v, x, y = solve_2x2_by_equalizing(a)
            worst_2x2 = max(
                worst_2x2,
                abs(sol.value - v),
                float(np.max(np.abs(sol.row_strategy - x))),
                float(np.max(np.abs(sol.col_strategy - y))),
            )
    ok = worst_gap <= 1e-9 and worst_2x2 <= 1e-9
    _line(8, ok, f"500 games: worst relative gap {worst_gap:.2e}, "
                 f"worst 2x2 oracle residual {worst_2x2:.2e}")
    assert worst_gap <= 1e-9
    assert worst_2x2 <= 1e-9


def test_criterion_09_monte_carlo_cross_validation(investment_model, investment_run):
    report, _ = investment_run
    exact = evaluate_stationary_pair(investment_model, report.equilibrium)
    start = time.perf_counter()
    details = []
    ok = True
    for x in investment_model.states:
        est = estimate_value(investment_model, report.equilibrium, x,
                             trajectories=100_000, seed=42)
        budget = 3.0 * est.std_error + est.truncation_bound
        diff = abs(est.mean - exact[investment_model.state_index(x)])
        ok &= diff <= budget
        details.append(f"{x}: |{est.mean:.4f}-{exact[investment_model.state_index(x)]:.4f}|"
                       f"={diff:.4f}<= {budget:.4f}")
    elapsed = time.perf_counter() - start
    ok = bool(ok and elapsed <= 60.0)
    _line(9, ok, "; ".join(details) + f"; time={elapsed:.1f}s")
    assert ok


def test_criterion_10_iteration_bound_validity(investment_model, single_state_model, investment_run):
    report, _ = investment_run
    checked = [(investment_model, report)]
    checked.append((single_state_model, value_iterate(single_state_model, 1e-10)))
    rng = np.random.default_rng(113)
    done = 0
    while done < 20:
        m = random_model(rng, unit_weight=bool(rng.integers(0, 2)))
        cert = check_assumptions(m)
        if not cert.passed:
            continue
        done += 1
        checked.append((m, value_iterate(m, 1e-6, certificate=cert)))
    ok = all(rep.iterations <= rep.n_epsilon_bound for _, rep in checked)
    worst = max(rep.iterations / max(rep.n_epsilon_bound, 1) for _, rep in checked)
    _line(10, ok, f"{len(checked)} models, all stopping indices within the bound "
                  f"(tightest ratio {worst:.3f})")
    assert ok
