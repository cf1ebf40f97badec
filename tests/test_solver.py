"""Value iteration: convergence, stopping analysis, and solution certification."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import pickle
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy

import numpy as np
import pytest

from smgsolve import (
    AssumptionCertificate,
    AssumptionCheck,
    CertificateError,
    ConvergenceError,
    ShapleyOperator,
    StationaryStrategyPair,
    certify_solution,
    check_assumptions,
    estimate_value,
    evaluate_stationary_pair,
    load_model,
    omega_norm,
    serialize,
    solve_matrix_game,
    strategy_tables,
    trace_csv,
    value_iterate,
)
from smgsolve.shapley import _joined, _pair_arrays
from smgsolve.solver import _bound_from, report_as_dict

from conftest import (
    INVESTMENT_DOC,
    MODELS_DIR,
    SolveReportProxy,
    payoff_matrix,
    random_model,
    scaled_rewards_doc,
    sparse_doc,
)


def halving_model():
    """Single state, single action, continuation factor exactly 1/2, T(0) = 1."""
    doc = {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": 1.0, "reward": 2.0,
             "sojourn": {"kind": "direct", "d": 0.5, "lam": 0.5}, "transition": {"s": 1.0}}
        ],
    }
    return load_model(json.dumps(doc))


def exact_half_certificate(m) -> AssumptionCertificate:
    """Certificate whose modulus equals the model's true contraction rate 1/2."""
    base = check_assumptions(m)
    return AssumptionCertificate(
        theta=base.theta, delta=base.delta, alpha0=base.alpha0, gamma=base.gamma,
        eta=0.5 / base.gamma, eta_gamma=0.5, lambda_max=base.lambda_max, modulus=base.modulus,
        checks=base.checks, passed=True,
    )


def test_single_state_converges_to_closed_form(single_state_model):
    report = value_iterate(single_state_model, 1e-10)
    np.testing.assert_allclose(report.epsilon_value, [4.0], atol=1e-9)
    np.testing.assert_allclose(report.equilibrium.f["only"], [1.0])
    np.testing.assert_allclose(report.equilibrium.g["only"], [1.0])
    assert report.error_trace[-1] < 1e-10
    assert report.iterations <= report.n_epsilon_bound


def test_start_at_fixed_point_stops_immediately(single_state_model):
    report = value_iterate(single_state_model, 1e-8, v0=[4.0])
    assert len(report.error_trace) == 1
    assert report.iterations == 0
    assert report.error_trace[0] < 1e-8


def test_error_trace_obeys_the_geometric_envelope(investment_model):
    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    rate = report.certificate.eta_gamma
    lam_max = report.certificate.lambda_max
    trace = report.error_trace
    for k in range(len(trace) - 1):
        assert trace[k + 1] <= rate * trace[k] + 1e-15
        assert trace[k + 1] <= lam_max * trace[k] + 1e-15  # unit weights
    assert trace[-1] < 1e-4
    assert all(a > b for a, b in zip(trace, trace[1:]))


def test_iteration_bound_zero_at_fixed_point(single_state_model):
    assert value_iterate(single_state_model, 1e-8, v0=[4.0]).n_epsilon_bound == 0


def test_iteration_bound_formula_and_sharp_case():
    m = halving_model()
    cert = exact_half_certificate(m)
    # first residual from zero is exactly 1, so the bound is 1 + floor(log_0.5 0.1) = 4
    report = value_iterate(m, 0.1, v0=[0.0], certificate=cert)
    assert report.n_epsilon_bound == 4
    # residuals halve exactly: 1, .5, .25, .125, .0625 -> stop on the 5th application
    assert report.error_trace == (1.0, 0.5, 0.25, 0.125, 0.0625)
    assert report.iterations == 4
    assert report.iterations <= report.n_epsilon_bound == 4


def test_iteration_bound_clamped_when_epsilon_exceeds_first_residual():
    m = halving_model()
    cert = exact_half_certificate(m)
    report = value_iterate(m, 10.0, v0=[0.0], certificate=cert)
    assert report.n_epsilon_bound == 0
    assert report.iterations == 0


def test_an_epsilon_whose_ratio_to_the_first_residual_underflows_still_has_a_bound(
    investment_model,
):
    # the first residual is near 14, and 5e-324 / 14 is 0.0 in floats, whose log fails
    report = value_iterate(investment_model, 5e-324, v0=np.full(3, 100.0))
    delta0, eta_gamma = report.error_trace[0], report.certificate.eta_gamma
    assert report.error_trace[-1] == 0.0
    assert report.n_epsilon_bound == 1 + math.floor(
        (math.log(5e-324) - math.log(delta0)) / math.log(eta_gamma)
    )
    assert report.iterations <= report.n_epsilon_bound


def test_iteration_bound_matches_the_quotient_formula_where_it_has_no_underflow():
    rng = np.random.default_rng(11)
    epsilons, deltas = 10.0 ** rng.uniform(-12, 2, 2000), 10.0 ** rng.uniform(-10, 4, 2000)
    for epsilon, delta0, eta_gamma in zip(epsilons, deltas, rng.uniform(0.01, 0.9999, 2000)):
        quotient = max(0, 1 + math.floor(math.log(epsilon / delta0) / math.log(eta_gamma)))
        assert _bound_from(delta0, epsilon, eta_gamma) == quotient


def test_a_value_iterate_beyond_the_float_range_raises_naming_the_triple():
    m = load_model(json.dumps(scaled_rewards_doc(1e308)))
    message = "values beyond the float64 range: the payoff of triple ('2', 'a22', 'b22') overflows"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        value_iterate(m, 1e-6)


def test_a_start_whose_change_overflows_raises_naming_the_state():
    m = load_model(json.dumps(INVESTMENT_DOC))
    message = "values beyond the float64 range: the change of value at state '2' overflows"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        value_iterate(m, 1e-6, v0=[1e308, -1e308, 1e308])


def test_a_start_near_the_float_limit_whose_change_is_finite_still_solves():
    # the start's and the iterate's largest magnitudes sum past the float
    # range, yet no state's change overflows
    m = load_model(json.dumps(INVESTMENT_DOC))
    start = np.full(m.n_states, 1e308)
    report = value_iterate(m, 1e300, v0=start)
    first = report.value_trace[0]
    assert float(np.abs(first).max()) + float(np.abs(start).max()) == math.inf
    assert report.error_trace[0] == omega_norm(first - start, m.table.weight)


def test_values_near_the_float_limit_still_solve_and_certify():
    m = load_model(json.dumps(scaled_rewards_doc(1e307)))
    report = value_iterate(m, 1e-6)
    assert 9e307 < report.epsilon_value.min() and report.epsilon_value.max() < 1.1e308
    # the pair is exact up to rounding at the values' scale
    assert certify_solution(m, report, tol=1e-12 * report.epsilon_value.max()).passed


def test_observed_iterations_within_bound_on_random_models():
    rng = np.random.default_rng(43)
    done = 0
    while done < 15:
        m = random_model(rng, unit_weight=bool(rng.integers(0, 2)))
        cert = check_assumptions(m)
        if not cert.passed:
            continue
        done += 1
        report = value_iterate(m, 1e-6, certificate=cert)
        assert report.iterations <= report.n_epsilon_bound
        # every converged report admits no profitable one-shot deviation
        assert certify_solution(m, report, tol=2.0 * report.epsilon_nash).passed


def _cold_solve(m, epsilon):
    """Value iteration from 0 with every state's game solved by the simplex (the reference)."""
    op = ShapleyOperator(m)
    current = np.zeros(op.n)
    applications = 0
    while True:
        games = [payoff_matrix(m, current, x) for x in m.states]
        updated = np.array([solve_matrix_game(c).value for c in games])
        applications += 1
        if omega_norm(updated - current, m.table.weight) < epsilon:
            return applications, updated
        current = updated


def test_warm_start_keeps_the_application_count(investment_model):
    models = [(investment_model, check_assumptions(investment_model))]
    rng = np.random.default_rng(113)  # the random models of acceptance criterion 10
    while len(models) < 21:
        m = random_model(rng, unit_weight=bool(rng.integers(0, 2)))
        cert = check_assumptions(m)
        if cert.passed:
            models.append((m, cert))
    for m, cert in models:
        report = value_iterate(m, 1e-6, certificate=cert)
        applications, values = _cold_solve(m, 1e-6)
        assert len(report.error_trace) == applications
        assert omega_norm(report.epsilon_value - values, m.table.weight) <= 1e-10


def test_final_strategies_match_the_equalization_oracle(investment_model):
    # the returned pair solves the per-state games at the second-to-last
    # iterate; for 2x2 games the equalizing mix is an independent oracle
    from conftest import solve_2x2_by_equalizing

    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    previous = np.array(report.value_trace[-2])
    for xi, x in enumerate(investment_model.states):
        v, fv, gv = solve_2x2_by_equalizing(payoff_matrix(investment_model, previous, x))
        assert report.epsilon_value[xi] == pytest.approx(v, abs=1e-9)
        np.testing.assert_allclose(report.equilibrium.f[x], fv, atol=1e-9)
        np.testing.assert_allclose(report.equilibrium.g[x], gv, atol=1e-9)


def test_a_solved_pair_finds_its_states_through_the_tables_index(investment_model):
    report = value_iterate(investment_model, 1e-6)
    assert report.equilibrium.f.index is investment_model.table.index
    assert report.equilibrium.g.index is investment_model.table.index


def test_unique_fixed_point_from_random_starts(investment_model):
    epsilon = 1e-6
    reports = []
    rng = np.random.default_rng(47)
    for _ in range(10):
        v0 = rng.uniform(-20.0, 20.0, size=3)
        reports.append(value_iterate(investment_model, epsilon, v0=v0))
    radius = 2.0 * epsilon / (1.0 - reports[0].certificate.eta_gamma)
    reference = reports[0].epsilon_value
    for rep in reports[1:]:
        assert np.max(np.abs(rep.epsilon_value - reference)) <= radius


def relabelled_investment(rename: dict, order=list):
    """The investment game with state ``x`` called ``rename[x]``, states and triples in ``order``."""
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    return load_model(json.dumps({
        "states": [rename[x] for x in order(doc["states"])],
        "actions1": {rename[x]: acts for x, acts in doc["actions1"].items()},
        "actions2": {rename[x]: acts for x, acts in doc["actions2"].items()},
        "weight": {rename[x]: w for x, w in doc["weight"].items()},
        "triples": [
            {**t, "state": rename[t["state"]],
             "transition": {rename[y]: p for y, p in t["transition"].items()}}
            for t in order(doc["triples"])
        ],
    }))


def test_per_state_results_do_not_depend_on_sweep_order(investment_model):
    # the same game with its states relabelled and declared, and its triples listed, in reverse
    rename = {"1": "z", "2": "y", "3": "x"}
    relabelled = relabelled_investment(rename, reversed)
    u = np.array([3.0, -2.0, 0.25])
    op = ShapleyOperator(investment_model)
    updated, pair = op.apply(u)
    moved, moved_pair = ShapleyOperator(relabelled).apply(u[::-1])
    np.testing.assert_array_equal(moved[::-1], updated)
    for xi, x in enumerate(investment_model.states):
        c = payoff_matrix(investment_model, u, x)
        np.testing.assert_array_equal(moved_pair.f[rename[x]], pair.f[x])
        np.testing.assert_array_equal(moved_pair.g[rename[x]], pair.g[x])
        scale = max(1.0, float(np.max(np.abs(c))))
        assert abs(updated[xi] - solve_matrix_game(c).value) <= 1e-12 * scale


def test_max_iter_raises_convergence_error(investment_model):
    with pytest.raises(ConvergenceError, match="no convergence within 2"):
        value_iterate(investment_model, 1e-12, max_iter=2)


def test_failed_certificate_refuses_to_run():
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
    with pytest.raises(CertificateError, match="coefficient_bound"):
        value_iterate(m, 1e-6)


def test_certify_solution_single_state(single_state_model):
    report = value_iterate(single_state_model, 1e-10)
    result = certify_solution(single_state_model, report, tol=1e-8)
    assert result.passed
    assert result.worst_violation == pytest.approx(0.0, abs=1e-9)


def test_certify_solution_investment_and_corrupted_pair(investment_model):
    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    result = certify_solution(investment_model, report, tol=2.0 * report.epsilon_nash)
    assert result.passed
    assert set(result.per_state) == {"1", "2", "3"}

    wrong_g = dict(report.equilibrium.g)
    wrong_g["1"] = np.array([0.0, 1.0])  # point mass on the wrong column
    corrupted = SolveReportProxy(report, StationaryStrategyPair(f=report.equilibrium.f, g=wrong_g))
    bad = certify_solution(investment_model, corrupted, tol=2.0 * report.epsilon_nash)
    assert not bad.passed
    assert bad.worst_violation > 0.1


def test_no_pure_stationary_deviation_gains_more_than_the_certified_radius():
    # With the other player's strategy fixed, each player's one-shot operator
    # contracts with modulus eta_gamma in the omega-norm, so no stationary
    # deviation moves the value at x by more than
    # omega(x) * max_y gain(y) / omega(y) / (1 - eta_gamma).
    rng = np.random.default_rng(5)
    models = [load_model((MODELS_DIR / "investment.json").read_text())]
    while len(models) < 25:
        m = random_model(rng, unit_weight=len(models) % 2 == 0)
        if check_assumptions(m).passed:
            models.append(m)
    assert any(np.any(m.table.weight != 1.0) for m in models)
    null_deviations = 0
    for m in models:
        report = value_iterate(m, 1e-6)
        gains = np.array(list(certify_solution(m, report, tol=0.0).per_state.values()))
        w = m.table.weight
        radius = w * (gains / w).max() / (1.0 - report.certificate.eta_gamma)
        pair = report.equilibrium
        values = evaluate_stationary_pair(m, pair)
        scale = np.maximum(1.0, np.abs(values))
        for x in m.states:
            for player, side in ((1, pair.f), (2, pair.g)):
                own = side[x]
                if len(own) < 2:  # no choice to deviate with
                    continue
                for pure in np.eye(len(own)):
                    changed = {**side, x: pure}
                    deviated = StationaryStrategyPair(
                        f=changed if player == 1 else pair.f, g=changed if player == 2 else pair.g
                    )
                    moved = evaluate_stationary_pair(m, deviated) - values
                    gain = moved if player == 1 else -moved
                    assert np.all(gain <= radius + 1e-9 * scale), (player, x, pure)
                    if np.array_equal(pure, own):  # the equilibrium's own pure action
                        null_deviations += 1
                        assert np.all(np.abs(moved) <= 1e-12 * scale), (player, x, pure)
    assert null_deviations > 0


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_strategies_are_rejected_naming_the_state(investment_model, entry):
    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    f = {**report.equilibrium.f, "2": np.array([entry, 0.5])}
    pair = StationaryStrategyPair(f=f, g=report.equilibrium.g)
    message = re.escape("f['2'] is not a probability vector: array([")
    with pytest.raises(ValueError, match=message):
        evaluate_stationary_pair(investment_model, pair)
    with pytest.raises(ValueError, match=message):
        certify_solution(investment_model, SolveReportProxy(report, pair), tol=1.0)
    with pytest.raises(ValueError, match=message):
        estimate_value(investment_model, pair, "1", trajectories=10, seed=0)


def test_trace_csv_layout(investment_model):
    report = value_iterate(investment_model, 1e-3, v0=np.ones(3))
    text = trace_csv(investment_model, report)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,delta,V_1,V_2,V_3"
    assert len(lines) == 1 + len(report.error_trace)
    assert report.value_trace.shape == (len(report.error_trace), investment_model.n_states)
    assert "np.float64" not in text  # numpy 2 scalars repr as np.float64(...)
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == k + 1
        assert float(cells[1]) == report.error_trace[k]
        assert [float(v) for v in cells[2:]] == report.value_trace[k].tolist()


def test_a_trace_header_holds_one_field_per_state_whatever_its_label():
    m = relabelled_investment({"1": "a,b", "2": 'q"x', "3": "line\nbreak"})
    report = value_iterate(m, 1e-3)
    header, *rows = csv.reader(io.StringIO(trace_csv(m, report), newline=""))
    assert header == ["iteration", "delta", "V_a,b", 'V_q"x', "V_line\nbreak"]
    assert len(rows) == len(report.error_trace)
    assert all(len(row) == len(header) for row in rows)


def test_a_carriage_return_in_a_label_stays_inside_its_header_field():
    m = relabelled_investment({"1": "c\rd", "2": "\r", "3": "plain"})
    report = value_iterate(m, 1e-3)
    text = trace_csv(m, report)
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert header == ["iteration", "delta", "V_c\rd", "V_\r", "V_plain"]
    assert len(rows) == len(report.error_trace)
    assert text.startswith('iteration,delta,"V_c\rd","V_\r",V_plain\n')


@pytest.mark.parametrize(
    "model",
    [
        lambda: load_model(json.dumps(INVESTMENT_DOC)),
        lambda: load_model(json.dumps(sparse_doc(300, seed=3))),
        # shapes from 1x4 to 5x5: warm supports, enumerated supports and the simplex
        lambda: random_model(np.random.default_rng(2), max_states=8, max_actions=5),
    ],
    ids=["investment", "sparse-300", "mixed-shapes"],
)
def test_value_iterate_is_apply_from_zero_by_hand(model):
    m = model()
    report = value_iterate(m, 1e-9)
    op = ShapleyOperator(m)
    u, strategies, plans = np.zeros(m.n_states), None, None
    for row in report.value_trace:
        u, strategies, plans = op._solve(u, strategies, plans)
        np.testing.assert_array_equal(u, row)
    np.testing.assert_array_equal(u, report.epsilon_value)
    pair = op._pair(*strategies)
    for x in m.states:
        np.testing.assert_array_equal(pair.f[x], report.equilibrium.f[x])
        np.testing.assert_array_equal(pair.g[x], report.equilibrium.g[x])


def bench_doc(workload: str) -> dict:
    """The seed-1 document of a workload of ``bench/generate.py``."""
    path = MODELS_DIR.parent / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(workload, 1)


def shaped_doc(seed: int, shapes, copies: int = 3) -> dict:
    """A random model with ``copies`` states of each ``(rows, columns)`` game shape."""
    rng = np.random.default_rng(seed)
    shapes = [shape for shape in shapes for _ in range(copies)]
    states = [f"s{i}" for i in range(len(shapes))]
    return {
        "states": states,
        "actions1": {x: [f"a{i}" for i in range(m)] for x, (m, _) in zip(states, shapes)},
        "actions2": {x: [f"b{j}" for j in range(l)] for x, (_, l) in zip(states, shapes)},
        "triples": [
            {"state": x, "a": f"a{i}", "b": f"b{j}", "alpha": float(rng.uniform(0.3, 3.0)),
             "reward": float(rng.uniform(-10.0, 10.0)),
             "sojourn": {"kind": "exponential", "rate": float(rng.uniform(0.2, 20.0))},
             "transition": dict(zip(states, (p := rng.uniform(0.05, 1.0, len(states))) / p.sum()))}
            for x, (m, l) in zip(states, shapes)
            for i in range(m)
            for j in range(l)
        ],
    }


def assert_same_report(got, want) -> None:
    """Bit for bit: the value and error traces and both strategies of every state."""
    assert got.value_trace.tobytes() == want.value_trace.tobytes()
    assert got.error_trace == want.error_trace
    for x in got.equilibrium.f:
        assert got.equilibrium.f[x].tobytes() == want.equilibrium.f[x].tobytes()
        assert got.equilibrium.g[x].tobytes() == want.equilibrium.g[x].tobytes()


@pytest.mark.parametrize(
    "doc",
    [
        lambda: INVESTMENT_DOC,
        lambda: bench_doc("many-states"),
        lambda: bench_doc("wide-actions"),
        lambda: shaped_doc(4, [(1, 2), (3, 1), (4, 4), (10, 10)]),
    ],
    ids=["investment", "many-states", "wide-actions", "shapes-1x2-3x1-4x4-10x10"],
)
def test_a_carried_warm_plan_answers_as_one_built_every_application(doc, monkeypatch):
    import smgsolve.shapley as shapley

    m = load_model(json.dumps(doc()))
    build = shapley._warm_plan
    reused = []

    def carry(x, y, reuse=None):
        plan = build(x, y, reuse)
        reused.append(plan is reuse)
        return plan

    monkeypatch.setattr(shapley, "_warm_plan", carry)
    carried = value_iterate(m, 1e-6)
    monkeypatch.setattr(shapley, "_warm_plan", lambda x, y, reuse=None: build(x, y))
    assert_same_report(carried, value_iterate(m, 1e-6))
    assert any(reused)  # some application answered on the plan it was handed


def test_threads_solving_one_shared_model_return_identical_reports():
    m = load_model(json.dumps(shaped_doc(5, [(2, 2), (4, 4), (10, 10)])))
    alone = value_iterate(m, 1e-9)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads take turns inside each other's applications
    try:
        with ThreadPoolExecutor(4) as pool:
            reports = [job.result(timeout=60) for job in [pool.submit(value_iterate, m, 1e-9) for _ in range(8)]]
    finally:
        sys.setswitchinterval(switch)
    for report in reports:
        assert_same_report(report, alone)


def plain_copy(pair) -> StationaryStrategyPair:
    """The pair as a user would build it: plain dicts of new, writable arrays."""
    f = {x: np.array(v) for x, v in pair.f.items()}
    return StationaryStrategyPair(f=f, g={x: np.array(v) for x, v in pair.g.items()})


CARRIED_DOCS = pytest.mark.parametrize(
    "doc",
    [lambda: INVESTMENT_DOC, lambda: shaped_doc(4, [(1, 2), (3, 1), (4, 4), (10, 10)])],
    ids=["investment", "shapes-1x2-3x1-4x4-10x10"],
)


@CARRIED_DOCS
def test_a_library_pair_hands_over_its_flat_arrays_equal_to_the_join(doc):
    m = load_model(json.dumps(doc()))
    u = np.random.default_rng(9).normal(size=m.n_states)
    for pair in (value_iterate(m, 1e-6).equilibrium, ShapleyOperator(m).apply(u)[1]):
        f, g = _pair_arrays(m, pair)
        assert f is pair.f.flat and g is pair.g.flat  # no join
        joined_f, joined_g = _pair_arrays(m, plain_copy(pair))
        assert joined_f is not f
        assert f.tobytes() == joined_f.tobytes() and g.tobytes() == joined_g.tobytes()


@CARRIED_DOCS
def test_a_library_pair_and_its_plain_copy_give_identical_results(doc):
    m = load_model(json.dumps(doc()))
    report = value_iterate(m, 1e-6)
    copy = SolveReportProxy(report, plain_copy(report.equilibrium))
    tol = 2.0 * report.epsilon_nash
    certified = certify_solution(m, report, tol)
    assert certified.passed and certified == certify_solution(m, copy, tol)
    carried = evaluate_stationary_pair(m, report.equilibrium)
    assert carried.tobytes() == evaluate_stationary_pair(m, copy.equilibrium).tobytes()
    for x in m.states[:2]:
        assert estimate_value(m, report.equilibrium, x, 500, 3) == estimate_value(
            m, copy.equilibrium, x, 500, 3
        )


def test_a_library_pair_used_with_an_equal_model_is_joined_and_matches(investment_model):
    report = value_iterate(investment_model, 1e-6)
    again = load_model(serialize(investment_model))
    assert again.table == investment_model.table and again.table is not investment_model.table
    f, g = _pair_arrays(again, report.equilibrium)
    assert f is not report.equilibrium.f.flat and g is not report.equilibrium.g.flat
    want_f, want_g = _pair_arrays(investment_model, report.equilibrium)
    assert f.tobytes() == want_f.tobytes() and g.tobytes() == want_g.tobytes()
    tol = 2.0 * report.epsilon_nash
    assert certify_solution(again, report, tol) == certify_solution(investment_model, report, tol)
    assert estimate_value(again, report.equilibrium, "1", 500, 3) == estimate_value(
        investment_model, report.equilibrium, "1", 500, 3
    )


def test_a_library_pair_is_read_only(investment_model):
    u = np.array([1.0, -2.0, 0.5])
    op = ShapleyOperator(investment_model)
    for pair in (value_iterate(investment_model, 1e-6).equilibrium, op.apply(u)[1]):
        with pytest.raises(TypeError):
            pair.f["1"] = np.array([0.0, 1.0])
        with pytest.raises(TypeError):
            pair.g["1"] = np.array([0.0, 1.0])
        for strategy in (pair.f["2"], pair.g["3"], pair.f.flat, pair.g.flat):
            with pytest.raises(ValueError, match="read-only"):
                strategy[0] = 0.5
        with pytest.raises(AttributeError):
            pair.f = {}


@CARRIED_DOCS
def test_a_solved_pairs_state_arrays_are_read_only_views_of_its_flat_arrays(doc):
    m = load_model(json.dumps(doc()))
    u = np.random.default_rng(9).normal(size=m.n_states)
    for pair in (value_iterate(m, 1e-6).equilibrium, ShapleyOperator(m).apply(u)[1]):
        for strategies in (pair.f, pair.g):
            assert list(strategies) == list(m.states) and len(strategies) == m.n_states
            assert repr(strategies) == repr({x: strategies[x] for x in m.states})
            for x in m.states:
                assert np.shares_memory(strategies[x], strategies.flat)
                with pytest.raises(ValueError, match="read-only"):
                    strategies[x][0] = 0.5


@CARRIED_DOCS
def test_a_solve_report_pickles_and_copies_and_gives_identical_results_through_the_join(doc):
    m = load_model(json.dumps(doc()))
    report = value_iterate(m, 1e-6)
    tol = 2.0 * report.epsilon_nash
    certified = certify_solution(m, report, tol)
    values = evaluate_stationary_pair(m, report.equilibrium)
    x = m.states[0]
    estimate = estimate_value(m, report.equilibrium, x, 500, 3)
    as_dict = StationaryStrategyPair(**dataclasses.asdict(report.equilibrium))
    for copied in (
        pickle.loads(pickle.dumps(report)),
        deepcopy(report),
        SolveReportProxy(report, as_dict),
    ):
        pair = copied.equilibrium
        assert _pair_arrays(m, pair)[0] is not report.equilibrium.f.flat  # joined
        for y in m.states:
            assert pair.f[y].tobytes() == report.equilibrium.f[y].tobytes()
            assert pair.g[y].tobytes() == report.equilibrium.g[y].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                pair.f[y][0] = 0.5
        assert certify_solution(m, copied, tol) == certified
        assert evaluate_stationary_pair(m, pair).tobytes() == values.tobytes()
        assert estimate_value(m, pair, x, 500, 3) == estimate


def test_a_kept_solve_report_does_not_keep_its_models_table():
    m = load_model(json.dumps(INVESTMENT_DOC))
    report = value_iterate(m, 1e-6)
    estimate_value(m, report.equilibrium, "1", 10, 0)  # the model caches its sampling table
    table = weakref.ref(m.table)
    del m
    assert table() is None
    again = load_model(json.dumps(INVESTMENT_DOC))
    assert certify_solution(again, report, 2.0 * report.epsilon_nash).passed


@CARRIED_DOCS
def test_a_library_f_with_a_user_built_g_gives_the_results_of_its_plain_copy(doc):
    m = load_model(json.dumps(doc()))
    report = value_iterate(m, 1e-6)
    plain = plain_copy(report.equilibrium)
    mixed = StationaryStrategyPair(f=report.equilibrium.f, g=plain.g)
    f, g = _pair_arrays(m, mixed)
    assert f is report.equilibrium.f.flat and g.tobytes() == report.equilibrium.g.flat.tobytes()
    tol = 2.0 * report.epsilon_nash
    certified = certify_solution(m, SolveReportProxy(report, mixed), tol)
    assert certified.passed and certified == certify_solution(m, SolveReportProxy(report, plain), tol)
    values = evaluate_stationary_pair(m, mixed)
    assert values.tobytes() == evaluate_stationary_pair(m, plain).tobytes()
    for x in m.states[:2]:
        assert estimate_value(m, mixed, x, 500, 3) == estimate_value(m, plain, x, 500, 3)


def test_a_library_route_pair_off_the_simplex_raises_naming_its_state(investment_model):
    m = investment_model
    op = ShapleyOperator(m)
    _, (f, g), _ = op._solve(np.zeros(m.n_states))
    f[m.table.f_ptr[1]] += 1e-9  # state '2' sums to 1 + 1e-9
    pair = op._pair(f, g)
    assert _joined(pair.f, m.states, m.table.f_ptr) is f  # the carried route, no join
    message = re.escape("f['2'] is not a probability vector")
    with pytest.raises(ValueError, match=f"^{message}"):
        evaluate_stationary_pair(m, pair)
    with pytest.raises(ValueError, match=f"^{message}"):
        estimate_value(m, pair, "1", 100, 0)


def test_strategy_tables_layout(investment_model):
    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    tables = strategy_tables(investment_model, report.equilibrium)
    assert set(tables) == {"1", "2", "3"}
    assert set(tables["1"]["f"]) == {"a11", "a12"}
    assert sum(tables["2"]["g"].values()) == pytest.approx(1.0, abs=1e-10)
    assert tables["3"]["f"]["a31"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "doc",
    [*CARRIED_DOCS.args[1], lambda: bench_doc("wide-actions")],
    ids=[*CARRIED_DOCS.kwargs["ids"], "wide-actions"],
)
def test_strategy_tables_cut_a_library_pairs_flat_arrays_as_a_per_state_read(doc, monkeypatch):
    m = load_model(json.dumps(doc()))
    pair = value_iterate(m, 1e-6).equilibrium
    per_state = {  # the tables as read state by state
        x: {
            "f": {a: float(p) for a, p in zip(m.actions1[x], pair.f[x])},
            "g": {b: float(p) for b, p in zip(m.actions2[x], pair.g[x])},
        }
        for x in m.states
    }
    want = json.dumps(per_state)
    other = load_model(json.dumps(doc()))  # its table cuts another ptr, so its pair is read per state
    for model, strategies in ((m, pair), (m, plain_copy(pair)), (other, pair)):
        assert json.dumps(strategy_tables(model, strategies)) == want
    monkeypatch.setattr(type(pair.f), "__getitem__", lambda *_: pytest.fail("read per state"))
    assert json.dumps(strategy_tables(m, pair)) == want


# (player, row at state "2") of a malformed pair, and the message naming it;
# state "3" of f is malformed too, but "2" comes first
MALFORMED_ROWS = {
    "short row": ("f", [1.0], r"f\['2'\] must have length 2"),
    "long row": ("g", [0.5, 0.25, 0.25], r"g\['2'\] must have length 2"),
    "NaN row": ("g", [math.nan, math.nan], r"g\['2'\] is not a probability vector"),
    "row summing to 1.4": ("f", [0.7, 0.7], r"f\['2'\] is not a probability vector"),
    "missing state": ("g", None, r"strategy pair missing state '2'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ROWS))
def test_strategy_tables_raise_naming_the_first_malformed_state(investment_model, case):
    player, row, message = MALFORMED_ROWS[case]
    pair = plain_copy(value_iterate(investment_model, 1e-6).equilibrium)
    strategies = getattr(pair, player)
    if row is None:
        del strategies["2"]
    else:
        strategies["2"] = np.array(row)
    pair.f["3"] = np.array([1.0])
    with pytest.raises(ValueError, match=f"^{message}"):
        strategy_tables(investment_model, pair)


# sha256 of value_iterate(m, 1e-6)'s error trace, value trace and pair on the
# 150 models of the test below, recorded at commit 3846861
SOLVES_SHA256 = "513b812f98ec4f46"
# the kernels those solves round through, on fixed inputs, where the pin was
# recorded: stacked np.linalg.solve, einsum, and the loader's math.exp/expm1
SOLVE_KERNELS_SHA256 = "a84d3aa7b24af783"


def solve_kernels_sha256() -> str:
    rng = np.random.default_rng(40)
    systems = [rng.normal(size=(64, k, k)) for k in range(2, 8)]
    kernels = b"".join(np.linalg.solve(a, np.ones((a.shape[1], 1))).tobytes() for a in systems)
    a, y = rng.normal(size=(64, 6, 6)), rng.random((64, 6))
    kernels += np.einsum("...ij,...j->...i", a, y).tobytes() + np.einsum("...i,...ij->...j", y, a).tobytes()
    grid = (np.arange(4096) * 2.0**-8).tolist()
    kernels += np.array([(math.exp(-t), math.expm1(-t)) for t in grid]).tobytes()
    return hashlib.sha256(kernels).hexdigest()[:16]


def test_value_iteration_is_pinned_bit_for_bit_on_random_models():
    if solve_kernels_sha256() != SOLVE_KERNELS_SHA256:
        pytest.skip("the solves' kernels round differently here than where the pin was recorded")
    rng = np.random.default_rng(39)
    digest = hashlib.sha256()
    for i in range(150):
        m = random_model(rng, max_states=6, max_actions=5, unit_weight=i % 2 == 0)
        report = value_iterate(m, 1e-6)
        digest.update(np.array(report.error_trace).tobytes() + report.value_trace.tobytes())
        f, g = _pair_arrays(m, report.equilibrium)
        digest.update(f.tobytes() + g.tobytes())
    assert digest.hexdigest()[:16] == SOLVES_SHA256


def test_epsilon_nash_radii(investment_model):
    report = value_iterate(investment_model, 1e-4, v0=np.ones(3))
    cert = report.certificate
    assert report.epsilon_nash == pytest.approx(1e-4 / (1.0 - cert.eta_gamma), rel=1e-14)
    # the model's own modulus is the largest continuation factor on unit weights, and
    # its radius is 7.3 times smaller than the certified one
    assert cert.modulus == pytest.approx(cert.lambda_max, rel=1e-14)
    assert report.epsilon_nash / (1e-4 / (1.0 - cert.modulus)) == pytest.approx(7.31, abs=0.01)
    assert "epsilon_nash_tight" not in report_as_dict(investment_model, report)


@pytest.mark.parametrize(
    "values, v0_message, apply_message",
    [
        ([np.nan, 0.0, 0.0], *["value vector must be finite, got nan at state '1'"] * 2),
        ([0.0, 0.0, np.inf], *["value vector must be finite, got inf at state '3'"] * 2),
        ([0.0, -np.inf, np.nan], *["value vector must be finite, got -inf at state '2'"] * 2),
        ([0.0, 0.0], "v0 must have length 3", "value vector must have length 3, got (2,)"),
    ],
    ids=["nan", "inf", "first-of-two", "short"],
)
def test_bad_value_vectors_are_rejected_naming_the_state(
    investment_model, values, v0_message, apply_message
):
    with pytest.raises(ValueError, match=f"^{re.escape(v0_message)}$"):
        value_iterate(investment_model, 1e-4, v0=values)
    with pytest.raises(ValueError, match=f"^{re.escape(apply_message)}$"):
        ShapleyOperator(investment_model).apply(values)


def test_invalid_epsilon_rejected(single_state_model):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        value_iterate(single_state_model, 0.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        value_iterate(single_state_model, -1.0)


@pytest.mark.parametrize("epsilon", [float("inf"), float("nan")])
def test_non_finite_epsilon_rejected(single_state_model, epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        value_iterate(single_state_model, epsilon)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        value_iterate(single_state_model, epsilon, v0=[4.0])  # also from the fixed point


@pytest.mark.parametrize("max_iter", [0, -3])
def test_max_iter_below_one_rejected(single_state_model, max_iter):
    # from the fixed point one application would stop at once; a cap below one must not
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        value_iterate(single_state_model, 1e-8, v0=[4.0], max_iter=max_iter)
    assert value_iterate(single_state_model, 1e-8, v0=[4.0], max_iter=1).iterations == 0
