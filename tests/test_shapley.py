"""Payoff-matrix assembly, the minimax update, and stationary evaluation."""

import json
import re

import numpy as np
import pytest

from smgsolve import (
    MatrixGameError,
    ShapleyOperator,
    StationaryStrategyPair,
    certify_solution,
    check_assumptions,
    discounted_kernel_row,
    estimate_value,
    evaluate_stationary_pair,
    load_model,
    omega_norm,
    solve_matrix_game,
    value_iterate,
)

from conftest import (
    INVESTMENT_DOC,
    INVESTMENT_VALUES,
    MIXED_LAWS_DOC,
    SINGLE_STATE_DOC,
    SolveReportProxy,
    alpha_of,
    failing_simplex,
    law_of,
    random_model,
    random_pair,
    payoff_matrix,
    ring_doc,
    scaled_rewards_doc,
    sparse_doc,
    uniform_pair,
    verify_saddle_point,
    warm_token,
)
from smgsolve.shapley import _evaluate_with, _pair_arrays


def pure_pair(m):
    return StationaryStrategyPair(
        f={x: np.eye(len(m.actions1[x]))[0] for x in m.states},
        g={x: np.eye(len(m.actions2[x]))[0] for x in m.states},
    )


def strategy_update(m, pair, values) -> np.ndarray:
    """Expected one-sojourn update under a fixed pair: ``f(x) C(u, x) g(x)`` per state."""
    return np.array([pair.f[x] @ payoff_matrix(m, values, x) @ pair.g[x] for x in m.states])


def test_payoff_matrix_single_state(single_state_model):
    # d = 0.5, lam = 0.75 for alpha=0.5, rate=1.5
    np.testing.assert_allclose(payoff_matrix(single_state_model, [0.0], "only"), [[1.0]])
    np.testing.assert_allclose(payoff_matrix(single_state_model, [4.0], "only"), [[4.0]])


def test_payoff_matrix_investment_entry(investment_model):
    c = payoff_matrix(investment_model, [1.0, 1.0, 1.0], "1")
    assert c[0, 0] == pytest.approx(60.0 / 20.98, rel=1e-12)
    assert c[0, 0] == pytest.approx(2.85987, abs=5e-6)


def test_payoff_matrix_unknown_state(investment_model):
    with pytest.raises(KeyError, match="unknown state"):
        investment_model.state_index("4")
    with pytest.raises(KeyError, match="unknown triple"):
        discounted_kernel_row(investment_model, ("4", "a11", "b11"))


def test_operator_single_state_values(single_state_model):
    op = ShapleyOperator(single_state_model)
    updated, pair = op.apply([0.0])
    np.testing.assert_allclose(updated, [1.0])
    np.testing.assert_allclose(pair.f["only"], [1.0])
    # the exact fixed point r/alpha = 4 maps to itself
    updated, _ = op.apply([4.0])
    np.testing.assert_allclose(updated, [4.0])


def test_operator_matches_per_state_games(investment_model):
    from conftest import solve_2x2_by_equalizing

    u = np.array([1.0, 1.0, 1.0])
    op = ShapleyOperator(investment_model)
    updated, pair = op.apply(u)
    for xi, x in enumerate(investment_model.states):
        c = payoff_matrix(investment_model, u, x)
        sol = solve_matrix_game(c)
        assert updated[xi] == pytest.approx(sol.value, abs=1e-12)
        np.testing.assert_allclose(pair.f[x], sol.row_strategy)
        assert updated[xi] == pytest.approx(solve_2x2_by_equalizing(c)[0], abs=1e-9)


def test_strategy_operator_single_state(single_state_model):
    out = strategy_update(single_state_model, pure_pair(single_state_model), [0.0])
    np.testing.assert_allclose(out, [1.0])


def test_strategy_operator_is_a_convex_combination(investment_model):
    rng = np.random.default_rng(3)
    u = rng.normal(size=3) * 5.0
    pair = random_pair(rng, investment_model)
    out = strategy_update(investment_model, pair, u)
    for xi, x in enumerate(investment_model.states):
        c = payoff_matrix(investment_model, u, x)
        assert c.min() - 1e-12 <= out[xi] <= c.max() + 1e-12


def test_strategy_operator_near_reference_fixed_point(investment_model):
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    u = np.array(INVESTMENT_VALUES)
    np.testing.assert_allclose(strategy_update(investment_model, pair, u), u, atol=5e-3)


def test_evaluate_single_state_closed_form(single_state_model):
    values = evaluate_stationary_pair(single_state_model, pure_pair(single_state_model))
    np.testing.assert_allclose(values, [4.0], rtol=1e-14)  # r/alpha


def test_evaluate_symmetric_swap_states():
    doc = {
        "states": ["u", "v"],
        "actions1": {"u": ["a"], "v": ["a"]},
        "actions2": {"u": ["b"], "v": ["b"]},
        "triples": [
            {"state": "u", "a": "a", "b": "b", "alpha": 1.0, "reward": 3.0,
             "sojourn": {"kind": "exponential", "rate": 2.0}, "transition": {"v": 1.0}},
            {"state": "v", "a": "a", "b": "b", "alpha": 1.0, "reward": 3.0,
             "sojourn": {"kind": "exponential", "rate": 2.0}, "transition": {"u": 1.0}},
        ],
    }
    m = load_model(json.dumps(doc))
    values = evaluate_stationary_pair(m, pure_pair(m))
    assert values[0] == pytest.approx(values[1], rel=1e-14)


def test_evaluate_investment_optimal_pair(investment_model):
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    values = evaluate_stationary_pair(investment_model, pair)
    np.testing.assert_allclose(values, INVESTMENT_VALUES, atol=5e-3)


def test_evaluate_fixed_point_residual_is_tiny():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = random_model(rng, unit_weight=bool(rng.integers(0, 2)))
        pair = random_pair(rng, m)
        values = evaluate_stationary_pair(m, pair)
        residual = omega_norm(
            strategy_update(m, pair, values) - values, m.table.weight
        )
        assert residual <= 1e-10
        assert_matches_dense(m, pair, values)


def test_strategy_pair_validation(investment_model):
    bad = StationaryStrategyPair(
        f={x: np.array([0.7, 0.7]) for x in investment_model.states},
        g={x: np.array([0.5, 0.5]) for x in investment_model.states},
    )
    with pytest.raises(ValueError, match="not a probability vector"):
        evaluate_stationary_pair(investment_model, bad)
    short = StationaryStrategyPair(f={}, g={})
    with pytest.raises(ValueError, match="missing state"):
        evaluate_stationary_pair(investment_model, short)


@pytest.mark.parametrize(
    "f, g, message",
    [
        ({"x": [0.7, 0.7], "y": [1.0]}, {"x": [1.0], "y": [0.5, 0.6]},
         "f['x'] is not a probability vector: array([0.7, 0.7])"),
        ({"x": [0.5, 0.5], "y": [1.0]}, {"y": [-0.5, 1.5]}, "strategy pair missing state 'x'"),
        ({"x": [0.5, 0.5], "y": [1.0]}, {"x": [1.0], "y": [0.25, 0.25, 0.5]},
         "g['y'] must have length 2, got shape (3,)"),
        ({"x": [0.5, 0.5], "y": [1.0]}, {"x": [1.0], "y": [0.5, 0.5 + 2e-10]},
         "g['y'] is not a probability vector: array([0.5, 0.5])"),
        ({"x": {"a": 1.0}, "y": [1.0]}, {"x": [1.0], "y": [0.5, 0.5]},
         "f['x'] is not a vector of numbers: {'a': 1.0}"),
        # the joined length is right, each state's is not
        ({"x": [1.0], "y": [0.5, 0.5]}, {"x": [1.0], "y": [0.5, 0.5]},
         "f['x'] must have length 2, got shape (1,)"),
        ({"x": [[0.5, 0.5]], "y": [1.0]}, {"x": [1.0], "y": [0.5, 0.5]},
         "f['x'] must have length 2, got shape (1, 2)"),
        ({"x": [0.5, 0.5], "y": [1.0]}, {"x": 1.0, "y": [0.5, 0.5]},
         "g['x'] must have length 1, got shape ()"),
        # state by state, f before g: g fails at x, f only at y
        ({"x": [0.5, 0.5], "y": [0.5]}, {"x": [0.5], "y": [0.5, 0.5]},
         "g['x'] is not a probability vector: array([0.5])"),
    ],
    ids=["first-state-named", "missing", "length", "sum", "not-numeric", "lengths-cancel", "2-d", "0-d",
         "g-first-state-f-later"],
)
def test_strategy_pair_errors_name_the_first_bad_state(f, g, message):
    # x plays 2x1 games and y 1x2 games, so each player's lengths differ by state
    m = load_model(json.dumps(MIXED_LAWS_DOC))
    pair = StationaryStrategyPair(f=f, g=g)
    with pytest.raises(ValueError) as err:
        evaluate_stationary_pair(m, pair)
    assert str(err.value) == message


def test_object_arrays_and_lists_evaluate_as_float_arrays(investment_model):
    # neither joins as floats under numpy's default casting; each converts on its own
    pair = random_pair(np.random.default_rng(11), investment_model)
    given = StationaryStrategyPair(
        f={x: v.astype(object) for x, v in pair.f.items()},
        g={x: v.tolist() for x, v in pair.g.items()},
    )
    np.testing.assert_array_equal(
        evaluate_stationary_pair(investment_model, given),
        evaluate_stationary_pair(investment_model, pair),
    )


def dense_system(m, pair) -> tuple[np.ndarray, np.ndarray]:
    """The pair's ``I - M`` and ``R``, built triple by triple."""
    n = m.n_states
    system, rewards = np.eye(n), np.zeros(n)
    for triple, reward in zip(m.triples(), m.table.reward):
        x, a, b = triple
        xi = m.state_index(x)
        mass = pair.f[x][m.actions1[x].index(a)] * pair.g[x][m.actions2[x].index(b)]
        d, _, row = discounted_kernel_row(m, triple)
        rewards[xi] += mass * reward * d
        system[xi] -= mass * row
    return system, rewards


def dense_values(m, pair) -> np.ndarray:
    """The pair's values by one dense solve of ``(I - M) V = R``."""
    return np.linalg.solve(*dense_system(m, pair))


def continuation_norm(m, pair) -> float:
    """``||M||_omega`` of the pair's continuation matrix."""
    w = m.table.weight
    sums = np.zeros(m.n_states)
    for triple in m.triples():
        x, a, b = triple
        mass = pair.f[x][m.actions1[x].index(a)] * pair.g[x][m.actions2[x].index(b)]
        sums[m.state_index(x)] += mass * (discounted_kernel_row(m, triple)[2] @ w)
    return float(np.max(sums / w))


def assert_matches_dense(m, pair, values=None, tol=1e-12):
    if values is None:
        values = evaluate_stationary_pair(m, pair)
    exact = dense_values(m, pair)
    assert np.all(np.abs(values - exact) <= tol * np.maximum(1.0, np.abs(exact)))


@pytest.mark.parametrize(
    "doc", [INVESTMENT_DOC, MIXED_LAWS_DOC, sparse_doc(2000)], ids=["investment", "mixed", "sparse"]
)
def test_evaluation_matches_a_dense_solve(doc):
    # sparse: 8,000 nonzeros against 2000**2 entries, so GMRES refines from R
    m = load_model(json.dumps(doc))
    assert_matches_dense(m, random_pair(np.random.default_rng(5), m))
    assert_matches_dense(m, ShapleyOperator(m).apply(np.zeros(m.n_states))[1])


def spy_on_refinement(monkeypatch) -> list:
    """Whether each GMRES refinement of an evaluation reaches its target, in order."""
    import smgsolve.shapley as shapley

    refine, reached = shapley._refined, []

    def spy(*args):
        v = refine(*args)
        reached.append(v is not None)
        return v

    monkeypatch.setattr(shapley, "_refined", spy)
    return reached


@pytest.mark.parametrize(
    "scale, low, high",
    [(0.008, 0.998, 0.9995), (0.0015, 0.9998, 0.9999), (1e-6, 0.9999998, 0.9999999)],
    ids=["0.999", "0.9998", "1-1e-7"],
)
def test_evaluation_converges_with_the_continuation_norm_near_one(monkeypatch, scale, low, high):
    # from 0.9998 on, the 1e-12 bound asks for a residual below float64's
    # rounding floor; near 1 - 1e-7 GMRES(30) stalls, and the restart grows
    doc = sparse_doc(2000)
    for triple in doc["triples"]:
        triple["alpha"] *= scale
    m = load_model(json.dumps(doc))
    assert check_assumptions(m).passed
    pair = ShapleyOperator(m).apply(np.zeros(m.n_states))[1]
    norm = continuation_norm(m, pair)
    assert low < norm < high
    reached = spy_on_refinement(monkeypatch)
    values = evaluate_stationary_pair(m, pair)
    assert reached == [True]
    # a dense solve is accurate only to about 2**-52 / (1 - ||M||)
    assert_matches_dense(m, pair, values, tol=max(1e-12, 2.0**-52 / (1.0 - norm)))


def test_evaluation_of_a_nearly_undiscounted_model():
    # every continuation factor is 10 / 10.003, about 0.9997
    doc = sparse_doc(2000)
    for triple in doc["triples"]:
        triple["alpha"], triple["sojourn"] = 0.003, {"kind": "exponential", "rate": 10.0}
    m = load_model(json.dumps(doc))
    assert check_assumptions(m).passed
    assert_matches_dense(m, ShapleyOperator(m).apply(np.zeros(m.n_states))[1])


@pytest.mark.parametrize("doc", [INVESTMENT_DOC, sparse_doc(60)], ids=["dense", "sparse"])
@pytest.mark.parametrize("power", [600, 1018])
def test_evaluation_scales_with_the_rewards_up_to_the_float_limit(doc, power):
    # values near 1e181 square past the float range in GMRES's 2-norms, and near
    # 1e307 the system itself nears it; scaling by a power of two moves no bits
    m = load_model(json.dumps(doc))
    pair = random_pair(np.random.default_rng(2), m)
    scaled = json.loads(json.dumps(doc))
    for triple in scaled["triples"]:
        triple["reward"] *= 2.0**power
    values = evaluate_stationary_pair(load_model(json.dumps(scaled)), pair)
    np.testing.assert_array_equal(values, evaluate_stationary_pair(m, pair) * 2.0**power)


def test_values_beyond_the_float_range_raise_naming_the_state():
    m = load_model(json.dumps(scaled_rewards_doc(1e308)))
    message = "values beyond the float64 range: the pair's value at state '1' overflows"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        evaluate_stationary_pair(m, uniform_pair(m))


def test_a_payoff_rate_beyond_the_float_range_raises_naming_the_triple():
    # d is about 9.5, so r * d is about 9.5e308
    doc = {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": 0.01, "reward": 1e308,
             "sojourn": {"kind": "deterministic", "duration": 10.0}, "transition": {"s": 1.0}}
        ],
    }
    m = load_model(json.dumps(doc))
    message = "values beyond the float64 range: the payoff rate r * d of triple ('s', 'a', 'b') overflows"
    for run in (lambda: value_iterate(m, 1e-6), lambda: evaluate_stationary_pair(m, uniform_pair(m))):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            run()


def test_evaluation_converges_where_gmres_30_stalls(monkeypatch):
    # half the states form a closed class whose discount rates are 1e-7 of the
    # others': I - M has many eigenvalues near 0, and GMRES(30) stalls on it
    rng = np.random.default_rng(1)
    doc = sparse_doc(200)
    for triple in doc["triples"][: 4 * 100]:
        triple["alpha"] *= 1e-7
        succ = rng.choice(100, size=2, replace=False)
        triple["transition"] = {f"s{y}": float(q) for y, q in zip(succ, rng.dirichlet([1, 1]))}
    m = load_model(json.dumps(doc))
    assert check_assumptions(m).passed
    pair = ShapleyOperator(m).apply(np.zeros(m.n_states))[1]  # 400 nonzeros: starts sparse
    reached = spy_on_refinement(monkeypatch)
    values = evaluate_stationary_pair(m, pair)
    assert reached == [True]
    assert_matches_dense(m, pair, values, tol=2.0**-52 / (1.0 - continuation_norm(m, pair)))


def test_evaluation_of_a_slowly_mixing_ring_solves_no_dense_system(monkeypatch):
    # a birth-death ring with eta_gamma 0.999997, on which GMRES(30) stalls
    m = load_model(json.dumps(ring_doc(2000, 1e-4)))
    pair = random_pair(np.random.default_rng(5), m)
    system, rewards = dense_system(m, pair)
    exact = np.linalg.solve(system, rewards)
    norm = continuation_norm(m, pair)
    solve = np.linalg.solve

    def no_dense_solve(a, b):
        if np.shape(a) == system.shape:
            pytest.fail("a states x states system was solved")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    values = evaluate_stationary_pair(m, pair)
    # the bound of evaluate_stationary_pair with unit weights: a row of the
    # residual sums four terms and the pair's 8 nonzeros (4 triples x 2 successors)
    size = float(np.abs(values).max())
    rho = 12 * 2.0**-53 * (float(np.abs(rewards).max()) + 2.0 * size)
    assert np.abs(values - exact).max() <= max(1e-12 * max(1.0, size), 2.0 * rho / (1.0 - norm))


def test_evaluation_falls_back_to_unit_weights():
    # from x the pair moves to y, which weighs 100: ||M||_omega is 50, ||M||_inf 0.5
    doc = {
        "states": ["x", "y"],
        "actions1": {"x": ["a"], "y": ["a"]},
        "actions2": {"x": ["b"], "y": ["b"]},
        "weight": {"x": 1.0, "y": 100.0},
        "triples": [
            {"state": x, "a": "a", "b": "b", "alpha": 1.0, "reward": 1.0,
             "sojourn": {"kind": "exponential", "rate": 1.0}, "transition": {"y": 1.0}}
            for x in ("x", "y")
        ],
    }
    m = load_model(json.dumps(doc))
    pair = pure_pair(m)
    assert continuation_norm(m, pair) == 50.0
    np.testing.assert_allclose(evaluate_stationary_pair(m, pair), [1.0, 1.0], rtol=1e-15)


def test_evaluation_without_a_contracting_norm_names_the_triple():
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["triples"][0]["alpha"] = 1e-20  # rate / (alpha + rate) rounds to exactly 1
    m = load_model(json.dumps(doc))
    with pytest.raises(ArithmeticError) as err:
        evaluate_stationary_pair(m, pure_pair(m))
    assert str(err.value) == (
        "the pair's continuation weights sum to 1.0 at state 'only', so its evaluation has no "
        "error bound; some continuation factor is not below 1 "
        "(largest: 1.0 at triple ('only', 'stay', 'stay'))"
    )


def test_evaluation_raises_when_gmres_does_not_reach_the_bound(monkeypatch):
    import smgsolve.shapley as shapley

    monkeypatch.setattr(shapley, "GMRES_CYCLES", 0)
    m = load_model(json.dumps(sparse_doc(50)))  # 100 nonzeros played, below 50**2: starts at R
    with pytest.raises(ArithmeticError, match=r"^pair evaluation did not reach its error bound "
                       r"within 0 GMRES cycles \(\|\|M\|\| = 0\.\d+\)$"):
        evaluate_stationary_pair(m, pure_pair(m))


def assert_within_the_bound(m, pair, values):
    """``values`` meet the bound of ``evaluate_stationary_pair`` against a dense solve."""
    w = m.table.weight
    system, rewards = dense_system(m, pair)
    exact = np.linalg.solve(system, rewards)
    norm = continuation_norm(m, pair)
    size = omega_norm(values, w)
    # a row of the residual sums four terms besides the nonzeros of the triples it plays
    f, g = _pair_arrays(m, pair)
    played = f[m._operator.f_slot] * g[m._operator.g_slot] != 0
    terms = 4 + np.bincount(m.table.state, weights=played * np.diff(m.table.indptr)).max()
    rho = terms * 2.0**-53 * (omega_norm(rewards, w) + 2.0 * size)
    error = omega_norm(values - exact, w)
    assert error <= max(1e-12 * max(1.0, size), 2.0 * rho / (1.0 - norm))


def spy_on_certification(monkeypatch) -> list:
    """The start and the result of each pair evaluation ``certify_solution`` makes, in order."""
    import smgsolve.solver as solver

    evaluate, calls = solver._evaluate_with, []

    def spy(op, f, g, start=None):
        calls.append((start, evaluate(op, f, g, start)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "_evaluate_with", spy)
    return calls


def cold_certification(monkeypatch, m, report, tol):
    """``certify_solution`` with its evaluation started from ``R``, as ``evaluate_stationary_pair`` does."""
    import smgsolve.solver as solver

    with monkeypatch.context() as patch:
        evaluate = solver._evaluate_with
        patch.setattr(solver, "_evaluate_with", lambda op, f, g, start=None: evaluate(op, f, g))
        return certify_solution(m, report, tol)


@pytest.mark.parametrize("doc", [
    sparse_doc(300),
    ring_doc(500, 0.01),
    *(sparse_doc(200, seed=seed, successors=3) for seed in (1, 2, 3)),
], ids=["sparse-300", "ring-500", "random-1", "random-2", "random-3"])  # fmt: skip
def test_certification_from_the_solvers_iterate_matches_a_cold_start(monkeypatch, doc):
    m = load_model(json.dumps(doc))
    report = value_iterate(m, 1e-6)
    iterate = report.epsilon_value.copy()
    tol = 2.0 * report.epsilon_nash
    calls = spy_on_certification(monkeypatch)
    warm = certify_solution(m, report, tol)
    assert report.epsilon_value.tobytes() == iterate.tobytes()  # the start is read, never written
    ((start, values),) = calls
    assert start is report.epsilon_value
    cold = cold_certification(monkeypatch, m, report, tol)
    assert warm.passed == cold.passed
    # each evaluation is within the bound of the pair's value, so the two
    # within twice it, and a gain, which moves with u and with lam * p @ u, within 4 times
    w = m.table.weight
    cold_values = evaluate_stationary_pair(m, report.equilibrium)
    size = max(1.0, omega_norm(cold_values, w))
    assert omega_norm(values - cold_values, w) <= 2e-12 * size
    gains = np.array(list(warm.per_state.values())) - np.array(list(cold.per_state.values()))
    assert omega_norm(gains, w) <= 4e-12 * size
    assert_within_the_bound(m, report.equilibrium, values)


def count_gmres_products(monkeypatch) -> list:
    """One entry per product a GMRES cycle takes, over every evaluation that follows."""
    import smgsolve.shapley as shapley

    cycle, products = shapley._gmres_cycle, []

    def counted(apply, *args):
        return cycle(lambda v: products.append(None) or apply(v), *args)

    monkeypatch.setattr(shapley, "_gmres_cycle", counted)
    return products


def test_certification_from_the_iterate_takes_under_half_the_cold_products(monkeypatch):
    # the slowly mixing ring: eta_gamma 0.9997, where GMRES from R takes hundreds of products
    m = load_model(json.dumps(ring_doc(500, 0.01)))
    report = value_iterate(m, 1e-6)
    products = count_gmres_products(monkeypatch)
    cold = cold_certification(monkeypatch, m, report, 2.0 * report.epsilon_nash)
    cold_products = len(products)
    products.clear()
    warm = certify_solution(m, report, 2.0 * report.epsilon_nash)
    assert warm.passed and cold.passed
    assert 0 < 2 * len(products) < cold_products


def test_evaluation_from_a_distant_start_meets_the_bound():
    for doc in (sparse_doc(300), ring_doc(500, 0.01)):
        m = load_model(json.dumps(doc))
        pair = random_pair(np.random.default_rng(5), m)
        start = 1e6 * np.ones(m.n_states)
        values = _evaluate_with(m._operator, *_pair_arrays(m, pair), start)
        assert np.array_equal(start, 1e6 * np.ones(m.n_states))
        assert_within_the_bound(m, pair, values)


def test_certification_of_a_corrupted_pair_from_the_iterate_meets_the_bound(monkeypatch):
    # the solver's iterate is far from the value of a pair with a wrong column
    m = load_model(json.dumps(sparse_doc(300)))
    report = value_iterate(m, 1e-6)
    wrong_g = {x: g[::-1].copy() for x, g in report.equilibrium.g.items()}
    corrupted = StationaryStrategyPair(f=report.equilibrium.f, g=wrong_g)
    calls = spy_on_certification(monkeypatch)
    bad = certify_solution(m, SolveReportProxy(report, corrupted), 2.0 * report.epsilon_nash)
    assert not bad.passed and bad.worst_violation > 0.1
    ((start, values),) = calls
    assert omega_norm(values - start, m.table.weight) > 0.1
    assert_within_the_bound(m, corrupted, values)


def test_the_operator_is_built_once_per_model(monkeypatch):
    import smgsolve.shapley as shapley

    builds = []
    init = shapley.ShapleyOperator.__init__
    monkeypatch.setattr(
        shapley.ShapleyOperator, "__init__", lambda op, m: builds.append(m) or init(op, m)
    )
    m = load_model(json.dumps(INVESTMENT_DOC))
    report = value_iterate(m, 1e-4)
    certify_solution(m, report, 1e-3)
    evaluate_stationary_pair(m, report.equilibrium)
    estimate_value(m, report.equilibrium, "1", trajectories=10, seed=0)
    assert len(builds) == 1 and builds[0] is m


def test_a_solved_model_is_freed_by_reference_counting():
    import gc
    import weakref

    # the model caches its operator, which must not point back at the model
    m = load_model(json.dumps(INVESTMENT_DOC))
    report = value_iterate(m, 1e-4)
    certify_solution(m, report, 1e-3)
    estimate_value(m, report.equilibrium, "1", trajectories=10, seed=0)
    model = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert model() is None
    finally:
        gc.enable()


def test_contraction_in_the_certified_modulus():
    rng = np.random.default_rng(23)
    done = 0
    while done < 40:
        m = random_model(rng, unit_weight=bool(rng.integers(0, 2)))
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
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)
        if all(wx == 1.0 for wx in w):
            assert lhs <= cert.lambda_max * omega_norm(u - v, w) + 1e-12


def test_contraction_in_the_models_own_modulus():
    rng = np.random.default_rng(24)
    done = reached = 0
    while done < 40:
        # one action each on some models, where a shift by omega reaches the modulus
        m = random_model(rng, max_actions=int(rng.integers(1, 5)), unit_weight=False)
        cert = check_assumptions(m)
        if not cert.passed:
            continue
        done += 1
        w, op = m.table.weight, ShapleyOperator(m)
        u = rng.normal(size=m.n_states) * 10.0
        tu, _ = op.apply(u)
        alone = (m.table.rows == 1).all() and (m.table.cols == 1).all()
        for shift, v in ((False, rng.normal(size=m.n_states) * 10.0), (True, u + w), (True, u - 3.0 * w)):
            tv, _ = op.apply(v)
            lhs = omega_norm(tu - tv, w)
            rhs = cert.modulus * omega_norm(u - v, w)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)
            if alone and shift:
                assert lhs == pytest.approx(rhs, rel=1e-12)
            reached += alone and shift
    assert reached >= 4


def test_operator_monotonicity():
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = random_model(rng)
        u = rng.normal(size=m.n_states) * 5.0
        v = u + rng.uniform(0.0, 3.0, size=m.n_states)
        op = ShapleyOperator(m)
        tu, _ = op.apply(u)
        tv, _ = op.apply(v)
        assert np.all(tu <= tv + 1e-12)


def test_constant_shift_bounds_with_unit_weights():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = random_model(rng, unit_weight=True)
        lams = [law_of(m, t).continuation(alpha_of(m, t)) for t in m.triples()]
        lam_min, lam_max = min(lams), max(lams)
        u = rng.normal(size=m.n_states) * 5.0
        c = float(rng.uniform(0.0, 4.0))
        op = ShapleyOperator(m)
        tu, _ = op.apply(u)
        shifted, _ = op.apply(u + c)
        assert np.all(shifted >= tu + c * lam_min - 1e-10)
        assert np.all(shifted <= tu + c * lam_max + 1e-10)


def test_minimax_equals_maximin_at_every_state(investment_model):
    # the per-state game value is the same whichever player optimizes first
    u = np.array([2.0, -1.0, 0.5])
    for x in investment_model.states:
        c = payoff_matrix(investment_model, u, x)
        maximin = solve_matrix_game(c).value
        minimax = -solve_matrix_game(-c.T).value
        assert maximin == pytest.approx(minimax, abs=1e-9)


def test_warm_start_from_a_distant_pair_matches_the_cold_apply(simplex_calls):
    rng = np.random.default_rng(53)
    states = warm_solved = 0
    for _ in range(30):
        m = random_model(rng, max_actions=5)
        op = ShapleyOperator(m)
        _, _, guess = op._solve(rng.normal(size=m.n_states) * 20.0)
        u = rng.normal(size=m.n_states) * 20.0
        cold, _ = op.apply(u)
        simplex_calls.clear()
        warm, strategies, _ = op._solve(u, guess)
        pair = op._pair(*strategies)
        states += m.n_states
        warm_solved += m.n_states - len(simplex_calls)
        for xi, x in enumerate(m.states):
            c = payoff_matrix(m, u, x)
            scale = max(1.0, float(np.max(np.abs(c))))
            assert warm[xi] == pytest.approx(solve_matrix_game(c).value, abs=1e-9 * scale)
            assert warm[xi] == pytest.approx(cold[xi], abs=1e-9 * scale)
            ok, violation = verify_saddle_point(c, pair.f[x], pair.g[x], 1e-9 * scale)
            assert ok, violation
    assert 0 < warm_solved < states  # both the equalizer and the simplex ran


def test_a_warm_application_makes_one_equalize_per_support_size_and_one_acceptance_test(
    monkeypatch, simplex_calls
):
    import smgsolve.matrixgame as matrixgame

    rng = np.random.default_rng(61)
    m = load_model(json.dumps(games_doc(rng.normal(size=(40, 10, 10)).tolist())))
    op = ShapleyOperator(m)
    _, (f, _), warm = op._solve(np.zeros(m.n_states))
    sizes = set(np.count_nonzero(f.reshape(40, 10), axis=1).tolist())
    assert len(sizes) >= 3
    blocks, tests = [], []
    equalize, exploitability = matrixgame.equalize, matrixgame.exploitability
    monkeypatch.setattr(
        matrixgame, "equalize", lambda sub, system: blocks.append(sub.shape[1]) or equalize(sub, system)
    )
    monkeypatch.setattr(
        matrixgame, "exploitability", lambda *args: tests.append(len(args[0])) or exploitability(*args)
    )
    simplex_calls.clear()
    op._solve(rng.normal(size=m.n_states), warm)
    assert simplex_calls == []  # every game kept its previous support
    assert blocks == sorted(sizes)
    assert tests == [40]


@pytest.mark.parametrize("player", [0, 1])
def test_an_exact_zero_inside_a_support_rebuilds_the_carried_plan(player, simplex_calls):
    # diag(1, 2, 3, 4) is solved on its full support; 4x4 is above the enumerated shapes
    m = load_model(json.dumps(games_doc([np.diag([1.0, 2.0, 3.0, 4.0]).tolist()])))
    op = ShapleyOperator(m)
    u = np.array([0.0])
    _, _, warm = op._solve(u)
    _, _, warm = op._solve(u, warm)
    x, y, plan = warm[0]
    assert plan is not None and np.count_nonzero(x) == np.count_nonzero(y) == 4
    (x, y)[player][0, 0] = 0.0  # a 3-by-4 support: no warm candidate, where the stale plan would pass
    simplex_calls.clear()
    got, got_pair, got_warm = op._solve(u, warm)
    assert len(simplex_calls) == 1
    assert got_warm[0][2] is not plan
    want, want_pair, want_warm = op._solve(u, ((x, y, None),))  # a fresh token of the same stacks
    assert got.tobytes() == want.tobytes()
    assert got_pair[0].tobytes() == want_pair[0].tobytes()
    assert got_pair[1].tobytes() == want_pair[1].tobytes()
    assert got_warm[0][2][0] == want_warm[0][2][0]  # the masks


def games_doc(matrices) -> dict:
    """One state per matrix, whose ``C(0, x)`` is that matrix exactly.

    Direct weights with ``d = 1`` and ``lam = 0.5`` make each entry the
    reward; every state returns to itself.
    """
    states = [f"s{i}" for i in range(len(matrices))]
    return {
        "states": states,
        "actions1": {x: [f"a{i}" for i in range(len(c))] for x, c in zip(states, matrices)},
        "actions2": {x: [f"b{j}" for j in range(len(c[0]))] for x, c in zip(states, matrices)},
        "triples": [
            {"state": x, "a": f"a{i}", "b": f"b{j}", "alpha": 0.5, "reward": float(r),
             "sojourn": {"kind": "direct", "d": 1.0, "lam": 0.5}, "transition": {x: 1.0}}
            for x, c in zip(states, matrices)
            for i, row in enumerate(c)
            for j, r in enumerate(row)
        ],
    }


def duplicated_game(duplicated: str, size: int) -> list[list[float]]:
    """A ``size x size`` game whose first two rows (or columns) are equal."""
    base = np.array([[3.0, -1.0, 2.0, 0.0], [-2.0, 4.0, 1.0, 1.0],
                     [0.0, 1.0, -3.0, 2.0], [1.0, -2.0, 0.5, 3.0]])[:size, :size]
    base[1] = base[0]
    return (base if duplicated == "rows" else base.T).tolist()


@pytest.mark.parametrize("duplicated", ["rows", "columns"])
def test_singular_guessed_support_falls_back_to_the_simplex(duplicated, simplex_calls):
    # 4x4 is above the enumerated shapes, so only the guess and the simplex can solve it
    m = load_model(json.dumps(games_doc([duplicated_game(duplicated, 4)])))
    op = ShapleyOperator(m)
    guess = StationaryStrategyPair(f={"s0": np.full(4, 0.25)}, g={"s0": np.full(4, 0.25)})
    u = np.array([0.0])
    cold, cold_pair = op.apply(u)
    simplex_calls.clear()
    warm, strategies, _ = op._solve(u, warm_token(op, *_pair_arrays(m, guess)))
    pair = op._pair(*strategies)
    assert len(simplex_calls) == 1
    np.testing.assert_array_equal(warm, cold)
    np.testing.assert_array_equal(pair.f["s0"], cold_pair.f["s0"])
    np.testing.assert_array_equal(pair.g["s0"], cold_pair.g["s0"])


@pytest.mark.parametrize("duplicated", ["rows", "columns"])
def test_singular_guessed_support_falls_back_to_the_enumerated_supports(duplicated, simplex_calls):
    m = load_model(json.dumps(games_doc([duplicated_game(duplicated, 2)])))
    op = ShapleyOperator(m)
    guess = StationaryStrategyPair(f={"s0": np.array([0.5, 0.5])}, g={"s0": np.array([0.5, 0.5])})
    u = np.array([0.0])
    cold, cold_pair = op.apply(u)
    simplex_calls.clear()
    warm, strategies, _ = op._solve(u, warm_token(op, *_pair_arrays(m, guess)))
    pair = op._pair(*strategies)
    # the full 2x2 support is singular, so the result must come from a smaller one
    assert min(np.count_nonzero(pair.f["s0"]), np.count_nonzero(pair.g["s0"])) == 1
    assert simplex_calls == []
    np.testing.assert_array_equal(warm, cold)
    np.testing.assert_array_equal(pair.f["s0"], cold_pair.f["s0"])
    np.testing.assert_array_equal(pair.g["s0"], cold_pair.g["s0"])


def small_games(rng, n_rows, n_cols) -> list[np.ndarray]:
    """Random and degenerate ``n_rows x n_cols`` games."""
    games = [rng.normal(size=(n_rows, n_cols)) * 10.0 for _ in range(20)]
    games += [rng.integers(-2, 3, size=(n_rows, n_cols)).astype(float) for _ in range(40)]
    games.append(np.full((n_rows, n_cols), 1.5))
    for _ in range(5):
        g = rng.normal(size=(n_rows, n_cols))
        g[-1] = g[0]
        games.append(g.copy())
        g = rng.normal(size=(n_rows, n_cols))
        g[:, -1] = g[:, 0]
        games.append(g)
    return games


@pytest.mark.parametrize("n_rows", [1, 2, 3])
@pytest.mark.parametrize("n_cols", [1, 2, 3])
def test_enumerated_supports_solve_every_small_game(n_rows, n_cols, simplex_calls):
    rng = np.random.default_rng(100 + 10 * n_rows + n_cols)
    games = small_games(rng, n_rows, n_cols)
    m = load_model(json.dumps(games_doc([g.tolist() for g in games])))
    op = ShapleyOperator(m)
    u = np.zeros(m.n_states)
    values, pair = op.apply(u)
    assert simplex_calls == []
    for xi, x in enumerate(m.states):
        c = payoff_matrix(m, u, x)
        np.testing.assert_array_equal(c, games[xi])
        scale = max(1.0, float(np.max(np.abs(c))))
        assert abs(values[xi] - solve_matrix_game(c).value) <= 1e-12 * scale
        ok, violation = verify_saddle_point(c, pair.f[x], pair.g[x], 1e-12 * scale)
        assert ok, (x, violation)
    again, again_pair = op.apply(u)
    np.testing.assert_array_equal(again, values)
    for x in m.states:
        np.testing.assert_array_equal(again_pair.f[x], pair.f[x])
        np.testing.assert_array_equal(again_pair.g[x], pair.g[x])


def test_value_iteration_on_2x2_states_never_reaches_the_simplex(simplex_calls):
    m = load_model(json.dumps(sparse_doc(2000)))
    report = value_iterate(m, 1e-6)
    assert len(report.error_trace) > 1
    assert simplex_calls == []


def test_a_simplex_failure_names_the_state(monkeypatch):
    failing_simplex(monkeypatch, [0])
    games = [duplicated_game("rows", 2), duplicated_game("rows", 4)]
    op = ShapleyOperator(load_model(json.dumps(games_doc(games))))
    with pytest.raises(MatrixGameError, match="^state 's1': exact answer failed the acceptance test$"):
        op.apply(np.zeros(2))


def test_two_simplex_failures_in_one_stack_name_the_first_state(monkeypatch):
    # s0 is solved by enumeration; s1..s3 go to the simplex as one stack
    failing_simplex(monkeypatch, [2, 1])
    games = [duplicated_game("rows", 2)] + [duplicated_game(d, 4) for d in ("rows", "columns", "rows")]
    op = ShapleyOperator(load_model(json.dumps(games_doc(games))))
    with pytest.raises(MatrixGameError) as info:
        op.apply(np.zeros(4))
    assert str(info.value) == "state 's2': exact answer failed the acceptance test"
