"""Monte Carlo simulator: sampling laws, parity, and oracle agreement."""

import hashlib
import json
import math
import re
import time

import numpy as np
import pytest

from smgsolve import (
    Deterministic,
    DirectWeights,
    Exponential,
    NotSamplableError,
    StationaryStrategyPair,
    Uniform,
    estimate_value,
    evaluate_stationary_pair,
    load_model,
    simulate_trajectory,
    trajectory_rng,
    value_iterate,
)

from smgsolve.simulate import _columns, _row_cumsum

from conftest import (
    alpha_of,
    law_of,
    random_model,
    random_pair,
    scaled_rewards_doc,
    sparse_doc,
    transition_of,
    uniform_pair,
)


def holding_time(law, rng):
    """One holding-time draw: one uniform for every law, the deterministic one included."""
    return float(law.holding_time(rng.random(), law.param))


def test_deterministic_sojourn_is_constant():
    rng = np.random.default_rng(0)
    draws = [holding_time(Deterministic(duration=2.0), rng) for _ in range(50)]
    assert draws == [2.0] * 50


def test_exponential_sojourn_mean():
    rng = np.random.default_rng(1)
    draws = np.array([holding_time(Exponential(rate=20.0), rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.05) <= 3.0 * se


def test_uniform_sojourn_mean():
    rng = np.random.default_rng(2)
    draws = np.array([holding_time(Uniform(upper=0.34), rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.17) <= 3.0 * se


def test_direct_weights_not_samplable(single_state_model):
    rng = np.random.default_rng(3)
    with pytest.raises(NotSamplableError):
        holding_time(DirectWeights(d=0.5, lam=0.75), rng)
    doc = {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": 1.0, "reward": 1.0,
             "sojourn": {"kind": "direct", "d": 0.5, "lam": 0.5}, "transition": {"s": 1.0}}
        ],
    }
    m = load_model(json.dumps(doc))
    pair = value_iterate(m, 1e-8).equilibrium
    with pytest.raises(NotSamplableError, match="direct weights"):
        simulate_trajectory(m, pair, "s", rng)
    with pytest.raises(NotSamplableError):
        estimate_value(m, pair, "s", trajectories=10, seed=0)
    # a malformed pair raises first, then the model, then an unknown start state
    bad = StationaryStrategyPair(f={"s": np.array([0.5])}, g=pair.g)
    for run in (simulate_trajectory, lambda *args: estimate_value(*args[:3], 10, 0)):
        with pytest.raises(ValueError, match=r"^f\['s'\] is not a probability vector"):
            run(m, bad, "nowhere", rng)
        with pytest.raises(NotSamplableError):
            run(m, pair, "nowhere", rng)


@pytest.mark.parametrize(
    "states, row, drawn",
    [
        (["x", "y", "w", "z"], {"x": 0.7, "y": 0.2, "w": 0.1}, "w"),
        (["z", "y", "w", "x"], {"y": 0.7, "w": 0.2, "x": 0.1}, "x"),  # x's row is the last
    ],
)
def test_a_zero_probability_successor_is_never_drawn(states, row, drawn):
    # from x the row's running sums end at 0.9999999999999999, below 1; a
    # uniform above that must still land on the row's last nonzero, never at
    # z and never in the next triple's row
    u = np.nextafter(1.0, 0.0)
    assert math.fsum([0.7, 0.2, 0.1]) == 1.0 and 0.7 + 0.2 + 0.1 == u

    class ConstantStream:
        def random(self, n):
            return np.full(n, u)

    rows = {"x": row, "y": {"y": 1.0}, "w": {"w": 1.0}, "z": {"z": 1.0}}
    doc = {
        "states": states,
        "actions1": {s: ["a"] for s in states},
        "actions2": {s: ["b"] for s in states},
        "triples": [
            {"state": s, "a": "a", "b": "b", "alpha": 1.0, "reward": 100.0 if s == "z" else 0.0,
             "sojourn": {"kind": "deterministic", "duration": 0.1}, "transition": rows[s]}
            for s in states
        ],
    }
    m = load_model(json.dumps(doc))
    one = np.ones(1)
    pair = StationaryStrategyPair(f={s: one for s in states}, g={s: one for s in states})
    tid = np.array([m.table.where[("x", "a", "b")]])
    assert m._sampling.successor(tid, np.array([u])).tolist() == [m.state_index(drawn)]
    payoff, _ = simulate_trajectory(m, pair, "x", ConstantStream())
    assert payoff == 0.0  # the second sojourn at z would have earned 100 * (1 - e^-0.1) * e^-0.1


def test_a_zero_probability_action_is_never_drawn():
    # x's strategy sums to 0.9999999999999999 before its trailing zero; a
    # uniform above that sum must still play a2, never the zero-probability
    # a3, the only action that pays
    u = np.nextafter(1.0, 0.0)

    class ConstantStream:
        def random(self, n):
            return np.full(n, u)

    doc = {
        "states": ["x", "y"],
        "actions1": {"x": ["a0", "a1", "a2", "a3"], "y": ["a0"]},
        "actions2": {"x": ["b"], "y": ["b"]},
    }
    doc["triples"] = [
        {"state": x, "a": a, "b": "b", "alpha": 1.0, "reward": 100.0 if a == "a3" else 0.0,
         "sojourn": {"kind": "deterministic", "duration": 0.1}, "transition": {"y": 1.0}}
        for x in ("x", "y") for a in doc["actions1"][x]
    ]
    m = load_model(json.dumps(doc))
    one = np.ones(1)
    f = {"x": np.array([0.7, 0.2, 0.1, 0.0]), "y": one}
    pair = StationaryStrategyPair(f=f, g={"x": one, "y": one})
    cols = _columns(m, pair)
    tid = m._sampling.triple(cols, np.array([m.state_index("x")]), np.array([u]), np.array([u]))
    assert [m.table.labels[i] for i in tid] == [("x", "a2", "b")]
    payoff, _ = simulate_trajectory(m, pair, "x", ConstantStream())
    assert payoff == 0.0  # a3 would have earned 100 * (1 - e^-0.1) in the first sojourn


def test_action_draws_match_a_search_of_the_dense_cumulative_rows():
    # reference: np.cumsum over each dense strategy row, then the count of
    # entries <= u, capped at the row's last positive action
    widths = {"w1": (1, 10), "w2": (2, 3), "w3": (3, 2), "w10": (10, 1)}
    states = list(widths)
    doc = {
        "states": states,
        "actions1": {x: [f"a{i}" for i in range(n)] for x, (n, _) in widths.items()},
        "actions2": {x: [f"b{j}" for j in range(k)] for x, (_, k) in widths.items()},
    }
    doc["triples"] = [
        {"state": x, "a": a, "b": b, "alpha": 1.0, "reward": 1.0,
         "sojourn": {"kind": "exponential", "rate": 1.0}, "transition": {x: 1.0}}
        for x in states for a in doc["actions1"][x] for b in doc["actions2"][x]
    ]
    m = load_model(json.dumps(doc))
    rng = np.random.default_rng(12)

    def strategy(n):
        v = rng.uniform(0.05, 1.0, size=n)
        v[rng.random(n) < 0.4] = 0.0
        v[-1] = 0.0 if n > 1 else 1.0  # a trailing zero wherever there is room
        if not v.any():
            v[0] = 1.0
        return v / v.sum()

    f = {x: strategy(n) for x, (n, _) in widths.items()}
    g = {x: strategy(k) for x, (_, k) in widths.items()}
    f["w10"] = np.array([0.7, 0.2, 0.1] + [0.0] * 7)  # sums to just below 1 before its zeros
    g["w1"] = np.array([0.5, 0.0, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    cols = _columns(m, StationaryStrategyPair(f=f, g=g))

    top = np.nextafter(1.0, 0.0)

    def probes(s):
        # each running sum, just above each, the largest uniform and random ones
        c = np.cumsum(s)
        return np.minimum(np.concatenate([c, np.nextafter(c, 2.0), [top], rng.random(8)]), top)

    def reference(s, u):
        return min(int((np.cumsum(s) <= u).sum()), int(np.flatnonzero(s > 0.0)[-1]))

    state, ua, ub, expected = [], [], [], []
    for x in states:
        for pa in probes(f[x]):
            for pb in probes(g[x]):
                state.append(m.state_index(x))
                ua.append(pa)
                ub.append(pb)
                a, b = reference(f[x], pa), reference(g[x], pb)
                expected.append(m.table.where[(x, f"a{a}", f"b{b}")])
    tid = m._sampling.triple(cols, np.array(state), np.array(ua), np.array(ub))
    np.testing.assert_array_equal(tid, expected)


def test_successor_draws_match_a_search_of_the_dense_cumulative_rows():
    # reference: np.cumsum over each dense row, then the count of entries <= u;
    # at or above a row's total the draw is the row's last nonzero
    m = load_model(json.dumps(sparse_doc(60, seed=5, successors=11)))  # 4 search steps
    rng = np.random.default_rng(8)
    _columns(m, random_pair(rng, m))  # the pair takes its draws from rng before the probes do
    rows = np.array([transition_of(m, t) for t in m.triples()])
    dense = np.cumsum(rows, axis=1)
    last = np.array([np.flatnonzero(row)[-1] for row in rows])
    tid = rng.integers(0, len(dense), size=20_000)
    u = rng.random(20_000)
    u[::2] = dense[tid[::2], rng.integers(0, m.n_states, size=10_000)]  # ties with a running sum
    u[1::8] = dense[tid[1::8], -1]  # the row's total
    u[3::8] = np.nextafter(dense[tid[3::8], -1], 2.0)  # just above it
    expected = np.where(u < dense[tid, -1], (dense[tid] <= u[:, None]).sum(axis=1), last[tid])
    np.testing.assert_array_equal(m._sampling.successor(tid, u), expected)


def test_row_running_sums_match_a_plain_left_to_right_sum_per_row():
    rng = np.random.default_rng(21)
    nnz = rng.integers(1, 7, size=400)
    nnz[[3, 250]] = 40
    nnz[117] = 5000  # rows far wider than the rest
    nnz[301] = 30000
    indptr = np.concatenate(([0], np.cumsum(nnz)))
    values = rng.random(indptr[-1])
    want = np.empty_like(values)
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        total = 0.0
        for i in range(lo, hi):
            total += float(values[i])
            want[i] = total
    assert _row_cumsum(indptr, values).tobytes() == want.tobytes()


def test_single_state_trajectory_telescopes(single_state_model):
    pair = value_iterate(single_state_model, 1e-10).equilibrium
    for i in range(10):
        payoff, tail = simulate_trajectory(
            single_state_model, pair, "only", trajectory_rng(11, i)
        )
        # every sojourn contributes 4*(D_n - D_{n+1}) here, so the sum plus the
        # tail bound telescopes to exactly r/alpha
        assert payoff + tail == pytest.approx(4.0, abs=1e-12)
        assert tail <= 4.0 * 1e-8 * math.e  # floor times one sojourn of slack


def test_zero_payoff_model_realizes_zero():
    doc = {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": 1.0, "reward": 0.0,
             "sojourn": {"kind": "exponential", "rate": 1.0}, "transition": {"s": 1.0}}
        ],
    }
    m = load_model(json.dumps(doc))
    pair = value_iterate(m, 1e-8).equilibrium
    payoff, tail = simulate_trajectory(m, pair, "s", trajectory_rng(0, 0))
    assert payoff == 0.0 and tail == 0.0


def test_sojourn_cap_ends_trajectories_whose_discount_never_decays():
    # alpha * tau underflows to 0, so the discount stays 1 at every sojourn
    alpha = 1e-200
    doc = {
        "states": ["s"],
        "actions1": {"s": ["a"]},
        "actions2": {"s": ["b"]},
        "triples": [
            {"state": "s", "a": "a", "b": "b", "alpha": alpha, "reward": 1.0,
             "sojourn": {"kind": "deterministic", "duration": 1e-200}, "transition": {"s": 1.0}}
        ],
    }
    m = load_model(json.dumps(doc))
    pair = StationaryStrategyPair(f={"s": np.ones(1)}, g={"s": np.ones(1)})
    started = time.perf_counter()
    est = estimate_value(m, pair, "s", trajectories=2, seed=0)
    assert time.perf_counter() - started < 10.0
    assert est.truncation_bound >= 1.0 / alpha


def test_an_estimate_beyond_the_float_range_raises_naming_the_start_state():
    # the payoffs are near 1e308, so their sum overflows, and so does the tail coefficient
    m = load_model(json.dumps(scaled_rewards_doc(1e307)))
    message = "values beyond the float64 range: the Monte Carlo estimate from state '1' overflows"
    for pair in (value_iterate(m, 1e-6).equilibrium, uniform_pair(m)):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            estimate_value(m, pair, "1", trajectories=1000, seed=0)
    huge = load_model(json.dumps(scaled_rewards_doc(1e308)))
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        simulate_trajectory(huge, uniform_pair(huge), "1", trajectory_rng(0, 0))


@pytest.mark.parametrize("factor", [1e200, 1e306])
def test_an_estimate_whose_statistics_overflow_on_finite_payoffs_is_finite(factor):
    # at 1e200 the squared deviations overflow, at 1e306 the sum of the payoffs too;
    # every payoff is the unscaled one times factor, so the statistics are as well
    m = load_model(json.dumps(scaled_rewards_doc(factor)))
    pair = value_iterate(m, 1e-6).equilibrium
    est = estimate_value(m, pair, "1", trajectories=1000, seed=0)
    base = estimate_value(load_model(json.dumps(scaled_rewards_doc(1.0))), pair, "1", 1000, 0)
    assert est.mean == pytest.approx(factor * base.mean, rel=1e-12)
    assert est.std_error == pytest.approx(factor * base.std_error, rel=1e-12)
    assert est.truncation_bound == pytest.approx(factor * base.truncation_bound, rel=1e-12)
    exact = evaluate_stationary_pair(m, pair)[0]
    assert abs(est.mean - exact) < 4.0 * est.std_error


def test_serial_and_batched_runs_are_identical(investment_model):
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    serial = np.array(
        [simulate_trajectory(investment_model, pair, "2", trajectory_rng(7, i))[0] for i in range(64)]
    )
    est = estimate_value(investment_model, pair, "2", trajectories=64, seed=7)
    assert est.mean == serial.mean()
    assert est.std_error == serial.std(ddof=1) / 8.0


def test_estimate_does_not_depend_on_batch_size(investment_model, monkeypatch):
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    reference = estimate_value(investment_model, pair, "3", trajectories=50, seed=31)
    import smgsolve.simulate as sim
    monkeypatch.setattr(sim, "_BATCH", 7)
    assert estimate_value(investment_model, pair, "3", trajectories=50, seed=31) == reference


# estimate_value(..., trajectories=1000, seed=17) from each state, as
# (mean, std_error, truncation_bound), recorded at commit f8698c1
PINNED = {
    "investment": {
        "1": (13.584520766586628, 0.0809499631014124, 5.131264839852508e-07),
        "2": (13.30998139132847, 0.08081863935068793, 5.115077321212014e-07),
        "3": (12.116898317208637, 0.07408774717316431, 5.140391797758659e-07),
    },
    "random_model(rng 18)": {
        "s0": (0.05789803616715412, 0.07169640929250237, 8.940480938030856e-08),
        "s1": (-5.780474587536941, 0.0892934812330531, 9.00958516559554e-08),
        "s2": (1.7178015366997295, 0.12873274352851488, 8.94985507830921e-08),
        "s3": (-2.886667182619645, 0.14093692007760636, 8.853949237255108e-08),
    },
}
# np.exp and np.log1p on a fixed grid where the pins were recorded; numpy's
# SIMD kernels round some results differently from the C library's, so on
# another kernel the estimates move in their last bits for that reason alone
KERNELS_SHA256 = "97619aaad664bbdc"


def test_estimates_are_pinned_bit_for_bit(investment_model):
    grid = np.arange(4096) * 2.0**-12
    kernels = np.exp(-32.0 * grid).tobytes() + np.log1p(-grid).tobytes()
    if hashlib.sha256(kernels).hexdigest()[:16] != KERNELS_SHA256:
        pytest.skip("np.exp or np.log1p rounds differently here than where the pins were recorded")
    rng = np.random.default_rng(18)
    mixed = random_model(rng, max_states=4, max_actions=4)  # shapes 1x2, 2x2, 3x1, 4x4
    assert set(mixed.table.kind.tolist()) == {0, 1, 2}  # all three analytic laws
    fixed = StationaryStrategyPair(
        f={"1": np.array([0.3, 0.7]), "2": np.array([0.55, 0.45]), "3": np.array([1.0, 0.0])},
        g={"1": np.array([0.6, 0.4]), "2": np.array([0.2, 0.8]), "3": np.array([0.5, 0.5])},
    )
    cases = {
        "investment": (investment_model, fixed),
        "random_model(rng 18)": (mixed, random_pair(rng, mixed)),
    }
    for name, (m, pair) in cases.items():
        for x0, pinned in PINNED[name].items():
            est = estimate_value(m, pair, x0, trajectories=1000, seed=17)
            assert (est.mean, est.std_error, est.truncation_bound) == pinned, (name, x0)


def test_estimates_are_reproducible(investment_model):
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    a = estimate_value(investment_model, pair, "1", trajectories=500, seed=123)
    b = estimate_value(investment_model, pair, "1", trajectories=500, seed=123)
    assert a == b
    c = estimate_value(investment_model, pair, "1", trajectories=500, seed=124)
    assert c.mean != a.mean


def test_trajectory_rng_streams_are_stable():
    first = trajectory_rng(5, 7).random(4)
    np.testing.assert_array_equal(first, trajectory_rng(5, 7).random(4))
    assert not np.array_equal(first, trajectory_rng(5, 8).random(4))


def test_a_counter_stream_reads_its_slots_in_order():
    stream = trajectory_rng(5, 7)
    halves = np.concatenate([stream.random(4), stream.random(4)])
    np.testing.assert_array_equal(trajectory_rng(5, 7).random(8), halves)


def test_counter_streams_differ_across_seeds_and_indices():
    rows = [trajectory_rng(s, i).random(16) for s in (0, 1, 2**70) for i in (0, 1, 2**40)]
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert all(((row >= 0.0) & (row < 1.0)).all() for row in rows)


def test_counter_uniforms_pass_mean_chi_square_and_lag_one_checks():
    from scipy import stats

    # one row per trajectory, one column per slot
    u = np.array([trajectory_rng(2024, i).random(1000) for i in range(1000)])
    n = u.size
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / n)
    counts = np.bincount((u * 100).astype(int).ravel(), minlength=100)
    assert stats.chisquare(counts).pvalue > 1e-4
    centred = u - u.mean()
    across_slots = (centred[:, :-1] * centred[:, 1:]).mean() / centred.var()
    across_trajectories = (centred[:-1] * centred[1:]).mean() / centred.var()
    assert abs(across_slots) < 4.0 / math.sqrt(n)
    assert abs(across_trajectories) < 4.0 / math.sqrt(n)


def test_monte_carlo_agrees_with_exact_evaluation_on_random_models():
    rng = np.random.default_rng(53)
    for _ in range(20):
        m = random_model(rng, max_states=4, max_actions=3)
        pair = random_pair(rng, m)
        exact = evaluate_stationary_pair(m, pair)
        x0 = m.states[int(rng.integers(0, m.n_states))]
        est = estimate_value(m, pair, x0, trajectories=3000, seed=61)
        budget = 3.0 * est.std_error + est.truncation_bound
        assert abs(est.mean - exact[m.state_index(x0)]) <= budget


def test_residual_discount_decays_at_least_geometrically(investment_model):
    # empirical mean of the accumulated discount after n sojourns, against the
    # worst-case per-sojourn factor
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    lam_max = max(
        law_of(investment_model, t).continuation(alpha_of(investment_model, t))
        for t in investment_model.triples()
    )
    steps = 15
    n_traj = 2000
    discounts = np.empty(n_traj)
    for i in range(n_traj):
        rng = trajectory_rng(71, i)
        x = "1"
        d = 1.0
        for _ in range(steps):
            u = rng.random(4)
            acts1 = investment_model.actions1[x]
            acts2 = investment_model.actions2[x]
            a = acts1[np.searchsorted(np.cumsum(pair.f[x]), u[0], side="right")]
            b = acts2[np.searchsorted(np.cumsum(pair.g[x]), u[1], side="right")]
            t = (x, a, b)
            law = law_of(investment_model, t)
            tau = -math.log1p(-u[2]) / law.rate if isinstance(law, Exponential) else u[2] * law.upper
            d *= math.exp(-alpha_of(investment_model, t) * tau)
            x = investment_model.states[
                np.searchsorted(np.cumsum(transition_of(investment_model, t)), u[3], side="right")
            ]
        discounts[i] = d
    se = discounts.std(ddof=1) / math.sqrt(n_traj)
    assert discounts.mean() <= lam_max**steps + 3.0 * se


def test_input_validation(investment_model):
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    for trajectories in (1, 2.5, True, "10"):
        message = f"trajectories must be an integer of at least 2, got {trajectories!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_value(investment_model, pair, "1", trajectories=trajectories, seed=0)
    for seed in (-1, 1.5, "3", True):
        with pytest.raises(ValueError, match=re.escape(f"non-negative integer, got {seed!r}")):
            estimate_value(investment_model, pair, "1", trajectories=10, seed=seed)
