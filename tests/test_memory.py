"""Memory stays linear in the triples and transition nonzeros of a model."""

import json
import tracemalloc

import numpy as np

from smgsolve import (
    ShapleyOperator,
    certify_solution,
    check_assumptions,
    estimate_value,
    load_model,
    value_iterate,
)

from smgsolve.simulate import _BATCH

from conftest import sparse_doc


def test_peak_memory_of_a_2000_state_model_stays_below_40_mb():
    # any structure with one entry per triple and per state would take
    # 8,000 x 2,000 floats, 128 MB, on its own
    text = json.dumps(sparse_doc(2000))
    tracemalloc.start()
    try:
        m = load_model(text)
        cert = check_assumptions(m)
        _, pair = ShapleyOperator(m).apply(np.zeros(m.n_states))
        est = estimate_value(m, pair, m.states[0], trajectories=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert est.trajectories == 200
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_certify_solution_of_a_2000_state_model_stays_below_40_mb():
    # a dense 2,000 x 2,000 pair system alone would take 32 MB (LAPACK's copy
    # of it is not traced), so the certification also has a cap of its own
    text = json.dumps(sparse_doc(2000))
    tracemalloc.start()
    try:
        m = load_model(text)
        report = value_iterate(m, 1e-6)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        certified = certify_solution(m, report, 2.0 * report.epsilon_nash)
        _, certify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert certified.passed
    assert max(peak, certify_peak) < 40 * 2**20, f"peak {max(peak, certify_peak) / 2**20:.1f} MB"
    taken = certify_peak - held
    assert taken < 4 * 2**20, f"the certification took {taken / 2**20:.1f} MB"


def test_monte_carlo_memory_does_not_grow_with_trajectory_length(investment_model):
    # investment's trajectories run about 200 sojourns; uniforms drawn per
    # sojourn for the live trajectories, not in blocks, keep the peak small
    pair = value_iterate(investment_model, 1e-4, v0=np.ones(3)).equilibrium
    tracemalloc.start()
    try:
        est = estimate_value(investment_model, pair, "1", trajectories=20_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.trajectories == 20_000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_monte_carlo_memory_grows_by_a_payoff_and_a_tail_per_trajectory():
    # every trajectory ends on its first sojourn, at discount exp(-100), so
    # what grows with the run is only what is held per trajectory
    doc = {
        "states": ["s"], "actions1": {"s": ["a"]}, "actions2": {"s": ["b"]},
        "triples": [{"state": "s", "a": "a", "b": "b", "alpha": 100.0, "reward": 1.0,
                     "sojourn": {"kind": "deterministic", "duration": 1.0}, "transition": {"s": 1.0}}],
    }
    m = load_model(json.dumps(doc))
    pair = value_iterate(m, 1e-6).equilibrium
    peaks = []
    for batches in (4, 16):
        tracemalloc.start()
        try:
            est = estimate_value(m, pair, "s", trajectories=batches * _BATCH, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert est.trajectories == batches * _BATCH
    per_trajectory = (peaks[1] - peaks[0]) / (12 * _BATCH)
    assert per_trajectory <= 17.0, f"{per_trajectory:.1f} bytes per trajectory"
