"""Memory stays linear in the triples and transition nonzeros of a model."""

import json
import tracemalloc

import numpy as np

from smgsolve import ShapleyOperator, check_assumptions, estimate_value, load_model

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
