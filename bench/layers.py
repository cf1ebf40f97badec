"""Per-layer measurements for the traced run.

Each metric times public smgsolve calls from outside, inside a span named
after the metric.  The calls reuse the round's solved report, so a layer is
measured at the point the end-to-end run actually reaches.
"""

import json
import subprocess
import sys

import numpy as np

import smgsolve
from smgsolve.solver import report_as_dict
from clock import measure

# name: unit
METRICS = {
    "model.load_s": "s",
    "model.validate_s": "s",
    "verify.certificate_s": "s",
    "verify.regularity_s": "s",
    "verify.drift_s": "s",
    "discounting.kernel_rows_s": "s",
    "shapley.operator_build_s": "s",
    "shapley.operator_mb": "MB",
    "shapley.apply_s": "s",
    "shapley.evaluate_s": "s",
    "matrixgame.games_per_s": "1/s",
    "solver.s_per_application": "s",
    "solver.applications": "count",
    "simulate.streams_per_s": "1/s",
    "simulate.single_trajectory_s": "s",
    "cli.startup_s": "s",
    "cli.artifacts_s": "s",
}


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, directly or in lists."""
    total = 0
    for value in vars(obj).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def measure_layers(ctx, spans, solve_s: float) -> tuple[dict, dict, list[str]]:
    """One pass over every layer.

    Returns normalised values, raw values and any check failures.  ``ctx``
    is the run's workload context, ``solve_s`` the round's normalised
    ``value_iterate`` time.
    """
    m, report = ctx.model, ctx.report
    pair, values = report.equilibrium, report.epsilon_value
    norm: dict[str, float] = {}
    raw: dict[str, float] = {}
    problems: list[str] = []

    def timed(name, fn):
        with spans.span(name) as record:
            result, timing = measure(fn)
        record.update(raw_s=timing.raw_s, normalised_s=timing.seconds)
        norm[name], raw[name] = timing.seconds, timing.raw_s
        return result

    def rate(name, count, fn):
        result = timed(name, fn)
        norm[name], raw[name] = count / norm[name], count / raw[name]
        return result

    timed("model.load_s", lambda: smgsolve.load_model(ctx.text))
    if timed("model.validate_s", lambda: smgsolve.validate_model(m)):
        problems.append("validate_model reports violations on a loaded model")
    timed("verify.certificate_s", lambda: smgsolve.check_assumptions(m))
    timed("verify.regularity_s", lambda: smgsolve.find_regularity_params(m))
    timed("verify.drift_s", lambda: smgsolve.check_drift(m, ctx.cert.gamma))
    timed(
        "discounting.kernel_rows_s",
        lambda: [smgsolve.discounted_kernel_row(m, t) for t in m.triples()],
    )
    op = timed("shapley.operator_build_s", lambda: smgsolve.ShapleyOperator(m))
    norm["shapley.operator_mb"] = raw["shapley.operator_mb"] = _array_bytes(op) / 2**20
    applied, _ = timed("shapley.apply_s", lambda: op.apply(values))
    evaluated = timed("shapley.evaluate_s", lambda: smgsolve.evaluate_stationary_pair(m, pair))
    exact = ctx.oracle.pair_values(pair.f, pair.g)
    if not np.allclose(evaluated, exact, rtol=1e-8, atol=1e-10):
        problems.append("evaluate_stationary_pair disagrees with the benchmark's own evaluation")

    matrices = [ctx.oracle.payoff_matrix(values, xi) for xi in range(m.n_states)]
    games = rate(
        "matrixgame.games_per_s",
        len(matrices),
        lambda: [smgsolve.solve_matrix_game(c) for c in matrices],
    )
    if not np.allclose([g.value for g in games], applied, rtol=1e-9, atol=1e-9):
        problems.append("solve_matrix_game values differ from ShapleyOperator.apply")

    applications = len(report.error_trace)
    norm["solver.applications"] = raw["solver.applications"] = applications
    norm["solver.s_per_application"] = solve_s / applications
    raw["solver.s_per_application"] = ctx.solve_raw_s / applications

    rate(
        "simulate.streams_per_s",
        ctx.trajectories,
        lambda: [smgsolve.trajectory_rng(ctx.mc_seed, i) for i in range(ctx.trajectories)],
    )
    timed(
        "simulate.single_trajectory_s",
        lambda: smgsolve.simulate_trajectory(
            m, pair, ctx.starts[0], smgsolve.trajectory_rng(ctx.mc_seed, 0)
        ),
    )

    started = timed(
        "cli.startup_s",
        lambda: subprocess.run(
            [sys.executable, "-c", "import smgsolve"], env=ctx.child_env, capture_output=True
        ),
    )
    if started.returncode != 0:
        problems.append(f"importing smgsolve in a child failed: {started.stderr.decode()[-500:]}")

    def artifacts():
        report_doc = json.dumps(report_as_dict(m, report), indent=2, sort_keys=True)
        strategies = json.dumps(
            smgsolve.strategy_tables(m, pair), indent=2, sort_keys=True
        )
        return report_doc, smgsolve.trace_csv(m, report), strategies

    timed("cli.artifacts_s", artifacts)
    return norm, raw, problems
