"""Benchmark of smgsolve's certify-solve-evaluate-simulate pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's model is read from
``models/`` or generated from the seed (``generate.py``); smgsolve sees only
the model document, through its public functions and its CLI.  A run sets up
at least ``MIN_SETUPS`` times and for ``SETUP_SECONDS``, then repeats whole
rounds (solve, certify, Monte Carlo, CLI solve) until ``--seconds`` have
passed and at least ``MIN_ROUNDS`` ran, checks every output, and prints one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layers.py`` with ``--trace 1``.
Times are probe-normalised seconds (``clock.py``); README.md explains why.
"""

import os

# One BLAS thread, here and in every child, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from clock import Spans, measure, span_cost_s
from generate import generate
from oracle import PAPER_TOL, PAPER_VALUES, Oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

EPSILON = 1e-6
MC_SEED = 20210308
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MIN_ROUNDS = 5
MC_Z = 3.0

# name: (Monte Carlo trajectories per start state, start states; None = all)
WORKLOADS = {
    "investment": (2000, None),
    "many-states": (4000, 1),
    "wide-actions": (6000, 1),
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "mc_trajectories_per_s": "1/s",
    "cli_solve_s": "s",
    "peak_rss_mb": "MB",
}


class Failed(Exception):
    """An operation under measurement raised or exited nonzero."""


class Context:
    """One workload's model, its solved state and the run's bookkeeping."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload == "investment":
            self.text = (ROOT / "models" / "investment.json").read_text()
            doc = json.loads(self.text)
        else:
            doc = generate(workload, seed)
            self.text = json.dumps(doc)
        self.workload = workload
        self.oracle = Oracle(doc)
        self.model_path = workdir / "model.json"
        self.model_path.write_text(self.text)
        self.artifacts = {
            "report": workdir / "report.json",
            "trace": workdir / "trace.csv",
            "strategies": workdir / "strategies.json",
        }
        self.trajectories, n_starts = WORKLOADS[workload]
        self.starts = doc["states"][:n_starts]
        self.mc_seed = MC_SEED
        self.child_env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.model = self.cert = self.report = None
        self.solve_raw_s = 0.0

    def operation(self, fn):
        """Measure one operation; a raising call counts as failed."""
        self.attempted += 1
        try:
            return measure(fn)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise Failed(str(exc)) from exc

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _setup(ctx: Context, smgsolve):
    m = smgsolve.load_model(ctx.text)
    return m, smgsolve.check_assumptions(m)


def _cli_solve(ctx: Context):
    args = [
        sys.executable, "-m", "smgsolve.cli", "solve", str(ctx.model_path),
        "--epsilon", repr(EPSILON),
        "--report", str(ctx.artifacts["report"]),
        "--trace", str(ctx.artifacts["trace"]),
        "--strategies", str(ctx.artifacts["strategies"]),
    ]  # fmt: skip
    for path in ctx.artifacts.values():
        path.unlink(missing_ok=True)
    proc = subprocess.run(args, env=ctx.child_env, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"CLI exited {proc.returncode}: {proc.stderr.decode()[-1000:]}")
    return {name: path.read_bytes() for name, path in ctx.artifacts.items()}


def _round(ctx: Context, smgsolve, span) -> dict:
    """One solve, certify, Monte Carlo and CLI pass; returns its outputs."""
    m, cert = ctx.model, ctx.cert
    with span("solve"):
        report, t_solve = ctx.operation(
            lambda: smgsolve.value_iterate(m, EPSILON, certificate=cert)
        )
    ctx.report, ctx.solve_raw_s = report, t_solve.raw_s
    with span("certify"):
        certified, t_cert = ctx.operation(
            lambda: smgsolve.certify_solution(m, report, 2.0 * report.epsilon_nash)
        )
    estimates, mc_s = [], 0.0
    for x0 in ctx.starts:
        with span("mc", state=x0):
            est, t_mc = ctx.operation(
                lambda: smgsolve.estimate_value(
                    m, report.equilibrium, x0, ctx.trajectories, ctx.mc_seed
                )
            )
        estimates.append(est)
        mc_s += t_mc.seconds
    with span("cli_solve"):
        artifacts, t_cli = ctx.operation(lambda: _cli_solve(ctx))
    return {
        "values": tuple(float(v) for v in report.epsilon_value),
        "certified": certified,
        "estimates": estimates,
        "artifacts": artifacts,
        "solve_s": t_solve.seconds,
        "certify_s": t_cert.seconds,
        "mc_trajectories_per_s": ctx.trajectories * len(ctx.starts) / mc_s,
        "cli_solve_s": t_cli.seconds,
    }


def _check_outputs(ctx: Context, smgsolve, rounds: list[dict]) -> None:
    """Every check of README.md's list, on the outputs of all rounds."""
    m, report = ctx.model, ctx.report
    first = rounds[0]
    ctx.check(
        all(r["values"] == first["values"] for r in rounds),
        "value_iterate returned different values in different rounds",
    )
    if ctx.workload == "investment":
        gaps = [abs(v - p) for v, p in zip(first["values"], PAPER_VALUES)]
        ctx.check(max(gaps) <= PAPER_TOL, f"investment values {first['values']} off the paper's")
    residual = ctx.oracle.residual(report.epsilon_value)
    ctx.check(residual <= EPSILON, f"||T V - V|| = {residual!r} exceeds epsilon {EPSILON!r}")
    for r in rounds:
        c = r["certified"]
        ctx.check(c.passed, f"certify_solution failed: worst violation {c.worst_violation!r}")
    applications = len(report.error_trace)
    ctx.check(
        applications <= report.n_epsilon_bound + 1,
        f"{applications} applications exceed the a-priori bound {report.n_epsilon_bound} + 1",
    )

    exact = ctx.oracle.pair_values(report.equilibrium.f, report.equilibrium.g)
    for x0, est in zip(ctx.starts, first["estimates"]):
        ctx.check(
            all(r["estimates"][ctx.starts.index(x0)] == est for r in rounds),
            f"estimate_value from {x0!r} differs between rounds",
        )
        target = exact[m.state_index(x0)]
        if abs(est.mean - target) <= MC_Z * est.std_error + est.truncation_bound:
            continue
        # A 3-SE miss happens by chance in 0.27% of checks: confirm it once
        # with an independent stream set before calling the simulator wrong.
        again = smgsolve.estimate_value(
            m, report.equilibrium, x0, ctx.trajectories, ctx.mc_seed + 1
        )
        print(f"mc from {x0!r}: {est.mean!r} vs exact {target!r}, confirming", file=sys.stderr)
        ctx.check(
            abs(again.mean - target) <= MC_Z * again.std_error + again.truncation_bound,
            f"Monte Carlo mean from {x0!r} misses the exact value {target!r} twice",
        )

    ctx.check(
        all(r["artifacts"] == first["artifacts"] for r in rounds),
        "repeated CLI runs wrote different artifacts",
    )
    cli_report = json.loads(first["artifacts"]["report"])
    ctx.check(
        [cli_report["values"][x] for x in m.states] == list(first["values"]),
        "CLI report values differ from the in-process solve",
    )
    ctx.check(
        cli_report["applications"] == applications,
        "CLI report counts different applications",
    )
    ctx.check(
        json.loads(first["artifacts"]["strategies"])
        == smgsolve.strategy_tables(m, report.equilibrium),
        "CLI strategies differ from the in-process equilibrium",
    )
    ctx.check(
        first["artifacts"]["trace"].decode().count("\n") == applications + 1,
        "CLI trace does not have one row per application",
    )


def _measure(ctx: Context, smgsolve, seconds: float, spans) -> dict:
    """Set up, then run whole rounds; returns every sample taken."""
    span = spans.span if spans else (lambda name, **attrs: contextlib.nullcontext())
    samples = {"setup_s": [], "rounds": [], "layers": [], "layers_raw": []}
    try:
        start = time.perf_counter()
        while len(samples["setup_s"]) < MIN_SETUPS or time.perf_counter() - start < SETUP_SECONDS:
            with span("setup"):
                (ctx.model, ctx.cert), t = ctx.operation(lambda: _setup(ctx, smgsolve))
            samples["setup_s"].append(t.seconds)
        ctx.check(ctx.cert.passed, "check_assumptions failed on the workload model")
        start = time.perf_counter()
        while len(samples["rounds"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            with span("round", index=len(samples["rounds"])):
                samples["rounds"].append(_round(ctx, smgsolve, span))
                if spans:
                    from layers import measure_layers

                    with span("layers"):
                        norm, raw, problems = measure_layers(
                            ctx, spans, samples["rounds"][-1]["solve_s"]
                        )
                    samples["layers"].append(norm)
                    samples["layers_raw"].append(raw)
                    ctx.problems += problems
    except Failed as exc:
        ctx.problems.append(f"stopped after a failed operation: {exc}")
    return samples


def _medians(rows: list[dict], names) -> dict:
    return {name: statistics.median(r[name] for r in rows) for name in names} if rows else {}


def _write_trace(path: Path, spans, begin: float, e2e: dict, samples: dict) -> None:
    from layers import METRICS

    cost = span_cost_s()
    overhead = {
        "spans": len(spans.records),
        "span_cost_s": cost,
        "share_of_wall": len(spans.records) * cost / (time.perf_counter() - begin),
    }
    print(f"tracing overhead: {overhead}", file=sys.stderr)
    doc = {
        "overhead": overhead,
        "end_to_end_traced": e2e,
        "layers_normalised": _medians(samples["layers"], METRICS),
        "layers_raw": _medians(samples["layers_raw"], METRICS),
        "spans": [
            {**s, "start": s["start"] - begin, "end": s["end"] - begin} for s in spans.records
        ],
    }
    path.write_text(json.dumps(doc, indent=1))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import smgsolve

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    spans = Spans() if trace else None
    begin = time.perf_counter()
    try:
        ctx = Context(workload, seed, workdir)
        samples = _measure(ctx, smgsolve, seconds, spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds = samples["rounds"]
        if rounds:
            _check_outputs(ctx, smgsolve, rounds)
        e2e = _medians(rounds, ("solve_s", "certify_s", "mc_trajectories_per_s", "cli_solve_s"))
        if samples["setup_s"]:
            e2e["setup_s"] = statistics.median(samples["setup_s"])
        e2e["peak_rss_mb"] = peak_rss_mb
        if trace:
            from layers import METRICS

            _write_trace(OUT / f"trace-{workload}-{seed}.json", spans, begin, e2e, samples)
            values, units = _medians(samples["layers"], METRICS), METRICS
        else:
            values, units = e2e, END_TO_END
        for problem in ctx.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not ctx.problems,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [
        p for p in (ROOT / "src" / "smgsolve" / "__init__.py", ROOT / "models" / "investment.json")
        if not p.is_file()
    ]
    if missing:
        print(f"not a smgsolve checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    # Children inherit the affinity, so probes and every timed call share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
