"""Command-line front end: certify, solve, evaluate, and simulate models.

Subcommands and exit codes:

* ``check``     write the assumption certificate (exit 3 when it fails)
* ``solve``     run value iteration; write report JSON, trace CSV, strategies
* ``eval``      evaluate a given stationary pair exactly
* ``simulate``  Monte Carlo estimate under a stationary pair
* ``game``      solve one standalone matrix game from a JSON array of arrays

Exit status: 0 success, 1 a bug: a matrix game whose exact answer failed its
saddle-point test (for a model, the message names the state), or any other
exception, which propagates; 2 parse or validation error, or values beyond
the float64 range (the message names the state), 3 certificate failure, 4
no convergence within the iteration cap.  Every JSON artifact
embeds the run configuration and a content hash of the model document, and
identical configurations produce byte-identical artifacts on one numpy
build and CPU.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matrixgame import MatrixGameError, solve_matrix_game, verify_saddle_point
from .model import GameModel, ModelError, NotSamplableError, load_model
from .shapley import StationaryStrategyPair, _checked_distribution, evaluate_stationary_pair
from .simulate import _check_run, estimate_value
from .solver import (
    ConvergenceError,
    _check_iteration,
    report_as_dict,
    trace_csv,
    value_iterate,
)
from .verify import check_assumptions, regularity_from_bounds

EXIT_OK = 0
EXIT_MATRIX_GAME = 1
EXIT_INPUT = 2
EXIT_CERTIFICATE = 3
EXIT_NO_CONVERGENCE = 4


@dataclass
class RunConfig:
    command: str
    model: str | None = None
    epsilon: float = 1e-6
    v0: str | None = None  # scalar literal or a JSON file of per-state values
    max_iter: int | None = None
    seed: int = 0
    trajectories: int = 100_000
    state: str | None = None
    matrix: str | None = None
    strategies_in: str | None = None
    paper_params: bool = False
    report_out: str | None = None
    trace_out: str | None = None
    strategies_out: str | None = None
    out: str | None = None


class _InputError(Exception):
    pass


def _as_input(check, *args):
    """``check(*args)``, whose ``ValueError`` means bad input, raised as :class:`_InputError`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{what} is not valid JSON: {exc}") from exc


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, where: str) -> float:
    """A JSON number ``value`` as a finite float; anything else exits 2 naming ``where``."""
    if not _number(value):  # a string or a boolean is no number, whatever float() makes of it
        raise _InputError(f"{where} holds a non-numeric value {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer too large for a float
        out = math.inf
    if not math.isfinite(out):
        raise _InputError(f"{where} holds a number that is not finite as a float")
    return out


def _load_model(config: RunConfig) -> tuple[GameModel, str]:
    if not config.model:
        raise _InputError("a model path is required")
    text = _read(config.model)
    return load_model(text), hashlib.sha256(text.encode()).hexdigest()


def _artifact(config: RunConfig, model_hash: str | None, payload: dict) -> str:
    doc = {"config": dataclasses.asdict(config), "model_sha256": model_hash}
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _initial_values(config: RunConfig, m: GameModel) -> np.ndarray | None:
    if config.v0 is None:
        return None
    try:
        scalar = float(config.v0)
    except ValueError:
        scalar = None
    if scalar is not None:
        return np.full(m.n_states, _finite(scalar, "v0"))
    table = _parse_json(_read(config.v0), "v0 file")
    if isinstance(table, dict):
        missing = [x for x in m.states if x not in table]
        if missing:
            raise _InputError(f"v0 file missing states {missing}")
        unknown = set(table) - m.table.index.keys()
        if unknown:
            raise _InputError(f"v0 file lists unknown states {sorted(unknown)}")
        return np.array([_finite(table[x], f"v0 file at state {x!r}") for x in m.states])
    if isinstance(table, list) and len(table) == m.n_states:
        return np.array([_finite(v, f"v0 file at state {x!r}") for x, v in zip(m.states, table)])
    raise _InputError("v0 file must map states to numbers or list one value per state")


def _load_pair(config: RunConfig, m: GameModel) -> StationaryStrategyPair:
    if not config.strategies_in:
        raise _InputError("a strategies file is required")
    table = _parse_json(_read(config.strategies_in), "strategies file")
    if not isinstance(table, dict):
        raise _InputError("strategies file must be an object keyed by state")
    f, g = {}, {}
    for x in m.states:
        entry = table.get(x)
        if not isinstance(entry, dict) or "f" not in entry or "g" not in entry:
            raise _InputError(f"strategies file missing 'f'/'g' for state {x!r}")
        for side, acts, dest in (("f", m.actions1[x], f), ("g", m.actions2[x], g)):
            probs = entry[side]
            if not isinstance(probs, dict):
                raise _InputError(f"strategies[{x!r}].{side} must map actions to probabilities")
            unknown = set(probs) - set(acts)
            if unknown:
                raise _InputError(f"strategies[{x!r}].{side} names unknown actions {sorted(unknown)}")
            vec = [_finite(probs.get(a, 0.0), f"strategies[{x!r}].{side}[{a!r}]") for a in acts]
            dest[x] = _as_input(_checked_distribution, vec, len(acts), f"strategies[{x!r}].{side}")
    unknown = set(table) - m.table.index.keys()
    if unknown:
        raise _InputError(f"strategies file lists unknown states {sorted(unknown)}")
    return StationaryStrategyPair(f=f, g=g)


def _certificate(config: RunConfig, m: GameModel):
    if config.paper_params:
        return check_assumptions(m, regularity=_as_input(regularity_from_bounds, m))
    return check_assumptions(m)


def _cmd_check(config: RunConfig) -> int:
    m, digest = _load_model(config)
    cert = _certificate(config, m)
    _emit(_artifact(config, digest, {"certificate": cert.as_dict()}), config.out)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def _cmd_solve(config: RunConfig) -> int:
    m, digest = _load_model(config)
    _as_input(_check_iteration, config.epsilon, config.max_iter)
    v0 = _initial_values(config, m)
    cert = _certificate(config, m)
    if not cert.passed:
        _emit(_artifact(config, digest, {"certificate": cert.as_dict()}), config.report_out)
        return EXIT_CERTIFICATE
    report = value_iterate(m, config.epsilon, v0=v0, max_iter=config.max_iter, certificate=cert)
    payload = report_as_dict(m, report)
    _emit(_artifact(config, digest, payload), config.report_out)
    if config.trace_out:
        Path(config.trace_out).write_text(trace_csv(m, report))
    if config.strategies_out:
        Path(config.strategies_out).write_text(
            json.dumps(payload["equilibrium"], indent=2, sort_keys=True) + "\n"
        )
    return EXIT_OK


def _cmd_eval(config: RunConfig) -> int:
    m, digest = _load_model(config)
    pair = _load_pair(config, m)
    try:
        values = evaluate_stationary_pair(m, pair)
    except ArithmeticError as exc:  # the pair's evaluation has no error bound
        raise _InputError(str(exc)) from exc
    payload = {"values": {x: float(v) for x, v in zip(m.states, values)}}
    _emit(_artifact(config, digest, payload), config.out)
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    m, digest = _load_model(config)
    if config.state is None:
        raise _InputError("simulate requires --state")
    if config.state not in m.table.index:
        raise _InputError(f"unknown state {config.state!r}")
    _as_input(_check_run, config.trajectories, config.seed)
    _as_input(_check_iteration, config.epsilon, None)
    if config.strategies_in:
        pair = _load_pair(config, m)
    else:
        cert = _certificate(config, m)
        if not cert.passed:
            _emit(_artifact(config, digest, {"certificate": cert.as_dict()}), config.out)
            return EXIT_CERTIFICATE
        pair = value_iterate(m, config.epsilon, certificate=cert).equilibrium
    est = estimate_value(m, pair, config.state, config.trajectories, config.seed)
    payload = {
        "mean": est.mean,
        "stdError": est.std_error,
        "trajectories": est.trajectories,
        "truncationBound": est.truncation_bound,
        "seed": est.seed,
    }
    _emit(_artifact(config, digest, payload), config.out)
    return EXIT_OK


def _cmd_game(config: RunConfig) -> int:
    if not config.matrix:
        raise _InputError("a matrix (inline JSON or a file path) is required")
    text = config.matrix
    if not text.lstrip().startswith("["):
        text = _read(text)
    rows = _parse_json(text, "matrix")
    if not (isinstance(rows, list) and rows):
        raise _InputError("matrix must be a nonempty JSON array of arrays of numbers")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and row and all(_number(v) for v in row)):
            raise _InputError(f"matrix row {i} is not a nonempty array of numbers: {json.dumps(row)}")
        if len(row) != len(rows[0]):
            raise _InputError(f"matrix row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
        for v in row:
            _finite(v, f"matrix row {i}")
    sol = solve_matrix_game(rows)
    # checked at the payoff scale: a value near 0 says nothing of the rounding
    scale = max(1.0, float(np.abs(np.asarray(rows, dtype=float)).max()))
    ok, violation = verify_saddle_point(rows, sol.row_strategy, sol.col_strategy, tol=1e-9 * scale)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    payload = {
        "value": sol.value,
        "rowStrategy": [float(p) for p in sol.row_strategy],
        "colStrategy": [float(p) for p in sol.col_strategy],
        "dualityGap": sol.duality_gap,
        "saddleVerified": bool(ok),
        "worstDeviationGain": violation,
    }
    _emit(_artifact(config, digest, payload), config.out)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "game": _cmd_game,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    try:
        return _COMMANDS[config.command](config)
    except (_InputError, ModelError, NotSamplableError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MatrixGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATRIX_GAME


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smgsolve",
        description="Solve finite zero-sum semi-Markov games with state-action discounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epsilon = dict(type=float, default=RunConfig.epsilon)

    def with_model(p, certifies=True):
        p.add_argument("model", help="path to a model JSON document")
        if certifies:
            p.add_argument(
                "--paper-params",
                action="store_true",
                help="certify with the preset a-priori law bounds instead of searching",
            )

    p = sub.add_parser("check", help="certify the solvability conditions")
    with_model(p)
    p.add_argument("--out", help="write the certificate JSON here (default stdout)")

    p = sub.add_parser("solve", help="run value iteration to an epsilon-fixed point")
    with_model(p)
    p.add_argument("--epsilon", **epsilon, help="stopping threshold (default 1e-6)")
    p.add_argument("--v0", help="initial value: scalar broadcast to all states, or a JSON file")
    p.add_argument("--max-iter", type=int, help="cap on operator applications")
    p.add_argument("--report", dest="report_out", help="write the report JSON here")
    p.add_argument("--trace", dest="trace_out", help="write the per-iteration CSV here")
    p.add_argument("--strategies", dest="strategies_out", help="write the equilibrium JSON here")

    p = sub.add_parser("eval", help="evaluate a stationary pair exactly")
    with_model(p, certifies=False)
    p.add_argument("--strategies", dest="strategies_in", required=True, help="pair JSON file")
    p.add_argument("--out", help="write the values JSON here (default stdout)")

    p = sub.add_parser("simulate", help="Monte Carlo estimate under a stationary pair")
    with_model(p)
    p.add_argument("--strategies", dest="strategies_in", help="pair JSON (default: solve first)")
    p.add_argument("--state", required=True, help="initial state label")
    p.add_argument("--trajectories", type=int, default=RunConfig.trajectories)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--epsilon", **epsilon, help="threshold for the inner solve")
    p.add_argument("--out", help="write the estimate JSON here (default stdout)")

    p = sub.add_parser("game", help="solve a standalone matrix game")
    p.add_argument("matrix", help="JSON array of arrays, inline or a file path")
    p.add_argument("--out", help="write the solution JSON here (default stdout)")
    return parser


def config_from_args(argv: list[str] | None = None) -> RunConfig:
    ns = vars(_parser().parse_args(argv))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in ns.items() if k in fields})


def main(argv: list[str] | None = None) -> int:
    return run(config_from_args(argv))


if __name__ == "__main__":
    sys.exit(main())
