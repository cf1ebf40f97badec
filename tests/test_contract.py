"""The CLI's contract, searched over mutated inputs of every command.

Each case mutates one node of one input a command reads (a model document, a
strategies file, a ``--v0`` file or a ``game`` matrix) and calls
:func:`smgsolve.cli.main` in-process, twice.  The contract:

* the exit code is 0, 1, 2, 3 or 4, and no exception or warning escapes;
* exits 1, 2 and 4 write exactly one stderr line, starting ``error: ``;
* exits 0 and 3 write nothing to stderr; exit 3 writes the failed
  certificate where the artifact goes, and it may hold NaN;
* every JSON artifact of exit 0 parses as strict JSON, with no ``NaN`` or
  ``Infinity``;
* the same argv twice gives the same exit code, streams and files.

The generated cases reach exit 3 (a base model that fails its drift check)
and exit 4 (a ``solve`` capped at two applications) as well as 0 and 2.
"""

import copy
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smgsolve import load_model, strategy_tables
from smgsolve.cli import main

from conftest import INVESTMENT_DOC, MIXED_LAWS_DOC, SINGLE_STATE_DOC, strict_json, uniform_pair
from test_cli import DRIFT_DOC, GAME_A, GAME_B

# every command reads model.json, except game, which reads matrix.json; the
# --trajectories of simulate is small, for the default is 100,000, and no base
# model converges within the two applications of solve-capped
COMMANDS = {
    "check": ["check", "model.json", "--out", "out.json"],
    "check-paper": ["check", "model.json", "--paper-params", "--out", "out.json"],
    "solve": ["solve", "model.json", "--v0", "v0.json", "--report", "report.json",
              "--trace", "trace.csv", "--strategies", "strategies.json"],
    "solve-capped": ["solve", "model.json", "--max-iter", "2", "--report", "report.json"],
    "eval": ["eval", "model.json", "--strategies", "pair.json", "--out", "out.json"],
    "simulate": ["simulate", "model.json", "--state", "STATE", "--trajectories", "20",
                 "--out", "out.json"],
    "simulate-pair": ["simulate", "model.json", "--state", "STATE", "--strategies", "pair.json",
                      "--trajectories", "20", "--out", "out.json"],
    "game": ["game", "matrix.json", "--out", "out.json"],
}
JSON_ARTIFACTS = ("out.json", "report.json", "strategies.json")
MATRICES = ([[1, -1], [-1, 1]], [[3, 1], [0, 2]], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
            [[4, -2, 0, 1], [-1, 3, 2, 0], [0, 1, -3, 2], [2, 0, 1, -1]])

# wrong types, NaN, +-Infinity, integers beyond the float range, -0.0, a
# subnormal, floats near the limit, and state labels
VALUES = [None, True, False, "x", "1", "only", [], {}, [1], {"a": 1}, 0, 1, -1, 0.5, 2,
          -0.0, 1e-320, 1e308, -1e308, 10**400, -(10**400), math.nan, math.inf, -math.inf, 1.5]


@dataclass(frozen=True)
class Case:
    """One run: the argv of ``command`` on ``files`` (name and text), and its outcome if pinned.

    ``state`` is the ``--state`` of ``simulate``, the first state of the unmutated model.
    """

    command: str
    files: tuple[tuple[str, str], ...]
    state: str = "1"
    expect: tuple[int, str] | None = None  # (exit code, stderr)


def _inputs(doc: dict) -> dict[str, str]:
    """The texts of every input file a command reads, built on the model ``doc``."""
    m = load_model(json.dumps(doc))
    return {
        "model.json": json.dumps(doc),
        "pair.json": json.dumps(strategy_tables(m, uniform_pair(m))),
        "v0.json": json.dumps(dict.fromkeys(m.states, 1.0)),
    }


# DRIFT_DOC fails its drift check, which most of its mutations keep failing
BASES = [
    (_inputs(doc), doc["states"][0])
    for doc in (INVESTMENT_DOC, SINGLE_STATE_DOC, MIXED_LAWS_DOC, DRIFT_DOC)
]


def _nodes(doc, path=()):
    """Every ``(path, node)`` of the JSON document ``doc``, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutations(draw, doc):
    """``doc`` with one node deleted, duplicated in its list, given an unknown key, or replaced."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    op = draw(st.sampled_from(["delete", "duplicate", "unknown-key", "replace"]))
    if op == "delete":
        path = draw(st.sampled_from([p for p, _ in nodes[1:]]))
        del _at(doc, path[:-1])[path[-1]]
    elif op == "duplicate" and any(isinstance(node, list) and node for _, node in nodes):
        path = draw(st.sampled_from([p for p, _ in nodes[1:] if isinstance(_at(doc, p[:-1]), list)]))
        parent = _at(doc, path[:-1])
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    elif op == "unknown-key" and any(isinstance(node, dict) for _, node in nodes):
        node = draw(st.sampled_from([node for _, node in nodes if isinstance(node, dict)]))
        node["unknown"] = draw(st.sampled_from(VALUES))
    else:
        path = draw(st.sampled_from([p for p, _ in nodes]))
        value = draw(st.sampled_from(VALUES))
        if not path:
            return value
        _at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    state = "1"
    if command == "game":
        files = {"matrix.json": json.dumps(draw(st.sampled_from(MATRICES)))}
    else:
        files, state = draw(st.sampled_from(BASES))
        files = dict(files)
    argv = COMMANDS[command]
    target = draw(st.sampled_from([name for name in sorted(files) if name in argv]))
    files[target] = json.dumps(draw(mutations(json.loads(files[target]))))
    return Case(command, tuple(sorted(files.items())), state)


def _model_case(command, base, mutate, expect):
    doc = copy.deepcopy(base)
    mutate(doc)
    files = _inputs(base) | {"model.json": json.dumps(doc)}
    return Case(command, tuple(sorted(files.items())), base["states"][0], expect)


def _first_triple_fault(message):
    return 2, f"error: {message}: triple ('1', 'a11', 'b11')\n"


def _game_case(matrix):
    return Case("game", (("matrix.json", matrix),), expect=(0, ""))


def _run(case: Case, where: Path):
    """``(exit code, stdout, stderr, {file: bytes})`` of one run of ``case`` in the empty ``where``."""
    for name, text in case.files:
        (where / name).write_text(text)
    argv = [str(where / a) if "." in a else case.state if a == "STATE" else a for a in COMMANDS[case.command]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    inputs = dict(case.files)
    written = {p.name: p.read_bytes() for p in sorted(where.iterdir()) if p.name not in inputs}
    for p in where.iterdir():
        p.unlink()
    return code, out.getvalue(), err.getvalue(), written


def _keeps_the_contract(case: Case) -> int:
    """Run ``case`` twice, check the contract of the module docstring, and return its exit code."""
    with tempfile.TemporaryDirectory() as where:
        code, out, err, written = first = _run(case, Path(where))
        assert _run(case, Path(where)) == first
    assert code in (0, 1, 2, 3, 4)
    assert out == ""  # every artifact goes to a file
    if case.expect is not None:
        assert (code, err) == case.expect
    if code in (1, 2, 4):
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""
    if code == 0:
        for name in JSON_ARTIFACTS:
            if name in written:
                strict_json(written[name])
    if code == 3:
        artifact = written.get("report.json", written.get("out.json"))
        assert artifact is not None and "certificate" in json.loads(artifact)
    return code


def test_every_command_keeps_the_contract_on_mutated_inputs():
    reached = set()  # the exit codes of the generated cases

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases())
    @example(case=_model_case(
        "check", INVESTMENT_DOC, lambda d: d["triples"][0]["transition"].update({"2": -math.inf}),
        _first_triple_fault("transition probabilities must be finite")))
    @example(case=_model_case(
        "solve", INVESTMENT_DOC, lambda d: d["triples"][0].update(transition={"2": 1e308, "3": 1e308}),
        _first_triple_fault("transition probabilities sum beyond the float64 range")))
    @example(case=_model_case(  # drift fails toward the state of weight 10
        "simulate", MIXED_LAWS_DOC, lambda d: d.update(weight={"x": 1.0, "y": 10.0}), (3, "")))
    @example(case=_game_case(GAME_A))
    @example(case=_game_case(GAME_B))
    def search(case):
        code = _keeps_the_contract(case)
        if case.expect is None:  # not a pinned example
            reached.add(code)

    search()
    assert {0, 2, 3, 4} <= reached, sorted(reached)
