"""Command-line interface: subcommands, artifacts, and exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from smgsolve import (
    Deterministic, Exponential, ModelValidationError, Uniform, evaluate_stationary_pair, load_model,
    solve_matrix_game, strategy_tables, value_iterate,
)
from smgsolve.cli import RunConfig, config_from_args, main, run

from conftest import (
    INVESTMENT_DOC, MODELS_DIR, SINGLE_STATE_DOC, failing_simplex, scaled_rewards_doc, uniform_pair,
    strict_json, verify_saddle_point,
)

INVESTMENT = str(MODELS_DIR / "investment.json")
GAME_KEYS = {"config", "model_sha256", "value", "rowStrategy", "colStrategy", "dualityGap"}


def _assert_game_answer(matrix, doc):
    """``doc`` is ``game``'s artifact: its one check, ``dualityGap``, is the pipeline's bound, and it holds."""
    a = np.asarray(matrix, dtype=float)
    assert set(doc) == GAME_KEYS
    assert doc["dualityGap"] <= 1e-12 * np.abs(a).max()


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(INVESTMENT_DOC))
    return str(path)


def test_check_writes_certificate(tmp_path, model_file):
    out = tmp_path / "cert.json"
    status = run(RunConfig(command="check", model=model_file, out=str(out)))
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"]["passed"] is True
    assert doc["config"]["command"] == "check"
    assert len(doc["model_sha256"]) == 64


def test_check_paper_params_constants(tmp_path, model_file):
    out = tmp_path / "cert.json"
    assert run(RunConfig(command="check", model=model_file, paper_params=True, out=str(out))) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert round(cert["theta"], 3) == 0.023
    assert round(cert["gamma"], 4) == 0.9994
    assert round(cert["eta_gamma"], 4) == 0.9997


def test_failing_certificate_exits_3_for_check_and_solve(tmp_path):
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
    path = tmp_path / "bad_cert.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig(command="check", model=str(path), out=str(tmp_path / "c.json"))) == 3
    report = tmp_path / "r.json"
    assert run(RunConfig(command="solve", model=str(path), report_out=str(report))) == 3
    assert json.loads(report.read_text())["certificate"]["passed"] is False


def test_solve_writes_all_artifacts(tmp_path, model_file):
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    strategies = tmp_path / "strategies.json"
    config = RunConfig(
        command="solve", model=model_file, epsilon=1e-4, v0="1.0",
        report_out=str(report), trace_out=str(trace), strategies_out=str(strategies),
    )
    assert run(config) == 0
    doc = json.loads(report.read_text())
    assert doc["values"]["1"] == pytest.approx(12.6054, abs=5e-3)
    assert doc["applications"] == len(trace.read_text().strip().splitlines()) - 1
    tables = json.loads(strategies.read_text())
    assert tables["3"]["f"]["a31"] == pytest.approx(1.0, abs=1e-9)

    # identical configuration reproduces identical bytes
    before = report.read_bytes()
    assert run(config) == 0
    assert report.read_bytes() == before


def test_solve_v0_from_file(tmp_path, model_file):
    v0 = tmp_path / "v0.json"
    v0.write_text(json.dumps({"1": 1.0, "2": 1.0, "3": 1.0}))
    report = tmp_path / "report.json"
    assert run(RunConfig(command="solve", model=model_file, epsilon=1e-4,
                         v0=str(v0), report_out=str(report))) == 0
    doc = json.loads(report.read_text())
    assert doc["values"]["3"] == pytest.approx(11.1653, abs=5e-3)


def test_a_v0_list_file_starts_where_a_scalar_and_a_mapping_do(tmp_path):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([1.0, 1.0, 1.0]))
    mapped = tmp_path / "mapped.json"
    mapped.write_text(json.dumps({"1": 1.0, "2": 1.0, "3": 1.0}))
    written = []
    for v0 in ("1.0", str(listed), str(mapped)):
        trace, strategies = tmp_path / "trace.csv", tmp_path / "strategies.json"
        args = ["solve", INVESTMENT, "--v0", v0, "--report", str(tmp_path / "r.json"),
                "--trace", str(trace), "--strategies", str(strategies)]
        assert main(args) == 0
        written.append((trace.read_bytes(), strategies.read_bytes()))
    assert written[1] == written[0] and written[2] == written[0]


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_entry_in_a_v0_list_file_exits_2_naming_its_state(tmp_path, capsys, entry):
    v0 = tmp_path / "v0.json"
    v0.write_text(f"[1.0, {entry}, 1.0]")  # json.loads reads these as floats
    report = tmp_path / "r.json"
    assert main(["solve", INVESTMENT, "--v0", str(v0), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "error: v0 file at state '2' holds a number that is not finite as a float\n"
    )
    assert not report.exists()


def test_a_v0_file_whose_change_overflows_exits_2_naming_the_state(tmp_path, capsys):
    v0 = tmp_path / "v0.json"
    v0.write_text(json.dumps({"1": 1e308, "2": -1e308, "3": 1e308}))
    report = tmp_path / "r.json"
    assert main(["solve", INVESTMENT, "--v0", str(v0), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "error: values beyond the float64 range: the change of value at state '2' overflows\n"
    )
    assert not report.exists()


def test_solve_non_convergence_exits_4(model_file, tmp_path):
    config = RunConfig(command="solve", model=model_file, epsilon=1e-12,
                       max_iter=2, report_out=str(tmp_path / "r.json"))
    assert run(config) == 4


def test_eval_round_trip(tmp_path, model_file):
    strategies = tmp_path / "strategies.json"
    run(RunConfig(command="solve", model=model_file, epsilon=1e-4, v0="1.0",
                  report_out=str(tmp_path / "r.json"), strategies_out=str(strategies)))
    out = tmp_path / "values.json"
    assert run(RunConfig(command="eval", model=model_file,
                         strategies_in=str(strategies), out=str(out))) == 0
    values = json.loads(out.read_text())["values"]

    m = load_model(json.dumps(INVESTMENT_DOC))
    pair = value_iterate(m, 1e-4, v0=np.ones(3)).equilibrium
    exact = evaluate_stationary_pair(m, pair)
    for x, v in values.items():
        assert v == pytest.approx(exact[m.state_index(x)], rel=1e-9)


def test_simulate_with_strategies(tmp_path, model_file):
    strategies = tmp_path / "strategies.json"
    run(RunConfig(command="solve", model=model_file, epsilon=1e-4, v0="1.0",
                  report_out=str(tmp_path / "r.json"), strategies_out=str(strategies)))
    out = tmp_path / "mc.json"
    config = RunConfig(command="simulate", model=model_file, state="3",
                       strategies_in=str(strategies), trajectories=500, seed=9, out=str(out))
    assert run(config) == 0
    doc = json.loads(out.read_text())
    assert doc["trajectories"] == 500 and doc["seed"] == 9
    assert doc["mean"] == pytest.approx(11.166, abs=0.3)
    assert doc["stdError"] > 0.0 and doc["truncationBound"] >= 0.0


def test_simulate_solves_when_no_strategies_given(tmp_path, model_file):
    out = tmp_path / "mc.json"
    config = RunConfig(command="simulate", model=model_file, state="1",
                       epsilon=1e-4, trajectories=300, seed=5, out=str(out))
    assert run(config) == 0
    assert json.loads(out.read_text())["mean"] == pytest.approx(12.6, abs=0.5)


# half of each state's mass moves to the state of weight 10: drift fails
DRIFT_DOC = {
    "states": ["s0", "s1"],
    "actions1": {"s0": ["a"], "s1": ["a"]},
    "actions2": {"s0": ["b"], "s1": ["b"]},
    "weight": {"s0": 1.0, "s1": 10.0},
    "triples": [
        {"state": x, "a": "a", "b": "b", "alpha": 1.0, "reward": 1.0,
         "sojourn": {"kind": "exponential", "rate": 1.0}, "transition": {"s0": 0.5, "s1": 0.5}}
        for x in ("s0", "s1")
    ],
}


def test_simulate_writes_the_failed_certificate_and_exits_3(tmp_path):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(DRIFT_DOC))
    out = tmp_path / "mc.json"
    config = RunConfig(command="simulate", model=str(path), state="s0", trajectories=10, out=str(out))
    assert run(config) == 3
    cert = json.loads(out.read_text())["certificate"]
    assert cert["passed"] is False
    assert [name for name, c in cert["checks"].items() if not c["passed"]] == ["drift"]
    assert cert["checks"]["drift"]["witness"] == "eta_min 5.5, eta 5.5, eta*gamma 4.125"


def test_simulate_rejects_an_unknown_state_before_the_certificate(tmp_path, capsys):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(DRIFT_DOC))
    out = tmp_path / "mc.json"
    config = RunConfig(command="simulate", model=str(path), state="nope", trajectories=10, out=str(out))
    assert run(config) == 2
    assert capsys.readouterr().err == "error: unknown state 'nope'\n"
    assert not out.exists()


def test_game_inline_matrix(capsys):
    assert run(RunConfig(command="game", matrix="[[1, -1], [-1, 1]]")) == 0
    out = capsys.readouterr().out
    assert '"value": 0.0\n' in out  # not -0.0; the last key
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["rowStrategy"] == [0.5, 0.5]
    _assert_game_answer([[1, -1], [-1, 1]], doc)
    ok, _ = verify_saddle_point([[1, -1], [-1, 1]], doc["rowStrategy"], doc["colStrategy"], tol=1e-9)
    assert ok


def test_game_from_file(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text("[[3, 1], [0, 2]]")
    assert run(RunConfig(command="game", matrix=str(path))) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(1.5, abs=1e-12)
    assert doc["colStrategy"] == pytest.approx([0.25, 0.75], abs=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(command="check", model="/nonexistent/model.json"),
        RunConfig(command="game", matrix="[[1, oops]]"),
        RunConfig(command="solve", model=INVESTMENT, epsilon=-1.0),
        RunConfig(command="simulate", model=INVESTMENT, state="1", trajectories=1),
        RunConfig(command="solve", model=INVESTMENT, epsilon=float("inf")),
        RunConfig(command="solve", model=INVESTMENT, epsilon=float("nan")),
        RunConfig(command="simulate", model=INVESTMENT, state="1", epsilon=float("inf")),
        RunConfig(command="simulate", model=INVESTMENT, state="1", epsilon=float("nan")),
        RunConfig(command="solve", model=str(MODELS_DIR / "single_state.json"), v0="4",
                  max_iter=0),  # one application would already stop here
        RunConfig(command="solve", model=INVESTMENT, max_iter=-1),
    ],
)
def test_input_errors_exit_2(config, capsys):
    assert run(config) == 2
    assert "error:" in capsys.readouterr().err


AUX = object()  # stands for the path of the case's auxiliary JSON file


@pytest.mark.parametrize(
    "fields, aux, message",
    [
        ({"command": "check", "model": None}, None, "a model path is required"),
        ({"command": "solve", "v0": AUX}, {"1": 1.0, "2": 1.0}, "v0 file missing states ['3']"),
        ({"command": "solve", "v0": AUX}, [1.0, 1.0],
         "v0 file must map states to numbers or list one value per state"),
        ({"command": "eval"}, None, "a strategies file is required"),
        ({"command": "eval", "strategies_in": AUX}, [], "strategies file must be an object keyed by state"),
        ({"command": "eval", "strategies_in": AUX}, {"1": {"f": {"a11": 1.0}}},
         "strategies file missing 'f'/'g' for state '1'"),
        ({"command": "eval", "strategies_in": AUX}, {"1": {"f": [1.0, 0.0], "g": {}}},
         "strategies['1'].f must map actions to probabilities"),
        ({"command": "simulate"}, None, "simulate requires --state"),
        # checked before the certificate, which fails on DRIFT_DOC
        ({"command": "simulate", "model": AUX, "state": "s0", "trajectories": 1}, DRIFT_DOC,
         "trajectories must be an integer of at least 2, got 1"),
        ({"command": "simulate", "model": AUX, "state": "s0", "seed": -1}, DRIFT_DOC,
         "seed must be a non-negative integer, got -1"),
        ({"command": "simulate", "model": AUX, "state": "s0", "epsilon": math.nan}, DRIFT_DOC,
         "epsilon must be positive and finite, got nan"),
        ({"command": "solve", "model": AUX, "epsilon": math.nan}, DRIFT_DOC,
         "epsilon must be positive and finite, got nan"),
        ({"command": "solve", "model": AUX, "max_iter": 0}, DRIFT_DOC,
         "max_iter must be an integer of at least 1, got 0"),
        ({"command": "solve", "model": AUX, "v0": "nan"}, DRIFT_DOC,
         "v0 holds a number that is not finite as a float"),
        # the epsilon of the inner solve is checked even when a pair is given
        ({"command": "simulate", "state": "1", "strategies_in": AUX, "epsilon": math.nan},
         {x: {"f": {f"a{x}1": 1.0}, "g": {f"b{x}1": 1.0}} for x in ("1", "2", "3")},
         "epsilon must be positive and finite, got nan"),
        ({"command": "game", "model": None}, None, "a matrix (inline JSON or a file path) is required"),
        ({"command": "game", "model": None, "matrix": "[]"}, None,
         "matrix must be a nonempty JSON array of arrays of numbers"),
        # only JSON numbers count, whatever float() makes of a string or a boolean
        ({"command": "eval", "strategies_in": AUX},
         {x: {"f": {f"a{x}1": True}, "g": {f"b{x}1": 1.0}} for x in ("1", "2", "3")},
         "strategies['1'].f['a11'] holds a non-numeric value True"),
        ({"command": "eval", "strategies_in": AUX},
         {x: {"f": {f"a{x}1": 1.0}, "g": {f"b{x}1": "0.5", f"b{x}2": 0.5}} for x in ("1", "2", "3")},
         "strategies['1'].g['b11'] holds a non-numeric value '0.5'"),
        ({"command": "solve", "v0": AUX}, {"1": "3", "2": True, "3": 0},
         "v0 file at state '1' holds a non-numeric value '3'"),
        ({"command": "solve", "v0": AUX}, {"1": 3, "2": True, "3": 0},
         "v0 file at state '2' holds a non-numeric value True"),
        ({"command": "solve", "v0": AUX}, [3, 0, False],
         "v0 file at state '3' holds a non-numeric value False"),
        ({"command": "solve", "v0": AUX}, {"1": 1.0, "2": 1.0, "3": 1.0, "9": 0.0, "4": 0.0},
         "v0 file lists unknown states ['4', '9']"),
        ({"command": "eval", "strategies_in": AUX},
         {x: {"f": {f"a{x}1": 1.0}, "g": {f"b{x}1": 1.0}} for x in ("1", "2", "3", "7")},
         "strategies file lists unknown states ['7']"),
        # the pair is checked as it is read, before any evaluation or simulation
        ({"command": "eval", "strategies_in": AUX},
         {x: {"f": {f"a{x}1": 0.7}, "g": {f"b{x}1": 1.0}} for x in ("1", "2", "3")},
         "strategies['1'].f is not a probability vector: array([0.7, 0. ])"),
        ({"command": "simulate", "state": "1", "strategies_in": AUX},
         {x: {"f": {f"a{x}1": 1.0}, "g": {f"b{x}1": -0.5, f"b{x}2": 1.5}} for x in ("1", "2", "3")},
         "strategies['1'].g is not a probability vector: array([-0.5,  1.5])"),
    ],
    ids=[
        "no-model", "v0-missing-states", "v0-neither-mapping-nor-list", "no-strategies",
        "strategies-not-an-object", "strategies-without-f-g", "strategies-f-not-a-mapping",
        "simulate-without-state", "simulate-one-trajectory", "simulate-negative-seed",
        "simulate-nan-epsilon", "solve-nan-epsilon", "solve-zero-max-iter", "solve-nan-v0",
        "simulate-pair-nan-epsilon",
        "no-matrix", "empty-matrix",
        "strategies-boolean", "strategies-string", "v0-string", "v0-boolean", "v0-list-boolean",
        "v0-unknown-states", "strategies-unknown-states", "eval-pair-not-a-distribution",
        "simulate-pair-not-a-distribution",
    ],
)
def test_bad_inputs_exit_2_with_their_message(tmp_path, capsys, fields, aux, message):
    path = tmp_path / "aux.json"
    path.write_text(json.dumps(aux))
    fields = {"model": INVESTMENT, **fields}
    config = RunConfig(**{k: str(path) if v is AUX else v for k, v in fields.items()})
    assert run(config) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_auxiliary_files_exit_2(tmp_path, model_file, capsys):
    v0 = tmp_path / "v0.json"
    v0.write_text(json.dumps({"1": None, "2": 1.0, "3": 1.0}))
    config = RunConfig(command="solve", model=model_file, epsilon=1e-3, v0=str(v0),
                       report_out=str(tmp_path / "r.json"))
    assert run(config) == 2
    assert "non-numeric" in capsys.readouterr().err

    strategies = tmp_path / "eq.json"
    strategies.write_text(json.dumps({x: {"f": {"a": "high"}, "g": {}} for x in ("1", "2", "3")}))
    assert run(RunConfig(command="eval", model=model_file, strategies_in=str(strategies))) == 2


def test_paper_params_outside_preset_bounds_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["triples"][0]["sojourn"]["rate"] = 200.0  # above the preset rate bound
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig(command="check", model=str(path), paper_params=True)) == 2
    assert "exceeds bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "law, inside, outside, limit",
    [(Exponential, 20.0, (120.0, 150.0), "exceeds bound 100.0"),
     (Uniform, 0.5, (0.08, 0.05), "below floor 0.1"),
     (Deterministic, 0.5, (0.08, 0.05), "below floor 0.1")],
    ids=lambda v: getattr(v, "kind", None),
)
def test_paper_params_names_the_steepest_triple_out_of_bounds(
    tmp_path, capsys, law, inside, outside, limit
):
    # the first triple breaks the preset bound, the second breaks it further
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    for triple, param in zip(doc["triples"], (*outside, inside)):
        triple["sojourn"] = law(param).to_obj()
    path = tmp_path / "out-of-bounds.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig(command="check", model=str(path), paper_params=True)) == 2
    message = f"{law.kind} {law.label} {outside[1]!r} at ('1', 'a11', 'b12') {limit}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_invalid_model_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["triples"][0]["transition"] = {"2": 0.5, "3": 0.4}
    bad.write_text(json.dumps(doc))
    assert run(RunConfig(command="check", model=str(bad))) == 2
    assert "sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["exponential"], {}], ids=["list", "object"])
def test_an_unhashable_sojourn_kind_exits_2_with_one_error_line(tmp_path, capsys, kind):
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["triples"][0]["sojourn"]["kind"] = kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(RunConfig(command="check", model=str(bad))) == 2
    assert capsys.readouterr().err == (
        "error: sojourn kind must be one of ['deterministic', 'direct', 'exponential', "
        "'uniform']: triple ('only', 'stay', 'stay')\n"
    )


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "base, mutate, culprit",
    [
        (SINGLE_STATE_DOC, lambda d: d["triples"][0].update(alpha=INF),
         "('only', 'stay', 'stay')"),
        (INVESTMENT_DOC, lambda d: d["triples"][5].update(reward=NAN), "('2', 'a21', 'b22')"),
        (SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(rate=INF),
         "('only', 'stay', 'stay')"),
        (INVESTMENT_DOC, lambda d: d["triples"][9]["transition"].update({"1": NAN}),
         "('3', 'a31', 'b32')"),
        (INVESTMENT_DOC, lambda d: d["weight"].update({"2": INF}), "state '2'"),
        (SINGLE_STATE_DOC, lambda d: d["triples"][0].update(alpha=HUGE),
         "('only', 'stay', 'stay')"),
        (INVESTMENT_DOC, lambda d: d["triples"][5].update(reward=-HUGE), "('2', 'a21', 'b22')"),
        (SINGLE_STATE_DOC, lambda d: d["triples"][0]["sojourn"].update(rate=HUGE),
         "('only', 'stay', 'stay')"),
        (INVESTMENT_DOC, lambda d: d["triples"][9]["transition"].update({"1": HUGE}),
         "('3', 'a31', 'b32')"),
        (INVESTMENT_DOC, lambda d: d["weight"].update({"2": HUGE}), "state '2'"),
    ],
    ids=[
        "alpha-infinity", "reward-nan", "rate-infinity", "transition-nan", "weight-infinity",
        "alpha-huge-int", "reward-huge-int", "rate-huge-int", "transition-huge-int",
        "weight-huge-int",
    ],
)
def test_non_finite_numbers_exit_2_naming_the_culprit(tmp_path, capsys, base, mutate, culprit):
    doc = json.loads(json.dumps(base))
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # json writes NaN, Infinity and huge integers as it reads them
    with pytest.raises(ModelValidationError, match=re.escape(culprit)):
        load_model(path.read_text())
    assert run(RunConfig(command="solve", model=str(path), report_out=str(tmp_path / "r.json"))) == 2
    assert culprit in capsys.readouterr().err


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("[[1, 2], [3]]", "matrix row 1 has 1 entries, row 0 has 2"),
        ("[[true, false], [false, true]]", "matrix row 0 is not a nonempty array of numbers"),
        ("[[1, 2], [3, null]]", "matrix row 1 is not a nonempty array of numbers"),
        (f"[[1, 2], [3, {HUGE}]]", "matrix row 1 holds a number that is not finite"),
    ],
    ids=["ragged", "booleans", "null", "huge-int"],
)
def test_game_rejects_a_matrix_that_is_not_rectangular_numbers(matrix, message, capsys):
    assert run(RunConfig(command="game", matrix=matrix)) == 2
    assert message in capsys.readouterr().err


def test_game_verifies_a_large_game_of_value_zero_at_its_payoff_scale(capsys):
    # rounding at entries of 1e8 is about 1e-8, far above 1e-9 * max(1, |value|)
    a = np.random.default_rng(0).uniform(-1e8, 1e8, size=(5, 6))
    a -= solve_matrix_game(a).value
    assert run(RunConfig(command="game", matrix=json.dumps(a.tolist()))) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"]) <= 1e-6
    _assert_game_answer(a, doc)
    scale = max(1.0, float(np.abs(a).max()))
    ok, _ = verify_saddle_point(a, doc["rowStrategy"], doc["colStrategy"], tol=1e-9 * scale)
    assert ok


def test_game_hashes_an_integer_matrix_as_written(capsys):
    assert run(RunConfig(command="game", matrix="[[3, -1], [-2, 4]]")) == 0
    digest = json.loads(capsys.readouterr().out)["model_sha256"]
    assert digest == "e63af6100fe2556d3560ac500b0593821a33c651f9a4d96474a2d4724cee8d7b"


def test_huge_integer_in_a_v0_file_exits_2_naming_the_state(tmp_path, capsys):
    v0 = tmp_path / "v0.json"
    v0.write_text(json.dumps({"1": 1, "2": HUGE, "3": 1}))
    report = tmp_path / "r.json"
    assert main(["solve", INVESTMENT, "--v0", str(v0), "--report", str(report)]) == 2
    assert "v0 file at state '2' holds a number that is not finite" in capsys.readouterr().err
    v0.write_text(json.dumps([1, 1, HUGE]))
    assert main(["solve", INVESTMENT, "--v0", str(v0), "--report", str(report)]) == 2
    assert "v0 file at state '3'" in capsys.readouterr().err
    assert not report.exists()


def test_huge_integer_in_a_strategies_file_exits_2_naming_the_entry(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"only": {"f": {"stay": 1}, "g": {"stay": HUGE}}}))
    single = str(MODELS_DIR / "single_state.json")
    assert main(["eval", single, "--strategies", str(pair)]) == 2
    err = capsys.readouterr().err
    assert "strategies['only'].g['stay'] holds a number that is not finite" in err


def test_paper_params_below_the_preset_discount_floor_names_the_triple(tmp_path, capsys):
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["triples"][4]["alpha"] = 0.3
    doc["triples"][6]["alpha"] = 0.05  # the smallest rate, below PRESET_ALPHA0 = 0.25
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--paper-params"]) == 2
    label = tuple(doc["triples"][6][k] for k in ("state", "a", "b"))
    assert (
        f"discount rate 0.05 at {label!r} is below the preset floor PRESET_ALPHA0 = 0.25"
        in capsys.readouterr().err
    )


def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    out = tmp_path / "est.json"
    args = ["simulate", INVESTMENT, "--state", "1", "--seed", "-1", "--out", str(out)]
    assert main(args) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_eval_with_a_continuation_factor_of_one_exits_2_naming_the_triple(tmp_path, capsys):
    doc = json.loads(json.dumps(SINGLE_STATE_DOC))
    doc["triples"][0]["alpha"] = 1e-20  # rate / (alpha + rate) rounds to exactly 1
    doc["triples"][0]["sojourn"] = {"kind": "exponential", "rate": 1.0}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"only": {"f": {"stay": 1.0}, "g": {"stay": 1.0}}}))
    config = RunConfig(command="eval", model=str(model), strategies_in=str(pair))
    assert run(config) == 2
    assert "('only', 'stay', 'stay')" in capsys.readouterr().err


def test_a_simplex_failure_exits_1_naming_the_state(tmp_path, monkeypatch, capsys):
    failing_simplex(monkeypatch, [0])
    acts = [f"a{i}" for i in range(4)]  # 4x4 games are above the enumerated shapes
    doc = {
        "states": ["wide"],
        "actions1": {"wide": acts},
        "actions2": {"wide": acts},
        "triples": [
            {"state": "wide", "a": a, "b": b, "alpha": 1.0, "reward": float((3 * i + j) % 5),
             "sojourn": {"kind": "exponential", "rate": 2.0}, "transition": {"wide": 1.0}}
            for i, a in enumerate(acts)
            for j, b in enumerate(acts)
        ],
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["solve", str(model), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err == "error: state 'wide': exact answer failed the acceptance test\n"
    assert not report.exists()


def test_a_state_of_value_zero_is_reported_as_a_positive_zero(tmp_path):
    # matching pennies in one state: each application's game has value zero
    doc = {
        "states": ["s"],
        "actions1": {"s": ["h", "t"]},
        "actions2": {"s": ["h", "t"]},
        "triples": [
            {"state": "s", "a": a, "b": b, "alpha": 1.0, "reward": 1.0 if a == b else -1.0,
             "sojourn": {"kind": "exponential", "rate": 1.0}, "transition": {"s": 1.0}}
            for a in ("h", "t")
            for b in ("h", "t")
        ],
    }
    model = tmp_path / "pennies.json"
    model.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["solve", str(model), "--report", str(report)]) == 0
    value = json.loads(report.read_text())["values"]["s"]
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_an_unexpected_error_is_a_bug_not_bad_input(monkeypatch):
    import smgsolve.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "value_iterate", broken)
    with pytest.raises(ValueError, match="^an internal fault$"):  # a traceback and exit 1, not exit 2
        main(["solve", INVESTMENT])


def test_a_simplex_failure_in_game_exits_1(tmp_path, monkeypatch, capsys):
    import smgsolve.cli as cli
    from smgsolve import MatrixGameError

    def fail(c):
        raise MatrixGameError("simplex failed to terminate")

    monkeypatch.setattr(cli, "solve_matrix_game", fail)
    out = tmp_path / "game.json"
    assert main(["game", "[[1, -1], [-1, 1]]", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: simplex failed to terminate\n"
    assert not out.exists()


def test_main_parses_argv(tmp_path, model_file):
    out = tmp_path / "cert.json"
    assert main(["check", model_file, "--paper-params", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["paper_params"] is True


def test_eval_has_no_paper_params_flag(capsys):
    # eval certifies nothing, so the flag would be recorded and ignored
    with pytest.raises(SystemExit) as exit_:
        config_from_args(["eval", INVESTMENT, "--strategies", "pair.json", "--paper-params"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --paper-params" in capsys.readouterr().err


def test_config_from_args_defaults():
    config = config_from_args(["solve", "m.json"])
    assert config.command == "solve"
    assert config.epsilon == 1e-6
    assert config.v0 is None and config.max_iter is None


def test_solve_with_an_epsilon_whose_ratio_to_the_first_residual_underflows(tmp_path):
    # from 100 the first residual is near 14, and 5e-324 / 14 is 0.0 in floats
    report = tmp_path / "report.json"
    argv = ["solve", INVESTMENT, "--epsilon", "5e-324", "--v0", "100", "--report", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text())["final_delta"] == 0.0


@pytest.mark.parametrize(
    "factor, argv, named",
    [
        (1e308, ["solve", "--report", "out.json"], "the payoff of triple ('2', 'a22', 'b22')"),
        (1e308, ["eval", "--strategies", "pair.json", "--out", "out.json"],
         "the pair's value at state '1'"),
        (1e307, ["simulate", "--state", "1", "--trajectories", "1000", "--out", "out.json"],
         "the Monte Carlo estimate from state '1'"),
        (1e307, ["simulate", "--state", "1", "--trajectories", "1000", "--strategies", "pair.json",
                 "--out", "out.json"], "the Monte Carlo estimate from state '1'"),
    ],
    ids=["solve", "eval", "simulate", "simulate-pair"],
)
def test_values_beyond_the_float_range_exit_2_naming_the_state(
    tmp_path, monkeypatch, capsys, factor, argv, named
):
    monkeypatch.chdir(tmp_path)
    text = json.dumps(scaled_rewards_doc(factor))
    Path("model.json").write_text(text)
    m = load_model(text)
    Path("pair.json").write_text(json.dumps(strategy_tables(m, uniform_pair(m))))
    assert main([argv[0], "model.json", *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: values beyond the float64 range: {named} overflows\n"
    assert not Path("out.json").exists()  # no artifact holds a number that is not finite


@pytest.mark.parametrize("factor", [1e200, 1e306])
def test_simulate_with_statistics_beyond_the_float_range_on_finite_payoffs(
    tmp_path, monkeypatch, factor
):
    # the squared deviations (and at 1e306 the sum) of the payoffs overflow
    monkeypatch.chdir(tmp_path)
    for name, scale in (("base.json", 1.0), ("model.json", factor)):
        Path(name).write_text(json.dumps(scaled_rewards_doc(scale)))
        argv = ["simulate", name, "--state", "1", "--trajectories", "1000", "--out", "mc-" + name]
        assert main(argv) == 0
    base, doc = (json.loads(Path(f"mc-{n}.json").read_text()) for n in ("base", "model"))
    for key in ("mean", "stdError", "truncationBound"):
        assert doc[key] == pytest.approx(factor * base[key], rel=1e-9)


def test_game_near_the_float_limit_answers_without_an_overflow_warning(capsys):
    # a candidate's exploitability overflows to inf, which rejects it; under the
    # test configuration the overflow warning would raise
    matrix = "[[1.7e308,-1.7e308,0],[-1.7e308,1.7e308,1],[0,1,-1.7e308]]"
    assert main(["game", matrix]) == 0
    doc = strict_json(capsys.readouterr().out)
    a = np.array(json.loads(matrix))
    _assert_game_answer(a, doc)
    ok, _ = verify_saddle_point(a, doc["rowStrategy"], doc["colStrategy"], tol=1e-9 * np.abs(a).max())
    assert ok
    assert math.isfinite(doc["value"]) and math.isfinite(doc["dualityGap"])


# in game A a mixed payoff x A y overflows, though the answer's exploitability
# fits the float range; in game B the singular fallback's slogdet meets an LU
# that overflows
GAME_A = (
    "[[1.0,8.9e307,8.9e307],[8.9e307,-1.7e308,1.7976931348623157e308],[0.0,1.7e308,1.7e308],"
    "[1.7976931348623157e308,1.7976931348623157e308,1.7e308],"
    "[1.7976931348623157e308,1.0,1.7976931348623157e308]]"
)
GAME_B = (
    "[[1.7e308,-1.7e308,1.7976931348623157e308],[1.7976931348623157e308,1.7e308,"
    "-1.7976931348623157e308],[0.0,-1.7976931348623157e308,1.7e308]]"
)


@pytest.mark.parametrize("matrix", [GAME_A, GAME_B], ids=["A", "B"])
def test_game_at_the_float_limit_writes_strict_json_and_nothing_to_stderr(matrix, capsys):
    assert main(["game", matrix]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = strict_json(out)
    _assert_game_answer(json.loads(matrix), doc)
    if matrix == GAME_A:
        assert doc["dualityGap"] == 0.0
