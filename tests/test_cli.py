"""Command-line interface: subcommands, artifacts, and exit codes."""

import json
import re

import numpy as np
import pytest

from smgsolve import ModelValidationError, evaluate_stationary_pair, load_model, value_iterate
from smgsolve.cli import RunConfig, config_from_args, main, run

from conftest import INVESTMENT_DOC, MODELS_DIR, SINGLE_STATE_DOC

INVESTMENT = str(MODELS_DIR / "investment.json")


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


def test_game_inline_matrix(capsys):
    assert run(RunConfig(command="game", matrix="[[1, -1], [-1, 1]]")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["rowStrategy"] == [0.5, 0.5]
    assert doc["saddleVerified"] is True


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


def test_invalid_model_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(json.dumps(INVESTMENT_DOC))
    doc["triples"][0]["transition"] = {"2": 0.5, "3": 0.4}
    bad.write_text(json.dumps(doc))
    assert run(RunConfig(command="check", model=str(bad))) == 2
    assert "sum to 1" in capsys.readouterr().err


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


def test_main_parses_argv(tmp_path, model_file):
    out = tmp_path / "cert.json"
    assert main(["check", model_file, "--paper-params", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["paper_params"] is True


def test_config_from_args_defaults():
    config = config_from_args(["solve", "m.json"])
    assert config.command == "solve"
    assert config.epsilon == 1e-6
    assert config.v0 is None and config.max_iter is None
