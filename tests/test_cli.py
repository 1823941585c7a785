from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import gameval
from gameval import build_path_tree, dump_game, iter_equilibria, load_example
from gameval.cli import main
from gameval.io import record_to_json, write_json
from gameval.model import PATH_CLASS, STATE_CLASS
from gameval.presets import build_pareto_spec

from specgen import random_game


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_setvalue_table1(capsys):
    code, out, _ = run(capsys, "setvalue", "--example", "table1")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == [["0", "1"], ["1", "0"]]


def test_setvalue_degenerate_single_action(capsys, tmp_path):
    rng = random.Random(4)
    spec = random_game(rng, n_actions=1)
    path = tmp_path / "degenerate.json"
    write_json(dump_game(spec), path)
    code, out, _ = run(capsys, "setvalue", "--spec", str(path))
    assert code == 0
    assert len(json.loads(out)["points"]) == 1


def test_setvalue_engines_byte_identical(capsys, tmp_path):
    """A seeded positive kernel and the two zero-kernel spec files."""
    rng = random.Random(42)
    spec = random_game(rng)
    seeded = tmp_path / "random_seed42.json"
    write_json(dump_game(spec), seeded)
    for path in (seeded, DATA / "zero_kernel_path.json", DATA / "zero_kernel_markov.json"):
        brute = tmp_path / "brute.json"
        rec = tmp_path / "dpp.json"
        argv = ["setvalue", "--spec", str(path), "--engine"]
        assert run(capsys, *argv, "brute", "--out", str(brute))[0] == 0
        assert run(capsys, *argv, "dpp", "--out", str(rec))[0] == 0
        assert brute.read_bytes() == rec.read_bytes()
        assert run(capsys, *argv, "both")[0] == 0


def test_setvalue_witnesses(capsys):
    code, out, _ = run(capsys, "setvalue", "--example", "table1", "--witnesses")
    doc = json.loads(out)
    assert len(doc["witnesses"]) == 2
    for witness in doc["witnesses"]:
        assert witness["policy"]["actions"]["0|s0"] in (["0", "0"], ["1", "1"])


def test_examples_round_trip(capsys, tmp_path):
    dumped = tmp_path / "path.json"
    assert run(capsys, "examples", "dump", "path", "--out", str(dumped))[0] == 0
    again = tmp_path / "again.json"
    code, out, _ = run(capsys, "setvalue", "--spec", str(dumped))
    assert code == 0
    assert json.loads(out)["points"] == [["0", "1/4"], ["1/8", "1/8"], ["1/4", "0"]]


def test_examples_list(capsys):
    code, out, _ = run(capsys, "examples", "list")
    assert code == 0
    names = out.split()
    for wanted in ("table1", "path", "psistate", "state", "pareto", "openloop"):
        assert wanted in names


def test_verify_dpp_battery(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify-dpp", "--example", "psistate", "--out", str(out_path))
    assert code == 0 and "relation: rhs_subset" in out
    doc = json.loads(out_path.read_text())
    assert [["1/8", "1/8"]] == doc["lhs_only"]

    code, out, _ = run(capsys, "verify-dpp", "--example", "state", "--out", str(out_path))
    assert code == 0 and "relation: lhs_subset" in out

    code, out, _ = run(capsys, "verify-dpp", "--example", "path", "--out", str(out_path))
    assert code == 0 and "relation: equal" in out

    code, out, _ = run(
        capsys, "verify-dpp", "--example", "pareto", "--pareto-eps", "1/100",
        "--out", str(out_path),
    )
    assert code == 0 and "relation: incomparable" in out


def test_verify_dpp_random_spec(capsys, tmp_path):
    spec = random_game(random.Random(8))
    path = tmp_path / "random_qpos.json"
    write_json(dump_game(spec), path)
    code, out, _ = run(capsys, "verify-dpp", "--spec", str(path), "--stop-time", "1")
    assert code == 0 and "relation: equal" in out


def test_verify_dpp_openloop(capsys, tmp_path):
    out_path = tmp_path / "lq.json"
    code, out, _ = run(
        capsys, "verify-dpp", "--example", "openloop", "--sigma", "0", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["whole_game_value"] == pytest.approx([-1.5, -1.5])
    assert doc["composed_value"] == pytest.approx([-4.0, -4.0])


def test_planner_with_probe(capsys):
    code, out, _ = run(
        capsys, "planner", "--example", "pareto", "--weights", "1/2,1/2", "--probe"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["has_equilibrium"] is True


def test_solve_pde_static_writes_artifacts(capsys, tmp_path):
    prefix = tmp_path / "static"
    code, out, _ = run(
        capsys, "solve-pde", "--preset", "static", "--out-prefix", str(prefix)
    )
    assert code == 0
    nodal = json.loads((tmp_path / "static_nodal.json").read_text())
    assert nodal["min_w"] >= -1e-10
    assert len(nodal["clusters"]) == 1
    assert nodal["clusters"][0]["centroid"] == pytest.approx([0.0, 0.0], abs=1e-9)
    bundle = np.load(tmp_path / "static_field.npz")
    meta = json.loads(str(bundle["meta"]))
    assert meta["n_players"] == 2
    assert bundle["W_0"].shape == (meta["nx"], meta["ny"], meta["ny"])


def test_solve_pde_clusters_report_the_y_boundary(capsys):
    for delta, touches in (("0.05", False), ("4.0", True)):
        code, out, _ = run(
            capsys, "solve-pde", "--preset", "single-player", "--nx", "21", "--ny", "21",
            "--t-final", "0.05", "--delta", delta,
        )
        assert code == 0
        nodal = json.loads(out.split("\n", 1)[1])
        assert [c["touches_y_boundary"] for c in nodal["clusters"]] == [touches]


def test_solve_pde_config_file(capsys, tmp_path):
    config = tmp_path / "custom.json"
    config.write_text(json.dumps({"preset": "static", "grid": {"nx": 11, "ny": 11, "t_final": 0.02}}))
    code, out, _ = run(capsys, "solve-pde", "--config", str(config))
    assert code == 0


def test_a_null_cfl_safety_in_a_config_file_is_the_default(capsys, tmp_path):
    config = tmp_path / "null.json"
    config.write_text(json.dumps({"preset": "zero-sum", "grid": {"cfl_safety": None}}))
    code, out, _ = run(capsys, "solve-pde", "--config", str(config))
    assert code == 0 and out.startswith("preset zero-sum: nt=13 ")
    assert (code, out) == run(capsys, "solve-pde", "--preset", "zero-sum")[:2]


def test_exit_code_validation(capsys, tmp_path):
    code, _, err = run(capsys, "setvalue", "--spec", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon": 1}))
    code, _, err = run(capsys, "setvalue", "--spec", str(bad))
    assert code == 2 and "malformed" in err


def malformed_table1(kind: str) -> str:
    doc = dump_game(load_example("table1"))
    if kind == "transition-key":
        doc["transitions"]["x|s0|0,0"] = doc["transitions"].pop("0|s0|0,0")
    elif kind == "negative-time":
        doc["transitions"]["-5|s0|0,0"] = doc["transitions"]["0|s0|0,0"]
    elif kind == "running-cost-key":
        doc["running_costs"][0]["y|s0|0"] = doc["running_costs"][0].pop("0|s0|0")
    elif kind == "horizon":
        doc["horizon"] = "two"
    elif kind == "vector-list":
        doc["transitions"]["0|s0|0,0"] = list(doc["transitions"]["0|s0|0,0"].values())
    elif kind == "states-number":
        doc["states"] = 5
    elif kind == "flag-string":
        doc["flags"]["state_dependent"] = "false"
    elif kind == "late-running-cost":
        doc["running_costs"][0]["7|s0|0"] = "0"
    elif kind == "unknown-running-cost":
        doc["running_costs"][0]["0|nowhere|0"] = "0"
    elif kind == "unknown-transition":
        doc["transitions"]["0|nowhere|0,0"] = doc["transitions"]["0|s0|0,0"]
    elif kind == "unknown-terminal":
        doc["terminal_costs"][1]["nowhere"] = "0"
    elif kind == "horizon-bool":
        doc["horizon"] = True
    elif kind == "probability-bool":
        doc["transitions"]["0|s0|0,0"] = {"down": True, "up": False}
    elif kind == "cost-bool":
        doc["running_costs"][0]["0|s0|0"] = True
    elif kind == "extra-running-cost":
        doc["running_costs"].append(doc["running_costs"][0])
    elif kind == "state-object":
        doc["states"][1][1] = {"a": 1}
    elif kind == "action-number":
        doc["actions"][0][0] = 0
    elif kind == "short-states":
        del doc["states"][1]
    elif kind == "negative-probability":
        doc["transitions"]["0|s0|0,0"] = {"down": "5/4", "up": "-1/4"}
    elif kind == "missing-running-cost":
        del doc["running_costs"][0]["0|s0|1"]
    elif kind == "missing-terminal-cost":
        del doc["terminal_costs"][1]["up"]
    elif kind == "players-count":
        doc["players"] = 3
    elif kind == "unknown-action":
        doc["transitions"]["0|s0|0,x"] = doc["transitions"].pop("0|s0|0,0")
    elif kind == "one-action-key":
        doc["transitions"]["0|s0|0"] = doc["transitions"].pop("0|s0|0,0")
    elif kind == "key-beyond-horizon":
        doc["transitions"]["1|up|0,0"] = doc["transitions"]["0|s0|0,0"]
    elif kind == "unknown-successor":
        doc["transitions"]["0|s0|0,0"]["sideways"] = "0"
    elif kind == "many-players":  # 2^26 joint actions and one transition
        n = 26
        doc.update(
            players=n,
            actions=[["0", "1"]] * n,
            transitions={"0|s0|" + ",".join("0" * n): doc["transitions"]["0|s0|0,0"]},
            running_costs=doc["running_costs"][:1] * n,
            terminal_costs=doc["terminal_costs"][:1] * n,
        )
    text = json.dumps(doc)
    return text[: len(text) // 2] if kind == "truncated" else text


# Each malformed document, and what its error message names.
MALFORMED = {
    "transition-key": "x|s0|0,0",
    "negative-time": "-5|s0|0,0",
    "running-cost-key": "y|s0|0",
    "horizon": "horizon",
    "vector-list": "0|s0|0,0",
    "truncated": "not JSON",
    "states-number": "states must be an array, got int",
    "flag-string": "state_dependent must be true or false, got 'false'",
    "late-running-cost": "running cost of player 0 at t=7, state='s0' is never read",
    "unknown-running-cost": "running cost of player 0 at t=0, state='nowhere' is never read",
    "unknown-transition": "transition at t=0, state='nowhere' is never read",
    "unknown-terminal": "terminal cost of player 1 at t=1, state='nowhere' is never read",
    "horizon-bool": "horizon must be an integer, got True",
    "probability-bool": "expected rational string, got False",
    "cost-bool": "expected rational string, got True",
    "extra-running-cost": "2 players, 3 running-cost and 2 terminal-cost tables",
    "state-object": "states[1] labels must be strings, got {'a': 1}",
    "action-number": "actions[0] labels must be strings, got 0",
    "short-states": "need 2 state levels, got 1",
    "negative-probability": "negative transition probability",
    "missing-running-cost": "missing running cost for player 0 at t=0, state='s0'",
    "missing-terminal-cost": "missing terminal cost at t=1, state='up'",
    "players-count": "players count disagrees with actions table",
    "unknown-action": "unknown action 'x' for player 1",
    "one-action-key": "transition key '0|s0|0' must list one action per player",
    "key-beyond-horizon": "transition key '1|up|0,0' beyond horizon",
    "unknown-successor": "unknown successor state 'sideways' in '0|s0|0,0'",
    "many-players": "each of the 67108864 joint actions needs one at t=0, got 1 in all",
}


@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_spec_files_exit_2(capsys, tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(malformed_table1(kind))
    code, out, err = run(capsys, "setvalue", "--spec", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "GameValidationError"
    assert MALFORMED[kind] in error["message"]


STATIC = ["solve-pde", "--preset", "static"]
DATA = Path(__file__).parent / "data"
# A horizon-30 Markov spec: a request that enumerates before it validates hits the cap (exit 3).
H30 = ["--spec", str(DATA / "markov_h30.json")]
# dump_game(random_game(random.Random(300), max_periods=1, n_actions=2)): two players
# and no equilibrium, so the weights are never scored against a set value.
NO_EQ = ["planner", "--spec", str(DATA / "no_equilibrium.json")]
SHIPPED = Path(gameval.__file__).parent / "data"
# Each bad flag, or (under a "config-" name) a solve-pde --config document.
BAD_INPUTS = {
    "eps-abc": ["setvalue", "--example", "table1", "--eps", "abc"],
    "eps-1/0": ["setvalue", "--example", "table1", "--eps", "1/0"],
    "pareto-eps-x": ["verify-dpp", "--example", "pareto", "--pareto-eps", "x"],
    "pareto-eps-1/0": ["verify-dpp", "--example", "pareto", "--pareto-eps", "1/0"],
    "dump-pareto-eps-x": ["examples", "dump", "pareto", "--pareto-eps", "x"],
    "ht-negative": [*STATIC, "--ht", "-1"],
    "ht-negative-zero-sum": ["solve-pde", "--preset", "zero-sum", "--ht", "-1"],
    "ht-zero": [*STATIC, "--ht", "0"],
    "t-final-inf": [*STATIC, "--t-final", "inf"],
    "z-max-nan": [*STATIC, "--z-max", "nan"],
    "cfl-safety-inf": [*STATIC, "--cfl-safety", "inf"],
    "delta-negative": [*STATIC, "--delta", "-1"],
    "delta-scale-negative": [*STATIC, "--delta-scale", "-1"],
    "x0-nan": [*STATIC, "--x0", "nan"],
    "ht-above-step-cap": [*STATIC, "--ht", "1e-9"],
    "t-final-above-step-cap": [*STATIC, "--t-final", "1e6"],
    "z-max-1e308": [*STATIC, "--z-max", "1e308"],
    "h30-dpp-pareto": ["setvalue", *H30, "--engine", "dpp", "--variant", "pareto"],
    "h30-both-eps": ["setvalue", *H30, "--engine", "both", "--eps", "1/10"],
    "h30-planner-weights-3": ["planner", *H30, "--weights", "1/3,1/3,1/3"],
    # The probe scores every prefix, so every prefix must be reachable.
    "probe-zero-kernel": ["planner", "--probe", "--spec", str(DATA / "zero_kernel_path.json")],
    "weights-1": [*NO_EQ, "--weights", "1"],
    "weights-3": [*NO_EQ, "--weights", "1/2,1/4,1/4"],
    "weights-1-probe": [*NO_EQ, "--weights", "1", "--probe"],
    "sigma-nan": ["verify-dpp", "--example", "openloop", "--sigma", "nan"],
    "sigma-inf": ["verify-dpp", "--example", "openloop", "--sigma", "inf"],
    "cap-negative": ["setvalue", "--example", "table1", "--cap", "-1"],
    "selection-cap-zero-dpp": [
        "setvalue", "--example", "table1", "--engine", "dpp", "--selection-cap", "0",
    ],
    "h30-cap-zero": ["setvalue", *H30, "--cap", "0"],
    "h30-verify-selection-cap-zero": ["verify-dpp", *H30, "--selection-cap", "0"],
    "h30-planner-cap-zero": ["planner", *H30, "--cap", "0"],
    "setvalue-no-game": ["setvalue"],
    "setvalue-openloop": ["setvalue", "--example", "openloop"],
    "solve-pde-no-preset": ["solve-pde"],
    "dump-no-name": ["examples", "dump"],
    "cfl-safety-zero": [*STATIC, "--cfl-safety", "0"],
    "t-final-zero": [*STATIC, "--t-final", "0"],
    "z-max-zero": [*STATIC, "--z-max", "0"],
    "stop-at-state-nosuch": ["verify-dpp", "--example", "path", "--stop-at-state", "nosuch"],
    "stop-time-and-stop-at-state": [
        "verify-dpp", "--example", "path", "--stop-time", "1", "--stop-at-state", "s10",
    ],
    # One game at a time: a spec file does not silently win over an example.
    "setvalue-spec-and-example": [
        "setvalue", "--example", "table1", "--spec", str(SHIPPED / "path_game.json"),
    ],
    "verify-dpp-spec-and-example": [
        "verify-dpp", "--example", "state", "--spec", str(SHIPPED / "path_game.json"),
    ],
    "planner-spec-and-example": [*NO_EQ, "--example", "path"],
    # --sigma is read only by the open-loop report, --pareto-eps only by the Pareto example.
    "sigma-with-path": ["verify-dpp", "--example", "path", "--sigma", "5"],
    "sigma-with-spec": ["verify-dpp", "--spec", str(SHIPPED / "table1.json"), "--sigma", "0"],
    "pareto-eps-setvalue-table1": ["setvalue", "--example", "table1", "--pareto-eps", "1/50"],
    "pareto-eps-verify-dpp-openloop": [
        "verify-dpp", "--example", "openloop", "--pareto-eps", "1/50",
    ],
    "pareto-eps-planner": [*NO_EQ, "--pareto-eps", "1/50"],
    "pareto-eps-dump-path": ["examples", "dump", "path", "--pareto-eps", "1/50"],
    # The Pareto and open-loop reports fix their game, start and stopping time.
    **{
        f"{example}-{flag}": ["verify-dpp", "--example", example, f"--{flag}", value]
        for example in ("pareto", "openloop")
        for flag, value in {
            "spec": "nonexist.json", "prefix": "s0", "stop-time": "1", "stop-at-state": "s10",
            "variant": "full", "selection-class": "path",
        }.items()
    },
    # The open-loop report enumerates nothing, so it reads neither cap.
    "openloop-cap": ["verify-dpp", "--example", "openloop", "--cap", "5"],
    "openloop-selection-cap": ["verify-dpp", "--example", "openloop", "--selection-cap", "7"],
    # A cap flag that the command or its engine never reads.
    "setvalue-dpp-cap": ["setvalue", "--example", "table1", "--engine", "dpp", "--cap", "1"],
    "setvalue-brute-selection-cap": ["setvalue", "--example", "table1", "--selection-cap", "1"],
    "planner-selection-cap": ["planner", "--example", "table1", "--selection-cap", "1"],
    # Play must run on past the start: a whole level at or before its time stops nothing.
    "stop-time-0-after-start": [
        "verify-dpp", "--example", "path", "--prefix", "s0/s10", "--stop-time", "0",
    ],
    "stop-at-root-state-after-start": [
        "verify-dpp", "--example", "path", "--prefix", "s0/s10", "--stop-at-state", "s0",
    ],
    # The stop time lies in 0..T.
    "stop-time-99": ["verify-dpp", "--example", "path", "--stop-time", "99"],
    "stop-time-negative": ["verify-dpp", "--example", "path", "--stop-time", "-1"],
    # An empty prefix names no node; it is not the default start.
    "setvalue-prefix-empty": ["setvalue", "--example", "table1", "--prefix", ""],
    "verify-dpp-prefix-empty": ["verify-dpp", "--example", "path", "--prefix", ""],
    "planner-prefix-empty": ["planner", "--example", "table1", "--prefix", ""],
    "config-monotone-no": {"preset": "static", "grid": {"monotone": "no"}},
    "config-nx-float": {"preset": "static", "grid": {"nx": 7.0}},
    "config-x-bounds-swapped": {"preset": "static", "grid": {"x_lo": 1.0, "x_hi": -1.0}},
    "config-x-span-inf": {"preset": "static", "grid": {"x_lo": -1e308, "x_hi": 1e308}},
    "config-x-span-tiny": {"preset": "static", "grid": {"x_lo": 0.0, "x_hi": 1e-200}},
    "config-unknown-field": {"preset": "static", "grid": {"dx": 0.1}},
    "config-grid-array": {"preset": "static", "grid": [21]},
    "config-array": ["static"],
    "config-not-json": "{preset: static",
}
BAD_INPUT_MESSAGES = {
    "probe-zero-kernel": "the probe needs q > 0",
    "setvalue-dpp-cap": "--engine dpp takes no --cap without --witnesses",
    "setvalue-brute-selection-cap": "--engine brute takes no --selection-cap",
    "planner-selection-cap": "planner takes no --selection-cap",
    "stop-time-0-after-start": "stopping time must be strictly after the start node",
    "stop-at-root-state-after-start": "stopping time must be strictly after the start node",
    "stop-time-99": "stopping time 99 outside 0..3",
    "stop-time-negative": "stopping time -1 outside 0..3",
    **{
        f"{command}-prefix-empty": "unknown prefix ('',)"
        for command in ("setvalue", "verify-dpp", "planner")
    },
}


@pytest.mark.parametrize("kind", BAD_INPUTS)
def test_bad_flags_and_config_values_exit_2(capsys, tmp_path, kind):
    argv = BAD_INPUTS[kind]
    if kind.startswith("config-"):
        path = tmp_path / "config.json"
        path.write_text(argv if isinstance(argv, str) else json.dumps(argv))
        argv = ["solve-pde", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GameValidationError"
    assert BAD_INPUT_MESSAGES.get(kind, "") in json.loads(err)["message"]


def test_a_config_that_is_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "solve-pde", "--config", str(tmp_path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "IsADirectoryError"


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "setvalue", "--example", "path", "--cap", "3")
    assert code == 3 and "cap" in err


def test_verify_dpp_exits_3_past_the_selection_cap(capsys):
    code, out, err = run(capsys, "verify-dpp", "--example", "path", "--selection-cap", "1")
    assert code == 3 and out == ""
    assert "terminal selection enumeration: needs 4 > cap 1" in json.loads(err)["message"]


def test_exit_code_cfl(capsys):
    code, _, err = run(capsys, "solve-pde", "--preset", "static", "--ht", "1.0")
    assert code == 2 and "stability" in err


def test_exit_code_instability(capsys):
    code, _, err = run(
        capsys, "solve-pde", "--preset", "single-player",
        "--cfl-safety", "4.0", "--t-final", "6.0",
    )
    assert code == 4 and "non-finite" in err


def test_openloop_overflow_exits_4(capsys):
    code, out, err = run(capsys, "verify-dpp", "--example", "openloop", "--sigma", "1e200")
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "NumericInstabilityError"


class ClosedPipe:
    """A stdout whose reader has gone: ``write`` or, for buffered text, ``flush`` raises."""

    def __init__(self, fd, raise_on):
        self.fd, self.raise_on = fd, raise_on

    def write(self, text):
        if self.raise_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.raise_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("raise_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [["examples", "list"], ["solve-pde", "--preset", "static"]])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(
    capsys, monkeypatch, tmp_path, argv, raise_on
):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno(), raise_on))
        code = main(argv)
        # the descriptor now points at devnull, so the exit-time flush cannot fail
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert code == 1 and capsys.readouterr().err == ""


def test_threads_flag_accepted_and_validated(capsys):
    code, out, _ = run(capsys, "--threads", "4", "setvalue", "--example", "table1")
    assert code == 0
    code, _, _ = run(capsys, "--threads", "0", "setvalue", "--example", "table1")
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_a_bad_threads_variable_exits_2_like_a_bad_flag(capsys, monkeypatch, value):
    monkeypatch.setenv("GAMEVAL_THREADS", value)
    code, out, err = run(capsys, "examples", "list")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GameValidationError"
    assert run(capsys, "--threads", "2", "examples", "list")[0] == 0


def test_threads_variable_and_flag_below_1_give_one_json_error(capsys, monkeypatch):
    code, _, flag_err = run(capsys, "--threads", "0", "examples", "list")
    monkeypatch.setenv("GAMEVAL_THREADS", "0")
    assert (code, flag_err) == (2, run(capsys, "examples", "list")[2])
    assert json.loads(flag_err) == {
        "error": "GameValidationError", "message": "--threads must be at least 1",
    }
    monkeypatch.setenv("GAMEVAL_THREADS", "3")
    assert run(capsys, "examples", "list")[0] == 0


def test_the_caps_an_engine_reads_are_kept(capsys):
    for argv in (
        ["--engine", "both", "--cap", "4", "--selection-cap", "1"],
        ["--engine", "dpp", "--witnesses", "--cap", "4", "--selection-cap", "1"],
    ):
        assert run(capsys, "setvalue", "--example", "table1", *argv)[0] == 0
    assert run(capsys, "planner", "--example", "table1", "--cap", "4")[0] == 0


def test_a_cap_of_1_still_exits_3(capsys):
    code, _, err = run(capsys, "setvalue", "--example", "table1", "--cap", "1")
    assert code == 3 and json.loads(err)["message"].endswith("needs 4 > cap 1")


@pytest.mark.parametrize(
    "example,variant,eps",
    [
        pytest.param("path", "state", "0", id="path-state"),
        pytest.param("path", "full", "0", id="path-full"),
        pytest.param("pareto", "pareto", "0", id="pareto-pareto"),
        pytest.param("pareto", "strong-pareto", "0", id="pareto-strong-pareto"),
        pytest.param("table1", "full", "0", id="table1-full"),
        pytest.param("path", "full", "1/10", id="path-full-eps"),
    ],
)
def test_setvalue_witnesses_follow_the_variant(capsys, example, variant, eps):
    """The payload equals the one built by the witness loop that ran before the
    value index: one pass over the records, the first record of each wanted
    value, in enumeration order, slack included."""
    code, out, _ = run(
        capsys, "setvalue", "--example", example, "--variant", variant, "--eps", eps,
        "--witnesses",
    )
    assert code == 0
    doc = json.loads(out)
    values = [w["value"] for w in doc["witnesses"]]
    assert all(value in doc["points"] for value in values)
    assert sorted(values) == sorted(doc["points"])
    spec = build_pareto_spec(F(1, 100)) if example == "pareto" else load_example(example)
    tree = build_path_tree(spec)
    wanted = {tuple(map(F, point)) for point in doc["points"]}
    cls = STATE_CLASS if variant == "state" else PATH_CLASS
    chosen = []
    for rec in iter_equilibria(spec, tree, tree.levels[0][0], eps=F(eps), cls=cls):
        if rec.value in wanted:
            wanted.discard(rec.value)
            chosen.append(record_to_json(spec, tree, rec))
            if not wanted:
                break
    assert out == write_json(dict(doc, witnesses=chosen), None) + "\n"
