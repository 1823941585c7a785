"""Named example games shipped as data files.

The discrete presets are complete spec documents under ``gameval/data`` and
load through the ordinary JSON reader. The perturbed two-period game behind
the Pareto counterexample depends on a user-chosen kernel perturbation, so
its stage tables live in a data file and its spec document is assembled here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .errors import GameValidationError
from .io import frac_from_str, frac_to_str, load_game
from .model import ONE, GameSpec

SPEC_FILES = {
    "table1": "table1.json",
    "table2_left": "table2_left.json",
    "table2_right": "table2_right.json",
    "path": "path_game.json",
    "psistate": "path_game.json",
    "state": "state_game.json",
}

EXAMPLE_NAMES = (*SPEC_FILES, "pareto", "openloop")

PDE_PRESETS = ("single-player", "static", "zero-sum")


def _data_text(name: str) -> str:
    return resources.files("gameval").joinpath("data").joinpath(name).read_text("utf-8")


def load_example(name: str) -> GameSpec:
    """Load a discrete preset spec by its public name."""
    try:
        fname = SPEC_FILES[name]
    except KeyError as exc:
        raise GameValidationError(
            f"no spec preset {name!r}; choose from {sorted(SPEC_FILES)}"
        ) from exc
    return load_game(json.loads(_data_text(fname)))


def pareto_tables() -> dict:
    """Raw stage tables of the Pareto counterexample game."""
    return json.loads(_data_text("pareto_tables.json"))


def build_pareto_spec(eps: Fraction) -> GameSpec:
    """Two-period game whose first-period kernel is perturbed by ``eps``.

    Each first-period joint action steers the chain to its designated branch
    with probability 1 - 3*eps and to each other branch with probability eps.
    """
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 3):
        raise GameValidationError("perturbation must satisfy 0 < eps < 1/3 to keep q > 0")
    tables = pareto_tables()
    branches = tables["branches"]
    near, far = frac_to_str(ONE - 3 * eps), frac_to_str(eps)
    # The tables key joint actions by action indices, which are the action labels here.
    transitions = {
        f"0|s0|{joint}": {s: near if s == target else far for s in branches}
        for joint, target in tables["kernel_target"].items()
    }
    running: list[dict] = [{"0|s0|0": "0", "0|s0|1": "0"} for _ in range(2)]
    terminal: list[dict] = [{}, {}]
    for s in branches:
        for joint, q in tables["q_stage1_to_s20"].items():
            rest = frac_to_str(ONE - frac_from_str(q))
            transitions[f"1|s0/{s}|{joint}"] = {"s20": q, "s21": rest}
        for i in range(2):
            for a in "01":
                running[i][f"1|s0/{s}|{a}"] = tables["f_stage1"][s][i]
            terminal[i][f"s0/{s}/s20"] = tables["g_stage1"][s][i]
            terminal[i][f"s0/{s}/s21"] = "0"
    return load_game(
        {
            "horizon": 2,
            "players": 2,
            "states": [["s0"], branches, ["s20", "s21"]],
            "actions": [["0", "1"], ["0", "1"]],
            "transitions": transitions,
            "running_costs": running,
            "terminal_costs": terminal,
        }
    )
