"""Named example games shipped as data files.

The discrete presets are complete spec documents under ``gameval/data`` and
load through the ordinary JSON reader. The perturbed two-period game behind
the Pareto counterexample depends on a user-chosen kernel perturbation, so
its stage tables live in a data file and the full spec is assembled here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .errors import GameValidationError
from .io import frac_from_str, load_game
from .model import ONE, ZERO, GameSpec

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
    branches = list(tables["branches"])
    f1 = {s: tuple(frac_from_str(v) for v in vec) for s, vec in tables["f_stage1"].items()}
    g1 = {s: tuple(frac_from_str(v) for v in vec) for s, vec in tables["g_stage1"].items()}
    q1 = {
        tuple(int(x) for x in key.split(",")): frac_from_str(v)
        for key, v in tables["q_stage1_to_s20"].items()
    }
    target = {
        tuple(int(x) for x in key.split(",")): s for key, s in tables["kernel_target"].items()
    }

    states = [["s0"], branches, ["s20", "s21"]]
    actions = [["0", "1"], ["0", "1"]]
    joints = [(0, 0), (0, 1), (1, 0), (1, 1)]
    root = ("s0",)

    transitions: dict = {}
    for joint in joints:
        vec = tuple(ONE - 3 * eps if s == target[joint] else eps for s in branches)
        transitions[(0, root, joint)] = vec
    for s in branches:
        prefix = ("s0", s)
        for joint in joints:
            q = q1[joint]
            transitions[(1, prefix, joint)] = (q, ONE - q)

    running = [{}, {}]
    for i in range(2):
        for ai in range(2):
            running[i][(0, root, ai)] = ZERO
            for s in branches:
                running[i][(1, ("s0", s), ai)] = f1[s][i]

    terminal = [{}, {}]
    for i in range(2):
        for s in branches:
            terminal[i][("s0", s, "s20")] = g1[s][i]
            terminal[i][("s0", s, "s21")] = ZERO

    return GameSpec(
        horizon=2,
        states=states,
        actions=actions,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=False,
    )
