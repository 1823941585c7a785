"""Seeded random game specs for the tests.

``random_game`` draws every number from the ``random.Random`` it is given, in
a fixed order, so a seed names one spec for good.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gameval.io import load_game
from gameval.model import GameSpec

from oracles import game_doc


def random_game(
    rng: random.Random,
    *,
    max_periods: int = 3,
    max_states: int = 2,
    n_actions: int = 2,
    allow_zero: bool = False,
    state_dependent: bool = False,
    n_players: int = 2,
) -> GameSpec:
    """Small random game with rational costs and simplex-grid kernels.

    Kernels come from integer weights normalized on the simplex, strictly
    positive unless ``allow_zero``; costs are quarter-integer rationals.
    Each of the ``n_players`` players has ``n_actions`` actions.
    """
    horizon = rng.randint(1, max_periods)
    states: list[list[str]] = [["r0"]]
    for t in range(1, horizon + 1):
        states.append([f"t{t}s{k}" for k in range(rng.randint(1, max_states))])
    actions = [[str(a) for a in range(n_actions)] for _ in range(n_players)]
    joints = list(itertools.product(range(n_actions), repeat=n_players))

    def kernel(width: int) -> tuple[Fraction, ...]:
        while True:
            lo = 0 if allow_zero else 1
            weights = [rng.randint(lo, 4) for _ in range(width)]
            total = sum(weights)
            if total > 0:
                return tuple(Fraction(w, total) for w in weights)

    def cost() -> Fraction:
        return Fraction(rng.randint(-8, 8), 4)

    def keys(t: int):
        """Level t's data keys: its states, or its prefixes when path keyed."""
        return states[t] if state_dependent else itertools.product(*states[: t + 1])

    transitions: dict = {}
    running: list[dict] = [{} for _ in range(n_players)]
    terminal: list[dict] = [{} for _ in range(n_players)]
    for t in range(horizon):
        for key in keys(t):
            for joint in joints:
                transitions[(t, key, joint)] = kernel(len(states[t + 1]))
            for i in range(n_players):
                for ai in range(n_actions):
                    running[i][(t, key, ai)] = cost()
    for key in keys(horizon):
        for i in range(n_players):
            terminal[i][key] = cost()

    return load_game(game_doc(
        horizon=horizon,
        states=states,
        actions=actions,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=state_dependent,
    ))
