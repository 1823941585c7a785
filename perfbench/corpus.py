"""Seeded input generators for the benchmark.

Every input is a game spec *document*: the JSON-ready dict that
``gameval.io.load_game`` reads, with rationals as "p/q" strings. The
generators are written against that document format, not against
``gameval.dpp.random_game``, so a change to the package's own random
generator cannot change the corpus.

The discrete corpora follow the criterion-8 distribution of the acceptance
suite (two players, two actions each, horizon at most 3, at most 2 states per
later period, kernel weights on a simplex grid, quarter-integer costs in
[-2, 2]). Shapes are *stratified*: each pass holds a fixed number of specs of
every shape, and the seed draws only the kernels and costs. Enumeration cost
is set almost entirely by the shape (a zero-kernel spec with shape
(1, 2, 2, 1) costs about 2 s, one with shape (1, 2) under 1 ms), so drawing
the shapes at random would make the pass time depend on the seed more than on
the program.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ACTIONS = ["0", "1"]
JOINTS = [f"{a},{b}" for a, b in itertools.product(ACTIONS, ACTIONS)]

# Criterion-8 shapes: the number of states at times 0..H (time 0 is the
# single root "r0"). Weights follow the criterion-8 frequencies (horizon
# uniform on 1..3, each later level uniform on 1..2), except that horizon 1
# gets 6 specs of a block of 22 instead of 8 of 24. With the exact
# frequencies the cheaper half of the pass ends exactly at the last (1, 1, 2)
# spec, so the median latency was the mean of the slowest (1, 1, 2) spec and
# the fastest (1, 1, 1, 1) spec, 25 % apart, and moved with the seed. With
# these weights the median falls inside the (1, 1, 1, 1) and (1, 2, 1)
# specs, whose latencies overlap.
POSITIVE_SHAPES = {
    **{(1, s1): 3 for s1 in (1, 2)},
    **{(1, s1, s2): 2 for s1 in (1, 2) for s2 in (1, 2)},
    **{(1, s1, s2, s3): 1 for s1 in (1, 2) for s2 in (1, 2) for s3 in (1, 2)},
}
POSITIVE_BLOCKS = 20  # 440 specs per pass

# Zero-kernel shapes: shapes that can hold a zero transition probability
# (some later level has 2 states). The counts place the median item inside
# the (1, 2, 2) group and the tail item inside the (1, 2, 1, x) group, so
# neither reading falls on the edge between two shapes. The one heavy shape,
# (1, 2, 2, 1), enumerates 4^7 profiles with the general enumerator, as the
# heaviest criterion-8 specs do; (1, 2, 2, 2) enumerates the same profiles
# with longer walks and would add 3 s to every pass.
ZERO_SHAPES = {
    (1, 2): 4,
    (1, 1, 2): 3,
    (1, 2, 1): 3,
    (1, 2, 2): 12,
    (1, 1, 1, 2): 2,
    (1, 1, 2, 1): 2,
    (1, 1, 2, 2): 2,
    (1, 2, 1, 1): 6,
    (1, 2, 1, 2): 6,
    (1, 2, 2, 1): 1,
}

MARKOV_STATES = 3
MARKOV_HORIZONS = tuple(range(2, 9))
MARKOV_LADDERS = 4
# Player 0's running costs at period t are multiples of 1 / (4 p), p =
# PERIOD_PRIMES[t], and the difference between its two actions keeps p in its
# reduced denominator. Player 0's continuation values have denominators made
# of 4, kernel totals (at most 12) and the primes of later periods, so no
# continuation can offset that difference exactly.
PERIOD_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43)


def _kernel(rng: random.Random, width: int, lowest: int) -> list[Fraction]:
    while True:
        weights = [rng.randint(lowest, 4) for _ in range(width)]
        total = sum(weights)
        if total > 0:
            return [Fraction(w, total) for w in weights]


def _cost(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-8, 8), 4))


def _spec(states, transitions, running, terminal, state_dependent: bool) -> dict:
    return {
        "horizon": len(states) - 1,
        "players": 2,
        "states": states,
        "actions": [list(ACTIONS), list(ACTIONS)],
        "flags": {"state_dependent": state_dependent},
        "transitions": transitions,
        "running_costs": running,
        "terminal_costs": terminal,
    }


def _document(rng: random.Random, shape: tuple[int, ...], lowest: int) -> tuple[dict, bool]:
    """One path-dependent spec of the given shape; also says if a zero was drawn."""
    horizon = len(shape) - 1
    states = [["r0"]] + [[f"t{t}s{k}" for k in range(shape[t])] for t in range(1, horizon + 1)]
    transitions: dict = {}
    running: list[dict] = [{}, {}]
    terminal: list[dict] = [{}, {}]
    has_zero = False
    for t in range(horizon):
        for prefix in itertools.product(*states[: t + 1]):
            where = "/".join(prefix)
            for joint in JOINTS:
                probs = _kernel(rng, len(states[t + 1]), lowest)
                has_zero = has_zero or any(p == 0 for p in probs)
                transitions[f"{t}|{where}|{joint}"] = {
                    s: str(p) for s, p in zip(states[t + 1], probs)
                }
            for i in range(2):
                for a in ACTIONS:
                    running[i][f"{t}|{where}|{a}"] = _cost(rng)
    for path in itertools.product(*states):
        for i in range(2):
            terminal[i]["/".join(path)] = _cost(rng)
    return _spec(states, transitions, running, terminal, False), has_zero


def _stratified(shapes: dict, blocks: int) -> list[tuple[int, ...]]:
    return [shape for _ in range(blocks) for shape, k in shapes.items() for _ in range(k)]


def positive_corpus(seed: int) -> list[dict]:
    """Strictly positive specs, every criterion-8 shape at its frequency."""
    rng = random.Random(seed)
    return [_document(rng, shape, 1)[0] for shape in _stratified(POSITIVE_SHAPES, POSITIVE_BLOCKS)]


def zero_corpus(seed: int) -> list[dict]:
    """Specs with at least one zero transition probability, by shape."""
    rng = random.Random(seed)
    out = []
    for shape in _stratified(ZERO_SHAPES, 1):
        while True:
            doc, has_zero = _document(rng, shape, 0)
            if has_zero:
                out.append(doc)
                break
    return out


def _controller_costs(rng: random.Random, prime: int) -> tuple[str, str]:
    """Player 0's costs of its two actions, in [-2, 2], differing by k / (4 prime)
    with k not a multiple of ``prime``."""
    while True:
        n0, n1 = (rng.randint(-8 * prime, 8 * prime) for _ in ACTIONS)
        if (n0 - n1) % prime:
            return str(Fraction(n0, 4 * prime)), str(Fraction(n1, 4 * prime))


def markov_document(rng: random.Random, horizon: int) -> dict:
    """State-dependent single-controller spec: one root state, then 3 states.

    The kernel depends on player 0's action only, so player 1's action moves
    only player 1's own running cost, and each one-step game has a single
    equilibrium value unless player 0 is exactly indifferent. Player 0's
    costs rule that out (see ``PERIOD_PRIMES``), so every value set has one
    point and no item can reach the recursion's selection cap. When both
    players move the kernel, about one spec in seven at horizon 6 or more
    grows its value set past that cap.
    """
    labels = [f"m{k}" for k in range(MARKOV_STATES)]
    states = [["r0"]] + [list(labels) for _ in range(horizon)]
    transitions: dict = {}
    running: list[dict] = [{}, {}]
    terminal: list[dict] = [{}, {}]
    for t in range(horizon):
        for s in states[t]:
            for a0 in ACTIONS:
                probs = _kernel(rng, MARKOV_STATES, 1)
                for a1 in ACTIONS:
                    transitions[f"{t}|{s}|{a0},{a1}"] = {x: str(p) for x, p in zip(labels, probs)}
            for a, cost in zip(ACTIONS, _controller_costs(rng, PERIOD_PRIMES[t])):
                running[0][f"{t}|{s}|{a}"] = cost
            for a in ACTIONS:
                running[1][f"{t}|{s}|{a}"] = _cost(rng)
    for s in labels:
        for i in range(2):
            terminal[i][s] = _cost(rng)
    return _spec(states, transitions, running, terminal, True)


def markov_ladders(seed: int) -> list[dict]:
    """Several ladders of Markov specs, horizons 2..8 in each."""
    rng = random.Random(seed)
    return [markov_document(rng, h) for _ in range(MARKOV_LADDERS) for h in MARKOV_HORIZONS]
