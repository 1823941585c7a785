"""The exact enumerator's one-step filter skips walks, never records.

``equilibria._one_step_allowed`` restricts the other players' actions at the
units whose continuation is fixed to those of one-step Nash joint actions.
With it replaced by ``untested``, which tests no unit, every best-response
walk runs again; the records, in order and with their policies and slacks,
must come out the same. Counting ``_Responder.update`` calls shows the walks
the filter saves. A scope whose start the filter tests runs no walk at all:
its records, read off the start's one-step Nash table with every other unit
on its forced joint, must equal those of the unfiltered walk search.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from gameval import (
    GameSpec,
    StoppingTime,
    build_path_tree,
    iter_equilibria,
    load_example,
    set_value_bruteforce,
    set_value_dpp,
)
from gameval import equilibria
from gameval.equilibria import _Reach, _Scope, _units_for
from gameval.model import PATH_CLASS, STATE_CLASS

from specgen import random_game
from test_core import tied_game

MAX_CLASS = 4**6


def untested(spec, scope, reach, local):
    return [None] * len(local), [None] * len(local), None


def record_sequences(spec, tree, scope, cls):
    """The records with and without policies, in the order they come."""
    return [
        [
            (rec.policy, rec.value, rec.slack)
            for rec in iter_equilibria(
                spec, tree, scope.start, cls=cls, scope=scope, with_policies=with_policies
            )
        ]
        for with_policies in (True, False)
    ]


def frontier_scopes(spec, tree, rng, time=2):
    """Truncated root scopes as ``verify_dpp`` builds them at a stop time: one
    continuation value per frontier node, from that node's set value."""
    root = tree.levels[0][0]
    frontier = StoppingTime.at_time(tree, time).frontier(tree, root)
    sets = [set_value_bruteforce(spec, tree, nid).points for nid in frontier]
    selections = list(itertools.product(*sets))
    for chosen in rng.sample(selections, min(3, len(selections))):
        yield _Scope(spec, tree, root, frontier=dict(zip(frontier, chosen)))


def cases(kind: str, rng: random.Random):
    """(spec, tree, scope, class) for one kind of spec, about two dozen of them."""
    made = 0
    while made < 24:
        markov = kind == "markov" or made % 2 == 1
        if kind == "one-step":
            shape = dict(
                max_periods=2,
                allow_zero=made % 3 == 0,
                state_dependent=markov,
                n_players=3 if made % 5 == 1 else 2,
                n_actions=3 if made % 5 == 2 else 2,
            )
            if made % 3 == 2:
                spec = tied_game(rng, zero_first=made % 6 == 2, **shape)
            else:
                spec = random_game(rng, **shape)
        elif kind == "tied":
            spec = tied_game(
                rng,
                zero_first=made % 4 < 2,
                max_periods=2,
                allow_zero=made % 3 == 0,
                state_dependent=markov,
                n_players=2 + made % 2,
            )
        else:
            spec = random_game(
                rng,
                max_periods=2 if kind in ("three-players", "three-actions") else 3,
                allow_zero=kind in ("zero", "frontier") or made % 3 == 0,
                state_dependent=markov,
                n_players=3 if kind == "three-players" else 2,
                n_actions=3 if kind == "three-actions" else 2,
            )
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        if kind == "frontier":
            if spec.horizon < 3:
                continue
            scopes = list(frontier_scopes(spec, tree, rng))
        elif kind == "one-step":
            # decision nodes at T - 1, and the root stopped at time 1
            scopes = [_Scope(spec, tree, nid) for nid in tree.levels[spec.horizon - 1][:2]]
            if spec.horizon > 1:
                scopes += frontier_scopes(spec, tree, rng, time=1)
        else:
            scopes = [_Scope(spec, tree, start) for start in tree.decision_nodes(root)[:2]]
        classes = (PATH_CLASS, STATE_CLASS) if markov else (PATH_CLASS,)
        for scope, cls in itertools.product(scopes, classes):
            if _units_for(spec, tree, scope, cls).count > MAX_CLASS:
                continue
            if cls == STATE_CLASS and not scope.is_markov():
                continue
            made += 1
            yield spec, tree, scope, cls


def one_step_tests(spec, tree, scope, cls):
    """What ``_one_step_allowed`` finds on the scope's units of the class."""
    members = _units_for(spec, tree, scope, cls).members
    local = [tuple(map(scope.local.__getitem__, mem)) for mem in members]
    return equilibria._one_step_allowed(spec, scope, _Reach.of(scope, local), local)


@pytest.mark.parametrize(
    "kind", ["zero", "markov", "three-players", "three-actions", "tied", "frontier"]
)
def test_pruning_leaves_every_record_in_its_place(kind, monkeypatch):
    rng = random.Random(sum(map(ord, kind)))
    pruned = records = 0
    for spec, tree, scope, cls in cases(kind, rng):
        pruned += any(one_step_tests(spec, tree, scope, cls)[0])
        filtered = record_sequences(spec, tree, scope, cls)
        with monkeypatch.context() as patch:
            patch.setattr(equilibria, "_one_step_allowed", untested)
            assert record_sequences(spec, tree, scope, cls) == filtered
        records += len(filtered[0])
    assert pruned >= 5 and records >= 24


def shipped_scopes(rng):
    """(spec, tree, scope, class) for the scope of every decision node of the
    shipped examples, and their root stopped at every time before the horizon.
    Unlike the random specs, many of them have two equilibrium values."""
    for name in ("table1", "table2_left", "table2_right", "path", "state"):
        spec = load_example(name)
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        scopes = [_Scope(spec, tree, nid) for nid in tree.decision_nodes(root)]
        for time in range(1, spec.horizon):
            scopes += frontier_scopes(spec, tree, rng, time)
        for scope, cls in itertools.product(scopes, (PATH_CLASS, STATE_CLASS)):
            if cls == PATH_CLASS or scope.is_markov():
                yield spec, tree, scope, cls


def anti_coordination_above_forced_units() -> GameSpec:
    """Root r0, then A or B, then X or Y. At r0, differing actions lead to A
    with probability 3/4 and matching ones to B; at A and B each player's
    action 0 costs 1 less than action 1, and the kernel to X and Y is even, so
    both units are forced to (0, 0) and B costs each player 1 more than A.
    The root's Nash joints are (0, 1) and (1, 0), with different values, as
    player 0 pays 1/8 for action 1 and player 1 for action 0."""
    joints = list(itertools.product(range(2), repeat=2))
    match, differ = (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))
    transitions = {(0, "r0", joint): match if joint[0] == joint[1] else differ for joint in joints}
    transitions |= {(1, key, joint): (F(1, 2), F(1, 2)) for key in "AB" for joint in joints}
    running = [
        {(0, "r0", a): F(a, 8) if player == 0 else F(1 - a, 8) for a in range(2)}
        | {(1, key, a): F(a + (key == "B")) for key in "AB" for a in range(2)}
        for player in range(2)
    ]
    return GameSpec(
        horizon=2,
        states=[["r0"], ["A", "B"], ["X", "Y"]],
        actions=[["h", "t"], ["h", "t"]],
        transitions=transitions,
        running_costs=running,
        terminal_costs=[{"X": F(0), "Y": F(1)}, {"X": F(1), "Y": F(0)}],
        state_dependent=True,
    )


def test_a_start_the_filter_tests_yields_the_walk_search_records_without_a_walk(monkeypatch):
    """When the filter tests the start, every other unit is forced, and the
    records are the start's passing joints with the others on their forced
    joints: the same records in the same order as the unfiltered walk search,
    with no ``_Responder.update`` call. Every such scope of the shipped
    examples, of every kind of random spec and of a built game whose root has
    two values above forced units is checked."""
    spec = anti_coordination_above_forced_units()
    tree = build_path_tree(spec)
    built = [(spec, tree, _Scope(spec, tree, 0), cls) for cls in (PATH_CLASS, STATE_CLASS)]
    kinds = ["zero", "markov", "three-players", "three-actions", "tied", "frontier", "one-step"]
    drawn = [cases(kind, random.Random(sum(map(ord, kind)))) for kind in kinds]
    rng = random.Random(sum(map(ord, "shipped")))
    shapes, records = set(), 0
    for spec, tree, scope, cls in itertools.chain(built, shipped_scopes(rng), *drawn):
        if one_step_tests(spec, tree, scope, cls)[0][0] is None:  # the start is untested
            continue
        with monkeypatch.context() as patch:
            updates = count_updates(patch)
            table = record_sequences(spec, tree, scope, cls)
            assert updates == []
            patch.setattr(equilibria, "_one_step_allowed", untested)
            assert record_sequences(spec, tree, scope, cls) == table
            assert updates
        records += len(table[0])
        many = len({value for _, value, _ in table[0]}) > 1
        skipped = len(table[1]) < len(table[0])
        sizes = spec.n_players, len(spec.actions[0])
        shapes.add((len(scope.inner) > 1, cls, *sizes, scope.frontier is None, many, skipped))
    # starts alone and above other units, each in both classes, with three
    # players, three actions, frontiers and several values among them
    for deep in (False, True):
        seen = [shape[1:] for shape in shapes if shape[0] == deep]
        assert {cls for cls, *_ in seen} == {PATH_CLASS, STATE_CLASS}
        assert 3 in {n for _, n, *_ in seen} and 3 in {m for _, _, m, *_ in seen}
        assert {root for *_, root, _, _ in seen} == {True, False}
        assert any(many for *_, many, _ in seen)
    # tied repeats skipped without policies at a start alone
    assert any(skipped for deep, *_, skipped in shapes if not deep)
    assert records >= 300


def count_updates(monkeypatch) -> list[int]:
    """The player of every ``_Responder.update`` call from now on."""
    players: list[int] = []
    update = equilibria._Responder.update

    def counted(self, cols):
        players.append(self.player)
        update(self, cols)

    monkeypatch.setattr(equilibria._Responder, "update", counted)
    return players


def unforced_units_below_the_root(n_players: int) -> GameSpec:
    """Root r, then A or B, then X or Y. Every weight at r is positive, so A
    and B are sure and have fixed continuations: the filter tests them, and
    neither is forced. With two players, player 0's action at A and B sets
    the odds of X, which only player 1 pays for, and player 1 pays its action
    index, so each unit passes (0, 0) and (1, 0). With three, unanimous
    joints go to X and all others to Y, and every player pays 1 at Y, so each
    unit passes (0, 0, 0) and (1, 1, 1)."""
    joints = list(itertools.product(range(2), repeat=n_players))
    transitions = {
        (0, "r", joint): (F(3, 4), F(1, 4)) if sum(joint) % 2 else (F(1, 3), F(2, 3))
        for joint in joints
    }
    for joint in joints:
        if n_players == 2:
            x = F(3, 4) if joint[0] == 0 else F(1, 4)
        else:
            x = F(int(len(set(joint)) == 1))
        transitions |= {(1, key, joint): (x, 1 - x) for key in "AB"}
    running = [
        {(0, "r", a): F(a * (i + 1), 8) for a in range(2)}
        | {(1, key, a): F(a if n_players == 2 and i == 1 else 0) for key in "AB" for a in range(2)}
        for i in range(n_players)
    ]
    terminal = [{"X": F(0), "Y": F(int(n_players > 2 or i == 1))} for i in range(n_players)]
    return GameSpec(
        horizon=2,
        states=[["r"], ["A", "B"], ["X", "Y"]],
        actions=[["h", "t"]] * n_players,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=True,
    )


@pytest.mark.parametrize(
    "n_players, parts, walks, unfiltered",
    [(2, ((0,),), 2, 2**3), (3, ((0, 0), (1, 1)), 2**2 * 2 * 2, 2**2 * 4 * 4)],
)
def test_tested_units_that_are_not_forced_still_restrict_the_others(
    n_players, parts, walks, unfiltered, monkeypatch
):
    """At A and B the filter passes two joints, so neither unit is forced and
    the root stays untested, yet the others play only their parts of those
    joints: player 1 action 0 alone with two players, and with three, players
    1 and 2 each either action but only together as (0, 0) or (1, 1). Player
    0's walk runs once per remaining assignment of the others, with and
    without policies, and the records equal the unfiltered walk search's."""
    spec = unforced_units_below_the_root(n_players)
    tree = build_path_tree(spec)
    for cls in (PATH_CLASS, STATE_CLASS):
        scope = _Scope(spec, tree, 0)
        assert one_step_tests(spec, tree, scope, cls) == ([None, parts, parts], [None] * 3, None)
        with monkeypatch.context() as patch:
            updates = count_updates(patch)
            table = record_sequences(spec, tree, scope, cls)
            assert updates.count(0) == 2 * walks  # with and without policies
            updates.clear()
            patch.setattr(equilibria, "_one_step_allowed", untested)
            assert record_sequences(spec, tree, scope, cls) == table
            assert updates.count(0) == 2 * unfiltered
        assert len(table[0]) == 4  # one per pair of passing joints at A and B


def pennies_below_the_root() -> GameSpec:
    """Root r0, one state m, then A or B. At m, matching actions lead to A
    with probability 3/4 and differing ones to B: player 0 pays 1 at B and
    player 1 pays 1 at A, so no joint action at m is one-step Nash."""
    joints = list(itertools.product(range(2), repeat=2))
    match, differ = (F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))
    transitions = {(0, "r0", joint): (F(1),) for joint in joints}
    transitions |= {(1, "m", joint): match if joint[0] == joint[1] else differ for joint in joints}
    running = {(t, key, a): F(0) for t, key in ((0, "r0"), (1, "m")) for a in range(2)}
    return GameSpec(
        horizon=2,
        states=[["r0"], ["m"], ["A", "B"]],
        actions=[["h", "t"], ["h", "t"]],
        transitions=transitions,
        running_costs=[running, running],
        terminal_costs=[{"A": F(0), "B": F(1)}, {"A": F(1), "B": F(0)}],
        state_dependent=True,
    )


@pytest.mark.parametrize("cls", [PATH_CLASS, STATE_CLASS])
def test_a_unit_without_a_one_step_nash_joint_ends_the_enumeration(cls, monkeypatch):
    spec = pennies_below_the_root()
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    updates = count_updates(monkeypatch)
    assert list(iter_equilibria(spec, tree, root, cls=cls)) == []
    assert updates == []
    assert set_value_bruteforce(spec, tree, root, cls=cls) == set_value_dpp(spec, tree, root)
    assert set_value_dpp(spec, tree, root).is_empty


def test_a_generic_game_with_one_equilibrium_runs_no_walk(monkeypatch):
    """A strictly positive (1, 2, 2, 2) spec: every one of its 7 units is
    forced, so the filter tests the start and no walk runs; without the
    filter player 0's walk runs once per 2^7 assignments."""
    rng = random.Random(0)
    for _ in range(200):
        spec = random_game(rng, max_periods=3)
        tree = build_path_tree(spec)
        if tuple(map(len, spec.states)) == (1, 2, 2, 2) and len(set_value_dpp(spec, tree, 0)) == 1:
            break
    else:
        pytest.fail("no (1, 2, 2, 2) spec with a single equilibrium value")
    updates = count_updates(monkeypatch)
    found = list(iter_equilibria(spec, tree, 0))
    assert len(found) == 1 and updates == []
    assert set_value_bruteforce(spec, tree, 0) == set_value_dpp(spec, tree, 0)
    updates.clear()
    monkeypatch.setattr(equilibria, "_one_step_allowed", untested)
    assert list(iter_equilibria(spec, tree, 0)) == found
    assert updates.count(0) == 2**7
