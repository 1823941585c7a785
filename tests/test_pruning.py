"""The exact enumerator's one-step filter skips walks, never records.

``equilibria._one_step_allowed`` restricts the other players' actions at the
units whose continuation is fixed to those of one-step Nash joint actions.
With it replaced by ``untested``, which tests no unit, every best-response
walk runs again; the records, in order and with their policies and slacks,
must come out the same. Counting ``_Responder.update`` calls shows the walks
the filter saves. A scope whose only decision node is its start runs no walk
at all: its records, read off its one-step Nash table, must equal those of
the unfiltered walk search.
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
    return [None] * len(local)


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


@pytest.mark.parametrize(
    "kind", ["zero", "markov", "three-players", "three-actions", "tied", "frontier"]
)
def test_pruning_leaves_every_record_in_its_place(kind, monkeypatch):
    rng = random.Random(sum(map(ord, kind)))
    pruned = records = 0
    for spec, tree, scope, cls in cases(kind, rng):
        units = _units_for(spec, tree, scope, cls)
        local = [tuple(map(scope.local.__getitem__, mem)) for mem in units.members]
        reach = _Reach.of(scope, units.members)
        pruned += any(equilibria._one_step_allowed(spec, scope, reach, local))
        filtered = record_sequences(spec, tree, scope, cls)
        with monkeypatch.context() as patch:
            patch.setattr(equilibria, "_one_step_allowed", untested)
            assert record_sequences(spec, tree, scope, cls) == filtered
        records += len(filtered[0])
    assert pruned >= 5 and records >= 24


def walks_only(patch):
    """Send one-step scopes back through the walk search, unfiltered."""
    patch.setattr(equilibria, "_iter_one_step", equilibria._iter_argmin)
    patch.setattr(equilibria, "_one_step_allowed", untested)


def shipped_one_step_scopes(rng):
    """(spec, tree, scope, class) for the one-step scopes of the shipped
    examples: every decision node at T - 1 and the root stopped at time 1.
    Unlike the random specs, many of them have two equilibrium values."""
    for name in ("table1", "table2_left", "path", "state"):
        spec = load_example(name)
        tree = build_path_tree(spec)
        scopes = [_Scope(spec, tree, nid) for nid in tree.levels[spec.horizon - 1]]
        if spec.horizon > 1:
            scopes += frontier_scopes(spec, tree, rng, time=1)
        for scope, cls in itertools.product(scopes, (PATH_CLASS, STATE_CLASS)):
            if cls == PATH_CLASS or scope.is_markov():
                yield spec, tree, scope, cls


def test_one_step_scopes_yield_the_walk_search_records_without_a_walk(monkeypatch):
    """A scope whose only decision node is its start is read off its Nash
    table: the same records in the same order as the unfiltered walk search,
    with no ``_Responder.update`` call."""
    rng = random.Random(sum(map(ord, "one-step")))
    kinds, records, shapes = set(), 0, set()
    for spec, tree, scope, cls in itertools.chain(
        shipped_one_step_scopes(rng), cases("one-step", rng)
    ):
        assert scope.inner == [0]
        kinds.add((cls, spec.n_players, len(spec.actions[0]), scope.frontier is None))
        with monkeypatch.context() as patch:
            updates = count_updates(patch)
            table = record_sequences(spec, tree, scope, cls)
            assert updates == []
            walks_only(patch)
            assert record_sequences(spec, tree, scope, cls) == table
            assert updates
        records += len(table[0])
        shapes.add((len({value for _, value, _ in table[0]}) > 1, len(table[1]) < len(table[0])))
    assert {cls for cls, *_ in kinds} == {PATH_CLASS, STATE_CLASS}
    assert 3 in {n for _, n, _, _ in kinds} and 3 in {m for _, _, m, _ in kinds}
    assert {root for *_, root in kinds} == {True, False}
    # several values, and tied repeats skipped without policies
    assert any(many for many, _ in shapes) and any(skipped for _, skipped in shapes)
    assert records >= 48


def count_updates(monkeypatch) -> list[int]:
    """The player of every ``_Responder.update`` call from now on."""
    players: list[int] = []
    update = equilibria._Responder.update

    def counted(self, cols):
        players.append(self.player)
        update(self, cols)

    monkeypatch.setattr(equilibria._Responder, "update", counted)
    return players


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


def test_a_generic_game_with_one_equilibrium_walks_one_opponent_assignment(monkeypatch):
    """A strictly positive (1, 2, 2, 2) spec: every one of its 7 units is
    forced, so player 0's walk runs once, not once per 2^7 assignments."""
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
    assert len(found) == 1 and updates.count(0) == 1
    assert set_value_bruteforce(spec, tree, 0) == set_value_dpp(spec, tree, 0)
    updates.clear()
    monkeypatch.setattr(equilibria, "_one_step_allowed", untested)
    assert list(iter_equilibria(spec, tree, 0)) == found
    assert updates.count(0) == 2**7
