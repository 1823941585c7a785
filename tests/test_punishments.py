"""The recursion with off-path punishments (``equilibria._Recursion``) and
``verify_dpp``'s full variant with path selections, which reads it.

The recursion is held to brute force on every kernel, and both are held to
the definition (``tests/definitions.py``), which shares no code with either.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import definitions
from gameval import StoppingTime, build_path_tree, io, load_example, set_value_dpp, verify_dpp
from gameval import equilibria
from gameval.dpp import compare_sets
from gameval.equilibria import (
    ValueSet,
    _best_replies,
    _nash_flags,
    set_value_bruteforce,
    variant_set,
)
from gameval.errors import EnumerationCapExceeded, GameValidationError
from gameval.model import PATH_CLASS, STATE_CLASS, tables_of
from specgen import random_game

DATA = Path(__file__).parent / "data"
SELECTIONS, SELECTION_IDS = (PATH_CLASS, STATE_CLASS), ("path", "state")


def zero_kernel_games(seed: int, count: int, **kwargs):
    """``count`` seeded ``random_game(allow_zero=True)`` specs with a zero
    kernel entry, cycling through 2 and 3 players, 2 and 3 actions and
    path-keyed and Markov data; ``kwargs`` go to ``random_game``."""
    rng = random.Random(seed)
    shapes = itertools.cycle(itertools.product((2, 3), (2, 3), (False, True)))
    games = []
    while len(games) < count:
        n, a, markov = next(shapes)
        spec = random_game(
            rng, allow_zero=True, n_players=n, n_actions=a, state_dependent=markov, **kwargs
        )
        if not spec.q_positive:
            games.append(spec)
    return games


def starts(tree):
    """The root and every time-1 node."""
    return [nid for level in tree.levels[: min(2, tree.horizon)] for nid in level]


def stopping_times(tree, start: int):
    """Every stopping time strictly after the start: each time, and each
    state's first hit where some later node carries it."""
    t = tree.nodes.locate(start)[0]
    out = [StoppingTime.at_time(tree, s) for s in range(t + 1, tree.horizon + 1)]
    labels = dict.fromkeys(s for level in tree.states[t + 1 :] for s in level)
    out += [StoppingTime.hitting_state(tree, s) for s in labels]
    return out


def composed(spec, tree, start, stopping, selection_class=PATH_CLASS):
    """``verify_dpp``'s report from enumerations alone: ``variant_set`` at
    the start, at every stopped prefix and for every selection psi. State
    selections pick one value per (time, state), and a group whose prefixes
    have unequal sets is refused."""
    lhs = variant_set(spec, tree, start)
    frontier = stopping.frontier(tree, start)
    if selection_class == STATE_CLASS:
        groups = list(tree.group_by_time_state(frontier).values())
    else:
        groups = [(nid,) for nid in frontier]
    sets = []
    for members in groups:
        found = {variant_set(spec, tree, nid).points for nid in members}
        if len(found) > 1:
            raise GameValidationError("state-dependent selections need equal value sets")
        sets.append(found.pop())
    rhs = set()
    for chosen in itertools.product(*sets):
        psi = {nid: y for members, y in zip(groups, chosen) for nid in members}
        rhs.update(variant_set(spec, tree, start, frontier=psi))
    context = {
        "variant": "full",
        "selection_class": selection_class,
        "n_selections": math.prod(map(len, sets)),
        "stopped_prefixes": [list(tree.node(nid).prefix) for nid in frontier],
    }
    return compare_sets(lhs, ValueSet.of(rhs), context)


def same_report(got, want) -> bool:
    return (got, got.context) == (want, want.context)


def refuse(*args, **kwargs):
    raise AssertionError("an equilibrium enumeration ran")


@pytest.fixture
def no_enumeration(monkeypatch):
    """``iter_equilibria`` raises: any enumeration fails the test."""
    monkeypatch.setattr(equilibria, "iter_equilibria", refuse)


# -- the engine ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_the_recursion_equals_brute_force_on_every_kernel(seed):
    """At the root and every time-1 node: zero kernels with 2 and 3 players
    to horizon 2, two-player zero kernels to horizon 3, and positive ones."""
    rng = random.Random(seed)
    games = zero_kernel_games(seed, 24, max_periods=2)
    games += [random_game(rng, allow_zero=True, state_dependent=k % 2 == 0) for k in range(8)]
    games += [random_game(rng, max_periods=2, n_players=3, state_dependent=k % 2 == 0)
              for k in range(4)]
    for spec in games:
        tree = build_path_tree(spec)
        for nid in starts(tree):
            assert set_value_dpp(spec, tree, nid) == set_value_bruteforce(spec, tree, nid)


def composed_or_refused(spec, tree, start, stopping, selection_class):
    """:func:`composed`, or None where it refuses a (time, state)."""
    try:
        return composed(spec, tree, start, stopping, selection_class)
    except GameValidationError:
        return None


def assert_dispatched(want, spec, tree, start, stopping, selection_class):
    """``verify_dpp`` gives ``want``, or refuses where ``want`` is None."""
    run = functools.partial(
        verify_dpp, spec, tree, start, stopping, selection_class=selection_class
    )
    if want is None:
        with pytest.raises(GameValidationError, match="^state-dependent selections need equal"):
            run()
    else:
        assert same_report(run(), want)


@pytest.mark.parametrize("selection_class", SELECTIONS, ids=SELECTION_IDS)
def test_the_dispatched_verify_dpp_equals_the_enumerator_composition(selection_class):
    """Every stop time and state hit, from the root and from every time-1
    node, on zero kernels with 2 and 3 players to horizon 2 and two-player
    ones to horizon 3: lhs, rhs, relation, differences and context alike, or
    a refusal on both sides when a (time, state) has unequal sets."""
    rng = random.Random(3)
    games = zero_kernel_games(3, 16, max_periods=2)
    while len(games) < 32:  # two players to horizon 3
        spec = random_game(rng, allow_zero=True, state_dependent=len(games) % 2 == 0)
        if not spec.q_positive:
            games.append(spec)
    checks = 0
    for spec in games:
        tree = build_path_tree(spec)
        for start in starts(tree):
            for stopping in stopping_times(tree, start):
                want = composed_or_refused(spec, tree, start, stopping, selection_class)
                assert_dispatched(want, spec, tree, start, stopping, selection_class)
                checks += want is not None
    assert checks > 150


def markov_document(states, transitions, terminal) -> dict:
    """A two-player, two-action Markov game document with zero running costs;
    ``transitions`` maps "t|state|a,b" to the next state reached for sure."""
    keys = {key.rsplit("|", 1)[0] for key in transitions}
    running = {f"{key}|{a}": "0" for key in keys for a in "01"}
    return {
        "horizon": len(states) - 1,
        "players": 2,
        "states": states,
        "actions": [["0", "1"], ["0", "1"]],
        "flags": {"state_dependent": True},
        "transitions": {key: {s: "1"} for key, s in transitions.items()},
        "running_costs": [running, running],
        "terminal_costs": [{s: str(v[0]) for s, v in terminal.items()},
                           {s: str(v[1]) for s, v in terminal.items()}],
    }


def every_joint(t: int, state: str, to: str) -> dict:
    return {f"{t}|{state}|{a},{b}": to for a in "01" for b in "01"}


# r leads to n, worth (0, 0), under every joint action; m, which no joint
# action reaches, is matching pennies and has no equilibrium.
UNREACHED_PENNIES = markov_document(
    [["r"], ["m", "n"], ["a", "b", "c"]],
    {
        **every_joint(0, "r", "n"),
        **every_joint(1, "n", "c"),
        "1|m|0,0": "a", "1|m|1,1": "a", "1|m|0,1": "b", "1|m|1,0": "b",
    },
    {"a": (0, 1), "b": (1, 0), "c": (0, 0)},
)


def test_a_stopped_prefix_without_equilibrium_leaves_no_selection():
    """With no value at m there is no selection psi, so the rhs is empty,
    though no joint action at r reaches m."""
    spec = io.load_game(UNREACHED_PENNIES)
    tree = build_path_tree(spec)
    stopping = StoppingTime.at_time(tree, 1)
    rep = verify_dpp(spec, tree, 0, stopping)
    assert rep.lhs.points == ((F(0), F(0)),) and rep.rhs.is_empty
    assert rep.context["n_selections"] == 0
    assert same_report(rep, composed(spec, tree, 0, stopping))
    assert definitions.nash_values(UNREACHED_PENNIES) == set(rep.lhs)
    assert definitions.nash_values(UNREACHED_PENNIES, ("r", "m")) == set()


def test_best_replies_give_the_nash_flags():
    rng = random.Random(7)
    for sizes in ((2, 2), (3, 2), (2, 3, 2)):
        strides = tuple(math.prod(sizes[i + 1 :]) for i in range(len(sizes)))
        joints = list(itertools.product(*map(range, sizes)))
        for _ in range(50):
            totals = [[rng.randint(0, 3) for _ in joints] for _ in sizes]
            best = _best_replies(totals, strides, sizes)
            for i, (tot, reply) in enumerate(zip(totals, best)):
                for j, joint in enumerate(joints):
                    own = [
                        tot[joints.index(joint[:i] + (b,) + joint[i + 1 :])]
                        for b in range(sizes[i])
                    ]
                    assert reply[j] == min(own)
            flags = [all(t[j] == b[j] for t, b in zip(totals, best)) for j in range(len(joints))]
            assert _nash_flags(totals, strides, sizes) == flags


# -- one punishment serves every deviator ------------------------------------------

# At r, (0, 0) and (1, 1) lead to "on", worth (2, 2); a single deviation from
# either leads to "off", a coordination game worth (3, 1) or (1, 3) in
# equilibrium. Off the path, "off" may punish both deviators at once: each
# player's best reply there depends on the other's play alone, so (3, 3) is
# a punishment, and (2, 2) is an equilibrium value at r. Stopped at time 1,
# "off" offers only its equilibrium values, each of which lets one player
# gain by deviating: the selections lose (2, 2).
TWO_DEVIATORS = markov_document(
    [["r"], ["on", "off"], ["w", "x", "y", "z"]],
    {
        "0|r|0,0": "on", "0|r|1,1": "on", "0|r|0,1": "off", "0|r|1,0": "off",
        **every_joint(1, "on", "w"),
        "1|off|0,0": "x", "1|off|1,1": "y", "1|off|0,1": "z", "1|off|1,0": "z",
    },
    {"w": (2, 2), "x": (3, 1), "y": (1, 3), "z": (5, 5)},
)


def test_one_punishment_serves_both_deviators_at_a_stopped_child():
    """Catches a recursion that punishes each deviator with its own point
    of a stopped child's set, and one that punishes with E, not Max P."""
    spec = io.load_game(TWO_DEVIATORS)
    tree = build_path_tree(spec)
    stopping = StoppingTime.at_time(tree, 1)
    rep = verify_dpp(spec, tree, 0, stopping)
    assert rep.lhs.points == ((F(2), F(2)),)
    assert rep.rhs.is_empty and rep.relation == "rhs_subset"
    assert rep.context["n_selections"] == 2
    assert same_report(rep, composed(spec, tree, 0, stopping))
    assert set(rep.lhs) == definitions.nash_values(TWO_DEVIATORS)
    off = definitions.nash_values(TWO_DEVIATORS, ("r", "off"))
    assert off == {(F(3), F(1)), (F(1), F(3))}
    on = definitions.nash_values(TWO_DEVIATORS, ("r", "on"))
    stopped = [dict(zip((("r", "on"), ("r", "off")), psi)) for psi in itertools.product(on, off)]
    assert not set().union(*(definitions.nash_values(TWO_DEVIATORS, stops=s) for s in stopped))


# -- no enumeration ----------------------------------------------------------------


@pytest.mark.parametrize("selection_class", SELECTIONS, ids=SELECTION_IDS)
def test_full_path_verify_dpp_runs_no_enumeration(monkeypatch, selection_class):
    """The full variant reads the recursion under either selection class,
    for its reports and for its refusals alike."""
    cases = [(load_example("path"), 2), (load_example("path"), 1)]
    cases += [(io.load_game(DATA / name), stop) for name, stop in
              (("zero_kernel_path.json", 2), ("zero_kernel_path.json", 1),
               ("zero_kernel_markov.json", 1))]
    wanted = []
    for spec, stop in cases:
        tree = build_path_tree(spec)
        for stopping in (StoppingTime.at_time(tree, stop), *stopping_times(tree, 0)[-1:]):
            want = composed_or_refused(spec, tree, 0, stopping, selection_class)
            wanted.append((want, spec, tree, stopping))
    assert sum(want is not None for want, *_ in wanted) >= 7
    monkeypatch.setattr(equilibria, "iter_equilibria", refuse)
    for want, spec, tree, stopping in wanted:
        assert_dispatched(want, spec, tree, 0, stopping, selection_class)


def test_a_bad_selection_class_is_reported_before_any_enumeration(path_game, no_enumeration):
    spec, tree, root = path_game
    stopping = StoppingTime.at_time(tree, 1)
    with pytest.raises(GameValidationError, match="^selection class must be one of"):
        verify_dpp(spec, tree, root, stopping, selection_class="bogus")


def test_full_path_verify_dpp_checks_the_class_size_first(path_game, no_enumeration):
    spec, tree, root = path_game
    message = "^joint policy enumeration: needs 1024 > cap 100$"
    with pytest.raises(EnumerationCapExceeded, match=message):
        verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 0), policy_cap=100)


def test_strong_pareto_verify_dpp_is_refused_before_any_enumeration(state_game, no_enumeration):
    spec, tree, root = state_game
    stopping = StoppingTime.at_time(tree, 1)
    message = "^the strong Pareto variant has no truncated-game set$"
    with pytest.raises(GameValidationError, match=message):
        verify_dpp(spec, tree, root, stopping, variant="strong-pareto")


# -- the shared memos --------------------------------------------------------------


def test_set_value_dpp_and_verify_dpp_share_the_whole_game_memo():
    """Under q > 0 no row needs a punishment, and a row solved by one caller
    is read, not solved again, by the other."""
    spec = load_example("path")
    assert spec.q_positive
    tree = build_path_tree(spec)
    tables, root = tables_of(spec, tree), tree.levels[0][0]
    set_value_dpp(spec, tree, root)
    solved = dict(tables.dpp_sets)
    assert solved and not tables.threats
    verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 1))
    assert tables.dpp_sets == solved and not tables.threats


def test_a_memo_verify_dpp_fills_checks_the_selection_cap_on_every_read():
    spec = io.load_game(DATA / "zero_kernel_path.json")
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 1))
    tables = tables_of(spec, tree)
    assert tables.threats
    count = tables.dpp_sets[tables.row(tree.node(root))][1]
    for fresh in (False, True):
        if fresh:
            tree = build_path_tree(spec)
        with pytest.raises(EnumerationCapExceeded) as err:
            set_value_dpp(spec, tree, root, selection_cap=count - 1)
        assert (err.value.required, err.value.cap) == (count, count - 1)
    assert set_value_dpp(spec, tree, root, selection_cap=count) == set_value_bruteforce(
        spec, tree, root
    )


def markov_horizon_3(seed: int, widths: tuple[int, ...]):
    """The first zero-kernel, horizon-3 Markov ``random_game`` of the seed
    whose levels 1 and 2 have ``widths`` states."""
    rng = random.Random(seed)
    while True:
        spec = random_game(rng, max_states=max(widths), allow_zero=True, state_dependent=True)
        shape = tuple(map(len, spec.states[1:3]))
        if spec.horizon == 3 and not spec.q_positive and shape == widths:
            return spec


def test_the_cut_game_is_keyed_by_table_row(monkeypatch):
    """From the root at stop time 3 the cut game solves each (time, state)
    once: every memo holds no more entries than the spec has table rows,
    though the stopped prefixes have more decision nodes above them."""
    spec = markov_horizon_3(1, (3, 3))
    tree = build_path_tree(spec)
    rows = range(tables_of(spec, tree).offset[-1])
    assert len(tree.decision_nodes(0)) > len(rows)
    cuts = []
    stopped = equilibria._Recursion.stopped
    monkeypatch.setattr(equilibria._Recursion, "stopped",
                        lambda self, carried: cuts.append(stopped(self, carried)) or cuts[-1])
    verify_dpp(spec, tree, 0, StoppingTime.at_time(tree, 3), policy_cap=4**13)
    (cut,) = cuts
    assert cut.sets and cut.threats
    for memo in (cut.sets, cut.threats, cut.frontiers):
        assert set(memo) <= set(rows)


def test_a_hand_built_stopping_time_stops_by_time_and_state():
    """A stopping time built from its per-level state labels stops by (time,
    state) by construction: stopping level 1's first state runs on at its
    other state, and the report matches the enumeration."""
    spec = markov_horizon_3(5, (2, 1))
    tree = build_path_tree(spec)
    levels = tree.levels
    first = StoppingTime(tuple(frozenset(states[:1] if t == 1 else ())
                               for t, states in enumerate(spec.states)))
    run_on = tree.node(levels[1][1]).children[0]
    assert first.frontier(tree, 0) == [levels[1][0], *tree.node(run_on).children]
    for selection_class in SELECTIONS:
        want = composed_or_refused(spec, tree, 0, first, selection_class)
        assert_dispatched(want, spec, tree, 0, first, selection_class)


# -- the definition ----------------------------------------------------------------


def test_the_definition_module_imports_nothing_from_gameval():
    tree = ast.parse((Path(__file__).parent / "definitions.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "fractions", "itertools"}


def small_zero_kernel_docs():
    """Seeded zero-kernel documents of at most 1,000 profiles at the root:
    2 and 3 players, path-keyed and Markov."""
    docs = []
    for spec in zero_kernel_games(11, 40, max_periods=2):
        doc = io.dump_game(spec)
        if definitions.profile_count(doc) <= 1000:
            docs.append(doc)
    return docs


def test_the_recursion_and_the_enumerator_equal_the_definition():
    docs = small_zero_kernel_docs()
    assert len(docs) >= 20
    assert {(len(d["actions"]), d["flags"]["state_dependent"]) for d in docs} >= {
        (2, False), (2, True), (3, False), (3, True)
    }
    for doc in docs:
        spec = io.load_game(doc)
        tree = build_path_tree(spec)
        for nid in starts(tree):
            want = definitions.nash_values(doc, tree.node(nid).prefix)
            assert set(set_value_dpp(spec, tree, nid)) == want
            assert set(set_value_bruteforce(spec, tree, nid)) == want


def test_verify_dpp_at_time_1_equals_the_definition():
    """The rhs at time 1 is the union, over selections from the stopped
    prefixes' definition sets, of the stopped games' definition sets."""
    for doc in small_zero_kernel_docs()[:12]:
        spec = io.load_game(doc)
        tree = build_path_tree(spec)
        rep = verify_dpp(spec, tree, 0, StoppingTime.at_time(tree, 1))
        prefixes = [tree.node(nid).prefix for nid in tree.levels[1]]
        sets = [definitions.nash_values(doc, p) for p in prefixes]
        rhs = set()
        for psi in itertools.product(*sets):
            rhs |= definitions.nash_values(doc, stops=dict(zip(prefixes, psi)))
        assert set(rep.lhs) == definitions.nash_values(doc)
        assert set(rep.rhs) == rhs
