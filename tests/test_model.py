from __future__ import annotations

import dataclasses
import itertools
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from gameval import (
    GameSpec,
    GameValidationError,
    Policy,
    StoppingTime,
    build_path_tree,
    cost_J,
    dump_game,
    load_game,
)
from gameval.io import frac_from_str
from gameval.model import Node, Tables
from gameval.presets import SPEC_FILES, load_example

from oracles import path_measure, stop_node_along, truncate_game
from specgen import random_game


def all_zero_policy(tree, start):
    n = 2
    return Policy(actions={nid: (0,) * n for nid in tree.decision_nodes(start)})


def naive_measure(spec, tree, start, policy):
    """Independent oracle: expand products path by path."""
    out = {}
    node = tree.node(start)
    for leaf in tree.levels[tree.horizon]:
        path = tree.node(leaf).prefix
        if path[: node.t + 1] != node.prefix:
            continue
        mass = F(1)
        for s in range(node.t, tree.horizon):
            nid = tree.id_of(path[: s + 1])
            vec = spec.transition_vector(s, path[: s + 1], policy.action(nid))
            mass *= vec[spec.states[s + 1].index(path[s + 1])]
        if mass:
            out[path] = mass
    return out


def naive_cost(spec, tree, start, policy):
    """Independent oracle: sum terminal plus running costs over all paths."""
    masses = naive_measure(spec, tree, start, policy)
    node = tree.node(start)
    total = [F(0)] * spec.n_players
    for path, mass in masses.items():
        for i in range(spec.n_players):
            acc = spec.terminal_costs[i][
                path[-1] if spec.state_dependent else path
            ]
            for s in range(node.t, tree.horizon):
                nid = tree.id_of(path[: s + 1])
                acc += spec.running_cost(i, s, path[: s + 1], policy.action(nid)[i])
            total[i] += mass * acc
    return tuple(total)


def test_tree_shape_path_game(path_game):
    spec, tree, root = path_game
    assert tree.n_paths == 4
    assert [len(level) for level in tree.levels] == [1, 2, 2, 4]


def test_tree_shape_degenerate():
    spec = GameSpec(
        horizon=1,
        states=[["a"], ["b"]],
        actions=[["0"], ["0"]],
        transitions={(0, ("a",), (0, 0)): (F(1),)},
        running_costs=[{(0, ("a",), 0): F(0)}, {(0, ("a",), 0): F(0)}],
        terminal_costs=[{("a", "b"): F(0)}, {("a", "b"): F(0)}],
    )
    tree = build_path_tree(spec)
    assert tree.n_paths == 1


def test_tree_size_is_product_of_level_sizes():
    rng = random.Random(7)
    spec = random_game(rng, max_periods=3, max_states=3)
    tree = build_path_tree(spec)
    expected = 1
    for level in spec.states:
        expected *= len(level)
    assert tree.n_paths == expected


def test_rejects_empty_state_set():
    with pytest.raises(GameValidationError):
        GameSpec(
            horizon=1,
            states=[["a"], []],
            actions=[["0"], ["0"]],
            transitions={},
            running_costs=[{}, {}],
            terminal_costs=[{}, {}],
        )


def test_rejects_empty_action_set():
    with pytest.raises(GameValidationError):
        GameSpec(
            horizon=1,
            states=[["a"], ["b"]],
            actions=[["0"], []],
            transitions={(0, ("a",), (0,)): (F(1),)},
            running_costs=[{(0, ("a",), 0): F(0)}, {}],
            terminal_costs=[{("a", "b"): F(0)}, {("a", "b"): F(0)}],
        )


def test_rejects_unnormalized_kernel():
    with pytest.raises(GameValidationError, match="sums to"):
        GameSpec(
            horizon=1,
            states=[["a"], ["b", "c"]],
            actions=[["0"], ["0"]],
            transitions={(0, ("a",), (0, 0)): (F(1, 2), F(1, 3))},
            running_costs=[{(0, ("a",), 0): F(0)}, {(0, ("a",), 0): F(0)}],
            terminal_costs=[
                {("a", "b"): F(0), ("a", "c"): F(0)},
                {("a", "b"): F(0), ("a", "c"): F(0)},
            ],
        )


# A valid one-period, two-player spec; each case below breaks one field.
TWO_LEAVES = dict(
    horizon=1,
    states=[["a"], ["b", "c"]],
    actions=[["0"], ["0"]],
    transitions={(0, ("a",), (0, 0)): (F(1, 2), F(1, 2))},
    running_costs=[{(0, ("a",), 0): F(0)}, {(0, ("a",), 0): F(0)}],
    terminal_costs=[{("a", "b"): F(0), ("a", "c"): F(0)}] * 2,
)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("horizon", 0, "horizon must be >= 1"),
        ("states", [["a"]], "need 2 state levels, got 1"),
        ("states", [["a"], ["b", "b"]], "duplicate state labels at time 1"),
        ("actions", [], "need at least one player"),
        ("running_costs", [{(0, ("a",), 0): F(0)}], "cost tables must have one entry per player"),
        ("transitions", {(0, ("a",), (0, 0)): (0.5, 0.5)}, "probabilities must be Fraction"),
        ("running_costs", [{(0, ("a",), 0): 0}] * 2, "running costs must be Fraction"),
        ("terminal_costs", [{("a", "b"): 0, ("a", "c"): F(0)}] * 2, "terminal costs must be"),
    ],
)
def test_specs_outside_the_model_are_rejected(field, value, message):
    GameSpec(**TWO_LEAVES)
    with pytest.raises(GameValidationError, match=message):
        GameSpec(**{**TWO_LEAVES, field: value})


@pytest.mark.parametrize("delta", [F(1, 12), F(-1, 12)])
def test_rejects_kernel_off_one_by_a_twelfth(delta):
    with pytest.raises(GameValidationError, match=f"sums to {1 + delta}, not 1"):
        GameSpec(
            horizon=1,
            states=[["a"], ["b", "c"]],
            actions=[["0"], ["0"]],
            transitions={(0, ("a",), (0, 0)): (F(1, 4), F(3, 4) + delta)},
            running_costs=[{(0, ("a",), 0): F(0)}, {(0, ("a",), 0): F(0)}],
            terminal_costs=[
                {("a", "b"): F(0), ("a", "c"): F(0)},
                {("a", "b"): F(0), ("a", "c"): F(0)},
            ],
        )


@pytest.mark.parametrize(
    "text",
    ["3/4", "-3/4", " 3/4 ", "0.25", "1e-2", "+1/2", "-0/5", "3/0", "3/-4", "1_0/3", "a/b", "3/", 5],
)
def test_rational_parse_agrees_with_fraction(text):
    try:
        want = F(text.strip()) if isinstance(text, str) else F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(GameValidationError, match=f"bad rational {text!r}"):
            frac_from_str(text)
    else:
        got = frac_from_str(text)
        assert type(got) is F and got == want


# -- the prefix tree -----------------------------------------------------------


def eager_tree(spec):
    """Reference: every prefix built up front, breadth first, as a list of nodes."""
    nodes, levels, ids = [], [[] for _ in spec.states], {}

    def add(t, prefix, parent):
        nid = len(nodes)
        nodes.append(Node(id=nid, t=t, prefix=prefix, parent=parent))
        levels[t].append(nid)
        ids[prefix] = nid
        return nid

    for label in spec.states[0]:
        add(0, (label,), None)
    for t in range(spec.horizon):
        for nid in list(levels[t]):
            node = nodes[nid]
            kids = tuple(add(t + 1, node.prefix + (label,), nid) for label in spec.states[t + 1])
            nodes[nid] = dataclasses.replace(node, children=kids)
    return nodes, levels, ids


# Several root labels, labels shared between levels in different orders, and
# a level with one state.
FIXED_STATES = [["a", "b"], ["b", "a", "c"], ["c"], ["a", "c"]]


def shaped_spec(rng, states, state_dependent):
    """A valid three-player spec on the given state levels, with random costs."""
    horizon = len(states) - 1
    actions = [["0", "1"][: rng.randint(1, 2)] for _ in range(3)]
    joints = list(itertools.product(*(range(len(acts)) for acts in actions)))

    def keys(t):
        return states[t] if state_dependent else itertools.product(*states[: t + 1])

    transitions, running, terminal = {}, [{}, {}, {}], [{}, {}, {}]
    for t in range(horizon):
        width = len(states[t + 1])
        for key in keys(t):
            for joint in joints:
                transitions[(t, key, joint)] = (F(1, width),) * width
            for i, acts in enumerate(actions):
                for a in range(len(acts)):
                    running[i][(t, key, a)] = F(rng.randint(-4, 4), 4)
    for key in keys(horizon):
        for i in range(3):
            terminal[i][key] = F(rng.randint(-4, 4), 4)
    return GameSpec(
        horizon=horizon,
        states=states,
        actions=actions,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=state_dependent,
    )


def oracle_specs():
    rng = random.Random(41)
    specs = []
    for markov in (False, True):
        specs.append(shaped_spec(rng, FIXED_STATES, markov))
        for _ in range(5):
            horizon = rng.randint(1, 4)
            states = [rng.sample("abc", rng.randint(1, 3)) for _ in range(horizon + 1)]
            specs.append(shaped_spec(rng, states, markov))
        specs.append(random_game(rng, n_players=3, state_dependent=markov))
    return specs


def fields(node):
    return node.id, node.t, node.prefix, node.parent, node.children


@pytest.mark.parametrize("spec", oracle_specs())
def test_implicit_tree_equals_eager_tree(spec):
    nodes, levels, ids = eager_tree(spec)
    tree = build_path_tree(spec)
    # Nodes built in a random order, before any neighbour, equal the eager ones.
    order = list(range(len(nodes)))
    random.Random(len(nodes)).shuffle(order)
    assert [fields(tree.nodes[nid]) for nid in order] == [fields(nodes[nid]) for nid in order]
    assert len(tree.nodes) == len(nodes)
    assert list(map(fields, tree.nodes)) == list(map(fields, nodes))
    assert tree.nodes[-1] == nodes[-1] and tree.node(0) is tree.nodes[0]
    with pytest.raises(IndexError):
        tree.nodes[len(nodes)]
    assert [list(level) for level in tree.levels] == levels
    assert tree.n_paths == len(levels[-1])
    assert all(tree.id_of(prefix) == nid for prefix, nid in ids.items())
    for node in nodes:
        below, i = [node.id], 0
        while i < len(below):
            below.extend(nodes[below[i]].children)
            i += 1
        assert tree.subtree(node.id) == below
        assert tree.decision_nodes(node.id) == [u for u in below if nodes[u].t < spec.horizon]
    shuffled = order[: len(order) // 2]
    for members in (range(len(nodes)), shuffled):
        groups = {}
        for nid in members:
            groups.setdefault((nodes[nid].t, nodes[nid].state), []).append(nid)
        want = {key: tuple(groups[key]) for key in sorted(groups)}
        got = tree.group_by_time_state(members)
        assert list(got.items()) == list(want.items())
    for label in set().union(*spec.states):
        want = frozenset(node.id for node in nodes if node.state == label)
        stopping = StoppingTime.hitting_state(tree, label)
        labels = tuple(frozenset(s for s in level if s == label) for level in spec.states)
        assert stopping.stopped == labels
        for node in nodes:
            stops = node.id in want or node.t == spec.horizon
            assert stopping.stops_at(tree, node.id) == stops


def test_implicit_tree_rejects_what_the_eager_tree_rejected():
    spec = shaped_spec(random.Random(0), FIXED_STATES, False)
    tree = build_path_tree(spec)
    assert len(tree.nodes) == 2 + 6 + 6 + 12
    # State indices (1, 2, 0, 0) in radices (2, 3, 1, 2): ((1·3 + 2)·1 + 0)·2 + 0.
    assert tree.id_of(["b", "c", "c", "a"]) == tree.levels[3][10]
    for prefix in [("z",), ("c",), ("a", "b", "a"), (), ("a", "b", "c", "a", "a"), ("a", "b", "c", "b")]:
        with pytest.raises(GameValidationError, match="unknown prefix"):
            tree.id_of(prefix)
    with pytest.raises(GameValidationError, match="no node carries"):
        StoppingTime.hitting_state(tree, "z")


def test_a_policy_has_no_action_off_its_nodes():
    with pytest.raises(GameValidationError, match="policy has no action at node 3"):
        Policy(actions={0: (0, 0)}).action(3)


@pytest.mark.parametrize("t0", [-1, 4])
def test_a_stopping_time_lies_in_the_horizon(path_game, t0):
    _, tree, _ = path_game
    with pytest.raises(GameValidationError, match=f"stopping time {t0} outside 0..3"):
        StoppingTime.at_time(tree, t0)


def test_an_unknown_example_is_rejected():
    with pytest.raises(GameValidationError, match="no spec preset 'nosuch'; choose from"):
        load_example("nosuch")


def test_path_measure_first_branch_half(path_game):
    spec, tree, root = path_game
    masses = path_measure(spec, tree, root, all_zero_policy(tree, root))
    up = sum(m for path, m in masses.items() if path[1] == "s10")
    assert up == F(1, 2)


def test_path_measure_point_mass_on_deterministic_kernel():
    spec = GameSpec(
        horizon=2,
        states=[["a"], ["b", "c"], ["d"]],
        actions=[["0"], ["0"]],
        transitions={
            (0, ("a",), (0, 0)): (F(1), F(0)),
            (1, ("a", "b"), (0, 0)): (F(1),),
            (1, ("a", "c"), (0, 0)): (F(1),),
        },
        running_costs=[
            {(0, ("a",), 0): F(0), (1, ("a", "b"), 0): F(0), (1, ("a", "c"), 0): F(0)},
            {(0, ("a",), 0): F(0), (1, ("a", "b"), 0): F(0), (1, ("a", "c"), 0): F(0)},
        ],
        terminal_costs=[
            {("a", "b", "d"): F(1), ("a", "c", "d"): F(2)},
            {("a", "b", "d"): F(1), ("a", "c", "d"): F(2)},
        ],
    )
    tree = build_path_tree(spec)
    root = tree.id_of(("a",))
    masses = path_measure(spec, tree, root, all_zero_policy(tree, root))
    assert masses == {("a", "b", "d"): F(1)}


def test_path_measure_matches_naive_expansion_and_sums_to_one():
    rng = random.Random(11)
    for _ in range(20):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        policy = Policy(
            actions={
                nid: (rng.randrange(2), rng.randrange(2))
                for nid in tree.decision_nodes(root)
            }
        )
        masses = path_measure(spec, tree, root, policy)
        assert sum(masses.values()) == F(1)
        assert masses == naive_measure(spec, tree, root, policy)


def test_cost_matches_bruteforce_expansion():
    rng = random.Random(13)
    for _ in range(20):
        spec = random_game(rng, allow_zero=rng.random() < 0.5)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        policy = Policy(
            actions={
                nid: (rng.randrange(2), rng.randrange(2))
                for nid in tree.decision_nodes(root)
            }
        )
        assert cost_J(spec, tree, root, policy) == naive_cost(spec, tree, root, policy)


def test_cost_zero_for_zero_costs():
    spec = GameSpec(
        horizon=1,
        states=[["a"], ["b", "c"]],
        actions=[["0", "1"], ["0", "1"]],
        transitions={
            (0, ("a",), j): (F(1, 2), F(1, 2))
            for j in itertools.product(range(2), range(2))
        },
        running_costs=[
            {(0, ("a",), a): F(0) for a in range(2)},
            {(0, ("a",), a): F(0) for a in range(2)},
        ],
        terminal_costs=[
            {("a", "b"): F(0), ("a", "c"): F(0)},
            {("a", "b"): F(0), ("a", "c"): F(0)},
        ],
    )
    tree = build_path_tree(spec)
    root = tree.id_of(("a",))
    for joint in itertools.product(range(2), range(2)):
        assert cost_J(spec, tree, root, Policy(actions={root: joint})) == (F(0), F(0))


def test_cost_path_game_state_policy(path_game):
    spec, tree, root = path_game
    policy = all_zero_policy(tree, root)
    assert cost_J(spec, tree, root, policy) == (F(0), F(1, 4))


def test_tower_property():
    rng = random.Random(17)
    for _ in range(10):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        policy = Policy(
            actions={
                nid: (rng.randrange(2), rng.randrange(2))
                for nid in tree.decision_nodes(root)
            }
        )
        node = tree.node(root)
        joint = policy.action(root)
        vec = spec.transition_vector(0, node.prefix, joint)
        expected = [spec.running_cost(i, 0, node.prefix, joint[i]) for i in range(2)]
        for child, p in zip(node.children, vec):
            sub = cost_J(spec, tree, child, policy)
            for i in range(2):
                expected[i] += p * sub[i]
        assert cost_J(spec, tree, root, policy) == tuple(expected)


def test_prefix_consistency(path_game):
    spec, tree, root = path_game
    mid = tree.id_of(("s0", "s10", "s2"))
    base = {nid: (0, 0) for nid in tree.decision_nodes(root)}
    policy_a = Policy(actions=dict(base))
    changed = dict(base)
    changed[tree.id_of(("s0", "s11"))] = (1, 1)
    changed[root] = (1, 0)
    policy_b = Policy(actions=changed)
    assert cost_J(spec, tree, mid, policy_a) == cost_J(spec, tree, mid, policy_b)


def test_state_dependent_cost_agrees_across_prefixes(state_game):
    spec, tree, root = state_game
    assert spec.state_dependent
    a = tree.id_of(("s0", "s10", "s20", "s3"))
    b = tree.id_of(("s0", "s11", "s20", "s3"))
    policy = all_zero_policy(tree, root)
    assert cost_J(spec, tree, a, policy) == cost_J(spec, tree, b, policy)


def test_round_trip_serialization():
    rng = random.Random(23)
    for state_dep in (False, True):
        spec = random_game(rng, state_dependent=state_dep)
        doc = dump_game(spec)
        again = load_game(doc)
        assert dump_game(again) == doc
        assert again.q_positive == spec.q_positive


def test_running_cost_keyed_by_joint_action_rejected(table1):
    spec, _, _ = table1
    doc = dump_game(spec)
    doc["running_costs"][0]["0|s0|0,1"] = "1"
    with pytest.raises(GameValidationError, match="own action"):
        load_game(doc)


# -- shared data in ingestion --------------------------------------------------


def unshared(spec):
    """``spec`` rebuilt from fresh Fractions: no two vectors or numbers share an object."""

    def fresh(x):
        return F(str(x))

    return GameSpec(
        horizon=spec.horizon,
        states=spec.states,
        actions=spec.actions,
        transitions={k: tuple(map(fresh, vec)) for k, vec in spec.transitions.items()},
        running_costs=[{k: fresh(c) for k, c in table.items()} for table in spec.running_costs],
        terminal_costs=[{k: fresh(c) for k, c in table.items()} for table in spec.terminal_costs],
        state_dependent=spec.state_dependent,
    )


def loaded_specs():
    """Specs as ``load_game`` builds them: shared strings, vectors and Fractions."""
    specs = [load_example(name) for name in SPEC_FILES]
    specs.append(load_game(Path(__file__).parent / "data" / "markov_h30.json"))
    rng = random.Random(59)
    for markov in (False, True):
        for allow_zero in (False, True):
            for _ in range(3):
                game = random_game(rng, state_dependent=markov, allow_zero=allow_zero)
                specs.append(load_game(dump_game(game)))
    return specs


@pytest.mark.parametrize("spec", loaded_specs())
def test_ingestion_does_not_depend_on_shared_objects(spec):
    fresh = unshared(spec)
    assert fresh.transitions == spec.transitions
    assert fresh.running_costs == spec.running_costs
    assert fresh.terminal_costs == spec.terminal_costs
    assert fresh.q_positive == spec.q_positive
    a, b = Tables(spec), Tables(fresh)
    for name in ("scale", "kern", "cost", "end", "kids"):
        assert getattr(a, name) == getattr(b, name), name


def test_loaded_specs_share_vectors_and_cover_zero_kernels():
    specs = loaded_specs()
    h30 = specs[len(SPEC_FILES)]
    assert len({id(vec) for vec in h30.transitions.values()}) < len(h30.transitions)
    assert {spec.q_positive for spec in specs} == {False, True}
    assert {spec.state_dependent for spec in specs} == {False, True}


def half_kernel_spec():
    """Markov spec, one player: one vector object summing to 1/2 at three keys.

    The transitions are given in reverse validation order, so the first bad
    key in the dict is not the first that validation reads.
    """
    good, bad = (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))
    keys = [(t, key, (a,)) for t, level in ((0, "a"), (1, "bc")) for key in level for a in (0, 1)]
    transitions = {k: good for k in keys}
    for k in ((1, "c", (0,)), (1, "b", (1,)), (0, "a", (1,))):
        transitions[k] = bad
    return dict(
        horizon=2,
        states=[["a"], ["b", "c"], ["b", "c"]],
        actions=[["0", "1"]],
        transitions=dict(reversed(transitions.items())),
        running_costs=[{k[:2] + k[2]: F(0) for k in keys}],
        terminal_costs=[{"b": F(0), "c": F(0)}],
        state_dependent=True,
    )


def test_a_shared_bad_vector_is_named_at_its_first_key_in_validation_order():
    with pytest.raises(GameValidationError) as err:
        GameSpec(**half_kernel_spec())
    assert str(err.value) == "transition at t=0, state='a', (1,) sums to 1/2, not 1"


def test_a_shared_vector_is_length_checked_at_every_key():
    args = half_kernel_spec()
    vec = (F(1, 2), F(1, 2))
    args["states"][2] = ["b", "c", "d"]
    args["terminal_costs"] = [{"b": F(0), "c": F(0), "d": F(0)}]
    args["transitions"] = {k: vec for k in args["transitions"]}
    with pytest.raises(GameValidationError, match=r"at t=1, state='b', \(0,\) has wrong length"):
        GameSpec(**args)


def test_a_shared_vector_with_a_zero_keeps_q_positive_false():
    args = half_kernel_spec()
    zero, good = (F(0), F(1)), (F(1, 2), F(1, 2))
    args["transitions"] = {k: zero if k[0] == 1 else good for k in args["transitions"]}
    assert not GameSpec(**args).q_positive
    args["transitions"] = {k: good for k in args["transitions"]}
    assert GameSpec(**args).q_positive


def test_a_repeated_bad_rational_raises_at_its_first_key(table1):
    spec, _, _ = table1
    doc = dump_game(spec)
    trans = doc["transitions"]
    first, second, third, _ = trans
    trans[first] = {"up": "x", "down": "1"}
    trans[second] = {"up": "0", "down": "1", "nowhere": "0"}  # would raise if reached
    trans[third] = {"up": "x", "down": "1"}
    message = rf"^transition '{re.escape(first)}': bad rational 'x'$"
    with pytest.raises(GameValidationError, match=message):
        load_game(doc)
    doc = dump_game(spec)
    doc["running_costs"][1] = {"0|s0|0": "y", "0|s0|1": "y"}
    doc["terminal_costs"][0]["up"] = "y"
    message = r"^running cost '0\|s0\|0' of player 1: bad rational 'y'$"
    with pytest.raises(GameValidationError, match=message):
        load_game(doc)
    doc["running_costs"][1] = {"0|s0|0": "1", "0|s0|1": "1"}
    message = "^terminal cost 'up' of player 0: bad rational 'y'$"
    with pytest.raises(GameValidationError, match=message):
        load_game(doc)


def test_a_boolean_never_reuses_a_number_seen_before(table1):
    spec, _, _ = table1
    doc = dump_game(spec)
    trans = doc["transitions"]
    first, second, *_ = trans
    trans[first] = {"up": 1, "down": 0}
    trans[second] = {"up": True, "down": False}
    message = rf"^transition '{re.escape(second)}': expected rational string, got True$"
    with pytest.raises(GameValidationError, match=message):
        load_game(doc)
    doc = dump_game(spec)
    doc["running_costs"][0] = {"0|s0|0": 1, "0|s0|1": True}
    message = r"^running cost '0\|s0\|1' of player 0: expected rational string, got True$"
    with pytest.raises(GameValidationError, match=message):
        load_game(doc)


# -- truncation ----------------------------------------------------------------


def test_truncation_at_horizon_is_identity(path_game):
    spec, tree, root = path_game
    stopping = StoppingTime.at_time(tree, tree.horizon)
    terminal = {
        leaf: spec.terminal_vector(tree.node(leaf).prefix)
        for leaf in tree.levels[tree.horizon]
    }
    cut = truncate_game(spec, tree, stopping, terminal, start=root)
    cut_tree = build_path_tree(cut)
    rng = random.Random(3)
    for _ in range(5):
        policy = Policy(
            actions={
                nid: (rng.randrange(2), rng.randrange(2))
                for nid in tree.decision_nodes(root)
            }
        )
        assert cost_J(cut, cut_tree, root, policy) == cost_J(spec, tree, root, policy)


def test_truncation_with_constant_terminal_kills_early_actions(path_game):
    spec, tree, root = path_game
    stopping = StoppingTime.at_time(tree, 2)
    value = (F(3), F(7))
    terminal = {nid: value for nid in stopping.frontier(tree, root)}
    cut = truncate_game(spec, tree, stopping, terminal, start=root)
    cut_tree = build_path_tree(cut)
    for joint in [(0, 0), (1, 1), (0, 1)]:
        policy = Policy(
            actions={nid: joint for nid in tree.decision_nodes(root)}
        )
        assert cost_J(cut, cut_tree, root, policy) == value


def test_truncation_hitting_time_matches_manual_sum():
    rng = random.Random(29)
    spec = random_game(rng, max_periods=3, max_states=2)
    tree = build_path_tree(spec)
    root = tree.id_of(("r0",))
    label = spec.states[1][0]
    stopping = StoppingTime.hitting_state(tree, label)
    frontier = stopping.frontier(tree, root)
    terminal = {nid: (F(1), F(2)) for nid in frontier}
    cut = truncate_game(spec, tree, stopping, terminal, start=root)
    cut_tree = build_path_tree(cut)
    policy = Policy(
        actions={nid: (0, 1) for nid in tree.decision_nodes(root)}
    )
    # manual: expected terminal over stopped prefixes plus running costs up to the stop
    masses = path_measure(spec, tree, root, policy)
    expected = [F(0), F(0)]
    for path, mass in masses.items():
        stop = stop_node_along(stopping, tree, tree.id_of(path))
        stop_t = tree.node(stop).t
        for i in range(2):
            acc = terminal[stop][i] if stop in terminal else F(0)
            for s in range(0, stop_t):
                acc += spec.running_cost(i, s, path[: s + 1], policy.action(tree.id_of(path[: s + 1]))[i])
            expected[i] += mass * acc
    assert cost_J(cut, cut_tree, root, policy) == tuple(expected)


def test_truncation_missing_terminal_entry_rejected(path_game):
    spec, tree, root = path_game
    stopping = StoppingTime.at_time(tree, 2)
    with pytest.raises(GameValidationError, match="reachable stopped prefix"):
        truncate_game(spec, tree, stopping, {}, start=root)


def test_stopping_time_must_be_after_start(path_game):
    """A stop at the start, or at a whole level at or before its time, is
    refused; a hit that covers part of an earlier level is not one."""
    spec, tree, root = path_game
    s10, s11 = tree.id_of(("s0", "s10")), tree.id_of(("s0", "s11"))
    for stopping, start in (
        (StoppingTime.at_time(tree, 0), root),
        (StoppingTime.at_time(tree, 0), s10),
        (StoppingTime.at_time(tree, 1), s10),
        (StoppingTime.hitting_state(tree, "s0"), s10),
    ):
        with pytest.raises(GameValidationError, match="^stopping time must be strictly after"):
            stopping.frontier(tree, start)
    frontier = StoppingTime.hitting_state(tree, "s10").frontier(tree, s11)
    assert frontier == list(tree.levels[3][2:])


def test_a_stopping_time_needs_one_label_set_per_level(path_game):
    spec, tree, root = path_game
    for stopped in ((frozenset(),), (frozenset(),) * (tree.horizon + 2)):
        with pytest.raises(GameValidationError, match=rf"has {len(stopped)} label sets for 4 levels"):
            StoppingTime(stopped).frontier(tree, root)


def test_a_stopping_time_stops_only_at_labels_its_level_holds(path_game):
    spec, tree, root = path_game
    # s2 is a level-2 label; at level 1 it is unknown, and so is "z" anywhere
    for t, label in ((1, "s2"), (2, "z")):
        stopped = tuple(frozenset({label}) if s == t else frozenset() for s in range(4))
        with pytest.raises(GameValidationError, match=rf"labels \['{label}'\] that level {t}"):
            StoppingTime(stopped).frontier(tree, root)
    assert StoppingTime.hitting_state(tree, "s2").frontier(tree, root) == list(tree.levels[2])
