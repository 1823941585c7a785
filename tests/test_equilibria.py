from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from gameval import (
    EnumerationCapExceeded,
    EquilibriumRecord,
    GameValidationError,
    Policy,
    Scalarization,
    ValueSet,
    best_response,
    build_path_tree,
    cost_J,
    is_equilibrium,
    iter_equilibria,
    load_game,
    one_step_equilibria,
    pareto_filter,
    set_value_bruteforce,
    set_value_dpp,
    strong_pareto_filter,
    time_inconsistency_probe,
    value_index,
)
from gameval import equilibria
from gameval.cli import main
from gameval.equilibria import (
    VARIANT_POLICY_CLASS,
    _iter_argmin,
    _iter_general,
    _nash_flags,
    _Reach,
    _Recursion,
    _Scope,
    _units_for,
    variant_set,
)
from gameval.model import (
    PATH_CLASS,
    STATE_CLASS,
    SYMMETRIC_CLASS,
    StoppingTime,
    tables_of,
)
from gameval.presets import build_pareto_spec, load_example

from oracles import (
    all_policy_values,
    enumerate_equilibria,
    nash_profiles,
    rebuilt,
    terminal_vector,
    truncate_game,
)
from specgen import random_game

from test_core import clone_action, indifferent, tied_game


def pts(vs):
    return set(vs.points)


def general_records(spec, tree, start, cls=PATH_CLASS, frontier=None):
    """Equilibria found by checking every profile of the class: the reference."""
    scope = _Scope(spec, tree, start, frontier=frontier)
    units = _units_for(spec, tree, scope, cls)
    return list(_iter_general(spec, tree, scope, units, F(0), cls))


def profiles(records):
    return sorted(tuple(sorted(rec.policy.actions.items())) for rec in records)


def assert_matches_general(spec, tree, start, cls=PATH_CLASS, frontier=None):
    """iter_equilibria yields the reference's profiles and values; returns the values."""
    scope = _Scope(spec, tree, start, frontier=frontier)
    records = list(iter_equilibria(spec, tree, start, cls=cls, scope=scope))
    reference = general_records(spec, tree, start, cls, frontier)
    assert profiles(records) == profiles(reference)
    values = {rec.value for rec in records}
    assert values == {rec.value for rec in reference}
    if records:
        ok, slack = is_equilibrium(spec, tree, start, records[0].policy, cls=cls, scope=scope)
        assert ok and slack == records[0].slack
    return values


def random_frontier(rng, tree, start, t0, n_players, by_state=False):
    """Random terminal vectors at the time-t0 stopped nodes; one per (time, state) if by_state."""
    values = {}
    frontier = {}
    for nid in StoppingTime.at_time(tree, t0).frontier(tree, start):
        node = tree.node(nid)
        key = (node.t, node.state) if by_state else nid
        if key not in values:
            values[key] = tuple(F(rng.randint(-4, 4), 2) for _ in range(n_players))
        frontier[nid] = values[key]
    return frontier


def test_table1_set_value_both_engines(table1):
    spec, tree, root = table1
    expected = {(F(0), F(1)), (F(1), F(0))}
    assert pts(set_value_bruteforce(spec, tree, root)) == expected
    assert pts(set_value_dpp(spec, tree, root)) == expected


def test_table2_set_values(table2_left, table2_right):
    for (spec, tree, root), expected in [
        (table2_left, {(F(3), F(3))}),
        (table2_right, {(F(2), F(2))}),
    ]:
        assert pts(set_value_bruteforce(spec, tree, root)) == expected


def test_table1_equilibrium_checks(table1):
    spec, tree, root = table1
    ok, slack = is_equilibrium(spec, tree, root, Policy(actions={root: (0, 0)}))
    assert ok and slack == (F(0), F(0))
    ok, slack = is_equilibrium(spec, tree, root, Policy(actions={root: (0, 1)}))
    assert not ok
    assert slack == (F(1), F(1))


def test_table1_best_response(table1):
    spec, tree, root = table1
    value, dev = best_response(spec, tree, root, Policy(actions={root: (1, 0)}), 0)
    assert value == F(0)
    assert dev.action(root)[0] == 0


def test_best_response_zero_game_picks_lowest_index():
    zero = indifferent(indifferent(random_game(random.Random(1)), 0), 1)
    tree = build_path_tree(zero)
    root = tree.id_of(("r0",))
    frozen = Policy(actions={nid: (1, 1) for nid in tree.decision_nodes(root)})
    value, dev = best_response(zero, tree, root, frozen, 0)
    assert value == F(0)
    assert all(dev.action(nid)[0] == 0 for nid in tree.decision_nodes(root))


def test_best_response_matches_deviation_policy_enumeration():
    rng = random.Random(5)
    for _ in range(8):
        spec = random_game(rng, max_periods=2, allow_zero=rng.random() < 0.4)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        nodes = tree.decision_nodes(root)
        frozen = Policy(
            actions={nid: (rng.randrange(2), rng.randrange(2)) for nid in nodes}
        )
        for player in range(2):
            value, _ = best_response(spec, tree, root, frozen, player)
            # oracle: enumerate every deviation policy of this player
            best = None
            for combo in itertools.product(range(2), repeat=len(nodes)):
                actions = {}
                for k, nid in enumerate(nodes):
                    joint = list(frozen.action(nid))
                    joint[player] = combo[k]
                    actions[nid] = tuple(joint)
                cand = cost_J(spec, tree, root, Policy(actions=actions))[player]
                best = cand if best is None else min(best, cand)
            assert value == best


def test_path_game_path_dependent_equilibrium(path_game):
    spec, tree, root = path_game
    actions = {nid: (0, 0) for nid in tree.decision_nodes(root)}
    actions[tree.id_of(("s0", "s11", "s2"))] = (1, 1)
    policy = Policy(actions=actions)
    ok, _ = is_equilibrium(spec, tree, root, policy)
    assert ok
    assert cost_J(spec, tree, root, policy) == (F(1, 8), F(1, 8))


def test_path_game_set_values(path_game):
    spec, tree, root = path_game
    expected = {(F(0), F(1, 4)), (F(1, 4), F(0)), (F(1, 8), F(1, 8))}
    assert pts(set_value_bruteforce(spec, tree, root)) == expected
    assert pts(set_value_dpp(spec, tree, root)) == expected
    assert pts(set_value_bruteforce(spec, tree, root, cls=STATE_CLASS)) == {
        (F(0), F(1, 4)),
        (F(1, 4), F(0)),
    }
    assert pts(set_value_bruteforce(spec, tree, root, cls=SYMMETRIC_CLASS)) == expected


def test_fast_and_general_enumeration_agree():
    rng = random.Random(9)
    for _ in range(12):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        fast = set_value_bruteforce(spec, tree, root)
        slow = {rec.value for rec in general_records(spec, tree, root)}
        assert pts(fast) == slow


def test_reach_on_positive_kernels_is_one_segment_of_sure_nodes():
    """On a strictly positive kernel the scan finds every member sure and no links."""
    rng = random.Random(71)
    for k in range(8):
        spec = random_game(rng, state_dependent=k % 2 == 1)
        assert spec.q_positive
        tree = build_path_tree(spec)
        for start in tree.decision_nodes(tree.id_of(("r0",))):
            scope = _Scope(spec, tree, start)
            for cls in (PATH_CLASS, STATE_CLASS):
                members = _units_for(spec, tree, scope, cls).members
                local = tuple(tuple(map(scope.local.__getitem__, m)) for m in members)
                reach = _Reach.of(scope, local)
                assert reach.sure == local
                assert reach.links == ((),) * len(members)
                assert reach.cuts == (0, len(members))


def test_argmin_enumerator_on_zero_kernel_path_specs():
    rng = random.Random(53)
    sizes = []
    checked = 0
    while checked < 12:
        spec = random_game(rng, allow_zero=True, n_actions=rng.choice((2, 3)))
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        scope = _Scope(spec, tree, root)
        if spec.q_positive or _units_for(spec, tree, scope, PATH_CLASS).count > 4**5:
            continue
        checked += 1
        sizes.append(len(assert_matches_general(spec, tree, root)))
        if spec.horizon > 1:
            frontier = random_frontier(rng, tree, root, 1, spec.n_players)
            sizes.append(len(assert_matches_general(spec, tree, root, frontier=frontier)))
    assert max(sizes) > 1


def test_argmin_enumerator_on_three_player_specs():
    rng = random.Random(59)
    sizes = []
    for k in range(10):
        spec = random_game(rng, max_periods=2, allow_zero=k % 2 == 1, n_players=3)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        assert spec.n_players == 3
        sizes.append(len(assert_matches_general(spec, tree, root)))
        frontier = random_frontier(rng, tree, root, spec.horizon, 3)
        sizes.append(len(assert_matches_general(spec, tree, root, frontier=frontier)))
    assert max(sizes) > 1


def test_argmin_enumerator_on_markov_state_class():
    rng = random.Random(61)
    sizes = []
    for k in range(12):
        spec = random_game(
            rng, max_periods=2, n_actions=3, allow_zero=k % 2 == 1, state_dependent=True
        )
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        assert _Scope(spec, tree, root).is_markov()
        sizes.append(len(assert_matches_general(spec, tree, root, cls=STATE_CLASS)))
        frontier = random_frontier(rng, tree, root, spec.horizon, 2, by_state=True)
        assert _Scope(spec, tree, root, frontier=frontier).is_markov()
        sizes.append(
            len(assert_matches_general(spec, tree, root, cls=STATE_CLASS, frontier=frontier))
        )
    assert max(sizes) > 1


def test_state_class_falls_back_off_markov_scopes():
    """Two non-Markov scopes built from the path example: its leaf values with
    player 0's cost at one leaf lowered by 1, once as a frontier on the Markov
    spec and once as the terminal cost of its path-keyed twin. The two time-2
    nodes of state s2 then head different subgames, and a state-class policy
    must play one action at both. Argmin pools alone miss an equilibrium value
    there, so iter_equilibria checks every state-class profile instead."""
    spec = load_example("path")
    tree = build_path_tree(spec)
    root = tree.id_of(("s0",))
    at_horizon = StoppingTime.at_time(tree, spec.horizon)
    leaves = {
        nid: terminal_vector(spec, tree.node(nid).prefix) for nid in at_horizon.frontier(tree, root)
    }
    assert _Scope(spec, tree, root, frontier=leaves).is_markov()
    off = tree.id_of(("s0", "s10", "s2", "s30"))
    leaves[off] = (leaves[off][0] - 1, leaves[off][1])
    twin = truncate_game(spec, tree, at_horizon, leaves)
    for game, frontier in ((spec, leaves), (twin, None)):
        scope = _Scope(game, tree, root, frontier=frontier)
        assert not scope.is_markov()
        values = assert_matches_general(game, tree, root, cls=STATE_CLASS, frontier=frontier)
        assert values == {(F(1, 8), F(0)), (F(-1, 8), F(1, 4))}
        units = _units_for(game, tree, scope, STATE_CLASS)
        pooled = {rec.value for rec in _iter_argmin(game, scope, units, False)}
        assert pooled == {(F(-1, 8), F(1, 4))}


def test_large_eps_accepts_everything(table1):
    spec, tree, root = table1
    vs = set_value_bruteforce(spec, tree, root, eps=F(10))
    assert len(vs) == 4
    assert vs.epsilon == F(10)


def test_eps_nesting(table1):
    spec, tree, root = table1
    small = set_value_bruteforce(spec, tree, root, eps=F(1, 2))
    large = set_value_bruteforce(spec, tree, root, eps=F(3, 2))
    for p in small.points:
        assert large.contains(p)


def test_value_set_membership_is_strict():
    vs = ValueSet.of([(F(0), F(0))], epsilon=F(1))
    assert vs.contains((F(1, 2), F(0)))
    assert not vs.contains((F(1), F(0)))  # boundary excluded
    exact = ValueSet.of([(F(0), F(0))])
    assert exact.contains((F(0), F(0)))
    assert not exact.contains((F(0), F(1, 100)))


def test_enumeration_cap_reports_required_count(path_game):
    spec, tree, root = path_game
    with pytest.raises(EnumerationCapExceeded) as err:
        set_value_bruteforce(spec, tree, root, cap=10)
    assert err.value.required == 4**5


def test_class_mismatch_rejected(path_game):
    spec, tree, root = path_game
    actions = {nid: (0, 0) for nid in tree.decision_nodes(root)}
    actions[tree.id_of(("s0", "s11", "s2"))] = (1, 1)
    policy = Policy(actions=actions, policy_class=STATE_CLASS)
    with pytest.raises(GameValidationError, match="state dependent"):
        is_equilibrium(spec, tree, root, policy, cls=STATE_CLASS)


def test_symmetric_class_needs_equal_action_sets():
    spec = random_game(random.Random(2))
    uneven = rebuilt(spec, actions=(("0", "1"), ("a", "b")))
    tree = build_path_tree(uneven)
    root = tree.id_of(("r0",))
    with pytest.raises(GameValidationError, match="identical action sets"):
        set_value_bruteforce(uneven, tree, root, cls=SYMMETRIC_CLASS)


# -- one-step games ---------------------------------------------------------------


def test_one_step_last_period_of_path_game(path_game):
    spec, tree, root = path_game
    nid = tree.id_of(("s0", "s10", "s2"))
    node = tree.node(nid)
    continuation = {
        child: terminal_vector(spec, tree.node(child).prefix) for child in node.children
    }
    records = one_step_equilibria(spec, tree, nid, continuation)
    values = {rec.policy.action(nid): rec.value for rec in records}
    assert values == {(0, 0): (F(0), F(1, 4)), (1, 1): (F(1, 4), F(0))}


def test_one_step_single_action_trivial():
    spec = random_game(random.Random(3), n_actions=1)
    tree = build_path_tree(spec)
    root = tree.id_of(("r0",))
    node = tree.node(root)
    continuation = {child: (F(0), F(0)) for child in node.children}
    records = one_step_equilibria(spec, tree, root, continuation)
    assert len(records) == 1
    assert records[0].policy.action(root) == (0, 0)


def test_one_step_perturbed_first_period_games():
    eps = F(1, 100)
    spec = build_pareto_spec(eps)
    tree = build_path_tree(spec)
    root = tree.id_of(("s0",))
    children = tree.node(root).children
    by_state = {tree.node(c).prefix[-1]: c for c in children}
    low = {"s10": (F(2), F(2)), "s11": (F(1), F(5)), "s12": (F(5), F(1)), "s13": (F(4), F(4))}
    high = {"s10": (F(3), F(3)), "s11": (F(6), F(6)), "s12": (F(6), F(6)), "s13": (F(7), F(7))}

    records = one_step_equilibria(
        spec, tree, root, {by_state[s]: v for s, v in low.items()}
    )
    assert len(records) == 1
    assert records[0].value == (4 - 4 * eps, 4 - 4 * eps)

    records = one_step_equilibria(
        spec, tree, root, {by_state[s]: v for s, v in high.items()}
    )
    assert len(records) == 1
    assert records[0].value == (3 + 10 * eps, 3 + 10 * eps)


@pytest.mark.parametrize("sizes", [(3,), (2, 3), (3, 2), (2, 3, 2)])
def test_nash_flags_agree_with_the_deviation_oracle(sizes):
    """The stride test finds the profiles no unilateral deviation improves."""
    rng = random.Random(len(sizes) * 10 + sizes[0])
    joints = list(itertools.product(*map(range, sizes)))
    strides = tuple(math.prod(sizes[i + 1 :]) for i in range(len(sizes)))
    found = 0
    for _ in range(300):
        # Costs in {0, 1, 2} leave many tied columns, and whole tied games.
        table = {joint: tuple(rng.randint(0, 2) for _ in sizes) for joint in joints}
        totals = [[table[joint][i] for joint in joints] for i in range(len(sizes))]
        nash = set(nash_profiles(sizes, table))
        assert _nash_flags(totals, strides, sizes) == [joint in nash for joint in joints]
        found += bool(nash)
    assert 0 < found


# -- order filters ------------------------------------------------------------------


def test_pareto_filter_cases():
    incomparable = ValueSet.of([(F(0), F(1)), (F(1), F(0))])
    assert pts(pareto_filter(incomparable)) == pts(incomparable)
    dominated = ValueSet.of([(F(2), F(2)), (F(3), F(3))])
    assert pts(pareto_filter(dominated)) == {(F(2), F(2))}
    single = ValueSet.of([(F(1), F(1))])
    assert pts(pareto_filter(single)) == {(F(1), F(1))}
    # partial domination with equality in one coordinate still removes the point
    mixed = ValueSet.of([(F(0), F(1)), (F(0), F(2))])
    assert pts(pareto_filter(mixed)) == {(F(0), F(1))}


def test_pareto_filter_idempotent_and_nonempty():
    rng = random.Random(31)
    for _ in range(50):
        points = [
            (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
            for _ in range(rng.randint(1, 6))
        ]
        vs = ValueSet.of(points)
        once = pareto_filter(vs)
        assert len(once) > 0
        assert pts(pareto_filter(once)) == pts(once)


def test_strong_pareto_on_comparison_games(table2_left, table2_right):
    spec, tree, root = table2_left
    records = enumerate_equilibria(spec, tree, root)
    assert pts(strong_pareto_filter(spec, tree, root, records)) == set()
    spec, tree, root = table2_right
    records = enumerate_equilibria(spec, tree, root)
    assert pts(strong_pareto_filter(spec, tree, root, records)) == {(F(2), F(2))}


def test_strong_pareto_contained_in_pareto():
    rng = random.Random(37)
    for _ in range(10):
        spec = random_game(rng, max_periods=2)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        records = enumerate_equilibria(spec, tree, root)
        values = ValueSet.of(r.value for r in records)
        strong = strong_pareto_filter(spec, tree, root, records)
        assert pts(strong) <= pts(pareto_filter(values))


def frontier_oracle_cases():
    """Seeded (spec, start) pairs: zero kernels, Markov specs, three players,
    and starts below the root."""
    rng = random.Random(53)
    games = [dict(allow_zero=True), dict(state_dependent=True, max_states=3), dict(n_players=3)]
    cases = []
    for kwargs in games * 8:
        spec = random_game(rng, **kwargs)
        tree = build_path_tree(spec)
        for start in tree.decision_nodes(tree.levels[0][0]):
            if _units_for(spec, tree, _Scope(spec, tree, start), PATH_CLASS).count <= 4**5:
                cases.append((spec, tree, start))
    return cases


def test_frontier_is_the_minimal_set_of_every_policy_value():
    """The row recursion's frontier equals the Pareto-minimal values of an
    enumeration of every path-class policy, and strong Pareto filters
    against it exactly."""
    cases = frontier_oracle_cases()
    kinds = {(not spec.q_positive, spec.state_dependent, spec.n_players) for spec, _, _ in cases}
    assert {(True, False, 2), (False, True, 2), (False, False, 3)} <= kinds
    sizes = {}
    for spec, tree, start in cases:
        every = all_policy_values(spec, tree, start)
        recursion = _Recursion(spec, tree, 10**7)
        frontier = recursion.value_set(start, recursion.frontier)
        assert frontier == pareto_filter(every)
        root = start == tree.levels[0][0]
        sizes[root] = max(len(frontier), sizes.get(root, 0))
        # Every achievable value as a record: strong Pareto keeps the minimal ones.
        records = [EquilibriumRecord(Policy({}), value, ()) for value in every]
        assert strong_pareto_filter(spec, tree, start, records) == frontier
    assert min(sizes.values()) >= 3  # at roots and below them


def test_strong_pareto_on_the_state_example(state_game):
    spec, tree, root = state_game
    records = list(value_index(spec, tree, root).values())
    full = set_value_bruteforce(spec, tree, root)
    strong = strong_pareto_filter(spec, tree, root, records)
    assert pts(strong) <= pts(pareto_filter(full)) <= pts(full)
    assert len(strong) == 5


def test_strong_pareto_checks_its_cap_on_every_call(state_game):
    spec, tree, root = state_game
    strong_pareto_filter(spec, tree, root, [])
    for start in (root, tree.node(root).children[0]):
        with pytest.raises(EnumerationCapExceeded):
            strong_pareto_filter(spec, tree, start, [], cap=1)


# -- the recursion -----------------------------------------------------------------


def test_dpp_selection_cap(state_game):
    spec, tree, root = state_game
    with pytest.raises(EnumerationCapExceeded):
        set_value_dpp(spec, tree, root, selection_cap=1)


def test_dpp_one_period_reduces_to_static(table1):
    spec, tree, root = table1
    assert pts(set_value_dpp(spec, tree, root)) == pts(set_value_bruteforce(spec, tree, root))


def test_dpp_matches_bruteforce_on_random_specs():
    rng = random.Random(43)
    for _ in range(25):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        assert pts(set_value_dpp(spec, tree, root)) == pts(
            set_value_bruteforce(spec, tree, root)
        )


def row_oracle_specs():
    """Strictly positive specs whose root class has at most 9**4 profiles:
    plain, tie-heavy with 2 and 3 players, and tie-heavy Markov specs, whose
    recursion sets have several points."""
    rng = random.Random(53)

    def small(make):
        while True:
            spec = make()
            tree = build_path_tree(spec)
            root = tree.levels[0][0]
            if _units_for(spec, tree, _Scope(spec, tree, root), PATH_CLASS).count <= 9**4:
                return spec

    specs = [random_game(rng) for _ in range(6)]
    for n_players, periods in ((2, 3), (3, 2)):
        for _ in range(2):
            base = random_game(rng, max_periods=periods, n_players=n_players)
            specs += [clone_action(base, 1), indifferent(base, 0)]
            tied = dict(zero_first=True, max_periods=periods, n_players=n_players)
            specs.append(small(lambda: tied_game(rng, **tied)))
    markov = dict(max_periods=3, max_states=3, state_dependent=True)
    for zero_first in (False, True) * 3:
        specs.append(indifferent(random_game(rng, **markov), 1))
        specs.append(small(lambda: tied_game(rng, zero_first=zero_first, **markov)))
    assert all(spec.q_positive for spec in specs)
    return specs


def test_dpp_matches_bruteforce_at_every_node_cold_and_warm():
    """The recursion's row sets, which the planner probe reads, equal fresh
    enumerations at every decision node, from an empty memo and from the
    memo a root call leaves."""
    sizes = []
    for spec in row_oracle_specs():
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        nodes = tree.decision_nodes(root)
        for nid in nodes:
            cold = build_path_tree(spec)  # fresh tables, so an empty memo
            assert set_value_dpp(spec, cold, nid) == set_value_bruteforce(spec, cold, nid)
        set_value_dpp(spec, tree, root)
        memo = tables_of(spec, tree).dpp_sets
        solved = dict(memo)
        for nid in nodes:
            warm = set_value_dpp(spec, tree, nid)
            assert warm == set_value_bruteforce(spec, tree, nid)
            if nid != root:
                sizes.append(len(warm))
        assert memo == solved  # the root call solved every row below it
    assert max(sizes) >= 2  # some row below a root has several points


def test_a_warm_recursion_memo_still_checks_the_selection_cap():
    spec = load_example("state")
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    set_value_dpp(spec, tree, root)
    for start in (root, tree.node(root).children[0]):
        with pytest.raises(EnumerationCapExceeded):
            set_value_dpp(spec, tree, start, selection_cap=1)
    count = _units_for(spec, tree, _Scope(spec, tree, root), PATH_CLASS).count
    lam = Scalarization.uniform(spec.n_players)
    with pytest.raises(EnumerationCapExceeded):
        time_inconsistency_probe(spec, tree, root, lam, cap=count - 1)
    assert time_inconsistency_probe(spec, tree, root, lam, cap=count).rows
    assert main(["planner", "--example", "state", "--probe", "--cap", "1"]) == 3


def pennies_over_coordination():
    """A Markov spec whose only t = 1 row is matching pennies through the
    kernel, with no pure equilibrium, over two coordination rows with two
    equilibrium values each: that row has 4 selections and an empty set, so
    the root's own selection count is 0."""
    transitions = {}
    for a0, a1 in itertools.product("01", repeat=2):
        likely, unlikely = ("3/4", "1/4") if a0 == a1 else ("1/4", "3/4")
        transitions[f"0|s0|{a0},{a1}"] = {"a": "1"}
        transitions[f"1|a|{a0},{a1}"] = {"b0": likely, "b1": unlikely}
        for b in ("b0", "b1"):
            transitions[f"2|{b}|{a0},{a1}"] = {"e0": unlikely, "e1": likely}
    running = [{}, {}]
    for a in "01":
        for i in range(2):
            running[i][f"0|s0|{a}"] = running[i][f"1|a|{a}"] = "0"
        # Player 1 pays at b0 and player 0 at b1; player 0 leans to action 0.
        running[0][f"2|b0|{a}"], running[1][f"2|b0|{a}"] = ("0" if a == "0" else "1/8"), "1"
        running[0][f"2|b1|{a}"], running[1][f"2|b1|{a}"] = ("1" if a == "0" else "9/8"), "0"
    return load_game(
        {
            "players": 2,
            "horizon": 3,
            "actions": [["0", "1"], ["0", "1"]],
            "flags": {"state_dependent": True},
            "states": [["s0"], ["a"], ["b0", "b1"], ["e0", "e1"]],
            "running_costs": running,
            "terminal_costs": [{"e0": "1", "e1": "0"}] * 2,
            "transitions": transitions,
        }
    )


def test_a_warm_memo_checks_the_selection_counts_below_a_row():
    spec = pennies_over_coordination()
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    row = tree.node(root).children[0]
    for start in (row, root):
        cold = build_path_tree(spec)
        with pytest.raises(EnumerationCapExceeded):
            set_value_dpp(spec, cold, start, selection_cap=3)
    assert set_value_dpp(spec, tree, row, selection_cap=4).is_empty
    assert set_value_dpp(spec, tree, root).is_empty
    with pytest.raises(EnumerationCapExceeded) as err:
        set_value_dpp(spec, tree, root, selection_cap=3)
    assert (err.value.required, err.value.cap) == (4, 3)
    assert set_value_bruteforce(spec, tree, root).is_empty


def test_iter_equilibria_lazy_and_consistent(path_game):
    spec, tree, root = path_game
    lazy = {rec.value for rec in iter_equilibria(spec, tree, root, with_policies=False)}
    assert lazy == pts(set_value_bruteforce(spec, tree, root))


def test_symmetric_values_are_contained_in_the_full_set():
    rng = random.Random(47)
    for _ in range(10):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        symmetric = set_value_bruteforce(spec, tree, root, cls=SYMMETRIC_CLASS)
        full = set_value_bruteforce(spec, tree, root)
        assert pts(symmetric) <= pts(full)


# -- variant sets ----------------------------------------------------------------


def reference_variant_set(spec, tree, start, variant, frontier):
    """The compositions ``variant_set`` replaced, on their own tree."""
    cls = VARIANT_POLICY_CLASS[variant]
    if frontier is None:
        vs = set_value_bruteforce(spec, tree, start, cls=cls)
        if variant == "strong-pareto":
            records = list(value_index(spec, tree, start, cls=cls).values())
            return strong_pareto_filter(spec, tree, start, records)
    else:
        scope = _Scope(spec, tree, start, frontier=frontier)
        found = iter_equilibria(spec, tree, start, cls=cls, scope=scope, with_policies=False)
        vs = ValueSet.of(rec.value for rec in found)
    return pareto_filter(vs) if variant == "pareto" else vs


VARIANT_EXAMPLES = ("table1", "table2_left", "table2_right", "path", "psistate", "state")
# Seeded random games: (players, zero kernel entries allowed, Markov data).
VARIANT_RANDOM = list(itertools.product((2, 3), (False, True), (False, True)))


@pytest.mark.parametrize(
    "case",
    [*VARIANT_EXAMPLES, *VARIANT_RANDOM],
    ids=[*VARIANT_EXAMPLES, *(f"random-{n}p-zero{z:d}-markov{m:d}" for n, z, m in VARIANT_RANDOM)],
)
def test_variant_set_equals_the_compositions_it_replaced(case):
    if isinstance(case, str):
        spec = load_example(case)
    else:
        n_players, allow_zero, state_dependent = case
        draws = random.Random(61)
        spec = None
        while spec is None or spec.horizon < 2:  # the first two-period draw
            spec = random_game(
                draws,
                max_periods=2,
                n_players=n_players,
                allow_zero=allow_zero,
                state_dependent=state_dependent,
            )
    rng = random.Random(str(case))
    tree, ref_tree = build_path_tree(spec), build_path_tree(spec)
    root = tree.levels[0][0]
    for variant in VARIANT_POLICY_CLASS:
        want = reference_variant_set(spec, ref_tree, root, variant, None)
        assert variant_set(spec, tree, root, variant) == want
        if variant == "strong-pareto":
            continue
        for stop in (1, 2):
            if stop > spec.horizon:
                continue
            frontier = {
                nid: tuple(F(rng.randint(-4, 4), 2) for _ in range(spec.n_players))
                for nid in StoppingTime.at_time(tree, stop).frontier(tree, root)
            }
            want = reference_variant_set(spec, ref_tree, root, variant, frontier)
            assert variant_set(spec, tree, root, variant, frontier=frontier) == want


def test_variant_set_rejects_an_unknown_variant_and_a_truncated_strong_pareto(path_game):
    spec, tree, root = path_game
    with pytest.raises(GameValidationError, match="^unknown variant 'weak'$"):
        variant_set(spec, tree, root, "weak")
    frontier = {nid: (F(0), F(0)) for nid in tree.node(root).children}
    with pytest.raises(GameValidationError, match="strong Pareto variant has no truncated-game"):
        variant_set(spec, tree, root, "strong-pareto", frontier=frontier)
    assert variant_set(spec, tree, root, "full", frontier=frontier).points == ((F(0), F(0)),)


# -- argument guards ---------------------------------------------------------------


def test_a_negative_eps_is_rejected(table1):
    spec, tree, root = table1
    policy = Policy(actions={root: (0, 1)})
    with pytest.raises(GameValidationError, match="^eps must be nonnegative$"):
        list(iter_equilibria(spec, tree, root, eps=F(-1, 100)))
    with pytest.raises(GameValidationError, match="^eps must be nonnegative$"):
        is_equilibrium(spec, tree, root, policy, eps=F(-1, 100))


def test_an_unknown_policy_class_is_rejected(table1):
    spec, tree, root = table1
    policy = Policy(actions={root: (0, 1)})
    scope = _Scope(spec, tree, root)
    calls = [
        lambda cls: list(iter_equilibria(spec, tree, root, cls=cls)),
        lambda cls: list(iter_equilibria(spec, tree, root, cls=cls, scope=scope)),
        lambda cls: best_response(spec, tree, root, policy, 0, cls=cls),
        lambda cls: is_equilibrium(spec, tree, root, policy, cls=cls),
    ]
    for call in calls:
        with pytest.raises(GameValidationError, match="^unknown policy class 'open_loop'$"):
            call("open_loop")


def test_an_asymmetric_policy_is_not_in_the_symmetric_class(table1):
    spec, tree, root = table1
    policy = Policy(actions={root: (0, 1)}, policy_class=SYMMETRIC_CLASS)
    with pytest.raises(GameValidationError, match="^policy is not symmetric$"):
        is_equilibrium(spec, tree, root, policy, cls=SYMMETRIC_CLASS)


def test_the_cap_bounds_the_class_on_a_given_scope(table1):
    spec, tree, root = table1
    scope = _Scope(spec, tree, root)
    needs = "^joint policy enumeration: needs 4 > cap 1$"
    with pytest.raises(EnumerationCapExceeded, match=needs):
        list(iter_equilibria(spec, tree, root, scope=scope, cap=1))


def test_a_class_too_large_to_write_out_is_reported_as_a_power(monkeypatch):
    """4 joint actions at each of the (3^30 - 1) / 2 decision nodes of a
    horizon-30 Markov spec. The size is checked before any scope is built;
    building one would list every decision node, so it fails here at once."""
    spec = load_game(Path(__file__).parent / "data" / "markov_h30.json")
    tree = build_path_tree(spec)

    def no_scope(*args, **kwargs):
        raise AssertionError("a scope was built before the class size was checked")

    monkeypatch.setattr(equilibria, "_Scope", no_scope)
    power = f"4\\*\\*{(3**30 - 1) // 2}"
    with pytest.raises(EnumerationCapExceeded, match=f"^joint policy enumeration: needs {power} "):
        set_value_bruteforce(spec, tree, tree.levels[0][0])


def test_a_one_step_game_needs_a_decision_node_and_every_child_value(table1):
    spec, tree, root = table1
    leaf = tree.node(root).children[0]
    with pytest.raises(GameValidationError, match="^one-step game needs a non-terminal node$"):
        one_step_equilibria(spec, tree, leaf, {})
    with pytest.raises(GameValidationError, match="^continuation value missing for a child"):
        one_step_equilibria(spec, tree, root, {leaf: (F(0), F(0))})
