"""The exact integer core against the Fraction walks it replaced.

``reference_best_response`` and ``reference_value`` are the backward
inductions the package ran in ``Fraction`` before its walks moved onto the
compiled integer tables; they stay here as the oracle. ``clone_action`` adds
a copy of an action to a ``random_game`` spec, so argmin sets and argmin
pools tie on purpose; ``indifferent`` zeroes one player's costs, so every
action ties for it and the others' values spread into multi-point sets.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from gameval import GameSpec, Policy, best_response, build_path_tree, cost_J, iter_equilibria
from gameval.equilibria import _iter_general, _Responder, _Scope, _units_for
from gameval.model import PATH_CLASS, STATE_CLASS, StoppingTime

from specgen import random_game


def clone_action(spec: GameSpec, player: int, action: int = 0) -> GameSpec:
    """The spec with one more action for ``player`` that copies ``action``: the
    same running cost, and the same kernel row against every joint action of
    the others."""
    clone = len(spec.actions[player])
    actions = [list(acts) for acts in spec.actions]
    actions[player].append(f"{actions[player][action]}'")
    transitions = dict(spec.transitions)
    for (t, key, joint), vec in spec.transitions.items():
        if joint[player] == action:
            transitions[(t, key, joint[:player] + (clone,) + joint[player + 1 :])] = vec
    running = [dict(table) for table in spec.running_costs]
    for (t, key, a), cost in spec.running_costs[player].items():
        if a == action:
            running[player][(t, key, clone)] = cost
    return GameSpec(
        horizon=spec.horizon,
        states=spec.states,
        actions=actions,
        transitions=transitions,
        running_costs=running,
        terminal_costs=spec.terminal_costs,
        state_dependent=spec.state_dependent,
    )


def indifferent(spec: GameSpec, player: int) -> GameSpec:
    """The spec with every running and terminal cost of ``player`` set to zero."""
    running, terminal = list(spec.running_costs), list(spec.terminal_costs)
    for tables in (running, terminal):
        tables[player] = {key: F(0) for key in tables[player]}
    return GameSpec(
        horizon=spec.horizon,
        states=spec.states,
        actions=spec.actions,
        transitions=spec.transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=spec.state_dependent,
    )


def tied_game(rng, *, zero_first: bool, **kwargs) -> GameSpec:
    spec = random_game(rng, **kwargs)
    if zero_first:
        spec = indifferent(spec, 0)
    for player in range(spec.n_players):
        spec = clone_action(spec, player, rng.randrange(len(spec.actions[player])))
    return spec


def reference_best_response(spec, tree, start, player, opp_action_at, frontier=None):
    """Fraction backward induction: per reached node, value and argmin set."""
    values: dict[int, F] = {}
    argmins: dict[int, tuple[int, ...]] = {}

    def walk(nid):
        if nid in values:
            return values[nid]
        node = tree.node(nid)
        if frontier is not None and nid in frontier:
            return frontier[nid][player]
        if node.t == tree.horizon:
            return spec.terminal_vector(node.prefix)[player]
        others = opp_action_at(nid)
        costs = []
        for ai in range(len(spec.actions[player])):
            joint = others[:player] + (ai,) + others[player + 1 :]
            cost = spec.running_cost(player, node.t, node.prefix, ai)
            for child, p in zip(node.children, spec.transition_vector(node.t, node.prefix, joint)):
                if p:
                    cost += p * walk(child)
            costs.append(cost)
        values[nid] = best = min(costs)
        argmins[nid] = tuple(a for a, c in enumerate(costs) if c == best)
        return best

    walk(start)
    return values, argmins


def reference_value(spec, tree, start, action_at, frontier=None):
    """Fraction cost vector of a joint policy at the start node."""

    def walk(nid):
        node = tree.node(nid)
        if frontier is not None and nid in frontier:
            return frontier[nid]
        if node.t == tree.horizon:
            return spec.terminal_vector(node.prefix)
        joint = action_at(nid)
        total = [spec.running_cost(i, node.t, node.prefix, a) for i, a in enumerate(joint)]
        for child, p in zip(node.children, spec.transition_vector(node.t, node.prefix, joint)):
            if p:
                total = [x + p * v for x, v in zip(total, walk(child))]
        return tuple(total)

    return walk(start)


def assert_core_matches_reference(scope, rng):
    """Random opponent policies: every player's integer walk equals the Fraction one."""
    spec, tree, start = scope.spec, scope.tree, scope.start
    for _ in range(3):
        policy = Policy(
            actions={
                nid: tuple(rng.randrange(len(acts)) for acts in spec.actions)
                for nid in scope.decision_nodes
            }
        )
        want = reference_value(spec, tree, start, policy.action, scope.frontier)
        assert scope.value(policy.action) == want
        for player in range(spec.n_players):
            values, argmins = reference_best_response(
                spec, tree, start, player, policy.action, scope.frontier
            )
            val, ties = scope.respond(player, policy.action)
            reached = {scope.nodes[u]: u for u, t in enumerate(ties) if t is not None}
            assert set(reached) == set(argmins)
            for nid, u in reached.items():
                assert tuple(ties[u]) == argmins[nid]
                assert F(val[u], scope.tables.scale[tree.node(nid).t]) == values[nid]
            value, witness = best_response(spec, tree, start, policy, player, scope=scope)
            assert value == values.get(start, value)
            assert all(witness.action(nid)[player] == argmins[nid][0] for nid in argmins)


def record_set(records):
    return {(tuple(sorted(rec.policy.actions.items())), rec.value) for rec in records}


def assert_argmin_matches_general(scope, cls=PATH_CLASS):
    """iter_equilibria's records, policies included, equal _iter_general's; returns the values."""
    spec, tree = scope.spec, scope.tree
    records = record_set(iter_equilibria(spec, tree, scope.start, cls=cls, scope=scope))
    units = _units_for(spec, tree, scope, cls)
    assert records == record_set(_iter_general(spec, tree, scope, units, F(0), cls))
    return {value for _, value in records}


def test_tie_heavy_specs_match_the_fraction_reference_and_the_general_enumerator():
    rng = random.Random(83)
    sizes = {PATH_CLASS: [], STATE_CLASS: []}
    for case in range(32):  # every combination of the four switches, twice
        markov, three, zero_first, zeros = (case >> bit & 1 for bit in range(4))
        while True:
            spec = tied_game(
                rng,
                zero_first=zero_first,
                max_periods=2,
                allow_zero=zeros,
                state_dependent=markov,
                n_players=3 if three else 2,
            )
            tree = build_path_tree(spec)
            root = tree.id_of(("r0",))
            scope = _Scope(spec, tree, root)
            count = _units_for(spec, tree, scope, PATH_CLASS).count
            if spec.q_positive != zeros and count <= 27**2:
                break
        assert_core_matches_reference(scope, rng)
        sizes[PATH_CLASS].append(len(assert_argmin_matches_general(scope)))
        if markov:
            assert scope.is_markov()
            sizes[STATE_CLASS].append(len(assert_argmin_matches_general(scope, STATE_CLASS)))
    assert max(sizes[PATH_CLASS]) > 1 and max(sizes[STATE_CLASS]) > 1


def test_reused_walks_equal_fresh_walks_and_the_reference_on_every_assignment():
    """Zero kernels: after any change of the others' actions, a reused walk
    equals a walk built for those actions alone, and the Fraction reference."""
    rng = random.Random(89)
    checked = 0
    while checked < 6:
        markov = checked % 2 == 1
        spec = random_game(rng, max_periods=3, allow_zero=True, state_dependent=markov)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        scope = _Scope(spec, tree, root)
        cls = STATE_CLASS if markov else PATH_CLASS
        units = _units_for(spec, tree, scope, cls)
        if spec.q_positive or not 2 <= len(units.members) <= 4:
            continue
        checked += 1
        local = [tuple(map(scope.local.__getitem__, mem)) for mem in units.members]
        columns = list(itertools.product(range(2), repeat=len(local)))
        profiles = list(itertools.product(columns, repeat=2))
        rng.shuffle(profiles)  # many units change at once, not only the last ones
        for player in range(2):
            walk = _Responder(scope, player, local)
            for cols in profiles:
                walk.update(cols)
                fresh = _Responder(scope, player, local)
                fresh.update(cols)
                assert walk.val == fresh.val and walk.argmins == fresh.argmins
                joint = {
                    nid: (cols[0][k], cols[1][k])
                    for k, mem in enumerate(units.members)
                    for nid in mem
                }
                values, argmins = reference_best_response(
                    spec, tree, root, player, joint.__getitem__
                )
                for nid, ties in argmins.items():
                    u = scope.local[nid]
                    assert tuple(walk.argmins[u]) == ties
                    assert F(walk.val[u], scope.tables.scale[tree.node(nid).t]) == values[nid]


def test_frontier_denominators_the_spec_never_uses():
    """A truncated scope whose frontier values have denominator 97 (the spec's
    are powers of 2 and kernel totals) runs on rescaled tables, exactly."""
    rng = random.Random(97)
    checked = 0
    while checked < 6:
        spec = random_game(rng, max_periods=3, allow_zero=checked % 2 == 1)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        if spec.horizon < 2:
            continue
        checked += 1
        frontier = {
            nid: (F(rng.randint(-90, 90), 97), F(rng.randint(-90, 90), 97))
            for nid in StoppingTime.at_time(tree, 1).frontier(tree, root)
        }
        scope = _Scope(spec, tree, root, frontier=frontier)
        assert scope.tables.scale[1] % 97 == 0
        assert_core_matches_reference(scope, rng)
        assert_argmin_matches_general(scope)


def test_walks_ask_for_actions_only_where_play_can_reach():
    """A policy may omit the nodes it reaches with probability zero: the
    walks never look it up there, as the Fraction walks never did."""
    rng = random.Random(101)
    dropped = 0
    for _ in range(30):
        spec = random_game(rng, max_periods=3, allow_zero=True)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        full = {nid: (rng.randrange(2), rng.randrange(2)) for nid in tree.decision_nodes(root)}
        seen, stack = set(), [root]
        while stack:
            nid = stack.pop()
            node = tree.node(nid)
            if node.t < tree.horizon:
                seen.add(nid)
                vec = spec.transition_vector(node.t, node.prefix, full[nid])
                stack.extend(child for child, p in zip(node.children, vec) if p)
        policy = Policy(actions={nid: full[nid] for nid in seen})
        dropped += len(full) - len(seen)
        want = reference_value(spec, tree, root, Policy(actions=full).action)
        assert cost_J(spec, tree, root, policy) == want
        for player in range(2):
            # The other player's actions are looked up wherever this one can go.
            opp = {
                nid: joint
                for nid, joint in full.items()
                if nid in reference_best_response(spec, tree, root, player, full.__getitem__)[1]
            }
            value, _ = best_response(spec, tree, root, Policy(actions=opp), player)
            values, _ = reference_best_response(spec, tree, root, player, full.__getitem__)
            assert value == values[root]
    assert dropped > 0
