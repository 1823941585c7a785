"""Nash / epsilon-Nash set values of discrete games.

Two independent routes compute the same object:

* ``set_value_bruteforce`` enumerates every joint policy of the requested
  class below a cap and keeps the cost vectors of those that survive the
  equilibrium check (per-player best responses, never deviation-policy
  enumeration in the path class).
* ``set_value_dpp`` runs the one-step backward recursion: terminal sets are
  the terminal cost vectors, and each earlier set is the union, over all
  selections of one continuation value per child and all one-step Nash
  profiles of the induced static game, of the resulting values.

Their exact agreement on strictly positive kernels is the central invariant
of the package and is what the verification layer stresses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationCapExceeded, GameValidationError
from .model import (
    PATH_CLASS,
    STATE_CLASS,
    SYMMETRIC_CLASS,
    ZERO,
    GameSpec,
    JointAction,
    PathTree,
    Policy,
    Vector,
    subgame_key,
)

DEFAULT_POLICY_CAP = 10_000_000
DEFAULT_SELECTION_CAP = 100_000


@dataclass(frozen=True)
class ValueSet:
    """Finite set of payoff vectors, optionally inflated by open eps-balls.

    Membership is exact when ``epsilon`` is zero and strict (|y - p| < eps,
    Euclidean) otherwise. Points are kept sorted and duplicate-free so equal
    sets compare and serialize identically.
    """

    points: tuple[Vector, ...]
    epsilon: Fraction = ZERO

    @classmethod
    def of(cls, points, epsilon: Fraction = ZERO) -> ValueSet:
        return cls(points=tuple(sorted(set(map(tuple, points)))), epsilon=epsilon)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def is_empty(self) -> bool:
        return not self.points

    def contains(self, y) -> bool:
        y = tuple(y)
        if self.epsilon == 0:
            return y in self.points
        eps_sq = self.epsilon * self.epsilon
        return any(
            sum((yi - pi) * (yi - pi) for yi, pi in zip(y, p)) < eps_sq for p in self.points
        )

    def issubset(self, other: ValueSet) -> bool:
        return set(self.points) <= set(other.points)

    def difference(self, other: ValueSet) -> tuple[Vector, ...]:
        return tuple(sorted(set(self.points) - set(other.points)))


@dataclass(frozen=True)
class EquilibriumRecord:
    """An equilibrium policy with its value and per-player deviation slack.

    ``slack[i]`` is J_i(policy) minus player i's best-response value; the
    policy is an eps-equilibrium exactly when every slack is at most eps.
    """

    policy: Policy
    value: Vector
    slack: Vector


# -- evaluation scope --------------------------------------------------------


class _Scope:
    """Cost evaluation on the subtree of a start node, optionally truncated.

    ``frontier`` maps stopped node ids to their terminal vectors; when given,
    paths end there instead of at the leaves, which keeps truncated-game
    enumeration restricted to the decision nodes that still matter.
    """

    def __init__(
        self,
        spec: GameSpec,
        tree: PathTree,
        start: int,
        frontier: dict[int, Vector] | None = None,
    ):
        self.spec = spec
        self.tree = tree
        self.start = start
        self.frontier = frontier
        self.decision_nodes: list[int] = []
        stack = [start]
        while stack:
            nid = stack.pop(0)
            if frontier is not None and nid in frontier:
                continue
            if tree.node(nid).t == tree.horizon:
                continue
            self.decision_nodes.append(nid)
            stack.extend(tree.node(nid).children)
        self.node_index = {nid: k for k, nid in enumerate(self.decision_nodes)}

    def _terminal(self, nid: int) -> Vector | None:
        if self.frontier is not None and nid in self.frontier:
            return self.frontier[nid]
        node = self.tree.node(nid)
        if node.t == self.tree.horizon:
            return self.spec.terminal_vector(node.prefix)
        return None

    def value(self, action_at) -> Vector:
        memo: dict[int, Vector] = {}

        def walk(nid: int) -> Vector:
            hit = memo.get(nid)
            if hit is not None:
                return hit
            term = self._terminal(nid)
            if term is not None:
                memo[nid] = term
                return term
            node = self.tree.node(nid)
            joint = action_at(nid)
            vec = self.spec.transition_vector(node.t, node.prefix, joint)
            total = list(self.spec.running_cost_vector(node.t, node.prefix, joint))
            for child, p in zip(node.children, vec):
                if p != 0:
                    sub = walk(child)
                    for i in range(len(total)):
                        total[i] += p * sub[i]
            out = tuple(total)
            memo[nid] = out
            return out

        return walk(self.start)


# -- policy-class enumeration units ------------------------------------------


@dataclass(frozen=True)
class _Units:
    """How a policy class is enumerated over a scope.

    ``units`` lists independent decision units (nodes for the path class,
    (time, state) groups for the state class); ``members`` gives the node ids
    each unit controls; ``options`` are the joint actions a unit may take.
    """

    kind: str
    units: tuple
    members: tuple[tuple[int, ...], ...]
    options: tuple[JointAction, ...]

    @property
    def count(self) -> int:
        return len(self.options) ** len(self.units)

    def policy(self, assignment: tuple[int, ...], tag: str) -> Policy:
        actions: dict[int, JointAction] = {}
        for idx, opt in enumerate(assignment):
            joint = self.options[opt]
            for nid in self.members[idx]:
                actions[nid] = joint
        return Policy(actions=actions, policy_class=tag)


def _units_for(spec: GameSpec, tree: PathTree, scope: _Scope, cls: str) -> _Units:
    nodes = scope.decision_nodes
    if cls == PATH_CLASS:
        return _Units(
            kind=cls,
            units=tuple(nodes),
            members=tuple((nid,) for nid in nodes),
            options=tuple(spec.joint_actions),
        )
    if cls == STATE_CLASS:
        groups = tree.group_by_time_state(nodes)
        return _Units(
            kind=cls,
            units=tuple(groups),
            members=tuple(groups.values()),
            options=tuple(spec.joint_actions),
        )
    if cls == SYMMETRIC_CLASS:
        shared = spec.actions[0]
        if any(acts != shared for acts in spec.actions[1:]):
            raise GameValidationError("symmetric class needs identical action sets")
        n = spec.n_players
        return _Units(
            kind=cls,
            units=tuple(nodes),
            members=tuple((nid,) for nid in nodes),
            options=tuple((a,) * n for a in range(len(shared))),
        )
    raise GameValidationError(f"unknown policy class {cls!r}")


def _check_class_membership(tree: PathTree, scope: _Scope, policy: Policy, cls: str) -> None:
    nodes = scope.decision_nodes
    if cls == STATE_CLASS:
        seen: dict[tuple[int, str], JointAction] = {}
        for nid in nodes:
            node = tree.node(nid)
            a = policy.action(nid)
            key = (node.t, node.state)
            if seen.setdefault(key, a) != a:
                raise GameValidationError(
                    f"policy tagged {policy.policy_class!r} is not state dependent at {key}"
                )
    elif cls == SYMMETRIC_CLASS:
        for nid in nodes:
            a = policy.action(nid)
            if len(set(a)) > 1:
                raise GameValidationError("policy is not symmetric")
    elif cls != PATH_CLASS:
        raise GameValidationError(f"unknown policy class {cls!r}")


# -- best responses and the equilibrium test ---------------------------------


def _best_response_state(
    spec: GameSpec, tree: PathTree, scope: _Scope, player: int, opp_action_at
):
    """Best response within state-dependent deviations, by exact enumeration.

    Against non-Markov data a state-constrained deviation could not be found
    by node-wise backward induction, so the minimum runs over all assignments
    of own actions to (time, state) groups.
    """
    members = tuple(tree.group_by_time_state(scope.decision_nodes).values())
    best = None
    best_map: dict[int, int] | None = None
    for combo in itertools.product(range(len(spec.actions[player])), repeat=len(members)):
        own = {}
        for idx, ai in enumerate(combo):
            for nid in members[idx]:
                own[nid] = ai

        def merged(nid: int):
            others = opp_action_at(nid)
            ai = own[nid]
            return others[:player] + (ai,) + others[player + 1 :]

        val = scope.value(merged)[player]
        if best is None or val < best:
            best, best_map = val, dict(own)
    return best, best_map


def best_response(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    policy: Policy,
    player: int,
    *,
    cls: str = PATH_CLASS,
    scope: _Scope | None = None,
):
    """Player's optimal unilateral deviation value and a witness policy.

    Path-class deviations use backward induction with the other players
    frozen; state-class deviations enumerate state-dependent controls. Ties
    break toward the lowest action index.
    """
    scope = scope or _Scope(spec, tree, start)
    opp = policy.action
    if cls in (PATH_CLASS, SYMMETRIC_CLASS):
        value, choice, _ = _best_response_scope(spec, scope, player, opp)
        return value, Policy(
            actions={nid: _merge(opp(nid), player, choice[nid]) for nid in choice},
            policy_class=PATH_CLASS,
        )
    if cls == STATE_CLASS:
        value, own_map = _best_response_state(spec, tree, scope, player, opp)
        actions = {nid: _merge(opp(nid), player, ai) for nid, ai in own_map.items()}
        return value, Policy(actions=actions, policy_class=STATE_CLASS)
    raise GameValidationError(f"unknown policy class {cls!r}")


def _merge(joint: JointAction, player: int, ai: int) -> JointAction:
    return joint[:player] + (ai,) + joint[player + 1 :]


def _best_response_scope(spec: GameSpec, scope: _Scope, player: int, opp_action_at):
    """Backward-induction best response inside a scope."""
    tree = scope.tree
    memo: dict[int, Fraction] = {}
    choice: dict[int, int] = {}
    argmins: dict[int, tuple[int, ...]] = {}

    def walk(nid: int) -> Fraction:
        hit = memo.get(nid)
        if hit is not None:
            return hit
        term = scope._terminal(nid)
        if term is not None:
            memo[nid] = term[player]
            return term[player]
        node = tree.node(nid)
        others = opp_action_at(nid)
        best = None
        ties: list[int] = []
        for ai in range(len(spec.actions[player])):
            cost = spec.running_cost(player, node.t, node.prefix, ai)
            joint = _merge(others, player, ai)
            for child, p in zip(
                node.children, spec.transition_vector(node.t, node.prefix, joint)
            ):
                if p != 0:
                    cost = cost + p * walk(child)
            if best is None or cost < best:
                best, ties = cost, [ai]
            elif cost == best:
                ties.append(ai)
        memo[nid] = best
        choice[nid] = ties[0]
        argmins[nid] = tuple(ties)
        return best

    value = walk(scope.start)
    return value, choice, argmins


def is_equilibrium(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    policy: Policy,
    eps: Fraction = ZERO,
    cls: str = PATH_CLASS,
    *,
    scope: _Scope | None = None,
) -> tuple[bool, Vector]:
    """Equilibrium test with per-player slack vector.

    Deviations range over the path class for path and symmetric candidates
    and over state-dependent controls for the state class.
    """
    if eps < 0:
        raise GameValidationError("eps must be nonnegative")
    scope = scope or _Scope(spec, tree, start)
    _check_class_membership(tree, scope, policy, cls)
    value = scope.value(policy.action)
    slacks = []
    ok = True
    for i in range(spec.n_players):
        if cls == STATE_CLASS:
            br, _ = _best_response_state(spec, tree, scope, i, policy.action)
        else:
            br, _, _ = _best_response_scope(spec, scope, i, policy.action)
        slack = value[i] - br
        slacks.append(slack)
        if slack > eps:
            ok = False
    return ok, tuple(slacks)


# -- brute-force enumeration --------------------------------------------------


def iter_equilibria(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    eps: Fraction = ZERO,
    cls: str = PATH_CLASS,
    cap: int = DEFAULT_POLICY_CAP,
    scope: _Scope | None = None,
    with_policies: bool = True,
):
    """Yield class equilibria at the start node as records.

    Only actions at prefixes reachable from the start node and times >= t
    are enumerated; actions elsewhere cannot influence the cost there.
    Games where most actions are payoff-irrelevant have combinatorially many
    equilibrium profiles, so this is a generator; pass ``with_policies=False``
    when only the values matter and witness policies need not be built.
    """
    if eps < 0:
        raise GameValidationError("eps must be nonnegative")
    scope = scope or _Scope(spec, tree, start)
    units = _units_for(spec, tree, scope, cls)
    if units.count > cap:
        raise EnumerationCapExceeded("joint policy enumeration", units.count, cap)
    if cls == PATH_CLASS and eps == 0 and spec.n_players == 2 and spec.q_positive:
        yield from _iter_fast_two_player(spec, scope, with_policies)
    else:
        yield from _iter_general(spec, tree, scope, units, eps, cls)


def enumerate_equilibria(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    eps: Fraction = ZERO,
    cls: str = PATH_CLASS,
    cap: int = DEFAULT_POLICY_CAP,
    scope: _Scope | None = None,
) -> list[EquilibriumRecord]:
    """Materialized form of :func:`iter_equilibria`."""
    return list(
        iter_equilibria(spec, tree, start, eps=eps, cls=cls, cap=cap, scope=scope)
    )


def _iter_general(spec, tree, scope, units: _Units, eps, cls):
    n = spec.n_players
    br_memo: list[dict[tuple, Fraction]] = [{} for _ in range(n)]
    n_units = len(units.units)
    for assignment in itertools.product(range(len(units.options)), repeat=n_units):
        policy = units.policy(assignment, cls)
        getter = policy.action
        value = scope.value(getter)
        slacks = []
        ok = True
        for i in range(n):
            opp_key = tuple(
                tuple(aj for j, aj in enumerate(units.options[opt]) if j != i)
                for opt in assignment
            )
            br = br_memo[i].get(opp_key)
            if br is None:
                if cls == STATE_CLASS:
                    br, _ = _best_response_state(spec, tree, scope, i, getter)
                else:
                    br, _, _ = _best_response_scope(spec, scope, i, getter)
                br_memo[i][opp_key] = br
            slack = value[i] - br
            slacks.append(slack)
            if slack > eps:
                ok = False
                break
        if ok:
            yield EquilibriumRecord(policy=policy, value=value, slack=tuple(slacks))


def _iter_fast_two_player(spec, scope, with_policies: bool):
    """Exact Nash enumeration for two players under a strictly positive kernel.

    With q > 0 every node stays reachable under every profile, so a policy is
    a best response exactly when it picks an argmin action at every node, and
    its cost then equals the best-response root value. Nash pairs are
    assembled from per-node argmin sets; no per-profile cost evaluation runs.
    """
    nodes = scope.decision_nodes
    idx = scope.node_index
    m = [len(a) for a in spec.actions]
    memo_p2: dict[tuple[int, ...], tuple[Fraction, dict[int, tuple[int, ...]]]] = {}

    def getter_from(assign: tuple[int, ...], owner: int):
        def get(nid: int) -> JointAction:
            a = assign[idx[nid]]
            return (a, 0) if owner == 0 else (0, a)

        return get

    for opp2 in itertools.product(range(m[1]), repeat=len(nodes)):
        v1, _, argmins1 = _best_response_scope(spec, scope, 0, getter_from(opp2, 1))
        pools = [argmins1[nid] for nid in nodes]
        for own1 in itertools.product(*pools):
            hit = memo_p2.get(own1)
            if hit is None:
                v2, _, sets2 = _best_response_scope(spec, scope, 1, getter_from(own1, 0))
                hit = (v2, sets2)
                memo_p2[own1] = hit
            v2, sets2 = hit
            if all(opp2[k] in sets2[nid] for k, nid in enumerate(nodes)):
                if with_policies:
                    actions = {nid: (own1[idx[nid]], opp2[idx[nid]]) for nid in nodes}
                    policy = Policy(actions=actions, policy_class=PATH_CLASS)
                else:
                    policy = _NO_POLICY
                yield EquilibriumRecord(policy=policy, value=(v1, v2), slack=(ZERO, ZERO))


_NO_POLICY = Policy(actions={}, policy_class=PATH_CLASS)


def set_value_bruteforce(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    eps: Fraction = ZERO,
    cls: str = PATH_CLASS,
    cap: int = DEFAULT_POLICY_CAP,
) -> ValueSet:
    """Set of equilibrium cost vectors by policy enumeration."""
    values = {
        rec.value
        for rec in iter_equilibria(
            spec, tree, start, eps=eps, cls=cls, cap=cap, with_policies=False
        )
    }
    return ValueSet.of(values, epsilon=eps)


# -- one-step games and the backward recursion --------------------------------


def one_step_equilibria(
    spec: GameSpec,
    tree: PathTree,
    nid: int,
    continuation: dict[int, Vector],
) -> list[EquilibriumRecord]:
    """Nash profiles of the static game one transition deep.

    Player i's cost of a joint action is the running cost of the own action
    plus the kernel-weighted continuation value over children.
    """
    node = tree.node(nid)
    if node.t >= tree.horizon:
        raise GameValidationError("one-step game needs a non-terminal node")
    for child in node.children:
        if child not in continuation:
            raise GameValidationError("continuation value missing for a child prefix")
    n = spec.n_players

    def payoff(joint: JointAction) -> Vector:
        vec = spec.transition_vector(node.t, node.prefix, joint)
        out = list(spec.running_cost_vector(node.t, node.prefix, joint))
        for child, p in zip(node.children, vec):
            if p != 0:
                cont = continuation[child]
                for i in range(n):
                    out[i] += p * cont[i]
        return tuple(out)

    table = {joint: payoff(joint) for joint in spec.joint_actions}
    records = []
    for joint, value in table.items():
        ok = True
        slacks = []
        for i in range(n):
            br = min(
                table[_merge(joint, i, ai)][i] for ai in range(len(spec.actions[i]))
            )
            slack = value[i] - br
            slacks.append(slack)
            if slack > 0:
                ok = False
                break
        if ok:
            policy = Policy(actions={nid: joint}, policy_class=PATH_CLASS)
            records.append(EquilibriumRecord(policy=policy, value=value, slack=tuple(slacks)))
    return records


def set_value_dpp(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    selection_cap: int = DEFAULT_SELECTION_CAP,
) -> ValueSet:
    """Set value by the one-step backward recursion.

    Requires a strictly positive kernel; with zeros the recursion only yields
    a subset and the caller should go through the verification layer instead.
    Sets are memoized by :func:`subgame_key`, so Markov specs are solved once
    per (time, state) rather than once per prefix.
    """
    if not spec.q_positive:
        raise GameValidationError("the backward recursion needs q > 0 everywhere")
    key_of = subgame_key(spec, tree)
    memo: dict = {}

    def sets_at(nid: int) -> tuple[Vector, ...]:
        key = key_of(nid)
        hit = memo.get(key)
        if hit is not None:
            return hit
        node = tree.node(nid)
        if node.t == tree.horizon:
            out = (spec.terminal_vector(node.prefix),)
            memo[key] = out
            return out
        child_sets = [sets_at(child) for child in node.children]
        n_selections = 1
        for cs in child_sets:
            n_selections *= len(cs)
        if n_selections > selection_cap:
            raise EnumerationCapExceeded(
                "continuation selection enumeration", n_selections, selection_cap
            )
        found: set[Vector] = set()
        for chosen in itertools.product(*child_sets):
            continuation = dict(zip(node.children, chosen))
            for rec in one_step_equilibria(spec, tree, nid, continuation):
                found.add(rec.value)
        out = tuple(sorted(found))
        memo[key] = out
        return out

    return ValueSet.of(sets_at(start))


# -- order filters -------------------------------------------------------------


def pareto_filter(vs: ValueSet) -> ValueSet:
    """Minimal elements: drop y when some other point is <= y with a strict coordinate."""
    kept = [
        y
        for y in vs.points
        if not any(x != y and all(xi <= yi for xi, yi in zip(x, y)) for x in vs.points)
    ]
    return ValueSet.of(kept, epsilon=vs.epsilon)


def all_policy_values(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    cap: int = DEFAULT_POLICY_CAP,
) -> ValueSet:
    """Cost vectors of every path-class policy (not only equilibria)."""
    scope = _Scope(spec, tree, start)
    units = _units_for(spec, tree, scope, PATH_CLASS)
    if units.count > cap:
        raise EnumerationCapExceeded("policy value enumeration", units.count, cap)
    values = set()
    for assignment in itertools.product(range(len(units.options)), repeat=len(units.units)):
        values.add(scope.value(units.policy(assignment, PATH_CLASS).action))
    return ValueSet.of(values)


def strong_pareto_filter(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    records: list[EquilibriumRecord],
    *,
    cap: int = DEFAULT_POLICY_CAP,
) -> ValueSet:
    """Equilibrium values not dominated by the value of any control at all."""
    achievable = all_policy_values(spec, tree, start, cap=cap)
    kept = []
    for rec in records:
        y = rec.value
        if not any(
            w != y and all(wi <= yi for wi, yi in zip(w, y)) for w in achievable.points
        ):
            kept.append(y)
    return ValueSet.of(kept)
