"""Nash / epsilon-Nash set values of discrete games.

Two independent routes compute the same object:

* ``set_value_bruteforce`` enumerates the equilibria of the requested policy
  class, for classes whose size is below a cap, and keeps their cost vectors.
  Exact path-class equilibria, for any kernel and any number of players, and
  exact state-class equilibria on Markov scopes are assembled from per-node
  argmin sets of backward-induction best responses, pruned to the nodes the
  profile reaches; every other case checks each profile of the class against
  per-player best responses (see ``iter_equilibria``).
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
from typing import NamedTuple

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
    ``decision_nodes`` are listed in breadth-first, hence time, order;
    ``ends`` maps the frontier nodes and leaves where the scope's paths end
    to their terminal vectors.
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
        self.ends: dict[int, Vector] = {}
        stack = [start]
        while stack:
            nid = stack.pop(0)
            if frontier is not None and nid in frontier:
                self.ends[nid] = frontier[nid]
                continue
            node = tree.node(nid)
            if node.t == tree.horizon:
                self.ends[nid] = spec.terminal_vector(node.prefix)
                continue
            self.decision_nodes.append(nid)
            stack.extend(node.children)

    def is_markov(self) -> bool:
        """Whether the subgame below every scope node depends only on its (time, state).

        Holds for Markov data when each (time, state) group of the scope is
        either wholly made of end nodes sharing one terminal vector, or wholly
        made of decision nodes.
        """
        if not self.spec.state_dependent:
            return False
        if self.frontier is None:
            return True
        nodes = self.tree.nodes
        groups: dict[tuple[int, str], Vector] = {}
        for nid, term in self.ends.items():
            if groups.setdefault((nodes[nid].t, nodes[nid].state), term) != term:
                return False
        return not any((nodes[nid].t, nodes[nid].state) in groups for nid in self.decision_nodes)

    def value(self, action_at) -> Vector:
        memo: dict[int, Vector] = {}

        def walk(nid: int) -> Vector:
            hit = memo.get(nid)
            if hit is not None:
                return hit
            term = self.ends.get(nid)
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
            options=spec.joint_actions,
        )
    if cls == STATE_CLASS:
        groups = tree.group_by_time_state(nodes)
        return _Units(
            kind=cls,
            units=tuple(groups),
            members=tuple(groups.values()),
            options=spec.joint_actions,
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
        term = scope.ends.get(nid)
        if term is not None:
            memo[nid] = term[player]
            return term[player]
        node = tree.node(nid)
        others = opp_action_at(nid)
        best = None
        ties: list[int] = []
        for ai in range(len(spec.actions[player])):
            run = spec.running_cost(player, node.t, node.prefix, ai)
            joint = _merge(others, player, ai)
            # Exact sum of the running cost and p * value over children, kept
            # as one unreduced numerator/denominator pair: a single Fraction
            # normalization per action instead of two per child.
            num, den = run.numerator, run.denominator
            for child, p in zip(
                node.children, spec.transition_vector(node.t, node.prefix, joint)
            ):
                if p:
                    sub = walk(child)
                    scale = p.denominator * sub.denominator
                    num = num * scale + p.numerator * sub.numerator * den
                    den *= scale
            cost = Fraction(num, den)
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

    Exact equilibria (``eps == 0``) of the path class, and of the state class
    on Markov scopes (:meth:`_Scope.is_markov`), come from argmin pools
    (:func:`_iter_argmin`): by the performance-difference identity a policy
    is a best response exactly when it plays an argmin of its backward
    induction at every node reached with positive probability. On a Markov
    scope a state-class opponent leaves a state-class backward-induction
    best response, so state-class and path-class deviations reach the same
    value. Every other call (``eps > 0``, the symmetric class, the state
    class elsewhere) checks each profile of the class (:func:`_iter_general`).
    The cap bounds the size of the class in every case.
    """
    if eps < 0:
        raise GameValidationError("eps must be nonnegative")
    scope = scope or _Scope(spec, tree, start)
    units = _units_for(spec, tree, scope, cls)
    if units.count > cap:
        raise EnumerationCapExceeded("joint policy enumeration", units.count, cap)
    if eps == 0 and (cls == PATH_CLASS or (cls == STATE_CLASS and scope.is_markov())):
        yield from _iter_argmin(spec, scope, units, with_policies)
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


def _pool(argmins: dict[int, tuple[int, ...]], nodes) -> tuple[int, ...]:
    """Actions that are an argmin at every one of ``nodes``, in index order."""
    pool = argmins[nodes[0]]
    for nid in nodes[1:]:
        pool = tuple(a for a in pool if a in argmins[nid])
    return pool


def _iter_argmin(spec: GameSpec, scope: _Scope, units: _Units, with_policies: bool):
    """Exact Nash enumeration from per-unit argmin pools, for any kernel.

    A unit is a node (path class) or a (time, state) group (state class on a
    Markov scope). For every assignment of the other players' actions to the
    units, one backward-induction walk gives player 0's argmin sets; player 0
    then ranges over the assignments that play, at each unit, an action that
    is an argmin at all of its reached members, and any action at a unit with
    none (:func:`_reached_argmin_profiles`). Each remaining player j passes
    when it plays an argmin at every reached node of one walk against the
    others, memoized on their actions. An equilibrium's value is the vector
    of these walks' root values, so no per-profile cost walk runs.
    """
    n = spec.n_players
    members = units.members
    n_units = len(members)
    flat = list(itertools.chain.from_iterable(members))
    spread = None
    if len(flat) != n_units:  # some unit has several member nodes
        spread = [k for k, mem in enumerate(members) for _ in mem]
    memo: list[dict] = [{} for _ in range(n)]

    def joint_map(cols: tuple[tuple[int, ...], ...]) -> dict[int, JointAction]:
        """Node -> joint action, from per-player columns of unit actions."""
        joints = zip(*cols)
        if spread is not None:
            joints = list(joints)
            joints = [joints[k] for k in spread]
        return dict(zip(flat, joints))

    def walk(player: int, cols: tuple[tuple[int, ...], ...]):
        """Root value and per-node argmin sets of a player against the others."""
        value, _, argmins = _best_response_scope(spec, scope, player, joint_map(cols).__getitem__)
        return value, argmins

    idle = (0,) * n_units
    slack = (ZERO,) * n
    reach = _Reach.of(spec, scope, members)
    spaces = [
        itertools.product(range(len(spec.actions[j])), repeat=n_units) for j in range(1, n)
    ]
    for others in itertools.product(*spaces):
        v0, argmins0 = walk(0, (idle,) + others)
        for own, hits in _reached_argmin_profiles(spec, reach, others, argmins0):
            cols = (own,) + others
            values = [v0]
            for j in range(1, n):
                key = own if n == 2 else cols[:j] + cols[j + 1 :]
                entry = memo[j].get(key)
                if entry is None:
                    entry = memo[j][key] = walk(j, cols)
                vj, argmins = entry
                if not all(a in argmins[nid] for a, hit in zip(cols[j], hits) for nid in hit):
                    break
                values.append(vj)
            else:
                if with_policies:
                    policy = Policy(actions=joint_map(cols), policy_class=units.kind)
                else:
                    policy = _NO_POLICY
                yield EquilibriumRecord(policy=policy, value=tuple(values), slack=slack)


class _Reach(NamedTuple):
    """Which nodes of a scope's units a profile reaches with positive probability.

    A node is *sure* when every profile reaches it: the start node, and any
    node whose parent is sure and whose kernel entry is positive under every
    joint action. The other members are *contingent*: reached when the parent
    is and the kernel entry under the parent's joint action is nonzero.
    ``sure[k]`` are unit k's sure members; ``links[k]`` hold ``(node, parent,
    parent's unit, index among the parent's children)`` for its contingent
    members. ``cuts`` split the units, which are in time order, into segments
    such that every contingent member's parent lies in an earlier segment,
    so a segment's reach is fixed once the segments before it are assigned;
    the last entry is the unit count. With a strictly positive kernel every
    node is sure and the units form one segment.
    """

    sure: tuple[tuple[int, ...], ...]
    links: tuple[tuple[tuple, ...], ...]
    cuts: tuple[int, ...]

    @classmethod
    def of(cls, spec: GameSpec, scope: _Scope, members) -> "_Reach":
        if spec.q_positive:  # what the loop below finds, without the kernel scan
            return cls(tuple(members), ((),) * len(members), (0, len(members)))
        tree = scope.tree
        unit_of = {nid: k for k, mem in enumerate(members) for nid in mem}
        sure_nodes = {scope.start}
        sure, links, cuts = [], [], [0]
        for k, mem in enumerate(members):
            ours, theirs = [], []
            for nid in mem:
                if nid in sure_nodes:
                    ours.append(nid)
                    continue
                parent = tree.node(tree.node(nid).parent)
                idx = parent.children.index(nid)
                if parent.id in sure_nodes and all(
                    spec.transition_vector(parent.t, parent.prefix, joint)[idx] != 0
                    for joint in spec.joint_actions
                ):
                    sure_nodes.add(nid)
                    ours.append(nid)
                else:
                    theirs.append((nid, parent, unit_of[parent.id], idx))
            if any(pk >= cuts[-1] for _, _, pk, _ in theirs):
                cuts.append(k)
            sure.append(tuple(ours))
            links.append(tuple(theirs))
        cuts.append(len(members))
        return cls(tuple(sure), tuple(links), tuple(cuts))


def _reached_argmin_profiles(spec: GameSpec, reach: _Reach, others, argmins0):
    """Player 0's unit assignments that play an argmin wherever they reach.

    Depth first over the segments of ``reach``, and over the product of the
    units' pools within one segment, so assignments come out in lexicographic
    order of the pools. Entering a segment fixes which members of its units
    are reached; a unit's pool is the actions that are an argmin at each of
    its reached members, or every action when none is reached. Each
    assignment is yielded with ``hits``, the reached members of every unit
    under it.
    """
    sure, links, cuts = reach
    own = [0] * len(sure)
    hits = list(sure)
    reached: dict[int, bool] = {}  # contingent nodes entered so far; sure ones are absent
    last = len(cuts) - 2

    def segment(seg: int):
        pools = []
        for k in range(cuts[seg], cuts[seg + 1]):
            hit = sure[k]
            if links[k]:
                hit = list(hit)
                for nid, parent, pk, idx in links[k]:
                    joint = (own[pk],) + tuple([col[pk] for col in others])
                    reached[nid] = flag = (
                        reached.get(parent.id, True)
                        and spec.transition_vector(parent.t, parent.prefix, joint)[idx] != 0
                    )
                    if flag:
                        hit.append(nid)
                hits[k] = hit
            pools.append(_pool(argmins0, hit) if hit else range(len(spec.actions[0])))
        combos = itertools.product(*pools)
        if seg == last:
            head = tuple(own[: cuts[seg]])
            return zip(map(head.__add__, combos), itertools.repeat(tuple(hits)))
        return descend(seg, combos)

    def descend(seg: int, combos):
        for combo in combos:
            own[cuts[seg] : cuts[seg + 1]] = combo
            yield from segment(seg + 1)

    return segment(0)


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
    slack = (ZERO,) * n
    return [
        EquilibriumRecord(
            policy=Policy(actions={nid: joint}, policy_class=PATH_CLASS),
            value=table[joint],
            slack=slack,
        )
        for joint in nash_profiles(spec, table)
    ]


def nash_profiles(spec: GameSpec, table: dict[JointAction, Vector]) -> list[JointAction]:
    """Pure Nash profiles of a static cost game, in the order of ``table``.

    ``table`` maps every joint action to its cost vector. A profile is Nash
    when no player lowers its own cost by changing its own action alone.
    """
    return [
        joint
        for joint, value in table.items()
        if all(
            table[_merge(joint, i, ai)][i] >= value[i]
            for i in range(spec.n_players)
            for ai in range(len(spec.actions[i]))
        )
    ]


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

    try:
        return ValueSet.of(sets_at(start))
    finally:
        del sets_at  # the closure refers to itself; break the cycle so the memo dies here


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
