"""Nash / epsilon-Nash set values of discrete games.

Two independent routes compute the same object:

* ``set_value_bruteforce`` enumerates the equilibria of the requested policy
  class, for classes whose size is below a cap, and keeps their cost vectors.
  Exact path-class equilibria, for any kernel and any number of players, and
  exact state-class equilibria on Markov scopes are assembled from per-node
  argmin sets of backward-induction best responses, pruned to the nodes the
  profile reaches; every other case checks each profile of the class against
  per-player best responses (see ``iter_equilibria``). ``value_index``
  memoizes one such enumeration per (tree, start, eps, class), with a
  witness record per value, for every caller that needs it.
* ``set_value_dpp`` runs the one-step backward recursion (:class:`_Recursion`):
  terminal sets are the terminal cost vectors, and each earlier set is the
  union, over all selections of one continuation value per child and all
  one-step Nash profiles of the induced static game, of the resulting values.

The recursion carries off-path punishment values, which make it exact for
every kernel. The two routes' exact agreement on every kernel is the central
invariant of the package and is what the verification layer stresses;
``dpp.verify_dpp`` reads the recursion for the full variant, and strong
Pareto reads its minimal achievable set.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, and_, ge, le, mul
from types import MappingProxyType
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
    _Scope,
    _scaled,
    induct,
    tables_of,
)

DEFAULT_POLICY_CAP = 10_000_000
DEFAULT_SELECTION_CAP = 100_000

# Each set-value variant's policy class; :func:`variant_set` applies its filter.
VARIANT_POLICY_CLASS = {
    "full": PATH_CLASS,
    "state": STATE_CLASS,
    "symmetric": SYMMETRIC_CLASS,
    "pareto": PATH_CLASS,
    "strong-pareto": PATH_CLASS,
}


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


@dataclass(frozen=True)
class EquilibriumRecord:
    """An equilibrium policy with its value and per-player deviation slack.

    ``slack[i]`` is J_i(policy) minus player i's best-response value; the
    policy is an eps-equilibrium exactly when every slack is at most eps.
    """

    policy: Policy
    value: Vector
    slack: Vector


# -- policy-class enumeration units ------------------------------------------


@dataclass(frozen=True)
class _Units:
    """How a policy class is enumerated over a scope.

    ``members`` lists the node ids of each independent decision unit (a node
    for the path and symmetric classes, a (time, state) group for the state
    class); ``options`` are the joint actions a unit may take.
    """

    kind: str
    members: tuple[tuple[int, ...], ...]
    options: tuple[JointAction, ...]

    @property
    def count(self) -> int:
        return len(self.options) ** len(self.members)

    def policy(self, joints, tag: str) -> Policy:
        """The policy that plays ``joints[k]`` at every member of unit k."""
        actions = {nid: joint for mem, joint in zip(self.members, joints) for nid in mem}
        return Policy(actions=actions, policy_class=tag)


def _options(spec: GameSpec, cls: str) -> tuple[JointAction, ...]:
    """The joint actions a unit of the class may take."""
    if cls == SYMMETRIC_CLASS:
        shared = spec.actions[0]
        if any(acts != shared for acts in spec.actions[1:]):
            raise GameValidationError("symmetric class needs identical action sets")
        return tuple((a,) * spec.n_players for a in range(len(shared)))
    if cls not in (PATH_CLASS, STATE_CLASS):
        raise GameValidationError(f"unknown policy class {cls!r}")
    return spec.joint_actions


def _units_for(spec: GameSpec, tree: PathTree, scope: _Scope, cls: str) -> _Units:
    options, nodes = _options(spec, cls), scope.decision_nodes
    if cls == STATE_CLASS:
        return _Units(cls, tuple(tree.group_by_time_state(nodes).values()), options)
    return _Units(cls, tuple((nid,) for nid in nodes), options)


def _check_class_size(spec: GameSpec, tree: PathTree, start: int, cls: str, cap: int) -> None:
    """Raise when the class below ``start`` holds more than ``cap`` policies.

    The size comes from the level widths W_s, with no scope: below a time-t
    node there are Σ_s W_s decision nodes and 1 + Σ_{s>t} |S_s| (time,
    state) groups. A class too large to write out is reported as a power.
    """
    t = tree.nodes.locate(start)[0]
    widths = list(map(len, tree.states[t + 1 : tree.horizon]))
    nodes = itertools.accumulate(widths, mul, initial=1)  # decision nodes per level
    units = sum([1, *widths] if cls == STATE_CLASS else nodes) if t < tree.horizon else 0
    options = len(_options(spec, cls))
    if options > 1 and units > cap.bit_length() + 4096:
        raise EnumerationCapExceeded("joint policy enumeration", f"{options}**{units}", cap)
    count = options**units
    if count > cap:
        raise EnumerationCapExceeded("joint policy enumeration", count, cap)


def _check_class_membership(tree: PathTree, scope: _Scope, policy: Policy, cls: str) -> None:
    if cls == STATE_CLASS:
        for key, members in tree.group_by_time_state(scope.decision_nodes).items():
            if len({policy.action(nid) for nid in members}) > 1:
                raise GameValidationError(
                    f"policy tagged {policy.policy_class!r} is not state dependent at {key}"
                )
    elif cls == SYMMETRIC_CLASS:
        if any(len(set(policy.action(nid))) > 1 for nid in scope.decision_nodes):
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
    best = best_map = None
    for combo in itertools.product(range(len(spec.actions[player])), repeat=len(members)):
        own = {nid: ai for ai, mem in zip(combo, members) for nid in mem}
        val = scope.costs(lambda nid: _merge(opp_action_at(nid), player, own[nid]), player)[0]
        if best is None or val < best:
            best, best_map = val, own
    return scope.fraction(best), best_map


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

    Path-class (and symmetric-class) deviations use backward induction with
    the other players frozen; state-class deviations enumerate
    state-dependent controls. Ties break toward the lowest action index.
    """
    scope = scope or _Scope(spec, tree, start)
    opp = policy.action
    if cls == STATE_CLASS:
        value, own = _best_response_state(spec, tree, scope, player, opp)
    elif cls in (PATH_CLASS, SYMMETRIC_CLASS):
        val, argmins = scope.respond(player, opp)
        value = scope.fraction(val[0])
        own = {scope.nodes[u]: ties[0] for u, ties in enumerate(argmins) if ties}
    else:
        raise GameValidationError(f"unknown policy class {cls!r}")
    actions = {nid: _merge(opp(nid), player, ai) for nid, ai in own.items()}
    tag = STATE_CLASS if cls == STATE_CLASS else PATH_CLASS
    return value, Policy(actions=actions, policy_class=tag)


def _merge(joint: JointAction, player: int, ai: int) -> JointAction:
    return joint[:player] + (ai,) + joint[player + 1 :]


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
    slacks = tuple(
        value[i] - best_response(spec, tree, start, policy, i, cls=cls, scope=scope)[0]
        for i in range(spec.n_players)
    )
    return all(slack <= eps for slack in slacks), slacks


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
    when only the values matter: then only the first record of each value is
    sure to carry its witness policy, later ones may carry an empty one, and
    the argmin search below may skip tied repeats altogether, as it plays
    one action per payoff-equivalence class. Every value still comes, in the
    same order, with the same first record.

    Exact equilibria (``eps == 0``) of the path class, and of the state class
    on Markov scopes (:meth:`_Scope.is_markov`), come from argmin pools
    (:func:`_iter_argmin`): by the performance-difference identity a policy
    is a best response exactly when it plays an argmin of its backward
    induction at every node reached with positive probability. On a Markov
    scope a state-class opponent leaves a state-class backward-induction
    best response, so state-class and path-class deviations reach the same
    value. Before it walks, that search drops the other players' actions
    that no equilibrium plays, from one-step Nash tests at the units whose
    continuation is fixed (:func:`_one_step_allowed`); the records and their
    order do not change. When those tests reach the start, every other unit
    is forced and no walk runs: the records are the start's one-step Nash
    joints, in the same order. Every other call (``eps > 0``, the symmetric
    class, the state class elsewhere) checks each profile of the class
    (:func:`_iter_general`). The cap bounds the size of the class in every
    case; without a given scope it is checked before the scope is built.
    """
    if eps < 0:
        raise GameValidationError("eps must be nonnegative")
    if scope is None:
        _check_class_size(spec, tree, start, cls, cap)
        scope = _Scope(spec, tree, start)
    units = _units_for(spec, tree, scope, cls)
    if units.count > cap:
        raise EnumerationCapExceeded("joint policy enumeration", units.count, cap)
    if eps == 0 and (cls == PATH_CLASS or (cls == STATE_CLASS and scope.is_markov())):
        yield from _iter_argmin(spec, scope, units, with_policies)
    else:
        yield from _iter_general(spec, tree, scope, units, eps, cls)


def _iter_general(spec, tree, scope, units: _Units, eps, cls):
    n = spec.n_players
    br_memo: list[dict[tuple, Fraction]] = [{} for _ in range(n)]
    for assignment in itertools.product(range(len(units.options)), repeat=len(units.members)):
        policy = units.policy(map(units.options.__getitem__, assignment), cls)
        getter = policy.action
        value = scope.value(getter)
        slacks = []
        ok = True
        for i in range(n):
            opp_key = tuple(_merge(units.options[opt], i, -1) for opt in assignment)
            br = br_memo[i].get(opp_key)
            if br is None:
                br = best_response(spec, tree, scope.start, policy, i, cls=cls, scope=scope)[0]
                br_memo[i][opp_key] = br
            slack = value[i] - br
            slacks.append(slack)
            if slack > eps:
                ok = False
                break
        if ok:
            yield EquilibriumRecord(policy=policy, value=value, slack=tuple(slacks))


class _Responder:
    """One player's best response over a scope to the others' unit actions:
    ``val`` and ``argmins`` at every local node. An update refreshes every
    member's menu and recomputes every node, so what it holds depends only on
    the last actions given, whatever the kernel.
    """

    def __init__(self, scope: _Scope, player: int, members):
        tables = scope.tables
        self.player, self.members = player, members
        self.kids, self.rows = scope.kids, scope.rows
        self.kern, self.cost = tables.kern, tables.cost
        self.stride = tables.strides[player]
        self.span = self.stride * tables.sizes[player]
        self.weights = tables.strides[:player] + tables.strides[player + 1 :]
        self.val = scope.column(player)
        self.argmins, self.menus = [None] * len(scope.nodes), [None] * len(scope.nodes)
        self.order = scope.inner[::-1]

    def update(self, cols: tuple[tuple[int, ...], ...]) -> None:
        """Respond to every player's column of unit actions; its own is ignored."""
        # Per unit, the others' joint action numbered with the player's own action at 0.
        key = (0,) * len(self.members)
        for w, col in zip(self.weights, cols[: self.player] + cols[self.player + 1 :]):
            key = tuple(map(add, key, map(w.__mul__, col)))
        menus, rows, cost, kern = self.menus, self.rows, self.cost, self.kern
        player, stride, span = self.player, self.stride, self.span
        for base, mem in zip(key, self.members):
            for u in mem:
                row = rows[u]
                menus[u] = cost[row][player], kern[row][base : base + span : stride]
        induct(self.order, self.kids, menus, self.val, self.argmins)


def _iter_argmin(spec: GameSpec, scope: _Scope, units: _Units, with_policies: bool):
    """Exact Nash enumeration from per-unit argmin pools, for any kernel.

    A unit is a node (path class) or a (time, state) group (state class on a
    Markov scope). Every player plays at each unit from its menu there
    (:func:`_menus`). The other players' assignments are the player-major
    product of their menus, in lexicographic order: at a unit whose members
    are sure and whose continuation is fixed, :func:`_one_step_allowed` has
    kept each menu to its player's parts of the one-step Nash joint actions,
    and with three or more players the parts must also form such a joint,
    and no assignment exists when a unit has none. The filter is necessary,
    not sufficient, so unless it tests the start (see the end), every record
    is certified by the walks below. For every assignment, player 0's
    best-response walk gives its argmin sets; player 0 then ranges over the
    assignments that play, at each unit, an action of its menu that is an
    argmin at all of its reached members
    (:func:`_reached_argmin_profiles`). Each remaining player j passes
    when it plays an argmin at every reached node of its walk against the
    others, memoized on their actions. An equilibrium's value is the vector
    of these walks' root values, so no per-profile cost walk runs. Every
    walk is a :class:`_Responder`, and values stay integers until
    :func:`_emit` makes the record.

    Without policies a menu holds only the least action of each
    payoff-equivalence class at the unit's row, so tied repeats of a value
    are skipped. The first record σ of a value comes out as before:
    replacing each of its actions by its class's least gives an equilibrium
    with the same value whose place in the lexicographic order of (others'
    columns, own column) is not later than σ's, so it is σ. Where no row
    ties, and with policies, a menu before the filter is every action, so
    every tied profile still comes.

    When the filter tests the start, no walk runs. Every child of the start
    then has a fixed value, so by induction every decision node is sure and
    every other unit is forced. At sure nodes a profile is an equilibrium
    exactly when every player plays an argmin everywhere, that is, a
    one-step Nash joint against its own continuation values, which from the
    ends up are the forced joints' values. The records are therefore the
    start's passing joints with every other unit on its forced joint, valued
    by the start's one-step totals, in the walk search's order (the others'
    parts lexicographic, then player 0's action) and, without policies, kept
    to the least actions of the start row's classes (:func:`_class_minima`).
    A scope whose only decision node is its start is always such a scope.
    """
    n = spec.n_players
    local = [tuple(map(scope.local.__getitem__, mem)) for mem in units.members]
    reach = _Reach.of(scope, local)
    allowed, forced, start = _one_step_allowed(spec, scope, reach, local)
    if () in allowed:
        return
    seen: dict[tuple[int, ...], Vector] = {}
    if start is not None:
        totals, passing = start
        least = None if with_policies else _class_minima(scope.tables, scope.rows[0])
        stride = scope.tables.strides[0]
        for j in sorted(passing, key=lambda j: (j % stride, j)):
            joint = spec.joint_actions[j]
            if least is None or all(a in m for a, m in zip(joint, least)):
                ints = tuple(tot[j] for tot in totals)
                yield _emit(seen, ints, scope, units, (joint, *forced[1:]), with_policies)
        return
    menus = _menus(scope, local, allowed, with_policies)
    assignments = itertools.product(
        *(itertools.product(*(menu[p] for menu in menus)) for p in range(1, n))
    )
    if n > 2:
        tested = [(k, frozenset(a)) for k, a in enumerate(allowed) if a is not None]
        assignments = (
            others
            for others in assignments
            if all(tuple(col[k] for col in others) in a for k, a in tested)
        )
    walks = [_Responder(scope, i, local) for i in range(n)]
    memo: list[dict] = [{} for _ in range(n)]
    first, idle = walks[0], (0,) * len(local)
    for others in assignments:
        first.update((idle,) + others)
        v0 = first.val[0]
        profiles = _reached_argmin_profiles(scope.tables, reach, others, first.argmins, menus)
        for own, hits in profiles:
            cols = (own,) + others
            values = [v0]
            for j in range(1, n):
                key = cols[:j] + cols[j + 1 :]
                entry = memo[j].get(key)
                if entry is None:
                    walk = walks[j]
                    walk.update(cols)
                    entry = memo[j][key] = (walk.val[0], tuple(walk.argmins))
                vj, argmins = entry
                if not all(a in argmins[u] for a, hit in zip(cols[j], hits) for u in hit):
                    break
                values.append(vj)
            else:
                yield _emit(seen, tuple(values), scope, units, zip(*cols), with_policies)


def _emit(seen, ints, scope: _Scope, units: _Units, joints, with_policies: bool):
    """The record of an exact equilibrium whose units play ``joints`` and
    whose integer value is ``ints``. Each distinct value is converted to
    Fractions once, into ``seen``, and its first record carries its policy;
    a later one carries ``_NO_POLICY`` unless ``with_policies``, which
    :func:`value_index` reads as a repeat."""
    value = seen.get(ints)
    fresh = value is None
    if fresh:
        value = seen[ints] = tuple(map(scope.fraction, ints))
    policy = units.policy(joints, units.kind) if fresh or with_policies else _NO_POLICY
    return EquilibriumRecord(policy=policy, value=value, slack=(ZERO,) * len(ints))


class _Reach(NamedTuple):
    """Which nodes of a scope's units a profile reaches with positive probability.

    Nodes, in the units :meth:`of` takes too, are local indices of the scope.
    A node is *sure* when every profile reaches it: the start node, and any
    node whose parent is sure and whose child weight is positive under every
    joint action. The other members are *contingent*: reached when the
    parent is and the weight under the parent's joint action is nonzero. ``sure[k]`` are unit k's sure members;
    ``links[k]`` hold ``(node, parent, parent's unit, index among the
    parent's children, the parent's child weights per joint action)`` for its
    contingent members. ``cuts`` split the units, which are in time order,
    into segments such that every contingent member's parent lies in an
    earlier segment, so a segment's reach is fixed once the segments before
    it are assigned; the last entry is the unit count. With a strictly
    positive kernel every node is sure and the units form one segment.
    """

    sure: tuple[tuple[int, ...], ...]
    links: tuple[tuple[tuple, ...], ...]
    cuts: tuple[int, ...]

    @classmethod
    def of(cls, scope: _Scope, local) -> "_Reach":
        kern = scope.tables.kern
        unit_of = {u: k for k, mem in enumerate(local) for u in mem}
        sure_nodes = {0}
        sure, links, cuts = [], [], [0]
        for k, mem in enumerate(local):
            ours, theirs = [], []
            for u in mem:
                if u in sure_nodes:
                    ours.append(u)
                    continue
                parent = scope.parent[u]
                idx = u - scope.kids[parent][0]
                weights = kern[scope.rows[parent]]
                if parent in sure_nodes and all(w[idx] for w in weights):
                    sure_nodes.add(u)
                    ours.append(u)
                else:
                    theirs.append((u, parent, unit_of[parent], idx, weights))
            if any(link[2] >= cuts[-1] for link in theirs):
                cuts.append(k)
            sure.append(tuple(ours))
            links.append(tuple(theirs))
        cuts.append(len(local))
        return cls(tuple(sure), tuple(links), tuple(cuts))


def _reached_argmin_profiles(tables, reach: _Reach, others, argmins0, menus):
    """Player 0's unit assignments that play an argmin wherever they reach.

    Depth first over the segments of ``reach``, and over the product of the
    units' pools within one segment, so assignments come out in lexicographic
    order of the pools. Entering a segment fixes which members of its units
    are reached; a unit's pool is the actions of player 0's menu there
    (``menus[k][0]``) that are an argmin at each of its reached members. Each
    assignment is yielded with ``hits``, the reached members of every unit
    under it.
    """
    sure, links, cuts = reach
    own = [0] * len(sure)
    hits = list(sure)
    reached: dict[int, bool] = {}  # contingent nodes entered so far; sure ones are absent
    strides = tables.strides

    def pools(seg: int) -> list:
        out = []
        for k in range(cuts[seg], cuts[seg + 1]):
            hit = sure[k]
            if links[k]:
                hit = list(hit)
                for u, parent, pk, idx, weights in links[k]:
                    joint = sum(map(mul, strides, [own[pk]] + [col[pk] for col in others]))
                    flag = reached.get(parent, True) and weights[joint][idx] != 0
                    reached[u] = flag
                    if flag:
                        hit.append(u)
                hits[k] = hit
            pool = menus[k][0]
            for u in hit:
                pool = [a for a in pool if a in argmins0[u]]
            out.append(pool)
        return out

    return _descend(pools, cuts, own, hits, 0)


def _descend(pools, cuts, own, hits, seg: int):
    """The assignments from segment ``seg`` on, after ``own`` holds the
    earlier segments' actions. Module-level and handed the ``pools`` closure,
    so no closure refers to itself and an enumeration leaves no cycle."""
    combos = itertools.product(*pools(seg))
    if seg == len(cuts) - 2:
        head = tuple(own[: cuts[seg]])
        return zip(map(head.__add__, combos), itertools.repeat(tuple(hits)))
    return _deeper(pools, cuts, own, hits, seg, combos)


def _deeper(pools, cuts, own, hits, seg: int, combos):
    for combo in combos:
        own[cuts[seg] : cuts[seg + 1]] = combo
        yield from _descend(pools, cuts, own, hits, seg + 1)


def _one_step_allowed(spec: GameSpec, scope: _Scope, reach: _Reach, local) -> tuple:
    """What one-step Nash tests leave a record to play at each unit.

    Units are tested deepest first. A unit is tested when all its members are
    sure and every child of every member has a fixed value: an end, or a
    member of a *forced* unit, one that passes a single joint. A joint passes
    when it is one-step Nash at every member against those values. A record
    plays an argmin of every walk at every sure node, so there its walks'
    values are its own values; by induction from the ends, its joint at a
    tested unit passes.

    Returns ``(allowed, forced, start)``. ``allowed[k]`` is None for an
    untested unit and, for a tested one, the sorted others' parts of its
    passing joints; a unit that passes none gets (), the tests stop there,
    and no record exists. ``forced[k]`` is a forced unit's joint, else None.
    ``start`` is, when the start's unit (unit 0, the start alone) is tested
    and passes a joint, its integer one-step totals per player in
    joint-index order and its passing joint indices, else None.
    """
    joints, kids, ends, tables = spec.joint_actions, scope.kids, scope.ends, scope.tables
    fixed: dict[int, tuple[int, ...]] = {}  # forced members' integer values
    allowed: list = [None] * len(local)
    forced: list = [None] * len(local)
    start = None
    for k in reversed(range(len(local))):
        if reach.links[k]:
            continue
        passing, found = range(len(joints)), []
        for u in local[k]:
            child = [ends.get(c) or fixed.get(c) for c in range(*kids[u])]
            if None in child:
                break
            totals = _one_step_costs(tables, scope.rows[u], child, joints)
            nash = _nash_flags(totals, tables.strides, tables.sizes)
            passing = [j for j in passing if nash[j]]
            found.append((u, totals))
        else:
            allowed[k] = tuple(sorted({joints[j][1:] for j in passing}))
            if not passing:
                break
            if len(passing) == 1:
                forced[k] = joints[passing[0]]
                for u, totals in found:
                    fixed[u] = tuple(tot[passing[0]] for tot in totals)
            if k == 0:  # the start's unit: the start alone
                start = found[0][1], passing
    return allowed, forced, start


def _one_step_costs(tables, row: int, child, joints) -> list[list[int]]:
    """Each player's integer one-step cost of every joint action at a row, in
    joint-index order: the own running cost plus the kernel-weighted values
    of the children, one integer vector per child in ``child``."""
    kern = tables.kern[row]
    totals = []
    for i, own in enumerate(tables.cost[row]):
        col = [v[i] for v in child]
        totals.append([own[joint[i]] + sum(map(mul, w, col)) for joint, w in zip(joints, kern)])
    return totals


def _nash_flags(totals, strides, sizes) -> list[bool]:
    """Per joint action, whether it is Nash in the static game where player
    i's costs are ``totals[i]`` in joint-index order: no player's cost exceeds
    the least over its own actions, which lie ``strides[i]`` joints apart."""
    nash = [True] * len(totals[0])
    for tot, stride, size in zip(totals, strides, sizes):
        span = stride * size
        for top in range(0, len(tot), span):
            for base in range(top, top + stride):
                best = min(tot[base : base + span : stride])
                for j in range(base, base + span, stride):
                    if tot[j] != best:
                        nash[j] = False
    return nash


def _best_replies(totals, strides, sizes) -> list[list[int]]:
    """Per player i, and per joint action in joint-index order, the least of
    ``totals[i]`` over the player's own actions against the others' parts
    of that joint: the player's best one-step reply (see :func:`_nash_flags`)."""
    replies = []
    for tot, stride, size in zip(totals, strides, sizes):
        span, best = stride * size, list(tot)
        for top in range(0, len(tot), span):
            for base in range(top, top + stride):
                best[base : base + span : stride] = [min(tot[base : base + span : stride])] * size
        replies.append(best)
    return replies


def _menus(scope: _Scope, local, allowed, with_policies: bool) -> list[tuple]:
    """Per unit k and player p, ``menus[k][p]``: the actions p may play at
    unit k, in index order. Without policies these are the least actions of
    the payoff-equivalence classes at the unit's row (:func:`_class_minima`;
    a state-class unit on a Markov scope has one row), with policies, or
    where no two actions tie, every action. At a unit the one-step filter
    tested, each other player keeps only its parts of the allowed joints."""
    tables = scope.tables
    every = tuple(map(range, tables.sizes))
    menus = []
    for mem, joints in zip(local, allowed):
        menu = None if with_policies else _class_minima(tables, scope.rows[mem[0]])
        menu = menu or every
        if joints is not None:
            parts = [set(col) for col in zip(*joints)]
            menu = (menu[0], *([a for a in acts if a in ps] for acts, ps in zip(menu[1:], parts)))
        menus.append(menu)
    return menus


def _class_minima(tables, row: int):
    """Per player, the least action of each payoff-equivalence class at a
    table row, in index order, or None when no two actions of a player are
    equivalent there.

    Two actions of a player are equivalent when they have the same running
    cost and the same child weights against every joint action of the
    others (Kuhn's reduced normal form): swapping one for the other at a
    node changes no player's cost, best response or equilibrium status.
    """
    kern, tied, out = tables.kern[row], False, []
    for own, stride, size in zip(tables.cost[row], tables.strides, tables.sizes):
        least = range(size)
        if len(set(own)) < size:  # only actions of equal cost can be equivalent
            span, first = stride * size, {}
            for a in least:
                weights = tuple(kern[j : j + stride] for j in range(a * stride, len(kern), span))
                first.setdefault((own[a], weights), a)
            if len(first) < size:
                least, tied = tuple(first.values()), True
        out.append(least)
    return tuple(out) if tied else None


_NO_POLICY = Policy(actions={}, policy_class=PATH_CLASS)


def value_index(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    eps: Fraction = ZERO,
    cls: str = PATH_CLASS,
    cap: int = DEFAULT_POLICY_CAP,
) -> MappingProxyType:
    """Distinct equilibrium values at the start node, each with a witness.

    A read-only map from every value :func:`iter_equilibria` yields, in the
    order first yielded, to the first record that attains it, policy and
    slack included. One enumeration per (start, eps, cls) is memoized in
    the ``Tables`` of (spec, tree), so it lives as long as they do. The
    cap is checked against the class size on every call, before any scope
    or table exists, whether the enumeration runs now or ran earlier.
    """
    _check_class_size(spec, tree, start, cls, cap)
    memo = tables_of(spec, tree).value_index
    key = (start, eps, cls)
    witnesses = memo.get(key)
    if witnesses is None:
        witnesses = {}
        records = iter_equilibria(
            spec, tree, start, eps=eps, cls=cls, cap=cap, with_policies=False
        )
        for rec in records:
            if rec.policy is not _NO_POLICY:  # without a policy it repeats a value
                witnesses.setdefault(rec.value, rec)
        memo[key] = witnesses
    return MappingProxyType(witnesses)


def set_value_bruteforce(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    eps: Fraction = ZERO,
    cls: str = PATH_CLASS,
    cap: int = DEFAULT_POLICY_CAP,
) -> ValueSet:
    """Set of equilibrium cost vectors by policy enumeration (:func:`value_index`)."""
    return ValueSet.of(value_index(spec, tree, start, eps=eps, cls=cls, cap=cap), epsilon=eps)


# -- one-step games and the backward recursion --------------------------------


def one_step_equilibria(
    spec: GameSpec,
    tree: PathTree,
    nid: int,
    continuation: dict[int, Vector],
) -> list[EquilibriumRecord]:
    """Nash profiles of the static game one transition deep.

    Player i's cost of a joint action is the running cost of the own action
    plus the kernel-weighted continuation value over children (the game
    truncated at the children, enumerated by :func:`iter_equilibria`).
    """
    node = tree.node(nid)
    if node.t >= tree.horizon:
        raise GameValidationError("one-step game needs a non-terminal node")
    if any(child not in continuation for child in node.children):
        raise GameValidationError("continuation value missing for a child prefix")
    frontier = {child: continuation[child] for child in node.children}
    return list(iter_equilibria(spec, tree, nid, scope=_Scope(spec, tree, nid, frontier=frontier)))


def set_value_dpp(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    *,
    selection_cap: int = DEFAULT_SELECTION_CAP,
) -> ValueSet:
    """Set value by the one-step backward recursion (:class:`_Recursion`),
    exact for every kernel.

    Sets of integer points are memoized by table row in the tree's tables
    (``Tables.dpp_sets``), so Markov specs are solved once per (time, state)
    rather than once per prefix, and later calls anywhere in a solved subtree
    read them. The selection cap is checked on every call: an entry keeps the
    largest selection count met at its row or below.
    """
    return _Recursion(spec, tree, selection_cap).value_set(start)


def _joint_points(tables, totals):
    """Every joint action's value vector in a one-step game."""
    return zip(*totals)


def _nash_points(tables, totals, among=None):
    """The value vectors of a one-step game's Nash joints
    (:func:`_nash_flags`), of those marked in ``among`` when given."""
    flags = _nash_flags(totals, tables.strides, tables.sizes)
    if among is not None:
        flags = map(and_, flags, among)
    return itertools.compress(zip(*totals), flags)


def _deviation_points(tables, totals):
    """Per joint action, the vector of every player's best one-step reply to
    the others' parts (:func:`_best_replies`): what each deviator gets."""
    return zip(*_best_replies(totals, tables.strides, tables.sizes))


class _Recursion:
    """The package's one exact set recursion, in integers on the compiled
    tables: path-class Nash values at eps 0 for every kernel, with off-path
    punishment values (Abreu, Pearce & Stacchetti, Econometrica 1990).

    A Nash profile may deter a deviation by what it plays at a child it
    reaches with probability 0, where a deviator just best-responds. So for
    the subgame at n, let P(n) be the set of the vectors (BR_i(σ))_i of
    every player's best-response value against its profiles σ, and E(n) the
    set of its Nash values. With r_i a player's running cost and q the
    kernel at n:

    * P(n) is the union, over joint actions a and selections v_c ∈ P(c) of
      one point per child, of (min_b [r_i(b) + Σ_c q(c | b, a₋ᵢ)·v_c,i])_i.
    * E(n) is the union, over joint actions a and selections with v_c ∈
      E(c) where q(c | a) > 0 and v_c ∈ P(c) elsewhere, of a's one-step
      value when a is one-step Nash against v. One selection serves a and
      every deviation from it, as one subprofile plays at each child.
    * A *carried* subgame (an end, or a node where play stops) offers a set
      C as E and Max C as Max P; an end's C is its terminal vector.

    This is exact: a profile is Nash at n exactly when it is Nash at the
    children its joint action reaches and that joint action is one-step Nash
    against their values and, elsewhere, the deviators' best responses;
    path-class subprofiles below different children are independent. A
    larger punishment only deters more, so P is kept to its Pareto-maximal
    points Max P, read only at children that some joint action at the
    parent does not reach: under q > 0, E is the plain recursion over E.
    The same walk with every joint action's value in place of the
    deviators' replies, kept to its minimal points, is the path class's
    minimal achievable set (:meth:`frontier`).

    Every key is a table row (one per (time, state) on Markov specs, else
    one per prefix), in the cut game too, as a stopping time stops by
    (time, state) (:class:`model.StoppingTime`). ``stops`` is None for the
    whole game, whose memos are the tables' ``dpp_sets`` (E), ``threats``
    (Max P) and ``frontiers``; else it maps the rows where play stops to
    their carried integer sets, and the memos live with the object. An entry
    holds a set's points and the largest selection count met at its row or
    below, checked against ``cap`` on every read, as every product is.
    ``cap`` is a selection cap, or the policy cap of a class whose size the
    caller checked: each point stands for a profile of its child's subgame,
    so no product exceeds that size.
    """

    def __init__(self, spec: GameSpec, tree: PathTree, cap: int, stops=None):
        self.spec, self.tree, self.cap, self.stops = spec, tree, cap, stops or {}
        self.tables = tables = tables_of(spec, tree)
        shared = tables.dpp_sets, tables.threats, tables.frontiers
        self.sets, self.threats, self.frontiers = shared if stops is None else ({}, {}, {})

    def _carried(self, row: int, order=None):
        """The entry of a carried row: its set C, or Max C under ``order``."""
        found = self.stops.get(row)
        if found is None:
            end = self.tables.end[row]
            return None if end is None else ((end,), 0)
        if order is not None:
            found = tuple(y for y in found if not _dominated(y, found, order))
        return found, 0

    def _check(self, count: int) -> None:
        if count > self.cap:
            raise EnumerationCapExceeded("continuation selection enumeration", count, self.cap)

    def _selections(self, row: int, children, keep):
        """The union, over the selections of one point of each child's entry,
        of the points ``keep(tables, totals)`` takes from the selection's
        one-step game (:func:`_one_step_costs`), and the largest selection
        count met at the row or below; the row's own count is checked."""
        sets, counts = zip(*children)
        n_selections = math.prod(map(len, sets))
        self._check(n_selections)
        tables, joints = self.tables, self.spec.joint_actions
        found: set[tuple[int, ...]] = set()
        for chosen in itertools.product(*sets):
            found.update(keep(tables, _one_step_costs(tables, row, chosen, joints)))
        return found, max(n_selections, *counts)

    def values(self, row: int) -> tuple:
        """E at a row: its integer points and selection count."""
        entry = self.sets.get(row)
        if entry is not None:
            self._check(entry[1])
            return entry
        entry = self._carried(row)
        if entry is not None:
            return entry
        kids = range(*self.tables.kids[row])
        reaches = [tuple(map(bool, w)) for w in self.tables.kern[row]]  # per joint
        kinds = dict.fromkeys(reaches)
        found, count = set(), 0
        for reached in kinds:  # the joints that reach these children, at once
            among = [r == reached for r in reaches] if len(kinds) > 1 else None
            sets = [self.values(c) if on else self.punishments(c) for c, on in zip(kids, reached)]
            keep = _nash_points if among is None else functools.partial(_nash_points, among=among)
            points, n = self._selections(row, sets, keep)
            found |= points
            count = max(count, n)
        entry = self.sets[row] = tuple(found), count
        return entry

    def punishments(self, row: int) -> tuple:
        """Max P at a row: its integer points and selection count."""
        return self._extreme(row, self.threats, _deviation_points, ge)

    def frontier(self, row: int) -> tuple:
        """The minimal achievable values at a row: its integer points and
        selection count."""
        return self._extreme(row, self.frontiers, _joint_points, le)

    def _extreme(self, row: int, memo, keep, order) -> tuple:
        """The points ``keep`` takes over the selections from the children's
        same sets, kept to those that no other point dominates under
        ``order`` (:func:`_dominated`)."""
        entry = memo.get(row)
        if entry is not None:
            self._check(entry[1])
            return entry
        entry = self._carried(row, order)
        if entry is not None:
            if row in self.stops:  # Max C once per stop; the tables keep no stops
                memo[row] = entry
            return entry
        children = [self._extreme(c, memo, keep, order) for c in range(*self.tables.kids[row])]
        found, count = self._selections(row, children, keep)
        entry = memo[row] = tuple(y for y in found if not _dominated(y, found, order)), count
        return entry

    def value_set(self, nid: int, sets=None) -> ValueSet:
        """E at a node of the tree, or the set the method ``sets`` gives
        there, as a value set."""
        node = self.tree.nodes[nid]
        scale = self.tables.scale[node.t]
        points = (sets or self.values)(self.tables.row(node))[0]
        return ValueSet.of(tuple(Fraction(v, scale) for v in p) for p in points)

    def stopped(self, carried) -> _Recursion:
        """The recursion of the game whose play stops at the nodes of
        ``carried``, each offering its value points there, keyed by row."""
        tables, nodes = self.tables, self.tree.nodes
        stops = {
            tables.row(nodes[nid]): _scaled(points, tables.scale[nodes[nid].t])
            for nid, points in carried.items()
        }
        return _Recursion(self.spec, self.tree, self.cap, stops)


# -- order filters -------------------------------------------------------------


def _dominated(y: Vector, points, order=le) -> bool:
    """Whether some other point x has ``order(x_k, y_k)`` in every
    coordinate k: x <= y (the default) for minimal sets, ``ge`` for maximal
    ones."""
    return any(x != y and all(map(order, x, y)) for x in points)


def pareto_filter(vs: ValueSet) -> ValueSet:
    """Minimal elements: drop y when some other point is <= y with a strict coordinate."""
    return ValueSet.of([y for y in vs.points if not _dominated(y, vs.points)], epsilon=vs.epsilon)


def strong_pareto_filter(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    records: list[EquilibriumRecord],
    *,
    cap: int = DEFAULT_POLICY_CAP,
) -> ValueSet:
    """Equilibrium values not dominated by the value of any control at all.

    A value dominated by an achievable one is dominated by a Pareto-minimal
    one, so the records are checked against the minimal achievable set of
    the path class (:meth:`_Recursion.frontier`), with ``cap`` on each row's
    selections.
    """
    recursion = _Recursion(spec, tree, cap)
    achievable = recursion.value_set(start, recursion.frontier).points
    return ValueSet.of([rec.value for rec in records if not _dominated(rec.value, achievable)])


def variant_set(
    spec: GameSpec, tree: PathTree, start: int, variant: str = "full", *, eps: Fraction = ZERO,
    cap: int = DEFAULT_POLICY_CAP, frontier: dict[int, Vector] | None = None,
) -> ValueSet:
    """The variant's set value at the start node: the equilibrium values of
    its policy class in the whole game, or in the game stopped at ``frontier``
    with those terminal values, then its filter. Strong Pareto compares with
    every control of the whole game, so it takes no frontier.
    """
    cls = _variant_class(variant)
    if variant == "strong-pareto":
        if frontier is not None:
            raise GameValidationError("the strong Pareto variant has no truncated-game set")
        records = value_index(spec, tree, start, eps=eps, cls=cls, cap=cap).values()
        return strong_pareto_filter(spec, tree, start, list(records), cap=cap)
    if frontier is None:
        vs = set_value_bruteforce(spec, tree, start, eps=eps, cls=cls, cap=cap)
    else:
        scope = _Scope(spec, tree, start, frontier=frontier)
        found = iter_equilibria(
            spec, tree, start, eps=eps, cls=cls, cap=cap, scope=scope, with_policies=False
        )
        vs = ValueSet.of((rec.value for rec in found), epsilon=eps)
    return pareto_filter(vs) if variant == "pareto" else vs


def _variant_class(variant: str) -> str:
    """The variant's policy class (``VARIANT_POLICY_CLASS``); an unknown
    variant is an error."""
    cls = VARIANT_POLICY_CLASS.get(variant)
    if cls is None:
        raise GameValidationError(f"unknown variant {variant!r}")
    return cls
