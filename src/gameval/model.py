"""Discrete finite-horizon stochastic game model.

A game runs over times 0..T with a finite state set per time, finite
per-player action sets, an exact-rational transition kernel q(t, x, a; x')
over next states, per-player running costs that depend only on the player's
own action, and per-player terminal costs. All quantities are exact
rationals, read from the spec document (`io.load_game`, the one way to build
a `GameSpec`), checked and scaled once into integer tables, and given out as
`fractions.Fraction`; nothing in this module touches floats.

Histories are handled through a prefix tree (`PathTree`). Policies and cost
evaluation are keyed by tree nodes, and stopping times by a node's (time,
state), which makes adaptedness structural rather than something to check.
The tree is implicit: a node id is a mixed-radix number of the prefix's state
indices, and a `Node` is built only when asked for, so a Markov solve, which
runs on the (time, state) rows, pays for the nodes it reads and not for every
prefix.

Every exact walk (policy costs, best responses, the planner's dictatorship
value, the recursion's one-step games) runs on `Tables`, the spec's tables at
one common integer scale per level with the memos of one tree, and on
`induct`, the one backward-induction loop; `Fraction` appears only where
values enter and leave.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import GameValidationError

JointAction = tuple[int, ...]
Prefix = tuple[str, ...]
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

PATH_CLASS = "path_dependent"
STATE_CLASS = "state_dependent"
SYMMETRIC_CLASS = "symmetric"
POLICY_CLASSES = (PATH_CLASS, STATE_CLASS, SYMMETRIC_CLASS)


class GameSpec:
    """Full description of a discrete game, its data held as scaled integer tables.

    A *row* holds the data at one point of play: one per (time, state) when
    ``state_dependent`` is true, level by level in state order, else one per
    history prefix in the tree's id order (see :class:`PathTree`);
    ``offset[t]`` is level t's first row, and a row's children are the rows
    ``range(*kids[row])``. Level t has one integer scale ``scale[t]``: the
    lcm of L_t·scale[t+1] (L_t: the lcm of the level's kernel denominators)
    and the level's cost denominators, with ``scale[T]`` the lcm of the
    terminal denominators. An integer v at level t stands for v / scale[t].
    ``kern[row][j]`` are joint action j's child weights p·scale[t]/scale[t+1]
    (j in ``joint_actions`` order, j = Σ a_i·strides[i]; ``sizes[i]`` is
    player i's action count), ``cost[row][i][a]`` player i's running cost of
    own action a, times scale[t], and ``end[row]`` the players' terminal
    costs, times scale[T] (None before the horizon). :class:`Tables` shares
    these lists.

    ``io.load_game`` is the one way in: the constructor sets and checks the
    shape, then the loader fills the slots from the document and
    :meth:`_check` checks and scales them. ``io.dump_game`` writes the tables
    back out.

    Instances are treated as immutable after construction; every operation on
    them is a pure function, safe to call concurrently.
    """

    def __init__(self, horizon, states, actions, state_dependent, n_transitions: int):
        """Set and check everything but the data, ``n_transitions`` of which are to come."""
        self.horizon = int(horizon)
        self.states = tuple(map(tuple, states))
        self.actions = tuple(map(tuple, actions))
        self.state_dependent = bool(state_dependent)
        if self.horizon < 1:
            raise GameValidationError("horizon must be >= 1")
        if len(self.states) != self.horizon + 1:
            raise GameValidationError(
                f"need {self.horizon + 1} state levels, got {len(self.states)}"
            )
        self._index = [dict(zip(level, itertools.count())) for level in self.states]
        for t, (level, index) in enumerate(zip(self.states, self._index)):
            if not level:
                raise GameValidationError(f"empty state set at time {t}")
            if len(index) != len(level):
                raise GameValidationError(f"duplicate state labels at time {t}")
        if not self.actions:
            raise GameValidationError("need at least one player")
        for i, acts in enumerate(self.actions):
            if not acts:
                raise GameValidationError(f"empty action set for player {i}")
        self.sizes = sizes = tuple(map(len, self.actions))
        self.strides = tuple(math.prod(sizes[i + 1 :]) for i in range(len(sizes)))
        # Each time-0 key needs a transition per joint action. Counted before
        # the joint actions are built: 26 two-action players have 67 million.
        n_joints = math.prod(sizes)
        if n_transitions < n_joints:
            raise GameValidationError(
                f"missing transitions: each of the {n_joints} joint actions needs one "
                f"at t=0, got {n_transitions} in all"
            )
        self.joint_actions: tuple[JointAction, ...] = tuple(
            itertools.product(*(range(size) for size in sizes))
        )
        widths = map(len, self.states)
        counts = widths if self.state_dependent else itertools.accumulate(widths, mul)
        self.offset = list(itertools.accumulate(counts, initial=0))

    @property
    def n_players(self) -> int:
        return len(self.actions)

    def _row(self, t, key) -> int | None:
        """The row of the time-t datum at ``key``, found by the tree's arithmetic
        on path-keyed specs; None when no row has that key."""
        if t not in range(self.horizon + 1):
            return None
        if self.state_dependent:
            r = self._index[t].get(key)
        else:
            r = _radix(self._index, key) if type(key) is tuple and len(key) == t + 1 else None
        return None if r is None else self.offset[t] + r

    def _where(self, key) -> str:
        return f"state={key!r}" if self.state_dependent else f"prefix={key}"

    def _where_row(self, t: int, row: int) -> str:
        if self.state_dependent:
            return self._where(self.states[t][row - self.offset[t]])
        return self._where(_Nodes(self.states)[row].prefix)

    # -- validation ----------------------------------------------------------

    def _check(self, kern: dict, cost: list[dict], end: list[dict], unread: dict) -> None:
        """Check the filled slots, then keep them as scaled tables, level by level.

        ``kern`` holds row r's vector of joint action j at r·len(joint_actions)
        + j, as a pair ``(nums, den)`` standing for nums[k] / den; ``cost[i]``
        holds player i's cost of own action a at r·sizes[i] + a, and ``end[i]``
        its terminal cost at level T's k-th row at k, as ``(num, den)`` pairs
        in lowest terms. ``unread`` gives each table's first key that fills no
        slot, as (t, key), in table order; it is named only when no slot is
        empty. A level's first missing transition is named first, then its
        first missing running cost, then its vectors' first fault. Each level's
        distinct vector objects are checked once and scaled once (the level
        holds every one, so no id is reused).
        """
        joints, n, sizes = self.joint_actions, len(self.joint_actions), self.sizes
        positive = True
        levels = []  # per level: its vectors, the distinct ones by id, its costs
        for t in range(self.horizon):
            lo, hi = self.offset[t], self.offset[t + 1]
            try:
                flat = list(map(kern.__getitem__, range(lo * n, hi * n)))
            except KeyError as exc:
                row, j = divmod(exc.args[0], n)
                where = self._where_row(t, row)
                raise GameValidationError(
                    f"missing transition at t={t}, {where}, action={joints[j]}"
                ) from None
            own = []
            for i, (table, size) in enumerate(zip(cost, sizes)):
                try:
                    own.append(list(map(table.__getitem__, range(lo * size, hi * size))))
                except KeyError as exc:
                    where = self._where_row(t, exc.args[0] // size)
                    raise GameValidationError(
                        f"missing running cost for player {i} at t={t}, {where}"
                    ) from None
            distinct = dict(zip(map(id, flat), flat))  # first met first
            for vec in distinct.values():
                nums, den = vec
                if min(nums) < 0:
                    raise GameValidationError("negative transition probability")
                positive = positive and 0 not in nums
                if sum(nums) != den:
                    row, j = divmod(lo * n + next(k for k, v in enumerate(flat) if v is vec), n)
                    raise GameValidationError(
                        f"transition at t={t}, {self._where_row(t, row)}, {joints[j]} "
                        f"sums to {Fraction(sum(nums), den)}, not 1"
                    )
            levels.append((flat, distinct, own))
        final = range(self.offset[self.horizon], self.offset[-1])
        try:
            ends = [list(map(table.__getitem__, range(len(final)))) for table in end]
        except KeyError:
            k = next(k for k in itertools.count() if not all(k in table for table in end))
            where = self._where_row(self.horizon, final[k])
            raise GameValidationError(
                f"missing terminal cost at t={self.horizon}, {where}"
            ) from None
        if unread:
            what, (t, key) = next(iter(unread.items()))
            raise GameValidationError(f"{what} at t={t}, {self._where(key)} is never read")
        self.q_positive = positive

        scale = [math.lcm(*_denominators(ends))] * (self.horizon + 1)
        for t, (_, distinct, own) in reversed(list(enumerate(levels))):
            step = math.lcm(*(den for _, den in distinct.values()))
            scale[t] = math.lcm(step * scale[t + 1], *_denominators(own))
        self.scale, self.kern, self.cost, self.kids = scale, [], [], []
        for t, (flat, distinct, own) in enumerate(levels):
            ratio = scale[t] // scale[t + 1]
            ints = {
                key: tuple([x * (ratio // den) for x in nums])
                for key, (nums, den) in distinct.items()
            }
            self.kern += _cut(list(map(ints.__getitem__, map(id, flat))), n)
            players = zip(_scaled_pairs(own, scale[t]), sizes)
            self.cost += zip(*(_cut(column, size) for column, size in players))
            width = len(self.states[t + 1])
            if self.state_dependent:
                firsts = itertools.repeat(self.offset[t + 1], len(flat) // n)
            else:
                firsts = range(self.offset[t + 1], self.offset[t + 2], width)
            self.kids += ((first, first + width) for first in firsts)
        self.end = [None] * final.start + list(zip(*_scaled_pairs(ends, scale[-1])))


def _over_lcm(pairs) -> tuple[tuple[int, ...], int]:
    """Rationals given as (num, den) pairs, as numerators over the lcm of the denominators."""
    den = math.lcm(*(d for _, d in pairs))
    return tuple([num * (den // d) for num, d in pairs]), den


def _cut(flat: list, width: int):
    """``flat`` cut into consecutive tuples of ``width`` items."""
    return zip(*[iter(flat)] * width)


@dataclass(frozen=True)
class Node:
    """One history prefix in the tree."""

    id: int
    t: int
    prefix: Prefix
    parent: int | None
    children: tuple[int, ...] = field(default=(), compare=False)

    @property
    def state(self) -> str:
        return self.prefix[-1]


class _Nodes(Sequence):
    """A tree's nodes in id order, each built on first access and kept.

    Holds the state levels and the level offsets only, never the tree, so
    nothing kept with the tree can form a reference cycle through it.
    """

    def __init__(self, states: tuple[tuple[str, ...], ...]):
        self.states = states
        sizes = itertools.accumulate(map(len, states), mul)
        self.offset = list(itertools.accumulate(sizes, initial=0))
        self._built: dict[int, Node] = {}

    def __len__(self) -> int:
        return self.offset[-1]  # OverflowError past sys.maxsize nodes

    def locate(self, nid: int) -> tuple[int, int]:
        """The time of node ``nid`` and its place among the level's nodes."""
        if not 0 <= nid < self.offset[-1]:
            raise IndexError(f"no node {nid}")
        t = bisect.bisect_right(self.offset, nid) - 1
        return t, nid - self.offset[t]

    def __getitem__(self, nid: int) -> Node:
        if nid < 0:
            nid += self.offset[-1]
        node = self._built.get(nid)
        if node is None:
            t, r = self.locate(nid)
            states, offset = self.states, self.offset
            prefix, rest = [], r
            for level in reversed(states[: t + 1]):
                rest, k = divmod(rest, len(level))
                prefix.append(level[k])
            parent = offset[t - 1] + r // len(states[t]) if t else None
            width = len(states[t + 1]) if t + 1 < len(states) else 0
            first = offset[t + 1] + r * width
            node = Node(nid, t, tuple(reversed(prefix)), parent, tuple(range(first, first + width)))
            self._built[nid] = node
        return node


class PathTree:
    """All prefixes of all paths, with deterministic (lexicographic) ids.

    The tree is implicit. Every level holds every prefix, and ids run level
    by level in lexicographic order of the state indices, so the id of a
    time-t prefix is ``offset[t]`` plus the mixed-radix number of its state
    indices, with level sizes as radices. Parents, children, times and
    prefixes follow by arithmetic; ``nodes`` builds a :class:`Node` only
    when one is asked for, and ``levels[t]`` is a ``range`` of ids.
    """

    def __init__(self, spec: GameSpec):
        self.horizon = spec.horizon
        self.states = spec.states
        self.nodes = _Nodes(spec.states)
        # Compiled tables per spec (see tables_of); weak keys, so no spec is pinned.
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._offset = offset = self.nodes.offset
        self._index = spec._index
        self.levels = [range(lo, hi) for lo, hi in itertools.pairwise(offset)]

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def id_of(self, prefix: Prefix) -> int:
        labels = tuple(prefix)
        r = _radix(self._index, labels) if 1 <= len(labels) <= self.horizon + 1 else None
        if r is None:
            raise GameValidationError(f"unknown prefix {prefix}")
        return self._offset[len(labels) - 1] + r

    @property
    def n_paths(self) -> int:
        return len(self.levels[self.horizon])

    def _blocks(self, start: int, stop: int):
        """The ids below ``start`` (inclusive) at each time before ``stop``, as ranges."""
        t, r = self.nodes.locate(start)
        lo, hi = r, r + 1
        for s in range(t, stop):
            yield range(self._offset[s] + lo, self._offset[s] + hi)
            if s < self.horizon:
                width = len(self.states[s + 1])
                lo, hi = lo * width, hi * width

    def subtree(self, start: int) -> list[int]:
        """Node ids reachable from ``start`` (inclusive), BFS order."""
        return list(itertools.chain.from_iterable(self._blocks(start, self.horizon + 1)))

    def decision_nodes(self, start: int) -> list[int]:
        """Subtree nodes at times < T, where actions are taken."""
        return list(itertools.chain.from_iterable(self._blocks(start, self.horizon)))

    def time_state(self, nid: int) -> tuple[int, str]:
        """A node's time and current state, by arithmetic on its id."""
        t, r = self.nodes.locate(nid)
        level = self.states[t]
        return t, level[r % len(level)]

    def group_by_time_state(self, nodes) -> dict[tuple[int, str], tuple[int, ...]]:
        """Nodes grouped by (time, current state), keys sorted, members in input order."""
        groups: dict[tuple[int, str], list[int]] = {}
        for nid in nodes:
            groups.setdefault(self.time_state(nid), []).append(nid)
        return {key: tuple(groups[key]) for key in sorted(groups)}


def _radix(index: list[dict], labels) -> int | None:
    """The mixed-radix number of ``labels``, each read as its place in its
    level's ``index`` with the level sizes as radices; None at an unknown label."""
    r = 0
    for level, label in zip(index, labels):
        k = level.get(label)
        if k is None:
            return None
        r = r * len(level) + k
    return r


def build_path_tree(spec: GameSpec) -> PathTree:
    """Build the full prefix tree for a validated spec."""
    return PathTree(spec)


@dataclass(frozen=True)
class Policy:
    """Adapted joint control: node id -> joint action indices.

    The mapping may cover only the nodes relevant to an evaluation point;
    looking up a missing node is an error. ``policy_class`` records the class
    the policy was built for and is re-checked structurally where it matters.
    """

    actions: dict[int, JointAction]
    policy_class: str = PATH_CLASS

    def action(self, nid: int) -> JointAction:
        try:
            return self.actions[nid]
        except KeyError as exc:
            raise GameValidationError(f"policy has no action at node {nid}") from exc


@dataclass(frozen=True)
class StoppingTime:
    """Stop/continue rule on prefixes; stopping happens at the first hit.

    ``stopped[t]`` holds the state labels where play stops at time t, so a
    prefix stops by its (time, state) alone and no level of a deep tree is
    materialized. Terminal nodes always stop, so the stop time is at most T
    on every path. Non-anticipativity is automatic: a prefix's own time and
    state decide.
    """

    stopped: tuple[frozenset[str], ...]

    @classmethod
    def at_time(cls, tree: PathTree, t0: int) -> StoppingTime:
        if not 0 <= t0 <= tree.horizon:
            raise GameValidationError(f"stopping time {t0} outside 0..{tree.horizon}")
        stopped = (frozenset(level if t == t0 else ()) for t, level in enumerate(tree.states))
        return cls(tuple(stopped))

    @classmethod
    def hitting_state(cls, tree: PathTree, label: str) -> StoppingTime:
        stopped = tuple(frozenset({label}).intersection(level) for level in tree.states)
        if not any(stopped):
            raise GameValidationError(f"no node carries state {label!r}")
        return cls(stopped)

    def stops_at(self, tree: PathTree, nid: int) -> bool:
        t, state = tree.time_state(nid)
        return t == tree.horizon or state in self.stopped[t]

    def frontier(self, tree: PathTree, start: int) -> list[int]:
        """First-stop nodes on paths from ``start``, depth first. The stop
        time must be strictly after t(start), so a stop at the start or at a
        whole level at or before its time is refused, and so is a stopping
        time that does not hold one label set per level of the tree, each
        within its level's labels."""
        if len(self.stopped) != len(tree.states):
            raise GameValidationError(
                f"stopping time has {len(self.stopped)} label sets for {len(tree.states)} levels"
            )
        for t, (stopped, level) in enumerate(zip(self.stopped, tree.states)):
            unknown = set(stopped).difference(level)
            if unknown:
                raise GameValidationError(
                    f"stopping time stops at labels {sorted(unknown)} that level {t} does not hold"
                )
        t0 = tree.nodes.locate(start)[0]
        if self.stops_at(tree, start) or any(
            self.stopped[t].issuperset(tree.states[t]) for t in range(t0)
        ):
            raise GameValidationError("stopping time must be strictly after the start node")
        out: list[int] = []
        stack = list(tree.node(start).children)[::-1]
        while stack:
            nid = stack.pop()
            if self.stops_at(tree, nid):
                out.append(nid)
            else:
                stack.extend(reversed(tree.node(nid).children))
        return out


# -- costs -------------------------------------------------------------------


def cost_J(spec: GameSpec, tree: PathTree, start: int, policy: Policy) -> Vector:
    """Expected cost vector J(t, x, policy) from the start node, exact."""
    return _Scope(spec, tree, start).value(policy.action)


# -- the exact integer core ----------------------------------------------------


class Tables:
    """A spec's scaled tables at one factor, with the memos of one tree.

    The tables are the spec's (:class:`GameSpec`): ``scale``, ``kern``,
    ``cost``, ``end`` and ``kids``, with the joint-action layout ``sizes``
    and ``strides``. At factor 1 they are the spec's own lists; at another
    factor ``scale``, ``cost`` and ``end`` are multiplied by it, and the
    child weights ``kern`` and the child ranges ``kids``, which do not
    change with the scale, are shared. Nothing is compiled here. The tables
    refer to neither the spec nor a tree, so keeping them with the tree
    (:func:`tables_of`) pins neither.
    ``value_index`` is the memo of ``equilibria.value_index``: the
    equilibrium values of full scopes by (start, eps, class), with witness
    records that hold node ids and numbers only; ``dpp_sets`` (Nash values
    E), ``threats`` (the deviators' Pareto-maximal punishment values Max P)
    and ``frontiers`` (minimal achievable values) are the whole-game memos of
    ``equilibria._Recursion``: each solved row's pair of its set of integer
    points and the largest selection count met at or below it.
    """

    def __init__(self, spec: GameSpec, factor: int = 1):
        self.markov = spec.state_dependent
        self.index = spec._index  # read on Markov specs only
        self.offset = spec.offset
        self.sizes, self.strides = spec.sizes, spec.strides
        self.kern, self.kids = spec.kern, spec.kids
        self.scale, self.cost, self.end = spec.scale, spec.cost, spec.end
        if factor != 1:
            final = spec.offset[spec.horizon]
            self.scale = [s * factor for s in spec.scale]
            self.cost = [tuple(_times(own, factor) for own in row) for row in spec.cost]
            self.end = [None] * final + [_times(vec, factor) for vec in spec.end[final:]]
        self.value_index: dict = {}
        self.dpp_sets: dict = {}
        self.threats: dict = {}
        self.frontiers: dict = {}

    def row(self, node: Node) -> int:
        if self.markov:
            return self.offset[node.t] + self.index[node.t][node.state]
        return node.id

    def rows_below(self, tree: PathTree, start: int) -> list[int]:
        """The rows of the subgames below a node, itself first, parents before children."""
        node = tree.nodes[start]
        if self.markov:
            return [self.row(node), *range(self.offset[node.t + 1], self.offset[-1])]
        return tree.subtree(start)


def _denominators(rows):
    return (den for row in rows for _, den in row)


def _scaled(rows, scale: int) -> tuple[tuple[int, ...], ...]:
    """Rows of fractions as integers over ``scale``, a multiple of their denominators."""
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in vec) for vec in rows)


def _scaled_pairs(rows, scale: int) -> list[list[int]]:
    """Rows of (num, den) pairs as integers over ``scale``, a multiple of every den."""
    return [[num * (scale // den) for num, den in row] for row in rows]


def _times(vec, factor: int) -> tuple[int, ...]:
    """``vec``'s integers, each times ``factor``."""
    return tuple([x * factor for x in vec])


def tables_of(spec: GameSpec, tree: PathTree, factor: int = 1) -> Tables:
    """The tables of (spec, tree) at ``factor``, made on first use and kept with the tree."""
    cache = tree._tables.setdefault(spec, {})
    if factor not in cache:
        cache[factor] = Tables(spec, factor)
    return cache[factor]


def induct(order, kids, menus, val, argmins=None) -> None:
    """The one exact backward induction, in integers.

    For each u of ``order`` (children before parents), ``val[u]`` becomes the
    least of c + Σ_k w_k·val[lo + k] over the options of ``menus[u]``, a pair
    of running costs and child weights, with ``(lo, hi) = kids[u]``;
    ``argmins[u]``, when given, lists the options that attain it, in order.
    """
    for u in order:
        lo, hi = kids[u]
        sub = val[lo:hi]
        costs = [c + sum(map(mul, w, sub)) for c, w in zip(*menus[u])]
        best = val[u] = min(costs)
        if argmins is not None:
            argmins[u] = [a for a, c in enumerate(costs) if c == best]


class _Scope:
    """The subtree of a start node, optionally truncated, for integer walks.

    ``frontier`` maps stopped node ids to their terminal vectors; when given,
    paths end there instead of at the leaves, which keeps truncated-game
    enumeration restricted to the decision nodes that still matter.
    ``nodes`` are the scope's tree ids in breadth-first, hence time, order; a
    node's position there is its local index (the start is 0). ``kids`` and
    ``rows`` give each local decision node's child range and table row (None
    at ends), ``ends`` each frontier node's and leaf's integer terminal
    vector, and ``inner`` the local decision nodes (``decision_nodes`` their
    tree ids). A frontier whose denominators the spec never uses gets tables
    rescaled by the least factor that makes it integral.
    """

    def __init__(
        self, spec: GameSpec, tree: PathTree, start: int, frontier: dict[int, Vector] | None = None
    ):
        self.spec, self.tree, self.start, self.frontier = spec, tree, start, frontier
        base = tables_of(spec, tree)
        self.nodes = nodes = [start]
        self.parent: list[int | None] = [None]
        self.kids: list = []  # per local node, as ``rows``; None at ends
        self.rows: list = []
        stops = frontier or {}
        ends: dict[int, Node] = {}
        factor = 1
        for u, nid in enumerate(nodes):  # an index walk: ``nodes`` grows as it goes
            node = tree.nodes[nid]
            if nid in stops or node.t == tree.horizon:
                ends[u] = node
                for x in stops.get(nid, ()):
                    missing = x.denominator // math.gcd(x.denominator, base.scale[node.t])
                    factor = math.lcm(factor, missing)
                self.kids.append(None)
                self.rows.append(None)
            else:
                self.kids.append((len(nodes), len(nodes) + len(node.children)))
                self.rows.append(base.row(node))
                self.parent.extend([u] * len(node.children))
                nodes.extend(node.children)
        self.tables = tables = tables_of(spec, tree, factor)
        self.ends = {
            u: _scaled([stops[node.id]], tables.scale[node.t])[0]
            if node.id in stops
            else tables.end[tables.row(node)]
            for u, node in ends.items()
        }
        self.inner = [u for u, row in enumerate(self.rows) if row is not None]
        self.decision_nodes = [nodes[u] for u in self.inner]
        self.local = {nid: u for u, nid in enumerate(nodes)}
        self.scale = tables.scale[tree.nodes[start].t]
        # A value at the start node, as a Fraction.
        self.fraction = functools.cache(functools.partial(Fraction, denominator=self.scale))

    def column(self, player: int) -> list[int]:
        """Player's terminal values at the ends, zero at decision nodes."""
        val = [0] * len(self.nodes)
        for u, vec in self.ends.items():
            val[u] = vec[player]
        return val

    def walk(self, menu_at, player: int):
        """Player's values and argmin lists at every local node, by :func:`induct`.

        ``menu_at(u)`` gives decision node u's options. It is asked, parents
        first, only where options' positive weights reach; the rest keep zeros.
        """
        menus: list = [None] * len(self.nodes)
        order = []
        for u in self.inner:
            p = self.parent[u]
            if p is None or menus[p] and any(w[u - self.kids[p][0]] for w in menus[p][1]):
                menus[u] = menu_at(u)
                order.append(u)
        val, argmins = self.column(player), [None] * len(self.nodes)
        induct(reversed(order), self.kids, menus, val, argmins)
        return val, argmins

    def costs(self, action_at, player: int) -> list[int]:
        """Player's cost of a joint policy at every node the policy reaches."""
        tables, nodes, rows = self.tables, self.nodes, self.rows

        def menu_at(u):
            joint, row = action_at(nodes[u]), rows[u]
            own = tables.cost[row][player][joint[player]]
            return (own,), (tables.kern[row][sum(map(mul, tables.strides, joint))],)

        return self.walk(menu_at, player)[0]

    def value(self, action_at) -> Vector:
        """Cost vector of a joint policy at the start node."""
        n = self.spec.n_players
        return tuple(self.fraction(self.costs(action_at, i)[0]) for i in range(n))

    def respond(self, player: int, opp_action_at):
        """Player's best-response values and argmin lists against the others' policy."""
        tables, stride = self.tables, self.tables.strides[player]
        span = stride * tables.sizes[player]

        def menu_at(u):
            joint, row = opp_action_at(self.nodes[u]), self.rows[u]
            base = sum(map(mul, tables.strides, joint)) - joint[player] * stride
            return tables.cost[row][player], tables.kern[row][base : base + span : stride]

        return self.walk(menu_at, player)

    def is_markov(self) -> bool:
        """Whether the subgame below every scope node depends only on its (time, state).

        Holds for Markov data when each (time, state) group of the scope is
        either wholly made of end nodes sharing one terminal vector, or wholly
        made of decision nodes (whose ``ends`` entry is None).
        """
        if not self.spec.state_dependent:
            return False
        if self.frontier is None:
            return True
        ends, local = self.ends, self.local
        return all(
            len({ends.get(local[nid]) for nid in members}) == 1
            for members in self.tree.group_by_time_state(self.nodes).values()
        )
