"""Discrete finite-horizon stochastic game model.

A game runs over times 0..T with a finite state set per time, finite
per-player action sets, an exact-rational transition kernel q(t, x, a; x')
over next states, per-player running costs that depend only on the player's
own action, and per-player terminal costs. All quantities are
`fractions.Fraction`; nothing in this module touches floats.

Histories are handled through a prefix tree (`PathTree`). Policies and cost
evaluation are keyed by tree nodes, and stopping times by a node's (time,
state), which makes adaptedness structural rather than something to check.
The tree is implicit: a node id is a mixed-radix number of the prefix's state
indices, and a `Node` is built only when asked for, so a Markov solve, which
runs on the (time, state) rows, pays for the nodes it reads and not for every
prefix.

Every exact walk (policy costs, best responses, the planner's dictatorship
value, the recursion's one-step games) runs on `Tables`, the spec compiled
once per tree to Python integers at a common scale per level, and on
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
    """Full description of a discrete game.

    Transition and cost data are stored in dictionaries whose keys use either
    the current state label (when ``state_dependent`` is true) or the whole
    history prefix. Accessors take prefixes and resolve the key internally,
    so callers never branch on the flag.

    Instances are treated as immutable after construction; every operation on
    them is a pure function, safe to call concurrently.
    """

    def __init__(
        self,
        *,
        horizon: int,
        states: list[list[str]] | tuple[tuple[str, ...], ...],
        actions: list[list[str]] | tuple[tuple[str, ...], ...],
        transitions: dict,
        running_costs: list[dict] | tuple[dict, ...],
        terminal_costs: list[dict] | tuple[dict, ...],
        state_dependent: bool = False,
    ):
        self.horizon = int(horizon)
        self.states = tuple(tuple(level) for level in states)
        self.actions = tuple(tuple(acts) for acts in actions)
        self.transitions = dict(transitions)
        self.running_costs = tuple(dict(d) for d in running_costs)
        self.terminal_costs = tuple(dict(d) for d in terminal_costs)
        self.state_dependent = bool(state_dependent)
        self._validate()

    # -- basic shape ---------------------------------------------------------

    @property
    def n_players(self) -> int:
        return len(self.actions)

    def _key(self, prefix: Prefix):
        return prefix[-1] if self.state_dependent else prefix

    def _data_keys(self, t: int):
        """Keys of the time-t data: the states, or every prefix when path keyed."""
        if self.state_dependent:
            return self.states[t]
        return itertools.product(*self.states[: t + 1])

    def _where(self, key) -> str:
        return f"state={key!r}" if self.state_dependent else f"prefix={key}"

    # -- data accessors ------------------------------------------------------

    def transition_vector(self, t: int, prefix: Prefix, joint: JointAction) -> Vector:
        """Probability vector over states[t+1], in state order."""
        return self.transitions[(t, self._key(prefix), joint)]

    def running_cost(self, player: int, t: int, prefix: Prefix, own_action: int) -> Fraction:
        return self.running_costs[player][(t, self._key(prefix), own_action)]

    def terminal_vector(self, path: Prefix) -> Vector:
        key = self._key(path)
        return tuple(self.terminal_costs[i][key] for i in range(self.n_players))

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        if self.horizon < 1:
            raise GameValidationError("horizon must be >= 1")
        if len(self.states) != self.horizon + 1:
            raise GameValidationError(
                f"need {self.horizon + 1} state levels, got {len(self.states)}"
            )
        for t, level in enumerate(self.states):
            if not level:
                raise GameValidationError(f"empty state set at time {t}")
            if len(set(level)) != len(level):
                raise GameValidationError(f"duplicate state labels at time {t}")
        if not self.actions:
            raise GameValidationError("need at least one player")
        for i, acts in enumerate(self.actions):
            if not acts:
                raise GameValidationError(f"empty action set for player {i}")
        if len(self.running_costs) != self.n_players or len(self.terminal_costs) != self.n_players:
            raise GameValidationError("cost tables must have one entry per player")
        # Each time-0 key needs a transition per joint action. Counted before
        # the joint actions are built: 26 two-action players have 67 million.
        n_joints = math.prod(map(len, self.actions))
        if len(self.transitions) < n_joints:
            raise GameValidationError(
                f"missing transitions: each of the {n_joints} joint actions needs one "
                f"at t=0, got {len(self.transitions)} in all"
            )
        self.joint_actions: tuple[JointAction, ...] = tuple(
            itertools.product(*(range(len(acts)) for acts in self.actions))
        )

        # Markov data are keyed by the current state, so each (t, state) entry
        # is checked once; path-keyed data once per prefix. A vector object met
        # before passed its content checks there (the transitions hold every
        # vector, so no id is reused): only its length is checked again.
        positive = True
        joints = self.joint_actions
        n_keys = 0
        checked: set[int] = set()
        for t in range(self.horizon):
            for key in self._data_keys(t):
                n_keys += 1
                for joint in joints:
                    try:
                        vec = self.transitions[(t, key, joint)]
                    except KeyError as exc:
                        raise GameValidationError(
                            f"missing transition at t={t}, {self._where(key)}, action={joint}"
                        ) from exc
                    if len(vec) != len(self.states[t + 1]):
                        raise GameValidationError(
                            f"transition vector at t={t}, {self._where(key)}, {joint} "
                            "has wrong length"
                        )
                    if id(vec) in checked:
                        continue
                    for p in vec:
                        if not isinstance(p, Fraction):
                            raise GameValidationError("transition probabilities must be Fraction")
                        if p.numerator < 0:
                            raise GameValidationError("negative transition probability")
                        if not p.numerator:
                            positive = False
                    # Summed in integers over the lcm of the denominators.
                    den = math.lcm(*(p.denominator for p in vec))
                    if sum(p.numerator * (den // p.denominator) for p in vec) != den:
                        raise GameValidationError(
                            f"transition at t={t}, {self._where(key)}, {joint} sums to "
                            f"{sum(vec, ZERO)}, not 1"
                        )
                    checked.add(id(vec))
                for i in range(self.n_players):
                    for ai in range(len(self.actions[i])):
                        try:
                            c = self.running_costs[i][(t, key, ai)]
                        except KeyError as exc:
                            raise GameValidationError(
                                f"missing running cost for player {i} at t={t}, "
                                f"{self._where(key)}"
                            ) from exc
                        if not isinstance(c, Fraction):
                            raise GameValidationError("running costs must be Fraction")
        n_final = 0
        for key in self._data_keys(self.horizon):
            n_final += 1
            try:
                g = tuple(table[key] for table in self.terminal_costs)
            except KeyError as exc:
                raise GameValidationError(
                    f"missing terminal cost at t={self.horizon}, {self._where(key)}"
                ) from exc
            if any(not isinstance(v, Fraction) for v in g):
                raise GameValidationError("terminal costs must be Fraction")
        # The loops read each key of a table at most once, so a table with more
        # keys than they read holds data the game never uses.
        if len(self.transitions) != n_keys * len(joints):
            self._unread("transition", self.transitions, joints)
        for i, table in enumerate(self.running_costs):
            if len(table) != n_keys * len(self.actions[i]):
                self._unread(f"running cost of player {i}", table, range(len(self.actions[i])))
        for i, table in enumerate(self.terminal_costs):
            if len(table) != n_final:
                self._unread(f"terminal cost of player {i}", table, None)
        self.q_positive = positive

    def _unread(self, what: str, table: dict, actions) -> None:
        """Raise naming the first key of ``table`` that ``_validate`` does not read.

        ``actions`` are the read keys' last members (joint or own actions), or
        None for terminal costs, which are keyed by the final state or path.
        """
        if actions is None:
            read = set(self._data_keys(self.horizon))
        else:
            read = {
                (t, key, a)
                for t in range(self.horizon)
                for key in self._data_keys(t)
                for a in actions
            }
        unread = next(k for k in table if k not in read)
        t, where = (self.horizon, unread) if actions is None else unread[:2]
        raise GameValidationError(f"{what} at t={t}, {self._where(where)} is never read")


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
        self._index = [{s: k for k, s in enumerate(level)} for level in spec.states]
        self.levels = [range(lo, hi) for lo, hi in itertools.pairwise(offset)]

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def id_of(self, prefix: Prefix) -> int:
        labels = tuple(prefix)
        if not 1 <= len(labels) <= self.horizon + 1:
            raise GameValidationError(f"unknown prefix {prefix}")
        r = 0
        for level, index, label in zip(self.states, self._index, labels):
            try:
                r = r * len(level) + index[label]
            except KeyError as exc:
                raise GameValidationError(f"unknown prefix {prefix}") from exc
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
    """A spec's data compiled to Python integers, for every exact walk.

    A *row* holds one subgame's data: one per (time, state) on Markov specs,
    level by level in state order, else one per prefix in the tree's id
    order (the node id); a row's children are the rows ``range(*kids[row])``,
    found by the tree's arithmetic, so compiling builds no node. Level t has
    the scale ``scale[t]``: ``factor`` times the lcm of L_t·scale[t+1] (L_t:
    the lcm of the level's kernel denominators) and the level's cost
    denominators. An integer v at level t stands for v / scale[t], so sums and
    ties are exact.
    ``kern[row][j]`` are joint action j's child weights p·scale[t]/scale[t+1],
    ``cost[row][i][a]`` player i's running cost of own action a, and
    ``end[row]`` the terminal vector (None before the horizon), all scaled.
    Joint action (a_0, a_1, ...) is j = Σ a_i·strides[i], its place in
    ``GameSpec.joint_actions``. The tables refer to neither the spec nor a
    tree, so keeping them with the tree (:func:`tables_of`) pins neither.
    ``value_index`` is the memo of ``equilibria.value_index``: the
    equilibrium values of full scopes by (start, eps, class), with witness
    records that hold node ids and numbers only; ``dpp_sets`` (Nash values
    E), ``threats`` (the deviators' Pareto-maximal punishment values Max P)
    and ``frontiers`` (minimal achievable values) are the whole-game memos of
    ``equilibria._Recursion``: each solved row's pair of its set of integer
    points and the largest selection count met at or below it.
    """

    def __init__(self, spec: GameSpec, factor: int = 1):
        horizon = spec.horizon
        self.markov = spec.state_dependent
        # Path-keyed keys come in id order: level t's prefixes, lexicographically.
        keys = [list(spec._data_keys(t)) for t in range(horizon + 1)]
        if self.markov:
            self.index = [{s: k for k, s in enumerate(level)} for level in keys]
        self.offset = list(itertools.accumulate(map(len, keys), initial=0))
        self.sizes = tuple(map(len, spec.actions))
        self.strides = tuple(math.prod(self.sizes[i + 1 :]) for i in range(len(self.sizes)))
        data = [(t, key) for t in range(horizon) for key in keys[t]]
        kern, cost = [], []
        for t, key in data:
            kern.append([spec.transitions[(t, key, joint)] for joint in spec.joint_actions])
            cost.append(
                [[table[(t, key, a)] for a in range(size)]
                 for table, size in zip(spec.running_costs, self.sizes)]
            )
        end = [[table[key] for table in spec.terminal_costs] for key in keys[horizon]]
        scale = [math.lcm(*_denominators([end]))] * (horizon + 1)
        for t in reversed(range(horizon)):
            level = slice(self.offset[t], self.offset[t + 1])
            distinct = {id(vec): vec for row in kern[level] for vec in row}.values()
            step = math.lcm(*(x.denominator for vec in distinct for x in vec))
            scale[t] = math.lcm(step * scale[t + 1], *_denominators(cost[level]))
        self.scale = scale = [s * factor for s in scale]
        # Rows share kernel vector objects (joint actions that move the same
        # states, the loader's shared tuples), so each is scaled once per ratio;
        # the spec holds every vector while this runs, so no id is reused.
        done: dict[tuple[int, int], tuple[int, ...]] = {}
        self.kern = []
        for (t, _), row in zip(data, kern):
            ratio = scale[t] // scale[t + 1]
            ints = []
            for vec in row:
                key = (id(vec), ratio)
                scaled = done.get(key)
                if scaled is None:
                    scaled = done[key] = tuple(x.numerator * (ratio // x.denominator) for x in vec)
                ints.append(scaled)
            self.kern.append(tuple(ints))
        self.cost = [_scaled(c, scale[t]) for (t, _), c in zip(data, cost)]
        self.end = [None] * len(data) + list(_scaled(end, scale[horizon]))
        self.kids = []
        for row, (t, _) in enumerate(data):
            width = len(spec.states[t + 1])
            first = self.offset[t + 1] + (0 if self.markov else (row - self.offset[t]) * width)
            self.kids.append((first, first + width))
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
    return (x.denominator for row in rows for vec in row for x in vec)


def _scaled(rows, scale: int) -> tuple[tuple[int, ...], ...]:
    """Rows of fractions as integers over ``scale``, a multiple of their denominators."""
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in vec) for vec in rows)


def tables_of(spec: GameSpec, tree: PathTree, factor: int = 1) -> Tables:
    """The tables of (spec, tree), compiled on first use and kept with the tree."""
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
