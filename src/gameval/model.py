"""Discrete finite-horizon stochastic game model.

A game runs over times 0..T with a finite state set per time, finite
per-player action sets, an exact-rational transition kernel q(t, x, a; x')
over next states, per-player running costs that depend only on the player's
own action, and per-player terminal costs. All quantities are
`fractions.Fraction`; nothing in this module touches floats.

Histories are handled through an explicit prefix tree (`PathTree`). Policies,
stopping times, and cost evaluation are all keyed by tree nodes, which makes
adaptedness structural rather than something to check.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from fractions import Fraction

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
        validate: bool = True,
    ):
        self.horizon = int(horizon)
        self.states = tuple(tuple(level) for level in states)
        self.actions = tuple(tuple(acts) for acts in actions)
        self.joint_actions: tuple[JointAction, ...] = tuple(
            itertools.product(*(range(len(acts)) for acts in self.actions))
        )
        self.transitions = dict(transitions)
        self.running_costs = tuple(dict(d) for d in running_costs)
        self.terminal_costs = tuple(dict(d) for d in terminal_costs)
        self.state_dependent = bool(state_dependent)
        self.q_positive = False
        if validate:
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

    def running_cost_vector(self, t: int, prefix: Prefix, joint: JointAction) -> Vector:
        return tuple(
            self.running_costs[i][(t, self._key(prefix), joint[i])]
            for i in range(self.n_players)
        )

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

        # Markov data are keyed by the current state, so each (t, state) entry
        # is checked once; path-keyed data once per prefix.
        positive = True
        joints = self.joint_actions
        for t in range(self.horizon):
            for key in self._data_keys(t):
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
                    total = ZERO
                    for p in vec:
                        if not isinstance(p, Fraction):
                            raise GameValidationError("transition probabilities must be Fraction")
                        if p < 0:
                            raise GameValidationError("negative transition probability")
                        if p == 0:
                            positive = False
                        total += p
                    if total != ONE:
                        raise GameValidationError(
                            f"transition at t={t}, {self._where(key)}, {joint} sums to {total}, "
                            "not 1"
                        )
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
        for key in self._data_keys(self.horizon):
            try:
                g = tuple(table[key] for table in self.terminal_costs)
            except KeyError as exc:
                raise GameValidationError(
                    f"missing terminal cost at t={self.horizon}, {self._where(key)}"
                ) from exc
            if any(not isinstance(v, Fraction) for v in g):
                raise GameValidationError("terminal costs must be Fraction")
        self.q_positive = positive


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


class PathTree:
    """All prefixes of all paths, with deterministic (lexicographic) ids."""

    def __init__(self, spec: GameSpec):
        self.horizon = spec.horizon
        self.nodes: list[Node] = []
        self.levels: list[list[int]] = [[] for _ in range(spec.horizon + 1)]
        self._id_by_prefix: dict[Prefix, int] = {}
        for label in spec.states[0]:
            self._add_node(0, (label,), None)
        for t in range(spec.horizon):
            for nid in list(self.levels[t]):
                node = self.nodes[nid]
                kids = tuple(
                    self._add_node(t + 1, node.prefix + (label,), nid)
                    for label in spec.states[t + 1]
                )
                object.__setattr__(node, "children", kids)

    def _add_node(self, t: int, prefix: Prefix, parent: int | None) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(id=nid, t=t, prefix=prefix, parent=parent))
        self.levels[t].append(nid)
        self._id_by_prefix[prefix] = nid
        return nid

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def id_of(self, prefix: Prefix) -> int:
        try:
            return self._id_by_prefix[tuple(prefix)]
        except KeyError as exc:
            raise GameValidationError(f"unknown prefix {prefix}") from exc

    @property
    def paths(self) -> list[Prefix]:
        return [self.nodes[nid].prefix for nid in self.levels[self.horizon]]

    @property
    def n_paths(self) -> int:
        return len(self.levels[self.horizon])

    def subtree(self, start: int) -> list[int]:
        """Node ids reachable from ``start`` (inclusive), BFS order."""
        out = [start]
        i = 0
        while i < len(out):
            out.extend(self.nodes[out[i]].children)
            i += 1
        return out

    def decision_nodes(self, start: int) -> list[int]:
        """Subtree nodes at times < T, where actions are taken."""
        return [nid for nid in self.subtree(start) if self.nodes[nid].t < self.horizon]

    def group_by_time_state(self, nodes) -> dict[tuple[int, str], tuple[int, ...]]:
        """Nodes grouped by (time, current state), keys sorted, members in input order."""
        groups: dict[tuple[int, str], list[int]] = {}
        for nid in nodes:
            node = self.nodes[nid]
            groups.setdefault((node.t, node.state), []).append(nid)
        return {key: tuple(groups[key]) for key in sorted(groups)}


def build_path_tree(spec: GameSpec) -> PathTree:
    """Build the full prefix tree for a validated spec."""
    return PathTree(spec)


def subgame_key(spec: GameSpec, tree: PathTree) -> Callable[[int], Hashable]:
    """Key under which results for the subgame below a node may be shared.

    Markov data make the subgame below a prefix depend only on (t, x_t), so
    such specs key by (time, state) and their memos live on the lattice of
    those pairs; path-keyed specs key by node id. Only subgame values may be
    shared this way: policies stay per node.
    """
    if spec.state_dependent:
        nodes = tree.nodes
        return lambda nid: (nodes[nid].t, nodes[nid].state)
    return lambda nid: nid


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
    """Stop/continue map on prefixes; stopping happens at the first hit.

    Terminal nodes always stop, so the stop time is at most T on every path.
    Non-anticipativity is automatic because membership is keyed by node.
    """

    stopped: frozenset[int]

    @classmethod
    def at_time(cls, tree: PathTree, t0: int) -> StoppingTime:
        if not 0 <= t0 <= tree.horizon:
            raise GameValidationError(f"stopping time {t0} outside 0..{tree.horizon}")
        return cls(frozenset(tree.levels[t0]))

    @classmethod
    def hitting_state(cls, tree: PathTree, label: str) -> StoppingTime:
        ids = frozenset(n.id for n in tree.nodes if n.state == label)
        if not ids:
            raise GameValidationError(f"no node carries state {label!r}")
        return cls(ids)

    def stops_at(self, tree: PathTree, nid: int) -> bool:
        return nid in self.stopped or tree.node(nid).t == tree.horizon

    def frontier(self, tree: PathTree, start: int) -> list[int]:
        """First-stop nodes on paths from ``start``; requires stop time > t(start)."""
        if self.stops_at(tree, start):
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

    def stop_node_along(self, tree: PathTree, leaf: int) -> int:
        """The node where stopping occurs on the path ending at ``leaf``."""
        chain = []
        nid: int | None = leaf
        while nid is not None:
            chain.append(nid)
            nid = tree.node(nid).parent
        for node_id in reversed(chain):
            if self.stops_at(tree, node_id):
                return node_id
        return leaf


# -- measures and costs ------------------------------------------------------


def path_measure(
    spec: GameSpec, tree: PathTree, start: int, policy: Policy
) -> dict[Prefix, Fraction]:
    """Probability of each full path extending the start prefix.

    Paths not extending the prefix have probability zero and are omitted.
    The returned masses sum to exactly 1.
    """
    out: dict[Prefix, Fraction] = {}

    def walk(nid: int, mass: Fraction) -> None:
        node = tree.node(nid)
        if node.t == tree.horizon:
            out[node.prefix] = out.get(node.prefix, ZERO) + mass
            return
        vec = spec.transition_vector(node.t, node.prefix, policy.action(nid))
        for child, p in zip(node.children, vec):
            if p != 0:
                walk(child, mass * p)

    walk(start, ONE)
    return out


def cost_J(spec: GameSpec, tree: PathTree, start: int, policy: Policy) -> Vector:
    """Expected cost vector J(t, x, policy) from the start node, exact."""
    return _cost_below(spec, tree, start, policy, {})


def _cost_below(
    spec: GameSpec, tree: PathTree, nid: int, policy: Policy, memo: dict[int, Vector]
) -> Vector:
    hit = memo.get(nid)
    if hit is not None:
        return hit
    node = tree.node(nid)
    if node.t == tree.horizon:
        val = spec.terminal_vector(node.prefix)
    else:
        joint = policy.action(nid)
        vec = spec.transition_vector(node.t, node.prefix, joint)
        total = list(spec.running_cost_vector(node.t, node.prefix, joint))
        for child, p in zip(node.children, vec):
            if p != 0:
                sub = _cost_below(spec, tree, child, policy, memo)
                for i in range(len(total)):
                    total[i] += p * sub[i]
        val = tuple(total)
    memo[nid] = val
    return val


def truncate_game(
    spec: GameSpec,
    tree: PathTree,
    stopping: StoppingTime,
    terminal_map: dict[int, Vector],
    start: int | None = None,
) -> GameSpec:
    """Game with the same kernel whose cost functional stops at ``stopping``.

    Running costs vanish from the stop time on and the terminal cost is the
    supplied value at the first stopped prefix, so the new spec's J equals the
    truncated-game cost of the original one. Stopped prefixes reachable from
    ``start`` must have an entry in ``terminal_map``; unreachable ones default
    to zero, which the truncated costs never read from ``start``.
    """
    n = spec.n_players
    zero_vec = (ZERO,) * n
    if start is not None:
        for nid in stopping.frontier(tree, start):
            if nid not in terminal_map:
                raise GameValidationError(
                    f"no terminal value for reachable stopped prefix {tree.node(nid).prefix}"
                )

    stopped_by: dict[int, bool] = {}
    stop_node: dict[int, int] = {}
    for nid in (node_id for level in tree.levels for node_id in level):
        node = tree.node(nid)
        parent_stopped = stopped_by.get(node.parent, False) if node.parent is not None else False
        if parent_stopped:
            stopped_by[nid] = True
            stop_node[nid] = stop_node[node.parent]
        elif stopping.stops_at(tree, nid):
            stopped_by[nid] = True
            stop_node[nid] = nid
        else:
            stopped_by[nid] = False

    transitions: dict = {}
    running: list[dict] = [{} for _ in range(n)]
    terminal: list[dict] = [{} for _ in range(n)]
    for t in range(spec.horizon):
        for nid in tree.levels[t]:
            node = tree.node(nid)
            silent = stopped_by[nid]
            for joint in spec.joint_actions:
                transitions[(t, node.prefix, joint)] = spec.transition_vector(
                    t, node.prefix, joint
                )
            for i in range(n):
                for ai in range(len(spec.actions[i])):
                    running[i][(t, node.prefix, ai)] = (
                        ZERO if silent else spec.running_cost(i, t, node.prefix, ai)
                    )
    for nid in tree.levels[spec.horizon]:
        node = tree.node(nid)
        value = terminal_map.get(stop_node[nid], zero_vec)
        for i in range(n):
            terminal[i][node.prefix] = value[i]

    return GameSpec(
        horizon=spec.horizon,
        states=spec.states,
        actions=spec.actions,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=False,
    )
