"""Reference implementations the tests compare the package against.

Each one is direct and slow: the truncated game is rebuilt as a path-keyed
spec prefix by prefix, the path measure by recursion over the tree, the
values of every path-class policy by enumerating them all, the Nash
profiles of a static game by trying every unilateral deviation, and the PDE
bracket by a scan of every (action, z) pair at one point. The package
computes none of these itself, so they live here, next to the tests that use
them. One is a former layout instead: the monotone sweep with full-depth y
pads, every coefficient as an (nx, 1) column and a loop that walks the
groups every step, which the current sweep must match bit for bit.

A spec's data as tuple-keyed dictionaries of Fractions, the form the package
no longer keeps, come from the former dict walk of its document (``views``),
and ``game_doc`` writes such dictionaries back as a document to load.
"""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction

from gameval.equilibria import (
    DEFAULT_POLICY_CAP,
    EquilibriumRecord,
    ValueSet,
    _units_for,
    iter_equilibria,
)
from gameval.errors import EnumerationCapExceeded, GameValidationError, NumericInstabilityError
from gameval.io import dump_game, load_game
import numpy as np

from gameval.hjb import (
    _NEG_TOL,
    CoupledCost,
    DiffusionGameSpec,
    GridConfig,
    PdeField,
    _coefficients,
    _terminal_layer,
    first_diff,
    second_diff,
)
from gameval.model import (
    ONE,
    PATH_CLASS,
    ZERO,
    GameSpec,
    PathTree,
    Policy,
    Prefix,
    StoppingTime,
    Vector,
    _Scope,
)

# -- spec documents and the former dict walk ----------------------------------------


def dict_walk(doc: dict, factor: int = 1) -> dict:
    """A valid spec document read and compiled the former way, by key lookup.

    The document becomes tuple-keyed dictionaries of Fractions, the former
    ``GameSpec`` data (``transitions``, ``running_costs``, ``terminal_costs``),
    and ``q_positive`` is read off them. Tables are compiled by looking each
    key up, as ``Tables`` did: level t's keys are its states on Markov specs,
    else its prefixes in id order, and level t's scale is ``factor`` times the
    lcm of L_t·scale[t+1] (L_t: the lcm of the level's kernel denominators) and
    the level's cost denominators. Returns those dictionaries and ``q_positive``
    with the tables' ``scale``, ``kern``, ``cost``, ``end`` and ``kids``.
    """
    horizon, states, actions = doc["horizon"], doc["states"], doc["actions"]
    markov = doc.get("flags", {}).get("state_dependent", False)

    def split(key_text: str):
        t, where, part = key_text.split("|")
        return int(t), where if markov else tuple(where.split("/")), part

    transitions = {}
    for key_text, vec in doc["transitions"].items():
        t, key, part = split(key_text)
        joint = tuple(acts.index(label) for acts, label in zip(actions, part.split(",")))
        transitions[(t, key, joint)] = tuple(Fraction(vec.get(s, "0")) for s in states[t + 1])
    running = []
    for acts, table in zip(actions, doc["running_costs"]):
        entry = {}
        for key_text, cost in table.items():
            t, key, label = split(key_text)
            entry[(t, key, acts.index(label))] = Fraction(cost)
        running.append(entry)
    terminal = [
        {(key if markov else tuple(key.split("/"))): Fraction(cost) for key, cost in table.items()}
        for table in doc["terminal_costs"]
    ]

    keys = [
        states[t] if markov else list(itertools.product(*states[: t + 1]))
        for t in range(horizon + 1)
    ]
    joints = list(itertools.product(*(range(len(acts)) for acts in actions)))
    data = [(t, key) for t in range(horizon) for key in keys[t]]
    kern = [[transitions[(t, key, joint)] for joint in joints] for t, key in data]
    cost = [
        [[table[(t, key, a)] for a in range(len(acts))] for table, acts in zip(running, actions)]
        for t, key in data
    ]
    end = [[table[key] for table in terminal] for key in keys[horizon]]
    offset = list(itertools.accumulate(map(len, keys), initial=0))
    scale = [math.lcm(*(x.denominator for g in end for x in g))] * (horizon + 1)
    for t in reversed(range(horizon)):
        level = range(offset[t], offset[t + 1])
        step = math.lcm(*(x.denominator for r in level for vec in kern[r] for x in vec))
        costs = (x.denominator for r in level for vec in cost[r] for x in vec)
        scale[t] = math.lcm(step * scale[t + 1], *costs)
    scale = [s * factor for s in scale]

    def ints(vec, over: int) -> tuple[int, ...]:
        return tuple(x.numerator * (over // x.denominator) for x in vec)

    kids = []
    for row, (t, _) in enumerate(data):
        width = len(states[t + 1])
        first = offset[t + 1] + (0 if markov else (row - offset[t]) * width)
        kids.append((first, first + width))
    return {
        "transitions": transitions,
        "running_costs": tuple(running),
        "terminal_costs": tuple(terminal),
        "q_positive": all(p > 0 for vec in transitions.values() for p in vec),
        "scale": scale,
        "kern": [
            tuple(ints(vec, scale[t] // scale[t + 1]) for vec in row)
            for (t, _), row in zip(data, kern)
        ],
        "cost": [tuple(ints(vec, scale[t]) for vec in row) for (t, _), row in zip(data, cost)],
        "end": [None] * len(data) + [ints(g, scale[horizon]) for g in end],
        "kids": kids,
    }


def game_doc(
    *, horizon, states, actions, transitions, running_costs, terminal_costs, state_dependent=False
) -> dict:
    """The spec document of :func:`dict_walk`'s dictionaries, keys in their order.

    Transitions are keyed ``(t, key, joint action)``, running costs ``(t, key,
    own action)`` and terminal costs ``key``, where a key is a state label on
    Markov specs and a prefix otherwise; every value is a Fraction.
    """

    def where(key) -> str:
        return key if state_dependent else "/".join(key)

    def labels(joint) -> str:
        return ",".join(actions[i][a] for i, a in enumerate(joint))

    return {
        "horizon": horizon,
        "players": len(actions),
        "states": [list(level) for level in states],
        "actions": [list(acts) for acts in actions],
        "flags": {"state_dependent": bool(state_dependent)},
        "transitions": {
            f"{t}|{where(key)}|{labels(joint)}": dict(zip(states[t + 1], map(str, vec)))
            for (t, key, joint), vec in transitions.items()
        },
        "running_costs": [
            {f"{t}|{where(key)}|{actions[i][a]}": str(c) for (t, key, a), c in table.items()}
            for i, table in enumerate(running_costs)
        ],
        "terminal_costs": [
            {where(key): str(c) for key, c in table.items()} for table in terminal_costs
        ],
    }


_VIEWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def views(spec: GameSpec) -> dict:
    """:func:`dict_walk` of the spec's document, built once per spec."""
    if spec not in _VIEWS:
        _VIEWS[spec] = dict_walk(dump_game(spec))
    return _VIEWS[spec]


def rebuilt(spec: GameSpec, **changes) -> GameSpec:
    """``spec`` loaded again from :func:`game_doc`, with ``changes`` to its arguments."""
    view = views(spec)
    fields = dict(
        horizon=spec.horizon,
        states=spec.states,
        actions=spec.actions,
        transitions=view["transitions"],
        running_costs=view["running_costs"],
        terminal_costs=view["terminal_costs"],
        state_dependent=spec.state_dependent,
    )
    return load_game(game_doc(**{**fields, **changes}))


def _key(spec: GameSpec, prefix: Prefix):
    return prefix[-1] if spec.state_dependent else prefix


def transition_vector(spec: GameSpec, t: int, prefix: Prefix, joint) -> Vector:
    """Probabilities over ``states[t + 1]`` at the prefix under the joint action."""
    return views(spec)["transitions"][(t, _key(spec, prefix), joint)]


def running_cost(spec: GameSpec, player: int, t: int, prefix: Prefix, own_action: int) -> Fraction:
    return views(spec)["running_costs"][player][(t, _key(spec, prefix), own_action)]


def terminal_vector(spec: GameSpec, path: Prefix) -> Vector:
    return tuple(table[_key(spec, path)] for table in views(spec)["terminal_costs"])


# -- stopping, measures and truncation -----------------------------------------


def stop_node_along(stopping: StoppingTime, tree: PathTree, leaf: int) -> int:
    """The node where stopping occurs on the path ending at ``leaf``."""
    chain = []
    nid: int | None = leaf
    while nid is not None:
        chain.append(nid)
        nid = tree.node(nid).parent
    for node_id in reversed(chain):
        if stopping.stops_at(tree, node_id):
            return node_id
    return leaf


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
        vec = transition_vector(spec, node.t, node.prefix, policy.action(nid))
        for child, p in zip(node.children, vec):
            if p != 0:
                walk(child, mass * p)

    walk(start, ONE)
    return out


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

    # The node where play stopped on the way to each node, None before any stop.
    stop_node: dict[int | None, int | None] = {None: None}
    for node in tree.nodes:  # parents come before their children
        stop = stop_node[node.parent]
        if stop is None and stopping.stops_at(tree, node.id):
            stop = node.id
        stop_node[node.id] = stop

    transitions: dict = {}
    running: list[dict] = [{} for _ in range(n)]
    terminal: list[dict] = [{} for _ in range(n)]
    for t in range(spec.horizon):
        for nid in tree.levels[t]:
            node = tree.node(nid)
            silent = stop_node[nid] is not None
            for joint in spec.joint_actions:
                transitions[(t, node.prefix, joint)] = transition_vector(
                    spec, t, node.prefix, joint
                )
            for i in range(n):
                for ai in range(len(spec.actions[i])):
                    running[i][(t, node.prefix, ai)] = (
                        ZERO if silent else running_cost(spec, i, t, node.prefix, ai)
                    )
    for nid in tree.levels[spec.horizon]:
        node = tree.node(nid)
        value = terminal_map.get(stop_node[nid], zero_vec)
        for i in range(n):
            terminal[i][node.prefix] = value[i]

    return rebuilt(
        spec,
        transitions=transitions,
        running_costs=running,
        terminal_costs=terminal,
        state_dependent=False,
    )


# -- equilibria ------------------------------------------------------------------


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
    assignments = itertools.product(range(len(units.options)), repeat=len(units.members))
    joints = (map(units.options.__getitem__, a) for a in assignments)
    return ValueSet.of(scope.value(units.policy(js, PATH_CLASS).action) for js in joints)


def nash_profiles(sizes, table: dict) -> list:
    """Pure Nash profiles of a static cost game, in the order of ``table``.

    ``table`` maps every joint action (player i has ``sizes[i]`` actions) to
    its cost vector. A profile is Nash when no player lowers its own cost by
    changing its own action alone.
    """
    return [
        joint
        for joint, value in table.items()
        if all(
            table[joint[:i] + (ai,) + joint[i + 1 :]][i] >= value[i]
            for i, size in enumerate(sizes)
            for ai in range(size)
        )
    ]


# -- the PDE bracket -------------------------------------------------------------


def hamiltonian(
    spec: DiffusionGameSpec,
    z_values,
    t: float,
    x: float,
    y,
    grads: dict,
    return_argmin: bool = False,
):
    """Minimized PDE bracket over the joint action and z grids at one point.

    ``grads`` supplies the finite-difference derivatives: ``w_xx`` (scalar),
    ``w_y`` and ``w_yx`` (length-N), and ``w_yy`` (N x N). The y argument is
    unused by the bracket itself but kept for symmetric call sites.
    """
    del y
    n = spec.n_players
    costs = CoupledCost(spec)
    w_xx = float(grads["w_xx"])
    w_y = [float(v) for v in grads["w_y"]]
    w_yx = [float(v) for v in grads["w_yx"]]
    w_yy = [[float(v) for v in row] for row in grads["w_yy"]]
    best = math.inf
    best_arg = None
    for a in spec.joint_actions:
        for z in itertools.product(z_values, repeat=n):
            val = 0.5 * w_xx
            for i in range(n):
                val += z[i] * w_yx[i]
                for j in range(n):
                    val += 0.5 * z[i] * z[j] * w_yy[i][j]
            for i in range(n):
                ex = max(costs.excess(i, t, x, a, z[i]), 0.0)
                val += ex**1.5 - costs.own_min(i, t, x, a, z[i]) * w_y[i]
            if val < best:
                best, best_arg = val, (a, z)
    if return_argmin:
        return best, best_arg
    return best


# -- the monotone sweep in its former layout ---------------------------------------


class PaddedLatticeTerms:
    """The monotone scheme's terms with y pads of P = max|m| and column operands.

    Each step copies W into one padded array, read flat. In x, the edge rows
    are replicated J deep, with one spare row beyond them at each end; every
    y axis is padded by P with +inf, so an axis holds R = ny + 2P nodes and a
    stencil that leaves the y grid stays inside its own row's pad. Every
    drift factor is an (nx, 1) column, broadcast over the y plane.
    """

    def __init__(self, grid, w, drifts, stencils):
        n, nx, ny = w.ndim - 1, grid.nx, grid.ny
        big_j = max(j for j, _ in stencils.values())
        pad = max(abs(mi) for _, m in stencils.values() for mi in m)
        r = ny + 2 * pad
        plane = r**n
        self.hy = grid.hy
        self.shape = (nx, plane)
        padded = np.full((nx + 2 * big_j + 2,) + (r,) * n, np.inf)
        flat = padded.reshape(-1)
        y_in = (slice(pad, pad + ny),) * n
        self.cube_shape, self.y_in = (nx,) + (r,) * n, y_in
        self.w_in = padded[(slice(big_j + 1, big_j + 1 + nx),) + y_in]
        self.ghosts = (
            padded[(slice(1, big_j + 1),) + y_in],
            padded[(slice(big_j + 1 + nx, 2 * big_j + 1 + nx),) + y_in],
        )
        c, size = (big_j + 1) * plane, nx * plane

        def core(offset, rows=nx):
            return flat[c + offset:c + offset + rows * plane].reshape(rows, plane)

        self.centre = core(0)
        self.z_term, self.tmp = np.empty(self.shape), np.empty(self.shape)
        self.diffs, splits = [], []
        for k in range(n):
            s = r ** (n - 1 - k)
            diff = np.empty((nx + 1, plane))
            cube = diff.reshape((nx + 1,) + (r,) * n)
            edges = [cube[(slice(None),) * (k + 1) + (e,)] for e in (pad, pad + ny)]
            self.diffs.append((core(0, nx + 1), core(-s, nx + 1), diff, edges))
            splits.append((diff.reshape(-1)[s:s + size].reshape(self.shape), diff[:nx]))
        self.upwind = [
            (np.maximum(mu, 0.0)[:, None], np.minimum(mu, 0.0)[:, None]) + splits[i]
            for i, mu in drifts
        ]
        self.drift_terms = [np.empty(self.shape) for _ in drifts]
        self.plans = {}
        for z, (j, m) in stencils.items():
            o = j * plane + sum(mk * r ** (n - 1 - k) for k, mk in enumerate(m))
            self.plans[z] = 0.5 / (j * grid.hx) ** 2, core(o), core(-o)

    def interior(self, arr):
        return arr.reshape(self.cube_shape)[(slice(None),) + self.y_in]

    def update(self, w):
        self.w_in[...] = w
        self.ghosts[0][...] = w[0]
        self.ghosts[1][...] = w[-1]
        for upper, lower, diff, edges in self.diffs:
            np.subtract(upper, lower, out=diff)
            np.divide(diff, self.hy, out=diff)
            for edge in edges:
                edge[...] = 0.0
        for (mu_pos, mu_neg, forward, backward), out in zip(self.upwind, self.drift_terms):
            np.multiply(mu_pos, forward, out=out)
            np.multiply(mu_neg, backward, out=self.tmp)
            np.add(out, self.tmp, out=out)
        return self.drift_terms

    def second_order(self, z):
        coef, plus, minus = self.plans[z]
        out, centre = self.z_term, self.centre
        np.subtract(plus, centre, out=out)
        np.add(out, minus, out=out)
        np.subtract(out, centre, out=out)
        np.multiply(out, coef, out=out)
        return out


def padded_solve_w(spec: DiffusionGameSpec, grid: GridConfig) -> PdeField:
    """``solve_w`` of a monotone grid, swept with ``PaddedLatticeTerms`` and column excesses."""
    ht, nt = grid.resolve_ht(spec)
    xs = grid.x_values
    spec.check_bounds(xs)
    stencils = grid.lattice_stencils(spec.n_players)
    drifts, groups = _coefficients(spec, xs, stencils)
    groups = {
        z: {ids: ex[:, None] for ids, ex in by_ids.items()} for z, by_ids in groups.items()
    }
    w = _terminal_layer(spec, grid)
    layers = {grid.t_final: w.copy()}
    want_times = set(grid.store_times) | {0.0, grid.t_final}
    terms = PaddedLatticeTerms(grid, w, drifts, stencils)
    with np.errstate(over="ignore", invalid="ignore"):
        return padded_sweep(spec, grid, w, layers, want_times, ht, nt, terms, groups)


def padded_sweep(spec, grid, w, layers, want_times, ht, nt, terms, groups):
    """The time loop that walks every group, adds every operand and copies W each step."""
    min_w = float(w.min())
    floor = -_NEG_TOL if grid.monotone else -math.inf
    val, h_min = np.empty(terms.shape), np.empty(terms.shape)
    h_in = terms.interior(h_min)
    for step in range(1, nt + 1):
        drift_terms = terms.update(w)
        h_min.fill(np.inf)
        for z, by_ids in groups.items():
            z_term = terms.second_order(z)
            for ids, excess in by_ids.items():
                np.add(z_term, excess, out=val)
                for k in ids:
                    np.add(val, drift_terms[k], out=val)
                np.minimum(h_min, val, out=h_min)

        np.multiply(h_in, ht, out=h_in)
        np.add(w, h_in, out=w)
        mn = float(w.min())
        if not (math.isfinite(mn) and mn >= floor and math.isfinite(float(w.max()))):
            what = "non-finite or negative" if grid.monotone else "non-finite"
            raise NumericInstabilityError(
                f"{what} W at step {step}/{nt} (t={grid.t_final - step * ht:.5f}, "
                f"min W={mn:.3e}); refine the grid or lower cfl_safety"
            )
        min_w = min(min_w, mn)
        t_now = grid.t_final - step * ht
        for wanted in want_times:
            if abs(t_now - wanted) <= 0.5 * ht and wanted not in layers:
                layers[wanted] = w.copy()
    layers[0.0] = w.copy()
    return PdeField(spec=spec, grid=grid, layers=layers, ht=ht, nt=nt, min_w=min_w)


# -- the coefficient table and the scalar oracle in their former layouts ---------------


def per_joint_coefficients(spec: DiffusionGameSpec, xs, zs) -> tuple[list, dict]:
    """``_coefficients`` with every own-action minimum taken once per joint action."""
    n = spec.n_players
    grids = spec.action_grids
    drift = {
        a: np.array([spec.drift(0.0, float(x), a) for x in xs], dtype=float)
        for a in spec.joint_actions
    }
    running = [
        [np.array([spec.running[i](0.0, float(x), ai) for x in xs], dtype=float) for ai in g]
        for i, g in enumerate(grids)
    ]

    def own_min(i, a, z_i):
        best = np.full(len(xs), math.inf)
        for k, ai in enumerate(grids[i]):
            c = running[i][k] + drift[a[:i] + (ai,) + a[i + 1:]] * z_i
            best = np.where(c < best, c, best)
        return best

    drifts = []
    drift_ids = {}
    groups = {}
    for idx in itertools.product(*(range(len(g)) for g in grids)):
        a = tuple(g[k] for g, k in zip(grids, idx))
        for z in zs:
            ids = []
            excess_sum = 0.0
            for i in range(n):
                om = own_min(i, a, z[i])
                ex = (running[i][idx[i]] + drift[a] * z[i]) - om
                excess_sum = excess_sum + np.maximum(ex, 0.0) ** 1.5
                key = (i, om.tobytes())
                if key not in drift_ids:
                    drift_ids[key] = len(drifts)
                    drifts.append((i, -om))
                ids.append(drift_ids[key])
            by_ids = groups.setdefault(z, {})
            ids = tuple(ids)
            by_ids[ids] = np.minimum(by_ids[ids], excess_sum) if ids in by_ids else excess_sum
    return drifts, groups


def diff_call_hjb(terminal, actions, x_lo, x_hi, nx, t_final, safety=0.4) -> np.ndarray:
    """``single_player_hjb`` stepped with fresh ``first_diff`` and ``second_diff`` arrays."""
    xs = np.linspace(x_lo, x_hi, nx)
    hx = (x_hi - x_lo) / (nx - 1)
    a_max = max(abs(float(a)) for a in actions)
    bound = hx * hx
    if a_max > 0:
        bound = min(bound, hx / a_max)
    ht = safety * bound
    nt = max(1, math.ceil(t_final / ht))
    ht = t_final / nt
    v = np.array([terminal(float(x)) for x in xs])
    for _ in range(nt):
        v_xx = second_diff(v, hx, axis=0)
        fwd = first_diff(v, hx, axis=0, mode="forward")
        bwd = first_diff(v, hx, axis=0, mode="backward")
        drift_term = None
        for a in actions:
            a = float(a)
            term = a * (fwd if a > 0 else bwd)
            drift_term = term if drift_term is None else np.minimum(drift_term, term)
        v = v + ht * (0.5 * v_xx + drift_term)
        if not math.isfinite(float(v.min())):
            raise NumericInstabilityError("oracle HJB solve became non-finite")
    return v
