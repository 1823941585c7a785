"""Verification layer for the set-value dynamic programming identity.

``verify_dpp`` compares the set value at a node (lhs) against the set built
from truncated games whose terminal data are selected pointwise from later
set values (rhs), for the full, state, symmetric, and Pareto variants: the
full variant by the recursion with off-path punishments, under path and
state selections alike, the other variants by enumeration. The module also
houses the two analytic demonstrations: the perturbed two-period
game where the Pareto recursion fails in both directions, and the two-period
linear-quadratic game with open-loop controls where composing stagewise
equilibria does not reproduce the whole-game equilibrium value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .equilibria import (
    DEFAULT_POLICY_CAP,
    DEFAULT_SELECTION_CAP,
    ValueSet,
    _check_class_size,
    _nash_flags,
    _one_step_costs,
    _Recursion,
    _variant_class,
    variant_set,
)
from .errors import EnumerationCapExceeded, GameValidationError, NumericInstabilityError
from .model import (
    PATH_CLASS,
    STATE_CLASS,
    GameSpec,
    PathTree,
    StoppingTime,
    Vector,
    build_path_tree,
)
from .presets import build_pareto_spec, pareto_tables

SELECTION_CLASSES = (PATH_CLASS, STATE_CLASS)


@dataclass(frozen=True)
class DppReport:
    """Outcome of one set-value comparison."""

    lhs: ValueSet
    rhs: ValueSet
    relation: str
    lhs_only: tuple[Vector, ...]
    rhs_only: tuple[Vector, ...]
    context: dict = field(default_factory=dict, compare=False)


def compare_sets(lhs: ValueSet, rhs: ValueSet, context: dict | None = None) -> DppReport:
    left, right = set(lhs.points), set(rhs.points)
    if left == right:
        relation = "equal"
    elif left < right:
        relation = "lhs_subset"
    elif right < left:
        relation = "rhs_subset"
    else:
        relation = "incomparable"
    return DppReport(
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        lhs_only=tuple(sorted(left - right)),
        rhs_only=tuple(sorted(right - left)),
        context=context or {},
    )


def verify_dpp(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    stopping: StoppingTime,
    *,
    variant: str = "full",
    selection_class: str = PATH_CLASS,
    policy_cap: int = DEFAULT_POLICY_CAP,
    selection_cap: int = DEFAULT_SELECTION_CAP,
) -> DppReport:
    """Compare V(start) with the union over selections psi of V^psi(start).

    A selection psi picks one value of V at each stopped prefix, one per
    (time, state) under ``STATE_CLASS`` selections; V^psi is the set of the
    game stopped there with values psi. The variant, the selection class,
    the class size (against ``policy_cap``) and the stopping time are
    checked before any work.

    The class-size check stays on the full variant, which enumerates no
    profile: it is what lets the recursion run on ``policy_cap`` (no
    product exceeds the class size), and it bounds the walk to the stopping
    time, which lists every stopped prefix in the report. Without it a deep
    Markov spec stopped at time t walks to and lists up to |states|^t
    prefixes; dropping it first needs a bound on the stopped prefixes.

    The full variant reads both sides from the recursion with off-path
    punishments (:class:`_Recursion`) on table rows: V is its E, and V^psi
    the same recursion on the game cut at the stopping time (which stops by
    (time, state)), psi carried at the stopped prefixes. Path selections
    below different children are independent, so one cut game carries the
    sets V; state selections couple prefixes, so each gets its own cut game.
    The other variants enumerate, one :func:`variant_set` per selection.
    Either way the selections, the product of the choice sets' sizes, are
    checked against ``selection_cap``. Strong Pareto compares with every
    control of the whole game, so it has no stopped-game set and is refused.
    """
    cls = _variant_class(variant)
    if variant == "strong-pareto":
        raise GameValidationError("the strong Pareto variant has no truncated-game set")
    if selection_class not in SELECTION_CLASSES:
        raise GameValidationError(f"selection class must be one of {SELECTION_CLASSES}")
    _check_class_size(spec, tree, start, cls, policy_cap)
    frontier_nodes = stopping.frontier(tree, start)
    if variant == "full":
        recursion = _Recursion(spec, tree, policy_cap)
        value_set = recursion.value_set
    else:
        value_set = functools.partial(variant_set, spec, tree, variant=variant, cap=policy_cap)
    lhs = value_set(start)
    node_sets = {nid: value_set(nid).points for nid in frontier_nodes}
    if selection_class == STATE_CLASS:
        groups = tree.group_by_time_state(frontier_nodes)
    else:
        groups = {nid: (nid,) for nid in frontier_nodes}
    choice_sets = []
    for key, (first, *others) in groups.items():
        if any(node_sets[other] != node_sets[first] for other in others):
            raise GameValidationError(
                "state-dependent selections need equal value sets at prefixes "
                f"sharing (time, state) {key}; the model is not state dependent there"
            )
        choice_sets.append(node_sets[first])

    n_selections = math.prod(map(len, choice_sets))
    if n_selections > selection_cap:
        raise EnumerationCapExceeded(
            "terminal selection enumeration", n_selections, selection_cap
        )

    psis = (
        {nid: value for members, value in zip(groups.values(), chosen) for nid in members}
        for chosen in itertools.product(*choice_sets)
    )
    if variant != "full":
        rhs = ValueSet.of(y for psi in psis for y in value_set(start, frontier=psi))
    elif selection_class == STATE_CLASS:  # coupled prefixes: one cut game per selection
        cuts = (recursion.stopped({nid: (y,) for nid, y in psi.items()}) for psi in psis)
        rhs = ValueSet.of(y for cut in cuts for y in cut.value_set(start))
    else:  # independent below different children: one cut game carries the sets
        rhs = recursion.stopped(node_sets).value_set(start)

    context = {
        "variant": variant,
        "selection_class": selection_class,
        "n_selections": n_selections,
        "stopped_prefixes": [list(tree.node(nid).prefix) for nid in frontier_nodes],
    }
    return compare_sets(lhs, rhs, context)


# -- Pareto counterexample -----------------------------------------------------


def check_pareto_eps(eps: Fraction) -> GameSpec:
    """Validate the perturbation by re-deriving the one-step game structure.

    For every selection of continuation values at the four branches, the
    perturbed first-period game (:func:`_one_step_costs`) must have exactly
    the Nash profiles (:func:`_nash_flags`) of its unperturbed limit. This
    re-derivation, not a hardcoded bound, decides whether ``eps`` is
    admissible. The branch sets are the recursion's rows; Nash profiles do
    not depend on the scale, so the limit games stay at the branches' scale.
    """
    spec = build_pareto_spec(eps)
    recursion = _Recursion(spec, build_path_tree(spec), DEFAULT_SELECTION_CAP)
    tables, root = recursion.tables, 0  # the row of s0
    branch_sets = [recursion.values(row)[0] for row in range(*tables.kids[root])]
    target = {  # each joint action's designated branch, by index
        tuple(map(int, key.split(","))): spec.states[1].index(s)
        for key, s in pareto_tables()["kernel_target"].items()
    }
    joints, strides, sizes = spec.joint_actions, tables.strides, tables.sizes
    for chosen in itertools.product(*branch_sets):
        perturbed = _one_step_costs(tables, root, chosen, joints)
        limit = [[chosen[target[joint]][i] for joint in joints] for i in range(spec.n_players)]
        if _nash_flags(perturbed, strides, sizes) != _nash_flags(limit, strides, sizes):
            raise GameValidationError(
                f"eps={eps} changes the equilibrium structure of a first-period game"
            )
    return spec


def pareto_dpp_counterexample(
    eps: Fraction = Fraction(1, 100),
    *,
    policy_cap: int = DEFAULT_POLICY_CAP,
    selection_cap: int = DEFAULT_SELECTION_CAP,
) -> DppReport:
    """Pareto set value vs its recursion on the perturbed two-period game.

    The report's context carries the exact branch value sets and their Pareto
    selections so callers can inspect the stage structure that drives the
    two-sided failure.
    """
    eps = Fraction(eps)
    spec = check_pareto_eps(eps)
    tree = build_path_tree(spec)
    root = tree.id_of(("s0",))
    report = verify_dpp(
        spec,
        tree,
        root,
        StoppingTime.at_time(tree, 1),
        variant="pareto",
        selection_class=PATH_CLASS,
        policy_cap=policy_cap,
        selection_cap=selection_cap,
    )

    branch_info = {}
    for s in spec.states[1]:
        nid = tree.id_of(("s0", s))
        full = variant_set(spec, tree, nid, cap=policy_cap)
        pareto = variant_set(spec, tree, nid, "pareto", cap=policy_cap)
        branch_info[s] = {
            "values": [[str(x) for x in p] for p in full.points],
            "pareto": [[str(x) for x in p] for p in pareto.points],
        }
    context = {**report.context, "eps": str(eps), "branch_values": branch_info}
    return replace(report, context=context)


# -- open-loop linear-quadratic two-period game --------------------------------


@dataclass(frozen=True)
class OpenLoopReport:
    """Whole-game vs composed stagewise equilibrium values.

    Controls are open loop: stage-0 actions are constants and stage-1 actions
    are affine in the first-period noise. Both equilibria are found by solving
    the linear first-order-condition systems of the quadratic costs, and the
    residuals certify stationarity.
    """

    sigma: float
    whole_game_value: tuple[float, float]
    composed_value: tuple[float, float]
    stage0_whole: tuple[float, float]
    stage0_composed: tuple[float, float]
    foc_residual_whole: float
    foc_residual_composed: float

    @property
    def gap(self) -> float:
        return max(
            abs(a - b) for a, b in zip(self.whole_game_value, self.composed_value)
        )


def open_loop_lq_demo(sigma: float = 0.0) -> OpenLoopReport:
    """Solve the two-period LQ game both ways and report the value gap.

    Cost of player i: E[ 0.5*s1_i^2 + 4*u_i^2 + 2*u_i - X2 ] with
    X1 = u_1 + u_2 + sigma*xi_1, X2 = (s1_1 + s1_2) * X1 + sigma*xi_2,
    stage-1 controls parameterized as s1_i = p_i + r_i*xi_1.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise GameValidationError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise GameValidationError("sigma must be nonnegative")

    # Whole game: unknowns (u1, u2, p1, p2, r1, r2). Expected cost of player i:
    # J_i = 0.5*(p_i^2 + r_i^2) + 4*u_i^2 + 2*u_i - (p1+p2)(u1+u2) - (r1+r2)*sigma
    a = np.zeros((6, 6))
    b = np.zeros(6)
    for i in range(2):
        # d/du_i: 8*u_i + 2 - (p1 + p2) = 0
        a[i, i] = 8.0
        a[i, 2] = a[i, 3] = -1.0
        b[i] = -2.0
        # d/dp_i: p_i - (u1 + u2) = 0
        a[2 + i, 2 + i] = 1.0
        a[2 + i, 0] = a[2 + i, 1] = -1.0
        # d/dr_i: r_i - sigma = 0
        a[4 + i, 4 + i] = 1.0
        b[4 + i] = sigma
    w = np.linalg.solve(a, b)
    res_whole = float(np.max(np.abs(a @ w - b)))
    u1, u2, p1, p2, r1, r2 = map(float, w)

    def whole_cost(i: int) -> float:
        ui, pi, ri = (u1, p1, r1) if i == 0 else (u2, p2, r2)
        return (
            0.5 * (pi * pi + ri * ri)
            + 4.0 * ui * ui
            + 2.0 * ui
            - (p1 + p2) * (u1 + u2)
            - (r1 + r2) * sigma
        )

    whole_value = (whole_cost(0), whole_cost(1))

    # Second period at state x: cost_i = 0.5*c_i^2 - (c1 + c2)*x. Stationarity
    # gives c_i = x, so the terminal value of either player is kappa * x^2
    # with kappa = 0.5*1^2 - (1 + 1).
    kappa = -1.5

    # First period against that terminal: J_i = 4u_i^2 + 2u_i + kappa*((u1+u2)^2 + sigma^2)
    a1 = np.array([[8.0 + 2.0 * kappa, 2.0 * kappa], [2.0 * kappa, 8.0 + 2.0 * kappa]])
    b1 = np.array([-2.0, -2.0])
    u = np.linalg.solve(a1, b1)
    res_comp = float(np.max(np.abs(a1 @ u - b1)))
    total = float(u[0] + u[1])
    composed_value = tuple(
        float(4.0 * ui * ui + 2.0 * ui + kappa * (total * total + sigma * sigma))
        for ui in u
    )

    rep = OpenLoopReport(
        sigma=sigma,
        whole_game_value=whole_value,
        composed_value=composed_value,
        stage0_whole=(u1, u2),
        stage0_composed=(float(u[0]), float(u[1])),
        foc_residual_whole=res_whole,
        foc_residual_composed=res_comp,
    )
    floats = (*whole_value, *composed_value, u1, u2, *u, res_whole, res_comp, rep.gap)
    if not all(map(math.isfinite, floats)):
        raise NumericInstabilityError(f"the open-loop values overflow at sigma={sigma}")
    return rep
