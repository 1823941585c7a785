"""Central-planner layer: scalarize the set value and probe time consistency.

The planner weighs the players' costs with a convex weight vector, picks an
equilibrium minimizing the weighted cost at the root, and then re-solves the
same problem at every later prefix to see whether the chosen equilibrium's
continuation value would still be selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equilibria import (
    DEFAULT_POLICY_CAP,
    ValueSet,
    iter_equilibria,
    set_value_bruteforce,
)
from .errors import GameValidationError
from .model import ONE, ZERO, GameSpec, PathTree, Policy, Vector, cost_J, subgame_key

from .io import frac_from_str


@dataclass(frozen=True)
class Scalarization:
    """Nonnegative weights summing to one, exact."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise GameValidationError("empty weight vector")
        if any(w < 0 for w in self.weights):
            raise GameValidationError("weights must be nonnegative")
        if sum(self.weights) != ONE:
            raise GameValidationError(f"weights sum to {sum(self.weights)}, not 1")

    @classmethod
    def parse(cls, text: str) -> Scalarization:
        return cls(tuple(frac_from_str(part) for part in text.split(",")))

    @classmethod
    def uniform(cls, n: int) -> Scalarization:
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    def score(self, y: Vector) -> Fraction:
        if len(y) != len(self.weights):
            raise GameValidationError("weight vector length differs from payoff length")
        return sum((w * v for w, v in zip(self.weights, y)), ZERO)


@dataclass(frozen=True)
class PlannerOptimum:
    """Minimum weighted value over a set, with every attaining point."""

    has_equilibrium: bool
    value: Fraction | None = None
    argmin: tuple[Vector, ...] = ()


def planner_optimum(vs: ValueSet, lam: Scalarization) -> PlannerOptimum:
    """Minimize the weighted cost over a value set; empty sets are explicit."""
    if vs.is_empty:
        return PlannerOptimum(has_equilibrium=False)
    scored = [(lam.score(p), p) for p in vs.points]
    best = min(s for s, _ in scored)
    return PlannerOptimum(
        has_equilibrium=True,
        value=best,
        argmin=tuple(sorted(p for s, p in scored if s == best)),
    )


@dataclass(frozen=True)
class ProbeRow:
    t: int
    prefix: tuple[str, ...]
    planner_value: Fraction | None
    continuation_score: Fraction
    continuation_value: Vector
    consistent: bool


@dataclass(frozen=True)
class ProbeReport:
    """Per-prefix consistency of the time-0 planner selection."""

    optimum: PlannerOptimum
    chosen_value: Vector | None
    rows: tuple[ProbeRow, ...]
    first_inconsistency: ProbeRow | None
    dictatorship_value: Fraction

    @property
    def consistent(self) -> bool:
        return self.first_inconsistency is None


def dictatorship_value(
    spec: GameSpec, tree: PathTree, start: int, lam: Scalarization
) -> Fraction:
    """Minimum weighted cost over all controls, ignoring incentives.

    A single-agent backward induction over joint actions; the benchmark a
    coordinator could reach with enforced, non-equilibrium play. Memoized by
    :func:`subgame_key`.
    """
    key_of = subgame_key(spec, tree)
    memo: dict = {}

    def walk(nid: int) -> Fraction:
        key = key_of(nid)
        hit = memo.get(key)
        if hit is not None:
            return hit
        node = tree.node(nid)
        if node.t == tree.horizon:
            out = lam.score(spec.terminal_vector(node.prefix))
        else:
            best = None
            for joint in spec.joint_actions:
                cost = lam.score(spec.running_cost_vector(node.t, node.prefix, joint))
                for child, p in zip(
                    node.children, spec.transition_vector(node.t, node.prefix, joint)
                ):
                    if p != 0:
                        cost += p * walk(child)
                if best is None or cost < best:
                    best = cost
            out = best
        memo[key] = out
        return out

    try:
        return walk(start)
    finally:
        del walk  # the closure refers to itself; break the cycle so the memo dies here


def time_inconsistency_probe(
    spec: GameSpec,
    tree: PathTree,
    start: int,
    lam: Scalarization,
    *,
    cap: int = DEFAULT_POLICY_CAP,
) -> ProbeReport:
    """Select the planner-optimal equilibrium at the root, then re-plan later.

    Comparison happens at the value level: at each later prefix the chosen
    equilibrium's continuation value is scored against the planner optimum of
    that prefix's own set value. Requires a strictly positive kernel so every
    prefix matters. Set values are shared by :func:`subgame_key`; the
    witness's continuation cost is evaluated per node.
    """
    if not spec.q_positive:
        raise GameValidationError("the probe needs q > 0 so every prefix is reachable")

    best_score: Fraction | None = None
    witness: Policy | None = None
    values = set()
    for rec in iter_equilibria(spec, tree, start, cap=cap):
        values.add(rec.value)
        score = lam.score(rec.value)
        if best_score is None or score < best_score:
            best_score, witness = score, rec.policy
    optimum = planner_optimum(ValueSet.of(values), lam)
    if not optimum.has_equilibrium:
        return ProbeReport(
            optimum=optimum,
            chosen_value=None,
            rows=(),
            first_inconsistency=None,
            dictatorship_value=dictatorship_value(spec, tree, start, lam),
        )

    chosen_value = cost_J(spec, tree, start, witness)
    key_of = subgame_key(spec, tree)
    local_optima: dict = {}
    rows: list[ProbeRow] = []
    first_bad: ProbeRow | None = None
    for nid in tree.subtree(start):
        node = tree.node(nid)
        if nid == start or node.t >= tree.horizon:
            continue
        key = key_of(nid)
        local = local_optima.get(key)
        if local is None:
            local = planner_optimum(set_value_bruteforce(spec, tree, nid, cap=cap), lam)
            local_optima[key] = local
        continuation = cost_J(spec, tree, nid, witness)
        cont_score = lam.score(continuation)
        consistent = local.has_equilibrium and cont_score == local.value
        row = ProbeRow(
            t=node.t,
            prefix=node.prefix,
            planner_value=local.value,
            continuation_score=cont_score,
            continuation_value=continuation,
            consistent=consistent,
        )
        rows.append(row)
        if not consistent and first_bad is None:
            first_bad = row
    return ProbeReport(
        optimum=optimum,
        chosen_value=chosen_value,
        rows=tuple(rows),
        first_inconsistency=first_bad,
        dictatorship_value=dictatorship_value(spec, tree, start, lam),
    )
