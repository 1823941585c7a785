"""Central-planner layer: scalarize the set value and probe time consistency.

The planner weighs the players' costs with a convex weight vector, picks an
equilibrium minimizing the weighted cost at the root, and then re-solves the
same problem at every later prefix to see whether the chosen equilibrium's
continuation value would still be selected. The root's set value comes from
its enumeration (``equilibria.value_index``); the later prefixes' set values
are the backward recursion's rows (``equilibria._Recursion``), which equal
enumeration at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem, mul

from .equilibria import (
    DEFAULT_POLICY_CAP,
    ValueSet,
    _Recursion,
    value_index,
)
from .errors import GameValidationError
from .model import ONE, ZERO, GameSpec, PathTree, Vector, _Scope, induct, tables_of

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

    def over_common_denominator(self) -> tuple[list[int], int]:
        """Integer weights and their common denominator, for exact integer scores."""
        den = math.lcm(*(w.denominator for w in self.weights))
        return [w.numerator * (den // w.denominator) for w in self.weights], den

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
    coordinator could reach with enforced, non-equilibrium play. It runs on
    the rows of the compiled tables, so Markov specs are solved once per
    (time, state), with the weights over their common denominator.
    """
    if len(lam.weights) != spec.n_players:
        raise GameValidationError(
            f"{len(lam.weights)} weights for a game of {spec.n_players} players"
        )
    tables = tables_of(spec, tree)
    weights, den = lam.over_common_denominator()
    val, menus = [0] * tables.offset[-1], [None] * tables.offset[-1]
    rows = tables.rows_below(tree, start)
    for row in rows:
        if tables.end[row] is not None:
            val[row] = sum(map(mul, weights, tables.end[row]))
        else:
            cost = tables.cost[row]
            run = [sum(map(mul, weights, map(getitem, cost, j))) for j in spec.joint_actions]
            menus[row] = run, tables.kern[row]
    induct([row for row in reversed(rows) if menus[row]], tables.kids, menus, val)
    return Fraction(val[rows[0]], tables.scale[tree.node(start).t] * den)


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
    prefix matters. The root's values and the witness come from
    :func:`~gameval.equilibria.value_index`, the enumeration the root's set
    value shares; the witness is the first equilibrium of least score.

    A later prefix's set value is its table row's recursion set
    (:class:`~gameval.equilibria._Recursion`, memoized with the tables), read
    with ``cap`` as its selection cap: the recursion equals brute force at
    every node (the dynamic programming principle), and a row's selection
    count is at most the start's class size, already checked.
    Scores are compared in integers; the witness's continuation costs at
    every prefix come from one walk of the start's subtree per player.
    """
    if not spec.q_positive:
        raise GameValidationError("the probe needs q > 0 so every prefix is reachable")
    # First, so that a weight vector of the wrong length fails before the enumeration.
    dictatorship = dictatorship_value(spec, tree, start, lam)

    index = value_index(spec, tree, start, cap=cap)
    optimum = planner_optimum(ValueSet.of(index), lam)
    # First-enumerated order, first record per value: the first of least score.
    witness = next(
        (rec.policy for value, rec in index.items() if lam.score(value) == optimum.value), None
    )
    chosen_value: Vector | None = None
    rows: list[ProbeRow] = []
    if witness is not None:
        scope = _Scope(spec, tree, start)
        tables, recursion = scope.tables, _Recursion(spec, tree, cap)
        weights, den = lam.over_common_denominator()
        costs = [scope.costs(witness.action, i) for i in range(spec.n_players)]
        chosen_value = tuple(scope.fraction(col[0]) for col in costs)
        for u in scope.inner[1:]:
            node = tree.node(scope.nodes[u])
            points, _ = recursion.values(scope.rows[u])
            local = min((sum(map(mul, weights, p)) for p in points), default=None)
            scale = tables.scale[node.t]
            cont_score = sum(map(mul, weights, (col[u] for col in costs)))
            row = ProbeRow(
                t=node.t,
                prefix=node.prefix,
                planner_value=None if local is None else Fraction(local, scale * den),
                continuation_score=Fraction(cont_score, scale * den),
                continuation_value=tuple(Fraction(col[u], scale) for col in costs),
                consistent=cont_score == local,
            )
            rows.append(row)
    return ProbeReport(
        optimum=optimum,
        chosen_value=chosen_value,
        rows=tuple(rows),
        first_inconsistency=next((row for row in rows if not row.consistent), None),
        dictatorship_value=dictatorship,
    )
