from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from gameval import (
    GameSpec,
    GameValidationError,
    Scalarization,
    ValueSet,
    build_path_tree,
    dictatorship_value,
    pareto_filter,
    planner_optimum,
    set_value_bruteforce,
    time_inconsistency_probe,
)
from gameval.presets import build_pareto_spec

from specgen import random_game


def test_scalarization_validation():
    Scalarization.parse("1/2,1/2")
    with pytest.raises(GameValidationError):
        Scalarization.parse("1/2,1/3")
    with pytest.raises(GameValidationError):
        Scalarization.parse("3/2,-1/2")


@pytest.mark.parametrize(
    "weights,message",
    [
        ((), "empty weight vector"),
        ((F(3, 2), F(-1, 2)), "weights must be nonnegative"),
        ((F(1, 2), F(1, 3)), "weights sum to 5/6, not 1"),
    ],
)
def test_scalarizations_off_the_simplex_are_rejected(weights, message):
    with pytest.raises(GameValidationError, match=message):
        Scalarization(weights)


def test_a_score_needs_one_weight_per_payoff():
    with pytest.raises(GameValidationError, match="weight vector length differs"):
        Scalarization.uniform(2).score((F(0),) * 3)


def test_optimum_symmetric_tie():
    vs = ValueSet.of([(F(0), F(1)), (F(1), F(0))])
    opt = planner_optimum(vs, Scalarization.parse("1/2,1/2"))
    assert opt.value == F(1, 2)
    assert set(opt.argmin) == set(vs.points)


def test_optimum_on_the_three_point_set():
    vs = ValueSet.of([(F(0), F(1, 4)), (F(1, 4), F(0)), (F(1, 8), F(1, 8))])
    opt = planner_optimum(vs, Scalarization.parse("1/2,1/2"))
    assert opt.value == F(1, 8)
    # all three points tie at 1/8 and every tie is reported
    assert (F(1, 8), F(1, 8)) in opt.argmin
    assert len(opt.argmin) == 3


def test_optimum_empty_set_is_explicit():
    opt = planner_optimum(ValueSet.of([]), Scalarization.parse("1/2,1/2"))
    assert not opt.has_equilibrium
    assert opt.value is None
    assert opt.argmin == ()


def test_unbalanced_weights_break_the_tie():
    vs = ValueSet.of([(F(0), F(1, 4)), (F(1, 4), F(0)), (F(1, 8), F(1, 8))])
    opt = planner_optimum(vs, Scalarization.parse("3/4,1/4"))
    assert opt.value == F(1, 16)
    assert opt.argmin == ((F(0), F(1, 4)),)


def test_argmin_lands_in_the_pareto_set():
    rng = random.Random(67)
    for _ in range(100):
        points = [
            (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
            for _ in range(rng.randint(1, 7))
        ]
        vs = ValueSet.of(points)
        w = F(rng.randint(1, 5))
        lam = Scalarization((w / (w + 1), 1 - w / (w + 1)))
        assert all(w > 0 for w in lam.weights)
        opt = planner_optimum(vs, lam)
        front = set(pareto_filter(vs).points)
        assert set(opt.argmin) <= front


def test_rescaled_weights_share_the_argmin():
    rng = random.Random(71)
    vs = ValueSet.of(
        [(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)) for _ in range(6)]
    )
    lam = Scalarization.parse("2/5,3/5")
    scale = F(7, 3)
    raw = [scale * w for w in lam.weights]
    renormalized = Scalarization(tuple(w / sum(raw) for w in raw))
    assert planner_optimum(vs, lam).argmin == planner_optimum(vs, renormalized).argmin


def test_probe_flags_the_perturbed_two_period_game():
    spec = build_pareto_spec(F(1, 100))
    tree = build_path_tree(spec)
    root = tree.id_of(("s0",))
    rep = time_inconsistency_probe(spec, tree, root, Scalarization.parse("1/2,1/2"))
    assert rep.optimum.has_equilibrium
    assert not rep.consistent
    rows = {row.prefix[-1]: row for row in rep.rows}
    # the chosen equilibrium continues with the low branch value at s10: consistent
    assert rows["s10"].consistent
    assert rows["s10"].continuation_value == (F(2), F(2))
    # at s11 the continuation is the high branch value but re-planning prefers (1,5)
    assert not rows["s11"].consistent
    assert rows["s11"].continuation_value == (F(6), F(6))
    assert rows["s11"].planner_value == F(3)
    assert rep.first_inconsistency is rep.rows[0] or rep.first_inconsistency in rep.rows


def test_probe_single_equilibrium_spec_is_consistent():
    spec = GameSpec(
        horizon=2,
        states=[["a"], ["b", "c"], ["d", "e"]],
        actions=[["0"], ["0"]],
        transitions={
            (0, ("a",), (0, 0)): (F(1, 2), F(1, 2)),
            (1, ("a", "b"), (0, 0)): (F(1, 3), F(2, 3)),
            (1, ("a", "c"), (0, 0)): (F(2, 3), F(1, 3)),
        },
        running_costs=[
            {(0, ("a",), 0): F(1), (1, ("a", "b"), 0): F(0), (1, ("a", "c"), 0): F(2)},
            {(0, ("a",), 0): F(0), (1, ("a", "b"), 0): F(1), (1, ("a", "c"), 0): F(0)},
        ],
        terminal_costs=[
            {("a", "b", "d"): F(1), ("a", "b", "e"): F(0), ("a", "c", "d"): F(2), ("a", "c", "e"): F(1)},
            {("a", "b", "d"): F(0), ("a", "b", "e"): F(2), ("a", "c", "d"): F(0), ("a", "c", "e"): F(3)},
        ],
    )
    tree = build_path_tree(spec)
    root = tree.id_of(("a",))
    rep = time_inconsistency_probe(spec, tree, root, Scalarization.parse("1/2,1/2"))
    assert rep.consistent
    assert rep.rows


def test_probe_on_random_specs_scores_match_recomputation():
    rng = random.Random(73)
    lam = Scalarization.parse("1/2,1/2")
    for _ in range(6):
        spec = random_game(rng, max_periods=2)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        rep = time_inconsistency_probe(spec, tree, root, lam)
        if not rep.optimum.has_equilibrium:
            continue
        assert lam.score(rep.chosen_value) == rep.optimum.value
        for row in rep.rows:
            nid = tree.id_of(row.prefix)
            local = planner_optimum(set_value_bruteforce(spec, tree, nid), lam)
            assert row.planner_value == local.value
            assert row.consistent == (
                local.has_equilibrium and row.continuation_score == local.value
            )


def test_dictatorship_benchmark(table2_left):
    spec, tree, root = table2_left
    lam = Scalarization.parse("1/2,1/2")
    assert dictatorship_value(spec, tree, root, lam) == F(1)
    # never above the planner's equilibrium optimum
    opt = planner_optimum(set_value_bruteforce(spec, tree, root), lam)
    assert dictatorship_value(spec, tree, root, lam) <= opt.value
