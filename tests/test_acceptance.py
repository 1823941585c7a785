"""Acceptance gate: one check per shipped guarantee, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 6b pins the exact left-hand Pareto set of the perturbed
two-period game. Its three points are worked out by hand from the stage-1
Nash values (see the comment in the test), so the expected set can be traced
without running the program.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np

from gameval import (
    Policy,
    Scalarization,
    StoppingTime,
    ValueSet,
    build_path_tree,
    cost_J,
    open_loop_lq_demo,
    pareto_dpp_counterexample,
    pareto_filter,
    planner_optimum,
    set_value_bruteforce,
    set_value_dpp,
    verify_dpp,
)
from gameval.hjb import nodal_set, pde_preset, single_player_hjb, solve_w
from gameval.model import STATE_CLASS

from specgen import random_game


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def max_norm(y, ref) -> F:
    return max(abs(a - b) for a, b in zip(y, ref))


def test_criterion_1_static_game(table1):
    spec, tree, root = table1
    t0 = time.monotonic()
    vs = set_value_bruteforce(spec, tree, root)
    elapsed = time.monotonic() - t0
    ok = set(vs.points) == {(F(0), F(1)), (F(1), F(0))} and elapsed < 1.0
    report("criterion 1 (two-equilibrium static game)", ok, f"{elapsed:.3f}s")


def test_criterion_2_comparison_failure(table2_left, table2_right):
    spec_l, tree_l, root_l = table2_left
    spec_r, tree_r, root_r = table2_right
    vs_l = set_value_bruteforce(spec_l, tree_l, root_l)
    vs_r = set_value_bruteforce(spec_r, tree_r, root_r)
    ok = set(vs_l.points) == {(F(3), F(3))} and set(vs_r.points) == {(F(2), F(2))}
    entrywise = True
    for joint in itertools.product(range(2), range(2)):
        left = cost_J(spec_l, tree_l, root_l, Policy(actions={root_l: joint}))
        right = cost_J(spec_r, tree_r, root_r, Policy(actions={root_r: joint}))
        entrywise &= all(a < b for a, b in zip(left, right))
    dominated_yet_higher = entrywise and all(
        a > b for a, b in zip(vs_l.points[0], vs_r.points[0])
    )
    report(
        "criterion 2 (comparison principle fails)",
        ok and dominated_yet_higher,
        f"left {vs_l.points} right {vs_r.points}, entrywise smaller: {entrywise}",
    )


def test_criterion_3_path_dependent_equilibria(path_game):
    spec, tree, root = path_game
    t0 = time.monotonic()
    expected = {(F(0), F(1, 4)), (F(1, 4), F(0)), (F(1, 8), F(1, 8))}
    brute = set_value_bruteforce(spec, tree, root)
    recursive = set_value_dpp(spec, tree, root)
    state = set_value_bruteforce(spec, tree, root, cls=STATE_CLASS)
    elapsed = time.monotonic() - t0
    ok = (
        set(brute.points) == expected
        and set(recursive.points) == expected
        and set(state.points) == {(F(0), F(1, 4)), (F(1, 4), F(0))}
        and elapsed < 10.0
    )
    report("criterion 3 (path-dependent value appears)", ok, f"{elapsed:.3f}s")


def test_criterion_4_state_selections_are_strictly_poorer(path_game):
    spec, tree, root = path_game
    rep = verify_dpp(
        spec, tree, root, StoppingTime.at_time(tree, 2), selection_class=STATE_CLASS
    )
    ok = (
        rep.relation == "rhs_subset"
        and set(rep.rhs.points) == {(F(0), F(1, 4)), (F(1, 4), F(0))}
        and rep.lhs_only == ((F(1, 8), F(1, 8)),)
    )
    report("criterion 4 (state selections lose a value)", ok, rep.relation)


def test_criterion_5_state_variant_recursion_overshoots(state_game):
    spec, tree, root = state_game
    rep = verify_dpp(
        spec,
        tree,
        root,
        StoppingTime.at_time(tree, 1),
        variant="state",
        selection_class=STATE_CLASS,
    )
    ok = (
        rep.relation == "lhs_subset"
        and (F(1, 8), F(1, 8)) in rep.rhs_only
        and set(rep.lhs.points) == {(F(0), F(1, 4)), (F(1, 4), F(0))}
    )
    report("criterion 5 (state recursion gains a value)", ok, rep.relation)


EPS = F(1, 100)


def test_criterion_6a_pareto_recursion_failure():
    rep = pareto_dpp_counterexample(EPS)
    info = rep.context["branch_values"]
    tables_ok = (
        info["s10"]["pareto"] == [["2", "2"]]
        and info["s10"]["values"] == [["2", "2"], ["3", "3"]]
        and info["s11"]["pareto"] == [["1", "5"]]
        and info["s11"]["values"] == [["1", "5"], ["6", "6"]]
        and info["s12"]["pareto"] == [["5", "1"]]
        and info["s12"]["values"] == [["5", "1"], ["6", "6"]]
        and info["s13"]["pareto"] == [["4", "4"]]
        and info["s13"]["values"] == [["4", "4"], ["7", "7"]]
    )
    mutual = (
        rep.relation == "incomparable"
        and not set(rep.lhs.points) & set(rep.rhs.points)
        and len(rep.rhs) == 1
        and max_norm(rep.rhs.points[0], (F(4), F(4))) <= 12 * EPS
    )
    report(
        "criterion 6a (two-sided Pareto recursion failure)",
        tables_ok and mutual,
        f"relation {rep.relation}, rhs {rep.rhs.points}",
    )


def test_criterion_6b_pareto_left_side_near_reference():
    # Stage-1 Nash values (criterion 6a): s10 {(2,2), (3,3)}, s11 {(1,5), (6,6)},
    # s12 {(5,1), (6,6)}, s13 {(4,4), (7,7)}. As q > 0, the time-0 set is the
    # union over the 16 selections v of one value per branch of the Nash
    # values of the stage-0 game paying (1-4e)*v(target of J) + e*sum_b v(b).
    # Its minimal equilibria:
    #   (0,0) with v = ((2,2), (6,6), (6,6), (4,4)): deviations cost 6 > 2;
    #   (1,0) with v = ((2,2), (1,5), (5,1), (7,7)): player 2's deviation
    #         reaches s13 at 7 > 5; and (0,1), its mirror image.
    # Every other value is dominated by one of these, e.g. (3+7e, 3+7e), which
    # uses (3,3) at s10 and is dominated by (2+10e, 2+10e).
    e = EPS
    expected = {
        (1 + 11 * e, 5 - 5 * e),
        (2 + 10 * e, 2 + 10 * e),
        (5 - 5 * e, 1 + 11 * e),
    }
    rep = pareto_dpp_counterexample(EPS)
    ok = set(rep.lhs.points) == expected
    report(
        "criterion 6b (left-hand set near reference point)",
        ok,
        f"lhs {rep.lhs.points}",
    )


def test_criterion_7_open_loop_gap():
    checks = []
    for sigma, want_whole, want_comp in [(0.0, -1.5, -4.0), (1.0, -3.0, -5.5)]:
        rep = open_loop_lq_demo(sigma)
        checks.append(
            all(abs(v - want_whole) <= 1e-10 for v in rep.whole_game_value)
            and all(abs(v - want_comp) <= 1e-10 for v in rep.composed_value)
            and rep.foc_residual_whole <= 1e-12
            and rep.foc_residual_composed <= 1e-12
        )
    report("criterion 7 (open-loop value gap)", all(checks), f"{checks}")


def test_criterion_8_recursion_equals_enumeration_at_scale():
    t0 = time.monotonic()
    rng = random.Random(2025)
    for k in range(200):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        brute = set_value_bruteforce(spec, tree, root)
        recursive = set_value_dpp(spec, tree, root)
        assert brute.points == recursive.points, f"spec {k} disagrees"
    n_zero = 0
    while n_zero < 50:
        spec = random_game(rng, allow_zero=True)
        if spec.q_positive:
            continue
        n_zero += 1
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        rep = verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 1))
        assert rep.relation in ("equal", "rhs_subset"), f"zero spec {n_zero}"
    elapsed = time.monotonic() - t0
    report(
        "criterion 8 (200 positive + 50 degenerate kernels)",
        elapsed < 300.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_9_planner(path_game):
    spec, tree, root = path_game
    vs = set_value_bruteforce(spec, tree, root)
    lam = Scalarization.parse("1/2,1/2")
    opt = planner_optimum(vs, lam)
    ok = opt.value == F(1, 8) and (F(1, 8), F(1, 8)) in opt.argmin
    rng = random.Random(99)
    for _ in range(100):
        points = [
            (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            for _ in range(rng.randint(1, 8))
        ]
        candidates = ValueSet.of(points)
        w = F(rng.randint(1, 7), 8)
        strict = Scalarization((w, 1 - w))
        local = planner_optimum(candidates, strict)
        ok = ok and set(local.argmin) <= set(pareto_filter(candidates).points)
    report("criterion 9 (planner optimum and Pareto membership)", ok, f"V0={opt.value}")


def test_criterion_10_level_set_tracks_the_oracle():
    t0 = time.monotonic()
    spec, grid = pde_preset("single-player")
    field = solve_w(spec, grid)
    res = nodal_set(field, 0.0, 0.0)
    oracle = float(
        single_player_hjb(
            spec.terminal[0],
            spec.action_grids[0],
            grid.x_lo,
            grid.x_hi,
            grid.nx,
            grid.t_final,
        )[grid.nx // 2]
    )
    coarse_ok = (
        len(res.clusters) == 1
        and abs(res.clusters[0].centroid[0] - oracle) <= 5 * (grid.hx + grid.hy)
        and res.clusters[0].centroid[0] - res.clusters[0].extent[0] / 2 - grid.hy
        <= oracle
        <= res.clusters[0].centroid[0] + res.clusters[0].extent[0] / 2 + grid.hy
        and field.min_w >= -1e-10
    )
    g = np.array([spec.terminal[0](float(x)) for x in grid.x_values])
    terminal_ok = (
        float(
            np.max(
                np.abs(
                    field.layer(grid.t_final)
                    - (g[:, None] - grid.y_values[None, :]) ** 2
                )
            )
        )
        == 0.0
    )

    fine_grid = grid.refined()
    fine = solve_w(spec, fine_grid)
    res_fine = nodal_set(fine, 0.0, 0.0)
    fine_ok = (
        fine.min_w >= -1e-10
        and res_fine.clusters[0].diameter < res.clusters[0].diameter
    )
    elapsed = time.monotonic() - t0
    report(
        "criterion 10 (level set vs scalar control oracle)",
        coarse_ok and terminal_ok and fine_ok and elapsed < 600.0,
        f"centroid {res.clusters[0].centroid[0]:.4f} vs oracle {oracle:.4f}, "
        f"diameters {res.clusters[0].diameter:.3f} -> {res_fine.clusters[0].diameter:.3f}, "
        f"{elapsed:.1f}s",
    )
