from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from gameval import GameValidationError, NumericInstabilityError
from gameval.hjb import (
    CoupledCost,
    DiffusionGameSpec,
    GridConfig,
    default_delta,
    first_diff,
    hamiltonian,
    nodal_set,
    pde_preset,
    second_diff,
    single_player_hjb,
    solve_w,
)


def small_grid(grid, **overrides):
    base = dict(
        x_lo=grid.x_lo, x_hi=grid.x_hi, nx=grid.nx, y_lo=grid.y_lo, y_hi=grid.y_hi,
        ny=grid.ny, t_final=grid.t_final, z_max=grid.z_max, nz=grid.nz,
        cfl_safety=grid.cfl_safety, ht=grid.ht, delta_scale=grid.delta_scale,
        monotone=grid.monotone, store_times=grid.store_times,
    )
    base.update(overrides)
    return GridConfig(**base)


def test_static_problem_keeps_its_parabola():
    spec, grid = pde_preset("static")
    field = solve_w(spec, grid)
    ys = grid.y_values
    target = ys[:, None] ** 2 + ys[None, :] ** 2
    for xi in (0, grid.nx // 2, grid.nx - 1):
        assert float(np.max(np.abs(field.layer(0.0)[xi] - target))) <= 1e-12


def test_terminal_layer_is_exact():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21, t_final=0.05)
    field = solve_w(spec, grid)
    g = np.array([spec.terminal[0](float(x)) for x in grid.x_values])
    target = (g[:, None] - grid.y_values[None, :]) ** 2
    assert float(np.max(np.abs(field.layer(grid.t_final) - target))) == 0.0


def test_nonnegativity_on_presets():
    for name in ("static", "zero-sum"):
        spec, grid = pde_preset(name)
        field = solve_w(spec, grid)
        assert field.min_w >= -1e-10


def test_coupled_cost_properties():
    spec, grid = pde_preset("single-player")
    costs = CoupledCost(spec)
    rng = random.Random(5)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        z = rng.uniform(-1.5, 1.5)
        a = (rng.choice(spec.action_grids[0]),)
        assert costs.excess(0, 0.0, x, a, z) >= -1e-12
        # the envelope is Lipschitz in z with the drift bound as constant
        z2 = rng.uniform(-1.5, 1.5)
        lhs = abs(costs.own_min(0, 0.0, x, a, z) - costs.own_min(0, 0.0, x, a, z2))
        assert lhs <= spec.drift_bound * abs(z - z2) + 1e-12


def test_hamiltonian_trivial_zero():
    spec, grid = pde_preset("static")
    grads = {"w_xx": 0.0, "w_y": (0.0, 0.0), "w_yx": (0.0, 0.0), "w_yy": ((0.0, 0.0), (0.0, 0.0))}
    assert hamiltonian(spec, grid.z_values, 0.0, 0.0, (0.0, 0.0), grads) == 0.0


def test_hamiltonian_matches_independent_scan():
    spec, grid = pde_preset("single-player")
    rng = random.Random(11)
    zs = [float(z) for z in grid.z_values]
    for _ in range(10):
        grads = {
            "w_xx": rng.uniform(-2, 2),
            "w_y": (rng.uniform(-2, 2),),
            "w_yx": (rng.uniform(-2, 2),),
            "w_yy": ((rng.uniform(-2, 2),),),
        }
        x = rng.uniform(-2, 2)
        got, arg = hamiltonian(spec, zs, 0.0, x, (0.0,), grads, return_argmin=True)
        # plain scan written out independently
        best = math.inf
        for a in spec.action_grids[0]:
            for z in zs:
                c = a * z
                floor = min(aa * z for aa in spec.action_grids[0])
                val = (
                    0.5 * grads["w_xx"]
                    + 0.5 * z * z * grads["w_yy"][0][0]
                    + z * grads["w_yx"][0]
                    + (c - floor) ** 1.5
                    - floor * grads["w_y"][0]
                )
                best = min(best, val)
        assert got == pytest.approx(best, abs=1e-12)
        assert arg is not None


def test_solver_step_agrees_with_hamiltonian_at_interior_nodes():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=15, ny=15, t_final=0.01, monotone=False)
    ht, _ = grid.resolve_ht(spec)
    one = small_grid(grid, ht=ht, t_final=ht)
    field = solve_w(spec, one)
    w0 = field.layer(one.t_final)
    w1 = field.layer(0.0)
    w_xx = second_diff(w0, grid.hx, axis=0)
    w_yy = second_diff(w0, grid.hy, axis=1)
    w_y = first_diff(w0, grid.hy, axis=1, mode="central")
    w_yx = first_diff(first_diff(w0, grid.hy, axis=1, mode="central"), grid.hx, axis=0)
    zs = [float(z) for z in grid.z_values]
    for xi, yi in [(4, 4), (7, 9), (10, 3)]:
        grads = {
            "w_xx": w_xx[xi, yi],
            "w_y": (w_y[xi, yi],),
            "w_yx": (w_yx[xi, yi],),
            "w_yy": ((w_yy[xi, yi],),),
        }
        x = float(grid.x_values[xi])
        h = hamiltonian(spec, zs, 0.0, x, (0.0,), grads)
        assert w1[xi, yi] == pytest.approx(w0[xi, yi] + ht * h, rel=1e-12, abs=1e-12)


def last_step(spec, grid, steps):
    """W one step before the end of a run of ``steps`` steps, W at its end, and ht."""
    ht, _ = grid.resolve_ht(spec)
    field = solve_w(spec, replace(grid, ht=ht, t_final=steps * ht, store_times=(ht,)))
    return field.layer(ht), field.layer(0.0), ht


def test_zero_sum_step_agrees_with_hamiltonian_at_interior_nodes():
    """Two players: both y axes, the off-diagonal z0*z1*W_y1y2 term included.

    The terminal layer is separable in y, so the step starts 20 steps in.
    """
    spec, grid = pde_preset("zero-sum")
    w0, w1, ht = last_step(spec, small_grid(grid, monotone=False), 20)
    w_xx = second_diff(w0, grid.hx, axis=0)
    w_yy = [second_diff(w0, grid.hy, axis=ax) for ax in (1, 2)]
    w_y = [first_diff(w0, grid.hy, axis=ax) for ax in (1, 2)]
    w_yx = [first_diff(d, grid.hx, axis=0) for d in w_y]
    w_y1y2 = first_diff(w_y[0], grid.hy, axis=2)
    zs = [float(z) for z in grid.z_values]
    for idx in [(10, 6, 6), (6, 4, 11), (13, 10, 4)]:
        assert abs(w_y1y2[idx]) > 0.05
        grads = {
            "w_xx": w_xx[idx],
            "w_y": (w_y[0][idx], w_y[1][idx]),
            "w_yx": (w_yx[0][idx], w_yx[1][idx]),
            "w_yy": ((w_yy[0][idx], w_y1y2[idx]), (w_y1y2[idx], w_yy[1][idx])),
        }
        x = float(grid.x_values[idx[0]])
        h = hamiltonian(spec, zs, 0.0, x, (0.0, 0.0), grads)
        assert w1[idx] == pytest.approx(w0[idx] + ht * h, rel=1e-12, abs=1e-12)


def per_combination_step(spec, grid, w, ht):
    """One monotone step evaluating the bracket for every (joint action, z) pair.

    The reference the grouped sweep of ``solve_w`` must reproduce.
    """
    n = spec.n_players
    costs = CoupledCost(spec)
    xs = grid.x_values
    y_axes = tuple(range(1, n + 1))

    def col(arr):
        return arr.reshape((grid.nx,) + (1,) * n)

    w_xx = second_diff(w, grid.hx, axis=0)
    w_yy = [second_diff(w, grid.hy, axis=ax) for ax in y_axes]
    w_y_f = [first_diff(w, grid.hy, axis=ax, mode="forward") for ax in y_axes]
    w_y_b = [first_diff(w, grid.hy, axis=ax, mode="backward") for ax in y_axes]
    w_yx = [first_diff(first_diff(w, grid.hy, axis=ax), grid.hx, axis=0) for ax in y_axes]
    w_y1y2 = first_diff(first_diff(w, grid.hy, axis=1), grid.hy, axis=2)
    h_min = None
    for a in spec.joint_actions:
        for z in itertools.product(grid.z_values.tolist(), repeat=n):
            val = 0.5 * w_xx
            for i in range(n):
                om = np.array([costs.own_min(i, 0.0, float(x), a, z[i]) for x in xs])
                ex = np.array([costs.excess(i, 0.0, float(x), a, z[i]) for x in xs])
                val += (0.5 * z[i] * z[i]) * w_yy[i] + z[i] * w_yx[i]
                mu = -col(om)
                val += mu * np.where(mu > 0, w_y_f[i], w_y_b[i])
                val += col(np.maximum(ex, 0.0) ** 1.5)
            val += (z[0] * z[1]) * w_y1y2
            h_min = val if h_min is None else np.minimum(h_min, val)
    return w + ht * h_min


def test_grouped_monotone_step_matches_per_combination_loop():
    spec = DiffusionGameSpec(
        n_players=2,
        drift=lambda t, x, a: 0.5 * a[0] - 0.3 * a[1] + 0.2 * a[0] * a[1],
        running=(lambda t, x, a: 0.6 * x + 0.3 * a, lambda t, x, a: -0.5 * x + 0.2 * a * x),
        terminal=(lambda x: 0.4 * x, lambda x: 0.1 - 0.3 * x),
        action_grids=((-1.0, 0.0, 1.0), (-1.0, 1.0)),
        horizon=0.1,
        drift_bound=1.0,
        cost_bound=1.0,
    )
    grid = GridConfig(
        x_lo=-1.0, x_hi=1.0, nx=9, y_lo=-1.0, y_hi=1.0, ny=9, t_final=0.1, z_max=1.0, nz=3
    )
    costs = CoupledCost(spec)
    for i in range(2):
        # the upwind direction flips across x for both players
        ends = [costs.own_min(i, 0.0, x, (0.0, 1.0), 0.0) for x in (grid.x_lo, grid.x_hi)]
        assert ends[0] * ends[1] < 0
    w0, w1, ht = last_step(spec, grid, 20)
    assert float(np.max(np.abs(w1 - per_combination_step(spec, grid, w0, ht)))) <= 1e-12


def test_single_player_cluster_tracks_the_oracle():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=31, ny=31)
    field = solve_w(spec, grid)
    assert field.min_w >= -1e-10
    res = nodal_set(field, 0.0, 0.0)
    assert len(res.clusters) == 1
    v = single_player_hjb(
        spec.terminal[0], spec.action_grids[0], grid.x_lo, grid.x_hi, grid.nx, grid.t_final
    )
    oracle = float(v[grid.nx // 2])
    centroid = res.clusters[0].centroid[0]
    assert abs(centroid - oracle) <= 5 * (grid.hx + grid.hy)
    # the oracle value itself sits inside the cluster's extent
    lo = centroid - res.clusters[0].extent[0] / 2 - grid.hy
    hi = centroid + res.clusters[0].extent[0] / 2 + grid.hy
    assert lo <= oracle <= hi


def test_nodal_threshold_monotonicity():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21, t_final=0.1)
    field = solve_w(spec, grid)
    small = nodal_set(field, 0.0, 0.0, delta=0.05)
    large = nodal_set(field, 0.0, 0.0, delta=0.2)
    assert set(small.points.points) <= set(large.points.points)


def test_nodal_set_may_be_empty():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21, t_final=0.05)
    field = solve_w(spec, grid)
    res = nodal_set(field, grid.t_final, 0.2, delta=1e-15)
    assert res.points.is_empty
    assert res.clusters == ()


def test_nodal_terminal_layer_matches_band():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21, t_final=0.05)
    field = solve_w(spec, grid)
    delta = 0.04
    res = nodal_set(field, grid.t_final, 0.0, delta=delta)
    g0 = spec.terminal[0](0.0)
    for (y,) in res.points.points:
        assert (g0 - y) ** 2 <= delta
    for y in grid.y_values:
        if (g0 - y) ** 2 <= delta:
            assert res.points.contains((float(y),))


def test_zero_sum_centroids_are_antisymmetric_and_swap_stable():
    spec, grid = pde_preset("zero-sum")
    field = solve_w(spec, grid)
    res = nodal_set(field, 0.0, 0.0)
    assert field.min_w >= -1e-10
    assert res.clusters
    for cluster in res.clusters:
        assert abs(sum(cluster.centroid)) <= 2 * grid.hy
    swapped = DiffusionGameSpec(
        n_players=2,
        drift=lambda t, x, a: spec.drift(t, x, (a[1], a[0])),
        running=(spec.running[1], spec.running[0]),
        terminal=(spec.terminal[1], spec.terminal[0]),
        action_grids=(spec.action_grids[1], spec.action_grids[0]),
        horizon=spec.horizon,
        drift_bound=spec.drift_bound,
        cost_bound=spec.cost_bound,
    )
    res2 = nodal_set(solve_w(swapped, grid), 0.0, 0.0)
    mirrored = sorted(tuple(reversed(c.centroid)) for c in res2.clusters)
    original = sorted(c.centroid for c in res.clusters)
    assert len(mirrored) == len(original)
    for a, b in zip(original, mirrored):
        assert a == pytest.approx(b, abs=1e-9)


def test_uniform_terminal_shift_moves_the_level_set():
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21)
    shift = 2 * grid.hy
    shifted = DiffusionGameSpec(
        n_players=1,
        drift=spec.drift,
        running=spec.running,
        terminal=(lambda x: spec.terminal[0](x) + shift,),
        action_grids=spec.action_grids,
        horizon=spec.horizon,
        drift_bound=spec.drift_bound,
        cost_bound=spec.cost_bound + shift,
    )
    base_field = solve_w(spec, grid)
    shift_field = solve_w(shifted, grid)
    # terminal layer: the parabola moves by exactly the shift
    g = np.array([spec.terminal[0](float(x)) for x in grid.x_values])
    ys = grid.y_values
    expected = ((g[:, None] + shift) - ys[None, :]) ** 2
    assert float(np.max(np.abs(shift_field.layer(grid.t_final) - expected))) <= 1e-12
    # interior: centroid moves by the shift within solver tolerance
    c0 = nodal_set(base_field, 0.0, 0.0).clusters[0].centroid[0]
    c1 = nodal_set(shift_field, 0.0, 0.0).clusters[0].centroid[0]
    assert abs((c1 - c0) - shift) <= 2 * grid.hy


def test_refinement_shrinks_both_spacings():
    spec, grid = pde_preset("single-player")
    fine = grid.refined()
    assert fine.nx == 2 * grid.nx - 1 and fine.ny == 2 * grid.ny - 1
    assert fine.hx == pytest.approx(grid.hx / 2)
    assert default_delta(fine, fine.resolve_ht(spec)[0]) < default_delta(
        grid, grid.resolve_ht(spec)[0]
    )


def test_cfl_violation_is_rejected():
    spec, grid = pde_preset("static")
    bad = small_grid(grid, ht=1.0)
    with pytest.raises(GameValidationError, match="stability bound"):
        solve_w(spec, bad)


@pytest.mark.parametrize("drift_scale, nt", [(200.0, 1004), (400.0, 2004)])
def test_upwind_term_bounds_the_time_step(drift_scale, nt):
    """A fast drift makes the upwinded y term bind; W must stay nonnegative."""
    spec, grid = pde_preset("single-player")
    spec = replace(spec, drift=lambda t, x, a: drift_scale * a[0], drift_bound=drift_scale)
    grid = small_grid(grid, t_final=0.05)
    upwind = grid.cfl_safety * grid.hy / (spec.cost_bound + drift_scale * grid.z_max)
    assert grid.ht_bound(spec) == upwind
    field = solve_w(spec, grid)
    assert field.nt == nt
    assert field.min_w >= -1e-10
    with pytest.raises(GameValidationError, match="stability bound"):
        solve_w(spec, small_grid(grid, ht=1.01 * upwind))


def test_upwind_term_binds_on_no_preset():
    steps = []
    for name, refine in [("single-player", False), ("zero-sum", False), ("static", False),
                         ("single-player", True)]:
        spec, grid = pde_preset(name)
        steps.append((grid.refined() if refine else grid).resolve_ht(spec)[1])
    assert steps == [903, 100, 80, 3612]


@pytest.mark.parametrize(
    "moving",
    [{"drift": lambda t, x, a: (1.0 - t) * a[0]}, {"running": (lambda t, x, a: t * a,)}],
    ids=["drift", "running"],
)
def test_time_dependent_data_are_rejected(moving):
    spec, grid = pde_preset("single-player")
    with pytest.raises(GameValidationError, match="changes between t=0"):
        solve_w(replace(spec, **moving), small_grid(grid, nx=11, ny=11, t_final=0.02))


def test_unstable_run_aborts_with_diagnostics():
    spec, grid = pde_preset("single-player")
    wild = small_grid(grid, cfl_safety=4.0, t_final=6.0)
    with pytest.raises(NumericInstabilityError, match="non-finite"):
        solve_w(spec, wild)


def test_grid_validation():
    with pytest.raises(GameValidationError, match="odd"):
        GridConfig(nz=4)
    with pytest.raises(GameValidationError):
        GridConfig(nx=2)
    spec, grid = pde_preset("single-player")
    field = solve_w(spec, small_grid(grid, nx=11, ny=11, t_final=0.02))
    with pytest.raises(GameValidationError, match="not a grid node"):
        nodal_set(field, 0.0, 0.123456)
    with pytest.raises(GameValidationError, match="no stored layer"):
        nodal_set(field, 0.013, 0.0)


def test_declared_bounds_are_enforced():
    bad = DiffusionGameSpec(
        n_players=1,
        drift=lambda t, x, a: 10.0 * a[0],
        running=(lambda t, x, a: 0.0,),
        terminal=(lambda x: 0.0,),
        action_grids=((-1.0, 1.0),),
        horizon=0.1,
        drift_bound=1.0,
        cost_bound=1.0,
    )
    with pytest.raises(GameValidationError, match="drift exceeds"):
        solve_w(bad, GridConfig(nx=11, ny=11, t_final=0.1, nz=3))
