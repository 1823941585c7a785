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
    _coefficients,
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


def per_combination_step(spec, grid, w, ht, big_j):
    """One monotone step evaluating the bracket for every (joint action, z) pair.

    The directions are every (j, m) with 1 <= j <= ``big_j``, integer vectors m
    with gcd(j, m) = 1 and |m_i*hy/(j*hx)| <= z_max, and stencils inside the
    grid (2j <= nx - 1, 2|m_i| <= ny - 1); direction (j, m) carries
    z_i = m_i*hy/(j*hx). x ghosts replicate the edge columns, a stencil that
    leaves the y grid is not offered, and the upwinded y differences see
    replicated ghosts. The reference the grouped sweep of ``solve_w`` must
    reproduce.
    """
    n = spec.n_players
    costs = CoupledCost(spec)
    xs = grid.x_values
    ix, iy = np.arange(grid.nx), np.arange(grid.ny)

    def col(arr):
        return arr.reshape((grid.nx,) + (1,) * n)

    def at(dx, dy):
        """W at (x + dx*hx, y + dy*hy), indices clamped to the grid."""
        clamp = [np.clip(ix + dx, 0, grid.nx - 1)]
        clamp += [np.clip(iy + d, 0, grid.ny - 1) for d in dy]
        return w[np.ix_(*clamp)]

    def off_grid(dy):
        """True where y + dy*hy or y - dy*hy leaves the y grid."""
        out = np.zeros(w.shape, dtype=bool)
        for ax, d in enumerate(dy, start=1):
            shape = [1] * (n + 1)
            shape[ax] = grid.ny
            out |= ((iy - abs(d) < 0) | (iy + abs(d) >= grid.ny)).reshape(shape)
        return out

    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    w_y_f = [(at(0, e) - w) / grid.hy for e in unit]
    w_y_b = [(w - at(0, tuple(-d for d in e))) / grid.hy for e in unit]
    m_top = (grid.ny - 1) // 2
    directions = [
        (j, m)
        for j in range(1, big_j + 1)
        if 2 * j <= grid.nx - 1
        for m in itertools.product(range(-m_top, m_top + 1), repeat=n)
        if math.gcd(j, *m) == 1
        and all(abs(mi * grid.hy / (j * grid.hx)) <= grid.z_max * (1 + 1e-9) for mi in m)
    ]
    h_min = None
    for a in spec.joint_actions:
        for j, m in directions:
            z = tuple(mi * grid.hy / (j * grid.hx) for mi in m)
            back = tuple(-d for d in m)
            stencil = 0.5 * (at(j, m) - 2.0 * w + at(-j, back)) / (j * grid.hx) ** 2
            val = np.where(off_grid(m), np.inf, stencil)
            for i in range(n):
                om = np.array([costs.own_min(i, 0.0, float(x), a, z[i]) for x in xs])
                ex = np.array([costs.excess(i, 0.0, float(x), a, z[i]) for x in xs])
                mu = -col(om)
                val = val + mu * np.where(mu > 0, w_y_f[i], w_y_b[i])
                val = val + col(np.maximum(ex, 0.0) ** 1.5)
            h_min = val if h_min is None else np.minimum(h_min, val)
    return w + ht * h_min


def sign_flipping_spec():
    """Two players whose upwind direction flips across x."""
    return DiffusionGameSpec(
        n_players=2,
        drift=lambda t, x, a: 0.5 * a[0] - 0.3 * a[1] + 0.2 * a[0] * a[1],
        running=(lambda t, x, a: 0.6 * x + 0.3 * a, lambda t, x, a: -0.5 * x + 0.2 * a * x),
        terminal=(lambda x: 0.4 * x, lambda x: 0.1 - 0.3 * x),
        action_grids=((-1.0, 0.0, 1.0), (-1.0, 1.0)),
        horizon=0.1,
        drift_bound=1.0,
        cost_bound=1.0,
    )


def test_grouped_monotone_step_matches_per_combination_loop():
    spec = sign_flipping_spec()
    grid = GridConfig(
        x_lo=-1.0, x_hi=1.0, nx=9, y_lo=-1.0, y_hi=1.0, ny=9, t_final=0.1, z_max=1.0, nz=3
    )
    costs = CoupledCost(spec)
    for i in range(2):
        # the upwind direction flips across x for both players
        ends = [costs.own_min(i, 0.0, x, (0.0, 1.0), 0.0) for x in (grid.x_lo, grid.x_hi)]
        assert ends[0] * ends[1] < 0
    single, _ = pde_preset("single-player")
    cases = [
        # hx = hy, z_max = 1: nz = 3 needs slopes 0 and +-1 (J = 1); nz = 5 adds
        # +-1/2 (J = 2)
        (spec, grid, 1),
        (spec, replace(grid, nz=5), 2),
        # nx != ny and hx != hy: one player with hx = 1/3, hy = 0.2 and |m| up
        # to 3, two players with hx = 0.25, hy = 1/6 and |m| up to 3
        (single, replace(grid, nx=7, ny=11, nz=5), 2),
        (spec, replace(grid, nx=9, ny=13, nz=7), 2),
    ]
    for s, g, big_j in cases:
        assert max(j for j, _ in g.lattice_stencils(s.n_players).values()) == big_j
        w0, w1, ht = last_step(s, g, 20)
        assert float(np.max(np.abs(w1 - per_combination_step(s, g, w0, ht, big_j)))) <= 1e-12


def per_x_coefficients(spec, xs, zs):
    """The drift columns and excess groups of ``solve_w``, one x at a time via CoupledCost."""
    costs = CoupledCost(spec)
    drifts, drift_ids, groups = [], {}, {}
    for a in spec.joint_actions:
        for z in zs:
            ids = []
            excess_sum = 0.0
            for i in range(spec.n_players):
                om = np.array([costs.own_min(i, 0.0, float(x), a, z[i]) for x in xs])
                ex = np.array([costs.excess(i, 0.0, float(x), a, z[i]) for x in xs])
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


@pytest.mark.parametrize(
    "name", ["single-player", "zero-sum", "static", "sign-flipping", "signed-zeros"]
)
def test_tabulated_coefficients_equal_the_per_x_loop(name):
    grid = GridConfig(x_lo=-1.0, x_hi=1.0, nx=9, y_lo=-1.0, y_hi=1.0, ny=9, nz=5, z_max=1.0)
    if name == "sign-flipping":
        spec = sign_flipping_spec()
    elif name == "signed-zeros":
        # at z < 0 the coupled costs are 0.0 and -0.0: own_min keeps the first,
        # as min() does, and the drift ids tell the two zeros apart
        spec, _ = pde_preset("single-player")
        spec = replace(
            spec,
            drift=lambda t, x, a: 0.0,
            running=(lambda t, x, a: math.copysign(0.0, -a),),
            action_grids=((-1.0, 1.0),),
        )
    else:
        spec, grid = pde_preset(name)
    n = spec.n_players
    for zs in (grid.lattice_stencils(n), list(itertools.product(grid.z_values.tolist(), repeat=n))):
        drifts, groups = _coefficients(spec, grid.x_values, zs)
        want_drifts, want_groups = per_x_coefficients(spec, grid.x_values, zs)
        assert [i for i, _ in drifts] == [i for i, _ in want_drifts]
        assert all(mu.tobytes() == want.tobytes() for (_, mu), (_, want) in zip(drifts, want_drifts))
        assert list(groups) == list(want_groups)
        for z, by_ids in want_groups.items():
            assert list(groups[z]) == list(by_ids)
            assert all(groups[z][ids].tobytes() == ex.tobytes() for ids, ex in by_ids.items())


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


@pytest.mark.parametrize("k", [2, 3, 4])
def test_level_set_meeting_y_hi_keeps_w_nonnegative(k):
    """A terminal shifted up by k*hy puts the zero set through y_hi near x = 2.

    The central cross term of the earlier scheme drove W down to -6e-4,
    -1.9e-2 and -5.0e-2 here; the lattice scheme is monotone at every node.
    """
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21)
    shift, base = k * grid.hy, spec.terminal[0]
    spec = replace(
        spec, terminal=(lambda x: base(x) + shift,), cost_bound=spec.cost_bound + shift
    )
    assert spec.terminal[0](grid.x_hi) > grid.y_hi
    field = solve_w(spec, grid)
    assert field.min_w >= -1e-10
    assert len(nodal_set(field, 0.0, 0.0).clusters) == 1


def parabolic_argmin(field):
    """Vertex of the parabola through the least node of W(0, 0, .) and its neighbours."""
    grid = field.grid
    sect = field.layer(0.0)[grid.nx // 2]
    k = int(np.argmin(sect))
    lo, mid, hi = sect[k - 1], sect[k], sect[k + 1]
    return float(grid.y_values[k]) + 0.5 * grid.hy * (lo - hi) / (lo - 2 * mid + hi)


def test_lattice_scheme_converges_to_the_oracle():
    """The x = 0 argmin approaches the scalar HJB value as the grid is refined."""
    spec, grid = pde_preset("single-player")
    oracle = float(
        single_player_hjb(spec.terminal[0], spec.action_grids[0], grid.x_lo, grid.x_hi,
                          641, grid.t_final)[320]
    )
    errors = [abs(parabolic_argmin(solve_w(spec, g)) - oracle) for g in (grid, grid.refined())]
    assert errors[1] < errors[0] < grid.hy


def test_lattice_stencils_resolve_the_z_grid():
    spec, grid = pde_preset("single-player")
    for g in (grid, grid.refined()):
        stencils = g.lattice_stencils(1)
        assert len(stencils) == 21
        assert max(j for j, _ in stencils.values()) == 3
        for (z,), (j, (m,)) in stencils.items():
            assert z == pytest.approx(m * g.hy / (j * g.hx)) and abs(z) <= g.z_max + 1e-12
            assert math.gcd(j, m) == 1
    for name in ("zero-sum", "static"):
        spec, grid = pde_preset(name)
        stencils = grid.lattice_stencils(2)
        assert max(j for j, _ in stencils.values()) == 2
        assert sorted(stencils) == sorted(itertools.product(grid.z_values.tolist(), repeat=2))
    # five nodes per axis allow j, |m| <= 2: slopes 0, 0.5 and 1 leave gaps in a
    # z grid spaced 0.1
    with pytest.raises(GameValidationError, match="resolve the z grid"):
        small_grid(grid, nx=5, ny=5, z_max=1.0, nz=21).lattice_stencils(2)


def test_clusters_report_touching_the_y_boundary():
    for name in ("single-player", "zero-sum", "static"):
        spec, grid = pde_preset(name)
        res = nodal_set(solve_w(spec, grid), 0.0, 0.0)
        assert [c.touches_y_boundary for c in res.clusters] == [False]
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=21, ny=21, t_final=0.05)
    field = solve_w(spec, grid)
    wide = nodal_set(field, 0.0, 0.0, delta=4.0)
    assert [c.touches_y_boundary for c in wide.clusters] == [True]
    # at x = 2 the terminal value 1 lies near y_hi = 1.2: the cluster reaches y_hi only
    top = nodal_set(field, 0.0, grid.x_hi)
    ys = [y for (y,) in top.points]
    assert grid.y_values[0] < min(ys) and max(ys) == grid.y_values[-1]
    assert [c.touches_y_boundary for c in top.clusters] == [True]


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


@pytest.mark.parametrize("drift_scale, nt", [(200.0, 1024), (400.0, 2024)])
def test_upwind_term_bounds_the_time_step(drift_scale, nt):
    """A fast drift dominates the monotone bound; W must stay nonnegative."""
    spec, grid = pde_preset("single-player")
    spec = replace(spec, drift=lambda t, x, a: drift_scale * a[0], drift_bound=drift_scale)
    grid = small_grid(grid, t_final=0.05)
    upwind = (spec.cost_bound + drift_scale * grid.z_max) / grid.hy
    bound = grid.cfl_safety / (1.0 / (grid.hx * grid.hx) + upwind)
    assert grid.ht_bound(spec) == bound
    field = solve_w(spec, grid)
    assert field.nt == nt
    assert field.min_w >= -1e-10
    with pytest.raises(GameValidationError, match="stability bound"):
        solve_w(spec, small_grid(grid, ht=1.01 * bound))


def test_upwind_term_binds_on_no_preset():
    """Step counts of the presets and the 81x81 grid under the monotone bound."""
    steps = []
    for name, refine in [("single-player", False), ("zero-sum", False), ("static", False),
                         ("single-player", True)]:
        spec, grid = pde_preset(name)
        steps.append((grid.refined() if refine else grid).resolve_ht(spec)[1])
    assert steps == [142, 45, 57, 484]


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


def test_a_one_node_z_grid_is_zero():
    """nz = 1 is odd, so the z grid is {0}, as validation promises."""
    assert GridConfig(nz=1).z_values.tolist() == [0.0]
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=15, ny=15, nz=1, monotone=False)
    w0, w1, ht = last_step(spec, grid, 1)
    # at z = 0 every coupled cost of the preset is 0: the step is x diffusion
    step = w0 + ht * (0.5 * second_diff(w0, grid.hx, axis=0))
    assert float(np.max(np.abs(w1 - step))) <= 1e-12


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
