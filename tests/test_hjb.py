from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gameval import GameValidationError, NumericInstabilityError
from gameval.hjb import (
    CENTRAL_CFL_SAFETY,
    MONOTONE_CFL_SAFETY,
    CoupledCost,
    _coefficients,
    _LatticeTerms,
    _operand,
    _step,
    DiffusionGameSpec,
    GridConfig,
    default_delta,
    first_diff,
    nodal_set,
    pde_preset,
    second_diff,
    single_player_hjb,
    solve_w,
)

from oracles import diff_call_hjb, hamiltonian, padded_solve_w, per_joint_coefficients


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


def grouped_step_cases():
    """(spec, grid, J) on the small grids where the sweep meets the per-combination loop."""
    spec = sign_flipping_spec()
    grid = GridConfig(
        x_lo=-1.0, x_hi=1.0, nx=9, y_lo=-1.0, y_hi=1.0, ny=9, t_final=0.1, z_max=1.0, nz=3
    )
    single, _ = pde_preset("single-player")
    return [
        # hx = hy, z_max = 1: nz = 3 needs slopes 0 and +-1 (J = 1); nz = 5 adds
        # +-1/2 (J = 2)
        (spec, grid, 1),
        (spec, replace(grid, nz=5), 2),
        # nx != ny and hx != hy: one player with hx = 1/3, hy = 0.2 and |m| up
        # to 3, two players with hx = 0.25, hy = 1/6 and |m| up to 3
        (single, replace(grid, nx=7, ny=11, nz=5), 2),
        (spec, replace(grid, nx=9, ny=13, nz=7), 2),
    ]


def test_grouped_monotone_step_matches_per_combination_loop():
    spec, grid, _ = grouped_step_cases()[0]
    costs = CoupledCost(spec)
    for i in range(2):
        # the upwind direction flips across x for both players
        ends = [costs.own_min(i, 0.0, x, (0.0, 1.0), 0.0) for x in (grid.x_lo, grid.x_hi)]
        assert ends[0] * ends[1] < 0
    for s, g, big_j in grouped_step_cases():
        assert max(j for j, _ in g.lattice_stencils(s.n_players).values()) == big_j
        w0, w1, ht = last_step(s, g, 20)
        assert float(np.max(np.abs(w1 - per_combination_step(s, g, w0, ht, big_j)))) <= 1e-12


def test_a_lattice_of_the_x_direction_alone_matches_the_per_combination_loop():
    """z_max below hy/hx leaves slope 0 only: max|m| = 0, yet y keeps one pad plane."""
    spec, grid = pde_preset("single-player")
    grid = small_grid(grid, nx=9, ny=9, nz=1, z_max=0.1)
    assert list(grid.lattice_stencils(1).values()) == [(1, (0,))]
    w0, w1, ht = last_step(spec, grid, 20)
    assert float(np.max(np.abs(w1 - per_combination_step(spec, grid, w0, ht, 1)))) <= 1e-12


def mixed_column_spec():
    """Two players whose coefficient columns are constant in x for some (a, z), not others.

    Player 0's own-min column is constant in x; player 1's varies with x and
    changes sign, and the excess columns are constant for some groups only.
    """
    return DiffusionGameSpec(
        n_players=2,
        drift=lambda t, x, a: 0.5 * a[0] - 0.2 * a[1],
        running=(lambda t, x, a: 0.3 * a, lambda t, x, a: 0.4 * x + 0.2 * a + 0.3 * x * a * a),
        terminal=(lambda x: 0.4 * x, lambda x: 0.1 - 0.3 * x),
        action_grids=((-1.0, 1.0), (-1.0, 0.0, 1.0)),
        horizon=0.1,
        drift_bound=1.0,
        cost_bound=1.0,
    )


def byte_identity_case(name):
    if name in ("single-player", "zero-sum", "static"):
        spec, grid = pde_preset(name)
        return spec, replace(grid, store_times=(0.5 * grid.t_final,))
    if name.startswith("grouped-"):
        spec, grid, _ = grouped_step_cases()[int(name[-1])]
        return spec, grid
    if name == "mixed-columns":
        spec = mixed_column_spec()
        return spec, GridConfig(
            x_lo=-1.0, x_hi=1.0, nx=9, y_lo=-1.0, y_hi=1.0, ny=9, t_final=0.1, z_max=1.0, nz=5
        )
    spec, grid = pde_preset("single-player")  # nz = 1: the z grid is {0}, max|m| = 2
    return spec, replace(grid, nz=1)


@pytest.mark.parametrize(
    "name",
    ["single-player", "zero-sum", "static", "grouped-0", "grouped-1", "grouped-2", "grouped-3",
     "mixed-columns", "nz-1"],
)
def test_lattice_sweep_is_byte_identical_to_the_full_pad_column_layout(name):
    spec, grid = byte_identity_case(name)
    if name == "mixed-columns":
        stencils = grid.lattice_stencils(2)
        drifts, groups = _coefficients(spec, grid.x_values, stencils)
        kinds = {type(_operand(col, 2)) for col in [mu for _, mu in drifts] + [
            ex for by_ids in groups.values() for ex in by_ids.values()
        ]}
        assert kinds == {float, np.ndarray}
    field, want = solve_w(spec, grid), padded_solve_w(spec, grid)
    assert field.min_w == want.min_w
    assert list(field.layers) == list(want.layers) and len(want.layers) >= 2
    for t, layer in want.layers.items():
        assert field.layers[t].tobytes() == layer.tobytes()


CENTRAL_GOLDEN = Path(__file__).parent / "data" / "golden" / "central-sweep-sha256.json"


@pytest.mark.parametrize("name", ["single-player", "zero-sum", "static"])
def test_central_sweep_is_byte_identical_to_its_golden_digests(name):
    """SHA-256 of every stored layer and repr(min_w), written before the sweep's
    step was built once per solve with zero operands folded out."""
    spec, grid = pde_preset(name)
    field = solve_w(spec, replace(grid, monotone=False, store_times=(0.5 * grid.t_final,)))
    want = json.loads(CENTRAL_GOLDEN.read_text())[name]
    got = [[repr(t), hashlib.sha256(layer.tobytes()).hexdigest()] for t, layer in field.layers.items()]
    assert got == want["layers"] and repr(field.min_w) == want["min_w"]


def lattice_terms(name):
    """A preset's monotone terms over a zero W and its excess groups."""
    spec, grid = pde_preset(name)
    stencils = grid.lattice_stencils(spec.n_players)
    drifts, groups = _coefficients(spec, grid.x_values, stencils)
    groups = {z: {ids: _operand(ex, 2) for ids, ex in b.items()} for z, b in groups.items()}
    w = np.zeros((grid.nx,) + (grid.ny,) * spec.n_players)
    return _LatticeTerms(grid, w, drifts, stencils), groups


def built_step(name):
    """A preset's monotone step: its calls after the derivatives, its groups and
    whether each drift column's products are all zero."""
    terms, groups = lattice_terms(name)
    calls, _ = _step(terms, groups)
    dead = [all(type(mu) is float and mu == 0.0 for mu, _ in p) for p in terms.drifts]
    return [c.func for c in calls[len(terms.derivatives):]], groups, dead


def test_the_built_step_folds_zero_operands_out():
    # static: every drift column and every excess is 0.0, so a candidate is its
    # z term alone; the first is copied into H, the others meet H once each
    funcs, groups, dead = built_step("static")
    excesses = [ex for b in groups.values() for ex in b.values()]
    assert all(dead) and excesses == [0.0] * len(excesses)
    assert funcs.count(np.multiply) == funcs.count(np.add) == len(groups)
    assert funcs.count(np.copyto) == 1 and funcs.count(np.minimum) == len(excesses) - 1
    # single-player: every excess is 0.0 and each upwind pair has a zero half,
    # so a live column costs one multiply and a candidate one add per live id
    funcs, groups, dead = built_step("single-player")
    ids = [k for b in groups.values() for (k,) in b]
    assert all(ex == 0.0 for b in groups.values() for ex in b.values())
    assert 0 < dead.count(True) < len(dead)
    assert funcs.count(np.multiply) == len(groups) + dead.count(False)
    assert funcs.count(np.add) == len(groups) + sum(not dead[k] for k in ids)
    assert funcs.count(np.minimum) == len(ids) - 1


@pytest.mark.parametrize(
    "name, read", [("static", 0), ("single-player", 1), ("zero-sum", 2)]
)
def test_y_differences_are_computed_only_on_axes_a_live_drift_reads(name, read):
    # static folds out every drift column, so its step refreshes the two x
    # ghosts only; elsewhere each y axis costs a subtract, a divide by hy and
    # two edge fills
    terms, _ = lattice_terms(name)
    funcs = [getattr(call.func, "__name__", None) for call in terms.derivatives]
    assert funcs == ["copyto"] * 2 + ["subtract", "divide", "fill", "fill"] * read


def test_operand_is_a_float_only_when_every_entry_has_the_same_bits():
    for value in (0.25, 0.0, -0.0, math.inf):
        operand = _operand(np.full(5, value), 3)
        assert type(operand) is float
        assert np.array([operand]).tobytes() == np.array([value]).tobytes()
    signed = np.array([0.0, -0.0, 0.0])  # equal under ==, but x + 0.0 and x + -0.0 differ
    operand = _operand(signed, 2)
    assert isinstance(operand, np.ndarray) and operand.shape == (3, 1)
    assert operand.tobytes() == signed.tobytes()
    assert _operand(np.array([1.0, 2.0]), 3).shape == (2, 1, 1)


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


def three_action_spec():
    """Two players with three actions each, whose drift and costs vary with x."""
    return DiffusionGameSpec(
        n_players=2,
        drift=lambda t, x, a: 0.4 * a[0] - 0.3 * a[1] + 0.2 * x * a[0] * a[1],
        running=(lambda t, x, a: 0.3 * x * a + 0.2 * a * a, lambda t, x, a: -0.4 * x + 0.3 * a),
        terminal=(lambda x: 0.4 * x, lambda x: 0.1 - 0.3 * x),
        action_grids=((-1.0, 0.0, 1.0), (-1.0, 0.5, 1.0)),
        horizon=0.1,
        drift_bound=1.0,
        cost_bound=1.0,
    )


@pytest.mark.parametrize(
    "name",
    ["single-player", "single-player-81", "zero-sum", "static", "three-action", "signed-zero-z"],
)
def test_coefficients_are_byte_identical_to_the_per_joint_own_minimum(name):
    """Each own-action minimum taken once per (player, others' actions, z_i)
    gives the drift ids, columns and groups of taking it per joint action."""
    grid = GridConfig(x_lo=-1.0, x_hi=1.0, nx=9, y_lo=-1.0, y_hi=1.0, ny=9, nz=5, z_max=1.0)
    extra = []
    if name == "three-action":
        spec = three_action_spec()
    elif name == "signed-zero-z":
        # at z = -0.0 the coupled cost -0.0 + 1.0*z is -0.0, at z = 0.0 it is
        # 0.0: two own-min columns, which a memo keyed by z's value would merge
        spec, _ = pde_preset("single-player")
        spec = replace(
            spec, drift=lambda t, x, a: 1.0, running=(lambda t, x, a: -0.0,), action_grids=((1.0,),)
        )
        extra = [[(0.0,), (-0.0,)], [(-0.0,), (0.0,)]]
    else:
        spec, grid = pde_preset(name.removesuffix("-81"))
        grid = grid.refined() if name.endswith("-81") else grid
    n = spec.n_players
    z_grid = list(itertools.product(grid.z_values.tolist(), repeat=n))
    for zs in [grid.lattice_stencils(n), z_grid] + extra:
        drifts, groups = _coefficients(spec, grid.x_values, zs)
        want_drifts, want_groups = per_joint_coefficients(spec, grid.x_values, zs)
        assert [i for i, _ in drifts] == [i for i, _ in want_drifts]
        assert [mu.tobytes() for _, mu in drifts] == [mu.tobytes() for _, mu in want_drifts]
        assert list(groups) == list(want_groups)
        for z, by_ids in want_groups.items():
            assert list(groups[z]) == list(by_ids)
            assert [ex.tobytes() for ex in groups[z].values()] == [
                ex.tobytes() for ex in by_ids.values()
            ]


@pytest.mark.parametrize("nx", [41, 81, 641])
@pytest.mark.parametrize(
    "name, player", [("single-player", 0), ("zero-sum", 0), ("zero-sum", 1), ("static", 0)]
)
def test_the_oracle_is_byte_identical_to_its_difference_call_layout(name, player, nx):
    spec, grid = pde_preset(name)
    args = (spec.terminal[player], spec.action_grids[player], grid.x_lo, grid.x_hi, nx,
            grid.t_final)
    assert single_player_hjb(*args).tobytes() == diff_call_hjb(*args).tobytes()


def seeded_oracle_case(seed):
    """A terminal, 1-4 actions (0.0, negative, a single one) and a grid from ``seed``."""
    rng = random.Random(seed)
    c = [rng.uniform(-1.0, 1.0) for _ in range(4)]

    def terminal(x):
        return c[0] + c[1] * x + c[2] * math.sin(3.0 * x) + c[3] * abs(x - 0.1)

    pool = [0.0, -1.0, 1.0, -0.5, rng.uniform(-2.0, 2.0)]
    actions = tuple(rng.sample(pool, rng.randint(1, 4)))
    x_lo = rng.uniform(-2.0, 0.0)
    return (terminal, actions, x_lo, x_lo + rng.uniform(0.5, 3.0), rng.randint(5, 60),
            rng.choice([0.01, 0.05, 0.2]), rng.choice([0.4, 0.25]))


def test_seeded_oracles_are_byte_identical_to_the_difference_call_layout():
    cases = [seeded_oracle_case(seed) for seed in range(40)]
    sizes = {len(actions) for _, actions, *_ in cases}
    assert sizes == {1, 2, 3, 4} and min(nx for *_, nx, _, _ in cases) <= 8
    assert any(0.0 in actions for _, actions, *_ in cases)
    assert len({t for *_, t, _ in cases}) == 3
    for case in cases + [(math.cos, (0.0,), -1.0, 1.0, 5, 0.1, 0.4)]:
        assert single_player_hjb(*case).tobytes() == diff_call_hjb(*case).tobytes()


ORACLE_ARGS = dict(terminal=math.sin, actions=(-1.0, 1.0), x_lo=-1.0, x_hi=1.0, nx=11, t_final=0.1)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(nx=4), "integer nx >= 5"),
        (dict(nx=2), "integer nx >= 5"),
        (dict(nx=1), "integer nx >= 5"),
        (dict(nx=11.0), "integer nx >= 5"),
        (dict(x_lo=1.0), "x_lo < x_hi"),
        (dict(x_lo=2.0), "x_lo < x_hi"),
        (dict(t_final=0.0), "positive t_final"),
        (dict(t_final=-0.1), "positive t_final"),
        (dict(safety=0.0), "positive t_final and safety"),
        (dict(x_lo=math.nan), "must be finite numbers"),
        (dict(x_hi=math.inf), "must be finite numbers"),
        (dict(t_final=math.nan), "must be finite numbers"),
        (dict(x_lo=-1e308, x_hi=1e308), "x_hi - x_lo must be finite"),
        (dict(x_lo=0.0, x_hi=1e-170), "spacing's square nonzero"),
        (dict(actions=()), "nonempty grid of finite actions"),
        (dict(actions=(0.0, math.nan)), "nonempty grid of finite actions"),
        (dict(actions=(math.inf,)), "nonempty grid of finite actions"),
    ],
    ids=[
        "nx-4", "nx-2", "nx-1", "nx-float", "x_lo-equals-x_hi", "x_lo-above-x_hi", "t_final-0",
        "t_final-negative", "safety-0", "x_lo-nan", "x_hi-inf", "t_final-nan", "span-overflows",
        "spacing-underflows", "no-actions", "nan-action", "inf-action",
    ],
)
def test_the_oracle_rejects_arguments_outside_the_grid_domains(overrides, message):
    calls = []

    def terminal(x):
        calls.append(x)
        return 0.0

    with pytest.raises(GameValidationError, match=message):
        single_player_hjb(**{**ORACLE_ARGS, "terminal": terminal, **overrides})
    assert calls == []


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


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
def test_zero_sum_level_set_follows_the_closed_form_value(x):
    """The drifts cancel at equilibrium, so the value at (0, x) is (0.4x, -0.4x).

    On the shipped 21x21 grid the one cluster's centroid lies within 0.05 of it
    (0.037 at x = +-1, 0.027 per coordinate at 0) and W at that node is at most
    0.005 (0.0043 and 0.0040: the floor of an nz = 5 z grid).
    """
    spec, grid = pde_preset("zero-sum")
    field = solve_w(spec, grid)
    res = nodal_set(field, 0.0, x)
    assert len(res.clusters) == 1
    target = (0.4 * x, -0.4 * x)
    assert all(abs(c - v) <= 0.05 for c, v in zip(res.clusters[0].centroid, target))
    xi = int(round((x - grid.x_lo) / grid.hx))
    yi = [int(round((v - grid.y_lo) / grid.hy)) for v in target]
    assert np.allclose(grid.y_values[yi], target, atol=1e-12)
    assert field.layer(0.0)[xi, yi[0], yi[1]] <= 0.005


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


def parabolic_argmin(field, x=0.0):
    """Vertex of the parabola through the least node of W(0, x, .) and its neighbours."""
    grid = field.grid
    sect = field.layer(0.0)[int(round((x - grid.x_lo) / grid.hx))]
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


@pytest.mark.parametrize("refine", [False, True], ids=["41x41", "81x81"])
def test_the_default_step_reads_the_value_no_worse_than_a_quarter_step(refine):
    """The vertex of W(0, x, .) against the scalar HJB value, at x = -1, 0, 1.

    Errors at cfl_safety 0.25 and at the default: 0.0072 / 0.0076 / 0.0078 and
    0.0068 / 0.0065 / 0.0069 on 41x41; 0.0037 / 0.0022 / 0.0041 and
    0.0036 / 0.0018 / 0.0038 on 81x81.
    """
    spec, grid = pde_preset("single-player")
    grid = grid.refined() if refine else grid
    v = single_player_hjb(spec.terminal[0], spec.action_grids[0], grid.x_lo, grid.x_hi,
                          641, grid.t_final)
    fields = [solve_w(spec, grid), solve_w(spec, replace(grid, cfl_safety=0.25))]
    for x in (-1.0, 0.0, 1.0):
        oracle = float(v[int(round((x - grid.x_lo) / (grid.x_hi - grid.x_lo) * 640))])
        default, quarter = (abs(parabolic_argmin(f, x) - oracle) for f in fields)
        assert default <= quarter


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
    grid = small_grid(grid, t_final=0.05, cfl_safety=0.25)
    upwind = (spec.cost_bound + drift_scale * grid.z_max) / grid.hy
    bound = grid.cfl_safety / (1.0 / (grid.hx * grid.hx) + upwind)
    assert grid.ht_bound(spec) == bound
    field = solve_w(spec, grid)
    assert field.nt == nt
    assert field.min_w >= -1e-10
    with pytest.raises(GameValidationError, match="stability bound"):
        solve_w(spec, small_grid(grid, ht=1.01 * bound))


@pytest.mark.parametrize("drift_scale, nt", [(200.0, 285), (400.0, 563)])
def test_the_default_step_keeps_w_nonnegative_under_a_fast_drift(drift_scale, nt):
    """The monotone default takes 0.9 of the exact positivity bound."""
    spec, grid = pde_preset("single-player")
    spec = replace(spec, drift=lambda t, x, a: drift_scale * a[0], drift_bound=drift_scale)
    grid = small_grid(grid, t_final=0.05)
    upwind = (spec.cost_bound + drift_scale * grid.z_max) / grid.hy
    assert grid.ht_bound(spec) == MONOTONE_CFL_SAFETY / (1.0 / (grid.hx * grid.hx) + upwind)
    field = solve_w(spec, grid)
    assert field.nt == nt
    assert field.min_w >= -1e-10


def preset_steps(**overrides):
    """Step counts of the three presets and the 81x81 single-player grid."""
    steps = []
    for name, refine in [("single-player", False), ("zero-sum", False), ("static", False),
                         ("single-player", True)]:
        spec, grid = pde_preset(name)
        grid = replace(grid.refined() if refine else grid, **overrides)
        steps.append(grid.resolve_ht(spec)[1])
    return steps


def test_upwind_term_binds_on_no_preset():
    """Step counts of the presets and the 81x81 grid at a quarter of the monotone bound."""
    assert preset_steps(cfl_safety=0.25) == [142, 45, 57, 484]


def test_the_default_step_is_near_the_monotone_bound():
    assert preset_steps() == [40, 13, 16, 135]


def test_the_central_scheme_keeps_a_quarter_of_its_bound():
    """cfl_safety None is CENTRAL_CFL_SAFETY = 0.25 on the central scheme."""
    assert CENTRAL_CFL_SAFETY == 0.25
    for name in ("single-player", "zero-sum", "static"):
        spec, grid = pde_preset(name)
        central = replace(grid, monotone=False)
        assert central.cfl_safety is None
        assert central.ht_bound(spec) == replace(central, cfl_safety=0.25).ht_bound(spec)


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
    # At the default step this grid takes one step, and t = 0.013 would read the
    # t = 0.02 layer.
    field = solve_w(spec, small_grid(grid, nx=11, ny=11, t_final=0.02, cfl_safety=0.25))
    with pytest.raises(GameValidationError, match="not a grid node"):
        nodal_set(field, 0.0, 0.123456)
    with pytest.raises(GameValidationError, match="no stored layer"):
        nodal_set(field, 0.013, 0.0)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("nx", 7.0, "nx must be an integer"),
        ("ny", "41", "ny must be an integer"),
        ("nz", True, "nz must be an integer"),
        ("z_max", math.nan, "z_max must be a finite number"),
        ("t_final", math.inf, "t_final must be a finite number"),
        ("cfl_safety", math.inf, "cfl_safety must be a finite number"),
        ("x_lo", "-2", "x_lo must be a finite number"),
        ("delta_scale", False, "delta_scale must be a finite number"),
        ("ht", -1.0, "ht must be positive"),
        ("ht", 0.0, "ht must be positive"),
        ("ht", math.nan, "ht must be a finite number"),
        ("delta_scale", -1.0, "delta_scale must be positive"),
        ("delta_scale", 0.0, "delta_scale must be positive"),
        ("monotone", "no", "monotone must be true or false"),
        ("monotone", 1, "monotone must be true or false"),
        ("store_times", (math.nan,), "store_times must be finite"),
        ("x_lo", 3.0, "x_lo < x_hi"),
        ("y_hi", -1.2, "y_lo < y_hi"),
    ],
)
def test_grid_fields_outside_their_domain_are_rejected(field, value, message):
    with pytest.raises(GameValidationError, match=message):
        replace(GridConfig(), **{field: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("n_players", 3, "grid solver supports one or two players"),
        ("running", (lambda t, x, a: 0.0,), "need one running and one terminal cost per player"),
        ("action_grids", ((0.0,), ()), "every player needs a nonempty action grid"),
        ("horizon", 0.0, "horizon must be positive"),
    ],
)
def test_diffusion_specs_the_solver_cannot_take_are_rejected(field, value, message):
    spec, _ = pde_preset("static")
    with pytest.raises(GameValidationError, match=message):
        replace(spec, **{field: value})


def test_unknown_difference_modes_and_presets_are_rejected():
    with pytest.raises(GameValidationError, match="unknown difference mode 'sideways'"):
        first_diff(np.zeros(3), 0.1, 0, mode="sideways")
    with pytest.raises(GameValidationError, match="no PDE preset named 'nosuch'"):
        pde_preset("nosuch")


def test_the_oracle_aborts_when_its_solve_is_not_finite():
    with pytest.raises(NumericInstabilityError, match="oracle HJB solve became non-finite"):
        single_player_hjb(lambda x: math.nan, (0.0,), -1.0, 1.0, 5, 0.1)


def test_grid_fields_take_numpy_scalars_and_keep_documented_bounds():
    grid = GridConfig(
        nx=np.int64(21), ny=np.int32(21), nz=np.int64(5), x_lo=np.float64(-1.0),
        x_hi=np.float32(1.0), z_max=np.float64(1.0), t_final=np.float64(0.1),
        ht=np.float64(1e-3), delta_scale=np.float64(0.5), store_times=(np.float64(0.05),),
    )
    assert grid.nx == 21 and grid.ht == 1e-3
    # cfl_safety above 1 stays allowed (the README documents it); None is the
    # default ht and the scheme's default cfl_safety.
    assert replace(grid, cfl_safety=4.0, ht=None).cfl_safety == 4.0
    assert replace(grid, cfl_safety=None).cfl_safety is None


@pytest.mark.parametrize("delta", [-1.0, math.inf, math.nan])
def test_nodal_set_rejects_a_negative_or_non_finite_delta(delta):
    spec, grid = pde_preset("static")
    field = solve_w(spec, small_grid(grid, nx=11, ny=11, t_final=0.02))
    with pytest.raises(GameValidationError, match="delta must be finite and >= 0"):
        nodal_set(field, 0.0, 0.0, delta=delta)
    assert nodal_set(field, 0.0, 0.0, delta=0.0).delta == 0.0


@pytest.mark.parametrize(
    "nan_data, message",
    [
        ({"drift": lambda t, x, a: math.nan}, "drift exceeds"),
        ({"running": (lambda t, x, a: math.nan,) * 2}, "running cost exceeds"),
        ({"terminal": (lambda x: math.nan,) * 2}, "terminal cost exceeds"),
    ],
    ids=["drift", "running", "terminal"],
)
def test_nan_data_fail_the_declared_bounds(nan_data, message):
    spec, grid = pde_preset("static")
    with pytest.raises(GameValidationError, match=message):
        solve_w(replace(spec, **nan_data), grid)


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
