"""Level-set solver for the auxiliary control problem of the continuous model.

The state-dependent auxiliary value W(t, x, y) solves, backward from
W(T, x, y) = |g(x) - y|^2,

    dW/dt + min over (a, z) of [ 0.5*W_xx + 0.5*z'W_yy z + z.W_yx
        + sum_i ( excess_i(t,x,a,z_i)^(3/2) - own_min_i(t,x,a_-i,z_i)*W_yi ) ] = 0

where, writing the z-coupled running cost c_i = f_i(t,x,a_i) + b(t,x,a)*z_i,
own_min_i minimizes c_i over player i's action and excess_i = c_i - own_min_i
is nonnegative. Wherever W vanishes at time t the y-vector is an attainable
equilibrium value, so the set value is read off as the near-zero level set on
the grid.

Explicit time stepping on a rectangular grid, one spatial dimension, one or
two players. The second-order part has rank one,
0.5*W_xx + z.W_yx + 0.5*z'W_yy z = 0.5*(d/dx + z.grad_y)^2 W, so the default
(monotone) scheme restricts z to lattice slopes z_i = m_i*hy/(j*hx) and
evaluates it as a three-point stencil along the grid direction
(j*hx, m*hy) with the y drift upwinded: every weight is nonnegative, and W
stays nonnegative by construction. The central variant (``monotone=False``)
keeps central differences for every derivative, with one-sided stencils at
the boundary.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .equilibria import ValueSet
from .errors import GameValidationError, NumericInstabilityError

_BOUND_TOL = 1e-9  # every bound test is written `not (v <= bound)`, so that NaN fails it
# The most explicit time steps one solve may take. The presets take at most 40,
# their refined grids 135 and the tests 2,024; a tiny ht or a long t_final would
# otherwise step for hours.
MAX_TIME_STEPS = 10_000
# The share of its step bound a scheme takes when cfl_safety is None. The
# monotone bound is exact, and the margin below 1 covers data up to _BOUND_TOL
# past their declared bounds and a ceil that rounds ht onto the bound. The
# central bounds are per term, not a positivity limit.
MONOTONE_CFL_SAFETY = 0.9
CENTRAL_CFL_SAFETY = 0.25
_NEG_TOL = 1e-10  # the monotone scheme aborts when W falls below -_NEG_TOL


@dataclass(frozen=True)
class DiffusionGameSpec:
    """Drift-controlled diffusion game with bounded data on action grids."""

    n_players: int
    drift: callable
    running: tuple
    terminal: tuple
    action_grids: tuple
    horizon: float
    drift_bound: float
    cost_bound: float

    def __post_init__(self):
        if self.n_players not in (1, 2):
            raise GameValidationError("grid solver supports one or two players")
        if len(self.running) != self.n_players or len(self.terminal) != self.n_players:
            raise GameValidationError("need one running and one terminal cost per player")
        if len(self.action_grids) != self.n_players or any(
            len(g) == 0 for g in self.action_grids
        ):
            raise GameValidationError("every player needs a nonempty action grid")
        if self.horizon <= 0:
            raise GameValidationError("horizon must be positive")

    @property
    def joint_actions(self) -> list[tuple[float, ...]]:
        return list(itertools.product(*self.action_grids))

    def check_bounds(self, x_values: np.ndarray) -> None:
        """Sample the declared bounds on the grid; continuity is assumed.

        The grid solver tabulates drift and running costs once, at t=0, so
        data that differ between the sampled times are rejected as well.
        """
        samples = []
        for t in (0.0, 0.5 * self.horizon, self.horizon):
            values = []
            for a in self.joint_actions:
                for x in x_values:
                    drift = self.drift(t, float(x), a)
                    if not abs(drift) <= self.drift_bound + _BOUND_TOL:
                        raise GameValidationError(
                            f"drift exceeds declared bound at t={t}, x={x}, a={a}"
                        )
                    values.append(drift)
                    for i in range(self.n_players):
                        cost = self.running[i](t, float(x), a[i])
                        if not abs(cost) <= self.cost_bound + _BOUND_TOL:
                            raise GameValidationError("running cost exceeds declared bound")
                        values.append(cost)
            samples.append(values)
        for t, values in zip((0.5 * self.horizon, self.horizon), samples[1:]):
            if not all(abs(u - v) <= _BOUND_TOL for u, v in zip(samples[0], values)):
                raise GameValidationError(
                    f"drift or running cost changes between t=0 and t={t}; "
                    "the grid solver needs time-invariant data"
                )
        for i in range(self.n_players):
            for x in x_values:
                if not abs(self.terminal[i](float(x))) <= self.cost_bound + _BOUND_TOL:
                    raise GameValidationError("terminal cost exceeds declared bound")


class CoupledCost:
    """The z-coupled running costs and their own-action lower envelope."""

    def __init__(self, spec: DiffusionGameSpec):
        self.spec = spec

    def coupled(self, i: int, t: float, x: float, a: tuple, z_i: float) -> float:
        return self.spec.running[i](t, x, a[i]) + self.spec.drift(t, x, a) * z_i

    def own_min(self, i: int, t: float, x: float, a: tuple, z_i: float) -> float:
        others = list(a)
        best = math.inf
        for ai in self.spec.action_grids[i]:
            others[i] = ai
            best = min(best, self.coupled(i, t, x, tuple(others), z_i))
        return best

    def excess(self, i: int, t: float, x: float, a: tuple, z_i: float) -> float:
        return self.coupled(i, t, x, a, z_i) - self.own_min(i, t, x, a, z_i)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class GridConfig:
    """Rectangular grid and scheme knobs for the W solver.

    Counts are integers and every other number a finite real (``bool`` is
    neither); anything outside a field's domain is a validation error.
    ``ht`` None takes the step bound itself, and ``cfl_safety`` None the
    scheme's share of it: ``MONOTONE_CFL_SAFETY`` or ``CENTRAL_CFL_SAFETY``.
    """

    x_lo: float = -2.0
    x_hi: float = 2.0
    nx: int = 41
    y_lo: float = -1.2
    y_hi: float = 1.2
    ny: int = 41
    t_final: float = 0.25
    z_max: float = 1.5
    nz: int = 13
    cfl_safety: float | None = None
    ht: float | None = None
    delta_scale: float = 1.0
    monotone: bool = True
    store_times: tuple = ()

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            value = getattr(self, name)
            if not _is_count(value):
                raise GameValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("x_lo", "x_hi", "y_lo", "y_hi", "t_final", "z_max", "cfl_safety",
                     "delta_scale", "ht"):
            value = getattr(self, name)
            if not (_is_finite(value) or name in ("cfl_safety", "ht") and value is None):
                raise GameValidationError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.monotone, bool):
            raise GameValidationError(f"monotone must be true or false, got {self.monotone!r}")
        if not all(map(_is_finite, self.store_times)):
            raise GameValidationError("store_times must be finite numbers")
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise GameValidationError("need x_lo < x_hi and y_lo < y_hi")
        if not (math.isfinite(self.x_hi - self.x_lo) and math.isfinite(self.y_hi - self.y_lo)):
            raise GameValidationError("x_hi - x_lo and y_hi - y_lo must be finite")
        if self.nx < 5 or self.ny < 5:
            raise GameValidationError("need at least 5 nodes per spatial axis")
        if not (self.hx * self.hx > 0 and self.hy * self.hy > 0):  # the step bound divides by them
            raise GameValidationError("x or y spacing too small: its square underflows to 0")
        if self.nz < 1 or self.nz % 2 == 0:
            raise GameValidationError("nz must be odd so the z grid contains 0")
        if self.z_max <= 0 or self.t_final <= 0:
            raise GameValidationError("z_max and t_final must be positive")
        if self.cfl_safety is not None and not 0 < self.cfl_safety:
            raise GameValidationError("cfl_safety must be positive")
        if self.ht is not None and not 0 < self.ht:
            raise GameValidationError("ht must be positive")
        if not 0 < self.delta_scale:
            raise GameValidationError("delta_scale must be positive")

    @property
    def hx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_hi - self.y_lo) / (self.ny - 1)

    @property
    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    @property
    def y_values(self) -> np.ndarray:
        return np.linspace(self.y_lo, self.y_hi, self.ny)

    @property
    def z_values(self) -> np.ndarray:
        if self.nz == 1:
            return np.zeros(1)
        return np.linspace(-self.z_max, self.z_max, self.nz)

    def lattice_stencils(self, n_players: int) -> dict:
        """The monotone scheme's z vectors, each mapped to its direction (j, m).

        z_i = m_i*hy/(j*hx) for integers m_i and 1 <= j <= J, with
        |z_i| <= z_max and stencils inside the grid (2j <= nx-1,
        2|m_i| <= ny-1); each z keeps its shortest direction. J is the least j
        whose slopes come within half a z-spacing of every point of
        ``z_values``, so nz and z_max keep their meaning as the z resolution.
        """

        def m_top(j: int) -> int:
            reach = int(self.z_max * j * self.hx / self.hy * (1 + 1e-9))
            return min(reach, (self.ny - 1) // 2)

        half = self.z_max / (self.nz - 1) if self.nz > 1 else math.inf
        slopes = []
        for big_j in range(1, (self.nx - 1) // 2 + 1):
            m = np.arange(-m_top(big_j), m_top(big_j) + 1)
            slopes = np.concatenate([slopes, m * self.hy / (big_j * self.hx)])
            gaps = np.abs(self.z_values[:, None] - slopes[None, :]).min(axis=1)
            if float(gaps.max()) <= half * (1 + 1e-9):
                break
        else:
            raise GameValidationError(
                f"no lattice slopes with j <= {(self.nx - 1) // 2} resolve the z grid "
                f"(z_max={self.z_max}, nz={self.nz}); refine y or lower nz"
            )
        stencils = {}
        for j in range(1, big_j + 1):
            for m in itertools.product(range(-m_top(j), m_top(j) + 1), repeat=n_players):
                if math.gcd(j, *m) == 1:
                    stencils[tuple(mi * self.hy / (j * self.hx) for mi in m)] = (j, m)
        return stencils

    def ht_bound(self, spec: DiffusionGameSpec) -> float:
        """Explicit-scheme step bound from every term of the declared bounds.

        The y drift coefficient |own_min| is at most cost_bound +
        drift_bound*z_max per player. The monotone scheme weighs the centre
        node by 1 - ht*(1/(j*hx)^2 + sum_i |own_min_i|/hy), which is
        nonnegative for every stencil exactly when ht*(1/hx^2 + n*upwind/hy)
        <= 1. The central scheme takes the smallest of its per-term bounds:
        diffusion in x, in y (with z up to z_max) and the y drift. Either
        bound is scaled by ``cfl_safety``, or by the scheme's default share
        when it is None.
        """
        safety = self.cfl_safety
        if safety is None:
            safety = MONOTONE_CFL_SAFETY if self.monotone else CENTRAL_CFL_SAFETY
        upwind = spec.cost_bound + spec.drift_bound * self.z_max
        if self.monotone:
            rate = 1.0 / (self.hx * self.hx) + spec.n_players * upwind / self.hy
            return safety / rate
        return safety * min(
            self.hx * self.hx,
            self.hy * self.hy / (1.0 + self.z_max * self.z_max),
            self.hy / upwind if upwind > 0 else math.inf,
        )

    def resolve_ht(self, spec: DiffusionGameSpec) -> tuple[float, int]:
        bound = self.ht_bound(spec)
        if self.ht is not None:
            if self.ht > bound:
                raise GameValidationError(
                    f"time step {self.ht} violates the stability bound {bound:.3e}"
                )
            ht = self.ht
        else:
            ht = bound
        steps = self.t_final / ht if ht > 0 else math.inf  # a bound that underflows to 0
        if not steps <= MAX_TIME_STEPS:
            raise GameValidationError(f"{steps:.4g} time steps exceed the cap of {MAX_TIME_STEPS}")
        nt = max(1, math.ceil(steps))
        return self.t_final / nt, nt

    def refined(self) -> GridConfig:
        """Halved spatial spacings in x and y, everything else unchanged."""
        return replace(self, nx=2 * self.nx - 1, ny=2 * self.ny - 1, ht=None)


@dataclass
class PdeField:
    """Solved W on the grid, with layers kept at selected times."""

    spec: DiffusionGameSpec
    grid: GridConfig
    layers: dict
    ht: float
    nt: int
    min_w: float

    def layer(self, t: float) -> np.ndarray:
        for key, arr in self.layers.items():
            if abs(key - t) <= 0.5 * self.ht:
                return arr
        raise GameValidationError(
            f"no stored layer near t={t}; stored at {sorted(self.layers)}"
        )


# -- finite differences --------------------------------------------------------


def first_diff(
    w: np.ndarray, h: float, axis: int, mode: str = "central", out: np.ndarray | None = None
) -> np.ndarray:
    out = np.empty_like(w) if out is None else out
    wm = np.moveaxis(w, axis, 0)
    om = np.moveaxis(out, axis, 0)
    if mode == "central":
        # (target, upper, lower, spacing): central inside, one-sided at the ends
        pieces = (
            (om[1:-1], wm[2:], wm[:-2], 2.0 * h),
            (om[:1], wm[1:2], wm[:1], h),
            (om[-1:], wm[-1:], wm[-2:-1], h),
        )
    elif mode == "forward":
        pieces = ((om[:-1], wm[1:], wm[:-1], h),)
    elif mode == "backward":
        pieces = ((om[1:], wm[1:], wm[:-1], h),)
    else:
        raise GameValidationError(f"unknown difference mode {mode!r}")
    for o, upper, lower, step in pieces:
        np.subtract(upper, lower, out=o)
        np.divide(o, step, out=o)
    if mode == "forward":
        om[-1] = om[-2]
    elif mode == "backward":
        om[0] = om[1]
    return out


def second_diff(w: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(w) if out is None else out
    wm = np.moveaxis(w, axis, 0)
    om = np.moveaxis(out, axis, 0)
    # (target, first, middle, last) for (first - 2*middle + last) / h^2, one-sided
    # at the ends
    pieces = (
        (om[1:-1], wm[2:], wm[1:-1], wm[:-2]),
        (om[:1], wm[:1], wm[1:2], wm[2:3]),
        (om[-1:], wm[-1:], wm[-2:-1], wm[-3:-2]),
    )
    for o, first, middle, last in pieces:
        np.multiply(middle, 2.0, out=o)
        np.subtract(first, o, out=o)
        np.add(o, last, out=o)
        np.divide(o, h * h, out=o)
    return out


def _terminal_layer(spec: DiffusionGameSpec, grid: GridConfig) -> np.ndarray:
    xs = grid.x_values
    ys = grid.y_values
    g = [np.array([spec.terminal[i](float(x)) for x in xs]) for i in range(spec.n_players)]
    if spec.n_players == 1:
        return (g[0][:, None] - ys[None, :]) ** 2
    return (g[0][:, None, None] - ys[None, :, None]) ** 2 + (
        g[1][:, None, None] - ys[None, None, :]
    ) ** 2


def _coefficients(spec: DiffusionGameSpec, xs: np.ndarray, zs) -> tuple[list, dict]:
    """Drift columns and excess groups of the bracket, as 1-D arrays over x.

    ``drift(0, x, a)`` is called once per (x, joint action) and
    ``running_i(0, x, a_i)`` once per (x, own action); own_min and excess
    follow by array ops with the float operations and order of
    ``CoupledCost``. own_min_i does not read player i's own action, so it is
    taken once per (player, others' actions, z_i), with the coupled costs it
    minimizes and its drift id, and shared by the joint actions that differ
    in player i's action alone; the memo lives for one call, and each excess
    is the joint action's own coupled cost minus that minimum. No excess is
    negative: IEEE subtraction of a value no larger never is, and
    ``check_bounds`` refuses NaN and infinite drifts and costs first.
    Returns the distinct (player, mu_i = -own_min_i) columns and, per z,
    the groups {drift ids per player: minimum over the group of
    sum_i max(excess_i, 0)^1.5}.
    """
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

    drifts = []
    drift_ids = {}
    own = {}

    def own_terms(i, idx, a, z_i):
        """Player i's coupled costs by own action, their minimum and its drift id."""
        key = (i, idx[:i] + idx[i + 1:], float(z_i).hex())  # hex tells 0.0 from -0.0
        if key not in own:
            costs = [
                running[i][k] + drift[a[:i] + (ai,) + a[i + 1:]] * z_i
                for k, ai in enumerate(grids[i])
            ]
            best = np.full(len(xs), math.inf)
            for c in costs:
                best = np.where(c < best, c, best)  # min() keeps the first of equal values
            column = (i, best.tobytes())
            if column not in drift_ids:
                drift_ids[column] = len(drifts)
                drifts.append((i, -best))
            own[key] = costs, best, drift_ids[column]
        return own[key]

    groups = {}
    for idx in itertools.product(*(range(len(g)) for g in grids)):
        a = tuple(g[k] for g, k in zip(grids, idx))
        for z in zs:
            ids = []
            excess_sum = 0.0
            for i in range(n):
                costs, om, drift_id = own_terms(i, idx, a, z[i])
                ex = costs[idx[i]] - om
                excess_sum = excess_sum + np.maximum(ex, 0.0) ** 1.5
                ids.append(drift_id)
            by_ids = groups.setdefault(z, {})
            ids = tuple(ids)
            by_ids[ids] = np.minimum(by_ids[ids], excess_sum) if ids in by_ids else excess_sum
    return drifts, groups


def _operand(col: np.ndarray, ndim: int):
    """A coefficient column over x as an operand of ``ndim``-dimensional sweep arrays.

    When every entry has the same bits (0.0 and -0.0 differ) the operand is
    that float: numpy applies it to each element with the same result as the
    broadcast column, without the column's strided reads. Otherwise it is the
    column, shaped (nx, 1, ...).
    """
    bits = col.view(np.int64)
    if (bits == bits[0]).all():
        return float(col[0])
    return col.reshape((col.size,) + (1,) * (ndim - 1))


def solve_w(spec: DiffusionGameSpec, grid: GridConfig) -> PdeField:
    """Explicit backward sweep of the auxiliary HJB equation.

    The coefficients are tabulated over the x axis once, at t=0;
    ``check_bounds`` rejects data that change in time. Pairs (a, z) with the
    same z and the same own-min column for every player differ only in the
    summed excess power, which does not depend on W, so each such group keeps
    the pointwise minimum of that sum: adding a common float term preserves
    order, so the minimum over the group is exact. Every excess and drift
    column enters the sweep through ``_operand``: a float where the column is
    constant in x, as on every preset, and the (nx, 1) column otherwise.
    """
    ht, nt = grid.resolve_ht(spec)
    xs = grid.x_values
    spec.check_bounds(xs)
    n = spec.n_players
    if grid.monotone:
        stencils = grid.lattice_stencils(n)
    else:
        stencils = dict.fromkeys(itertools.product(grid.z_values.tolist(), repeat=n))
    drifts, groups = _coefficients(spec, xs, stencils)
    groups = {
        z: {ids: _operand(ex, 2) for ids, ex in by_ids.items()} for z, by_ids in groups.items()
    }

    w = _terminal_layer(spec, grid)
    if grid.monotone:
        terms = _LatticeTerms(grid, w, drifts, stencils)
    else:
        terms = _CentralTerms(grid, w, drifts)
    with np.errstate(over="ignore", invalid="ignore"):
        return _sweep(spec, grid, ht, nt, terms, groups)


class _CentralTerms:
    """Central differences for every derivative: the ``monotone=False`` scheme.

    W is the terminal array itself, updated in place. The sweep sees its
    arrays as (nx, ny^n) matrices.
    """

    def __init__(self, grid, w, drifts):
        self.w = w
        self.shape = (w.shape[0], w[0].size)
        y_axes = range(1, w.ndim)
        self.base, self.z_term, self.tmp, self.val = (np.empty_like(w) for _ in range(4))
        self.w_yy, self.w_y, self.w_yx = ([np.empty_like(w) for _ in y_axes] for _ in range(3))
        self.w_y1y2 = np.empty_like(w)
        self.derivatives = [
            partial(second_diff, w, grid.hx, 0, out=self.base),
            partial(np.multiply, self.base, 0.5, self.base),
        ]
        for i, ax in enumerate(y_axes):
            self.derivatives += [
                partial(second_diff, w, grid.hy, ax, out=self.w_yy[i]),
                partial(first_diff, w, grid.hy, ax, out=self.w_y[i]),
                partial(first_diff, self.w_y[i], grid.hx, 0, out=self.w_yx[i]),
            ]
        if len(y_axes) == 2:
            self.derivatives.append(partial(first_diff, self.w_y[0], grid.hy, 2, out=self.w_y1y2))
        self.drifts = [[(_operand(mu, 2), self.w_y[i].reshape(self.shape))] for i, mu in drifts]

    def interior(self, arr):
        """The nodes of W inside an (nx, ny^n) sweep array."""
        return arr.reshape(self.w.shape)

    def z_calls(self, z):
        """Calls writing 0.5*W_xx + 0.5*z'W_yy z + z.W_yx, and the array they write."""
        tmp, val, z_term = self.tmp, self.val, self.z_term
        calls = []
        for i in range(len(z)):
            calls += [
                partial(np.multiply, self.w_yy[i], 0.5 * z[i] * z[i], tmp),
                partial(np.multiply, self.w_yx[i], z[i], val),
                partial(np.add, tmp, val, tmp),
                partial(np.add, self.base if i == 0 else z_term, tmp, z_term),
            ]
        if len(z) == 2:
            calls += [
                partial(np.multiply, self.w_y1y2, z[0] * z[1], tmp),
                partial(np.add, z_term, tmp, z_term),
            ]
        return calls, z_term.reshape(self.shape)


class _LatticeTerms:
    """Lattice-direction stencils and upwinded y drift: the monotone scheme.

    W lives in one padded array, read flat. In x, the edge rows are
    replicated J deep, with one spare row beyond them at each end; every
    y axis is padded on both sides by D = ceil(P/2) nodes of +inf, with
    P = max|m|, so an axis holds R = ny + 2D nodes. A direction (j, m) is
    then one flat offset o = j*R^n + sum_k m_k*R^(n-1-k), and its stencil
    reads three contiguous slices, flat[c+o], flat[c] and flat[c-o], over the
    core: the nx x rows with their y pads. The sweep works on core arrays of
    shape (nx, R^n) and keeps only their interior. Every weight is
    nonnegative at every node. A direction whose stencil leaves the y grid
    meets +inf and is not offered at that node: from an interior node it
    overshoots its row by at most P - D <= D nodes, so it lands either in its
    own row's pad or in the facing pad of the next row along that axis. z = 0,
    the pure x direction, is offered everywhere. The upwinded y differences
    are zero across the edge (a replicated ghost). Drift factors are sweep
    operands from ``_operand``; an axis's differences are computed only when
    a factor that reads them is not a zero float, which ``_step`` folds out.
    Stencils from pad nodes may read neighbouring or spare x rows; pad values
    are never kept.
    """

    def __init__(self, grid, w, drifts, stencils):
        n, nx, ny = w.ndim - 1, grid.nx, grid.ny
        big_j = max(j for j, _ in stencils.values())
        # ceil(P/2) catches every overshoot (see above); a P = 0 lattice still
        # needs one pad plane for the zero y difference beyond the edge
        pad = max((max(abs(mi) for _, m in stencils.values() for mi in m) + 1) // 2, 1)
        r = ny + 2 * pad
        plane = r**n
        self.shape = (nx, plane)
        padded = np.full((nx + 2 * big_j + 2,) + (r,) * n, np.inf)
        flat = padded.reshape(-1)
        y_in = (slice(pad, pad + ny),) * n
        self.cube_shape, self.y_in = (nx,) + (r,) * n, y_in
        self.w = padded[(slice(big_j + 1, big_j + 1 + nx),) + y_in]
        self.w[...] = w
        ghosts = (
            padded[(slice(1, big_j + 1),) + y_in],
            padded[(slice(big_j + 1 + nx, 2 * big_j + 1 + nx),) + y_in],
        )
        self.derivatives = [
            partial(np.copyto, ghosts[0], self.w[0]),
            partial(np.copyto, ghosts[1], self.w[-1]),
        ]
        c, size = (big_j + 1) * plane, nx * plane

        def core(offset, rows=nx):
            return flat[c + offset:c + offset + rows * plane].reshape(rows, plane)

        self.centre = core(0)
        self.z_term = np.empty(self.shape)
        halves = [
            (i, _operand(np.maximum(mu, 0.0), 2), _operand(np.minimum(mu, 0.0), 2))
            for i, mu in drifts
        ]
        # the axes a drift product reads once ``_step`` folds out zero factors
        read = {i for i, up, down in halves if not (_is_zero(up) and _is_zero(down))}
        # per y axis with stride s, (W[c] - W[c-s]) / hy over the core and one
        # more x row, zero on the planes y = D and y = D + ny: the backward
        # difference at a node is diff[c] and the forward one diff[c+s]
        splits = []
        for k in range(n):
            s = r ** (n - 1 - k)
            diff = np.empty((nx + 1, plane))
            cube = diff.reshape((nx + 1,) + (r,) * n)
            if k in read:
                self.derivatives += [
                    partial(np.subtract, core(0, nx + 1), core(-s, nx + 1), diff),
                    partial(np.divide, diff, grid.hy, diff),
                ]
                self.derivatives += [
                    partial(cube[(slice(None),) * (k + 1) + (e,)].fill, 0.0)
                    for e in (pad, pad + ny)
                ]
            splits.append((diff.reshape(-1)[s:s + size].reshape(self.shape), diff[:nx]))
        self.drifts = [
            [(up, splits[i][0]), (down, splits[i][1])] for i, up, down in halves
        ]
        self.plans = {}
        for z, (j, m) in stencils.items():
            o = j * plane + sum(mk * r ** (n - 1 - k) for k, mk in enumerate(m))
            self.plans[z] = 0.5 / (j * grid.hx) ** 2, core(o), core(-o)

    def interior(self, arr):
        """The nodes of W inside an (nx, R^n) core array."""
        return arr.reshape(self.cube_shape)[(slice(None),) + self.y_in]

    def z_calls(self, z):
        """Calls writing 0.5*[W(x+j*hx, y+m*hy) - 2W + W(x-j*hx, y-m*hy)] / (j*hx)^2."""
        coef, plus, minus = self.plans[z]
        out, centre = self.z_term, self.centre
        calls = [
            partial(np.subtract, plus, centre, out),
            partial(np.add, out, minus, out),
            partial(np.subtract, out, centre, out),
            partial(np.multiply, out, coef, out),
        ]
        return calls, out


def _is_zero(operand) -> bool:
    """A float operand of 0.0 or -0.0; a column is never folded."""
    return isinstance(operand, float) and operand == 0.0


def _step(terms, groups):
    """The numpy calls of one time step, listed once per solve, and the array of H.

    ``terms`` gives W's array ``w``, the sweep shape, the ``derivatives``
    calls that refresh W's differences, the ``drifts`` (per drift column,
    the (operand, difference) products that sum to mu_i*W_yi) and
    ``z_calls(z)``. Each group's candidate is the z term plus its excess
    plus its drift terms, in that order; H is their running minimum, the
    first candidate written straight into it.

    A zero float operand is folded out: a drift product with a zero factor
    is not computed, a drift column whose products are all zero drops from
    every group, and a zero excess is not added. A dropped addend can change
    only the sign of a zero candidate, and so of a zero H. W is never -0.0:
    it starts as squares, and an exact-zero sum rounds to +0.0. So
    W + ht*H keeps its bits. A product 0*inf, which the dropped term would
    have made, can arise only at pad nodes, whose values are discarded.
    """
    val, h_min = np.empty(terms.shape), np.empty(terms.shape)
    calls = list(terms.derivatives)
    drift_terms = []
    for products in terms.drifts:
        live = [(mu, diff) for mu, diff in products if not _is_zero(mu)]
        out = np.empty(terms.shape) if live else None
        for k, (mu, diff) in enumerate(live):
            if k == 0:
                calls.append(partial(np.multiply, mu, diff, out))
            else:
                calls += [
                    partial(np.multiply, mu, diff, val),
                    partial(np.add, out, val, out),
                ]
        drift_terms.append(out)
    first = True
    for z, by_ids in groups.items():
        z_calls, z_term = terms.z_calls(z)
        calls += z_calls
        for ids, excess in by_ids.items():
            addends = [
                a for a in (excess, *(drift_terms[k] for k in ids))
                if a is not None and not _is_zero(a)
            ]
            candidate = h_min if first else val
            if addends:
                calls.append(partial(np.add, z_term, addends[0], candidate))
                calls += [partial(np.add, candidate, a, candidate) for a in addends[1:]]
            elif first:
                calls.append(partial(np.copyto, h_min, z_term))
            else:
                candidate = z_term
            if not first:
                calls.append(partial(np.minimum, h_min, candidate, out=h_min))
            first = False
    return calls, h_min


def _sweep(spec, grid, ht, nt, terms, groups):
    calls, h_min = _step(terms, groups)
    w, h_in = terms.w, terms.interior(h_min)
    layers = {grid.t_final: w.copy()}
    want_times = set(grid.store_times) | {0.0, grid.t_final}
    min_w = float(w.min())
    floor = -_NEG_TOL if grid.monotone else -math.inf
    for step in range(1, nt + 1):
        for call in calls:
            call()
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


# -- level-set extraction --------------------------------------------------------


@dataclass(frozen=True)
class NodalCluster:
    centroid: tuple
    n_nodes: int
    extent: tuple
    w_min: float
    touches_y_boundary: bool  # a member sits at y index 0 or ny-1 on some axis

    @property
    def diameter(self) -> float:
        return max(self.extent)


@dataclass(frozen=True)
class NodalResult:
    points: ValueSet
    clusters: tuple
    delta: float
    t: float
    x: float


def default_delta(grid: GridConfig, ht: float) -> float:
    return grid.delta_scale * (grid.hx + grid.hy + math.sqrt(ht))


def nodal_set(field: PdeField, t: float, x: float, delta: float | None = None) -> NodalResult:
    """Near-zero y-nodes of W(t, x, .) with connected clusters and centroids."""
    grid = field.grid
    layer = field.layer(t)
    if not _is_finite(x):
        raise GameValidationError(f"x={x} is not a grid node")
    xi = int(round((x - grid.x_lo) / grid.hx))
    if not 0 <= xi < grid.nx or abs(grid.x_values[xi] - x) > 1e-9 + 1e-12 * abs(x):
        raise GameValidationError(f"x={x} is not a grid node")
    if delta is None:
        delta = default_delta(grid, field.ht)
    elif not (_is_finite(delta) and delta >= 0):
        raise GameValidationError(f"delta must be finite and >= 0, got {delta!r}")
    sect = layer[xi]
    ys = grid.y_values
    n = field.spec.n_players
    mask = sect <= delta

    points = []
    idxs = np.argwhere(mask)
    for idx in idxs:
        points.append(tuple(float(ys[k]) for k in idx))

    clusters = []
    seen = np.zeros_like(mask, dtype=bool)
    for start in map(tuple, idxs):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            cur = stack.pop()
            members.append(cur)
            for axis in range(n):
                for step in (-1, 1):
                    nxt = list(cur)
                    nxt[axis] += step
                    nxt = tuple(nxt)
                    if all(0 <= nxt[k] < mask.shape[k] for k in range(n)):
                        if mask[nxt] and not seen[nxt]:
                            seen[nxt] = True
                            stack.append(nxt)
        coords = np.array([[ys[k] for k in m] for m in members])
        w_vals = np.array([sect[m] for m in members])
        clusters.append(
            NodalCluster(
                centroid=tuple(float(c) for c in coords.mean(axis=0)),
                n_nodes=len(members),
                extent=tuple(
                    float(coords[:, k].max() - coords[:, k].min()) for k in range(n)
                ),
                w_min=float(w_vals.min()),
                touches_y_boundary=any(k in (0, grid.ny - 1) for m in members for k in m),
            )
        )
    clusters.sort(key=lambda c: c.centroid)
    return NodalResult(
        points=ValueSet.of(points),
        clusters=tuple(clusters),
        delta=float(delta),
        t=t,
        x=x,
    )


# -- independent single-player oracle ---------------------------------------------


def single_player_hjb(
    terminal,
    actions,
    x_lo: float,
    x_hi: float,
    nx: int,
    t_final: float,
    safety: float = 0.4,
) -> np.ndarray:
    """Scalar HJB value v(0, .) for a drift-controlled diffusion, upwind explicit.

    Solves v_t + 0.5*v_xx + min_a (a * v_x) = 0 backward from v(T, x) = g(x).
    Entirely independent of the W machinery; used as an oracle. The
    arguments take ``GridConfig``'s domains (at least 5 finite nodes on
    x_lo < x_hi, a positive t_final and safety) and a nonempty grid of finite
    actions; anything else is a validation error before any work.

    Each step works on arrays allocated once per call. It computes one
    difference d = (v[k+1] - v[k]) / hx, read as the forward difference
    (last entry repeated) and the backward one (first entry repeated), and
    the second difference ((v[k+1] - 2v[k]) + v[k-1]) / hx^2, whose
    one-sided end rows are Python floats (IEEE binary64, as float64 is). So
    v has the bits of the same scheme written with ``first_diff`` and
    ``second_diff``.
    """
    if not _is_count(nx) or nx < 5:
        raise GameValidationError(f"the oracle needs an integer nx >= 5, got {nx!r}")
    if not all(map(_is_finite, (x_lo, x_hi, t_final, safety))):
        raise GameValidationError("x_lo, x_hi, t_final and safety must be finite numbers")
    if not (x_lo < x_hi and t_final > 0 and safety > 0):
        raise GameValidationError("the oracle needs x_lo < x_hi and a positive t_final and safety")
    hx = (x_hi - x_lo) / (nx - 1)
    if not (math.isfinite(x_hi - x_lo) and hx * hx > 0):
        raise GameValidationError("x_hi - x_lo must be finite, and the x spacing's square nonzero")
    actions = tuple(actions)
    if not (actions and all(map(_is_finite, actions))):
        raise GameValidationError("the oracle needs a nonempty grid of finite actions")
    xs = np.linspace(x_lo, x_hi, nx)
    a_max = max(abs(float(a)) for a in actions)
    bound = hx * hx
    if a_max > 0:
        bound = min(bound, hx / a_max)
    ht = safety * bound
    nt = max(1, math.ceil(t_final / ht))
    ht = t_final / nt
    v = np.array([terminal(float(x)) for x in xs], dtype=float)
    h2 = hx * hx
    v_xx, drift, term = np.empty(nx), np.empty(nx), np.empty(nx)
    # d sits in ext[1:nx]; ext[:nx] is the backward difference, ext[1:] the forward
    ext = np.empty(nx + 1)
    d, inner = ext[1:nx], v_xx[1:-1]
    up, mid, down, hi, lo, head, tail = v[2:], v[1:-1], v[:-2], v[1:], v[:-1], v[:3], v[-3:]
    (a0, diff0), *rest = [(a, ext[1:] if a > 0 else ext[:nx]) for a in map(float, actions)]
    for _ in range(nt):
        np.multiply(mid, 2.0, out=inner)
        np.subtract(up, inner, out=inner)
        np.add(inner, down, out=inner)
        np.divide(inner, h2, out=inner)
        (v0, v1, v2), (u2, u1, u0) = head.tolist(), tail.tolist()
        v_xx[0] = ((v0 - v1 * 2.0) + v2) / h2
        v_xx[-1] = ((u0 - u1 * 2.0) + u2) / h2
        np.subtract(hi, lo, out=d)
        np.divide(d, hx, out=d)
        ext[0], ext[-1] = ext[1], ext[-2]
        np.multiply(a0, diff0, out=drift)
        for a, diff in rest:
            np.multiply(a, diff, out=term)
            np.minimum(drift, term, out=drift)
        np.multiply(0.5, v_xx, out=v_xx)
        np.add(v_xx, drift, out=v_xx)
        np.multiply(ht, v_xx, out=v_xx)
        np.add(v, v_xx, out=v)
        if not math.isfinite(float(v.min())):
            raise NumericInstabilityError("oracle HJB solve became non-finite")
    return v


# -- presets -----------------------------------------------------------------------


def _sine_terminal(x: float) -> float:
    return math.sin(math.pi * x / 4.0)


def _ramp_terminal(x: float) -> float:
    return 0.4 * x


def _zero(t: float, x: float, a: float) -> float:
    return 0.0


def pde_preset(name: str) -> tuple[DiffusionGameSpec, GridConfig]:
    if name == "single-player":
        spec = DiffusionGameSpec(
            n_players=1,
            drift=lambda t, x, a: float(a[0]),
            running=(_zero,),
            terminal=(_sine_terminal,),
            action_grids=((-1.0, 0.0, 1.0),),
            horizon=0.25,
            drift_bound=1.0,
            cost_bound=1.0,
        )
        grid = GridConfig(
            x_lo=-2.0, x_hi=2.0, nx=41, y_lo=-1.2, y_hi=1.2, ny=41,
            t_final=0.25, z_max=1.5, nz=13,
        )
        return spec, grid
    if name == "static":
        spec = DiffusionGameSpec(
            n_players=2,
            drift=lambda t, x, a: 0.0,
            running=(_zero, _zero),
            terminal=(lambda x: 0.0, lambda x: 0.0),
            action_grids=((0.0,), (0.0,)),
            horizon=0.1,
            drift_bound=1.0,
            cost_bound=1.0,
        )
        grid = GridConfig(
            x_lo=-1.0, x_hi=1.0, nx=21, y_lo=-1.0, y_hi=1.0, ny=21,
            t_final=0.1, z_max=1.0, nz=5,
        )
        return spec, grid
    if name == "zero-sum":
        g1 = _ramp_terminal
        spec = DiffusionGameSpec(
            n_players=2,
            drift=lambda t, x, a: 0.5 * (a[0] - a[1]),
            running=(_zero, _zero),
            terminal=(g1, lambda x: -g1(x)),
            action_grids=((-1.0, 1.0), (-1.0, 1.0)),
            horizon=0.2,
            drift_bound=1.0,
            cost_bound=1.0,
        )
        grid = GridConfig(
            x_lo=-2.0, x_hi=2.0, nx=21, y_lo=-1.0, y_hi=1.0, ny=21,
            t_final=0.2, z_max=0.5, nz=5,
        )
        return spec, grid
    raise GameValidationError(f"no PDE preset named {name!r}")
