"""Command-line interface.

Subcommands: ``setvalue``, ``verify-dpp``, ``planner``, ``solve-pde``, and
``examples``. Results are written as JSON (stdout by default); exit codes are
0 on success, 2 for validation problems, 3 for blown enumeration caps, and 4
for numerical instability.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dpp as dpp_mod
from . import equilibria as eq
from . import hjb, io, planner, presets
from .errors import EnumerationCapExceeded, GameValidationError, NumericInstabilityError
from .model import (
    PATH_CLASS,
    STATE_CLASS,
    GameSpec,
    PathTree,
    StoppingTime,
    build_path_tree,
)

BATTERY = {
    "path": dict(stop=2, variant="full", selection="path"),
    "psistate": dict(stop=2, variant="full", selection="state"),
    "state": dict(stop=1, variant="state", selection="state"),
}

# The solve-pde flags that override a GridConfig field of the same name.
GRID_FLAGS = {
    "nx": int, "ny": int, "nz": int, "z_max": float, "t_final": float,
    "cfl_safety": float, "ht": float, "delta_scale": float,
}


def _load_spec(args) -> GameSpec:
    if getattr(args, "spec", None):
        return io.load_game(args.spec)
    name = getattr(args, "example", None)
    if not name:
        raise GameValidationError("provide --spec FILE or --example NAME")
    if name == "pareto":
        return presets.build_pareto_spec(_pareto_eps(args))
    if name == "openloop":
        raise GameValidationError("the open-loop example has no discrete spec file")
    return presets.load_example(name)


def _caps(args) -> tuple[int, int]:
    """``--cap`` and ``--selection-cap``, each its default when it is not given."""
    return (
        eq.DEFAULT_POLICY_CAP if args.cap is None else args.cap,
        eq.DEFAULT_SELECTION_CAP if args.selection_cap is None else args.selection_cap,
    )


def _pareto_eps(args):
    """``--pareto-eps`` as a rational, 1/100 when it is not given."""
    return io.frac_from_str("1/100" if args.pareto_eps is None else args.pareto_eps)


def _game(args) -> tuple[GameSpec, PathTree, int]:
    """The named spec, its path tree, and the ``--prefix`` node (default: first root)."""
    spec = _load_spec(args)
    tree = build_path_tree(spec)
    start = tree.levels[0][0] if args.prefix is None else tree.id_of(tuple(args.prefix.split("/")))
    return spec, tree, start


def _emit(payload: dict, out: str | None) -> None:
    text = io.write_json(payload, out)
    if out is None:
        print(text)
    else:
        print(f"wrote {out}")


def cmd_setvalue(args) -> int:
    epsilon = io.frac_from_str(args.eps)
    if args.engine != "brute" and args.variant != "full":
        raise GameValidationError("the recursive engine computes the full variant only")
    if args.engine != "brute" and epsilon != 0:
        raise GameValidationError("the recursive engine is exact (eps must be 0)")
    # A cap flag the chosen engine never reads is refused, not ignored.
    if args.engine == "brute" and args.selection_cap is not None:
        raise GameValidationError("--engine brute takes no --selection-cap")
    if args.engine == "dpp" and args.cap is not None and not args.witnesses:
        raise GameValidationError("--engine dpp takes no --cap without --witnesses")
    cap, selection_cap = _caps(args)
    spec, tree, start = _game(args)

    # The brute-force set value and the witnesses read one memoized enumeration.
    if args.engine != "dpp":
        result = eq.variant_set(spec, tree, start, args.variant, eps=epsilon, cap=cap)
    if args.engine != "brute":
        recursive = eq.set_value_dpp(spec, tree, start, selection_cap=selection_cap)
        if args.engine == "both" and result.points != recursive.points:
            raise GameValidationError("engines disagree; this is a bug worth reporting")
        result = recursive

    node = tree.node(start)
    payload = {
        "command": "setvalue",
        "t": node.t,
        "prefix": "/".join(node.prefix),
        "variant": args.variant,
        "epsilon": io.frac_to_str(epsilon),
        "points": [io.vector_to_json(p) for p in result.points],
    }
    if args.witnesses:
        # The first equilibrium of each value in the set, in enumeration order,
        # from the variant's policy class; the Pareto variants keep only
        # witnesses whose value survived the filter.
        wanted = set(result.points)
        cls = eq.VARIANT_POLICY_CLASS[args.variant]
        index = eq.value_index(spec, tree, start, eps=epsilon, cls=cls, cap=cap)
        payload["witnesses"] = [
            io.record_to_json(spec, tree, rec) for value, rec in index.items() if value in wanted
        ]
    _emit(payload, args.out)
    return 0


def cmd_verify_dpp(args) -> int:
    # The Pareto and open-loop reports have a fixed game, start and stopping
    # time, and the open-loop one enumerates nothing.
    fixed = ("prefix", "stop_time", "stop_at_state", "variant", "selection_class")
    if args.example == "openloop":
        fixed += ("cap", "selection_cap")
    for flag in fixed:
        if args.example in ("pareto", "openloop") and getattr(args, flag) is not None:
            name = flag.replace("_", "-")
            raise GameValidationError(f"--example {args.example} takes no --{name}")
    if args.stop_time is not None and args.stop_at_state is not None:
        raise GameValidationError("give --stop-time or --stop-at-state, not both")
    if args.example == "openloop":
        rep = dpp_mod.open_loop_lq_demo(0.0 if args.sigma is None else args.sigma)
        payload = {
            "command": "verify-dpp",
            "example": "openloop",
            **dataclasses.asdict(rep),
            "value_gap": rep.gap,
        }
        print(f"whole-game value {rep.whole_game_value} vs composed {rep.composed_value}")
        _emit(payload, args.out)
        return 0

    cap, selection_cap = _caps(args)
    if args.example == "pareto":
        rep = dpp_mod.pareto_dpp_counterexample(
            _pareto_eps(args),
            policy_cap=cap,
            selection_cap=selection_cap,
        )
    else:
        preset = BATTERY.get(args.example, dict(stop=None, variant="full", selection="path"))
        stop_time = preset["stop"] if args.stop_time is None else args.stop_time
        variant = args.variant or preset["variant"]
        selection = args.selection_class or preset["selection"]

        spec, tree, start = _game(args)
        if args.stop_at_state is not None:
            stopping = StoppingTime.hitting_state(tree, args.stop_at_state)
        else:
            t0 = stop_time if stop_time is not None else tree.node(start).t + 1
            stopping = StoppingTime.at_time(tree, t0)
        selection_cls = STATE_CLASS if selection == "state" else PATH_CLASS
        rep = dpp_mod.verify_dpp(
            spec,
            tree,
            start,
            stopping,
            variant=variant,
            selection_class=selection_cls,
            policy_cap=cap,
            selection_cap=selection_cap,
        )
    payload = {"command": "verify-dpp", **io.report_to_json(rep)}
    if args.example:
        payload["example"] = args.example
    print(f"relation: {rep.relation}")
    _emit(payload, args.out)
    return 0


def cmd_planner(args) -> int:
    if args.selection_cap is not None:
        raise GameValidationError("planner takes no --selection-cap")
    spec, tree, start = _game(args)
    if args.weights:
        lam = planner.Scalarization.parse(args.weights)
    else:
        lam = planner.Scalarization.uniform(spec.n_players)
    cap = _caps(args)[0]
    if args.probe:
        rep = planner.time_inconsistency_probe(spec, tree, start, lam, cap=cap)
        opt, dictatorship = rep.optimum, rep.dictatorship_value
    else:
        # The weights' length is checked here, before the enumeration.
        dictatorship = planner.dictatorship_value(spec, tree, start, lam)
        vs = eq.set_value_bruteforce(spec, tree, start, cap=cap)
        opt = planner.planner_optimum(vs, lam)
    payload = {
        "command": "planner",
        "weights": [io.frac_to_str(w) for w in lam.weights],
        "has_equilibrium": opt.has_equilibrium,
        "value": None if opt.value is None else io.frac_to_str(opt.value),
        "argmin": [io.vector_to_json(p) for p in opt.argmin],
        "dictatorship_value": io.frac_to_str(dictatorship),
    }
    if args.probe:
        payload["consistent"] = rep.consistent
        payload["rows"] = [
            {
                "t": row.t,
                "prefix": "/".join(row.prefix),
                "planner_value": None
                if row.planner_value is None
                else io.frac_to_str(row.planner_value),
                "continuation_score": io.frac_to_str(row.continuation_score),
                "continuation_value": io.vector_to_json(row.continuation_value),
                "consistent": row.consistent,
            }
            for row in rep.rows
        ]
    _emit(payload, args.out)
    return 0


def _replace_grid(grid: hjb.GridConfig, fields) -> hjb.GridConfig:
    """``grid`` with ``fields`` replaced; a field it lacks is a validation error."""
    try:
        return dataclasses.replace(grid, **fields)
    except TypeError as exc:
        raise GameValidationError(f"bad grid settings: {exc}") from exc


def cmd_solve_pde(args) -> int:
    name = args.preset
    grid_doc = {}
    if args.config:
        doc = io.read_json(args.config, "config file")
        name = doc.get("preset", name)
        grid_doc = doc.get("grid", {})
    if not name:
        raise GameValidationError("provide --preset NAME or --config FILE naming one")
    spec, grid = hjb.pde_preset(name)
    flags = {k: getattr(args, k) for k in GRID_FLAGS if getattr(args, k) is not None}
    grid = _replace_grid(_replace_grid(grid, grid_doc), flags)

    field = hjb.solve_w(spec, grid)
    x0 = args.x0 if args.x0 is not None else float(grid.x_values[grid.nx // 2])
    res = hjb.nodal_set(field, 0.0, x0, delta=args.delta)
    print(
        f"preset {name}: nt={field.nt} ht={field.ht:.3e} min W={field.min_w:.3e} "
        f"clusters={len(res.clusters)} delta={res.delta:.4f}"
    )
    nodal_payload = {
        "command": "solve-pde",
        "preset": name,
        "t": 0.0,
        "x": x0,
        "delta": res.delta,
        "min_w": field.min_w,
        "points": [list(p) for p in res.points],
        "clusters": [
            {
                "centroid": list(c.centroid),
                "n_nodes": c.n_nodes,
                "diameter": c.diameter,
                "w_min": c.w_min,
                "touches_y_boundary": c.touches_y_boundary,
            }
            for c in res.clusters
        ],
    }
    if args.out_prefix:
        out_prefix = Path(args.out_prefix)
        meta = {
            "preset": name,
            "nx": grid.nx,
            "ny": grid.ny,
            "n_players": spec.n_players,
            "hx": grid.hx,
            "hy": grid.hy,
            "ht": field.ht,
            "bounds": [grid.x_lo, grid.x_hi, grid.y_lo, grid.y_hi],
            "times": sorted(field.layers),
        }
        np.savez(
            str(out_prefix) + "_field.npz",
            meta=json.dumps(meta),
            x=grid.x_values,
            y=grid.y_values,
            **{f"W_{i}": field.layers[t] for i, t in enumerate(sorted(field.layers))},
        )
        io.write_json(nodal_payload, str(out_prefix) + "_nodal.json")
        print(f"wrote {out_prefix}_field.npz and {out_prefix}_nodal.json")
    else:
        print(io.write_json(nodal_payload, None))
    return 0


def cmd_examples(args) -> int:
    if args.action == "list":
        for name in presets.EXAMPLE_NAMES:
            print(name)
        for name in presets.PDE_PRESETS:
            print(f"{name} (pde)")
        return 0
    if not args.example:
        raise GameValidationError("examples dump needs a preset name")
    _emit(io.dump_game(_load_spec(args)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gameval",
        description="Set values of finite nonzero-sum stochastic games",
    )
    parser.add_argument(
        "--threads",
        type=int,
        help="worker hint (default: GAMEVAL_THREADS or 1); evaluation is deterministic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_example=True):
        p.add_argument("--spec", help="game spec JSON file")
        if with_example:
            p.add_argument("--example", help="named preset")
        p.add_argument("--prefix", help="evaluation prefix like s0/s10 (default: first root)")
        p.add_argument("--cap", type=int)
        p.add_argument("--selection-cap", type=int)
        p.add_argument("--pareto-eps", help="kernel perturbation (pareto; default 1/100)")
        p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("setvalue", help="compute a set value")
    common(p)
    p.add_argument("--variant", default="full", choices=list(eq.VARIANT_POLICY_CLASS))
    p.add_argument("--eps", default="0", help="equilibrium slack, rational")
    p.add_argument("--engine", default="brute", choices=["brute", "dpp", "both"])
    p.add_argument("--witnesses", action="store_true", help="include witness policies")
    p.set_defaults(func=cmd_setvalue)

    p = sub.add_parser("verify-dpp", help="compare a set value with its recursion")
    common(p)
    p.add_argument(
        "--variant", choices=[v for v in eq.VARIANT_POLICY_CLASS if v != "strong-pareto"]
    )
    p.add_argument("--selection-class", choices=["path", "state"])
    p.add_argument("--stop-time", type=int, help="stop at a fixed time")
    p.add_argument("--stop-at-state", help="stop when a state label is first hit")
    p.add_argument("--sigma", type=float, help="noise scale (openloop; default 0)")
    p.set_defaults(func=cmd_verify_dpp)

    p = sub.add_parser("planner", help="scalarize the set value")
    common(p)
    p.add_argument("--weights", default=None, help="comma-separated rationals")
    p.add_argument("--probe", action="store_true", help="run the consistency probe")
    p.set_defaults(func=cmd_planner)

    p = sub.add_parser("solve-pde", help="solve the auxiliary PDE and extract level sets")
    p.add_argument("--preset", choices=list(presets.PDE_PRESETS))
    p.add_argument("--config", help="JSON config with preset name and grid overrides")
    for name, typ in {**GRID_FLAGS, "x0": float, "delta": float}.items():
        p.add_argument("--" + name.replace("_", "-"), type=typ)
    p.add_argument("--out-prefix", help="write <prefix>_field.npz and <prefix>_nodal.json")
    p.set_defaults(func=cmd_solve_pde)

    p = sub.add_parser("examples", help="list or dump named presets")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("example", nargs="?", metavar="name")
    p.add_argument("--pareto-eps", help="kernel perturbation (pareto; default 1/100)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_examples)
    return parser


def _check_flags(args) -> None:
    """Reject, before any work, a worker count or an enumeration cap below 1,
    ``--spec`` beside ``--example``, and a flag only another example reads."""
    threads = args.threads
    if threads is None:
        text = os.environ.get("GAMEVAL_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise GameValidationError(f"GAMEVAL_THREADS must be an integer, got {text!r}") from None
    if threads < 1:
        raise GameValidationError("--threads must be at least 1")
    for flag in ("cap", "selection_cap"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise GameValidationError(f"--{flag.replace('_', '-')} must be at least 1")
    example = getattr(args, "example", None)
    if example is not None and getattr(args, "spec", None) is not None:
        raise GameValidationError("give --spec or --example, not both")
    for flag, owner in (("sigma", "openloop"), ("pareto_eps", "pareto")):
        if getattr(args, flag, None) is not None and example != owner:
            name = flag.replace("_", "-")
            raise GameValidationError(f"--{name} applies only to the {owner} example")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    # The reader of stdout went away (`| head`): not a bad input. Point the
    # descriptor at devnull so that flushing what is still buffered at exit
    # cannot raise again.
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    # Any other OSError is a file that is missing, a directory or unreadable: exit 2.
    except (GameValidationError, EnumerationCapExceeded, NumericInstabilityError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
