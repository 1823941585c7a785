"""The four workloads: their inputs, their items, and the checks on each item.

An item is one unit of timed work that ends in a correctness check: one spec
solved and checked, or one PDE preset solved and checked. Each item returns a
canonical string of its exact results (rationals as sorted "p/q" strings);
the pass digest is the hash of those strings, so two commits that compute
bit-identical set values print the same digest.

Every call into the package goes through a module attribute looked up at call
time (``equilibria.set_value_dpp``, never a name bound at import), so the
wrappers the traced run installs in those namespaces see each call.
"""

from __future__ import annotations

from fractions import Fraction

from gameval import dpp, equilibria, hjb, io, model, planner, presets

import corpus


class CheckFailed(Exception):
    """An item's output broke one of its correctness checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def points_text(vs) -> str:
    return ";".join(sorted(",".join(str(v) for v in p) for p in vs.points))


def shape_name(doc: dict) -> str:
    """States per period, e.g. "1222" for one root state and 2 states after."""
    return "".join(str(len(level)) for level in doc["states"])


def _root_and_tree(doc: dict):
    spec = io.load_game(doc)
    tree = model.build_path_tree(spec)
    return spec, tree, tree.levels[0][0]


# -- positive-corpus -----------------------------------------------------------


def positive_item(doc: dict) -> str:
    spec, tree, root = _root_and_tree(doc)
    check(spec.q_positive, "generated kernel is not strictly positive")
    brute = equilibria.set_value_bruteforce(spec, tree, root)
    recursive = equilibria.set_value_dpp(spec, tree, root)
    check(brute.points == recursive.points, "brute force differs from the recursion")
    lam = planner.Scalarization.uniform(spec.n_players)
    probe = planner.time_inconsistency_probe(spec, tree, root, lam)
    best = planner.planner_optimum(brute, lam)
    check(probe.optimum == best, "probe optimum differs from the optimum over the set value")
    if best.has_equilibrium:
        check(probe.chosen_value in brute.points, "probe chose a value outside the set value")
        check(probe.dictatorship_value <= best.value, "coordinated cost exceeds equilibrium cost")
    bad = probe.first_inconsistency
    return "|".join(
        (
            points_text(brute),
            str(best.value),
            ",".join(map(str, probe.chosen_value or ())),
            str(probe.dictatorship_value),
            str(len(probe.rows)),
            "/".join(bad.prefix) if bad else "-",
        )
    )


def positive_corpus(seed: int, notes: dict) -> list[tuple[str, object]]:
    return [
        (f"positive-{shape_name(doc)}-{k}", lambda doc=doc: positive_item(doc))
        for k, doc in enumerate(corpus.positive_corpus(seed))
    ]


# -- verify-corpus -------------------------------------------------------------


def _report_text(rep) -> str:
    return "|".join((rep.relation, points_text(rep.lhs), points_text(rep.rhs)))


def zero_item(doc: dict) -> str:
    spec, tree, root = _root_and_tree(doc)
    check(not spec.q_positive, "generated kernel has no zero")
    rep = dpp.verify_dpp(spec, tree, root, model.StoppingTime.at_time(tree, 1))
    check(rep.relation in ("equal", "rhs_subset"), f"zero-kernel relation {rep.relation}")
    return _report_text(rep)


def battery_item(doc: dict, stop: int, variant: str, selection: str, want: str) -> str:
    spec, tree, root = _root_and_tree(doc)
    rep = dpp.verify_dpp(
        spec,
        tree,
        root,
        model.StoppingTime.at_time(tree, stop),
        variant=variant,
        selection_class=selection,
    )
    check(rep.relation == want, f"relation {rep.relation}, expected {want}")
    return _report_text(rep)


def pareto_item() -> str:
    rep = dpp.pareto_dpp_counterexample(Fraction(1, 100))
    check(rep.relation == "incomparable", f"pareto relation {rep.relation}")
    return _report_text(rep)


def verify_corpus(seed: int, notes: dict) -> list[tuple[str, object]]:
    items = [
        (f"zero-{shape_name(doc)}-{k}", lambda doc=doc: zero_item(doc))
        for k, doc in enumerate(corpus.zero_corpus(seed))
    ]
    path_doc = io.dump_game(presets.load_example("path"))
    state_doc = io.dump_game(presets.load_example("state"))
    # The shipped battery, with the relations of criteria 4, 5 and 6a.
    battery = [
        ("path", path_doc, 2, "full", model.PATH_CLASS, "equal"),
        ("psistate", path_doc, 2, "full", model.STATE_CLASS, "rhs_subset"),
        ("state", state_doc, 1, "state", model.STATE_CLASS, "lhs_subset"),
    ]
    items += [
        (name, lambda args=args: battery_item(*args)) for name, *args in battery
    ]
    items.append(("pareto", pareto_item))
    return items


# -- markov-ladder ---------------------------------------------------------------


def markov_item(doc: dict) -> str:
    spec, tree, root = _root_and_tree(doc)
    check(spec.q_positive, "generated kernel is not strictly positive")
    want_nodes = (corpus.MARKOV_STATES ** (spec.horizon + 1) - 1) // (corpus.MARKOV_STATES - 1)
    check(len(tree.nodes) == want_nodes, "prefix tree has the wrong size")
    recursive = equilibria.set_value_dpp(spec, tree, root)
    lam = planner.Scalarization.uniform(spec.n_players)
    coordinated = planner.dictatorship_value(spec, tree, root, lam)
    if spec.horizon <= 2:
        brute = equilibria.set_value_bruteforce(spec, tree, root)
        check(brute.points == recursive.points, "brute force differs from the recursion")
    if not recursive.is_empty:
        best = planner.planner_optimum(recursive, lam)
        check(coordinated <= best.value, "coordinated cost exceeds equilibrium cost")
    return f"{spec.horizon}|{points_text(recursive)}|{coordinated}"


def markov_ladder(seed: int, notes: dict) -> list[tuple[str, object]]:
    rungs = len(corpus.MARKOV_HORIZONS)
    return [
        (f"ladder{k // rungs}-H{doc['horizon']}", lambda doc=doc: markov_item(doc))
        for k, doc in enumerate(corpus.markov_ladders(seed))
    ]


# -- pde-presets -------------------------------------------------------------------

# (item name, preset, refine once). The refined single-player grid is 81x81.
PDE_ITEMS = (
    ("single-player", "single-player", False),
    ("zero-sum", "zero-sum", False),
    ("static", "static", False),
    ("single-player-81", "single-player", True),
)


def pde_item(name: str, preset: str, refine: bool, notes: dict) -> str:
    spec, grid = hjb.pde_preset(preset)
    if refine:
        grid = grid.refined()
    field = hjb.solve_w(spec, grid)
    res = hjb.nodal_set(field, 0.0, 0.0)
    # Criterion 10: W stays nonnegative, the level set is one cluster, and a
    # single player's cluster sits within 5(hx+hy) of the scalar HJB oracle.
    check(field.min_w >= -1e-10, f"min W {field.min_w!r} below -1e-10")
    check(len(res.clusters) == 1, f"{len(res.clusters)} clusters, expected 1")
    if spec.n_players == 1:
        oracle = float(
            hjb.single_player_hjb(
                spec.terminal[0],
                spec.action_grids[0],
                grid.x_lo,
                grid.x_hi,
                grid.nx,
                grid.t_final,
            )[grid.nx // 2]
        )
        err = abs(res.clusters[0].centroid[0] - oracle)
        notes.setdefault("oracle_err", {})[name] = err
        check(err <= 5 * (grid.hx + grid.hy), f"centroid {err!r} away from the oracle")
    # The level set is a set of grid nodes; its node coordinates are exact
    # grid values, so the digest is stable against rounding in W.
    nodes = ";".join(sorted(",".join(repr(v) for v in p) for p in res.points.points))
    return f"{preset}|{grid.nx}x{grid.ny}|{field.nt}|{len(res.clusters)}|{nodes}"


def pde_presets(seed: int, notes: dict) -> list[tuple[str, object]]:
    del seed  # the presets are fixed; the seed changes nothing here
    return [
        (args[0], lambda args=args: pde_item(*args, notes)) for args in PDE_ITEMS
    ]


# Workload name -> function(seed, notes) returning its items as (name, thunk).
# ``notes`` collects per-run side figures that are not exact results.
WORKLOADS = {
    "positive-corpus": positive_corpus,
    "verify-corpus": verify_corpus,
    "markov-ladder": markov_ladder,
    "pde-presets": pde_presets,
}
