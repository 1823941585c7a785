"""Spans around the package's public functions, installed from outside.

The traced run replaces each public function by a wrapper in every
``gameval`` namespace that holds it (``iter_equilibria`` is looked up in
``gameval.equilibria``, ``gameval.dpp`` and ``gameval.planner``), so calls the
package makes to itself are seen as well as the benchmark's own. Nothing in
the package changes; ``uninstall`` puts the originals back.

A span records its name, start, end, parent span and item id. Spans stay in
memory and are written out when the run ends. A layer's self time is its
span's duration minus the time its child spans cover; spans nest strictly
because the run is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from gameval import equilibria, hjb, model

# Public functions timed as spans, as "module.function" under ``gameval``.
TIMED = (
    "io.load_game",
    "model.build_path_tree",
    "equilibria.set_value_bruteforce",
    "equilibria.set_value_dpp",
    "dpp.verify_dpp",
    "planner.time_inconsistency_probe",
    "planner.dictatorship_value",
    "hjb.solve_w",
    "hjb.nodal_set",
    "hjb.single_player_hjb",
)
# Called too often for a span each; only the calls are counted.
COUNTED = ("equilibria.one_step_equilibria",)
# The three enumerator dispatch paths of iter_equilibria.
ENUM_PATHS = ("equilibria.enum_fast", "equilibria.enum_general", "equilibria.enum_state")


def _lookup(name: str):
    module, function = name.split(".")
    return getattr(sys.modules[f"gameval.{module}"], function)


def enum_path(spec, eps, cls) -> str:
    """Dispatch path of one iter_equilibria call, read from its inputs only."""
    if cls == model.STATE_CLASS:
        return "equilibria.enum_state"
    if cls == model.PATH_CLASS and eps == 0 and spec.n_players == 2 and spec.q_positive:
        return "equilibria.enum_fast"
    return "equilibria.enum_general"


class Tracer:
    """Spans and counts of one traced pass, and the wrappers that record them."""

    def __init__(self):
        # One span is [name, start, end, parent index or -1, item id].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- wrappers --------------------------------------------------------------

    def _timed(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerator(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            name = enum_path(a["spec"], a["eps"], a["cls"])
            self.counts[name + ".calls"] += 1
            return self._timed_generator(fn(*args, **kwargs), name)

        return wrapper

    def _timed_generator(self, gen, name: str):
        # Only the generator's own next() is timed, never the consumer's
        # work between records.
        try:
            while True:
                idx = self.open(name)
                try:
                    record = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts["equilibria.records_yielded"] += 1
                yield record
        finally:
            gen.close()

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gameval" or mod_name.startswith("gameval.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        observers = {
            "model.build_path_tree": self._observe_tree,
            "dpp.verify_dpp": self._observe_verify,
            "hjb.solve_w": self._observe_solve,
        }
        for name in TIMED:
            fn = _lookup(name)
            self._replace_everywhere(fn, self._timed(fn, name, observers.get(name)))
        for name in COUNTED:
            fn = _lookup(name)
            self._replace_everywhere(fn, self._counted(fn, name + ".calls"))
        self._replace_everywhere(
            equilibria.iter_equilibria, self._enumerator(equilibria.iter_equilibria)
        )
        self._replace_method(
            hjb.DiffusionGameSpec,
            "check_bounds",
            self._timed(hjb.DiffusionGameSpec.check_bounds, "hjb.check_bounds"),
        )
        for method in ("own_min", "excess"):
            self._replace_method(
                hjb.CoupledCost,
                method,
                self._counted(getattr(hjb.CoupledCost, method), "hjb.coupled_cost.calls"),
            )

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    # -- observers: counts read from a call's inputs and outputs ----------------

    def _observe_tree(self, tree) -> None:
        self.counts["model.tree_nodes"] += len(tree.nodes)

    def _observe_verify(self, report) -> None:
        self.counts["dpp.selections"] += report.context["n_selections"]

    def _observe_solve(self, field) -> None:
        spec, grid = field.spec, field.grid
        n = spec.n_players
        cells = grid.nx * grid.ny**n * len(spec.joint_actions) * grid.nz**n
        self.counts["hjb.steps"] += field.nt
        self.counts["hjb.cells"] += cells * field.nt

    # -- results -----------------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Self and inclusive seconds, and span counts, per span name."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            self_s[name] += dur
            total_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        return self_s, total_s, calls

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, item]) + "\n")
