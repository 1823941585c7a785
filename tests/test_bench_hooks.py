"""The benchmark's tracer hooks names of the package; they must all exist.

``perfbench/tracing.py`` wraps public functions and methods by name. Moving
or renaming one of them breaks traced benchmark runs, so this test installs
the tracer, checks every hook took, and checks that uninstalling restores
the package exactly.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import gameval
from gameval import equilibria, hjb
from gameval.presets import load_example

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
METHODS = (
    (hjb.DiffusionGameSpec, "check_bounds"),
    (hjb.CoupledCost, "own_min"),
    (hjb.CoupledCost, "excess"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces() -> dict[str, dict]:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "gameval" or name.startswith("gameval."))
    }


def test_tracer_hooks_resolve_and_uninstall_restores_them():
    tracing = load_tracing()
    hooked = tracing.TIMED + tracing.COUNTED
    originals = {name: tracing._lookup(name) for name in hooked}
    iter_equilibria = equilibria.iter_equilibria
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr in METHODS}
    spec = load_example("table1")
    before = package_namespaces()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in hooked:
            assert tracing._lookup(name) is not originals[name], name
        assert equilibria.iter_equilibria is not iter_equilibria
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original, attr
        gameval.build_path_tree(spec)
        assert [span[0] for span in tracer.spans] == ["model.build_path_tree"]
    finally:
        tracer.uninstall()

    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original, attr
    after = package_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr}"
