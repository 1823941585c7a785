"""Markov specs solved on the (time, state) lattice agree with the prefix tree.

A Markov spec's path-keyed twin (``truncate_game`` stopped at the horizon, so
nothing is truncated) has the same tree, kernel and costs but
``state_dependent=False``, which makes every memo key on node ids. The
recursion, the dictatorship value and the consistency probe must give equal
results on both, including blown selection caps.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

from gameval import (
    EnumerationCapExceeded,
    GameValidationError,
    StoppingTime,
    build_path_tree,
    load_example,
    load_game,
)
from gameval.dpp import verify_dpp
from gameval.equilibria import set_value_bruteforce, set_value_dpp, strong_pareto_filter
from gameval.model import PATH_CLASS, STATE_CLASS, tables_of
from gameval.planner import (
    Scalarization,
    dictatorship_value,
    planner_optimum,
    time_inconsistency_probe,
)
from gameval.presets import SPEC_FILES

from oracles import all_policy_values, rebuilt, terminal_vector, truncate_game, views
from specgen import random_game

WEIGHTS = (Scalarization.uniform(2), Scalarization.parse("1/3,2/3"))
# The probe enumerates the equilibria of its start node once, and reads its
# later rows from the recursion. The shipped examples probe from the root;
# random specs, up to horizon 6, from the shallowest level whose subtrees
# have at most this many decision nodes.
RANDOM_PROBE_MAX_DECISION_NODES = 7


def path_keyed_twin(spec, tree):
    leaves = tree.levels[spec.horizon]
    terminal = {nid: terminal_vector(spec, tree.node(nid).prefix) for nid in leaves}
    return truncate_game(spec, tree, StoppingTime.at_time(tree, spec.horizon), terminal)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EnumerationCapExceeded as exc:
        return ("cap exceeded", str(exc))


def assert_lattice_equals_tree(spec, *, selection_cap=100_000, probe_max_decision_nodes=None):
    """Compare spec and twin; return whether the recursion blew its cap.

    The probe starts at the root unless ``probe_max_decision_nodes`` is given.
    """
    tree = build_path_tree(spec)
    twin = path_keyed_twin(spec, tree)
    assert spec.state_dependent and not twin.state_dependent
    assert twin.q_positive == spec.q_positive
    capped = False
    for root in tree.levels[0]:
        lattice = outcome(set_value_dpp, spec, tree, root, selection_cap=selection_cap)
        assert lattice == outcome(set_value_dpp, twin, tree, root, selection_cap=selection_cap)
        capped |= isinstance(lattice, tuple)
        for lam in WEIGHTS:
            assert dictatorship_value(spec, tree, root, lam) == dictatorship_value(
                twin, tree, root, lam
            )
    starts = tree.levels[0]
    if probe_max_decision_nodes is not None:
        starts = next(
            level
            for level in tree.levels
            if len(tree.decision_nodes(level[0])) <= probe_max_decision_nodes
        )
    for start in starts:
        report = time_inconsistency_probe(spec, tree, start, WEIGHTS[1])
        assert report == time_inconsistency_probe(twin, tree, start, WEIGHTS[1])
        assert len(report.rows) == len(tree.decision_nodes(start)) - 1
    return capped


@pytest.mark.parametrize("name", sorted(SPEC_FILES))
def test_lattice_equals_tree_on_examples(name):
    spec = load_example(name)
    assert spec.state_dependent and spec.q_positive
    assert_lattice_equals_tree(spec)


def test_lattice_equals_tree_on_random_markov_specs():
    rng = random.Random(2024)
    specs = [
        random_game(rng, max_periods=6, max_states=3, state_dependent=True) for _ in range(40)
    ]
    assert max(spec.horizon for spec in specs) == 6
    capped = [
        assert_lattice_equals_tree(
            spec, selection_cap=1000, probe_max_decision_nodes=RANDOM_PROBE_MAX_DECISION_NODES
        )
        for spec in specs
    ]
    assert any(capped)


def verify_dpp_with_punishments(spec, tree):
    """verify_dpp on a zero kernel, which also fills the Max P memo."""
    verify_dpp(spec, tree, tree.levels[0][0], StoppingTime.at_time(tree, 1))
    assert tables_of(spec, tree).threats


@pytest.mark.parametrize(
    "spec_file, solve",
    [
        (None, lambda spec, tree: set_value_dpp(spec, tree, tree.levels[0][0])),
        (None, lambda spec, tree: dictatorship_value(spec, tree, tree.levels[0][0], WEIGHTS[0])),
        (None, lambda spec, tree: set_value_bruteforce(spec, tree, tree.levels[2][0])),
        (None, lambda spec, tree: time_inconsistency_probe(
            spec, tree, tree.levels[2][0], WEIGHTS[1])),
        (None, lambda spec, tree: verify_dpp(
            spec, tree, tree.levels[0][0], StoppingTime.at_time(tree, 1))),
        (None, lambda spec, tree: strong_pareto_filter(spec, tree, tree.levels[0][0], [])),
        ("zero_kernel_markov.json", verify_dpp_with_punishments),
    ],
    ids=[
        "set_value_dpp", "dictatorship_value", "set_value_bruteforce", "probe", "verify_dpp",
        "strong_pareto_filter", "verify_dpp-zero-kernel",
    ],
)
def test_memoized_recursions_leave_no_reference_cycle(spec_file, solve):
    """The tree, the memos and the compiled tables kept with the tree die
    with the tree's last reference, with no collector run. ``spec_file`` is
    a file of ``tests/data``, or None for the state example."""
    if spec_file is None:
        spec = load_example("state")
    else:
        spec = load_game(Path(__file__).parent / "data" / spec_file)
    gc.disable()
    try:
        tree = build_path_tree(spec)
        alive = weakref.ref(tree), weakref.ref(tables_of(spec, tree))
        solve(spec, tree)
        del tree
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("zero", [False, True], ids=["positive", "zero-kernels"])
def test_brute_force_leaves_no_cycle_that_keeps_the_tables(zero):
    """A multi-unit enumeration, one segment or several, keeps nothing alive:
    the tree and its tables, with their memos, die with the tree's last
    reference, with no collector run."""
    rng = random.Random(3)
    while True:
        spec = random_game(rng, max_periods=3, allow_zero=zero)
        if spec.horizon == 3 and len(spec.states[1]) == 2 and spec.q_positive != zero:
            break
    gc.disable()
    try:
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        alive = weakref.ref(tree), weakref.ref(tables_of(spec, tree))
        assert set_value_bruteforce(spec, tree, root)
        assert tables_of(spec, tree).value_index
        del tree
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def test_path_keyed_specs_stay_per_node():
    """Path-keyed data differ between prefixes that share (time, state)."""
    rng = random.Random(8)
    lam = WEIGHTS[1]
    for _ in range(8):
        spec = random_game(rng, max_periods=2)
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        every_control = all_policy_values(spec, tree, root).points
        assert dictatorship_value(spec, tree, root, lam) == min(map(lam.score, every_control))
    for _ in range(4):
        spec = random_game(rng, max_periods=3)
        tree = build_path_tree(spec)
        report = time_inconsistency_probe(spec, tree, tree.levels[0][0], lam)
        for row in report.rows:
            nid = tree.id_of(row.prefix)
            local = planner_optimum(set_value_bruteforce(spec, tree, nid), lam)
            assert row.planner_value == local.value


# Horizon 30: a root state r0, then states m0, m1, m2 at every time, so the
# tree has (3^31 - 1) / 2 prefixes; the kernel moves with player 0 only.
DEEP_SPEC = Path(__file__).parent / "data" / "markov_h30.json"

# Each deep check runs in a fresh interpreter with at most this much address
# space and time, so a regression that builds the deep tree again fails the
# check with MemoryError or a timeout instead of exhausting the host.
GUARD_BYTES = 1_500_000_000
GUARD_SECONDS = 60
GUARD_PRELUDE = f"""
import resource
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = {GUARD_BYTES} if hard == resource.RLIM_INFINITY else min({GUARD_BYTES}, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
"""


def run_guarded(code: str) -> subprocess.CompletedProcess:
    """Run Python ``code`` under the guard, with the package and the tests importable."""
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", GUARD_PRELUDE + code],
        capture_output=True,
        text=True,
        timeout=GUARD_SECONDS,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )


def assert_passes_guarded(check) -> None:
    result = run_guarded(f"from test_lattice import {check.__name__}; {check.__name__}()")
    assert result.returncode == 0, result.stderr


def run_cli_guarded(*argv: str) -> subprocess.CompletedProcess:
    return run_guarded(f"import sys; from gameval.cli import main; sys.exit(main({list(argv)!r}))")


def solve_the_deep_markov_spec():
    spec = load_game(DEEP_SPEC)
    tree = build_path_tree(spec)
    assert spec.state_dependent and spec.q_positive and spec.horizon == 30
    assert len(tree.nodes) == (3**31 - 1) // 2
    root = tree.levels[0][0]
    assert not set_value_dpp(spec, tree, root).is_empty
    dictatorship_value(spec, tree, root, WEIGHTS[0])
    # Two prefixes sharing (28, m2): each subtree has 13 nodes, so brute force
    # is an independent check of the recursion on the deep tree.
    a = tree.id_of(("r0",) + ("m0",) * 27 + ("m2",))
    b = tree.id_of(("r0",) + ("m1", "m2") * 14)
    assert len(tree.subtree(a)) == 13 and tree.node(b).t == 28
    recursive = set_value_dpp(spec, tree, a)
    assert recursive == set_value_bruteforce(spec, tree, a)
    assert recursive == set_value_dpp(spec, tree, b)
    for lam in WEIGHTS:
        least = min(map(lam.score, all_policy_values(spec, tree, a).points))
        assert dictatorship_value(spec, tree, a, lam) == least
        assert dictatorship_value(spec, tree, b, lam) == least


def test_deep_markov_spec_is_solved_without_its_tree():
    assert_passes_guarded(solve_the_deep_markov_spec)


def verify_dpp_deep_in_the_deep_markov_tree():
    """A stopping time at a whole level keeps it as a range of ids, not a set.

    Level 29 of the horizon-30 tree holds 3^29 prefixes; the 3 reachable from
    the start are the frontier.
    """
    spec = load_game(DEEP_SPEC)
    tree = build_path_tree(spec)
    start = tree.id_of(("r0",) + ("m0",) * 27 + ("m2",))
    stopping = StoppingTime.at_time(tree, 29)
    for cls in (PATH_CLASS, STATE_CLASS):
        report = verify_dpp(spec, tree, start, stopping, selection_class=cls)
        assert report.relation == "equal"


def test_verify_dpp_deep_in_a_deep_markov_tree():
    assert_passes_guarded(verify_dpp_deep_in_the_deep_markov_tree)


def verify_dpp_at_a_hitting_time_in_the_deep_markov_tree():
    """A hitting time keeps each level's stride of ids as a range, not a set.

    About 10^14 nodes of the horizon-30 tree carry ``m1``. From a t = 28
    start, play stops at the child in ``m1`` and runs on to the leaves
    elsewhere, so the frontier mixes times 29 and 30.
    """
    spec = load_game(DEEP_SPEC)
    tree = build_path_tree(spec)
    start = tree.id_of(("r0",) + ("m0",) * 27 + ("m2",))
    stopping = StoppingTime.hitting_state(tree, "m1")
    frontier = stopping.frontier(tree, start)
    assert sorted(tree.node(nid).t for nid in frontier) == [29, 30, 30, 30, 30, 30, 30]
    assert stopping.stops_at(tree, tree.id_of(("r0",) + ("m2", "m1") * 14 + ("m0",) * 2))
    for cls in (PATH_CLASS, STATE_CLASS):
        report = verify_dpp(spec, tree, start, stopping, selection_class=cls)
        assert report.relation == "equal"


def test_verify_dpp_at_a_hitting_time_in_a_deep_markov_tree():
    assert_passes_guarded(verify_dpp_at_a_hitting_time_in_the_deep_markov_tree)


def test_deep_markov_spec_from_the_command_line():
    result = run_cli_guarded(
        "setvalue", "--spec", str(DEEP_SPEC), "--engine", "dpp", "--prefix", "r0/m2/m0"
    )
    payload = json.loads(result.stdout)
    assert result.returncode == 0, result.stderr
    assert payload["t"] == 2 and payload["prefix"] == "r0/m2/m0"
    assert payload["points"]


def test_deep_markov_brute_force_exits_3_before_building_a_scope():
    """The class size comes from the level widths: 4 joint actions at each of
    the (3^30 - 1) / 2 decision nodes, reported as a power."""
    result = run_cli_guarded("setvalue", "--spec", str(DEEP_SPEC), "--engine", "brute")
    assert result.returncode == 3, result.stderr
    error = json.loads(result.stderr)
    assert error["error"] == "EnumerationCapExceeded"
    units = (3**30 - 1) // 2
    assert error["message"] == f"joint policy enumeration: needs 4**{units} > cap 10000000"


def deep_zero_kernel_doc():
    """The horizon-30 spec where joint action (1, 1) never reaches its first
    successor: that entry becomes 0 and the rest are rescaled, at every time."""
    doc = json.loads(DEEP_SPEC.read_text())
    for key, vec in doc["transitions"].items():
        if key.endswith("|1,1"):
            first, *rest = vec
            total = sum(F(vec[s]) for s in rest)
            doc["transitions"][key] = {first: "0", **{s: str(F(vec[s]) / total) for s in rest}}
    return doc


DEEP_ZERO_KERNEL_CAP = "continuation selection enumeration: needs 6956936641024 > cap 100000"


def solve_the_deep_zero_kernel_spec():
    """From the root the selection cap stops the recursion; near the leaves,
    one prefix per (time, state) at t = 28 and 29, it equals brute force."""
    spec = load_game(deep_zero_kernel_doc())
    tree = build_path_tree(spec)
    assert not spec.q_positive
    with pytest.raises(EnumerationCapExceeded, match=f"^{DEEP_ZERO_KERNEL_CAP}$"):
        set_value_dpp(spec, tree, tree.levels[0][0])
    for head in (("m0",) * 27, ("m0",) * 28):
        for state in ("m0", "m1", "m2"):
            nid = tree.id_of(("r0", *head, state))
            assert set_value_dpp(spec, tree, nid) == set_value_bruteforce(spec, tree, nid)


def test_a_deep_zero_kernel_spec_stops_at_the_selection_cap():
    assert_passes_guarded(solve_the_deep_zero_kernel_spec)


def test_a_deep_zero_kernel_spec_exits_3_from_the_command_line(tmp_path):
    path = tmp_path / "deep_zero_kernel.json"
    path.write_text(json.dumps(deep_zero_kernel_doc()))
    result = run_cli_guarded("setvalue", "--spec", str(path), "--engine", "dpp")
    assert result.returncode == 3, result.stderr
    assert json.loads(result.stderr) == {
        "error": "EnumerationCapExceeded", "message": DEEP_ZERO_KERNEL_CAP,
    }


def _markov_spec(**overrides):
    spec = random_game(random.Random(11), max_periods=3, max_states=3, state_dependent=True)
    return spec, rebuilt(spec, **overrides)


def test_markov_validation_rejects_missing_transition_by_time_and_state():
    spec, _ = _markov_spec()
    t = spec.horizon - 1
    state = spec.states[t][-1]
    transitions = dict(views(spec)["transitions"])
    del transitions[(t, state, (1, 0))]
    with pytest.raises(GameValidationError, match=rf"t={t}, state='{state}', action=\(1, 0\)"):
        _markov_spec(transitions=transitions)


def test_markov_validation_zero_entry_clears_q_positive():
    spec, copy = _markov_spec()
    assert spec.q_positive and copy.q_positive
    t = next(t for t in range(spec.horizon) if len(spec.states[t + 1]) > 1)
    state = spec.states[t][0]
    width = len(spec.states[t + 1])
    transitions = dict(views(spec)["transitions"])
    transitions[(t, state, (0, 1))] = (F(1),) + (F(0),) * (width - 1)
    _, zeroed = _markov_spec(transitions=transitions)
    assert not zeroed.q_positive
