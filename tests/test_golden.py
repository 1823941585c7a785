"""Byte-for-byte CLI outputs on the tie-heavy ``state`` example and the
Pareto counterexample.

The ``state`` files under ``tests/data/golden/`` were written by the commands
below before the enumerator skipped payoff-equivalent actions. The witnesses
are the first enumerated record of each value, so these outputs pin that rule
as well as the set values. The ``verify-dpp`` file was written before the
one-step games of the recursion and of the ``eps`` check shared one builder;
it pins both. The planner file without ``--probe`` and the pareto dump were
written before the CLI built one planner payload and read its rationals and
example names through ``io``. To rewrite one after a deliberate payload change, run its
command with ``--out`` set to the file; a ``solve-pde`` file is the ``<prefix>_nodal.json``
its command writes with ``--out-prefix``.

``record-sequences-sha256.json`` pins, below the CLI, the ordered records of
``iter_equilibria`` (policy, value, slack) with and without policies.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from gameval import build_pareto_spec, build_path_tree, iter_equilibria, load_example
from gameval.cli import main
from gameval.model import PATH_CLASS, STATE_CLASS
from gameval.presets import SPEC_FILES
from specgen import random_game
from test_core import tied_game

GOLDEN = Path(__file__).parent / "data" / "golden"
DATA = GOLDEN.parent

STATE = ["--example", "state"]
COMMANDS = {
    "setvalue-state-witnesses-brute": ["setvalue", *STATE, "--witnesses", "--engine", "brute"],
    "setvalue-state-witnesses-both": ["setvalue", *STATE, "--witnesses", "--engine", "both"],
    "setvalue-state-witnesses-variant-state": [
        "setvalue", *STATE, "--witnesses", "--variant", "state",
    ],
    "setvalue-state-witnesses-variant-strong-pareto": [
        "setvalue", *STATE, "--witnesses", "--variant", "strong-pareto",
    ],
    "planner-state-probe": ["planner", *STATE, "--weights", "1/2,1/2", "--probe"],
    "verify-dpp-pareto": ["verify-dpp", "--example", "pareto"],
    "planner-path-weights": ["planner", "--example", "path", "--weights", "1/3,2/3"],
    "examples-dump-pareto": ["examples", "dump", "pareto", "--pareto-eps", "1/7"],
    # Written before the CLI loaded each game through one helper and built the
    # open-loop payload from its report type.
    "setvalue-state-dpp": ["setvalue", *STATE, "--engine", "dpp"],
    "verify-dpp-openloop-sigma-1": ["verify-dpp", "--example", "openloop", "--sigma", "1"],
    "verify-dpp-psistate": ["verify-dpp", "--example", "psistate"],
    "verify-dpp-table1": ["verify-dpp", "--example", "table1"],
    # Written before every variant's set came from one engine function.
    "setvalue-path-pareto-witnesses": [
        "setvalue", "--example", "path", "--variant", "pareto", "--witnesses",
    ],
    "setvalue-table2-left-symmetric": [
        "setvalue", "--example", "table2_left", "--variant", "symmetric",
    ],
    "verify-dpp-state": ["verify-dpp", *STATE],
    "verify-dpp-path-symmetric-stop-1": [
        "verify-dpp", "--example", "path", "--variant", "symmetric", "--stop-time", "1",
    ],
    "verify-dpp-path-pareto-stop-1": [
        "verify-dpp", "--example", "path", "--variant", "pareto", "--stop-time", "1",
    ],
    # Written before the monotone sweep took x-constant coefficients as floats
    # and padded y by ceil(P/2) instead of P, at the step the monotone scheme
    # then took by default. The payload carries min_w and each cluster's w_min,
    # so it pins W itself as well as the level set.
    "solve-pde-single-player": ["solve-pde", "--preset", "single-player", "--cfl-safety", "0.25"],
    "solve-pde-zero-sum": ["solve-pde", "--preset", "zero-sum", "--cfl-safety", "0.25"],
    "solve-pde-static": ["solve-pde", "--preset", "static", "--cfl-safety", "0.25"],
    # Written with --cfl-safety 0.9 before that became the monotone scheme's
    # default, so the default step is pinned against outputs made before it.
    "solve-pde-single-player-default": ["solve-pde", "--preset", "single-player"],
    "solve-pde-zero-sum-default": ["solve-pde", "--preset", "zero-sum"],
    "solve-pde-static-default": ["solve-pde", "--preset", "static"],
    # Written on 2026-10-19, before a scope whose only decision node is its
    # start was enumerated from its one-step Nash table. These examples have
    # horizon 1, so the witnesses and the probe's argmin come from that table.
    "setvalue-table1-witnesses-brute": [
        "setvalue", "--example", "table1", "--witnesses", "--engine", "brute",
    ],
    "setvalue-table2-right-witnesses": ["setvalue", "--example", "table2_right", "--witnesses"],
    "planner-table1-probe": ["planner", "--example", "table1", "--weights", "1/3,2/3", "--probe"],
    # Written before verify-dpp rejected the flags a report would ignore. Play
    # on the path example stops where it first hits state s10.
    "verify-dpp-path-stop-at-state-s10": [
        "verify-dpp", "--example", "path", "--stop-at-state", "s10",
    ],
    # Written before verify-dpp's full variant with path selections came from
    # the recursion with off-path punishments instead of enumerations. The
    # two zero-kernel specs (seeded ``random_game(allow_zero=True)`` draws,
    # one path-keyed, one Markov) lose a value to the selections: rhs_subset.
    "verify-dpp-zero-kernel-path-stop-2": [
        "verify-dpp", "--spec", str(DATA / "zero_kernel_path.json"), "--stop-time", "2",
    ],
    "verify-dpp-zero-kernel-markov": [
        "verify-dpp", "--spec", str(DATA / "zero_kernel_markov.json"),
    ],
    # Written by --engine brute before set_value_dpp accepted kernels with
    # zeros; --engine both checks the recursion against brute force on them.
    "setvalue-zero-kernel-path": [
        "setvalue", "--spec", str(DATA / "zero_kernel_path.json"), "--engine", "both",
    ],
    "setvalue-zero-kernel-markov": [
        "setvalue", "--spec", str(DATA / "zero_kernel_markov.json"), "--engine", "both",
    ],
    # Written by enumeration, one stopped game per state selection, before
    # the full variant with state selections read the recursion on table rows.
    "verify-dpp-zero-kernel-markov-state": [
        "verify-dpp", "--spec", str(DATA / "zero_kernel_markov.json"), "--selection-class", "state",
    ],
    "verify-dpp-zero-kernel-path-state": [
        "verify-dpp", "--spec", str(DATA / "zero_kernel_path.json"), "--selection-class", "state",
    ],
    "verify-dpp-path-state-stop-at-state-s10": [
        "verify-dpp", "--example", "path", "--selection-class", "state", "--stop-at-state", "s10",
    ],
    "verify-dpp-path-stop-1": ["verify-dpp", "--example", "path", "--stop-time", "1"],
    "verify-dpp-path-stop-2": ["verify-dpp", "--example", "path", "--stop-time", "2"],
    "verify-dpp-path-prefix-s0-s10-stop-2": [
        "verify-dpp", "--example", "path", "--prefix", "s0/s10", "--stop-time", "2",
    ],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_equals_its_golden_file(name, tmp_path, capsys):
    if COMMANDS[name][0] == "solve-pde":
        out = tmp_path / f"{name}_nodal.json"
        assert main([*COMMANDS[name], "--out-prefix", str(tmp_path / name)]) == 0
    else:
        out = tmp_path / f"{name}.json"
        assert main([*COMMANDS[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# -- ordered equilibrium records ---------------------------------------------------

RECORDS_GOLDEN = GOLDEN / "record-sequences-sha256.json"


def record_cases():
    """Name -> (spec, tree, start, class) for every pinned enumeration: each
    shipped example and a few seeded specs (zero kernels, three players, tied
    actions), at the root and every time-1 node, in the path class and, on
    Markov data, the state class."""
    games = {name: load_example(name) for name in SPEC_FILES if name != "psistate"}
    games["pareto"] = build_pareto_spec(F(1, 100))
    rng = random.Random(24)
    for k in range(3):
        games[f"zero-{k}"] = drawn(random_game, rng, 3, allow_zero=True, state_dependent=k == 1)
    for k in range(2):
        games[f"three-{k}"] = drawn(random_game, rng, 2, n_players=3, allow_zero=k == 1)
    for k in range(2):
        games[f"tied-{k}"] = drawn(tied_game, rng, 2, zero_first=k == 0, state_dependent=k == 1)
    cases = {}
    for name, spec in games.items():
        tree = build_path_tree(spec)
        starts = [nid for level in tree.levels[: min(2, tree.horizon)] for nid in level]
        classes = (PATH_CLASS, STATE_CLASS) if spec.state_dependent else (PATH_CLASS,)
        for start, cls in itertools.product(starts, classes):
            cases[f"{name}/{start}/{cls}"] = spec, tree, start, cls
    return cases


def drawn(make, rng, periods: int, *, allow_zero=False, **kwargs):
    """The first spec ``make`` draws with ``periods`` periods, and with a zero
    kernel entry exactly when ``allow_zero``."""
    while True:
        spec = make(rng, max_periods=periods, allow_zero=allow_zero, **kwargs)
        if spec.horizon == periods and spec.q_positive != allow_zero:
            return spec


def record_digest(records) -> str:
    """SHA-256 of a record sequence: per record, its policy's class and sorted
    actions, its value and its slack."""
    digest = hashlib.sha256()
    for rec in records:
        value, slack = list(map(str, rec.value)), list(map(str, rec.slack))
        line = f"{rec.policy.policy_class} {sorted(rec.policy.actions.items())} {value} {slack}\n"
        digest.update(line.encode())
    return digest.hexdigest()


def record_digests() -> dict:
    """Every case's digest with and without policies. With policies, ``state``
    at its root in the path class is left out: its 262,144 records take
    seconds."""
    out = {}
    for name, (spec, tree, start, cls) in record_cases().items():
        for with_policies in (True, False):
            if with_policies and name == f"state/0/{PATH_CLASS}":
                continue
            records = iter_equilibria(spec, tree, start, cls=cls, with_policies=with_policies)
            out[f"{name}/{'policies' if with_policies else 'values'}"] = record_digest(records)
    return out


def test_record_sequences_equal_their_golden_digests():
    """Every record the exact enumerators yield, in order, with and without
    policies, as written before the walks were recomputed in full and the
    record rule moved into one helper. To rewrite after a deliberate change:
    ``PYTHONPATH=src:tests python -c "import json, test_golden;
    print(json.dumps(test_golden.record_digests(), indent=2))"``."""
    assert record_digests() == json.loads(RECORDS_GOLDEN.read_text())
