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
"""

from __future__ import annotations

from pathlib import Path

import pytest

from gameval.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

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
    # and padded y by ceil(P/2) instead of P. The payload carries min_w and each
    # cluster's w_min, so it pins W itself as well as the level set.
    "solve-pde-single-player": ["solve-pde", "--preset", "single-player"],
    "solve-pde-zero-sum": ["solve-pde", "--preset", "zero-sum"],
    "solve-pde-static": ["solve-pde", "--preset", "static"],
    # Written on 2026-10-19, before a scope whose only decision node is its
    # start was enumerated from its one-step Nash table. These examples have
    # horizon 1, so the witnesses and the probe's argmin come from that table.
    "setvalue-table1-witnesses-brute": [
        "setvalue", "--example", "table1", "--witnesses", "--engine", "brute",
    ],
    "setvalue-table2-right-witnesses": ["setvalue", "--example", "table2_right", "--witnesses"],
    "planner-table1-probe": ["planner", "--example", "table1", "--weights", "1/3,2/3", "--probe"],
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
