"""Byte-for-byte CLI outputs on the tie-heavy ``state`` example.

The files under ``tests/data/golden/`` were written by the commands below
before the enumerator skipped payoff-equivalent actions. The witnesses are
the first enumerated record of each value, so these outputs pin that rule as
well as the set values. To rewrite one after a deliberate payload change,
run its command with ``--out`` set to the file.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from gameval.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "setvalue-state-witnesses-brute": ["setvalue", "--witnesses", "--engine", "brute"],
    "setvalue-state-witnesses-both": ["setvalue", "--witnesses", "--engine", "both"],
    "setvalue-state-witnesses-variant-state": ["setvalue", "--witnesses", "--variant", "state"],
    "setvalue-state-witnesses-variant-strong-pareto": [
        "setvalue", "--witnesses", "--variant", "strong-pareto",
    ],
    "planner-state-probe": ["planner", "--weights", "1/2,1/2", "--probe"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_equals_its_golden_file(name, tmp_path, capsys):
    command, *flags = COMMANDS[name]
    out = tmp_path / f"{name}.json"
    assert main([command, "--example", "state", *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
