"""The memoized equilibrium-value index against fresh enumerations.

``reference_probe`` is the planner probe as it ran before it read
``value_index``: its own pass over every root record, keeping the first
record of least score, with per-prefix set values from fresh enumerations.
It stays here as the oracle of the probe.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from gameval import (
    EnumerationCapExceeded,
    Scalarization,
    ValueSet,
    build_path_tree,
    cost_J,
    iter_equilibria,
    load_example,
    planner_optimum,
    set_value_bruteforce,
    time_inconsistency_probe,
    value_index,
)
from gameval.cli import main
from gameval.equilibria import _check_class_size, _Scope, _units_for
from gameval.model import PATH_CLASS, POLICY_CLASSES, STATE_CLASS
from gameval.presets import build_pareto_spec

from specgen import random_game
from test_core import clone_action, indifferent, tied_game


def fresh_values(spec, tree, start, **kwargs) -> set:
    return {rec.value for rec in iter_equilibria(spec, tree, start, **kwargs)}


def reference_probe(spec, tree, start, lam):
    """The probe's witness, optimum and rows, from per-record loops."""
    best_score = witness = None
    values = set()
    for rec in iter_equilibria(spec, tree, start):
        if rec.value in values:
            continue
        values.add(rec.value)
        score = lam.score(rec.value)
        if best_score is None or score < best_score:
            best_score, witness = score, rec.policy
    optimum = planner_optimum(ValueSet.of(values), lam)
    rows = []
    if witness is not None:
        for nid in tree.decision_nodes(start)[1:]:
            node = tree.node(nid)
            local = planner_optimum(ValueSet.of(fresh_values(spec, tree, nid)), lam)
            continuation = cost_J(spec, tree, nid, witness)
            score = lam.score(continuation)
            consistent = local.has_equilibrium and score == local.value
            rows.append((node.t, node.prefix, local.value, score, continuation, consistent))
    return optimum, witness, rows


def probe_specs():
    """Random, tie-heavy (two and three players) and Markov specs, the
    perturbed Pareto game, whose probe is inconsistent, and two presets whose
    distinct values tie in score; all with q > 0."""
    rng = random.Random(91)

    def periods(horizon, **kwargs):
        while (spec := random_game(rng, max_periods=horizon, **kwargs)).horizon < horizon:
            pass
        return spec

    specs = [periods(2) for _ in range(4)]
    specs += [indifferent(periods(3), 1) for _ in range(2)]
    for n_players in (2, 3):
        base = periods(2, n_players=n_players)
        specs.append(clone_action(base, 0))
        specs.append(indifferent(base, n_players - 1))
        specs.append(tied_game(rng, zero_first=True, max_periods=2, n_players=n_players))
    markov = periods(2, max_states=3, state_dependent=True)
    specs.append(clone_action(indifferent(markov, 0), 1))
    specs.append(build_pareto_spec(F(1, 100)))
    specs += [load_example("table1"), load_example("path")]
    return specs


@pytest.mark.parametrize("k", range(len(probe_specs())))
def test_probe_matches_the_per_record_loop(k):
    spec = probe_specs()[k]
    assert spec.q_positive
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    lam = Scalarization.uniform(spec.n_players)
    set_value_bruteforce(spec, tree, root)  # the probe then reads a warm index
    report = time_inconsistency_probe(spec, tree, root, lam)
    optimum, witness, rows = reference_probe(spec, tree, root, lam)
    assert report.optimum == optimum
    if witness is None:
        assert report.chosen_value is None and not report.rows
        return
    index = value_index(spec, tree, root)
    first_best = next(v for v in index if lam.score(v) == optimum.value)
    assert index[first_best].policy == witness
    assert report.chosen_value == cost_J(spec, tree, root, witness)
    got = [
        (row.t, row.prefix, row.planner_value, row.continuation_score,
         row.continuation_value, row.consistent)
        for row in report.rows
    ]
    assert got == rows
    bad = next((row for row in report.rows if not row.consistent), None)
    assert report.first_inconsistency == bad


def test_index_keeps_enumeration_order_and_first_records():
    for spec in probe_specs():
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        first = {}
        for rec in iter_equilibria(spec, tree, root):
            first.setdefault(rec.value, rec)
        index = value_index(spec, tree, root)
        assert list(index) == list(first)
        assert dict(index) == first


@pytest.mark.parametrize("reverse", [False, True])
def test_warm_set_values_equal_fresh_enumerations(reverse):
    # Markov, two periods of two states, equal action sets, and ties for player 1.
    spec = indifferent(random_game(random.Random(11), max_periods=2, state_dependent=True), 1)
    keys = list(itertools.product((F(0), F(1, 10)), POLICY_CLASSES))
    if reverse:
        keys.reverse()
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    cold = [set_value_bruteforce(spec, tree, root, eps=eps, cls=cls) for eps, cls in keys]
    for (eps, cls), first in zip(keys, cold):
        warm = set_value_bruteforce(spec, tree, root, eps=eps, cls=cls)
        assert warm == first
        assert set(warm.points) == fresh_values(spec, tree, root, eps=eps, cls=cls)
        assert warm.epsilon == eps
    # Both eps and the symmetric class change the set here (the path and
    # state classes agree on a Markov spec), so a collision would show.
    assert len({vs.points for vs in cold}) == 4


def test_a_warm_index_still_checks_the_cap():
    spec = load_example("path")
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    count = _units_for(spec, tree, _Scope(spec, tree, root), PATH_CLASS).count
    set_value_bruteforce(spec, tree, root)
    with pytest.raises(EnumerationCapExceeded) as err:
        set_value_bruteforce(spec, tree, root, cap=count - 1)
    assert (err.value.required, err.value.cap) == (count, count - 1)
    lam = Scalarization.uniform(spec.n_players)
    with pytest.raises(EnumerationCapExceeded):
        time_inconsistency_probe(spec, tree, root, lam, cap=count - 1)
    with pytest.raises(EnumerationCapExceeded):
        value_index(spec, tree, root, cls=STATE_CLASS, cap=1)
    assert set_value_bruteforce(spec, tree, root, cap=count).points


def test_the_class_size_check_counts_the_units_of_the_scope():
    """The cap check that runs before any scope exists counts, from the
    level widths, the units a scope gives, at every node and in every class."""
    rng = random.Random(59)
    horizons = []
    for state_dependent in (False, True) * 6:
        spec = random_game(rng, max_periods=4, max_states=3, state_dependent=state_dependent)
        tree = build_path_tree(spec)
        horizons.append(spec.horizon)
        for start in tree.subtree(tree.levels[0][0]):
            for cls in POLICY_CLASSES:
                count = _units_for(spec, tree, _Scope(spec, tree, start), cls).count
                _check_class_size(spec, tree, start, cls, count)
                with pytest.raises(EnumerationCapExceeded) as err:
                    _check_class_size(spec, tree, start, cls, count - 1)
                assert err.value.required == count
    assert max(horizons) == 4


def test_planner_probe_over_the_cap_exits_3(capsys):
    assert main(["planner", "--example", "path", "--probe", "--cap", "1"]) == 3
    assert "EnumerationCapExceeded" in capsys.readouterr().err
