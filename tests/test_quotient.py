"""Value-only enumerations range over one action per payoff-equivalence class.

Without policies, ``equilibria._iter_argmin`` lets every player play, at
each unit, only the least action of each class of payoff-equivalent actions
at the unit's row. The first record of every value must stay the one the
full enumeration yields first, with its policy and slack, and the values must
come in the same order; a scope with no ties must yield the records it did
before the quotient existed.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from gameval import build_path_tree, iter_equilibria, load_example, value_index
from gameval import equilibria
from gameval.equilibria import _Scope, _class_minima, _units_for
from gameval.model import PATH_CLASS, STATE_CLASS, tables_of

from specgen import random_game
from test_core import clone_action, indifferent, tied_game
from test_pruning import frontier_scopes

MAX_CLASS = 27**3


def first_records(records) -> list:
    """Each value with its first record, in the order values first come;
    records without a policy repeat a value and are skipped, as
    ``value_index`` skips them."""
    first = {}
    for rec in records:
        if rec.policy is not equilibria._NO_POLICY:
            first.setdefault(rec.value, rec)
    return list(first.items())


def local_units(spec, tree, scope, cls):
    units = _units_for(spec, tree, scope, cls)
    return units, [tuple(map(scope.local.__getitem__, mem)) for mem in units.members]


def tie_heavy_specs(rng: random.Random):
    """Horizon-2 specs with cloned actions (every player's, as in
    ``tied_game``, or one player's) and indifferent players: 2 and 3 players,
    path keyed and Markov, strictly positive and zero kernels."""
    for k in range(24):
        kwargs = dict(
            max_periods=2,
            allow_zero=k % 3 == 0,
            state_dependent=k % 2 == 1,
            n_players=2 + (k % 4 == 3),
        )
        while (spec := random_game(rng, **kwargs)).horizon < 2:
            pass
        if k % 3 == 0:
            spec = indifferent(spec, 0) if k % 4 < 2 else spec
            for player in range(spec.n_players):
                spec = clone_action(spec, player, rng.randrange(2))
            yield spec
        elif k % 3 == 1:
            yield clone_action(spec, k % spec.n_players, rng.randrange(2))
        else:
            yield clone_action(indifferent(spec, 0), 1)


def test_value_index_keeps_the_first_record_of_every_value():
    rng = random.Random(15)
    compared = quotiented = 0
    for spec in tie_heavy_specs(rng):
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        classes = (PATH_CLASS, STATE_CLASS) if spec.state_dependent else (PATH_CLASS,)
        for start, cls in itertools.product(tree.decision_nodes(root)[:2], classes):
            scope = _Scope(spec, tree, start)
            units, local = local_units(spec, tree, scope, cls)
            if units.count > MAX_CLASS:
                continue
            full = list(iter_equilibria(spec, tree, start, cls=cls))
            index = value_index(spec, tree, start, cls=cls)
            assert list(index.items()) == first_records(full)
            compared += 1
            if any(_class_minima(scope.tables, scope.rows[mem[0]]) for mem in local):
                quotiented += 1
                fewer = iter_equilibria(spec, tree, start, cls=cls, with_policies=False)
                assert sum(1 for _ in fewer) <= len(full)
    assert compared >= 40 and quotiented >= 20


def test_truncated_scopes_keep_the_first_record_of_every_value():
    """Root scopes stopped at time 2, as ``verify_dpp`` builds them."""
    rng = random.Random(23)
    compared = 0
    while compared < 12:
        spec = tied_game(
            rng,
            zero_first=compared % 2 == 0,
            max_periods=3,
            allow_zero=compared % 3 == 0,
            state_dependent=compared % 4 == 1,
        )
        tree = build_path_tree(spec)
        if spec.horizon < 3:
            continue
        classes = (PATH_CLASS, STATE_CLASS) if spec.state_dependent else (PATH_CLASS,)
        for scope, cls in itertools.product(list(frontier_scopes(spec, tree, rng)), classes):
            if cls == STATE_CLASS and not scope.is_markov():
                continue
            if _units_for(spec, tree, scope, cls).count > MAX_CLASS:
                continue
            run = functools.partial(iter_equilibria, spec, tree, scope.start, cls=cls, scope=scope)
            assert first_records(run(with_policies=False)) == first_records(run())
            compared += 1


@pytest.mark.parametrize("cls, most", [(PATH_CLASS, 16), (STATE_CLASS, 2)])
def test_the_state_example_enumerates_one_action_per_class(cls, most):
    """262,144 path-class and 2,048 state-class records before the quotient."""
    spec = load_example("state")
    tree = build_path_tree(spec)
    root = tree.levels[0][0]
    records = list(iter_equilibria(spec, tree, root, cls=cls, with_policies=False))
    assert len(records) <= most
    values = [value for value, _ in first_records(records)]
    assert values == list(value_index(spec, tree, root, cls=cls))


def test_a_scope_without_ties_yields_every_record():
    """No row of the scope has two equivalent actions: the value-only stream is
    the full stream, with a policy on each value's first record only."""
    rng = random.Random(4)
    checked = 0
    for k in range(30):
        spec = random_game(rng, max_periods=2, allow_zero=k % 2 == 0, state_dependent=k % 3 == 0)
        tree = build_path_tree(spec)
        root = tree.levels[0][0]
        scope = _Scope(spec, tree, root)
        _, local = local_units(spec, tree, scope, PATH_CLASS)
        if any(_class_minima(scope.tables, scope.rows[mem[0]]) for mem in local):
            continue
        full = list(iter_equilibria(spec, tree, root))
        bare = list(iter_equilibria(spec, tree, root, with_policies=False))
        assert [(r.value, r.slack) for r in bare] == [(r.value, r.slack) for r in full]
        seen = set()
        for got, want in zip(bare, full):
            fresh = got.value not in seen
            seen.add(got.value)
            assert got.policy == (want.policy if fresh else equilibria._NO_POLICY)
        checked += 1
    assert checked >= 20


def test_a_cloned_action_is_never_a_class_minimum():
    """A clone of an action has its cost and weights, and a higher index."""
    rng = random.Random(7)
    for n_players in (2, 3):
        spec = random_game(rng, max_periods=2, n_players=n_players)
        for player in range(n_players):
            cloned = clone_action(spec, player, 1)
            tables = tables_of(cloned, build_path_tree(cloned))
            for row, end in enumerate(tables.end):
                if end is None:
                    minima = equilibria._class_minima(tables, row)
                    assert minima is not None and 2 not in minima[player]
                    assert 1 in minima[player]
