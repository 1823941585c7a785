from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from gameval import (
    GameValidationError,
    Policy,
    StoppingTime,
    build_path_tree,
    cost_J,
    dump_game,
    open_loop_lq_demo,
    pareto_dpp_counterexample,
    verify_dpp,
)
from gameval.dpp import check_pareto_eps
from gameval.model import STATE_CLASS
from gameval.presets import build_pareto_spec

from specgen import random_game


def test_path_selections_reproduce_the_set_value(path_game):
    spec, tree, root = path_game
    rep = verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 2))
    assert rep.relation == "equal"


def test_state_selections_lose_the_mixed_value(path_game):
    spec, tree, root = path_game
    rep = verify_dpp(
        spec, tree, root, StoppingTime.at_time(tree, 2), selection_class=STATE_CLASS
    )
    assert rep.relation == "rhs_subset"
    assert set(rep.rhs.points) == {(F(0), F(1, 4)), (F(1, 4), F(0))}
    assert rep.lhs_only == ((F(1, 8), F(1, 8)),)


def test_state_variant_recursion_gains_a_value(state_game):
    spec, tree, root = state_game
    rep = verify_dpp(
        spec,
        tree,
        root,
        StoppingTime.at_time(tree, 1),
        variant="state",
        selection_class=STATE_CLASS,
    )
    assert rep.relation == "lhs_subset"
    assert set(rep.lhs.points) == {(F(0), F(1, 4)), (F(1, 4), F(0))}
    assert (F(1, 8), F(1, 8)) in rep.rhs_only


def test_full_dpp_equal_on_random_positive_kernels():
    rng = random.Random(51)
    for _ in range(10):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        stop_t = rng.randint(1, spec.horizon)
        rep = verify_dpp(spec, tree, root, StoppingTime.at_time(tree, stop_t))
        assert rep.relation == "equal", (rep.lhs_only, rep.rhs_only)


def test_full_dpp_equal_with_hitting_time_stop():
    rng = random.Random(53)
    for _ in range(5):
        spec = random_game(rng, max_periods=3)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        stopping = StoppingTime.hitting_state(tree, spec.states[1][0])
        rep = verify_dpp(spec, tree, root, stopping)
        assert rep.relation == "equal"


def test_partial_dpp_with_zero_probabilities():
    rng = random.Random(57)
    checked = 0
    while checked < 8:
        spec = random_game(rng, allow_zero=True)
        if spec.q_positive:
            continue
        checked += 1
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        rep = verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 1))
        assert rep.relation in ("equal", "rhs_subset")


def test_symmetric_variant_equal_on_positive_kernels():
    rng = random.Random(59)
    for _ in range(8):
        spec = random_game(rng)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        rep = verify_dpp(
            spec, tree, root, StoppingTime.at_time(tree, 1), variant="symmetric"
        )
        assert rep.relation == "equal"


def test_state_variant_partial_dpp_on_markov_specs():
    rng = random.Random(61)
    for _ in range(8):
        spec = random_game(rng, state_dependent=True)
        tree = build_path_tree(spec)
        root = tree.id_of(("r0",))
        rep = verify_dpp(
            spec,
            tree,
            root,
            StoppingTime.at_time(tree, 1),
            variant="state",
            selection_class=STATE_CLASS,
        )
        assert rep.relation in ("equal", "lhs_subset")


def test_stop_time_must_be_in_the_future(path_game):
    spec, tree, root = path_game
    with pytest.raises(GameValidationError):
        verify_dpp(spec, tree, root, StoppingTime.at_time(tree, 0))


def test_a_bad_variant_is_reported_before_a_bad_selection_class(path_game):
    spec, tree, root = path_game
    stopping = StoppingTime.at_time(tree, 1)
    with pytest.raises(GameValidationError, match="^unknown variant 'weak'$"):
        verify_dpp(spec, tree, root, stopping, variant="weak", selection_class="nowhere")
    with pytest.raises(GameValidationError, match="strong Pareto variant has no truncated-game"):
        verify_dpp(spec, tree, root, stopping, variant="strong-pareto")
    with pytest.raises(GameValidationError, match="^selection class must be one of"):
        verify_dpp(spec, tree, root, stopping, selection_class="nowhere")


def test_state_selections_need_equal_sets_at_a_shared_time_and_state():
    spec = random_game(random.Random(0), max_periods=2)
    assert not spec.state_dependent
    tree = build_path_tree(spec)
    stopping = StoppingTime.at_time(tree, 2)
    with pytest.raises(GameValidationError, match="need equal value sets at prefixes sharing"):
        verify_dpp(spec, tree, tree.levels[0][0], stopping, selection_class=STATE_CLASS)


# -- the Pareto counterexample -------------------------------------------------


def test_pareto_stage_tables_via_cost_eval():
    spec = build_pareto_spec(F(1, 100))
    tree = build_path_tree(spec)
    expected = {
        "s10": {(0, 0): (3, 3), (0, 1): (4, 4), (1, 0): (4, 4), (1, 1): (2, 2)},
        "s11": {(0, 0): (6, 6), (0, 1): (11, 7), (1, 0): (11, 7), (1, 1): (1, 5)},
        "s12": {(0, 0): (6, 6), (0, 1): (7, 11), (1, 0): (7, 11), (1, 1): (5, 1)},
        "s13": {(0, 0): (7, 7), (0, 1): (10, 10), (1, 0): (10, 10), (1, 1): (4, 4)},
    }
    for state, table in expected.items():
        nid = tree.id_of(("s0", state))
        for joint, want in table.items():
            policy = Policy(actions={nid: joint})
            assert cost_J(spec, tree, nid, policy) == (F(want[0]), F(want[1]))


def test_pareto_subgame_value_sets():
    rep = pareto_dpp_counterexample(F(1, 100))
    info = rep.context["branch_values"]
    assert info["s10"] == {"values": [["2", "2"], ["3", "3"]], "pareto": [["2", "2"]]}
    assert info["s11"] == {"values": [["1", "5"], ["6", "6"]], "pareto": [["1", "5"]]}
    assert info["s12"] == {"values": [["5", "1"], ["6", "6"]], "pareto": [["5", "1"]]}
    assert info["s13"] == {"values": [["4", "4"], ["7", "7"]], "pareto": [["4", "4"]]}


def test_pareto_recursion_fails_in_both_directions():
    eps = F(1, 100)
    rep = pareto_dpp_counterexample(eps)
    assert rep.relation == "incomparable"
    # the recursion side comes from the unique Pareto selection and lands near (4,4)
    assert rep.rhs.points == ((4 - 4 * eps, 4 - 4 * eps),)
    assert not set(rep.lhs.points) & set(rep.rhs.points)
    # exact left-hand Pareto points: every one is an equilibrium value dominating
    # the recursion output, none is anywhere near it
    assert (2 + 10 * eps, 2 + 10 * eps) in rep.lhs.points


def test_pareto_eps_validity_by_structure_recheck():
    check_pareto_eps(F(1, 5))
    check_pareto_eps(F(1, 1000))
    for bad in (F(1, 4), F(3, 10)):
        with pytest.raises(GameValidationError):
            check_pareto_eps(bad)
    for out_of_range in (F(0), F(1, 3), F(1, 2)):
        with pytest.raises(GameValidationError):
            build_pareto_spec(out_of_range)
    # Any exact rational is read as a Fraction.
    assert dump_game(build_pareto_spec("1/100")) == dump_game(build_pareto_spec(F(1, 100)))


# -- open-loop linear-quadratic game ---------------------------------------------


def test_open_loop_values_match_closed_forms():
    for sigma in (0.0, 1.0, 0.7):
        rep = open_loop_lq_demo(sigma)
        want_whole = -1.5 * (sigma * sigma + 1.0)
        want_comp = -(1.5 * sigma * sigma + 4.0)
        for v in rep.whole_game_value:
            assert abs(v - want_whole) < 1e-10
        for v in rep.composed_value:
            assert abs(v - want_comp) < 1e-10


def test_open_loop_stationarity_residuals():
    for sigma in (0.0, 0.3, 2.0):
        rep = open_loop_lq_demo(sigma)
        assert rep.foc_residual_whole <= 1e-12
        assert rep.foc_residual_composed <= 1e-12


def test_open_loop_gap_never_closes():
    for sigma in (0.0, 0.5, 1.0, 3.0):
        rep = open_loop_lq_demo(sigma)
        assert rep.gap > 1.0


def test_open_loop_equilibrium_controls():
    rep = open_loop_lq_demo(0.0)
    assert rep.stage0_whole == pytest.approx((-0.5, -0.5))
    assert rep.stage0_composed == pytest.approx((-1.0, -1.0))
    with pytest.raises(GameValidationError):
        open_loop_lq_demo(-1.0)
