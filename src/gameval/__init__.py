"""Set values of finite-horizon nonzero-sum stochastic games.

The discrete core enumerates Nash and epsilon-Nash equilibria of exact
rational games, computes the set of their cost vectors together with its
state-dependent, symmetric, and Pareto variants, and verifies when the
backward set-valued recursion reproduces it. A grid solver for an auxiliary
control PDE recovers the continuous-time set value as a near-zero level set.
"""

from .dpp import (
    DppReport,
    OpenLoopReport,
    open_loop_lq_demo,
    pareto_dpp_counterexample,
    verify_dpp,
)
from .equilibria import (
    DEFAULT_POLICY_CAP,
    DEFAULT_SELECTION_CAP,
    EquilibriumRecord,
    ValueSet,
    best_response,
    is_equilibrium,
    iter_equilibria,
    one_step_equilibria,
    pareto_filter,
    set_value_bruteforce,
    set_value_dpp,
    strong_pareto_filter,
    value_index,
)
from .errors import EnumerationCapExceeded, GameValidationError, NumericInstabilityError
from .hjb import (
    CoupledCost,
    DiffusionGameSpec,
    GridConfig,
    NodalResult,
    PdeField,
    nodal_set,
    pde_preset,
    single_player_hjb,
    solve_w,
)
from .io import dump_game, load_game
from .model import (
    PATH_CLASS,
    STATE_CLASS,
    SYMMETRIC_CLASS,
    GameSpec,
    PathTree,
    Policy,
    StoppingTime,
    build_path_tree,
    cost_J,
)
from .planner import (
    PlannerOptimum,
    ProbeReport,
    Scalarization,
    dictatorship_value,
    planner_optimum,
    time_inconsistency_probe,
)
from .presets import build_pareto_spec, load_example

__version__ = "0.1.0"
