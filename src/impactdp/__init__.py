"""Optimal trade execution on scenario trees under transient price impact."""

from .dynamics import (
    MarketPath,
    cash_innovation,
    closing_trade,
    innovation_envelope,
    terminal_wealth_explicit,
    terminal_wealth_recursive,
)
from .tree import (
    GeneratorSpec,
    MonotoneDepthReport,
    PredictableAssignment,
    ScenarioTree,
    TreeNode,
    generate,
    monotone_depth_check,
    preset,
)
from .analysis import (
    convexity_probe,
    indirect_utility_demo,
    monte_carlo_eval,
    nonconvexity_demo,
)
from .oracle import (
    ActionGrid,
    CapacityError,
    brute_force_solve,
    history_dp,
)
from .solver import (
    MarketState,
    SolveConfig,
    SolveReport,
    SolverNumericError,
    backward_induce,
    evaluate_strategy,
    exact_state_dp,
    forward_extract,
    one_step_optimize,
    solve,
)
from .utility import (
    UtilitySpec,
    capped_linear,
    check_assumptions,
    exponential,
    parse_utility,
    piecewise_linear,
)

__version__ = "0.1.0"
