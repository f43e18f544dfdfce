"""Exact solving and strategy analysis for finite stochastic parity games.

Everything value-like is an exact `fractions.Fraction`; floats appear
only inside the Monte Carlo sampler and as the math.inf sentinel for
the smallest-positive-value threshold of an all-zero game.

The sampler module `simulate` is registered at import but its code runs
on first use: the exact layers never compile or execute it.
"""

import importlib.util as _util
import sys as _sys

from .chains import (
    Outcome,
    ProductChain,
    absorption_probabilities,
    bsccs,
    chain_win_probability,
    classify_bscc,
    mdp_table,
    mdp_value,
    product_chain,
)
from .errors import (
    CapExceededError,
    DeterminacyError,
    GameFormatError,
    GameValidationError,
    IllegalPlayError,
    InconsistentGameError,
    InvalidThresholdError,
    SimulationError,
    StaleValuesError,
    StochparityError,
    StrategyError,
)
from .game import (
    Edge,
    GameGraph,
    Owner,
    UltimatelyPeriodicPlay,
    Vertex,
    dual_game,
    format_rational,
    parse_game,
    parse_rational,
    random_game,
    serialize_game,
    validate_game,
    winner_ultimately_periodic,
)
from .mealy import (
    MealyStrategy,
    count_memoryless,
    enumerate_memoryless,
    memoryless,
    parse_strategy,
    serialize_strategy,
    shift_strategy,
    stubborn_strategy,
    validate_strategy,
)
from .resets import (
    ResetStrategy,
    deviation_bound,
    deviation_date,
    deviation_probabilities,
    deviation_probability,
    deviation_states,
    lower_value,
    optimality_gap,
    quality_table,
    reset_transform,
    reset_windows,
    upper_value,
)
from .values import (
    Solution,
    check_value_equations,
    is_consistent,
    min_positive_value,
    parse_solution,
    prune_superfluous,
    serialize_solution,
    solve_game,
)


def _lazy_module(name: str):
    """Register submodule `name` in sys.modules; its code runs on first attribute read."""
    spec = _util.find_spec(name)
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


simulate = _lazy_module(__name__ + ".simulate")

# names re-exported from `simulate`, read from it on each access (PEP 562),
# so that importing the package runs none of the sampler's code
_SAMPLER_NAMES = frozenset({
    "DeviationStats",
    "EstimateResult",
    "PlayRecord",
    "estimate_value",
    "sample_play",
    "simulate_deviations",
    "stream",
})


def __getattr__(name: str):
    if name in _SAMPLER_NAMES:
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SAMPLER_NAMES)


__all__ = [
    "CapExceededError",
    "DeterminacyError",
    "DeviationStats",
    "Edge",
    "EstimateResult",
    "GameFormatError",
    "GameGraph",
    "GameValidationError",
    "IllegalPlayError",
    "InconsistentGameError",
    "InvalidThresholdError",
    "MealyStrategy",
    "Outcome",
    "Owner",
    "PlayRecord",
    "ProductChain",
    "ResetStrategy",
    "SimulationError",
    "Solution",
    "StaleValuesError",
    "StochparityError",
    "StrategyError",
    "UltimatelyPeriodicPlay",
    "Vertex",
    "absorption_probabilities",
    "bsccs",
    "chain_win_probability",
    "check_value_equations",
    "classify_bscc",
    "deviation_bound",
    "deviation_date",
    "deviation_probabilities",
    "deviation_probability",
    "deviation_states",
    "dual_game",
    "count_memoryless",
    "enumerate_memoryless",
    "estimate_value",
    "format_rational",
    "is_consistent",
    "lower_value",
    "mdp_table",
    "mdp_value",
    "memoryless",
    "min_positive_value",
    "optimality_gap",
    "parse_game",
    "parse_rational",
    "parse_solution",
    "parse_strategy",
    "product_chain",
    "prune_superfluous",
    "quality_table",
    "random_game",
    "reset_transform",
    "reset_windows",
    "sample_play",
    "serialize_game",
    "serialize_solution",
    "serialize_strategy",
    "shift_strategy",
    "simulate_deviations",
    "solve_game",
    "stream",
    "stubborn_strategy",
    "upper_value",
    "validate_game",
    "validate_strategy",
    "winner_ultimately_periodic",
]

__version__ = "0.1.0"
