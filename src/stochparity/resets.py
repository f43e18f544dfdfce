"""Strategy quality, deviation analysis, and the memory-reset repair.

The quality of a Max strategy at a (vertex, memory) pair is the win
probability it still guarantees from there against best play, i.e. the
Min-optimized value of the product MDP. Comparing quality against the
vertex value tells how much of the original guarantee a finite-memory
strategy has burned: in a consistent game the value sequence of a play
is a martingale, so a strategy whose quality has dropped below
val(v) - m/2 (with m the smallest positive value) has deviated in a way
best play punishes. The probability of ever deviating is bounded away
from one for any (m/4)-optimal strategy, which is what makes the repair
below sound.

The repair: whenever the machine is about to act from a pair whose
quality fell strictly below val(v) - m/2, forget the past and act as if
the play had just started. This "memory reset" is itself a Mealy
machine over the same memory states: route every lookup through
rho(mem, v) = initial if (v, mem) triggers a reset else mem. Each play
then consists of windows between resets; only finitely many resets
happen almost surely, and the last window inherits the full guarantee,
so the repaired strategy is optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .chains import ProductChain, State, _absorption, mdp_table, product_chain
from .errors import (
    InconsistentGameError,
    InvalidThresholdError,
    StaleValuesError,
    StrategyError,
)
from .game import GameGraph, Owner, PlayPrefix, check_play_prefix
from .mealy import MealyStrategy, validate_strategy
from .values import ValueMap, check_value_equations, is_consistent, min_positive_value

QualityTable = dict[tuple[str, str], Fraction]


def quality_table(
    g: GameGraph, sigma: MealyStrategy, cap: int = 2**20
) -> QualityTable:
    """Guaranteed win probability of sigma from every (vertex, memory) pair."""
    if sigma.player is not Owner.MAX:
        raise StrategyError("quality is defined for Max strategies")
    return mdp_table(g, sigma, Owner.MIN, cap)


def _table(
    g: GameGraph, sigma: MealyStrategy, cap: int, quality: QualityTable | None
) -> QualityTable:
    """`quality` if it is a table for (g, sigma), else a freshly built one."""
    if quality is None:
        return quality_table(g, sigma, cap)
    pairs = {(v, mem) for v in g.vertex_ids for mem in sigma.memory_states}
    if quality.keys() != pairs:
        raise ValueError(
            "quality table does not match the game's (vertex, memory) pairs"
        )
    return quality


def lower_value(
    g: GameGraph,
    sigma: MealyStrategy,
    cap: int = 2**20,
    *,
    quality: QualityTable | None = None,
) -> ValueMap:
    """What a Max strategy guarantees from each vertex at initial memory.

    `quality`, if given, must be sigma's quality table on g (as built by
    `quality_table`); it is used instead of building the table again. A
    table whose keys are not the (vertex, memory) pairs of (g, sigma)
    raises ValueError.
    """
    table = _table(g, sigma, cap, quality)
    return {v: table[(v, sigma.initial)] for v in g.vertex_ids}


def upper_value(g: GameGraph, tau: MealyStrategy, cap: int = 2**20) -> ValueMap:
    """What a Min strategy concedes at most, from each vertex at initial memory."""
    if tau.player is not Owner.MIN:
        raise StrategyError("upper value is defined for Min strategies")
    table = mdp_table(g, tau, Owner.MAX, cap)
    return {v: table[(v, tau.initial)] for v in g.vertex_ids}


def optimality_gap(
    g: GameGraph,
    sigma: MealyStrategy,
    vals: ValueMap,
    cap: int = 2**20,
    *,
    quality: QualityTable | None = None,
) -> Fraction:
    """Largest shortfall of sigma's guarantee below the game value.

    `quality` is sigma's quality table on g, used instead of building it
    again; see `lower_value`.
    """
    lo = lower_value(g, sigma, cap, quality=quality)
    return max(vals[v] - lo[v] for v in g.vertex_ids)


def deviation_bound(epsilon: Fraction, m: Union[Fraction, float]) -> Fraction:
    """(1 + epsilon) / (1 + m/2): bound on the deviation probability."""
    _check_threshold(m)
    return (1 + Fraction(epsilon)) / (1 + Fraction(m) / 2)


def _check_threshold(m) -> Fraction:
    if m == math.inf:
        raise InvalidThresholdError("m is infinite (all values are zero)")
    m = Fraction(m)
    if m <= 0:
        raise InvalidThresholdError(f"m must be positive, got {m}")
    return m


def _cuts(vals: ValueMap, m: Fraction) -> dict[str, Fraction]:
    """val(v) - m/2 at every vertex, the line deviation and reset compare quality to."""
    half = m / 2
    return {v: x - half for v, x in vals.items()}


def deviation_date(
    g: GameGraph,
    sigma: MealyStrategy,
    vals: ValueMap,
    m: Union[Fraction, float],
    prefix: PlayPrefix,
    cap: int = 2**20,
) -> Union[int, None]:
    """First position along the prefix at a pair of `deviation_states`.

    That is where quality drops to val - m/2 or below. The inclusive
    comparison makes this the date of a confirmed deviation; the reset
    machinery uses the strict comparison instead, so a pair sitting
    exactly on the boundary counts as deviated here but does not
    trigger a reset.
    """
    m = _check_threshold(m)
    check_play_prefix(g, prefix)
    dev = deviation_states(g, sigma, vals, m, cap)
    mem = sigma.initial
    for i, v in enumerate(prefix):
        if (v, mem) in dev:
            return i
        mem = sigma.step(mem, v)
    return None


def deviation_states(
    g: GameGraph,
    sigma: MealyStrategy,
    vals: ValueMap,
    m: Union[Fraction, float],
    cap: int = 2**20,
    *,
    quality: QualityTable | None = None,
) -> frozenset[tuple[str, str]]:
    """All (vertex, memory) pairs whose quality is at or below val - m/2.

    `quality` is sigma's quality table on g, used instead of building it
    again; see `lower_value`.
    """
    m = _check_threshold(m)
    q = _table(g, sigma, cap, quality)
    cut = _cuts(vals, m)
    return frozenset((v, mem) for (v, mem), x in q.items() if x <= cut[v])


def deviation_probability(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    vals: ValueMap,
    m: Union[Fraction, float],
    start: str,
    cap: int = 2**20,
    *,
    quality: QualityTable | None = None,
) -> Fraction:
    """Exact probability that a play from `start` ever hits a deviated pair.

    Computed on the product chain with every deviated state made
    absorbing, so a play that would only deviate after falling into a
    recurrent class still counts at the moment it first does. `quality`
    is sigma's quality table on g, used instead of building it again;
    see `lower_value`.
    """
    return deviation_probabilities(
        g, sigma, tau, vals, m, [start], cap, quality=quality
    )[start]


def deviation_probabilities(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    vals: ValueMap,
    m: Union[Fraction, float],
    starts: Iterable[str],
    cap: int = 2**20,
    *,
    quality: QualityTable | None = None,
) -> dict[str, Fraction]:
    """`deviation_probability` from every start vertex, by one absorption solve.

    One chain is built from all starts. A state's absorption probability
    depends only on the states it can reach, so each start gets exactly
    the value its own chain would give.
    """
    dev = deviation_states(g, sigma, vals, m, cap, quality=quality)
    chain, absorbing = _deviation_chain(g, sigma, tau, dev, starts)
    hit = _absorption(chain.states, chain.transitions, absorbing)
    return {v: hit[s] for v, s in chain.start.items()}


def _deviation_chain(
    g: GameGraph,
    sigma: MealyStrategy,
    tau: MealyStrategy,
    dev: frozenset[tuple[str, str]],
    starts: Iterable[str],
) -> tuple[ProductChain, frozenset[State]]:
    """The chain from `starts`, walked once and stopped at the deviated pairs.

    Returns the chain, whose deviated states loop to themselves with
    probability 1, and the set of those states. The walk gives a deviated
    state its self-loop when it first reaches it and never expands it, so
    the chain keeps only the states plays reach up to their first deviation.
    """
    chain = product_chain(g, sigma, tau, starts, stop=dev)
    return chain, frozenset(s for s in chain.states if s[:2] in dev)


@dataclass
class ResetStrategy:
    """A base strategy together with its reset-repaired machine.

    `strategy` is the compiled Mealy machine; `reset_pairs` lists the
    (vertex, memory) pairs at which it forgets the past, which happens
    exactly where the base quality fell strictly below val - m/2.
    """

    base: MealyStrategy
    values: ValueMap
    m: Fraction
    quality: QualityTable
    reset_pairs: frozenset[tuple[str, str]]
    strategy: MealyStrategy


def reset_transform(
    g: GameGraph,
    sigma: MealyStrategy,
    vals: ValueMap,
    m: Union[Fraction, float],
    cap: int = 2**20,
    *,
    quality: QualityTable | None = None,
) -> ResetStrategy:
    """Compile the memory-reset repair of a Max strategy on a consistent game.

    The game must be consistent (prune it first if not) with correct
    values, and m must be the smallest positive value. The compiled
    machine routes every update/action lookup through the reset map, so
    its behavior is: replay sigma on the suffix starting at the last
    reset. The base machine may reference edges absent from `g` (for
    instance, pruned ones) as long as every pair that would play such
    an edge triggers a reset; otherwise the compiled machine would be
    unrealizable here, which raises StrategyError. `quality` is sigma's
    quality table on g, used instead of building it again; see
    `lower_value`.
    """
    if sigma.player is not Owner.MAX:
        raise StrategyError("reset transform is defined for Max strategies")
    m = _check_threshold(m)
    stale = check_value_equations(g, vals)
    if stale:
        raise StaleValuesError("; ".join(stale))
    if m != min_positive_value(vals):
        raise InvalidThresholdError(
            f"m is {m} but the smallest positive value is {min_positive_value(vals)}"
        )
    if not is_consistent(g, vals):
        raise InconsistentGameError(
            "game has controlled edges that change the value; prune first"
        )

    q = _table(g, sigma, cap, quality)
    cut = _cuts(vals, m)
    reset_pairs = frozenset((v, mem) for (v, mem), x in q.items() if x < cut[v])

    def route(mem: str, v: str) -> str:
        return sigma.initial if (v, mem) in reset_pairs else mem

    update = {
        (mem, v): sigma.update[(route(mem, v), v)] for (mem, v) in sigma.update
    }
    action = {
        (mem, v): sigma.action[(route(mem, v), v)] for (mem, v) in sigma.action
    }
    compiled = MealyStrategy(
        Owner.MAX, sigma.memory_states, sigma.initial, update, action
    )
    bad = validate_strategy(g, compiled)
    if bad:
        raise StrategyError(
            "reset strategy is not realizable in this game (the base strategy "
            "plays a missing edge from a pair that does not reset): " + "; ".join(bad)
        )
    return ResetStrategy(
        base=sigma,
        values=dict(vals),
        m=m,
        quality=q,
        reset_pairs=reset_pairs,
        strategy=compiled,
    )


def reset_windows(reset: ResetStrategy, trace: Sequence[str]) -> list[int]:
    """Start position of the active window at each step of a trace.

    Recomputes, from the definition, where the repaired strategy's
    suffix windows begin: position n starts a new window exactly when
    the base quality at (trace[n], window memory) is strictly below
    val - m/2. The result is nondecreasing and the compiled machine's
    memory always equals the base machine's memory over the current
    window; tests rely on both.
    """
    sigma = reset.base
    starts: list[int] = []
    t = 0
    wmem = sigma.initial
    for i, v in enumerate(trace):
        if (v, wmem) in reset.reset_pairs:
            t = i
            wmem = sigma.initial
        starts.append(t)
        wmem = sigma.step(wmem, v)
    return starts
