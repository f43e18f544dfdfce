"""Exact game values, local value equations, and superfluous-edge pruning.

Values are computed by dual enumeration: for every pair of memoryless
strategies the induced chain is solved exactly, then lower (max of row
minima) and upper (min of column maxima) envelopes are compared. Both
players have memoryless optimal strategies in these games, so the two
envelopes must coincide; any mismatch is reported as an implementation
bug rather than silently resolved. A memoryless pair's chain is the game
graph with every controlled vertex forced, so every pair is solved by one
kernel object over the vertex graph (`chains._Chain`), and pairs that
collapse to the same system share one solve within a call.

The resulting value map satisfies the local equations (max over
successors at Max vertices, min at Min vertices, the weighted average
at Random vertices). Controlled edges that lose value (a Max edge into
a strictly smaller value, a Min edge into a strictly larger one) are
never used by optimal play and can be removed; after this pruning every
controlled edge preserves the value exactly, a shape called consistent
here. Consistency is what makes the per-step value sequence of a play a
martingale, which the deviation analysis in `resets` builds on.

Solution files are JSON::

    {
      "values": {"s": "7/8", ...},
      "sigma_star": {...strategy...},
      "tau_star": {...strategy...},
      "consistent": false,
      "m": "1/2"
    }

with "m" the smallest strictly positive value, rendered as "inf" when
every vertex has value zero.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .chains import _Chain, _optimum
from .errors import (
    CapExceededError,
    DeterminacyError,
    GameFormatError,
    StaleValuesError,
)
from .game import (
    GameGraph,
    Owner,
    format_rational,
    parse_rational,
    _decode,
    _require_keys,
)
from .mealy import (
    MealyStrategy,
    _memoryless_choices,
    _strategy_from_object,
    _strategy_object,
    count_memoryless,
    memoryless,
)

ValueMap = dict[str, Fraction]


@dataclass
class Solution:
    """Solver output: exact values plus optimal memoryless witnesses."""

    values: ValueMap
    sigma_star: MealyStrategy
    tau_star: MealyStrategy
    consistent: bool
    m: Union[Fraction, float]
    lower_enum: Union[ValueMap, None] = None
    upper_enum: Union[ValueMap, None] = None


def check_value_equations(g: GameGraph, vals: ValueMap) -> list[str]:
    """Local value equation violations; empty means vals is a fixed point.

    vals must hold a value for each vertex of g and for no other; a
    missing or unknown vertex is reported before any equation is checked.
    """
    out = [f"no value for vertex {v!r}" for v in g.vertex_ids if v not in vals]
    out += [f"value for unknown vertex {v!r}" for v in vals if v not in g.by_id]
    if out:
        return out
    for v in g.vertex_ids:
        owner = g.owner(v)
        if owner is Owner.MAX:
            expect = max(vals[w] for w in g.successors[v])
        elif owner is Owner.MIN:
            expect = min(vals[w] for w in g.successors[v])
        else:
            expect = sum((p * vals[w] for w, p in g.distribution[v]), Fraction(0))
        if vals[v] != expect:
            out.append(
                f"value equation fails at {v!r}: stored {vals[v]}, "
                f"successors give {expect}"
            )
    return out


def min_positive_value(vals: ValueMap) -> Union[Fraction, float]:
    """Smallest strictly positive value, or math.inf when all values are zero."""
    positive = [x for x in vals.values() if x > 0]
    return min(positive) if positive else math.inf


def is_consistent(g: GameGraph, vals: ValueMap) -> bool:
    """True iff every controlled edge preserves the value exactly."""
    for e in g.edges:
        if g.owner(e.src) is not Owner.RANDOM and vals[e.dst] != vals[e.src]:
            return False
    return True


def prune_superfluous(g: GameGraph, vals: ValueMap) -> GameGraph:
    """Remove controlled edges that strictly lose value for their owner.

    A Max edge into a strictly smaller value or a Min edge into a
    strictly larger one is never part of optimal play; dropping them
    all preserves every vertex value and leaves a game in which every
    remaining controlled edge is value-preserving. The value map is
    re-checked against the game first so stale values cannot silently
    produce a wrong pruning.
    """
    violations = check_value_equations(g, vals)
    if violations:
        raise StaleValuesError("; ".join(violations))
    kept = []
    for e in g.edges:
        owner = g.owner(e.src)
        if owner is Owner.MAX and vals[e.dst] < vals[e.src]:
            continue
        if owner is Owner.MIN and vals[e.dst] > vals[e.src]:
            continue
        kept.append(e)
    pruned = GameGraph(g.name, g.vertices, tuple(kept))
    # the owner's equation is attained by some successor, so none can go bare
    assert all(pruned.successors[v] for v in pruned.vertex_ids)
    return pruned


def solve_game(g: GameGraph, cap: int = 2**20) -> Solution:
    """Exact values and optimal memoryless strategies for both players.

    Enumerates all memoryless strategy pairs (capped), solves each
    induced chain exactly, and takes the max-of-minima envelope for Max
    and the min-of-maxima envelope for Min. The two envelopes agreeing
    at every vertex is the determinacy check; the returned witnesses
    are the enumeration-first strategies achieving their envelope at
    every vertex simultaneously (`chains._optimum`), which makes them
    the lexicographically smallest optimal move choices.
    Pairs whose collapsed systems agree (the same end and least priority
    on every Random edge) share one solve within the call.
    """
    n_pairs = count_memoryless(g, Owner.MAX) * count_memoryless(g, Owner.MIN)
    if n_pairs > cap:
        raise CapExceededError(n_pairs, cap, "strategy pair enumeration")

    max_owned, sigmas = _memoryless_choices(g, Owner.MAX)
    min_owned, taus = _memoryless_choices(g, Owner.MIN)
    sigmas, taus = list(sigmas), list(taus)
    vertices = g.vertex_ids
    label = {v: g.priority(v) for v in vertices}
    chain = _Chain(vertices, g.distribution, label)

    row_min: list[ValueMap] = []
    col_max: list[ValueMap] = [dict() for _ in taus]
    for sigma in sigmas:
        moves = list(zip(max_owned, sigma))
        mins: ValueMap | None = None
        for j, tau in enumerate(taus):
            p = chain.values(moves + list(zip(min_owned, tau)))
            cm = col_max[j]
            if mins is None:
                mins = dict(p)
            # values are mostly shared objects (0, 1, a reused solve), and
            # `is` skips comparing those
            for v in vertices:
                x = p[v]
                y = mins[v]
                if x is not y and x < y:
                    mins[v] = x
                y = cm.get(v)
                if y is None or (x is not y and x > y):
                    cm[v] = x
        assert mins is not None
        row_min.append(mins)

    lower, sigma_star = _optimum(zip(sigmas, row_min), operator.gt)
    upper, tau_star = _optimum(zip(taus, col_max), operator.lt)
    if lower != upper:
        raise DeterminacyError(
            "lower and upper enumerations disagree; this is a bug: "
            + ", ".join(
                f"{v}: {lower[v]} vs {upper[v]}" for v in vertices if lower[v] != upper[v]
            )
        )
    if sigma_star is None or tau_star is None:
        raise DeterminacyError("no uniformly optimal memoryless strategy; this is a bug")

    return Solution(
        values=lower,
        sigma_star=memoryless(g, Owner.MAX, dict(zip(max_owned, sigma_star))),
        tau_star=memoryless(g, Owner.MIN, dict(zip(min_owned, tau_star))),
        consistent=is_consistent(g, lower),
        m=min_positive_value(lower),
        lower_enum=lower,
        upper_enum=upper,
    )


# ---------------------------------------------------------------------------
# file format


def serialize_solution(sol: Solution) -> str:
    obj = {
        "values": {v: format_rational(x) for v, x in sorted(sol.values.items())},
        "sigma_star": _strategy_object(sol.sigma_star),
        "tau_star": _strategy_object(sol.tau_star),
        "consistent": sol.consistent,
        "m": "inf" if sol.m == math.inf else format_rational(sol.m),
    }
    return json.dumps(obj, indent=2) + "\n"


def parse_solution(text: Union[bytes, str]) -> Solution:
    obj = _decode(text, "solution file")
    keys = {"values", "sigma_star", "tau_star", "consistent", "m"}
    _require_keys(obj, keys, keys, "solution file")
    if not isinstance(obj["values"], dict):
        raise GameFormatError("solution file: values must be an object")
    values = {
        v: parse_rational(x, f"values[{v!r}]") for v, x in obj["values"].items()
    }
    if not isinstance(obj["consistent"], bool):
        raise GameFormatError("solution file: consistent must be a boolean")
    m: Union[Fraction, float]
    if obj["m"] == "inf":
        m = math.inf
    else:
        m = parse_rational(obj["m"], "m")
    return Solution(
        values=values,
        sigma_star=_strategy_from_object(obj["sigma_star"]),
        tau_star=_strategy_from_object(obj["tau_star"]),
        consistent=obj["consistent"],
        m=m,
    )
