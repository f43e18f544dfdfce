"""Exact game values, local value equations, and superfluous-edge pruning.

Values are computed by enumeration: every pair of memoryless strategies
is solved exactly, and the lower envelope (max of row minima) gives the
values and Max's witness σ*. Both players have memoryless optimal
strategies in these games, so some Min strategy concedes no more than
those values against any Max strategy; the first such strategy is Min's
witness, and finding none is reported as an implementation bug rather
than silently resolved. A memoryless pair's chain is the game graph with
every controlled vertex forced, so pairs are solved over the vertex
graph by one kernel object (`chains._Chain`): Max's moves are laid once
per Max strategy, and each Min strategy's moves are evaluated over the
Min vertices only. This module only enumerates: pairs whose Random-row
tips and hops agree share one evaluation, and the envelope and the
witness check compare ranks.

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

import itertools
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
    _block,
    _decode,
    _quote,
    _require_keys,
)
from .mealy import (
    MealyStrategy,
    _memoryless_choices,
    _strategy_from_object,
    _strategy_text,
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
            # an unreduced n/d: one integer identity, a Fraction for messages only
            n, d, x = 0, 1, vals[v]
            for w, p in g.distribution[v]:
                y = vals[w]
                q = p.denominator * y.denominator
                n, d = n * q + d * p.numerator * y.numerator, d * q
            if n * x.denominator == x.numerator * d:
                continue
            expect = Fraction(n, d)
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

    Solves every memoryless strategy pair (capped) exactly and takes the
    max-of-minima envelope for Max: the lower values, and σ*, the
    enumeration-first σ achieving them at every vertex at once
    (`chains._optimum`). σ* holds every τ to at least those values, so τ
    is optimal iff it concedes at most the lower value at every vertex
    against every σ; τ* is the enumeration-first such τ. Both witnesses
    are thus the lexicographically smallest optimal move choices, and
    finding no σ* or no τ* is the determinacy check.

    Each pair goes through the kernel's two stages. `_Chain.lay`, once
    per σ, lays σ's moves and the Min vertices without a choice; the
    other Min vertices stay ends, and `_Chain.evaluate` hops τ's moves
    over them, once per distinct Random-row tips and hops, so pairs that
    collapse alike share one evaluation. Any other vertex has the value
    of its stage-1 end.
    """
    n_pairs = count_memoryless(g, Owner.MAX) * count_memoryless(g, Owner.MIN)
    if n_pairs > cap:
        raise CapExceededError(n_pairs, cap, "strategy pair enumeration")

    max_owned, sigmas = _memoryless_choices(g, Owner.MAX)
    min_owned, taus = _memoryless_choices(g, Owner.MIN)
    sigmas, taus = list(sigmas), list(taus)
    vertices = g.vertex_ids
    # a Min vertex without a choice is forced, as a single-edge Random row
    # is; the choosers' successors are what τ picks from
    transitions, choices = dict(g.distribution), {}
    for u in min_owned:
        if len(g.successors[u]) == 1:
            transitions[u] = ((g.successors[u][0], 1),)
        else:
            choices[u] = g.successors[u]
    chain = _Chain(vertices, transitions, {v: g.priority(v) for v in vertices})
    # every stage-1 end: a decided cycle, a branching state or a chooser
    places = [True, False, *chain.rows, *choices]
    place = {e: i for i, e in enumerate(places)}

    # stage 1 once per σ, with the place of every vertex's stage-1 end;
    # stage 2 once per distinct Random-row tips and hops, shared by every
    # pair that collapses to them
    evaluated: dict[tuple, dict] = {}
    found: list = []
    sigma_at: list[tuple[tuple, tuple]] = []
    for sigma in sigmas:
        tip = chain.lay(zip(max_owned, sigma))
        row_tips = tuple(map(tip.__getitem__, chain.targets))
        memo = evaluated.setdefault(row_tips, {})
        # the tips of the choosers' moves, in the order of `taus`
        hops = list(itertools.product(*(map(tip.__getitem__, ws) for ws in choices.values())))
        for new in itertools.filterfalse(memo.__contains__, hops):
            memo[new] = len(found)
            at = chain.evaluate(row_tips, zip(choices, new))
            found.append(tuple(map(at.__getitem__, places)))
        pick = tuple(map(memo.__getitem__, hops))
        sigma_at.append((pick, tuple(map(place.__getitem__, chain.ends(tip)))))

    # every value is interned in `chain`, so one sort ranks them all and
    # the comparisons are of small integers
    ordered = sorted(chain.interned.values())
    rank = {id(x): i for i, x in enumerate(ordered)}
    for i, vals in enumerate(found):
        found[i] = tuple(map(rank.__getitem__, map(id, vals)))

    # σ's row minimum at each place, once per distinct pick
    least = {
        pick: list(map(min, zip(*map(found.__getitem__, set(pick)))))
        for pick in dict.fromkeys(pick for pick, _ in sigma_at)
    }
    lower, sigma_star = _optimum(
        (
            (sigma, dict(zip(vertices, map(least[pick].__getitem__, at))))
            for sigma, (pick, at) in zip(sigmas, sigma_at)
        ),
        operator.gt,
    )

    # τ concedes at most the lower values against σ iff its rank at each
    # place is at most the least lower rank of the vertices σ leads there,
    # or the top rank where none
    lower_ranks = list(map(lower.__getitem__, vertices))
    checks = set()
    for pick, at in dict.fromkeys(sigma_at):
        bound = [len(ordered) - 1] * len(places)
        for p, r in zip(at, lower_ranks):
            if r < bound[p]:
                bound[p] = r
        checks.add((pick, tuple(bound)))
    tau_star = next(
        (
            tau
            for j, tau in enumerate(taus)
            if all(all(map(operator.le, found[pick[j]], bound)) for pick, bound in checks)
        ),
        None,
    )
    if sigma_star is None or tau_star is None:
        raise DeterminacyError(
            "no memoryless strategy holds every vertex to the lower values; this is a bug"
        )

    lower = {v: ordered[r] for v, r in lower.items()}
    return Solution(
        values=lower,
        sigma_star=memoryless(g, Owner.MAX, dict(zip(max_owned, sigma_star))),
        tau_star=memoryless(g, Owner.MIN, dict(zip(min_owned, tau_star))),
        consistent=is_consistent(g, lower),
        m=min_positive_value(lower),
        lower_enum=lower,
        upper_enum=dict(lower),
    )


# ---------------------------------------------------------------------------
# file format


_SOLUTION = (
    '{\n  "values": %s,\n  "sigma_star": %s,\n  "tau_star": %s,'
    '\n  "consistent": %s,\n  "m": "%s"\n}\n'
)


def serialize_solution(sol: Solution) -> str:
    values = sorted(sol.values.items())
    values = ['%s: "%s"' % (_quote(v), format_rational(x)) for v, x in values]
    return _SOLUTION % (
        _block(values, 1, "{}"),
        _strategy_text(sol.sigma_star, 1),
        _strategy_text(sol.tau_star, 1),
        "true" if sol.consistent else "false",
        "inf" if sol.m == math.inf else format_rational(sol.m),
    )


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
        sigma_star=_witness(obj, "sigma_star"),
        tau_star=_witness(obj, "tau_star"),
        consistent=obj["consistent"],
        m=m,
    )


def _witness(obj: dict, key: str) -> MealyStrategy:
    """A solution file's witness, read as a strategy file; errors name the key."""
    try:
        return _strategy_from_object(obj[key])
    except GameFormatError as exc:
        raise GameFormatError(f"solution file: {key}: {exc}") from None
