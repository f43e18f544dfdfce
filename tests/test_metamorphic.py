"""Metamorphic relations of the objective, checked on seeded games.

Each relation changes a game in a way whose effect on the values is
known from the objective alone, so it checks `solve_game` without a
second solver: shifting priorities by 2 keeps every parity, and so does
compressing them in order; renaming in order keeps the enumeration
order; an unreachable vertex cannot reach the old ones; a Random edge
split through a vertex of top priority changes the least priority of no
cycle; and the dual game swaps the players' roles.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stochparity import (
    Edge,
    GameGraph,
    MealyStrategy,
    Owner,
    Vertex,
    dual_game,
    random_game,
    serialize_solution,
    solve_game,
)
from stochparity.mealy import count_memoryless
from stochparity.values import check_value_equations

PAIR_CAP = 2000
# seeded `random_game(seed, n, 3, 3, f)`, kept at most PAIR_CAP pairs
CORPUS = [
    (seed, n, f)
    for n in (5, 6, 7, 8)
    for f in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    for seed in range(12)
]


def corpus():
    for seed, n, f in CORPUS:
        g = random_game(seed, n, 3, 3, f)
        if count_memoryless(g, Owner.MAX) * count_memoryless(g, Owner.MIN) <= PAIR_CAP:
            yield g


@pytest.fixture(scope="module")
def solved():
    games = [(g, solve_game(g)) for g in corpus()]
    # the cap leaves most of the corpus, every size included
    assert len(games) >= len(CORPUS) * 3 // 4
    assert {len(g.vertices) for g, _ in games} == {5, 6, 7, 8}
    return games


def relabel(g: GameGraph, new: dict[str, str], shift: int = 0) -> GameGraph:
    return GameGraph(
        g.name,
        tuple(Vertex(new[v.id], v.owner, v.priority + shift) for v in g.vertices),
        tuple(Edge(new[e.src], new[e.dst], e.prob) for e in g.edges),
    )


def relabel_strategy(s: MealyStrategy, new: dict[str, str]) -> MealyStrategy:
    return MealyStrategy(
        s.player,
        s.memory_states,
        s.initial,
        {(m, new[v]): nxt for (m, v), nxt in s.update.items()},
        {(m, new[v]): new[w] for (m, v), w in s.action.items()},
    )


def test_priority_shift_by_two_keeps_the_solution_file(solved):
    same = {v: v for g, _ in solved for v in g.vertex_ids}
    for g, sol in solved:
        shifted = solve_game(relabel(g, same, shift=2))
        assert serialize_solution(shifted) == serialize_solution(sol)


def compressed(priorities: set[int]) -> dict[int, int]:
    """Each priority renumbered in increasing order, from the least one's
    parity up, one step wherever the parity changes: 0, 2, 3, 5 -> 0, 0, 1, 1."""
    out: dict[int, int] = {}
    for p in sorted(priorities):
        last = out[max(out)] if out else p % 2
        out[p] = last if (last - p) % 2 == 0 else last + 1
    return out


def test_priority_compression_keeps_the_solution_file(solved):
    changed = 0
    for g, sol in solved:
        new = compressed({v.priority for v in g.vertices})
        changed += any(p != q for p, q in new.items())
        squeezed = GameGraph(
            g.name,
            tuple(Vertex(v.id, v.owner, new[v.priority]) for v in g.vertices),
            g.edges,
        )
        assert serialize_solution(solve_game(squeezed)) == serialize_solution(sol)
    assert compressed({0, 2, 3, 5}) == {0: 0, 2: 0, 3: 1, 5: 1}
    assert compressed({1, 2, 4}) == {1: 1, 2: 2, 4: 2}
    assert changed == 48  # the rest use every priority 0-3 or 1-3 already


def test_split_random_edge_keeps_the_old_values(solved):
    rng = random.Random(7)
    for g, sol in solved:
        # r -> w becomes r -> x -> w, with x's priority at least every other,
        # so every cycle through x keeps the least priority of r's
        cut = rng.choice([e for e in g.edges if e.prob is not None])
        top = max(v.priority for v in g.vertices) + rng.randint(0, 1)
        split = GameGraph(
            g.name,
            g.vertices + (Vertex("x", Owner.RANDOM, top),),
            tuple(e for e in g.edges if e != cut)
            + (Edge(cut.src, "x", cut.prob), Edge("x", cut.dst, Fraction(1))),
        )
        got = solve_game(split).values
        assert {v: got[v] for v in g.vertex_ids} == sol.values


def test_order_preserving_renaming(solved):
    rng = random.Random(20)
    for g, sol in solved:
        # distinct names of varied length, handed out in sorted order
        names = set()
        while len(names) < len(g.vertices):
            names.add("".join(rng.choices("abcxyz", k=rng.randint(1, 4))))
        new = dict(zip(g.vertex_ids, sorted(names)))
        got = solve_game(relabel(g, new))
        assert got.values == {new[v]: x for v, x in sol.values.items()}
        assert got.sigma_star == relabel_strategy(sol.sigma_star, new)
        assert got.tau_star == relabel_strategy(sol.tau_star, new)
        assert (got.consistent, got.m) == (sol.consistent, sol.m)


def test_unreachable_vertex_keeps_the_old_values(solved):
    half = Fraction(1, 2)
    for i, (g, sol) in enumerate(solved):
        # before or after every old id, of each owner in turn, leading to
        # itself and to an old vertex; no edge leads to it
        u, owner = ("a", "zz")[i % 2], list(Owner)[i % 3]
        prob = half if owner is Owner.RANDOM else None
        first = g.vertex_ids[0]
        extended = GameGraph(
            g.name,
            g.vertices + (Vertex(u, owner, i % 4),),
            g.edges + (Edge(u, u, prob), Edge(u, first, prob)),
        )
        got = solve_game(extended).values
        assert {v: got[v] for v in g.vertex_ids} == sol.values


def test_dual_game_complements_the_values(solved):
    for g, sol in solved:
        dual = solve_game(dual_game(g)).values
        assert dual == {v: 1 - x for v, x in sol.values.items()}


def value_equations_by_fractions(g: GameGraph, vals) -> list[str]:
    """check_value_equations with each Random row summed as Fractions."""
    out = []
    for v in g.vertex_ids:
        if g.owner(v) is Owner.MAX:
            expect = max(vals[w] for w in g.successors[v])
        elif g.owner(v) is Owner.MIN:
            expect = min(vals[w] for w in g.successors[v])
        else:
            expect = sum((p * vals[w] for w, p in g.distribution[v]), Fraction(0))
        if vals[v] != expect:
            out.append(
                f"value equation fails at {v!r}: stored {vals[v]}, "
                f"successors give {expect}"
            )
    return out


def test_value_equations_match_the_fraction_sums(solved):
    random_rows_failed = 0
    for g, sol in solved:
        assert check_value_equations(g, sol.values) == []
        rows = tuple(f"value equation fails at {u!r}:" for u in g.owned_by(Owner.RANDOM))
        # each value moved in turn, which can break its own row and its
        # predecessors'
        for v in g.vertex_ids:
            for delta in (Fraction(1, 7), Fraction(-2, 3)):
                vals = {**sol.values, v: sol.values[v] + delta}
                got = check_value_equations(g, vals)
                assert got == value_equations_by_fractions(g, vals)
                random_rows_failed += sum(line.startswith(rows) for line in got)
    assert random_rows_failed > 1000
