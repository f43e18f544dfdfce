"""Small reference games and strategies used by tests and the docs.

G1 "choice": one Max decision between a winning and a losing self-loop.
G2 "coin": a single fair random choice, value 1/2.
G3 "retry": Max may try a fair coin that either wins or returns to the
start, so retrying forever wins with probability 1, but any strategy
that eventually gives up and moves to the losing sink forfeits. The
four-memory stubborn strategy sigma3 tries three times then gives up;
it guarantees 7/8 from the start and is the standard example of an
almost-optimal strategy that the memory-reset repair turns into an
optimal one.
"""

from __future__ import annotations

from fractions import Fraction

from .game import Edge, GameGraph, Owner, Vertex
from .mealy import MealyStrategy, memoryless, stubborn_strategy

_HALF = Fraction(1, 2)


def g1() -> GameGraph:
    return GameGraph(
        "G1",
        (
            Vertex("a", Owner.MAX, 1),
            Vertex("w", Owner.MAX, 0),
            Vertex("l", Owner.MAX, 1),
        ),
        (Edge("a", "w"), Edge("a", "l"), Edge("w", "w"), Edge("l", "l")),
    )


def g2() -> GameGraph:
    return GameGraph(
        "G2",
        (
            Vertex("r", Owner.RANDOM, 1),
            Vertex("w", Owner.MAX, 0),
            Vertex("l", Owner.MAX, 1),
        ),
        (
            Edge("r", "w", _HALF),
            Edge("r", "l", _HALF),
            Edge("w", "w"),
            Edge("l", "l"),
        ),
    )


def g3() -> GameGraph:
    return GameGraph(
        "G3",
        (
            Vertex("s", Owner.MAX, 1),
            Vertex("t", Owner.RANDOM, 1),
            Vertex("w", Owner.MAX, 0),
            Vertex("l", Owner.MAX, 1),
        ),
        (
            Edge("s", "t"),
            Edge("s", "l"),
            Edge("t", "w", _HALF),
            Edge("t", "s", _HALF),
            Edge("w", "w"),
            Edge("l", "l"),
        ),
    )


def sigma3() -> MealyStrategy:
    """Try the coin on the first three visits to s, then give up."""
    return stubborn3(4)


def stubborn3(k: int) -> MealyStrategy:
    """The G3 try-then-give-up strategy with an arbitrary patience k."""
    return stubborn_strategy(
        g3(),
        good={"s": "t", "w": "w", "l": "l"},
        bad={"s": "l", "w": "w", "l": "l"},
        pivot="s",
        k=k,
    )


def trivial_min(g: GameGraph) -> MealyStrategy:
    """The unique Min strategy of a game where Min owns nothing."""
    return memoryless(g, Owner.MIN, {})


def trivial_max(g: GameGraph) -> MealyStrategy:
    """The unique Max strategy of a game where Max makes no choices.

    Vertices Max owns with a single edge still need their move spelled
    out, so this picks the sole successor everywhere it must.
    """
    moves = {}
    for v in g.owned_by(Owner.MAX):
        succ = g.successors[v]
        if len(succ) != 1:
            raise ValueError(f"vertex {v!r} has a real choice")
        moves[v] = succ[0]
    return memoryless(g, Owner.MAX, moves)
