"""solve_game against the plain pair loop, and what its two collapse stages share."""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

import pytest

from stochparity import (
    Edge,
    GameGraph,
    Owner,
    Vertex,
    prune_superfluous,
    random_game,
    solve_game,
)
from stochparity import chains, values
from stochparity.errors import CapExceededError, DeterminacyError
from stochparity.mealy import _memoryless_choices, count_memoryless, memoryless
from stochparity.values import Solution, is_consistent, min_positive_value
from test_acceptance import corpus_games
from test_chains import solve_sizes

H = Fraction(1, 2)


def reference_solve_game(g: GameGraph, cap: int = 2**20) -> Solution:
    """solve_game as one loop over every memoryless pair.

    Each pair's moves are laid over the vertex graph at once and solved by
    `chains._Chain.values`; the envelopes and witnesses come from
    `chains._optimum`, as in solve_game.
    """
    n_pairs = count_memoryless(g, Owner.MAX) * count_memoryless(g, Owner.MIN)
    if n_pairs > cap:
        raise CapExceededError(n_pairs, cap, "strategy pair enumeration")
    max_owned, sigmas = _memoryless_choices(g, Owner.MAX)
    min_owned, taus = _memoryless_choices(g, Owner.MIN)
    sigmas, taus = list(sigmas), list(taus)
    vertices = g.vertex_ids
    chain = chains._Chain(vertices, g.distribution, {v: g.priority(v) for v in vertices})
    row_min = []
    col_max = [{} for _ in taus]
    for sigma in sigmas:
        moves = list(zip(max_owned, sigma))
        mins = None
        for j, tau in enumerate(taus):
            p = chain.values(moves + list(zip(min_owned, tau)))
            mins = dict(p) if mins is None else {v: min(mins[v], p[v]) for v in vertices}
            col_max[j] = {v: max(col_max[j].get(v, p[v]), p[v]) for v in vertices}
        row_min.append(mins)
    lower, sigma_star = chains._optimum(zip(sigmas, row_min), operator.gt)
    upper, tau_star = chains._optimum(zip(taus, col_max), operator.lt)
    if lower != upper:
        raise DeterminacyError("lower and upper enumerations disagree")
    if sigma_star is None or tau_star is None:
        raise DeterminacyError("no uniformly optimal memoryless strategy")
    return Solution(
        values=lower,
        sigma_star=memoryless(g, Owner.MAX, dict(zip(max_owned, sigma_star))),
        tau_star=memoryless(g, Owner.MIN, dict(zip(min_owned, tau_star))),
        consistent=is_consistent(g, lower),
        m=min_positive_value(lower),
        lower_enum=lower,
        upper_enum=upper,
    )


def game(*vertices, edges) -> GameGraph:
    """A game from (id, owner, priority) triples and (src, dst[, prob]) edges."""
    return GameGraph(
        "", tuple(Vertex(v, o, p) for v, o, p in vertices), tuple(Edge(*e) for e in edges)
    )


MAX, MIN, RND = Owner.MAX, Owner.MIN, Owner.RANDOM


def check(g: GameGraph) -> Solution:
    sol = solve_game(g)
    assert sol == reference_solve_game(g)
    return sol


class TestAgainstPairLoop:
    def test_corpus_and_pruned_corpus(self):
        # the games of acceptance criterion 2, and each pruned by its values
        # as criterion 3 solves them again
        for g in corpus_games():
            sol = check(g)
            check(prune_superfluous(g, sol.values))

    def test_seeded_random_games(self):
        checked = 0
        fractions = (Fraction(1), H, Fraction(1, 3), Fraction(1, 4))
        for seed, n, p, f in itertools.product(range(64), range(3, 9), (2, 3), fractions):
            g = random_game(seed, n, p, 3, f)
            if count_memoryless(g, MAX) * count_memoryless(g, MIN) > 2000:
                continue
            check(g)
            checked += 1
        assert checked > 2900

    def test_forced_cycle_of_min_vertices(self):
        g = game(
            ("r", RND, 3), ("a", MIN, 1), ("b", MIN, 2), ("c", MIN, 2), ("w", MAX, 0),
            edges=[("r", "a", H), ("r", "w", H), ("a", "b"), ("b", "a"),
                   ("c", "a"), ("c", "w"), ("w", "w")],
        )
        sol = check(g)
        assert sol.values == {"r": H, "a": 0, "b": 0, "c": 0, "w": 1}
        assert sol.tau_star.move("m0", "c") == "a"

    def test_cycle_alternating_max_and_min(self):
        # x -> y -> z -> u -> x has least priority 0, so Max wins a play
        # that stays on it; Min leaves at u for the coin r
        g = game(
            ("x", MAX, 2), ("y", MIN, 2), ("z", MAX, 0), ("u", MIN, 2),
            ("r", RND, 1), ("w", MAX, 0), ("l", MAX, 1),
            edges=[("x", "y"), ("x", "l"), ("y", "z"), ("y", "w"), ("z", "u"),
                   ("u", "x"), ("u", "r"), ("r", "w", H), ("r", "l", H),
                   ("w", "w"), ("l", "l")],
        )
        sol = check(g)
        assert sol.values == {
            "x": H, "y": H, "z": H, "u": H, "r": H, "w": 1, "l": 0,
        }
        assert sol.tau_star.move("m0", "u") == "r"

    def test_random_vertex_with_one_certain_edge(self):
        third = Fraction(1, 3)
        g = game(
            ("r", RND, 2), ("s", MAX, 2), ("m", MIN, 1), ("q", RND, 1), ("l", MAX, 1),
            edges=[("r", "s", Fraction(1)), ("s", "r"), ("s", "l"), ("m", "r"),
                   ("m", "l"), ("q", "r", third), ("q", "l", 2 * third), ("l", "l")],
        )
        sol = check(g)
        assert sol.values == {"r": 1, "s": 1, "m": 0, "q": third, "l": 0}

    def test_no_max_vertex(self):
        g = game(
            ("r", RND, 1), ("b", MIN, 1), ("w", RND, 0), ("l", RND, 1),
            edges=[("r", "b", H), ("r", "w", H), ("b", "r"), ("b", "l"),
                   ("w", "w", Fraction(1)), ("l", "l", Fraction(1))],
        )
        assert check(g).values == {"r": H, "b": 0, "w": 1, "l": 0}

    def test_no_min_vertex(self):
        g = game(
            ("r", RND, 1), ("a", MAX, 2), ("w", RND, 0), ("l", RND, 1),
            edges=[("r", "a", H), ("r", "l", H), ("a", "r"), ("a", "w"),
                   ("w", "w", Fraction(1)), ("l", "l", Fraction(1))],
        )
        assert check(g).values == {"r": H, "a": 1, "w": 1, "l": 0}

    def test_no_random_vertex(self):
        g = game(
            ("a", MAX, 1), ("b", MIN, 2), ("c", MIN, 0), ("l", MAX, 1),
            edges=[("a", "b"), ("a", "c"), ("b", "a"), ("b", "l"), ("c", "c"),
                   ("c", "a"), ("l", "l")],
        )
        assert check(g).values == {"a": 1, "b": 0, "c": 1, "l": 0}


def count_collapses(monkeypatch) -> list:
    """Record the size of every forced map handed to `chains._collapse`."""
    calls = []
    real = chains._collapse

    def counting(forced, label):
        calls.append(len(forced))
        return real(forced, label)

    monkeypatch.setattr(chains, "_collapse", counting)
    monkeypatch.setattr(values, "_collapse", counting, raising=False)
    return calls


class TestSharing:
    def test_unreached_max_vertex_shares_one_min_loop(self, monkeypatch):
        # no vertex reaches x, so both of its moves collapse the graph the
        # Min loop reads alike; a and b both lead into the won cycle at w,
        # so Min's moves to them share one evaluation
        g = game(
            ("x", MAX, 1), ("y", MIN, 1), ("a", MAX, 2), ("b", MAX, 2),
            ("r", RND, 1), ("w", MAX, 0), ("l", MAX, 1),
            edges=[("x", "w"), ("x", "l"), ("y", "a"), ("y", "b"), ("y", "l"),
                   ("a", "w"), ("b", "w"), ("r", "y", H), ("r", "w", H),
                   ("w", "w"), ("l", "l")],
        )
        calls = count_collapses(monkeypatch)
        sol = solve_game(g)
        pairs = 2 * 3
        # stage 1 once per Max strategy, stage 2 once per distinct hops
        assert len(calls) == 2 + 2 < pairs
        assert sol.values["r"] == H and sol.values["x"] == 1
        monkeypatch.undo()
        assert sol == reference_solve_game(g)

    def test_cycles_of_one_parity_share_one_solve(self, monkeypatch):
        # m's moves lead into the cycle at c or the one through d and e;
        # both are won, so r's system is the same under either
        g = game(
            ("r", RND, 1), ("m", MAX, 1), ("c", MAX, 0), ("d", MAX, 2),
            ("e", MAX, 2), ("z", MAX, 1),
            edges=[("r", "m", H), ("r", "z", H), ("m", "c"), ("m", "d"),
                   ("c", "c"), ("d", "e"), ("e", "d"), ("z", "z")],
        )
        sizes = solve_sizes(monkeypatch)
        sol = solve_game(g)
        assert sizes == [1]
        assert sol.values == {"r": H, "m": 1, "c": 1, "d": 1, "e": 1, "z": 0}
        monkeypatch.undo()
        assert sol == reference_solve_game(g)


def concedes(g: GameGraph, tau: tuple) -> dict:
    """What Max gets at best against the memoryless Min choice `tau`."""
    max_owned, sigmas = _memoryless_choices(g, MAX)
    min_owned, _ = _memoryless_choices(g, MIN)
    chain = chains._Chain(g.vertex_ids, g.distribution, {v: g.priority(v) for v in g.vertex_ids})
    best = {}
    for sigma in sigmas:
        p = chain.values(list(zip(max_owned, sigma)) + list(zip(min_owned, tau)))
        best = {v: max(best.get(v, p[v]), p[v]) for v in g.vertex_ids}
    return best


def two_choosers() -> GameGraph:
    # nothing reaches the Max vertex x, so both of its moves lay alike
    # wherever Min reads; Min chooses at y (into a, which Max wins, or l)
    # and at z (into l or w), and should send both into the sink l
    third = Fraction(1, 3)
    return game(
        ("x", MAX, 1), ("y", MIN, 1), ("z", MIN, 1), ("a", MAX, 2),
        ("r", RND, 1), ("w", MAX, 0), ("l", MAX, 1),
        edges=[("x", "w"), ("x", "l"), ("y", "a"), ("y", "l"), ("z", "l"),
               ("z", "w"), ("a", "w"), ("r", "y", third), ("r", "z", third),
               ("r", "w", third), ("w", "w"), ("l", "l")],
    )


class TestMinWitness:
    def test_first_tau_meeting_the_values_everywhere(self):
        g = two_choosers()
        sol = check(g)
        assert sol.values == {
            "x": 1, "y": 0, "z": 0, "a": 1, "r": Fraction(1, 3), "w": 1, "l": 0,
        }
        _, taus = _memoryless_choices(g, MIN)
        taus = list(taus)
        assert taus == [("a", "l"), ("a", "w"), ("l", "l"), ("l", "w")]
        # the first τ holds z to its value but concedes y; the second
        # concedes both; τ* is the third
        first = concedes(g, taus[0])
        assert first["z"] == sol.values["z"] and first["y"] > sol.values["y"]
        assert any(concedes(g, taus[1])[v] > x for v, x in sol.values.items())
        assert (sol.tau_star.move("m0", "y"), sol.tau_star.move("m0", "z")) == taus[2]
        assert concedes(g, taus[2]) == sol.values

    def test_tau_star_first_among_several_optimal(self):
        # z's two moves both reach the won cycle at w, so every τ that
        # sends y to l is optimal; τ* is the first of them in order
        g = game(
            ("y", MIN, 1), ("z", MIN, 1), ("a", MAX, 2), ("b", MAX, 0),
            ("r", RND, 1), ("w", MAX, 0), ("l", MAX, 1),
            edges=[("y", "a"), ("y", "l"), ("z", "b"), ("z", "w"), ("a", "w"),
                   ("b", "w"), ("r", "y", H), ("r", "z", H), ("w", "w"), ("l", "l")],
        )
        sol = check(g)
        assert sol.values["r"] == H
        assert (sol.tau_star.move("m0", "y"), sol.tau_star.move("m0", "z")) == ("l", "b")

    def test_tau_star_holds_every_sigma(self):
        # against σ* (s to the coin c) both of t's moves give ½, the value;
        # but t -> s lets the other σ close the won cycle s, t, so only
        # t -> z holds every σ to the values
        g = game(
            ("s", MAX, 2), ("t", MIN, 2), ("c", RND, 1), ("z", RND, 1),
            ("w", MAX, 0), ("l", MAX, 1),
            edges=[("s", "c"), ("s", "t"), ("t", "s"), ("t", "z"), ("c", "w", H),
                   ("c", "l", H), ("z", "w", H), ("z", "l", H), ("w", "w"), ("l", "l")],
        )
        sol = check(g)
        assert sol.values == {"s": H, "t": H, "c": H, "z": H, "w": 1, "l": 0}
        assert sol.sigma_star.move("m0", "s") == "c"
        assert concedes(g, ("s",))["t"] == 1
        assert sol.tau_star.move("m0", "t") == "z"

    def test_one_evaluation_per_distinct_key(self, monkeypatch):
        # the two σs, once grouped into one Min loop, give the same
        # Random-row tips and hops; each distinct pair of them is
        # evaluated once
        g = two_choosers()
        keys = []
        real = chains._Chain.evaluate

        def recording(self, row_tips, hops=()):
            hops = tuple(hops)
            keys.append((row_tips, hops))
            return real(self, row_tips, hops)

        monkeypatch.setattr(chains._Chain, "evaluate", recording)
        sol = solve_game(g)
        assert len(keys) == len(set(keys)) == 4 < 2 * 4
        monkeypatch.undo()
        assert sol == reference_solve_game(g)


class TestDeterminacyGuard:
    def test_no_max_witness(self, monkeypatch):
        real = values._optimum
        monkeypatch.setattr(values, "_optimum", lambda *a: (real(*a)[0], None))
        with pytest.raises(DeterminacyError, match="this is a bug"):
            solve_game(two_choosers())

    def test_no_min_witness(self, monkeypatch):
        # lower values pushed down to the least rank at every vertex: no τ
        # holds Max to them, since some vertex is worth more than 0
        real = values._optimum

        def lowest(*args):
            best, tag = real(*args)
            return dict.fromkeys(best, 0), tag

        monkeypatch.setattr(values, "_optimum", lowest)
        with pytest.raises(DeterminacyError, match="this is a bug"):
            solve_game(two_choosers())
