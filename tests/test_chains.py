"""Product chains, recurrent classes, absorption, and the one-player tables."""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from stochparity import (
    CapExceededError,
    IllegalPlayError,
    Outcome,
    Owner,
    StrategyError,
    absorption_probabilities,
    bsccs,
    chain_win_probability,
    classify_bscc,
    dual_game,
    enumerate_memoryless,
    mdp_table,
    mdp_value,
    memoryless,
    product_chain,
    quality_table,
    random_game,
    solve_game,
    stubborn_strategy,
)
from stochparity import chains
from stochparity import fixtures as fx
from stochparity.linalg import solve_linear
from test_acceptance import corpus_games

H = Fraction(1, 2)


def retry_move(g3):
    return memoryless(g3, Owner.MAX, {"s": "t", "w": "w", "l": "l"})


class TestProductChain:
    def test_coin_game(self, g2):
        chain = product_chain(g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"])
        assert set(chain.states) == {
            ("r", "m0", "m0"),
            ("w", "m0", "m0"),
            ("l", "m0", "m0"),
        }
        row = dict(chain.transitions[("r", "m0", "m0")])
        assert row == {("w", "m0", "m0"): H, ("l", "m0", "m0"): H}
        assert chain.start == {"r": ("r", "m0", "m0")}
        assert chain.label[("r", "m0", "m0")] == 1
        assert chain.label[("w", "m0", "m0")] == 0

    def test_retry_memoryless_reachable_only(self, g3):
        chain = product_chain(g3, retry_move(g3), fx.trivial_min(g3), ["s"])
        # l is never reached when Max always retries
        assert set(chain.states) == {
            ("s", "m0", "m0"),
            ("t", "m0", "m0"),
            ("w", "m0", "m0"),
        }
        assert dict(chain.transitions[("s", "m0", "m0")]) == {("t", "m0", "m0"): Fraction(1)}
        assert dict(chain.transitions[("t", "m0", "m0")]) == {
            ("w", "m0", "m0"): H,
            ("s", "m0", "m0"): H,
        }

    def test_sigma3_chain(self, g3, sigma3):
        chain = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        expected = {
            ("s", "m0", "m0"),
            ("t", "m1", "m0"),
            ("w", "m1", "m0"),
            ("s", "m1", "m0"),
            ("t", "m2", "m0"),
            ("w", "m2", "m0"),
            ("s", "m2", "m0"),
            ("t", "m3", "m0"),
            ("w", "m3", "m0"),
            ("s", "m3", "m0"),
            ("l", "m3", "m0"),
        }
        assert set(chain.states) == expected
        assert len(chain.states) == 11
        # after three tries the machine gives up and walks into the sink
        assert dict(chain.transitions[("s", "m3", "m0")]) == {
            ("l", "m3", "m0"): Fraction(1)
        }

    def test_equal_chains_stay_equal_after_bsccs(self, g3, sigma3):
        a = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        b = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        assert a == b
        a.bsccs()
        assert a == b

    def test_multiple_starts(self, g3, sigma3):
        chain = product_chain(g3, sigma3, fx.trivial_min(g3), ["s", "w"])
        assert chain.start == {
            "s": ("s", "m0", "m0"),
            "w": ("w", "m0", "m0"),
        }

    def test_player_checks(self, g3, sigma3):
        tau = fx.trivial_min(g3)
        with pytest.raises(StrategyError):
            product_chain(g3, tau, tau, ["s"])
        with pytest.raises(StrategyError):
            product_chain(g3, sigma3, sigma3, ["s"])

    def test_unknown_start(self, g3, sigma3):
        with pytest.raises(IllegalPlayError):
            product_chain(g3, sigma3, fx.trivial_min(g3), ["zz"])


class TestRecurrentClasses:
    def test_coin_game(self, g2):
        chain = product_chain(g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"])
        comps = bsccs(chain)
        assert comps == [
            frozenset({("l", "m0", "m0")}),
            frozenset({("w", "m0", "m0")}),
        ]
        assert classify_bscc(chain, comps[0]) == Outcome.LOSE
        assert classify_bscc(chain, comps[1]) == Outcome.WIN

    def test_sigma3_chain(self, g3, sigma3):
        chain = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        comps = bsccs(chain)
        assert len(comps) == 4
        wins = [c for c in comps if classify_bscc(chain, c) == Outcome.WIN]
        assert {next(iter(c))[0] for c in wins} == {"w"}
        assert len(wins) == 3

    def test_two_cycle_class(self):
        from stochparity import Edge, GameGraph, Vertex

        g = GameGraph(
            "",
            (Vertex("x", Owner.MAX, 1), Vertex("y", Owner.MAX, 2)),
            (Edge("x", "y"), Edge("y", "x")),
        )
        s = memoryless(g, Owner.MAX, {"x": "y", "y": "x"})
        chain = product_chain(g, s, memoryless(g, Owner.MIN, {}), ["x"])
        comps = bsccs(chain)
        assert len(comps) == 1 and len(comps[0]) == 2
        # least priority on the cycle is 1: a losing class
        assert classify_bscc(chain, comps[0]) == Outcome.LOSE

    def test_not_a_class_rejected(self, g2):
        chain = product_chain(g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"])
        with pytest.raises(ValueError):
            classify_bscc(chain, {("r", "m0", "m0")})

    def test_deterministic(self, g3, sigma3):
        a = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        b = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        assert a.states == b.states
        assert bsccs(a) == bsccs(b)


class TestAbsorption:
    def test_coin_game(self, g2):
        chain = product_chain(g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"])
        probs = absorption_probabilities(chain, {("w", "m0", "m0")})
        assert probs[("r", "m0", "m0")] == H
        assert probs[("w", "m0", "m0")] == 1
        assert probs[("l", "m0", "m0")] == 0

    def test_union_of_all_classes(self, g2):
        chain = product_chain(g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"])
        target = set().union(*bsccs(chain))
        probs = absorption_probabilities(chain, target)
        assert all(p == 1 for p in probs.values())

    def test_single_class_of_many(self, g3, sigma3):
        chain = product_chain(g3, sigma3, fx.trivial_min(g3), ["s"])
        probs = absorption_probabilities(chain, {("w", "m1", "m0")})
        # exactly the first coin toss must land on w
        assert probs[("s", "m0", "m0")] == H

    def test_transient_target_rejected(self, g2):
        chain = product_chain(g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"])
        with pytest.raises(ValueError):
            absorption_probabilities(chain, {("r", "m0", "m0")})

    def test_residual_equations_hold(self):
        # absorption probabilities satisfy x = P x with x = 1 on the target
        for seed in (3, 17, 29):
            g = random_game(seed, 6, 2, 3, Fraction(1, 2))
            sig = next(iter_memoryless(g, Owner.MAX))
            tau = next(iter_memoryless(g, Owner.MIN))
            chain = product_chain(g, sig, tau, g.vertex_ids)
            comps = bsccs(chain)
            target = frozenset().union(*comps[:1])
            probs = absorption_probabilities(chain, target)
            for s in chain.states:
                if s in target:
                    assert probs[s] == 1
                else:
                    total = sum(p * probs[t] for t, p in chain.transitions[s])
                    assert probs[s] == total
                assert 0 <= probs[s] <= 1


def iter_memoryless(g, player):
    from stochparity import enumerate_memoryless

    return enumerate_memoryless(g, player)


class TestChainWinProbability:
    def test_examples(self, g1, g2, g3, sigma3):
        tau1 = fx.trivial_min(g1)
        to_w = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
        to_l = memoryless(g1, Owner.MAX, {"a": "l", "w": "w", "l": "l"})
        assert chain_win_probability(g1, to_w, tau1, ["a"]) == {"a": Fraction(1)}
        assert chain_win_probability(g1, to_l, tau1, ["a"]) == {"a": Fraction(0)}
        assert chain_win_probability(
            g2, fx.trivial_max(g2), fx.trivial_min(g2), ["r"]
        ) == {"r": H}
        # three tries at a fair coin: 1 - (1/2)^3
        probs = chain_win_probability(g3, sigma3, fx.trivial_min(g3), ["s", "w", "l"])
        assert probs == {"s": Fraction(7, 8), "w": Fraction(1), "l": Fraction(0)}

    def test_always_retrying_wins_surely(self, g3):
        probs = chain_win_probability(
            g3, retry_move(g3), fx.trivial_min(g3), ["s", "t"]
        )
        assert probs == {"s": Fraction(1), "t": Fraction(1)}


class TestMdp:
    def test_free_max_against_trivial_min(self, g3):
        table, witness = mdp_value(g3, fx.trivial_min(g3), Owner.MAX)
        assert table == {
            ("s", "m0"): Fraction(1),
            ("t", "m0"): Fraction(1),
            ("w", "m0"): Fraction(1),
            ("l", "m0"): Fraction(0),
        }
        assert witness.player == Owner.MAX
        assert witness.move("m0", "s") == "t"
        assert validate_ok(g3, witness)

    def test_free_min_against_sigma3(self, g3, sigma3):
        table, witness = mdp_value(g3, sigma3, Owner.MIN)
        expected = {}
        ladder = {
            "m0": Fraction(7, 8),
            "m1": Fraction(3, 4),
            "m2": Fraction(1, 2),
            "m3": Fraction(0),
        }
        for m, q in ladder.items():
            expected[("s", m)] = q
            expected[("t", m)] = H + H * q if m != "m0" else Fraction(15, 16)
            expected[("w", m)] = Fraction(1)
            expected[("l", m)] = Fraction(0)
        expected[("t", "m0")] = Fraction(15, 16)
        assert table == expected
        # Min owns nothing, so the witness makes no choices
        assert witness.action == {}
        assert witness.memory_states == sigma3.memory_states

    def test_table_matches_value(self, g3, sigma3):
        assert mdp_table(g3, sigma3, Owner.MIN) == mdp_value(g3, sigma3, Owner.MIN)[0]

    def test_player_checks(self, g3, sigma3):
        with pytest.raises(StrategyError):
            mdp_value(g3, sigma3, Owner.MAX)
        with pytest.raises(StrategyError):
            mdp_value(g3, fx.trivial_min(g3), Owner.RANDOM)

    def test_cap(self, g3):
        with pytest.raises(CapExceededError) as exc:
            mdp_table(g3, fx.trivial_min(g3), Owner.MAX, cap=1)
        assert exc.value.needed == 2
        assert exc.value.cap == 1

    def test_dominates_every_response(self):
        # the free player's table is an envelope: no concrete strategy of
        # theirs does better against the fixed one
        for seed in (5, 11, 23):
            g = random_game(seed, 5, 2, 2, Fraction(1, 3))
            tau = next(iter_memoryless(g, Owner.MIN))
            table, best = mdp_value(g, tau, Owner.MAX)
            for i, sig in enumerate(iter_memoryless(g, Owner.MAX)):
                if i >= 16:
                    break
                probs = chain_win_probability(g, sig, tau, g.vertex_ids)
                for v in g.vertex_ids:
                    assert probs[v] <= table[(v, "m0")]
            attained = chain_win_probability(g, best, tau, g.vertex_ids)
            assert all(attained[v] == table[(v, "m0")] for v in g.vertex_ids)

    def test_dominates_every_response_min_side(self):
        for seed in (5, 11):
            g = random_game(seed, 5, 2, 2, Fraction(1, 3))
            sig = next(iter_memoryless(g, Owner.MAX))
            table, best = mdp_value(g, sig, Owner.MIN)
            for i, tau in enumerate(iter_memoryless(g, Owner.MIN)):
                if i >= 16:
                    break
                probs = chain_win_probability(g, sig, tau, g.vertex_ids)
                for v in g.vertex_ids:
                    assert probs[v] >= table[(v, "m0")]
            attained = chain_win_probability(g, sig, best, g.vertex_ids)
            assert all(attained[v] == table[(v, "m0")] for v in g.vertex_ids)


def validate_ok(g, s):
    from stochparity import validate_strategy

    return validate_strategy(g, s) == []


def dense_absorption(states, transitions, target):
    """Reference: every state that can reach the target is an unknown."""
    preds = {s: [] for s in states}
    for s in states:
        for t, p in transitions[s]:
            if p != 0:
                preds[t].append(s)
    reach = set(target)
    queue = list(target)
    while queue:
        for r in preds[queue.pop()]:
            if r not in reach:
                reach.add(r)
                queue.append(r)
    unknown = [s for s in states if s in reach and s not in target]
    pos = {s: i for i, s in enumerate(unknown)}
    n = len(unknown)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for s in unknown:
        i = pos[s]
        matrix[i][i] += 1
        for t, p in transitions[s]:
            if t in target:
                rhs[i] += p
            elif t in pos:
                matrix[i][pos[t]] -= p
    solved = solve_linear(matrix, rhs) if n else []
    return {
        s: Fraction(1) if s in target else solved[pos[s]] if s in pos else Fraction(0)
        for s in states
    }


def solve_sizes(monkeypatch):
    """Record the size of every linear system chains hands to solve_linear."""
    sizes = []

    def recording(matrix, rhs):
        sizes.append(len(matrix))
        return solve_linear(matrix, rhs)

    monkeypatch.setattr(chains, "solve_linear", recording)
    return sizes


def one(t):
    return ((t, Fraction(1)),)


class TestBranchingStateSolve:
    """_absorption solves only branching states; the dense solve is the oracle."""

    def check(self, monkeypatch, transitions, target, branching_unknowns):
        sizes = solve_sizes(monkeypatch)
        states = list(transitions)
        got = chains._absorption(states, transitions, frozenset(target))
        assert got == dense_absorption(states, transitions, frozenset(target))
        assert sizes == ([branching_unknowns] if branching_unknowns else [])
        return got

    def test_forced_path_into_target(self, monkeypatch):
        trans = {
            "r": (("a", H), ("x", H)),
            "a": one("b"),
            "b": one("t"),
            "t": one("t"),
            "x": one("x"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 1)
        assert got == {"r": H, "a": 1, "b": 1, "t": 1, "x": 0}

    def test_forced_path_into_dead_end(self, monkeypatch):
        third = Fraction(1, 3)
        trans = {
            "r": (("a", third), ("t", third), ("r", third)),
            "a": one("b"),
            "b": one("x"),
            "x": one("x"),
            "t": one("t"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 1)
        assert got == {"r": H, "a": 0, "b": 0, "x": 0, "t": 1}

    def test_forced_cycle(self, monkeypatch):
        trans = {
            "r": (("c1", H), ("t", H)),
            "c1": one("c2"),
            "c2": one("c1"),
            "t": one("t"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 1)
        assert got == {"r": H, "c1": 0, "c2": 0, "t": 1}

    def test_forced_path_back_to_its_branching_state(self, monkeypatch):
        third = Fraction(1, 3)
        trans = {
            "r": (("a", third), ("t", third), ("x", third)),
            "a": one("b"),
            "b": one("r"),
            "t": one("t"),
            "x": one("x"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 1)
        assert got["r"] == got["a"] == got["b"] == H

    def test_self_loops(self, monkeypatch):
        trans = {
            "r": (("s", H), ("q", H)),
            "q": (("q", H), ("t", H)),
            "s": one("s"),
            "t": one("t"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 2)
        assert got == {"r": H, "q": 1, "s": 0, "t": 1}

    def test_zero_probability_edge_is_no_branch(self, monkeypatch):
        trans = {
            "a": (("x", Fraction(0)), ("t", Fraction(1))),
            "x": one("x"),
            "t": one("t"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 0)
        assert got == {"a": 1, "x": 0, "t": 1}

    def test_every_state_forced(self, monkeypatch):
        trans = {
            "a": one("b"),
            "b": one("t"),
            "t": one("t"),
            "c": one("d"),
            "d": one("c"),
        }
        got = self.check(monkeypatch, trans, {"t"}, 0)
        assert got == {"a": 1, "b": 1, "t": 1, "c": 0, "d": 0}

    def test_seeded_corpus(self, monkeypatch):
        # the games of acceptance criterion 2, under memoryless and
        # counting strategy pairs, against every union of winning classes
        # and against each class on its own
        sizes = solve_sizes(monkeypatch)
        checked = 0
        for g in corpus_games():
            sigmas = list(itertools.islice(iter_memoryless(g, Owner.MAX), 2))
            taus = list(itertools.islice(iter_memoryless(g, Owner.MIN), 2))
            pivot = g.vertex_ids[0]
            moves = {v: sigmas[0].move("m0", v) for v in g.owned_by(Owner.MAX)}
            sigmas.append(stubborn_strategy(g, moves, moves, pivot, 3))
            for sigma, tau in itertools.product(sigmas, taus):
                chain = product_chain(g, sigma, tau, g.vertex_ids)
                comps = bsccs(chain)
                winning = frozenset().union(
                    *(c for c in comps if min(chain.label[s] for s in c) % 2 == 0)
                )
                for target in [winning, *comps]:
                    sizes.clear()
                    expected = dense_absorption(chain.states, chain.transitions, target)
                    got = chains._absorption(chain.states, chain.transitions, target)
                    assert got == expected
                    # unknowns: states off the target that reach it (positive
                    # probability) and have more than one positive edge
                    n = sum(
                        1
                        for s in chain.states
                        if s not in target
                        and expected[s] > 0
                        and sum(1 for _, p in chain.transitions[s] if p) > 1
                    )
                    assert sizes == ([n] if n else [])
                    checked += 1
        assert checked > 1000


def two_pass_optimum(tagged_maps, better):
    """Reference for chains._optimum: the envelope, then the first map equal to it."""
    tagged_maps = list(tagged_maps)
    pick = max if better is operator.gt else min
    best = {k: pick(m[k] for _, m in tagged_maps) for k in tagged_maps[0][1]}
    return best, next((t for t, m in tagged_maps if m == best), None)


class TestOptimum:
    def test_hand_cases(self):
        gt = operator.gt
        a, b, c = ("a", {0: 1, 1: 0}), ("b", {0: 0, 1: 1}), ("c", {0: 1, 1: 1})
        # b gains and loses, so neither a nor b is optimal; c meets the envelope
        assert chains._optimum([a, b, c], gt) == ({0: 1, 1: 1}, "c")
        assert chains._optimum([a, b], gt) == ({0: 1, 1: 1}, None)
        # of equal optimal maps the first is the witness
        assert chains._optimum([c, ("d", {0: 1, 1: 1})], gt) == ({0: 1, 1: 1}, "c")
        assert chains._optimum([a, c], operator.lt) == ({0: 1, 1: 0}, "a")

    def test_matches_two_pass_oracle(self):
        rng = random.Random(4)
        values = [Fraction(0), Fraction(1, 3), H, Fraction(1)]
        kinds = {"none": 0, 0: 0, 1: 0}  # no witness, the first map, a later one
        for _ in range(2000):
            keys = range(rng.randint(1, 4))
            maps = [
                (i, {k: rng.choice(values) for k in keys})
                for i in range(rng.randint(1, 6))
            ]
            before = [(t, dict(m)) for t, m in maps]
            for better in (operator.gt, operator.lt):
                expect = two_pass_optimum(maps, better)
                assert chains._optimum(iter(maps), better) == expect
                witness = expect[1]
                kinds["none" if witness is None else min(witness, 1)] += 1
            assert maps == before
        # ties, sequences with no uniform optimum, and late witnesses all occur
        assert min(kinds.values()) > 200


class TestOnePassWitness:
    def test_mdp_value_evaluates_each_policy_once(self, g3, sigma3, monkeypatch):
        calls = []
        real = chains._ProductMdp.values_of

        def counting(self, choice):
            calls.append(choice)
            return real(self, choice)

        monkeypatch.setattr(chains._ProductMdp, "values_of", counting)
        cases = [(g3, fx.trivial_min(g3), Owner.MAX), (g3, sigma3, Owner.MIN)]
        for g in corpus_games()[3:40]:
            cases.append((g, next(enumerate_memoryless(g, Owner.MIN)), Owner.MAX))
            cases.append((g, next(enumerate_memoryless(g, Owner.MAX)), Owner.MIN))
        for g, fixed, free in cases:
            calls.clear()
            mdp_value(g, fixed, free)
            pools = chains._ProductMdp(g, fixed, free).pools
            assert calls == list(itertools.product(*pools))

    def test_witnesses_match_two_pass_oracle_on_corpus(self):
        for g in corpus_games():
            sol = solve_game(g)
            vertices = g.vertex_ids
            sigmas = list(enumerate_memoryless(g, Owner.MAX))
            taus = list(enumerate_memoryless(g, Owner.MIN))
            grid = [
                [chain_win_probability(g, s, t, vertices) for t in taus] for s in sigmas
            ]
            rows = [{v: min(p[v] for p in row) for v in vertices} for row in grid]
            cols = [
                {v: max(row[j][v] for row in grid) for v in vertices}
                for j in range(len(taus))
            ]
            assert two_pass_optimum(zip(sigmas, rows), operator.gt) == (
                sol.values,
                sol.sigma_star,
            )
            assert two_pass_optimum(zip(taus, cols), operator.lt) == (
                sol.values,
                sol.tau_star,
            )
            for fixed, free, better in (
                (sol.tau_star, Owner.MAX, operator.gt),
                (sol.sigma_star, Owner.MIN, operator.lt),
            ):
                mdp = chains._ProductMdp(g, fixed, free)
                policies = itertools.product(*mdp.pools)
                best, choice = two_pass_optimum(
                    ((c, mdp.values_of(c)) for c in policies), better
                )
                table, witness = mdp_value(g, fixed, free)
                assert table == best
                assert witness.action == {
                    (m, v): w for (v, m), w in zip(mdp.choice_states, choice)
                }


def reference_chain_values(states, transitions, label):
    """Reference: Tarjan over every state, then the dense absorption solve.

    This is the chain solve `chains` used before forced paths were
    collapsed once for both recurrent classes and absorption.
    """
    bottoms = chains._bottom_sccs(states, lambda s: [t for t, _ in transitions[s]])
    winning: set = set()
    for c in bottoms:
        if min(label[s] for s in c) % 2 == 0:
            winning |= c
    return dense_absorption(states, transitions, frozenset(winning))


def kernel_chain_values(states, transitions, label):
    return chains._Chain(states, transitions, label).values(())


class TestCollapsedKernel:
    """Recurrent classes decided on the collapsed chain, against the reference."""

    def check(self, transitions, label):
        states = list(transitions)
        got = kernel_chain_values(states, transitions, label)
        assert got == reference_chain_values(states, transitions, label)
        return got

    def test_class_least_priority_on_forced_vertex(self):
        # r1 -> f -> r2 -> r1 is one recurrent class; its least priority
        # sits on f, a forced vertex between the two Random ones
        trans = {
            "e": (("r1", H), ("w", H)),
            "r1": (("f", H), ("r1", H)),
            "f": one("r2"),
            "r2": (("r1", H), ("r2", H)),
            "w": one("w"),
        }
        label = {"e": 3, "r1": 2, "f": 1, "r2": 2, "w": 0}
        got = self.check(trans, label)
        assert got == {"e": H, "r1": 0, "f": 0, "r2": 0, "w": 1}
        got = self.check(trans, {**label, "f": 0, "r1": 1, "r2": 1, "w": 1})
        assert got == {"e": H, "r1": 1, "f": 1, "r2": 1, "w": 0}

    def test_forced_cycles_even_and_odd(self):
        trans = {
            "r": (("a1", H), ("b1", H)),
            "a1": one("a2"),
            "a2": one("a1"),
            "b1": one("b2"),
            "b2": one("b1"),
        }
        label = {"r": 0, "a1": 4, "a2": 2, "b1": 3, "b2": 5}
        got = self.check(trans, label)
        assert got == {"r": H, "a1": 1, "a2": 1, "b1": 0, "b2": 0}

    def test_forced_path_into_forced_cycle(self):
        # the path's even priority is seen once; the odd cycle decides
        third = Fraction(1, 3)
        trans = {
            "r": (("p1", third), ("r", third), ("w", third)),
            "p1": one("p2"),
            "p2": one("c1"),
            "c1": one("c2"),
            "c2": one("c1"),
            "w": one("w"),
        }
        label = {"r": 1, "p1": 0, "p2": 2, "c1": 3, "c2": 1, "w": 2}
        got = self.check(trans, label)
        assert got == {"r": H, "p1": 0, "p2": 0, "c1": 0, "c2": 0, "w": 1}

    def test_all_forced_chain(self):
        trans = {
            "a": one("b"),
            "b": one("c"),
            "c": one("b"),
            "d": one("e"),
            "e": one("e"),
            "f": one("c"),
        }
        label = {"a": 1, "b": 2, "c": 4, "d": 1, "e": 3, "f": 0}
        got = self.check(trans, label)
        assert got == {"a": 1, "b": 1, "c": 1, "d": 0, "e": 0, "f": 1}

    def test_random_self_loop(self):
        trans = {
            "r": (("r", H), ("s", H)),
            "s": (("s", Fraction(2, 3)), ("r", Fraction(1, 3))),
            "q": (("q", H), ("l", H)),
            "l": one("l"),
        }
        label = {"r": 2, "s": 4, "q": 0, "l": 1}
        got = self.check(trans, label)
        assert got == {"r": 1, "s": 1, "q": 0, "l": 0}
        # a lone Random state whose every edge loops back is a class too
        got = self.check({"z": (("z", H), ("y", H)), "y": one("z")}, {"z": 2, "y": 1})
        assert got == {"z": 0, "y": 0}

    def test_zero_probability_edge_is_no_edge(self):
        trans = {"a": (("x", Fraction(0)), ("a", Fraction(1))), "x": one("x")}
        got = kernel_chain_values(list(trans), trans, {"a": 0, "x": 1})
        assert got == {"a": 1, "x": 0}

    def test_seeded_corpus(self):
        # the games of acceptance criterion 2 under memoryless and counting
        # strategy pairs, as in TestBranchingStateSolve.test_seeded_corpus
        checked = 0
        for g in corpus_games():
            sigmas = list(itertools.islice(iter_memoryless(g, Owner.MAX), 2))
            taus = list(itertools.islice(iter_memoryless(g, Owner.MIN), 2))
            pivot = g.vertex_ids[0]
            moves = {v: sigmas[0].move("m0", v) for v in g.owned_by(Owner.MAX)}
            sigmas.append(stubborn_strategy(g, moves, moves, pivot, 3))
            for sigma, tau in itertools.product(sigmas, taus):
                chain = product_chain(g, sigma, tau, g.vertex_ids)
                expected = reference_chain_values(chain.states, chain.transitions, chain.label)
                got = kernel_chain_values(chain.states, chain.transitions, chain.label)
                assert got == expected
                assert chain_win_probability(g, sigma, tau, g.vertex_ids) == {
                    v: expected[s] for v, s in chain.start.items()
                }
                checked += 1
            # the one-player process of the counting machine, Min free
            fixed = sigmas[-1]
            mdp = chains._ProductMdp(g, fixed, Owner.MIN)
            for choice in itertools.islice(itertools.product(*mdp.pools), 3):
                picked = dict(zip(mdp.choice_states, choice))
                trans = {}
                for v, m in mdp.states:
                    m2 = fixed.step(m, v)
                    if (v, m) in picked:
                        trans[(v, m)] = one((picked[(v, m)], m2))
                    elif g.owner(v) is Owner.RANDOM:
                        trans[(v, m)] = tuple(((w, m2), p) for w, p in g.distribution[v])
                    else:
                        trans[(v, m)] = one((fixed.move(m, v), m2))
                assert mdp.values_of(choice) == reference_chain_values(
                    mdp.states, trans, mdp.label
                )
                checked += 1
        assert checked > 1000


def repeated_systems_game():
    """Max picks x -> r or x -> l, Min y -> w or y -> y: 4 pairs, 2 systems.

    The Random vertex r is an unknown under every pair; Min's choice never
    lies on a forced path out of r, so it never changes r's system.
    """
    from stochparity import Edge, GameGraph, Vertex

    return GameGraph(
        "",
        (
            Vertex("r", Owner.RANDOM, 1),
            Vertex("x", Owner.MAX, 1),
            Vertex("y", Owner.MIN, 0),
            Vertex("w", Owner.MAX, 0),
            Vertex("l", Owner.MAX, 1),
        ),
        (
            Edge("r", "w", H),
            Edge("r", "x", H),
            Edge("x", "r"),
            Edge("x", "l"),
            Edge("y", "w"),
            Edge("y", "y"),
            Edge("w", "w"),
            Edge("l", "l"),
        ),
    )


class TestSolveGameOnVertexGraph:
    def test_no_product_chain(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_game built a product chain")

        monkeypatch.setattr(chains, "product_chain", forbidden)
        monkeypatch.setattr(chains, "chain_win_probability", forbidden)
        from stochparity import values

        monkeypatch.setattr(values, "chain_win_probability", forbidden, raising=False)
        for g in corpus_games()[:60]:
            solve_game(g)

    def test_repeated_systems_solved_once(self, monkeypatch):
        g = repeated_systems_game()
        sizes = solve_sizes(monkeypatch)
        sol = solve_game(g)
        assert sol.values == {"r": 1, "x": 1, "y": 1, "w": 1, "l": 0}
        pairs = 2 * 2
        assert sizes == [1, 1] and len(sizes) < pairs

    def test_cycle_parity_in_system_key(self):
        # r's edge runs p -> a into a forced cycle through a under both of
        # Max's choices at b; only the cycle's own least priority (odd via
        # b -> a, even via b -> c) tells the two systems apart
        from stochparity import Edge, GameGraph, Vertex

        g = GameGraph(
            "",
            (
                Vertex("r", Owner.RANDOM, 1),
                Vertex("p", Owner.MAX, 0),
                Vertex("a", Owner.MAX, 3),
                Vertex("b", Owner.MAX, 3),
                Vertex("c", Owner.MAX, 2),
                Vertex("l", Owner.MAX, 1),
            ),
            (
                Edge("r", "p", H),
                Edge("r", "l", H),
                Edge("p", "a"),
                Edge("a", "b"),
                Edge("b", "a"),
                Edge("b", "c"),
                Edge("c", "a"),
                Edge("l", "l"),
            ),
        )
        sol = solve_game(g)
        assert sol.values == {"r": H, "p": 1, "a": 1, "b": 1, "c": 1, "l": 0}
        assert sol.sigma_star.move("m0", "b") == "c"


def unshared_table(g, fixed, free):
    """mdp_table by plain enumeration, each policy on a fresh kernel object."""
    pools = chains._ProductMdp(g, fixed, free).pools
    tables = [
        chains._ProductMdp(g, fixed, free).values_of(choice)
        for choice in itertools.product(*pools)
    ]
    pick = max if free is Owner.MAX else min
    return {s: pick(t[s] for t in tables) for s in tables[0]}


class TestPoliciesShareSolves:
    """The policies of one table share a solve when they collapse alike."""

    def test_repeated_systems_solved_once(self, monkeypatch):
        # Min's choice at y never lies on a forced path out of r, so both
        # Min policies give r the same system under either Max machine
        g = repeated_systems_game()
        sizes = solve_sizes(monkeypatch)
        for x_move, r_value in (("r", 1), ("l", H)):
            sigma = memoryless(g, Owner.MAX, {"x": x_move, "w": "w", "l": "l"})
            sizes.clear()
            table = mdp_table(g, sigma, Owner.MIN)
            pools = chains._ProductMdp(g, sigma, Owner.MIN).pools
            assert table[("r", "m0")] == r_value
            assert (math.prod(map(len, pools)), sizes) == (2, [1])

    def test_tables_match_unshared_enumeration(self, monkeypatch):
        sizes = solve_sizes(monkeypatch)
        checked = shared = unshared = 0
        for seed in range(1, 40):
            g = random_game(seed, 6 + seed % 3, 3, 3, Fraction(1, 3))
            max_owned = g.owned_by(Owner.MAX)
            if not max_owned:
                continue
            moves = {v: g.successors[v][0] for v in max_owned}
            for k in (2, 3):
                fixed = stubborn_strategy(g, moves, moves, max_owned[0], k)
                pools = chains._ProductMdp(g, fixed, Owner.MIN).pools
                if not 50 <= math.prod(map(len, pools)) <= 3000:
                    continue
                sizes.clear()
                table = mdp_table(g, fixed, Owner.MIN)
                shared += len(sizes)
                sizes.clear()
                assert table == unshared_table(g, fixed, Owner.MIN)
                unshared += len(sizes)
                checked += 1
        assert checked >= 20
        assert 0 < shared < unshared / 2


class TestOneSuccessorRule:
    """Every product row, of a chain or of a one-player table, comes from
    `chains._successors`, and so does its check of the move's target."""

    @staticmethod
    def record(monkeypatch):
        seen = []
        real = chains._successors

        def recording(g, v, mover, mem):
            seen.append(v)
            return real(g, v, mover, mem)

        monkeypatch.setattr(chains, "_successors", recording)
        return seen

    def test_chains_and_tables(self, monkeypatch):
        checked = 0
        seen = self.record(monkeypatch)
        for seed in range(12):
            g = random_game(seed, 6, 3, 3, Fraction(1, 3))
            sol = solve_game(g)
            seen.clear()
            chain = product_chain(g, sol.sigma_star, sol.tau_star, g.vertex_ids)
            assert seen == [v for v, _, _ in chain.states]
            for fixed, free in ((sol.sigma_star, Owner.MIN), (sol.tau_star, Owner.MAX)):
                seen.clear()
                mdp = chains._ProductMdp(g, fixed, free)
                assert seen == [v for v, m in mdp.states if g.owner(v) is not free]
                checked += bool(mdp.choice_states and seen)
        assert checked > 5

    @staticmethod
    def off_the_game(g3):
        # Max moves from s to a vertex the game does not have
        return memoryless(g3, Owner.MAX, {"s": "zz", "w": "w", "l": "l"})

    def test_unknown_vertex_in_product_chain(self, g3):
        with pytest.raises(StrategyError, match="strategy moves to unknown vertex 'zz'"):
            product_chain(g3, self.off_the_game(g3), fx.trivial_min(g3), ["s"])

    def test_unknown_vertex_in_quality_table(self, g3):
        with pytest.raises(StrategyError, match="strategy moves to unknown vertex 'zz'"):
            quality_table(g3, self.off_the_game(g3))


def policy_transitions(g, fixed, mdp, choice):
    """The product chain of one policy of `mdp`, with every state's row."""
    picked = dict(zip(mdp.choice_states, choice))
    trans = {}
    for v, m in mdp.states:
        m2 = fixed.step(m, v)
        if (v, m) in picked:
            trans[(v, m)] = one((picked[(v, m)], m2))
        elif g.owner(v) is Owner.RANDOM:
            trans[(v, m)] = tuple(((w, m2), p) for w, p in g.distribution[v])
        else:
            trans[(v, m)] = one((fixed.move(m, v), m2))
    return trans


def multi_move_tables(lo: int, hi: int):
    """(g, fixed, mdp) for seeded tables with two or more choice states that
    have more than one move, and between lo and hi policies. The counting
    machine's pivot varies, so memory also moves at choice states."""
    for seed in range(60):
        g = random_game(seed, 5 + seed % 4, 3, 3, Fraction(1, 3))
        max_owned = g.owned_by(Owner.MAX)
        cases = [(next(enumerate_memoryless(g, Owner.MIN)), Owner.MAX)]
        if max_owned:
            moves = {v: g.successors[v][-1] for v in max_owned}
            pivot = g.vertex_ids[seed % len(g.vertex_ids)]
            cases.append((stubborn_strategy(g, moves, moves, pivot, 2), Owner.MIN))
        for fixed, free in cases:
            mdp = chains._ProductMdp(g, fixed, free)
            multi = sum(len(p) > 1 for p in mdp.pools)
            if multi >= 2 and lo <= math.prod(map(len, mdp.pools)) <= hi:
                yield g, fixed, mdp


class TestPolicyEvaluation:
    """Each policy is one stage-2 evaluation over the choice states that
    have more than one move; everything else is laid once per table."""

    def test_each_policy_collapses_only_its_hops(self, monkeypatch):
        forced_maps = []
        real = chains._collapse

        def recording(forced, label):
            forced_maps.append(set(forced))
            return real(forced, label)

        monkeypatch.setattr(chains, "_collapse", recording)
        checked = 0
        for g, fixed, mdp in multi_move_tables(4, 200):
            hops = {s for s, pool in zip(mdp.choice_states, mdp.pools) if len(pool) > 1}
            policies = list(itertools.product(*mdp.pools))
            forced_maps.clear()
            for choice in policies:
                mdp.values_of(choice)
            assert forced_maps == [hops] * len(policies)
            checked += len(mdp.chain.forced) > len(hops)
        assert checked >= 10

    def test_every_policy_matches_the_dense_solve(self):
        tables = policies = 0
        for g, fixed, mdp in multi_move_tables(4, 200):
            for choice in itertools.product(*mdp.pools):
                trans = policy_transitions(g, fixed, mdp, choice)
                assert mdp.values_of(choice) == reference_chain_values(
                    mdp.states, trans, mdp.label
                )
                policies += 1
            tables += 1
        assert tables >= 20 and policies > 1000


def product_transitions(g, fixed, free, states):
    """A one-player product written as a transition dict: every non-free
    row from `_successors`, a free state with one move forced, and the
    free states with a choice left without a row."""
    trans = {}
    for v, m in states:
        m2 = fixed.step(m, v)
        if g.owner(v) is not free:
            trans[(v, m)] = tuple(((w, m2), p) for w, p in chains._successors(g, v, fixed, m))
        elif len(g.successors[v]) == 1:
            trans[(v, m)] = one((g.successors[v][0], m2))
    return trans


def counting_machines(g, pivot, k):
    """(fixed, free player) for a k-memory counting machine of each player:
    the first move until the k-th visit of the pivot, then the last."""
    def stubborn(game, owner):
        owned = game.owned_by(Owner.MAX)
        first = {v: game.successors[v][0] for v in owned}
        last = {v: game.successors[v][-1] for v in owned}
        return dataclasses.replace(stubborn_strategy(game, first, last, pivot, k), player=owner)

    return [(stubborn(g, Owner.MAX), Owner.MIN), (stubborn(dual_game(g), Owner.MIN), Owner.MAX)]


class TestProductMdpSplit:
    """`_ProductMdp` fills the kernel's forced map and rows itself; they
    equal what `_Chain(states, transitions, label)` derives from the same
    product written as a transition dict, the oracle."""

    def test_matches_the_transition_dict_split(self):
        rows = tables = 0
        for seed in range(30):
            g = random_game(seed, 4 + seed % 4, 3, 3, Fraction(1, 2 + seed % 2))
            pivot = g.vertex_ids[seed % len(g.vertex_ids)]
            for k in range(1, 5):
                for fixed, free in counting_machines(g, pivot, k):
                    mdp = chains._ProductMdp(g, fixed, free)
                    trans = product_transitions(g, fixed, free, mdp.states)
                    oracle = chains._Chain(mdp.states, trans, mdp.label)
                    assert mdp.chain.forced == oracle.forced
                    assert list(mdp.chain.rows.items()) == list(oracle.rows.items())
                    assert mdp.chain.targets == oracle.targets
                    assert mdp.chain.open == oracle.open
                    for (v, _), (targets, den, nums) in mdp.chain.rows.items():
                        assert (den, nums) == g.random_rows[v]
                        assert [w for w, _ in targets] == list(g.successors[v])
                        assert sum(nums) == den
                    rows += len(mdp.chain.rows)
                    tables += 1
        assert tables == 240 and rows > 500


def class_chain(seed, links):
    """A seeded chain of classes, each 1-3 states on a cycle with self-loops.

    `links` maps every class to the classes it exits to, all of them from
    its first state and some from the others too; an exit may pass a
    forced state on the way. A class without exits is a bottom class,
    winning if its name starts with "win" and losing otherwise. The
    states are listed in a seeded order, which is Tarjan's root order.
    """
    rng = random.Random(seed)
    members = {c: [f"{c}.{i}" for i in range(rng.randint(1, 3))] for c in links}
    trans, label = {}, {}
    for c, exits in links.items():
        ms = members[c]
        for i, s in enumerate(ms):
            if exits:
                label[s] = rng.randint(0, 4)
            else:  # the least priority of a bottom class decides it
                least = 2 if c.startswith("win") else 1
                label[s] = least if i == 0 else rng.randint(least, 4)
            targets = {s, ms[(i + 1) % len(ms)]}
            for d in exits:
                if i == 0 or rng.random() < 0.3:
                    t = members[d][0]
                    if rng.random() < 0.5:  # through a forced state
                        f = f"{s}>{d}"
                        trans[f], label[f] = one(t), rng.randint(0, 4)
                        t = f
                    targets.add(t)
            targets = sorted(targets)
            den = rng.randint(max(2, len(targets)), 12)
            cuts = [0, *sorted(rng.sample(range(1, den), len(targets) - 1)), den]
            trans[s] = tuple(
                (t, Fraction(hi - lo, den)) for t, lo, hi in zip(targets, cuts, cuts[1:])
            )
    order = list(trans)
    rng.shuffle(order)
    return order, {s: trans[s] for s in order}, label, members


def expected_unknowns(states, trans, label):
    """Branching states off the winning classes that can reach one."""
    bottoms = chains._bottom_sccs(states, lambda s: [t for t, _ in trans[s]])
    winning = set().union(*(c for c in bottoms if min(label[s] for s in c) % 2 == 0))
    preds = {s: [] for s in states}
    for s in states:
        for t, _ in trans[s]:
            preds[t].append(s)
    reach, queue = set(winning), list(winning)
    while queue:
        for r in preds[queue.pop()]:
            if r not in reach:
                reach.add(r)
                queue.append(r)
    return sum(1 for s in states if len(trans[s]) > 1 and s in reach - winning)


class TestReachabilityInTarjanPass:
    """The classes that can reach a winning one are marked in the Tarjan
    pass, each after every class it reaches; the reference is Tarjan over
    every state, a BFS over predecessors and the dense solve."""

    def check(self, monkeypatch, seed, links):
        sizes = solve_sizes(monkeypatch)
        states, trans, label, members = class_chain(seed, links)
        got = kernel_chain_values(states, trans, label)
        assert got == reference_chain_values(states, trans, label)
        n = expected_unknowns(states, trans, label)
        assert sizes == ([n] if n else [])
        return got, members

    def test_ladder_to_the_winning_class(self, monkeypatch):
        # c0 reaches the winning class only through c1, c2 and c3 (and c4,
        # c5 where there), each rung also leaking to a losing class
        for seed in range(40):
            rungs = 4 + seed % 3
            links = {f"c{i}": [f"c{i + 1}", "lose"] for i in range(rungs - 1)}
            links.update({f"c{rungs - 1}": ["win", "lose"], "win": [], "lose": []})
            got, members = self.check(monkeypatch, seed, links)
            assert all(0 < got[s] < 1 for s in members["c0"])

    def test_class_that_reaches_only_losing_classes(self, monkeypatch):
        links = {
            "top": ["mid", "dead"],
            "mid": ["win", "lose1"],
            "dead": ["lose1", "lose2"],
            "deader": ["dead"],
            "win": [],
            "lose1": [],
            "lose2": [],
        }
        for seed in range(40):
            got, members = self.check(monkeypatch, seed, links)
            assert all(got[s] == 0 for s in members["dead"] + members["deader"])
            assert all(0 < got[s] < 1 for s in members["top"])
