"""Quality tables, deviations, the memory-reset repair, and its windows."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from stochparity import (
    CapExceededError,
    Edge,
    GameGraph,
    IllegalPlayError,
    InconsistentGameError,
    InvalidThresholdError,
    Owner,
    StaleValuesError,
    StrategyError,
    Vertex,
    deviation_bound,
    deviation_date,
    deviation_probabilities,
    deviation_probability,
    deviation_states,
    dual_game,
    lower_value,
    memoryless,
    optimality_gap,
    product_chain,
    prune_superfluous,
    quality_table,
    random_game,
    reset_transform,
    reset_windows,
    solve_game,
    stubborn_strategy,
    upper_value,
)
from stochparity import fixtures as fx

ONE = Fraction(1)
ZERO = Fraction(0)
H = Fraction(1, 2)

SIGMA3_QUALITY = {
    ("s", "m0"): Fraction(7, 8),
    ("s", "m1"): Fraction(3, 4),
    ("s", "m2"): H,
    ("s", "m3"): ZERO,
    ("t", "m0"): Fraction(15, 16),
    ("t", "m1"): Fraction(7, 8),
    ("t", "m2"): Fraction(3, 4),
    ("t", "m3"): H,
    ("w", "m0"): ONE,
    ("w", "m1"): ONE,
    ("w", "m2"): ONE,
    ("w", "m3"): ONE,
    ("l", "m0"): ZERO,
    ("l", "m1"): ZERO,
    ("l", "m2"): ZERO,
    ("l", "m3"): ZERO,
}


@pytest.fixture(scope="module")
def g3p(g3, sol3):
    return prune_superfluous(g3, sol3.values)


def to_w(g1):
    return memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})


def to_l(g1):
    return memoryless(g1, Owner.MAX, {"a": "l", "w": "w", "l": "l"})


class TestQuality:
    def test_sigma3_full_table(self, g3, sigma3):
        assert quality_table(g3, sigma3) == SIGMA3_QUALITY

    def test_choice_game(self, g1):
        q = quality_table(g1, to_w(g1))
        assert q == {("a", "m0"): ONE, ("w", "m0"): ONE, ("l", "m0"): ZERO}
        assert quality_table(g1, to_l(g1))[("a", "m0")] == ZERO

    def test_min_strategy_rejected(self, g3):
        with pytest.raises(StrategyError):
            quality_table(g3, fx.trivial_min(g3))


class TestLowerUpper:
    def test_sigma3(self, g3, sigma3):
        # giving up after three coin tosses loses the remaining 1/8
        assert lower_value(g3, sigma3) == {
            "s": Fraction(7, 8),
            "t": Fraction(15, 16),
            "w": ONE,
            "l": ZERO,
        }

    def test_shifted_initial_is_read_off_the_table(self, g3, sigma3):
        from dataclasses import replace

        q = quality_table(g3, sigma3)
        for m in sigma3.memory_states:
            lo = lower_value(g3, replace(sigma3, initial=m))
            assert lo == {v: q[(v, m)] for v in g3.vertex_ids}

    def test_optimal_strategy_attains(self, g3, sol3):
        assert lower_value(g3, sol3.sigma_star) == sol3.values

    def test_upper_value_of_trivial_min(self, g3, sol3):
        assert upper_value(g3, sol3.tau_star) == sol3.values

    def test_upper_value_dual_game(self, g3):
        d = dual_game(g3)
        dvals = solve_game(d).values
        good = memoryless(d, Owner.MIN, {"s": "t", "w": "w", "l": "l"})
        bad = memoryless(d, Owner.MIN, {"s": "l", "w": "w", "l": "l"})
        assert upper_value(d, good) == dvals
        assert upper_value(d, bad)["s"] == ONE > dvals["s"]

    def test_player_checks(self, g3, sigma3):
        with pytest.raises(StrategyError):
            lower_value(g3, fx.trivial_min(g3))
        with pytest.raises(StrategyError):
            upper_value(g3, sigma3)

    def test_gap(self, g1, g3, sigma3, sol1, sol3):
        assert optimality_gap(g3, sigma3, sol3.values) == Fraction(1, 8)
        assert optimality_gap(g3, fx.stubborn3(3), sol3.values) == Fraction(1, 4)
        assert optimality_gap(g3, fx.stubborn3(1), sol3.values) == ONE
        assert optimality_gap(g1, to_w(g1), sol1.values) == ZERO
        assert optimality_gap(g1, to_l(g1), sol1.values) == ONE


class TestDeviationBound:
    def test_values(self):
        assert deviation_bound(Fraction(1, 8), ONE) == Fraction(3, 4)
        assert deviation_bound(Fraction(1, 4), ONE) == Fraction(5, 6)
        assert deviation_bound(ZERO, ONE) == Fraction(2, 3)

    def test_bad_threshold(self):
        with pytest.raises(InvalidThresholdError):
            deviation_bound(Fraction(1, 8), math.inf)
        with pytest.raises(InvalidThresholdError):
            deviation_bound(Fraction(1, 8), ZERO)


class TestDeviationDate:
    def test_sigma3(self, g3, sigma3, sol3):
        date = deviation_date(g3, sigma3, sol3.values, sol3.m, ("s", "t", "s", "t", "s"))
        assert date == 4
        assert deviation_date(g3, sigma3, sol3.values, sol3.m, ("s", "t")) is None
        assert deviation_date(g3, sigma3, sol3.values, sol3.m, ()) is None

    def test_boundary_is_inclusive(self, g3, sol3):
        # at (s, m1) the two-try strategy sits exactly on val - m/2
        stub = fx.stubborn3(3)
        assert deviation_date(g3, stub, sol3.values, sol3.m, ("s", "t", "s")) == 2

    def test_choice_game(self, g1, sol1):
        assert deviation_date(g1, to_w(g1), sol1.values, sol1.m, ("a", "w")) is None
        assert deviation_date(g1, to_l(g1), sol1.values, sol1.m, ("a",)) == 0

    def test_illegal_prefix(self, g3, sigma3, sol3):
        with pytest.raises(IllegalPlayError):
            deviation_date(g3, sigma3, sol3.values, sol3.m, ("s", "w"))

    def test_bad_threshold(self, g3, sigma3, sol3):
        with pytest.raises(InvalidThresholdError):
            deviation_date(g3, sigma3, sol3.values, math.inf, ("s",))
        with pytest.raises(InvalidThresholdError):
            deviation_date(g3, sigma3, sol3.values, ZERO, ("s",))

    def test_errors_in_order(self, g1, sol1):
        # the threshold, then the prefix, then the table under its cap
        with pytest.raises(InvalidThresholdError):
            deviation_date(g1, to_w(g1), sol1.values, math.inf, ("a", "zz"), cap=0)
        with pytest.raises(IllegalPlayError):
            deviation_date(g1, to_w(g1), sol1.values, sol1.m, ("a", "zz"), cap=0)
        with pytest.raises(CapExceededError):
            deviation_date(g1, to_w(g1), sol1.values, sol1.m, ("a",), cap=0)


class TestDeviationStates:
    def test_sigma3(self, g3, sigma3, sol3):
        dev = deviation_states(g3, sigma3, sol3.values, sol3.m)
        assert dev == frozenset({("s", "m2"), ("s", "m3"), ("t", "m3")})

    def test_two_tries(self, g3, sol3):
        dev = deviation_states(g3, fx.stubborn3(3), sol3.values, sol3.m)
        assert dev == frozenset({("s", "m1"), ("s", "m2"), ("t", "m2")})

    def test_no_deviation_possible(self, g1, sol1):
        assert deviation_states(g1, to_w(g1), sol1.values, sol1.m) == frozenset()


class TestDeviationProbability:
    def test_sigma3(self, g3, sigma3, sol3):
        p = deviation_probability(
            g3, sigma3, fx.trivial_min(g3), sol3.values, sol3.m, "s"
        )
        assert p == Fraction(1, 4)
        eps = optimality_gap(g3, sigma3, sol3.values)
        assert p <= deviation_bound(eps, sol3.m) == Fraction(3, 4)

    def test_two_tries(self, g3, sol3):
        stub = fx.stubborn3(3)
        p = deviation_probability(
            g3, stub, fx.trivial_min(g3), sol3.values, sol3.m, "s"
        )
        assert p == H
        assert p <= deviation_bound(Fraction(1, 4), sol3.m) == Fraction(5, 6)

    def test_choice_game(self, g1, sol1):
        tau = fx.trivial_min(g1)
        assert deviation_probability(g1, to_w(g1), tau, sol1.values, sol1.m, "a") == ZERO
        assert deviation_probability(g1, to_l(g1), tau, sol1.values, sol1.m, "a") == ONE
        assert deviation_probability(g1, to_l(g1), tau, sol1.values, sol1.m, "w") == ZERO


    def test_all_starts_in_one_solve(self, g3p, sol3):
        # one chain from every start gives each start its own chain's value
        tau = fx.trivial_min(g3p)
        for sigma in (fx.sigma3(), fx.stubborn3(2), fx.stubborn3(3)):
            vals, m = sol3.values, sol3.m
            assert deviation_probabilities(
                g3p, sigma, tau, vals, m, g3p.vertex_ids
            ) == {
                v: deviation_probability(g3p, sigma, tau, vals, m, v)
                for v in g3p.vertex_ids
            }

    def test_all_starts_on_generated_games(self):
        mixed = 0
        for seed in range(40):
            g = random_game(seed, 7, 3, 3, H)
            sol = solve_game(g)
            if sol.m == math.inf:
                continue
            for sigma in (sol.sigma_star, *stubborn_variants(g, sol)):
                q = quality_table(g, sigma)
                args = (g, sigma, sol.tau_star, sol.values, sol.m)
                probs = deviation_probabilities(*args, g.vertex_ids, quality=q)
                assert probs == {
                    v: deviation_probability(*args, v, quality=q)
                    for v in g.vertex_ids
                }
                mixed += sum(0 < p < 1 for p in probs.values())
        assert mixed >= 5


def stubborn_variants(g, sol):
    """Witness copies that switch one Max choice on its second visit."""
    moves = {v: sol.sigma_star.move("m0", v) for v in g.owned_by(Owner.MAX)}
    for pivot in g.owned_by(Owner.MAX):
        for alt in g.successors[pivot]:
            if alt != moves[pivot]:
                yield stubborn_strategy(g, moves, {**moves, pivot: alt}, pivot, 2)


class TestResetTransform:
    def test_sigma3_on_pruned(self, g3p, sigma3, sol3):
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        assert reset.reset_pairs == frozenset({("s", "m3")})
        assert reset.base == sigma3
        assert reset.m == ONE
        assert reset.quality == SIGMA3_QUALITY
        # the give-up move is rerouted through the initial memory
        assert reset.strategy.move("m3", "s") == "t"
        assert reset.strategy.step("m3", "s") == "m1"
        assert reset.strategy.move("m2", "s") == "t"

    def test_repaired_strategy_is_optimal(self, g3p, sigma3, sol3):
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        assert lower_value(g3p, reset.strategy) == sol3.values

    def test_repaired_never_gives_up(self, g3p, sigma3, sol3):
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        chain = product_chain(g3p, reset.strategy, fx.trivial_min(g3p), ["s"])
        assert all(s[0] != "l" for s in chain.states)

    def test_two_tries(self, g3p, sol3):
        reset = reset_transform(g3p, fx.stubborn3(3), sol3.values, sol3.m)
        assert reset.reset_pairs == frozenset({("s", "m2")})
        assert lower_value(g3p, reset.strategy) == sol3.values

    def test_memoryless_unchanged(self, g3p, sol3):
        sigma = memoryless(g3p, Owner.MAX, {"s": "t", "w": "w", "l": "l"})
        reset = reset_transform(g3p, sigma, sol3.values, sol3.m)
        assert reset.reset_pairs == frozenset()
        assert reset.strategy == sigma

    def test_boundary_pair_does_not_reset(self, g3p, sol3):
        # (s, m1) of the two-try strategy sits exactly on the threshold:
        # it counts as deviated but must not trigger a reset
        reset = reset_transform(g3p, fx.stubborn3(3), sol3.values, sol3.m)
        assert ("s", "m1") not in reset.reset_pairs

    def test_choice_game_no_resets(self, g1, sol1):
        g1p = prune_superfluous(g1, sol1.values)
        reset = reset_transform(g1p, to_w(g1), sol1.values, sol1.m)
        assert reset.reset_pairs == frozenset()
        assert reset.strategy == to_w(g1)

    def test_inconsistent_game_rejected(self, g3, sigma3, sol3):
        with pytest.raises(InconsistentGameError):
            reset_transform(g3, sigma3, sol3.values, sol3.m)

    def test_stale_values_rejected(self, g3p, sigma3):
        with pytest.raises(StaleValuesError):
            reset_transform(g3p, sigma3, {"s": H, "t": H, "w": ONE, "l": ZERO}, H)

    def test_wrong_m_rejected(self, g3p, sigma3, sol3):
        with pytest.raises(InvalidThresholdError):
            reset_transform(g3p, sigma3, sol3.values, H)

    def test_infinite_m_rejected(self):
        g = GameGraph("", (Vertex("x", Owner.MAX, 1),), (Edge("x", "x"),))
        sigma = memoryless(g, Owner.MAX, {"x": "x"})
        with pytest.raises(InvalidThresholdError):
            reset_transform(g, sigma, {"x": ZERO}, math.inf)

    def test_min_strategy_rejected(self, g3p, sol3):
        with pytest.raises(StrategyError):
            reset_transform(g3p, fx.trivial_min(g3p), sol3.values, sol3.m)

    def test_unrealizable_foreign_edge(self):
        # the base plays a missing edge from a pair that never resets
        g = GameGraph(
            "",
            (Vertex("x", Owner.MAX, 0), Vertex("y", Owner.MAX, 0)),
            (Edge("x", "x"), Edge("y", "y")),
        )
        sigma = memoryless(g, Owner.MAX, {"x": "y", "y": "y"})
        with pytest.raises(StrategyError, match="realizable"):
            reset_transform(g, sigma, {"x": ONE, "y": ONE}, ONE)


class TestResetWindows:
    def test_no_reset_on_short_trace(self, g3p, sigma3, sol3):
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        trace = ("s", "t", "s", "t", "s", "t", "w")
        assert reset_windows(reset, trace) == [0] * len(trace)

    def test_reset_fires_on_fourth_visit(self, g3p, sigma3, sol3):
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        trace = ("s", "t") * 5
        starts = reset_windows(reset, trace)
        assert starts == [0, 0, 0, 0, 0, 0, 6, 6, 6, 6]

    def test_windows_match_compiled_machine(self, g3p, sigma3, sol3):
        # memory of the compiled machine == base memory over the window
        reset = reset_transform(g3p, sigma3, sol3.values, sol3.m)
        trace = ("s", "t") * 8 + ("s", "w", "w")
        starts = reset_windows(reset, trace)
        assert starts == sorted(starts)
        assert reset.strategy.read(()) == reset.base.initial
        for i in range(1, len(trace) + 1):
            got = reset.strategy.read(trace[:i])
            expect = reset.base.read(trace[starts[i - 1] : i])
            assert got == expect


class TestQualityReuse:
    """A table passed as `quality=` stands in for building it again."""

    def test_same_results_as_recomputing(self, g3p, sol3):
        tau = fx.trivial_min(g3p)
        for sigma in (fx.sigma3(), fx.stubborn3(3), sol3.sigma_star):
            q = quality_table(g3p, sigma)
            vals, m = sol3.values, sol3.m
            assert lower_value(g3p, sigma, quality=q) == lower_value(g3p, sigma)
            assert optimality_gap(g3p, sigma, vals, quality=q) == optimality_gap(
                g3p, sigma, vals
            )
            assert deviation_states(
                g3p, sigma, vals, m, quality=q
            ) == deviation_states(g3p, sigma, vals, m)
            for v in g3p.vertex_ids:
                assert deviation_probability(
                    g3p, sigma, tau, vals, m, v, quality=q
                ) == deviation_probability(g3p, sigma, tau, vals, m, v)
            given = reset_transform(g3p, sigma, vals, m, quality=q)
            built = reset_transform(g3p, sigma, vals, m)
            assert given.quality == built.quality == q
            assert given.reset_pairs == built.reset_pairs
            assert given.strategy == built.strategy

    def test_given_table_is_not_rebuilt(self, g3p, sigma3, sol3, monkeypatch):
        import stochparity.resets as resets

        q = quality_table(g3p, sigma3)

        def refuse(*args, **kwargs):
            raise AssertionError("quality table rebuilt")

        monkeypatch.setattr(resets, "quality_table", refuse)
        tau = fx.trivial_min(g3p)
        vals, m = sol3.values, sol3.m
        assert optimality_gap(g3p, sigma3, vals, quality=q) == Fraction(1, 8)
        assert deviation_probability(g3p, sigma3, tau, vals, m, "s", quality=q) == Fraction(1, 4)
        assert reset_transform(g3p, sigma3, vals, m, quality=q).quality is q

    def test_mismatched_table_rejected(self, g3p, sigma3, sol3):
        tau = fx.trivial_min(g3p)
        vals, m = sol3.values, sol3.m
        other_memory = quality_table(g3p, sol3.sigma_star)
        missing_pair = dict(quality_table(g3p, sigma3))
        del missing_pair[("w", "m2")]
        extra_pair = dict(quality_table(g3p, sigma3))
        extra_pair[("x", "m0")] = ONE
        for bad in (other_memory, missing_pair, extra_pair):
            with pytest.raises(ValueError, match="quality table"):
                lower_value(g3p, sigma3, quality=bad)
            with pytest.raises(ValueError, match="quality table"):
                optimality_gap(g3p, sigma3, vals, quality=bad)
            with pytest.raises(ValueError, match="quality table"):
                deviation_states(g3p, sigma3, vals, m, quality=bad)
            with pytest.raises(ValueError, match="quality table"):
                deviation_probability(g3p, sigma3, tau, vals, m, "s", quality=bad)
            with pytest.raises(ValueError, match="quality table"):
                reset_transform(g3p, sigma3, vals, m, quality=bad)
