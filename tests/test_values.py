"""Exact solving, value equations, pruning, and solution files."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from stochparity import (
    CapExceededError,
    Edge,
    GameFormatError,
    GameGraph,
    Owner,
    StaleValuesError,
    Vertex,
    check_value_equations,
    dual_game,
    format_rational,
    is_consistent,
    mdp_table,
    min_positive_value,
    parse_solution,
    parse_strategy,
    prune_superfluous,
    random_game,
    serialize_solution,
    serialize_strategy,
    solve_game,
)
from stochparity import fixtures as fx

ONE = Fraction(1)
ZERO = Fraction(0)
H = Fraction(1, 2)


def all_zero_game():
    # a single odd self-loop: Max loses from everywhere
    return GameGraph("", (Vertex("x", Owner.MAX, 1),), (Edge("x", "x"),))


class TestSolve:
    def test_choice_game(self, g1, sol1):
        assert sol1.values == {"a": ONE, "w": ONE, "l": ZERO}
        assert sol1.sigma_star.move("m0", "a") == "w"
        assert sol1.consistent is False
        assert sol1.m == ONE
        assert sol1.lower_enum == sol1.upper_enum == sol1.values

    def test_coin_game(self, g2, sol2):
        assert sol2.values == {"r": H, "w": ONE, "l": ZERO}
        assert sol2.consistent is True
        assert sol2.m == H

    def test_retry_game(self, g3, sol3):
        # retrying forever wins almost surely: the value at s solves
        # x = 1/2 + x/2, so x = 1
        assert sol3.values == {"s": ONE, "t": ONE, "w": ONE, "l": ZERO}
        assert sol3.sigma_star.move("m0", "s") == "t"
        assert sol3.consistent is False
        assert sol3.m == ONE

    def test_values_satisfy_equations(self, g1, g2, g3, sol1, sol2, sol3):
        for g, sol in ((g1, sol1), (g2, sol2), (g3, sol3)):
            assert check_value_equations(g, sol.values) == []

    def test_optimal_strategies_attain_values(self, g3, sol3):
        table = mdp_table(g3, sol3.sigma_star, Owner.MIN)
        assert {v: table[(v, "m0")] for v in g3.vertex_ids} == sol3.values
        table = mdp_table(g3, sol3.tau_star, Owner.MAX)
        assert {v: table[(v, "m0")] for v in g3.vertex_ids} == sol3.values

    def test_random_games_determined(self):
        for seed in range(60):
            g = random_game(seed + 1000, 2 + seed % 5, seed % 3, 1 + seed % 3,
                            Fraction(seed % 4, 6))
            sol = solve_game(g)
            assert sol.lower_enum == sol.upper_enum
            assert check_value_equations(g, sol.values) == []
            assert all(0 <= x <= 1 for x in sol.values.values())

    def test_dual_values_complement(self, g1, g2, g3, sol1, sol2, sol3):
        games = [(g1, sol1), (g2, sol2), (g3, sol3)]
        for seed in range(20):
            g = random_game(seed + 2000, 4, 2, 2, Fraction(1, 3))
            games.append((g, solve_game(g)))
        for g, sol in games:
            dual_vals = solve_game(dual_game(g)).values
            assert dual_vals == {v: 1 - x for v, x in sol.values.items()}

    def test_cap(self, g1):
        with pytest.raises(CapExceededError) as exc:
            solve_game(g1, cap=1)
        assert exc.value.needed == 2

    def test_all_zero_game(self):
        sol = solve_game(all_zero_game())
        assert sol.values == {"x": ZERO}
        assert sol.m == math.inf
        assert sol.consistent is True


class TestValueEquations:
    def test_violation_reported(self, g2):
        msgs = check_value_equations(g2, {"r": ONE, "w": ONE, "l": ZERO})
        assert len(msgs) == 1 and "'r'" in msgs[0]

    def test_max_vertex_violation(self, g1):
        msgs = check_value_equations(g1, {"a": ZERO, "w": ONE, "l": ZERO})
        assert any("'a'" in m for m in msgs)

    def test_missing_value(self, g1):
        msgs = check_value_equations(g1, {"a": ONE, "w": ONE})
        assert any("no value" in m and "'l'" in m for m in msgs)

    def test_value_for_unknown_vertex(self, g1):
        vals = {"a": ONE, "w": ONE, "l": ZERO, "zz": Fraction(1, 3)}
        assert check_value_equations(g1, vals) == ["value for unknown vertex 'zz'"]

    def test_min_vertex(self, g3):
        d = dual_game(g3)
        vals = {"s": ZERO, "t": ZERO, "w": ZERO, "l": ONE}
        assert check_value_equations(d, vals) == []
        vals["s"] = ONE  # min over {t: 0, l: 1} is 0
        assert any("'s'" in m for m in check_value_equations(d, vals))


class TestMinPositive:
    def test_examples(self, sol1, sol2, sol3):
        assert min_positive_value(sol1.values) == ONE
        assert min_positive_value(sol2.values) == H
        assert min_positive_value(sol3.values) == ONE

    def test_all_zero(self):
        assert min_positive_value({"x": ZERO}) == math.inf
        assert min_positive_value({}) == math.inf


class TestPrune:
    def test_choice_game(self, g1, sol1):
        pruned = prune_superfluous(g1, sol1.values)
        assert not pruned.has_edge("a", "l")
        assert pruned.has_edge("a", "w")
        assert is_consistent(pruned, sol1.values)

    def test_coin_game_untouched(self, g2, sol2):
        assert prune_superfluous(g2, sol2.values) == g2

    def test_retry_game(self, g3, sol3):
        pruned = prune_superfluous(g3, sol3.values)
        assert not pruned.has_edge("s", "l")
        assert pruned.has_edge("s", "t")
        assert is_consistent(pruned, sol3.values)
        # random edges are never dropped
        assert pruned.has_edge("t", "s") and pruned.has_edge("t", "w")

    def test_min_edges_pruned(self, g3, sol3):
        d = dual_game(g3)
        dsol = solve_game(d)
        pruned = prune_superfluous(d, dsol.values)
        # s is Min-owned in the dual; l has the larger dual value, so
        # the s->l escape is superfluous for Min there too
        assert not pruned.has_edge("s", "l")

    def test_stale_values_rejected(self, g3):
        with pytest.raises(StaleValuesError):
            prune_superfluous(g3, {"s": H, "t": H, "w": ONE, "l": ZERO})

    def test_idempotent(self, g1, g3, sol1, sol3):
        for g, sol in ((g1, sol1), (g3, sol3)):
            once = prune_superfluous(g, sol.values)
            assert prune_superfluous(once, sol.values) == once

    def test_values_preserved_on_random_games(self):
        for seed in range(30):
            g = random_game(seed + 3000, 4, 2, 2, Fraction(1, 3))
            sol = solve_game(g)
            pruned = prune_superfluous(g, sol.values)
            assert solve_game(pruned).values == sol.values
            assert is_consistent(pruned, sol.values)


class TestConsistency:
    def test_examples(self, g1, g2, g3, sol1, sol2, sol3):
        assert is_consistent(g1, sol1.values) is False
        assert is_consistent(g2, sol2.values) is True
        assert is_consistent(g3, sol3.values) is False

    def test_after_pruning(self, g1, g3, sol1, sol3):
        for g, sol in ((g1, sol1), (g3, sol3)):
            assert is_consistent(prune_superfluous(g, sol.values), sol.values)


class TestSolutionFiles:
    def test_round_trip(self, sol3):
        text = serialize_solution(sol3)
        back = parse_solution(text)
        assert back.values == sol3.values
        assert back.sigma_star == sol3.sigma_star
        assert back.tau_star == sol3.tau_star
        assert back.consistent == sol3.consistent
        assert back.m == sol3.m
        assert serialize_solution(back) == text

    def test_infinite_m(self):
        sol = solve_game(all_zero_game())
        text = serialize_solution(sol)
        assert json.loads(text)["m"] == "inf"
        assert parse_solution(text).m == math.inf

    def test_values_are_strings(self, sol2):
        data = json.loads(serialize_solution(sol2))
        assert data["values"] == {"l": "0/1", "r": "1/2", "w": "1/1"}

    def test_parse_errors(self, sol2):
        data = json.loads(serialize_solution(sol2))
        data["consistent"] = "yes"
        with pytest.raises(GameFormatError, match="consistent"):
            parse_solution(json.dumps(data))
        data = json.loads(serialize_solution(sol2))
        del data["m"]
        with pytest.raises(GameFormatError, match="m"):
            parse_solution(json.dumps(data))
        data = json.loads(serialize_solution(sol2))
        data["values"]["r"] = "0.5"
        with pytest.raises(GameFormatError):
            parse_solution(json.dumps(data))
        data = json.loads(serialize_solution(sol2))
        data["values"] = [["r", "1/2"]]
        with pytest.raises(GameFormatError, match="values must be an object"):
            parse_solution(json.dumps(data))


def reference_serialize_solution(sol):
    """The solution file with each witness rendered to its own file text first."""
    obj = {
        "values": {v: format_rational(x) for v, x in sorted(sol.values.items())},
        "sigma_star": json.loads(serialize_strategy(sol.sigma_star)),
        "tau_star": json.loads(serialize_strategy(sol.tau_star)),
        "consistent": sol.consistent,
        "m": "inf" if sol.m == math.inf else format_rational(sol.m),
    }
    return json.dumps(obj, indent=2) + "\n"


def malformed_witnesses():
    """Witness objects a solution file may hold that no strategy file accepts."""
    good = json.loads(serialize_strategy(fx.sigma3()))
    cases = [None, 3, "max", [], [good], {}, {"player": "max"}, "{}"]
    for key, value in (
        ("player", "both"),
        ("player", None),
        ("memory_states", []),
        ("memory_states", ["m0", 1]),
        ("memory_states", ["m0", "m0"]),
        ("memory_states", ["m,0"]),
        ("initial", "m9"),
        ("initial", ["m0"]),
        ("update", {}),
        ("update", [1]),
        ("update", [{"mem": "m0", "vertex": "s"}]),
        ("update", [{"mem": "m0", "vertex": "s", "next": 0}]),
        ("update", [{"mem": "m9", "vertex": "s", "next": "m0"}]),
        ("update", [{"mem": "m0", "vertex": "s", "next": "m9"}]),
        ("action", [{"mem": "m0", "vertex": "s", "move": "t"}] * 2),
        ("action", [{"mem": "m0", "vertex": "s", "move": "t", "extra": 1}]),
    ):
        cases.append({**good, key: value})
    cases.append({**good, "extra": True})
    return cases


class TestSolutionWitnessObjects:
    def test_serialization_as_through_strategy_files(self, g1, g2, g3):
        games = [g1, g2, g3, all_zero_game()]
        for size in range(3, 10):
            for seed in range(8):
                games.append(random_game(seed, size, 3, 3, Fraction(1, 3)))
        for g in games:
            sol = solve_game(g)
            text = serialize_solution(sol)
            assert text == reference_serialize_solution(sol)
            back = parse_solution(text)
            assert (back.sigma_star, back.tau_star) == (sol.sigma_star, sol.tau_star)

    @pytest.mark.parametrize("field", ["sigma_star", "tau_star"])
    def test_malformed_witness_names_its_field(self, sol3, field):
        data = json.loads(serialize_solution(sol3))
        data[field]["update"][0]["next"] = 0
        with pytest.raises(GameFormatError) as got:
            parse_solution(json.dumps(data))
        assert str(got.value) == f"solution file: {field}: update[0]: fields must be strings"
        data[field] = []
        with pytest.raises(GameFormatError) as got:
            parse_solution(json.dumps(data))
        assert str(got.value) == (
            f"solution file: {field}: strategy file: top level must be an object"
        )

    @pytest.mark.parametrize("field", ["sigma_star", "tau_star"])
    def test_malformed_witness_reports_as_a_strategy_file(self, sol3, field):
        for witness in malformed_witnesses():
            with pytest.raises(GameFormatError) as want:
                parse_strategy(json.dumps(witness))
            data = json.loads(serialize_solution(sol3))
            data[field] = witness
            with pytest.raises(GameFormatError) as got:
                parse_solution(json.dumps(data))
            # the strategy file's message, naming the witness it is about
            assert str(got.value) == f"solution file: {field}: {want.value}"
