"""End-to-end command line behavior: outputs, files, and exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import stat
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

import stochparity.cli as cli
import stochparity.errors as errors
import stochparity.resets as resets
from stochparity import (
    Edge,
    GameGraph,
    MealyStrategy,
    Owner,
    Vertex,
    check_value_equations,
    dual_game,
    enumerate_memoryless,
    is_consistent,
    memoryless,
    parse_game,
    parse_solution,
    parse_strategy,
    product_chain,
    prune_superfluous,
    random_game,
    serialize_game,
    serialize_solution,
    serialize_strategy,
    solve_game,
    stubborn_strategy,
    validate_strategy,
)
from stochparity import fixtures as fx
from stochparity.cli import _build_parser, main
from test_acceptance import corpus_games

ALL_ZERO_GAME = """
{
  "vertices": [{"id": "x", "owner": "max", "priority": 1}],
  "edges": [{"from": "x", "to": "x"}]
}
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, g in (("g1", fx.g1()), ("g2", fx.g2()), ("g3", fx.g3())):
        p = d / f"{name}.json"
        p.write_text(serialize_game(g))
        paths[name] = str(p)
    p = d / "sigma3.json"
    p.write_text(serialize_strategy(fx.sigma3()))
    paths["sigma3"] = str(p)
    p = d / "tau3.json"
    p.write_text(serialize_strategy(fx.trivial_min(fx.g3())))
    paths["tau3"] = str(p)
    p = d / "zero.json"
    p.write_text(ALL_ZERO_GAME)
    paths["zero"] = str(p)
    paths["dir"] = d
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_retry_game(self, files, capsys):
        code, out, err = run(capsys, "solve", files["g3"])
        assert code == 0
        assert out.splitlines() == [
            "l=0/1",
            "s=1/1",
            "t=1/1",
            "w=1/1",
            "consistent=false",
            "m=1/1",
        ]

    def test_decimal(self, files, capsys):
        code, out, _ = run(capsys, "solve", files["g2"], "--decimal")
        assert code == 0
        assert "r=1/2 (0.5)" in out

    def test_out_file(self, files, capsys, tmp_path):
        out_path = tmp_path / "sol.json"
        code, _, _ = run(capsys, "solve", files["g3"], "--out", str(out_path))
        assert code == 0
        sol = parse_solution(out_path.read_bytes())
        assert sol.values["s"] == 1
        assert sol.consistent is False

    def test_unwritable_out_prints_nothing(self, files, capsys, tmp_path):
        out_path = tmp_path / "nodir" / "sol.json"
        code, out, err = run(capsys, "solve", files["g1"], "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "nodir" in err

    def test_cap_exceeded(self, files, capsys):
        code, _, err = run(capsys, "solve", files["g1"], "--cap", "1")
        assert code == 3
        assert "cap" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/game.json")
        assert code == 2
        assert "error" in err

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "solve", str(p))
        assert code == 2

    def test_invalid_game(self, capsys, tmp_path):
        bad = json.loads(serialize_game(fx.g2()))
        row = next(e for e in bad["edges"] if e["from"] == "r" and e["to"] == "w")
        row["prob"] = "1/3"
        p = tmp_path / "invalid.json"
        p.write_text(json.dumps(bad))
        code, _, err = run(capsys, "solve", str(p))
        assert code == 2
        assert "sum" in err


class TestCheck:
    def test_good_solution(self, files, capsys, tmp_path):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g3"], "--out", str(sol_path))
        code, out, _ = run(capsys, "check", files["g3"], str(sol_path))
        assert code == 0
        lines = out.splitlines()
        assert "PASS value-equations" in lines
        assert "PASS consistent-flag" in lines
        assert "PASS m-field" in lines
        assert "PASS witness-strategies" in lines

    def test_corrupted_solution(self, files, capsys, tmp_path):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g2"], "--out", str(sol_path))
        data = json.loads(sol_path.read_text())
        data["values"]["r"] = "1/1"
        sol_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", files["g2"], str(sol_path))
        assert code == 1
        assert "FAIL value-equations" in out

    def test_wrong_flag(self, files, capsys, tmp_path):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g2"], "--out", str(sol_path))
        data = json.loads(sol_path.read_text())
        data["consistent"] = False
        sol_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", files["g2"], str(sol_path))
        assert code == 1
        assert "FAIL consistent-flag" in out

    def test_value_for_unknown_vertex(self, files, capsys, tmp_path):
        # G1's true m is 1; an extra vertex valued 1/3 must not make m = 1/3 pass
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g1"], "--out", str(sol_path))
        data = json.loads(sol_path.read_text())
        data["values"]["zz"] = "1/3"
        data["m"] = "1/3"
        sol_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", files["g1"], str(sol_path))
        assert code == 1
        assert "FAIL value-equations: value for unknown vertex 'zz'" in out.splitlines()


    def test_swapped_witnesses(self, files, capsys, tmp_path):
        # G1's witnesses, each filed under the other player's name
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g1"], "--out", str(sol_path))
        data = json.loads(sol_path.read_text())
        data["sigma_star"], data["tau_star"] = data["tau_star"], data["sigma_star"]
        sol_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", files["g1"], str(sol_path))
        assert code == 1
        assert out.splitlines() == [
            "PASS value-equations",
            "PASS consistent-flag",
            "PASS m-field",
            "FAIL witness-strategies: sigma_star is a min strategy, not max; "
            "tau_star is a max strategy, not min",
        ]


G1_VALUES = {"a": "1/1", "l": "0/1", "w": "1/1"}


class TestCheckReadsOwnVertices:
    """`consistent-flag` and `m-field` read only the game's own vertices."""

    def check_g1(self, files, capsys, tmp_path, values, m="1/1"):
        """`check` on G1's solution file with its values and m replaced."""
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g1"], "--out", str(sol_path))
        data = json.loads(sol_path.read_text())
        data.update(values=values, m=m)
        sol_path.write_text(json.dumps(data))
        return run(capsys, "check", files["g1"], str(sol_path))

    def test_unknown_vertex_fails_value_equations_only(self, files, capsys, tmp_path):
        values = {**G1_VALUES, "zz": "1/3"}
        code, out, _ = self.check_g1(files, capsys, tmp_path, values)
        assert code == 1
        assert out.splitlines() == [
            "FAIL value-equations: value for unknown vertex 'zz'",
            "PASS consistent-flag",
            "PASS m-field",
            "PASS witness-strategies",
        ]

    def test_m_from_unknown_vertex_fails(self, files, capsys, tmp_path):
        values = {**G1_VALUES, "zz": "1/3"}
        code, out, _ = self.check_g1(files, capsys, tmp_path, values, m="1/3")
        assert code == 1
        assert out.splitlines() == [
            "FAIL value-equations: value for unknown vertex 'zz'",
            "PASS consistent-flag",
            "FAIL m-field: file says 1/3, values give 1",
            "PASS witness-strategies",
        ]

    def test_missing_vertex_leaves_flag_unchecked(self, files, capsys, tmp_path):
        values = {"a": "1/1", "w": "1/1"}
        code, out, _ = self.check_g1(files, capsys, tmp_path, values)
        assert code == 1
        lines = out.splitlines()
        assert "FAIL value-equations: no value for vertex 'l'" in lines
        assert "FAIL consistent-flag: cannot be checked: a vertex has no value" in lines
        assert not any("values give None" in line for line in lines)

    def test_missing_vertex_leaves_m_unchecked(self, files, capsys, tmp_path):
        # G2's file without r keeps its right m, 1/2; w and l alone give 1
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", files["g2"], "--out", str(sol_path))
        data = json.loads(sol_path.read_text())
        del data["values"]["r"]
        sol_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", files["g2"], str(sol_path))
        assert code == 1
        assert out.splitlines() == [
            "FAIL value-equations: no value for vertex 'r'",
            "FAIL consistent-flag: cannot be checked: a vertex has no value",
            "FAIL m-field: cannot be checked: a vertex has no value",
            "PASS witness-strategies",
        ]


class TestPrune:
    def test_stdout(self, files, capsys):
        code, out, err = run(capsys, "prune", files["g3"])
        assert code == 0
        assert "removed s->l" in err
        pruned = parse_game(out)
        assert not pruned.has_edge("s", "l")
        assert pruned.has_edge("s", "t")

    def test_out_file(self, files, capsys, tmp_path):
        p = tmp_path / "pruned.json"
        code, out, _ = run(capsys, "prune", files["g3"], "--out", str(p))
        assert code == 0
        assert "removed s->l" in out
        assert "kept 5 of 6 edges" in out
        assert not parse_game(p.read_bytes()).has_edge("s", "l")

    def test_nothing_to_prune(self, files, capsys):
        code, out, err = run(capsys, "prune", files["g2"])
        assert code == 0
        assert "removed" not in err
        assert parse_game(out) == fx.g2()


class TestVerify:
    def test_fixtures_pass(self, files, capsys):
        for name in ("g1", "g2", "g3"):
            code, out, _ = run(capsys, "verify", files[name])
            assert code == 0, out
            assert "FAIL" not in out
            for check in (
                "value-equations",
                "determinacy",
                "prune-preserves-values",
                "pruned-consistent",
                "one-step-martingale",
                "deviation-bound",
                "reset-optimality",
                "resets-settle",
            ):
                assert f"PASS {check}" in out

    def test_all_zero_game_vacuous(self, files, capsys):
        code, out, _ = run(capsys, "verify", files["zero"])
        assert code == 0
        assert "vacuous" in out
        assert "FAIL" not in out

    def test_generated_games_pass(self, capsys, tmp_path):
        for seed in range(1, 21):
            p = tmp_path / f"r{seed}.json"
            code, _, _ = run(
                capsys, "gen", "--seed", str(seed), "--vertices", "4",
                "--out", str(p),
            )
            assert code == 0
            code, out, _ = run(capsys, "verify", str(p))
            assert code == 0, (seed, out)
            assert "FAIL" not in out

    def test_deviation_bound_checks_every_min_strategy(self, files, capsys, monkeypatch):
        # 2^12 + 1 Min strategies on G2, where only the last is pushed past
        # sigma_star's bound (1 + 0) / (1 + 1/4) = 4/5
        tau = fx.trivial_min(fx.g2())
        last = dataclasses.replace(tau)
        monkeypatch.setattr(
            cli, "enumerate_memoryless", lambda g, player: [tau] * 2**12 + [last]
        )

        def stub(g, sigma, tau, *args, **kwargs):
            return {v: Fraction(tau is last) for v in g.vertex_ids}

        monkeypatch.setattr(cli, "deviation_probabilities", stub)
        code, out, _ = run(capsys, "verify", files["g2"])
        assert code == 1
        assert "FAIL deviation-bound: from l: deviation probability 1 exceeds 4/5" in (
            out.splitlines()
        )


def martingale_by_enumeration(game, vals):
    """One-step martingale under every memoryless pair, one product chain each."""
    for sigma, tau in itertools.product(
        enumerate_memoryless(game, Owner.MAX), enumerate_memoryless(game, Owner.MIN)
    ):
        chain = product_chain(game, sigma, tau, game.vertex_ids)
        for s in chain.states:
            mean = sum((p * vals[t[0]] for t, p in chain.transitions[s]), Fraction(0))
            if mean != vals[s[0]]:
                return False
    return True


class TestMartingaleFromValueEquations:
    def test_equals_enumeration_on_corpus(self):
        verdicts = []
        for g in corpus_games():
            vals = solve_game(g).values
            for game in (g, prune_superfluous(g, vals)):
                rule = is_consistent(game, vals) and not check_value_equations(game, vals)
                assert rule == martingale_by_enumeration(game, vals), game.name
                verdicts.append(rule)
        assert len(verdicts) == 406 and verdicts.count(False) == 21

    def test_all_zero_game_builds_no_product_chain(self, files, capsys, monkeypatch):
        calls = []
        real = cli.product_chain

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "product_chain", counting)
        code, out, _ = run(capsys, "verify", files["zero"])
        assert code == 0, out
        assert "PASS one-step-martingale" in out.splitlines()
        assert calls == []

    def test_changing_edge_fails_with_fixed_sentence(self, files, capsys, monkeypatch):
        # an unpruned G3 keeps the losing edge s->l
        monkeypatch.setattr(cli, "prune_superfluous", lambda g, vals: g)
        code, out, _ = run(capsys, "verify", files["g3"])
        assert code == 1
        lines = out.splitlines()
        assert (
            "FAIL pruned-consistent: pruned game still has value-changing "
            "controlled edges"
        ) in lines
        assert "FAIL one-step-martingale: a controlled edge changes the value" in lines

    def test_random_row_fails_with_its_violation(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "prune_superfluous", lambda g, vals: biased_g2())
        code, out, _ = run(capsys, "verify", files["g2"])
        assert code == 1
        assert (
            "FAIL one-step-martingale: value equation fails at 'r': stored 1/2, "
            "successors give 1/4"
        ) in out.splitlines()


def biased_g2():
    """G2 with its coin reweighted to 1/4, so r's value 1/2 is no longer averaged."""
    return GameGraph(
        "G2",
        fx.g2().vertices,
        (
            Edge("r", "w", Fraction(1, 4)),
            Edge("r", "l", Fraction(3, 4)),
            Edge("w", "w"),
            Edge("l", "l"),
        ),
    )


NOT_RUN_AFTER_MARTINGALE = [
    "FAIL deviation-bound: not run: one-step-martingale failed",
    "FAIL reset-optimality: not run: one-step-martingale failed",
    "FAIL resets-settle: not run: one-step-martingale failed",
]


class TestVerifyPrintsEveryLine:
    """A failed prerequisite turns each dependent line into FAIL ... not run."""

    def test_inconsistent_pruned_game(self, files, capsys, monkeypatch):
        # an unpruned G3 keeps the losing edge s->l
        monkeypatch.setattr(cli, "prune_superfluous", lambda g, vals: g)
        code, out, _ = run(capsys, "verify", files["g3"])
        assert code == 1
        assert out.splitlines() == [
            "PASS value-equations",
            "PASS determinacy",
            "PASS prune-preserves-values",
            "FAIL pruned-consistent: pruned game still has value-changing "
            "controlled edges",
            "FAIL one-step-martingale: a controlled edge changes the value",
            *NOT_RUN_AFTER_MARTINGALE,
        ]

    def test_stale_values_on_pruned_game(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "prune_superfluous", lambda g, vals: biased_g2())
        code, out, _ = run(capsys, "verify", files["g2"])
        assert code == 1
        assert out.splitlines() == [
            "PASS value-equations",
            "PASS determinacy",
            "FAIL prune-preserves-values: sigma_star from r: guarantees 1/4, value is 1/2",
            "PASS pruned-consistent",
            "FAIL one-step-martingale: value equation fails at 'r': stored 1/2, "
            "successors give 1/4",
            *NOT_RUN_AFTER_MARTINGALE,
        ]

    def test_stale_solver_values(self, files, capsys, monkeypatch):
        sol = solve_game(fx.g2())
        stale = dataclasses.replace(sol, values={**sol.values, "r": Fraction(1)})
        monkeypatch.setattr(cli, "solve_game", lambda g, cap: stale)
        code, out, _ = run(capsys, "verify", files["g2"])
        assert code == 1
        assert out.splitlines() == [
            "FAIL value-equations: solver values break the local equations",
            "PASS determinacy",
            "FAIL prune-preserves-values: not run: value-equations failed",
            "FAIL pruned-consistent: not run: value-equations failed",
            "FAIL one-step-martingale: not run: value-equations failed",
            *NOT_RUN_AFTER_MARTINGALE,
        ]

    @pytest.mark.parametrize("name", ["g1", "g3"])
    def test_chains_only_for_candidates_with_reset_pairs(
        self, files, capsys, monkeypatch, name
    ):
        repairs, chained = [], []
        real_transform, real_chain = cli.reset_transform, cli.product_chain

        def recording_transform(*args, **kwargs):
            repairs.append(real_transform(*args, **kwargs))
            return repairs[-1]

        def counting_chain(g, sigma, tau, starts):
            chained.append(sigma)
            return real_chain(g, sigma, tau, starts)

        monkeypatch.setattr(cli, "reset_transform", recording_transform)
        monkeypatch.setattr(cli, "product_chain", counting_chain)
        code, out, _ = run(capsys, "verify", files[name])
        assert code == 0, out
        # sigma_star never resets; a stubborn candidate on these games does
        resetting = [rs.strategy for rs in repairs if rs.reset_pairs]
        assert resetting and len(resetting) < len(repairs)
        assert {id(s) for s in chained} == {id(s) for s in resetting}


class TestVerifyRepairBranches:
    """The reset lines' skipped candidates and their FAIL details."""

    PASSED = [
        f"PASS {name}"
        for name in (
            "value-equations", "determinacy", "prune-preserves-values",
            "pruned-consistent", "one-step-martingale", "deviation-bound",
        )
    ]

    def test_unrealizable_reset_is_skipped(self, capsys, monkeypatch, tmp_path):
        # two stubborn candidates on this game play a pruned edge from a
        # pair that does not reset, so the transform refuses them
        p = tmp_path / "g.json"
        p.write_text(serialize_game(random_game(261, 4, 3, 3, Fraction(1, 3))))
        refused = []
        real = cli.reset_transform

        def recording(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except errors.StrategyError as exc:
                refused.append(exc)
                raise

        monkeypatch.setattr(cli, "reset_transform", recording)
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 0
        assert out.splitlines() == [
            *self.PASSED, "PASS reset-optimality", "PASS resets-settle",
        ]
        assert len(refused) == 2

    def test_reset_optimality_detail(self, files, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "lower_value",
            lambda g, sigma, cap, quality=None: dict.fromkeys(g.vertex_ids, Fraction(0)),
        )
        code, out, _ = run(capsys, "verify", files["g1"])
        assert code == 1
        assert out.splitlines() == [
            *self.PASSED,
            "FAIL reset-optimality: from a: reset strategy guarantees 0/1, value is 1/1",
            "PASS resets-settle",
        ]

    def test_reset_optimality_names_the_first_failing_candidate(
        self, files, capsys, monkeypatch
    ):
        # G1's three candidates: the first falls short at w, the second at
        # a, the third not at all
        real = cli.lower_value
        short_at = iter(["w", "a"])

        def short(g, sigma, cap, quality=None):
            lo = real(g, sigma, cap, quality=quality)
            v = next(short_at, None)
            return lo if v is None else {**lo, v: lo[v] - Fraction(1, 2)}

        monkeypatch.setattr(cli, "lower_value", short)
        code, out, _ = run(capsys, "verify", files["g1"])
        assert code == 1
        assert out.splitlines() == [
            *self.PASSED,
            "FAIL reset-optimality: from w: reset strategy guarantees 1/2, value is 1/1",
            "PASS resets-settle",
        ]
        assert next(short_at, None) is None  # both shortfalls were handed out

    def test_resets_settle_detail(self, files, capsys, monkeypatch):
        # every chain reported as one recurrent class, reset pairs included
        real = cli.product_chain

        class OneClass:
            def __init__(self, chain):
                self.states = chain.states

            def bsccs(self):
                return [frozenset(self.states)]

        monkeypatch.setattr(cli, "product_chain", lambda *args: OneClass(real(*args)))
        code, out, _ = run(capsys, "verify", files["g3"])
        assert code == 1
        assert out.splitlines() == [
            *self.PASSED,
            "PASS reset-optimality",
            "FAIL resets-settle: a recurrent class still triggers resets",
        ]


def detour_game():
    """Max at a may stay on its odd loop or go to the winning w: both edges
    keep a's value 1, so pruning keeps both."""
    return GameGraph(
        "detour",
        (Vertex("a", Owner.MAX, 1), Vertex("w", Owner.MAX, 0)),
        (Edge("a", "a"), Edge("a", "w"), Edge("w", "w")),
    )


class TestVerifyCertifiesWithWitnesses:
    """prune-preserves-values reads the solver's witnesses on the pruned game."""

    def test_each_command_solves_at_most_once(self, capsys, monkeypatch, tmp_path):
        solved = []
        real = cli.solve_game

        def recording(g, cap):
            solved.append(g)
            return real(g, cap)

        monkeypatch.setattr(cli, "solve_game", recording)
        for g in (fx.g1(), fx.g2(), fx.g3()):
            sol = real(g)

            def write(name, text):
                path = tmp_path / f"{g.name}-{name}.json"
                path.write_text(text)
                return str(path)

            game = write("game", serialize_game(g))
            solution = write("solution", serialize_solution(sol))
            sigma = write("sigma", serialize_strategy(sol.sigma_star))
            tau = write("tau", serialize_strategy(sol.tau_star))
            play = (sigma, tau, "--start", g.vertex_ids[0], "--samples", "10")
            argvs = {
                "solve": ("solve", game),
                "check": ("check", game, solution),
                "prune": ("prune", game),
                "verify": ("verify", game),
                "quality": ("quality", game, sigma),
                "lower-value": ("lower-value", game, sigma),
                "deviation-prob": ("deviation-prob", game, sigma, tau, "--start", "w"),
                "reset": ("reset", game, sigma),
                "simulate": ("simulate", game, *play),
                "simulate --deviations": ("simulate", game, *play, "--deviations"),
                "gen": ("gen", "--seed", "1"),
            }
            assert {argv[0] for argv in argvs.values()} == set(COMMANDS)
            calls = {}
            for key, argv in argvs.items():
                solved.clear()
                assert run(capsys, *argv)[0] == 0, (g.name, argv)
                calls[key] = len(solved)
            assert max(calls.values()) == 1 and calls["verify"] == 1, (g.name, calls)

    @pytest.mark.parametrize(
        "game, player, first, later, detail",
        [
            # a -> l loses a's value 1, so pruning removes it
            (fx.g1, Owner.MAX, {"a": "l", "w": "w", "l": "l"}, None,
             "sigma_star: action ('m0', 'a') -> 'l' is not an edge"),
            # in the dual, a -> l concedes 1 where a's value is 0
            (lambda: dual_game(fx.g1()), Owner.MIN, {"a": "l", "w": "w", "l": "l"}, None,
             "tau_star: action ('m0', 'a') -> 'l' is not an edge"),
            # a -> a is kept, but staying on the odd loop wins nothing, and
            # in the dual it concedes 1
            (detour_game, Owner.MAX, {"a": "a", "w": "w"}, None,
             "sigma_star from a: guarantees 0/1, value is 1/1"),
            (lambda: dual_game(detour_game()), Owner.MIN, {"a": "a", "w": "w"}, None,
             "tau_star from a: concedes 1/1, value is 0/1"),
            # the values hold: a -> w is played at the initial memory, and
            # a -> l only at the later one, which no play reaches at a (no
            # edge enters a); still a -> l is not an edge of the pruned game
            (fx.g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"}, {"a": "l", "w": "w", "l": "l"},
             "sigma_star: action ('m1', 'a') -> 'l' is not an edge"),
            (lambda: dual_game(fx.g1()), Owner.MIN, {"a": "w", "w": "w", "l": "l"},
             {"a": "l", "w": "w", "l": "l"},
             "tau_star: action ('m1', 'a') -> 'l' is not an edge"),
        ],
        ids=[
            "sigma-on-pruned-edge", "tau-on-pruned-edge", "sigma-short-of-values",
            "tau-short-of-values", "sigma-pruned-edge-unreached",
            "tau-pruned-edge-unreached",
        ],
    )
    def test_witness_that_does_not_certify_fails(
        self, capsys, monkeypatch, tmp_path, game, player, first, later, detail
    ):
        # the true values, with one witness swapped for a poor one; a second
        # solve of the pruned game would find the same values and pass
        g = game()
        sol = solve_game(g)
        if later is None:
            poor = memoryless(g, player, first)
        else:  # m0 moves to m1 at its first step
            mems = ("m0", "m1")
            poor = MealyStrategy(
                player, mems, "m0",
                {(m, v): "m1" for m in mems for v in g.vertex_ids},
                {**{("m0", v): w for v, w in first.items()},
                 **{("m1", v): w for v, w in later.items()}},
            )
        witness = "sigma_star" if player is Owner.MAX else "tau_star"
        monkeypatch.setattr(
            cli, "solve_game", lambda g, cap: dataclasses.replace(sol, **{witness: poor})
        )
        path = tmp_path / "g.json"
        path.write_text(serialize_game(g))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.splitlines()[:3] == [
            "PASS value-equations",
            "PASS determinacy",
            f"FAIL prune-preserves-values: {detail}",
        ]


class TestQualityAndLowerValue:
    def test_quality_lines(self, files, capsys):
        code, out, _ = run(capsys, "quality", files["g3"], files["sigma3"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert "s,m0=7/8" in lines
        assert "s,m3=0/1" in lines
        assert "t,m0=15/16" in lines
        assert lines == sorted(lines)

    def test_lower_value(self, files, capsys):
        code, out, _ = run(capsys, "lower-value", files["g3"], files["sigma3"])
        assert code == 0
        assert out.splitlines() == ["l=0/1", "s=7/8", "t=15/16", "w=1/1"]

    def test_min_strategy_rejected(self, files, capsys):
        code, _, err = run(capsys, "lower-value", files["g3"], files["tau3"])
        assert code == 2
        assert "max strategy" in err

    def test_strategy_that_does_not_fit_rejected(self, files, capsys):
        # sigma3 is a G3 strategy: it has no rows for G1's vertices
        code, out, err = run(capsys, "quality", files["g1"], files["sigma3"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {files['sigma3']}: ")
        assert "update row uses unknown vertex 's'" in err


class TestDeviationProb:
    def test_sigma3(self, files, capsys):
        code, out, _ = run(
            capsys, "deviation-prob", files["g3"], files["sigma3"], files["tau3"],
            "--start", "s",
        )
        assert code == 0
        assert out.splitlines() == [
            "epsilon=1/8",
            "m=1/1",
            "bound=3/4",
            "deviation-prob=1/4",
        ]

    def test_all_zero_game(self, files, capsys, tmp_path):
        sig = tmp_path / "sx.json"
        g = parse_game(ALL_ZERO_GAME)
        from stochparity import memoryless

        sig.write_text(serialize_strategy(memoryless(g, Owner.MAX, {"x": "x"})))
        tau = tmp_path / "tx.json"
        tau.write_text(serialize_strategy(memoryless(g, Owner.MIN, {})))
        code, _, err = run(
            capsys, "deviation-prob", files["zero"], str(sig), str(tau),
            "--start", "x",
        )
        assert code == 4
        assert "inf" in err


class TestReset:
    def test_report(self, files, capsys):
        code, out, _ = run(capsys, "reset", files["g3"], files["sigma3"])
        assert code == 0
        lines = out.splitlines()
        assert "s=7/8 -> 1/1 value=1/1" in lines
        assert "t=15/16 -> 1/1 value=1/1" in lines
        assert "reset-pairs=s,m3" in lines

    def test_out_strategy_fits_pruned_game(self, files, capsys, tmp_path):
        p = tmp_path / "repaired.json"
        code, _, _ = run(capsys, "reset", files["g3"], files["sigma3"], "--out", str(p))
        assert code == 0
        from stochparity import prune_superfluous, solve_game

        g3 = fx.g3()
        pruned = prune_superfluous(g3, solve_game(g3).values)
        repaired = parse_strategy(p.read_bytes())
        assert validate_strategy(pruned, repaired) == []
        assert repaired.move("m3", "s") == "t"

    def test_unwritable_out_prints_nothing(self, files, capsys, tmp_path):
        p = tmp_path / "nodir" / "repaired.json"
        code, out, err = run(capsys, "reset", files["g3"], files["sigma3"], "--out", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "nodir" in err

    def test_no_reset_needed(self, files, capsys):
        code, out, _ = run(capsys, "reset", files["g2"], make_strategy_file(
            files, "trivial2.json", fx.trivial_max(fx.g2())
        ))
        assert code == 0
        assert "reset-pairs=none" in out

    def test_all_zero_game(self, files, capsys, tmp_path):
        g = parse_game(ALL_ZERO_GAME)
        from stochparity import memoryless

        sig = tmp_path / "sx.json"
        sig.write_text(serialize_strategy(memoryless(g, Owner.MAX, {"x": "x"})))
        code, _, err = run(capsys, "reset", files["zero"], str(sig))
        assert code == 4
        assert "inf" in err


def make_strategy_file(files, name, strategy):
    p = files["dir"] / name
    p.write_text(serialize_strategy(strategy))
    return str(p)


class TestSimulate:
    def test_json_shape(self, files, capsys):
        code, out, _ = run(
            capsys, "simulate", files["g3"], files["sigma3"], files["tau3"],
            "--start", "s", "--samples", "2000", "--seed", "7",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"estimate", "stderr", "n", "truncated_count", "histogram"}
        assert data["n"] == 2000
        assert data["truncated_count"] == 0
        assert data["histogram"] == {}
        num, den = data["estimate"].split("/")
        assert 0.8 < int(num) / int(den) < 0.95

    def test_deterministic(self, files, capsys):
        args = (
            "simulate", files["g3"], files["sigma3"], files["tau3"],
            "--start", "s", "--samples", "500", "--seed", "3",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_deviations(self, files, capsys):
        code, out, _ = run(
            capsys, "simulate", files["g3"], files["sigma3"], files["tau3"],
            "--start", "s", "--samples", "2000", "--seed", "1", "--deviations",
        )
        assert code == 0
        data = json.loads(out)
        assert list(data["histogram"]) == ["4"]
        num, den = data["estimate"].split("/")
        assert 0.15 < int(num) / int(den) < 0.35

    def test_workers_flag(self, files, capsys):
        args = (
            "simulate", files["g2"],
            make_strategy_file(files, "max2.json", fx.trivial_max(fx.g2())),
            make_strategy_file(files, "min2.json", fx.trivial_min(fx.g2())),
            "--start", "r", "--samples", "400", "--seed", "2", "--workers", "3",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        data = json.loads(out1)
        assert 0.3 < eval_frac(data["estimate"]) < 0.7


def stubborn_witness_files(files, seed, k):
    """random_game(seed, 5, 3, 2, 1/3) with its witness switched at the first
    Max choice on the pivot's k-th visit, and the Min witness."""
    g = random_game(seed, 5, 3, 2, Fraction(1, 3))
    sol = solve_game(g)
    good = {v: sol.sigma_star.move("m0", v) for v in g.owned_by(Owner.MAX)}
    pivot = next(v for v in g.owned_by(Owner.MAX) if len(g.successors[v]) > 1)
    bad = dict(good)
    bad[pivot] = next(w for w in g.successors[pivot] if w != good[pivot])
    game = files["dir"] / f"stub{seed}.json"
    game.write_text(serialize_game(g))
    sigma = make_strategy_file(
        files, f"stub{seed}-sigma.json", stubborn_strategy(g, good, bad, pivot, k)
    )
    tau = make_strategy_file(files, f"stub{seed}-tau.json", sol.tau_star)
    return str(game), sigma, tau, pivot


class TestCapReachesEveryTable:
    # sigma's quality table enumerates 16 Min policies, over the cap of 4
    @pytest.mark.parametrize("command", ["quality", "deviation-prob", "simulate"])
    def test_cap_exceeded(self, files, capsys, command):
        game, sigma, tau, pivot = stubborn_witness_files(files, 1, 4)
        argv = {
            "quality": ["quality", game, sigma],
            "deviation-prob": ["deviation-prob", game, sigma, tau, "--start", pivot],
            "simulate": [
                "simulate", game, sigma, tau, "--start", pivot, "--deviations",
                "--samples", "10",
            ],
        }[command]
        code, out, err = run(capsys, *argv, "--cap", "4")
        assert code == 3
        assert out == ""
        assert "policy enumeration needs 16 cases, cap is 4" in err
        code, _, _ = run(capsys, *argv, "--cap", "16")
        assert code == 0


def count_tables(monkeypatch):
    """Count the one-player tables built, per (game, fixed strategy)."""
    built = Counter()
    real = resets.mdp_table

    def counting(g, fixed, free_player, cap=2**20):
        key = (
            fixed.player,
            fixed.memory_states,
            fixed.initial,
            tuple(sorted(fixed.update.items())),
            tuple(sorted(fixed.action.items())),
        )
        built[(g, key)] += 1
        return real(g, fixed, free_player, cap)

    monkeypatch.setattr(resets, "mdp_table", counting)
    return built


class TestEachTableBuiltOnce:
    @pytest.mark.parametrize("name", ["g1", "g2", "g3"])
    def test_verify_fixtures(self, files, capsys, monkeypatch, name):
        built = count_tables(monkeypatch)
        code, out, _ = run(capsys, "verify", files[name])
        assert code == 0, out
        assert built and max(built.values()) == 1

    def test_verify_seed4_game(self, capsys, monkeypatch, tmp_path):
        # took about 40 s while every deviation probability rebuilt its table
        game = tmp_path / "seed4.json"
        code, _, _ = run(
            capsys, "gen", "--seed", "4", "--vertices", "7", "--max-priority", "3",
            "--max-out-degree", "3", "--random-fraction", "1/4", "--out", str(game),
        )
        assert code == 0
        built = count_tables(monkeypatch)
        code, out, _ = run(capsys, "verify", str(game))
        assert code == 0, out
        assert out.splitlines() == [
            "PASS value-equations",
            "PASS determinacy",
            "PASS prune-preserves-values",
            "PASS pruned-consistent",
            "PASS one-step-martingale",
            "PASS deviation-bound",
            "PASS reset-optimality",
            "PASS resets-settle",
        ]
        assert max(built.values()) == 1

    @pytest.mark.parametrize("name", ["g3", "stubborn"])
    def test_deviation_prob(self, files, capsys, monkeypatch, name):
        if name == "g3":
            argv = (files["g3"], files["sigma3"], files["tau3"], "--start", "s")
        else:
            game, sigma, tau, pivot = stubborn_witness_files(files, 1, 4)
            argv = (game, sigma, tau, "--start", pivot)
        built = count_tables(monkeypatch)
        code, out, _ = run(capsys, "deviation-prob", *argv)
        assert code == 0, out
        assert list(built.values()) == [1]


def eval_frac(text):
    num, den = text.split("/")
    return int(num) / int(den)


class TestGen:
    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--seed", "9")
        _, out2, _ = run(capsys, "gen", "--seed", "9")
        assert out1 == out2
        _, out3, _ = run(capsys, "gen", "--seed", "10")
        assert out1 != out3

    def test_output_is_valid_game(self, capsys):
        _, out, _ = run(capsys, "gen", "--seed", "5")
        g = parse_game(out)
        assert len(g.vertices) == 5

    def test_flags(self, capsys, tmp_path):
        p = tmp_path / "gen.json"
        code, out, _ = run(
            capsys, "gen", "--seed", "1", "--vertices", "7", "--max-priority", "3",
            "--max-out-degree", "3", "--random-fraction", "1/2", "--out", str(p),
        )
        assert code == 0
        assert "wrote" in out
        g = parse_game(p.read_bytes())
        assert len(g.vertices) == 7
        assert sum(1 for v in g.vertices if v.owner == Owner.RANDOM) == 3

    def test_bad_fraction(self, capsys):
        code, _, err = run(capsys, "gen", "--seed", "1", "--random-fraction", "0.5")
        assert code == 2


# the commands that write --out, each with its other arguments
OUT_COMMANDS = {
    "solve": lambda files: ["solve", files["g3"]],
    "prune": lambda files: ["prune", files["g3"]],
    "reset": lambda files: ["reset", files["g3"], files["sigma3"]],
    "gen": lambda files: ["gen", "--seed", "1", "--vertices", "7"],
}

# runs main with the file size limit below the text's length, so the
# write fails part-way; both settings act on this child process only
SIZE_LIMITED_SCRIPT = """
import resource, signal, sys
from stochparity.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


# runs main in a child process, for targets that need a stdout of its own
MAIN_SCRIPT = "import sys; from stochparity.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("command", OUT_COMMANDS)
class TestOutFiles:
    """--out replaces a file's contents, and writes to devices, FIFOs and pipes."""

    def write(self, files, capsys, command, path):
        return run(capsys, *OUT_COMMANDS[command](files), "--out", str(path))

    def fresh(self, files, capsys, tmp_path, command):
        path = tmp_path / "fresh.json"
        assert self.write(files, capsys, command, path)[0] == 0
        return path.read_bytes()

    def test_shorter_text_over_longer_file(self, files, capsys, tmp_path, command):
        fresh = self.fresh(files, capsys, tmp_path, command)
        path = tmp_path / "old.json"
        path.write_bytes(b"x" * (2 * len(fresh) + 100))
        assert self.write(files, capsys, command, path)[0] == 0
        assert path.read_bytes() == fresh

    def test_symlink_written_through(self, files, capsys, tmp_path, command):
        fresh = self.fresh(files, capsys, tmp_path, command)
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * (2 * len(fresh)))
        link.symlink_to(target)
        assert self.write(files, capsys, command, link)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh

    def test_existing_file_keeps_inode_and_mode(self, files, capsys, tmp_path, command):
        path = tmp_path / "old.json"
        path.write_bytes(b"x" * 10_000)
        path.chmod(0o600)
        before = path.stat()
        assert self.write(files, capsys, command, path)[0] == 0
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
        assert after.st_size < before.st_size

    def test_new_file_mode_follows_umask(self, files, capsys, tmp_path, command):
        path = tmp_path / "new.json"
        old = os.umask(0o002)
        try:
            assert self.write(files, capsys, command, path)[0] == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o002

    def test_dev_null(self, files, capsys, command):
        assert self.write(files, capsys, command, "/dev/null")[0] == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_dev_full(self, files, capsys, command):
        assert self.write(files, capsys, command, "/dev/full") == (
            2, "", "error: [Errno 28] No space left on device\n"
        )

    def test_directory(self, files, capsys, tmp_path, command):
        assert self.write(files, capsys, command, tmp_path) == (
            2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        )

    def test_fifo(self, files, capsys, tmp_path, command):
        fresh = self.fresh(files, capsys, tmp_path, command)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code = self.write(files, capsys, command, fifo)[0]
        reader.join(timeout=30)
        assert (code, got) == (0, [fresh])

    def test_stdout_pipe(self, files, capsys, tmp_path, command):
        fresh = self.fresh(files, capsys, tmp_path, command)
        child = subprocess.run(
            [sys.executable, "-c", MAIN_SCRIPT,
             *OUT_COMMANDS[command](files), "--out", "/dev/stdout"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout.startswith(fresh)

    def test_failed_write_leaves_no_stale_tail(self, files, capsys, tmp_path, command):
        fresh = self.fresh(files, capsys, tmp_path, command)
        path = tmp_path / "old.json"
        path.write_bytes(b"x" * (2 * len(fresh)))
        limit = len(fresh) // 2
        child = subprocess.run(
            [sys.executable, "-c", SIZE_LIMITED_SCRIPT, str(limit),
             *OUT_COMMANDS[command](files), "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            2, "", "error: [Errno 27] File too large\n"
        )
        # the file was emptied before the write: it holds what fit of the new text
        assert path.read_bytes() == fresh[:limit]


class TestParserBasics:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "stochparity" in capsys.readouterr().out

    def test_console_script(self, files):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from stochparity.cli import entry; entry()", "solve", files["g2"]],
            capture_output=True,
            text=True,
        )
        # argv[0] is the -c script; remaining args reach the parser
        assert proc.returncode == 0
        assert "r=1/2" in proc.stdout


class TestAmbiguousIds:
    """Ids with ',' or '=' would make `v,mem=...` and `reset-pairs=` lines ambiguous."""

    def test_vertex_id(self, capsys, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(ALL_ZERO_GAME.replace('"x"', '"x,y"'))
        sigma = tmp_path / "sigma.json"
        g = parse_game(ALL_ZERO_GAME)
        sigma.write_text(serialize_strategy(memoryless(g, Owner.MAX, {"x": "x"})))
        for command in ("quality", "reset"):
            code, out, err = run(capsys, command, str(game), str(sigma))
            assert (code, out) == (2, "")
            assert "'x,y' must not contain ',' or '='" in err

    @pytest.mark.parametrize("name", ["m=1", "m,1"])
    def test_memory_state(self, files, capsys, tmp_path, name):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(
            serialize_strategy(fx.sigma3()).replace('"m1"', json.dumps(name))
        )
        for command in ("quality", "reset"):
            code, out, err = run(capsys, command, files["g3"], str(sigma))
            assert (code, out) == (2, "")
            assert f"memory state {name!r} must not contain ',' or '='" in err


class TestIdsThatBreakLines:
    """Whitespace splits a `v=...` line or the space-separated `reset-pairs=`
    line, and other unprintable characters hide in it."""

    NAMES = ["a\nb", "a b", "a\tb", "a\u00a0b", "a\x07b", "a\x00b"]

    @pytest.mark.parametrize("vid", NAMES)
    def test_vertex_id(self, capsys, tmp_path, vid):
        game = tmp_path / "game.json"
        game.write_text(ALL_ZERO_GAME.replace('"x"', json.dumps(vid)))
        code, out, err = run(capsys, "solve", str(game))
        assert (code, out) == (2, "")
        assert f"id {vid!r} must not contain whitespace or unprintable characters" in err

    @pytest.mark.parametrize("name", NAMES)
    def test_memory_state(self, files, capsys, tmp_path, name):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(
            serialize_strategy(fx.sigma3()).replace('"m1"', json.dumps(name))
        )
        for command in ("quality", "reset"):
            code, out, err = run(capsys, command, files["g3"], str(sigma))
            assert (code, out) == (2, "")
            assert (
                f"memory state {name!r} must not contain whitespace or "
                "unprintable characters"
            ) in err


class TestOneDeviationChainPerTau:
    @pytest.mark.parametrize("name", ["g1", "g2", "g3"])
    def test_verify(self, files, capsys, monkeypatch, name):
        starts = []
        real = resets._deviation_chain

        def recording(g, sigma, tau, dev, from_vertices):
            starts.append(list(from_vertices))
            return real(g, sigma, tau, dev, from_vertices)

        monkeypatch.setattr(resets, "_deviation_chain", recording)
        code, out, _ = run(capsys, "verify", files[name])
        assert code == 0, out
        vertices = sorted(getattr(fx, name)().vertex_ids)
        assert starts and all(sorted(s) == vertices for s in starts)


COMMANDS = (
    "solve", "check", "prune", "verify", "quality", "lower-value",
    "deviation-prob", "reset", "simulate", "gen",
)
# argv lists that end in argparse: help, version and usage errors; a bare
# command lacks its positionals (gen its required --seed)
PARSER_EXITS = [
    ["--help"],
    [],
    ["nope"],
    ["--version"],
    ["quality", "g", "s", "--bogus"],
    ["solve", "g", "--cap", "x"],
    *([command, "-h"] for command in COMMANDS),
    *([command] for command in COMMANDS),
]


# argv lists that the one-command parser must read as the full parser does:
# abbreviations, --opt=value, --, options before positionals, unknown
# trailing arguments, bad values and -h after positionals
ARGV_CORPUS = [
    ["simulate", "g", "s", "t", "--start", "v", "--samp", "5"],
    ["simulate", "g", "s", "t", "--de", "--start", "v", "--work", "2"],
    ["solve", "g", "--c", "5"],
    ["solve", "g", "--out=o"],
    ["gen", "--seed=3", "--out=o", "--vert", "6"],
    ["prune", "--", "g"],
    ["solve", "g", "--", "--out"],
    ["quality", "--decimal", "--cap", "3", "g", "s"],
    ["reset", "--out", "o", "g", "s"],
    ["check", "g", "s", "extra"],
    ["check", "g", "s", "extra", "--zz"],
    ["verify", "g", "--bogus=1"],
    ["solve", "g", "--ver"],
    ["solve", "g", "--cap", "0"],
    ["reset", "g", "s", "--cap", "x"],
    ["simulate", "g", "s", "t", "--start", "v", "--workers", "0"],
    ["quality", "g", "s", "-h"],
    ["gen", "--seed", "1", "-h"],
    ["lower-value", "g", "s", "--decimal"],
    ["deviation-prob", "g", "s", "t"],
    ["gen", "--seed", "-3"],
    ["reset", "g", "s", "--out"],
]


def parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestOneCommandParser:
    @pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
    def test_same_as_full_parser(self, capsys, argv):
        full = parser_exit(capsys, lambda a: _build_parser().parse_args(a), argv)
        assert parser_exit(capsys, main, argv) == full
        assert full[1] or full[2]

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
    def test_reads_argv_as_full_parser(self, capsys, monkeypatch, argv):
        parsed = []

        def record(args):
            parsed.append(args)
            return 0

        for name, (_, help_, arguments) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, (record, help_, arguments))
        try:
            full = _build_parser().parse_args(argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            full = exc.code, captured.out, captured.err
        got = outcome(capsys, argv)
        if isinstance(full, argparse.Namespace):
            assert (got, parsed) == ((0, "", ""), [full])
        else:
            assert (got, parsed) == (full, [])

    def test_main_builds_only_the_named_command(self, files, capsys, monkeypatch):
        import stochparity.cli as cli

        built = []
        real = cli._build_parser

        def recording(command=None):
            built.append(command)
            return real(command)

        monkeypatch.setattr(cli, "_build_parser", recording)
        assert run(capsys, "solve", files["g1"])[0] == 0
        parser_exit(capsys, main, ["--version"])
        parser_exit(capsys, main, ["nope"])
        assert built == ["solve", None, None]


def outcome(capsys, argv):
    """(exit status, stdout, stderr) of `main(argv)`, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserBuiltOnce:
    def test_repeated_calls_build_no_parser(self, files, capsys, monkeypatch):
        assert run(capsys, "solve", files["g1"])[0] == 0
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "solve", files["g1"])[0] == 0
        assert run(capsys, "solve", files["g1"], "--decimal")[0] == 0
        assert built == []

    def test_swapped_handler_runs_on_a_cached_parser(self, files, capsys, monkeypatch):
        assert run(capsys, "solve", files["g1"])[0] == 0
        parser = cli._build_parser("solve")
        exc = errors.CapExceededError(5, 4)

        def raising(args):
            raise exc

        _, help_, arguments = cli._COMMANDS["solve"]
        monkeypatch.setitem(cli._COMMANDS, "solve", (raising, help_, arguments))
        code, out, err = run(capsys, "solve", files["g1"])
        assert cli._build_parser("solve") is parser
        assert (code, out, err) == (
            TestExitStatus.DOCUMENTED[errors.CapExceededError], "", f"error: {exc}\n"
        )

    def test_nothing_leaks_between_calls(self, files, capsys, monkeypatch):
        # a fixed width, so help wraps alike here and in a fresh interpreter
        monkeypatch.setenv("COLUMNS", "80")
        g = files["g1"]
        play = [files["g3"], files["sigma3"], files["tau3"], "--start", "s",
                "--samples", "300", "--seed", "3"]
        sequence = [
            ["quality", "g", "s", "--bogus"],
            ["solve", "-h"],
            ["--version"],
            ["solve", g, "--decimal"],
            ["simulate", *play, "--deviations"],
            ["solve", g],
            ["simulate", *play],
        ]
        here = [outcome(capsys, argv) for argv in sequence]
        for argv, result in zip(sequence, here):
            alone = subprocess.run(
                [sys.executable, "-c", "from stochparity.cli import entry; entry()",
                 *argv],
                capture_output=True,
                text=True,
            )
            assert result == (alone.returncode, alone.stdout, alone.stderr), argv
        assert [code for code, _, _ in here] == [2, 0, 0, 0, 0, 0, 0]

    def test_help_follows_the_terminal_width(self, capsys, monkeypatch):
        helps = []
        for columns in ("50", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            fresh = cli._build_parser.__wrapped__("solve")
            expected = parser_exit(capsys, fresh.parse_args, ["solve", "-h"])
            assert parser_exit(capsys, main, ["solve", "-h"]) == expected
            helps.append(expected[1])
        assert helps[0] != helps[1]


EXACT_COMMANDS_SCRIPT = """
import sys
import stochparity, stochparity.cli
from stochparity import Owner, memoryless, serialize_game, serialize_strategy
from stochparity import fixtures as fx
d = sys.argv[1]
g1 = fx.g1()
sigma = memoryless(g1, Owner.MAX, {"a": "w", "w": "w", "l": "l"})
open(d + "/g1.json", "w").write(serialize_game(g1))
open(d + "/s1.json", "w").write(serialize_strategy(sigma))
for argv in (
    ["solve", d + "/g1.json", "--out", d + "/sol1.json"],
    ["check", d + "/g1.json", d + "/sol1.json"],
    ["quality", d + "/g1.json", d + "/s1.json"],
    ["verify", d + "/g1.json"],
    ["reset", d + "/g1.json", d + "/s1.json"],
):
    assert stochparity.cli.main(argv) == 0, argv
print("numpy" in sys.modules)
"""


class TestNumpyOnlyForSampling:
    def test_exact_commands_never_import_numpy(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", EXACT_COMMANDS_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_simulate_output_unchanged(self, files, capsys):
        # recorded before numpy was imported lazily
        argv = (files["g3"], files["sigma3"], files["tau3"], "--start", "s")
        code, out, _ = run(
            capsys, "simulate", *argv, "--samples", "2000", "--seed", "7",
            "--workers", "2",
        )
        assert code == 0
        assert json.loads(out) == {
            "estimate": "1739/2000",
            "stderr": "3766127819/500000000000",
            "n": 2000,
            "truncated_count": 0,
            "histogram": {},
        }
        code, out, _ = run(
            capsys, "simulate", *argv, "--samples", "2000", "--seed", "1",
            "--deviations",
        )
        assert code == 0
        assert json.loads(out) == {
            "estimate": "63/250",
            "stderr": "9708140913/1000000000000",
            "n": 2000,
            "truncated_count": 0,
            "histogram": {"4": 504},
        }


class TestExitStatus:
    # README "Command line": 1 check failure, 2 input error, 3 cap
    # exceeded, 4 precondition violated
    DOCUMENTED = {
        errors.GameFormatError: 2,
        errors.GameValidationError: 2,
        errors.StrategyError: 2,
        errors.IllegalPlayError: 2,
        errors.StaleValuesError: 2,
        errors.CapExceededError: 3,
        errors.InconsistentGameError: 4,
        errors.InvalidThresholdError: 4,
        errors.DeterminacyError: 1,
        errors.SimulationError: 1,
        errors.StochparityError: 2,
        OSError: 2,
    }

    def test_every_error_class_is_documented(self):
        package = {
            c
            for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.StochparityError)
        }
        assert package == set(self.DOCUMENTED) - {OSError}

    @pytest.mark.parametrize("cls", list(DOCUMENTED), ids=lambda c: c.__name__)
    def test_status_through_main(self, files, capsys, monkeypatch, cls):
        if cls is errors.GameValidationError:
            exc = cls(["bad vertex"])
        elif cls is errors.CapExceededError:
            exc = cls(5, 4)
        else:
            exc = cls("bad input")

        def raising(args):
            raise exc

        _, help_, arguments = cli._COMMANDS["solve"]
        monkeypatch.setitem(cli._COMMANDS, "solve", (raising, help_, arguments))
        code, out, err = run(capsys, "solve", files["g1"])
        assert code == self.DOCUMENTED[cls]
        assert out == ""
        assert err == f"error: {exc}\n"


def _long_digits_game(field: str) -> str:
    # 5,000-digit numbers are past the interpreter's limit for int()
    digits = "1" * 5000
    priority = digits if field == "priority" else "0"
    prob = f"{digits}/{digits}" if field == "prob" else "1/1"
    return (
        '{"vertices": [{"id": "a", "owner": "random", "priority": %s}], '
        '"edges": [{"from": "a", "to": "a", "prob": "%s"}]}' % (priority, prob)
    )


class TestParserEscapes:
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            _long_digits_game("priority"),
            _long_digits_game("prob"),
            '{"vertices": [{"id": "a", "owner": ["max"], "priority": 0}], '
            '"edges": [{"from": "a", "to": "a"}]}',
            '{"vertices": {"a": "max"}, "edges": []}',
            '{"vertices": [], "edges": "a->a"}',
        ],
        ids=[
            "deep-nesting", "long-integer", "long-prob", "list-owner",
            "object-vertices", "string-edges",
        ],
    )
    def test_game_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "game.json"
        path.write_text(text)
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err) < 200

    def test_strategy_and_solution_files_exit_2(self, files, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
        for command in ("quality", "check"):
            code, out, err = run(capsys, command, files["g3"], str(path))
            assert (code, out) == (2, "")
            assert "nested too deeply" in err


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--samples", "0"),
            ("--workers", "0"),
            ("--horizon", "0"),
            ("--vertices", "0"),
            ("--max-out-degree", "0"),
            ("--max-priority", "-1"),
            ("--cap", "0"),
            ("--cap", "-5"),
            ("--random-fraction", "2/1"),
        ],
    )
    def test_exit_2_without_traceback(self, files, capsys, flag, value):
        if flag in ("--samples", "--workers", "--horizon"):
            argv = ["simulate", files["g3"], files["sigma3"], files["tau3"]]
            argv += ["--start", "s"]
        else:
            argv = ["gen", "--seed", "1"]
        try:
            code = main([*argv, flag, value])
        except SystemExit as exc:  # rejected by argparse
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert flag in captured.err


class TestRationalFormExitsTwo:
    @pytest.mark.parametrize(
        "prob", ["1/2\n", "١/٢"], ids=["trailing-newline", "arabic-indic"]
    )
    def test_game_and_solution_files(self, files, capsys, tmp_path, prob):
        game = {
            "vertices": [
                {"id": "r", "owner": "random", "priority": 1},
                {"id": "w", "owner": "max", "priority": 0},
            ],
            "edges": [
                {"from": "r", "to": "r", "prob": "1/2"},
                {"from": "r", "to": "w", "prob": prob},
                {"from": "w", "to": "w"},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert "malformed rational" in err

        sol = tmp_path / "g2.sol.json"
        assert run(capsys, "solve", files["g2"], "--out", str(sol))[0] == 0
        obj = json.loads(sol.read_text())
        obj["values"]["r"] = prob
        sol.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", files["g2"], str(sol))
        assert (code, out) == (2, "")
        assert "malformed rational" in err


class TestDenominatorPastInt64:
    # t's row has common denominator 2^64 + 1, past numpy's int64 draws
    @pytest.fixture
    def coin(self, tmp_path):
        g = fx.g3()
        p = Fraction(1, 2**64 + 1)
        edges = tuple(
            Edge(e.src, e.dst, p if e.dst == "w" else 1 - p) if e.src == "t" else e
            for e in g.edges
        )
        path = tmp_path / "coin.json"
        path.write_text(serialize_game(GameGraph("G3-coin", g.vertices, edges)))
        return str(path)

    def test_simulate_names_the_vertex(self, files, capsys, coin):
        code, out, err = run(
            capsys, "simulate", coin, files["sigma3"], files["tau3"], "--start", "s",
            "--samples", "10",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: cannot sample Random vertex 't': the common denominator "
            "of its probabilities exceeds 2^63\n"
        )

    def test_commands_without_draws_still_run(self, files, capsys, coin):
        # (s, m0) already deviates, so --deviations stops every play at once
        assert run(capsys, "quality", coin, files["sigma3"])[0] == 0
        code, out, _ = run(
            capsys, "simulate", coin, files["sigma3"], files["tau3"], "--start", "s",
            "--samples", "10", "--deviations",
        )
        assert code == 0
        assert json.loads(out)["histogram"] == {"0": 10}


class TestMalformedWitnessInSolution:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda w: [],
            lambda w: "max",
            lambda w: {"player": "max"},
            lambda w: {**w, "player": "both"},
        ],
        ids=["array", "string", "missing-keys", "bad-player"],
    )
    @pytest.mark.parametrize("field", ["sigma_star", "tau_star"])
    def test_exits_two_with_the_strategy_file_message(
        self, files, capsys, tmp_path, mangle, field
    ):
        sol = tmp_path / "g3.sol.json"
        assert run(capsys, "solve", files["g3"], "--out", str(sol))[0] == 0
        obj = json.loads(sol.read_text())
        obj[field] = witness = mangle(obj[field])
        sol.write_text(json.dumps(obj))
        with pytest.raises(errors.GameFormatError) as want:
            parse_strategy(json.dumps(witness))
        code, out, err = run(capsys, "check", files["g3"], str(sol))
        assert (code, out) == (2, "")
        assert err == f"error: solution file: {field}: {want.value}\n"
