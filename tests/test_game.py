"""Game graph model, JSON format, validation, plays, and generation."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from stochparity import (
    Edge,
    GameFormatError,
    GameGraph,
    GameValidationError,
    IllegalPlayError,
    Owner,
    UltimatelyPeriodicPlay,
    Vertex,
    dual_game,
    format_rational,
    parse_game,
    parse_rational,
    random_game,
    serialize_game,
    validate_game,
    winner_ultimately_periodic,
)
from stochparity import fixtures as fx

# Hand-written file for the coin-flip game; key order, spacing, and the
# non-reduced probability differ from canonical output on purpose.
G2_TEXT = """
{
  "vertices": [
    {"priority": 1, "id": "r", "owner": "random"},
    {"id": "w", "owner": "max", "priority": 0},
    {"id": "l", "owner": "max", "priority": 1}
  ],
  "name": "G2",
  "edges": [
    {"from": "r", "to": "w", "prob": "1/2"},
    {"from": "w", "to": "w"},
    {"from": "r", "to": "l", "prob": "2/4"},
    {"from": "l", "to": "l"}
  ]
}
"""


class TestRationals:
    def test_parse(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("2/4") == Fraction(1, 2)
        assert parse_rational("0/1") == 0
        assert parse_rational("7/7") == 1

    def test_parse_rejects(self):
        for bad in ["", "1/0", "1.5", "a/b", "1 / 2", "3", "+1/2", "1/-2", "0x2/4"]:
            with pytest.raises(GameFormatError):
                parse_rational(bad)

    def test_signs_are_malformed(self):
        # one minus sign before the numerator is all the format allows
        for bad in ["--1/2", "-/2", "-1/-2", "1-/2", "-+1/2"]:
            with pytest.raises(GameFormatError, match="malformed rational"):
                parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(0)) == "0/1"

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            q = Fraction(rng.randrange(0, 50), rng.randrange(1, 50))
            assert parse_rational(format_rational(q)) == q


class TestParse:
    def test_literal_file(self, g2):
        assert parse_game(G2_TEXT) == g2

    def test_prob_normalized(self):
        g = parse_game(G2_TEXT)
        assert dict(g.distribution["r"])["l"] == Fraction(1, 2)

    def test_round_trip_fixtures(self, g1, g2, g3):
        for g in (g1, g2, g3):
            assert parse_game(serialize_game(g)) == g

    def test_serialize_idempotent(self, g3):
        text = serialize_game(g3)
        assert serialize_game(parse_game(text)) == text
        assert text.endswith("\n")

    def test_accepts_bytes(self, g2):
        assert parse_game(serialize_game(g2).encode()) == g2

    def test_round_trip_random(self):
        for seed in range(40):
            g = random_game(seed, 6, 3, 3, Fraction(1, 2))
            assert parse_game(serialize_game(g)) == g

    def test_empty_name_omitted(self):
        g = GameGraph(
            name="",
            vertices=(Vertex("x", Owner.MAX, 0),),
            edges=(Edge("x", "x"),),
        )
        data = json.loads(serialize_game(g))
        assert "name" not in data
        assert parse_game(serialize_game(g)) == g

    def test_syntax_error_reports_position(self):
        with pytest.raises(GameFormatError, match=r"line"):
            parse_game('{"vertices": [,]}')

    def test_not_an_object(self):
        with pytest.raises(GameFormatError):
            parse_game("[1, 2]")

    def test_unknown_key_rejected(self):
        data = json.loads(serialize_game(fx.g1()))
        data["extra"] = 1
        with pytest.raises(GameFormatError, match="extra"):
            parse_game(json.dumps(data))

    def test_unknown_vertex_key_rejected(self):
        data = json.loads(serialize_game(fx.g1()))
        data["vertices"][0]["color"] = "red"
        with pytest.raises(GameFormatError, match="color"):
            parse_game(json.dumps(data))

    def test_missing_field(self):
        data = json.loads(serialize_game(fx.g1()))
        del data["vertices"][0]["priority"]
        with pytest.raises(GameFormatError, match="priority"):
            parse_game(json.dumps(data))

    def test_bad_owner(self):
        data = json.loads(serialize_game(fx.g1()))
        data["vertices"][0]["owner"] = "player1"
        with pytest.raises(GameFormatError, match="owner"):
            parse_game(json.dumps(data))

    def test_bool_priority_rejected(self):
        data = json.loads(serialize_game(fx.g1()))
        data["vertices"][0]["priority"] = True
        with pytest.raises(GameFormatError):
            parse_game(json.dumps(data))

    def test_invalid_game_rejected_on_parse(self):
        data = json.loads(serialize_game(fx.g2()))
        row = next(e for e in data["edges"] if e["from"] == "r" and e["to"] == "w")
        row["prob"] = "1/3"
        with pytest.raises(GameValidationError, match="sum"):
            parse_game(json.dumps(data))


class TestValidate:
    def test_fixtures_clean(self, g1, g2, g3):
        for g in (g1, g2, g3):
            assert validate_game(g) == []

    def test_row_sum(self):
        g = GameGraph(
            "",
            (Vertex("r", Owner.RANDOM, 0), Vertex("w", Owner.MAX, 0)),
            (
                Edge("r", "w", Fraction(2, 5)),
                Edge("r", "r", Fraction(1, 2)),
                Edge("w", "w"),
            ),
        )
        msgs = validate_game(g)
        assert any("sum" in m and "r" in m for m in msgs)

    def test_dead_end(self):
        g = GameGraph(
            "", (Vertex("x", Owner.MAX, 0), Vertex("y", Owner.MIN, 0)), (Edge("x", "y"),)
        )
        msgs = validate_game(g)
        assert any("'y'" in m and "outgoing" in m for m in msgs)

    def test_prob_on_controlled_edge(self):
        g = GameGraph("", (Vertex("x", Owner.MAX, 0),), (Edge("x", "x", Fraction(1)),))
        assert any("prob" in m for m in validate_game(g))

    def test_missing_prob_on_random_edge(self):
        g = GameGraph("", (Vertex("x", Owner.RANDOM, 0),), (Edge("x", "x"),))
        assert any("prob" in m for m in validate_game(g))

    def test_nonpositive_prob(self):
        g = GameGraph("", (Vertex("x", Owner.RANDOM, 0),), (Edge("x", "x", Fraction(0)),))
        assert any("(0, 1]" in m for m in validate_game(g))

    def test_unknown_endpoint(self):
        g = GameGraph("", (Vertex("x", Owner.MAX, 0),), (Edge("x", "z"), Edge("x", "x")))
        msgs = validate_game(g)
        assert any("'z'" in m for m in msgs)

    def test_duplicate_vertex(self):
        g = GameGraph(
            "",
            (Vertex("x", Owner.MAX, 0), Vertex("x", Owner.MIN, 1)),
            (Edge("x", "x"),),
        )
        assert any("duplicate" in m for m in validate_game(g))

    def test_duplicate_edge(self):
        g = GameGraph(
            "", (Vertex("x", Owner.MAX, 0),), (Edge("x", "x"), Edge("x", "x"))
        )
        assert any("duplicate" in m for m in validate_game(g))

    def test_negative_priority(self):
        g = GameGraph("", (Vertex("x", Owner.MAX, -1),), (Edge("x", "x"),))
        assert any("priority" in m for m in validate_game(g))

    def test_every_fault_at_once(self):
        # one fault of every kind, reported in the order vertices, edges,
        # then rows; duplicate ids share one row
        g = GameGraph(
            "",
            (
                Vertex("a", Owner.MAX, 0),
                Vertex("a", Owner.MIN, 1),
                Vertex("d", Owner.MIN, 0),
                Vertex("n", Owner.MAX, -1),
                Vertex("o", "bogus", 0),
                Vertex("r", Owner.RANDOM, 0),
                Vertex("s", Owner.RANDOM, 0),
            ),
            (
                Edge("a", "a"),
                Edge("a", "a"),
                Edge("a", "zz"),
                Edge("n", "a", Fraction(1)),
                Edge("o", "a"),
                Edge("r", "a", Fraction(1, 3)),
                Edge("r", "d", Fraction(1, 3)),
                Edge("s", "a"),
                Edge("s", "s", Fraction(3, 2)),
                Edge("z", "a"),
            ),
        )
        assert validate_game(g) == [
            "duplicate vertex id 'a'",
            "vertex 'n': priority must be a nonnegative integer",
            "vertex 'o': unknown owner 'bogus'",
            "duplicate edge ('a', 'a')",
            "edge ('a', 'zz'): unknown target vertex",
            "edge ('n', 'a'): prob on a controlled edge",
            "edge ('s', 'a'): Random edge missing prob",
            "edge ('s', 's'): prob 3/2 outside (0, 1]",
            "edge ('z', 'a'): unknown source vertex",
            "vertex 'd': no outgoing edge",
            "vertex 'r': probability row sum 2/3 != 1",
        ]
        assert g.distribution == {
            "r": (("a", Fraction(1, 3)), ("d", Fraction(1, 3))),
            "s": (("s", Fraction(3, 2)),),
        }


class TestPlays:
    def test_winner_examples(self, g1, g3):
        win = winner_ultimately_periodic
        assert win(g1, UltimatelyPeriodicPlay(("a",), ("w",))) is True
        assert win(g1, UltimatelyPeriodicPlay(("a",), ("l",))) is False
        assert win(g1, UltimatelyPeriodicPlay((), ("w",))) is True
        # least priority on the cycle s,t is 1, odd, so Max loses
        assert win(g3, UltimatelyPeriodicPlay((), ("s", "t"))) is False
        assert win(g3, UltimatelyPeriodicPlay(("s", "t"), ("w",))) is True

    def test_illegal_plays(self, g1):
        win = winner_ultimately_periodic
        with pytest.raises(IllegalPlayError):
            win(g1, UltimatelyPeriodicPlay((), ("a",)))  # no a->a edge
        with pytest.raises(IllegalPlayError):
            win(g1, UltimatelyPeriodicPlay(("w",), ("l",)))  # no w->l junction
        with pytest.raises(IllegalPlayError):
            win(g1, UltimatelyPeriodicPlay((), ()))  # empty cycle
        with pytest.raises(IllegalPlayError):
            win(g1, UltimatelyPeriodicPlay((), ("zz",)))  # unknown vertex

    def test_prefix_independence(self):
        # The winner never depends on any finite prefix: rotating the cycle
        # into the prefix or dropping the prefix entirely changes nothing.
        rng = random.Random(99)
        checked = 0
        for seed in range(60):
            g = random_game(seed, 5, 3, 3, Fraction(1, 3))
            for _ in range(20):
                start = rng.choice(g.vertex_ids)
                walk = [start]
                for _ in range(12):
                    walk.append(rng.choice(g.successors[walk[-1]]))
                seen: dict[str, int] = {}
                pre, cyc = [], None
                for i, v in enumerate(walk):
                    if v in seen:
                        pre, cyc = walk[: seen[v]], walk[seen[v] : i]
                        break
                    seen[v] = i
                if not cyc:
                    continue
                checked += 1
                p = UltimatelyPeriodicPlay(tuple(pre), tuple(cyc))
                shifted = UltimatelyPeriodicPlay(tuple(pre) + tuple(cyc), tuple(cyc))
                bald = UltimatelyPeriodicPlay((), tuple(cyc))
                w = winner_ultimately_periodic(g, p)
                assert winner_ultimately_periodic(g, shifted) == w
                assert winner_ultimately_periodic(g, bald) == w
        assert checked > 400


class TestDual:
    def test_structure(self, g3):
        d = dual_game(g3)
        assert d.owner("s") == Owner.MIN
        assert d.owner("t") == Owner.RANDOM
        assert d.priority("s") == 2
        assert d.priority("w") == 1
        assert d.edges == g3.edges
        assert dual_game(dual_game(g3)).priority("s") == 3

    def test_involution_on_owners(self, g1):
        dd = dual_game(dual_game(g1))
        assert all(dd.owner(v) == g1.owner(v) for v in g1.vertex_ids)


class TestRandomGame:
    def test_deterministic(self):
        a = random_game(42, 6, 2, 3, Fraction(1, 3))
        b = random_game(42, 6, 2, 3, Fraction(1, 3))
        assert a == b
        assert serialize_game(a) == serialize_game(b)

    def test_seeds_mostly_distinct(self):
        texts = {
            serialize_game(random_game(s, 5, 2, 2, Fraction(1, 3))) for s in range(100)
        }
        assert len(texts) >= 99

    def test_always_valid(self):
        for seed in range(100):
            g = random_game(
                seed, 2 + seed % 6, seed % 4, 1 + seed % 3, Fraction(seed % 4, 6)
            )
            assert validate_game(g) == []

    def test_shape(self):
        g = random_game(7, 9, 2, 3, Fraction(1, 3))
        assert len(g.vertices) == 9
        assert sum(1 for v in g.vertices if v.owner == Owner.RANDOM) == 3
        assert all(0 <= v.priority <= 2 for v in g.vertices)
        assert all(len(g.successors[v]) <= 3 for v in g.vertex_ids)
        for v in g.vertices:
            if v.owner == Owner.RANDOM:
                dist = g.distribution[v.id]
                assert sum(p for _, p in dist) == 1
                assert all(p.denominator <= 16 for _, p in dist)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            random_game(1, 0, 2, 2, Fraction(1, 3))
        with pytest.raises(ValueError):
            random_game(1, 5, -1, 2, Fraction(1, 3))
        with pytest.raises(ValueError):
            random_game(1, 5, 2, 0, Fraction(1, 3))
        with pytest.raises(ValueError):
            random_game(1, 5, 2, 2, Fraction(3, 2))


class TestRationalsAsciiOnly:
    @pytest.mark.parametrize(
        "text",
        ["1/2\n", "١/٢", "1/2\r", "\n1/2", "１/2"],
        ids=["trailing-newline", "arabic-indic", "trailing-cr", "leading-newline", "fullwidth"],
    )
    def test_rejected(self, text):
        with pytest.raises(GameFormatError):
            parse_rational(text)
