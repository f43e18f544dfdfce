"""The file layer against plain references.

Each writer is checked against `json.dumps(obj, indent=2) + "\\n"` on an
object built here, and the validators against the Fraction-based and
loop-based checks they replace, kept below as references.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from stochparity import (
    Edge,
    GameGraph,
    GameValidationError,
    MealyStrategy,
    Owner,
    Vertex,
    memoryless,
    parse_game,
    random_game,
    serialize_game,
    serialize_solution,
    serialize_strategy,
    solve_game,
    stubborn_strategy,
    validate_game,
    validate_strategy,
)
from stochparity import fixtures as fx

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)


# ---------------------------------------------------------------------------
# reference writers: the file objects, dumped by json


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def rational(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def game_object(g: GameGraph) -> dict:
    obj: dict = {"name": g.name} if g.name else {}
    obj["vertices"] = [
        {"id": v.id, "owner": v.owner.value, "priority": v.priority} for v in g.vertices
    ]
    obj["edges"] = [
        {"from": e.src, "to": e.dst, **({} if e.prob is None else {"prob": rational(e.prob)})}
        for e in g.edges
    ]
    return obj


def strategy_object(s: MealyStrategy) -> dict:
    return {
        "player": s.player.value,
        "memory_states": sorted(s.memory_states),
        "initial": s.initial,
        "update": [{"mem": m, "vertex": v, "next": s.update[m, v]} for m, v in sorted(s.update)],
        "action": [{"mem": m, "vertex": v, "move": s.action[m, v]} for m, v in sorted(s.action)],
    }


def solution_object(sol) -> dict:
    return {
        "values": {v: rational(x) for v, x in sorted(sol.values.items())},
        "sigma_star": strategy_object(sol.sigma_star),
        "tau_star": strategy_object(sol.tau_star),
        "consistent": sol.consistent,
        "m": "inf" if sol.m == math.inf else rational(sol.m),
    }


def assert_written_as_json(g: GameGraph) -> None:
    """Every writer on g, its solution and a stubborn strategy of it."""
    assert serialize_game(g) == dumps(game_object(g))
    sol = solve_game(g)
    assert serialize_solution(sol) == dumps(solution_object(sol))
    for s in (sol.sigma_star, sol.tau_star):
        assert serialize_strategy(s) == dumps(strategy_object(s))
    good = {v: sol.sigma_star.move("m0", v) for v in g.owned_by(Owner.MAX)}
    bad = {v: g.successors[v][-1] for v in good}
    for k in (1, 3):
        s = stubborn_strategy(g, good, bad, g.vertex_ids[0], k)
        assert serialize_strategy(s) == dumps(strategy_object(s))


def renamed(g: GameGraph, names: list[str]) -> GameGraph:
    new = dict(zip(g.vertex_ids, names))
    return GameGraph(
        g.name,
        tuple(Vertex(new[v.id], v.owner, v.priority) for v in g.vertices),
        tuple(Edge(new[e.src], new[e.dst], e.prob) for e in g.edges),
    )


games = st.builds(
    random_game,
    seed=st.integers(0, 10**6),
    n_vertices=st.integers(1, 6),
    max_priority=st.integers(0, 4),
    max_out_degree=st.integers(1, 3),
    random_vertex_fraction=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)]),
)
# quotes, backslashes, control and non-ASCII characters, astral ones included
odd_text = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", " ", "\U0001f600", "a", "/"]),
    min_size=1,
    max_size=4,
)


class TestWriters:
    @PROPERTY
    @given(games)
    def test_generated_games(self, g):
        assert_written_as_json(g)

    @PROPERTY
    @given(games, st.data())
    def test_ids_needing_escapes(self, g, data):
        names = data.draw(st.lists(odd_text, min_size=len(g.vertices),
                                   max_size=len(g.vertices), unique=True))
        assert_written_as_json(renamed(g, names))

    @PROPERTY
    @given(odd_text)
    def test_name_needing_escapes(self, name):
        g = fx.g2()
        g = GameGraph(name, g.vertices, g.edges)
        assert serialize_game(g) == dumps(game_object(g))

    def test_unnamed_game(self):
        g = GameGraph("", fx.g3().vertices, fx.g3().edges)
        text = serialize_game(g)
        assert '"name"' not in text
        assert text == dumps(game_object(g))

    def test_empty_action_list(self):
        # a Min witness on a game without Min vertices has no action rows
        g = fx.g2()
        assert not g.owned_by(Owner.MIN)
        tau = memoryless(g, Owner.MIN, {})
        assert serialize_strategy(tau).count('"action": []') == 1
        assert serialize_strategy(tau) == dumps(strategy_object(tau))
        sol = solve_game(g)
        assert serialize_solution(sol) == dumps(solution_object(sol))

    def test_fixtures_and_empty_game(self):
        for g in (fx.g1(), fx.g2(), fx.g3(), GameGraph("", (), ())):
            assert serialize_game(g) == dumps(game_object(g))
        for s in (fx.sigma3(), fx.stubborn3(2), fx.trivial_min(fx.g3())):
            assert serialize_strategy(s) == dumps(strategy_object(s))


# ---------------------------------------------------------------------------
# reference validators: the Fraction-based and loop-based checks


def reference_validate_game(g: GameGraph) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for v in g.vertices:
        if v.id in seen:
            out.append(f"duplicate vertex id {v.id!r}")
        seen.add(v.id)
        if not isinstance(v.priority, int) or v.priority < 0:
            out.append(f"vertex {v.id!r}: priority must be a nonnegative integer")
        if not isinstance(v.owner, Owner):
            out.append(f"vertex {v.id!r}: unknown owner {v.owner!r}")
    seen_edges: set[tuple[str, str]] = set()
    for e in g.edges:
        if e.src not in seen:
            out.append(f"edge ({e.src!r}, {e.dst!r}): unknown source vertex")
            continue
        if e.dst not in seen:
            out.append(f"edge ({e.src!r}, {e.dst!r}): unknown target vertex")
        if (e.src, e.dst) in seen_edges:
            out.append(f"duplicate edge ({e.src!r}, {e.dst!r})")
        seen_edges.add((e.src, e.dst))
        if g.by_id[e.src].owner is Owner.RANDOM:
            if e.prob is None:
                out.append(f"edge ({e.src!r}, {e.dst!r}): Random edge missing prob")
            elif not (0 < e.prob <= 1):
                out.append(f"edge ({e.src!r}, {e.dst!r}): prob {e.prob} outside (0, 1]")
        elif e.prob is not None:
            out.append(f"edge ({e.src!r}, {e.dst!r}): prob on a controlled edge")
    for vid, v in g.by_id.items():
        row = g.out_edges[vid]
        if not row:
            out.append(f"vertex {vid!r}: no outgoing edge")
        elif v.owner is Owner.RANDOM and all(e.prob is not None for e in row):
            total = sum(e.prob for e in row)
            if total != 1:
                out.append(f"vertex {vid!r}: probability row sum {total} != 1")
    return out


def reference_validate_strategy(g: GameGraph, s: MealyStrategy) -> list[str]:
    out: list[str] = []
    if s.player not in (Owner.MAX, Owner.MIN):
        out.append(f"player must be max or min, got {s.player!r}")
    mems = set(s.memory_states)
    if not mems:
        out.append("no memory states")
    if len(mems) != len(s.memory_states):
        out.append("duplicate memory states")
    if s.initial not in mems:
        out.append(f"initial memory {s.initial!r} not among memory states")
    owned = set(g.owned_by(s.player)) if s.player in (Owner.MAX, Owner.MIN) else set()
    vids = set(g.vertex_ids)
    for m in s.memory_states:
        for v in g.vertex_ids:
            if (m, v) not in s.update:
                out.append(f"update missing for memory {m!r} at vertex {v!r}")
    for (m, v), nxt in s.update.items():
        if m not in mems:
            out.append(f"update row uses unknown memory {m!r}")
        if v not in vids:
            out.append(f"update row uses unknown vertex {v!r}")
        if nxt not in mems:
            out.append(f"update target {nxt!r} is not a memory state")
    for m in s.memory_states:
        for v in sorted(owned):
            if (m, v) not in s.action:
                out.append(f"action missing for memory {m!r} at vertex {v!r}")
    for (m, v), w in s.action.items():
        if m not in mems:
            out.append(f"action row uses unknown memory {m!r}")
        if v not in owned:
            out.append(f"action row at vertex {v!r} not owned by {s.player.value}")
        elif not g.has_edge(v, w):
            out.append(f"action ({m!r}, {v!r}) -> {w!r} is not an edge")
    return out


BIG = 2**64 + 1
# probabilities outside (0, 1], at the ends of it, and past 2^64
WILD = [(0, 3), (5, 5), (7, 3), (-1, 3), (-2, 2), (1, BIG), (BIG, BIG), (BIG + 1, BIG)]
GAME_FAULTS = (
    "negative-priority", "duplicate-id", "unknown-target", "unknown-source",
    "duplicate-edge", "dead-end", "prob-on-controlled", "missing-prob", "wild-prob",
    "row-off",
)


@st.composite
def game_specs(draw):
    """A game as a GameGraph and as a file: a valid one with 0 to 2 faults.

    Random rows cut a denominator into parts, written in lowest terms or
    not, so that rows sum to 1 exactly, some only in exact arithmetic
    (thirds, denominators past 2^64).
    """
    ids = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    vertices = [[vid, draw(st.sampled_from(list(Owner))), draw(st.integers(0, 3))] for vid in ids]
    edges = []
    for vid, owner, _ in vertices:
        targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        probs = [None] * len(targets)
        if owner is Owner.RANDOM:
            den = draw(st.sampled_from([3, 6, 16, 2**64, BIG]))
            cuts = draw(st.sets(st.integers(1, den - 1), min_size=len(targets) - 1,
                                max_size=len(targets) - 1))
            bounds = [0, *sorted(cuts), den]
            scale = draw(st.sampled_from([1, 2]))
            probs = [((hi - lo) * scale, den * scale) for lo, hi in zip(bounds, bounds[1:])]
        edges += [[vid, t, p] for t, p in zip(targets, probs)]

    def some_edge(weighted: bool = False) -> list:
        # with `weighted`, an edge that has a prob when there is one
        pool = [e for e in edges if e[2] is not None] if weighted else []
        pool = pool or edges
        return pool[draw(st.integers(0, len(pool) - 1))]

    for fault in draw(st.lists(st.sampled_from(GAME_FAULTS), max_size=2)):
        if not edges:
            break
        if fault == "negative-priority":
            vertices[-1][2] = -1
        elif fault == "duplicate-id":
            vertices.append([ids[0], draw(st.sampled_from(list(Owner))), 0])
        elif fault == "unknown-target":
            some_edge()[1] = "zz"
        elif fault == "unknown-source":
            edges.append(["zz", ids[0], None])
        elif fault == "duplicate-edge":
            edges.append(list(some_edge()))
        elif fault == "dead-end":
            edges = [e for e in edges if e[0] != ids[-1]]
        elif fault == "prob-on-controlled":
            some_edge()[2] = (1, 1)
        elif fault == "missing-prob":
            some_edge(weighted=True)[2] = None
        elif fault == "wild-prob":
            some_edge(weighted=True)[2] = draw(st.sampled_from(WILD))
        elif fault == "row-off":
            edge = some_edge(weighted=True)
            if edge[2] is not None:
                edge[2] = (edge[2][0] + 1, edge[2][1])

    graph = GameGraph(
        "",
        tuple(Vertex(*v) for v in vertices),
        tuple(Edge(s, t, None if p is None else Fraction(*p)) for s, t, p in edges),
    )
    text = json.dumps({
        "vertices": [{"id": v, "owner": o.value, "priority": p} for v, o, p in vertices],
        "edges": [
            {"from": s, "to": t, **({} if p is None else {"prob": "%d/%d" % p})}
            for s, t, p in edges
        ],
    })
    return graph, text


MUTATIONS = (
    "drop-update", "drop-action", "unknown-mem-row", "unknown-vertex-row",
    "unknown-target", "unowned-action", "not-an-edge", "duplicate-mem",
    "no-mems", "bad-initial", "other-player",
    # faults that keep the number of rows
    "renamed-update-mem", "renamed-action-mem", "moved-action",
)


@st.composite
def strategy_cases(draw):
    """A game and a strategy on it: a fitting one with 0 to 2 faults."""
    g = draw(st.sampled_from([fx.g1(), fx.g2(), fx.g3()]) | games)
    base = (
        draw(st.sampled_from([fx.sigma3(), fx.stubborn3(2), fx.trivial_min(g)]))
        if g == fx.g3()
        else memoryless(g, Owner.MAX, {v: g.successors[v][0] for v in g.owned_by(Owner.MAX)})
    )
    player, mems, initial = base.player, list(base.memory_states), base.initial
    update, action = dict(base.update), dict(base.action)
    m0 = mems[0]
    for fault in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        if fault == "drop-update" and update:
            del update[draw(st.sampled_from(sorted(update)))]
        elif fault == "drop-action" and action:
            del action[draw(st.sampled_from(sorted(action)))]
        elif fault == "unknown-mem-row":
            update["m9", g.vertex_ids[0]] = m0
        elif fault == "unknown-vertex-row":
            update[m0, "zz"] = m0
        elif fault == "unknown-target" and update:
            update[draw(st.sampled_from(sorted(update)))] = "m9"
        elif fault == "unowned-action":
            action[m0, g.vertex_ids[-1]] = g.successors[g.vertex_ids[-1]][0]
        elif fault == "not-an-edge" and action:
            action[draw(st.sampled_from(sorted(action)))] = "zz"
        elif fault == "duplicate-mem":
            mems.append(m0)
        elif fault == "no-mems":
            mems = []
        elif fault == "bad-initial":
            initial = "m9"
        elif fault == "other-player":
            player = draw(st.sampled_from([Owner.MIN, Owner.RANDOM]))
        elif fault in ("renamed-update-mem", "renamed-action-mem"):
            table = update if fault == "renamed-update-mem" else action
            if table:
                (m, v) = draw(st.sampled_from(sorted(table)))
                table["m9", v] = table.pop((m, v))
        elif fault == "moved-action":
            others = [v for v in g.vertex_ids if g.owner(v) is not base.player]
            if action and others:
                m, _ = draw(st.sampled_from(sorted(action)))
                del action[m, _]
                u = draw(st.sampled_from(others))
                action[m, u] = g.successors[u][0]
    return g, MealyStrategy(player, tuple(mems), initial, update, action)


class TestValidators:
    @PROPERTY
    @given(game_specs())
    def test_validate_game_matches_reference(self, spec):
        graph, _ = spec
        assert validate_game(graph) == reference_validate_game(graph)

    @PROPERTY
    @given(game_specs())
    def test_parse_game_accepts_exactly_the_valid(self, spec):
        graph, text = spec
        want = reference_validate_game(graph)
        if want:
            with pytest.raises(GameValidationError) as got:
                parse_game(text)
            assert got.value.violations == want
        else:
            assert parse_game(text) == graph

    @pytest.mark.parametrize("num,den", WILD + [(2, 4), (2 * BIG, 4 * BIG)])
    def test_probability_at_and_past_the_ends(self, num, den):
        # alone in its row, and beside its complement to 1
        for row in ([("w", (num, den))], [("w", (num, den)), ("l", (den - num, den))]):
            vertices = [("r", Owner.RANDOM, 0), ("w", Owner.MAX, 0), ("l", Owner.MAX, 1)]
            edges = [("r", t, q) for t, q in row] + [("w", "w", None), ("l", "l", None)]
            graph = GameGraph(
                "",
                tuple(Vertex(*v) for v in vertices),
                tuple(Edge(a, b, q and Fraction(*q)) for a, b, q in edges),
            )
            want = reference_validate_game(graph)
            assert validate_game(graph) == want
            probs = [Fraction(*q) for _, q in row]
            assert bool(want) == (sum(probs) != 1 or not all(0 < q <= 1 for q in probs))
            text = json.dumps({
                "vertices": [{"id": v, "owner": o.value, "priority": q} for v, o, q in vertices],
                "edges": [
                    {"from": a, "to": b, **({"prob": "%d/%d" % q} if q else {})}
                    for a, b, q in edges
                ],
            })
            if want:
                with pytest.raises(GameValidationError) as got:
                    parse_game(text)
                assert got.value.violations == want
            else:
                assert parse_game(text) == graph

    def test_missing_prob_beside_a_full_row(self):
        # the probs present sum to 1, so only the missing one is wrong
        text = json.dumps({
            "vertices": [
                {"id": "r", "owner": "random", "priority": 0},
                {"id": "w", "owner": "max", "priority": 0},
            ],
            "edges": [
                {"from": "r", "to": "r"},
                {"from": "r", "to": "w", "prob": "1/1"},
                {"from": "w", "to": "w"},
            ],
        })
        with pytest.raises(GameValidationError) as got:
            parse_game(text)
        assert got.value.violations == ["edge ('r', 'r'): Random edge missing prob"]

    @pytest.mark.parametrize(
        "owners,probs",
        [
            # the Random copy first, so the controlled one is the id's owner
            ((Owner.RANDOM, Owner.MAX), ((1, 2), (1, 2))),
            ((Owner.RANDOM, Owner.MIN), ((1, 2), (2, 3))),
            # the Random copy last, so it owns the edges
            ((Owner.MAX, Owner.RANDOM), ((1, 2), (1, 2))),
            ((Owner.MIN, Owner.RANDOM), ((1, 3), (1, 3))),
            ((Owner.MAX, Owner.RANDOM), ((1, 2), None)),
            ((Owner.RANDOM, Owner.MAX), ((1, 2), None)),
            ((Owner.RANDOM, Owner.RANDOM), ((1, 4), (5, 4))),
        ],
    )
    def test_duplicate_id_with_two_owners(self, owners, probs):
        # an id listed twice: its edges and its row are checked once, against
        # the owner of the copy listed last, as `by_id` keeps it
        vertices = [("r", owners[0], 0), ("a", Owner.MAX, 0), ("r", owners[1], 1),
                    ("b", Owner.MIN, 1)]
        edges = [("r", t, q) for t, q in zip("ab", probs)] + [("a", "a", None),
                                                             ("b", "b", None)]
        graph = GameGraph(
            "",
            tuple(Vertex(*v) for v in vertices),
            tuple(Edge(s, t, q and Fraction(*q)) for s, t, q in edges),
        )
        assert graph.by_id["r"].owner is owners[1]
        text = json.dumps({
            "vertices": [{"id": v, "owner": o.value, "priority": p} for v, o, p in vertices],
            "edges": [
                {"from": s, "to": t, **({"prob": "%d/%d" % q} if q else {})}
                for s, t, q in edges
            ],
        })
        with pytest.raises(GameValidationError) as got:
            parse_game(text)
        want = reference_validate_game(graph)
        assert "duplicate vertex id 'r'" in want
        assert got.value.violations == validate_game(graph) == want

    def test_exact_sums(self):
        # each row sums to 1 exactly, though not in floating point or in
        # 64-bit integers
        thirds = (Fraction(1, 3),) * 3
        huge = (Fraction(2**64, BIG), Fraction(1, BIG))
        for row in (thirds, huge, (Fraction(1, 10), Fraction(2, 10), Fraction(7, 10))):
            targets = [f"t{i}" for i in range(len(row))]
            g = GameGraph(
                "",
                (Vertex("r", Owner.RANDOM, 0),) + tuple(Vertex(t, Owner.MAX, 0) for t in targets),
                tuple(Edge("r", t, p) for t, p in zip(targets, row))
                + tuple(Edge(t, t) for t in targets),
            )
            assert validate_game(g) == reference_validate_game(g) == []
            assert parse_game(serialize_game(g)) == g

    @PROPERTY
    @given(strategy_cases())
    def test_validate_strategy_matches_reference(self, case):
        g, s = case
        assert validate_strategy(g, s) == reference_validate_strategy(g, s)

    def test_faults_that_keep_the_row_count(self):
        # each table keeps its size, so counting rows cannot find these
        g, sigma = fx.g3(), fx.sigma3()
        moved = dict(sigma.action)
        del moved["m0", "s"]
        moved["m0", "t"] = "s"  # t is Random's, and t -> s is an edge
        renamed = dict(sigma.update)
        renamed["m9", "s"] = renamed.pop(("m0", "s"))
        off_graph = dict(sigma.update)
        off_graph["m0", "zz"] = off_graph.pop(("m0", "s"))
        cases = {
            "action row at vertex 't' not owned by max": replace(sigma, action=moved),
            "action ('m0', 's') -> 'w' is not an edge": replace(
                sigma, action={**sigma.action, ("m0", "s"): "w"}
            ),
            "update row uses unknown memory 'm9'": replace(sigma, update=renamed),
            "update row uses unknown vertex 'zz'": replace(sigma, update=off_graph),
        }
        for message, s in cases.items():
            want = reference_validate_strategy(g, s)
            assert message in want
            assert validate_strategy(g, s) == want
