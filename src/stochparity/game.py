"""Finite stochastic game arenas with parity objectives.

A game graph has vertices owned by Max, Min, or Random. Every vertex
carries a nonnegative integer priority and at least one outgoing edge;
edges out of Random vertices carry exact rational probabilities summing
to one. The winning condition is min-parity: the least priority visited
infinitely often decides the play, and an even priority means Max wins.
This condition only depends on the tail of a play, so the winner of an
ultimately periodic play is decided by its cycle alone.

Game files are JSON with a fixed shape::

    {
      "name": "G3",
      "vertices": [{"id": "s", "owner": "max", "priority": 1}, ...],
      "edges": [{"from": "s", "to": "t"},
                {"from": "t", "to": "w", "prob": "1/2"}, ...]
    }

Serialization is canonical: keys in the order shown, vertices sorted by
id, edges sorted by (from, to), probabilities in lowest terms, and the
name key omitted when the name is empty. Probabilities are rendered as
"num/den" strings; floats never appear.
"""

from __future__ import annotations

import json
import random as _stdrandom
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import GameFormatError, GameValidationError, IllegalPlayError

PlayPrefix = tuple[str, ...]

# ASCII digits only: `\d` would take any Unicode digit
_RATIONAL_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")


class Owner(str, Enum):
    MAX = "max"
    MIN = "min"
    RANDOM = "random"


def _max_wins(priorities: Iterable[int]) -> bool:
    """Min-parity: Max wins iff the least priority seen infinitely often is even."""
    return min(priorities) % 2 == 0


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """Parse a "num/den" string into a Fraction (normalized to lowest terms)."""
    if not isinstance(text, str):
        raise GameFormatError(f"{what}: expected a 'num/den' string, got {text!r}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise GameFormatError(f"{what}: malformed rational {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2))
    except ValueError:  # past the interpreter's digit limit for int()
        raise GameFormatError(f"{what}: rational has too many digits") from None
    if den == 0:
        raise GameFormatError(f"{what}: zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "num/den", denominator always present ("1/1", "0/1")."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Vertex:
    id: str
    owner: Owner
    priority: int


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    prob: Union[Fraction, None] = None


@dataclass(frozen=True)
class GameGraph:
    """Immutable game arena in canonical order.

    Construction sorts vertices by id and edges by (src, dst), so two
    graphs with the same content compare equal regardless of the order
    they were assembled in.
    """

    name: str
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", tuple(sorted(self.vertices, key=lambda v: v.id))
        )
        object.__setattr__(
            self, "edges", tuple(sorted(self.edges, key=lambda e: (e.src, e.dst)))
        )

    @cached_property
    def by_id(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        succ: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.src in succ:
                succ[e.src].append(e.dst)
        return {v: tuple(ws) for v, ws in succ.items()}

    @cached_property
    def distribution(self) -> dict[str, tuple[tuple[str, Fraction], ...]]:
        """Outgoing (target, probability) rows for Random vertices."""
        rows: dict[str, tuple[tuple[str, Fraction], ...]] = {}
        for v in self.vertices:
            if v.owner is Owner.RANDOM:
                rows[v.id] = tuple(
                    (e.dst, e.prob)
                    for e in self.edges
                    if e.src == v.id and e.prob is not None
                )
        return rows

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def owner(self, vid: str) -> Owner:
        return self.by_id[vid].owner

    def priority(self, vid: str) -> int:
        return self.by_id[vid].priority

    def owned_by(self, owner: Owner) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.owner is owner)

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self.successors.get(src, ())


def validate_game(g: GameGraph) -> list[str]:
    """Check structural invariants; return a list of violations (empty = valid).

    Checked: unique vertex ids, nonnegative priorities, edge endpoints
    exist, no duplicate edges, no dead ends, probabilities present
    exactly on Random-owned rows, each in (0, 1], each row summing to 1.
    """
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
        src_owner = g.by_id[e.src].owner if e.src in g.by_id else None
        if src_owner is Owner.RANDOM:
            if e.prob is None:
                out.append(f"edge ({e.src!r}, {e.dst!r}): Random edge missing prob")
            elif not (0 < e.prob <= 1):
                out.append(
                    f"edge ({e.src!r}, {e.dst!r}): prob {e.prob} outside (0, 1]"
                )
        elif e.prob is not None:
            out.append(f"edge ({e.src!r}, {e.dst!r}): prob on a controlled edge")

    for v in g.vertices:
        row = [e for e in g.edges if e.src == v.id]
        if not row:
            out.append(f"vertex {v.id!r}: no outgoing edge")
        elif v.owner is Owner.RANDOM and all(e.prob is not None for e in row):
            total = sum(e.prob for e in row)
            if total != 1:
                out.append(f"vertex {v.id!r}: probability row sum {total} != 1")
    return out


# ---------------------------------------------------------------------------
# file format


_OWNER_NAMES = {o.value: o for o in Owner}


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise GameFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise GameFormatError(f"{where}: missing keys {sorted(missing)}")


def _decode(text: Union[bytes, str], what: str) -> dict:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"{what}: not valid UTF-8 ({exc})") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"{what}: JSON syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError:  # an integer past the interpreter's digit limit
        raise GameFormatError(f"{what}: number has too many digits") from None
    except RecursionError:
        raise GameFormatError(f"{what}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise GameFormatError(f"{what}: top level must be an object")
    return obj


def _check_unambiguous(name: str, what: str) -> None:
    """Reject ',', '=', whitespace and unprintable characters: output lines such
    as `v,mem=q` split on ',' and '=', and `reset-pairs=` on spaces."""
    if "," in name or "=" in name:
        raise GameFormatError(f"{what} {name!r} must not contain ',' or '='")
    if " " in name or not name.isprintable():
        bad = "whitespace or unprintable characters"
        raise GameFormatError(f"{what} {name!r} must not contain {bad}")


def parse_game(text: Union[bytes, str]) -> GameGraph:
    """Parse and validate a game file; raise on syntax or invariant violations."""
    obj = _decode(text, "game file")
    _require_keys(obj, {"name", "vertices", "edges"}, {"vertices", "edges"}, "game file")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise GameFormatError("game file: name must be a string")
    if not isinstance(obj["vertices"], list) or not isinstance(obj["edges"], list):
        raise GameFormatError("game file: vertices and edges must be arrays")

    vertices = []
    for i, item in enumerate(obj["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(item, dict):
            raise GameFormatError(f"{where}: expected an object")
        _require_keys(item, {"id", "owner", "priority"}, {"id", "owner", "priority"}, where)
        vid, owner, pri = item["id"], item["owner"], item["priority"]
        if not isinstance(vid, str) or not vid:
            raise GameFormatError(f"{where}: id must be a nonempty string")
        _check_unambiguous(vid, f"{where}: id")
        if not isinstance(owner, str) or owner not in _OWNER_NAMES:
            raise GameFormatError(f"{where}: owner must be one of max/min/random")
        if isinstance(pri, bool) or not isinstance(pri, int):
            raise GameFormatError(f"{where}: priority must be an integer")
        vertices.append(Vertex(vid, _OWNER_NAMES[owner], pri))

    edges = []
    for i, item in enumerate(obj["edges"]):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise GameFormatError(f"{where}: expected an object")
        _require_keys(item, {"from", "to", "prob"}, {"from", "to"}, where)
        src, dst = item["from"], item["to"]
        if not isinstance(src, str) or not isinstance(dst, str):
            raise GameFormatError(f"{where}: from/to must be strings")
        prob = None
        if "prob" in item:
            prob = parse_rational(item["prob"], f"{where}.prob")
        edges.append(Edge(src, dst, prob))

    g = GameGraph(name, tuple(vertices), tuple(edges))
    violations = validate_game(g)
    if violations:
        raise GameValidationError(violations)
    return g


def serialize_game(g: GameGraph) -> str:
    """Render a game in the canonical file format (deterministic text)."""
    obj: dict = {}
    if g.name:
        obj["name"] = g.name
    obj["vertices"] = [
        {"id": v.id, "owner": v.owner.value, "priority": v.priority}
        for v in g.vertices
    ]
    obj["edges"] = []
    for e in g.edges:
        row: dict = {"from": e.src, "to": e.dst}
        if e.prob is not None:
            row["prob"] = format_rational(e.prob)
        obj["edges"].append(row)
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# plays


@dataclass(frozen=True)
class UltimatelyPeriodicPlay:
    """A play of the form prefix . cycle^omega; the cycle must be nonempty."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))


def check_play_prefix(g: GameGraph, prefix: Sequence[str]) -> None:
    """Raise IllegalPlayError unless every step of the prefix follows an edge."""
    for v in prefix:
        if v not in g.by_id:
            raise IllegalPlayError(f"prefix visits unknown vertex {v!r}")
    for a, b in zip(prefix, prefix[1:]):
        if not g.has_edge(a, b):
            raise IllegalPlayError(f"prefix uses missing edge ({a!r}, {b!r})")


def winner_ultimately_periodic(g: GameGraph, play: UltimatelyPeriodicPlay) -> bool:
    """True iff Max wins the play: least priority on the cycle is even.

    The play must be legal: prefix and cycle follow edges, the prefix
    connects to the cycle, and the cycle closes on itself.
    """
    if not play.cycle:
        raise IllegalPlayError("cycle must be nonempty")
    check_play_prefix(g, play.prefix + play.cycle)
    if not g.has_edge(play.cycle[-1], play.cycle[0]):
        raise IllegalPlayError(
            f"cycle does not close: missing edge ({play.cycle[-1]!r}, {play.cycle[0]!r})"
        )
    return _max_wins(g.priority(v) for v in play.cycle)


# ---------------------------------------------------------------------------
# constructions


def dual_game(g: GameGraph) -> GameGraph:
    """Swap the two players and shift every priority up by one.

    The dual game's value at each vertex is one minus the original
    value, which lets Min-side analyses reuse Max-side machinery.
    """
    swap = {Owner.MAX: Owner.MIN, Owner.MIN: Owner.MAX, Owner.RANDOM: Owner.RANDOM}
    return GameGraph(
        g.name,
        tuple(Vertex(v.id, swap[v.owner], v.priority + 1) for v in g.vertices),
        g.edges,
    )


def random_game(
    seed: int,
    n_vertices: int,
    max_priority: int,
    max_out_degree: int,
    random_vertex_fraction: Fraction,
) -> GameGraph:
    """Generate a valid game, deterministically from the argument tuple.

    Vertex ids are zero-padded so lexicographic order matches numeric
    order. Probability rows are built by cutting a denominator D <= 16
    into positive parts, so every probability has denominator at most 16
    in lowest terms. Distinct seeds give distinct games with overwhelming
    likelihood; identical arguments give identical games.
    """
    if n_vertices < 1:
        raise ValueError("n_vertices must be >= 1")
    if max_priority < 0:
        raise ValueError("max_priority must be >= 0")
    if max_out_degree < 1:
        raise ValueError("max_out_degree must be >= 1")
    frac = Fraction(random_vertex_fraction)
    if not (0 <= frac <= 1):
        raise ValueError("random_vertex_fraction must be in [0, 1]")

    rng = _stdrandom.Random(
        f"stochparity.random_game|{seed}|{n_vertices}|{max_priority}"
        f"|{max_out_degree}|{frac}"
    )
    width = len(str(n_vertices - 1))
    ids = [f"v{i:0{width}d}" for i in range(n_vertices)]
    n_random = int(n_vertices * frac)
    random_ids = set(rng.sample(ids, n_random))

    vertices = []
    for vid in ids:
        if vid in random_ids:
            owner = Owner.RANDOM
        else:
            owner = rng.choice([Owner.MAX, Owner.MIN])
        vertices.append(Vertex(vid, owner, rng.randint(0, max_priority)))

    edges = []
    for vid in ids:
        d = rng.randint(1, min(max_out_degree, n_vertices))
        targets = sorted(rng.sample(ids, d))
        if vid in random_ids:
            den = rng.randint(max(2, d), 16)
            cuts = sorted(rng.sample(range(1, den), d - 1))
            bounds = [0] + cuts + [den]
            for t, (lo, hi) in zip(targets, zip(bounds, bounds[1:])):
                edges.append(Edge(vid, t, Fraction(hi - lo, den)))
        else:
            for t in targets:
                edges.append(Edge(vid, t))

    return GameGraph(f"r{seed}", tuple(vertices), tuple(edges))
