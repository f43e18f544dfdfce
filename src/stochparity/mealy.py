"""Finite-memory strategies represented as Mealy machines.

A strategy for one player is a finite set of memory states, an initial
memory, an update function on (memory, vertex) pairs, and an action
function giving the chosen successor at each (memory, vertex) pair the
player controls. The machine reads every vertex of the play, including
the opponent's and Random's: being at vertex v with memory m means v has
not been read yet, so the move taken at v is action(m, v) and the memory
afterwards is update(m, v). A memoryless strategy is the special case of
a single memory state.

Strategy files are JSON::

    {
      "player": "max",
      "memory_states": ["m0", "m1"],
      "initial": "m0",
      "update": [{"mem": "m0", "vertex": "s", "next": "m1"}, ...],
      "action": [{"mem": "m0", "vertex": "s", "move": "t"}, ...]
    }

with memory states sorted and update/action rows sorted by (mem, vertex).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence, Union

from .errors import GameFormatError, IllegalPlayError, StrategyError
from .game import (
    GameGraph,
    Owner,
    PlayPrefix,
    _block,
    _check_unambiguous,
    _decode,
    _indent,
    _quote,
    _require_keys,
)


@dataclass(frozen=True, eq=True)
class MealyStrategy:
    player: Owner
    memory_states: tuple[str, ...]
    initial: str
    update: Mapping[tuple[str, str], str]
    action: Mapping[tuple[str, str], str]

    def step(self, mem: str, vertex: str) -> str:
        """Memory after reading `vertex` in memory `mem`."""
        try:
            return self.update[(mem, vertex)]
        except KeyError:
            raise StrategyError(
                f"update not defined for memory {mem!r} at vertex {vertex!r}"
            ) from None

    def move(self, mem: str, vertex: str) -> str:
        """Successor chosen at `vertex` in memory `mem`."""
        try:
            return self.action[(mem, vertex)]
        except KeyError:
            raise StrategyError(
                f"no action for memory {mem!r} at vertex {vertex!r}"
            ) from None

    def read(self, prefix: Sequence[str]) -> str:
        """Memory reached from the initial state after reading a full prefix."""
        mem = self.initial
        for v in prefix:
            mem = self.step(mem, v)
        return mem


def validate_strategy(g: GameGraph, s: MealyStrategy) -> list[str]:
    """Check that a strategy is well formed and fits the game.

    The update function must be total on memory x vertices with targets
    in the memory set; the action function must be defined exactly on
    memory x (vertices owned by the player) and every move must follow
    an existing edge. Returns every violation, table by table and row
    by row; an empty list means the strategy fits.
    """
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
    vids, succ, update, action = g.by_id, g.successors, s.update, s.action
    for m, v in itertools.filterfalse(
        update.__contains__, itertools.product(s.memory_states, g.vertex_ids)
    ):
        out.append(f"update missing for memory {m!r} at vertex {v!r}")
    for (m, v), nxt in update.items():
        if m not in mems:
            out.append(f"update row uses unknown memory {m!r}")
        if v not in vids:
            out.append(f"update row uses unknown vertex {v!r}")
        if nxt not in mems:
            out.append(f"update target {nxt!r} is not a memory state")
    for m, v in itertools.filterfalse(
        action.__contains__, itertools.product(s.memory_states, sorted(owned))
    ):
        out.append(f"action missing for memory {m!r} at vertex {v!r}")
    for (m, v), w in action.items():
        if m not in mems:
            out.append(f"action row uses unknown memory {m!r}")
        if v not in owned:
            out.append(f"action row at vertex {v!r} not owned by {s.player.value}")
        elif w not in succ[v]:
            out.append(f"action ({m!r}, {v!r}) -> {w!r} is not an edge")
    return out


def memoryless(g: GameGraph, player: Owner, moves: Mapping[str, str]) -> MealyStrategy:
    """Single-memory strategy playing moves[v] at each vertex the player owns."""
    owned = g.owned_by(player)
    missing = [v for v in owned if v not in moves]
    if missing:
        raise StrategyError(f"no move given for owned vertices {missing}")
    mem = "m0"
    update = {(mem, v): mem for v in g.vertex_ids}
    action = {(mem, v): moves[v] for v in owned}
    return MealyStrategy(player, (mem,), mem, update, action)


def count_memoryless(g: GameGraph, player: Owner) -> int:
    n = 1
    for v in g.owned_by(player):
        n *= len(g.successors[v])
    return n


def _memoryless_choices(
    g: GameGraph, player: Owner
) -> tuple[tuple[str, ...], Iterator[tuple[str, ...]]]:
    """The vertices a player owns, and every choice of one successor at each.

    Owned vertices are taken in id order and choices come in
    lexicographic order of successor ids, so the first choice is the
    smallest successor everywhere.
    """
    owned = g.owned_by(player)
    return owned, itertools.product(*(g.successors[v] for v in owned))


def enumerate_memoryless(g: GameGraph, player: Owner) -> Iterator[MealyStrategy]:
    """All memoryless strategies for a player, in `_memoryless_choices` order."""
    owned, choices = _memoryless_choices(g, player)
    for choice in choices:
        yield memoryless(g, player, dict(zip(owned, choice)))


def shift_strategy(sigma: MealyStrategy, prefix: PlayPrefix) -> MealyStrategy:
    """The strategy sigma plays after a prefix has already happened.

    Shifting keeps the machine and moves the initial memory to the state
    reached by reading the whole prefix. Shifting by the empty prefix is
    the identity; shifting a memoryless strategy never changes behavior.
    """
    try:
        mem = sigma.read(prefix)
    except StrategyError as exc:
        raise IllegalPlayError(f"prefix not readable by the machine: {exc}") from exc
    return replace(sigma, initial=mem)


def stubborn_strategy(
    g: GameGraph,
    good: Mapping[str, str],
    bad: Mapping[str, str],
    pivot: str,
    k: int,
) -> MealyStrategy:
    """Play `good` until the pivot vertex is visited for the k-th time, then `bad`.

    Memory states m0..m(k-1) count prior pivot visits, saturating at
    k-1; the switch happens on the k-th arrival at the pivot, so k = 1
    plays `bad` from the start. The two move maps are for Max-owned
    vertices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if pivot not in g.by_id:
        raise StrategyError(f"pivot {pivot!r} is not a vertex")
    mems = tuple(f"m{i}" for i in range(k))
    update = {}
    action = {}
    owned = g.owned_by(Owner.MAX)
    for i, m in enumerate(mems):
        for v in g.vertex_ids:
            bump = min(i + 1, k - 1) if v == pivot else i
            update[(m, v)] = mems[bump]
        for v in owned:
            moves = bad if i == k - 1 else good
            try:
                action[(m, v)] = moves[v]
            except KeyError:
                raise StrategyError(f"no move given for owned vertex {v!r}") from None
    return MealyStrategy(Owner.MAX, mems, mems[0], update, action)


# ---------------------------------------------------------------------------
# file format


def parse_strategy(text: Union[bytes, str]) -> MealyStrategy:
    """Parse a strategy file; fit against a concrete game is checked separately."""
    return _strategy_from_object(_decode(text, "strategy file"))


_STRATEGY_KEYS = frozenset(("player", "memory_states", "initial", "update", "action"))


def _strategy_from_object(obj) -> MealyStrategy:
    """A strategy from its decoded file object, as `parse_strategy` checks it."""
    if not isinstance(obj, dict):
        raise GameFormatError("strategy file: top level must be an object")
    if obj.keys() != _STRATEGY_KEYS:
        _require_keys(obj, _STRATEGY_KEYS, _STRATEGY_KEYS, "strategy file")
    if obj["player"] not in ("max", "min"):
        raise GameFormatError("strategy file: player must be max or min")
    player = Owner.MAX if obj["player"] == "max" else Owner.MIN
    mems = obj["memory_states"]
    if (
        not isinstance(mems, list)
        or not mems
        or not all(isinstance(m, str) and m for m in mems)
    ):
        raise GameFormatError("strategy file: memory_states must be nonempty strings")
    for m in mems:
        _check_unambiguous(m, "strategy file: memory state")
    known = frozenset(mems)
    if len(known) != len(mems):
        raise GameFormatError("strategy file: duplicate memory states")
    initial = obj["initial"]
    if initial not in mems:
        raise GameFormatError("strategy file: initial memory not in memory_states")

    def rows(name: str, value_key: str) -> dict[tuple[str, str], str]:
        table: dict[tuple[str, str], str] = {}
        if not isinstance(obj[name], list):
            raise GameFormatError(f"strategy file: {name} must be an array")
        fields = frozenset(("mem", "vertex", value_key))
        for i, item in enumerate(obj[name]):
            if not isinstance(item, dict):
                raise GameFormatError(f"{name}[{i}]: expected an object")
            if item.keys() != fields:
                _require_keys(item, fields, fields, f"{name}[{i}]")
            m, v, target = item["mem"], item["vertex"], item[value_key]
            if not (isinstance(m, str) and isinstance(v, str) and isinstance(target, str)):
                raise GameFormatError(f"{name}[{i}]: fields must be strings")
            if m not in known:
                raise GameFormatError(f"{name}[{i}]: unknown memory {m!r}")
            table[m, v] = target
            if len(table) == i:  # the row took the place of an earlier one
                raise GameFormatError(f"{name}[{i}]: duplicate row for ({m!r}, {v!r})")
        return table

    update = rows("update", "next")
    if not known.issuperset(update.values()):
        nxt = next(nxt for nxt in update.values() if nxt not in known)
        raise GameFormatError(f"strategy file: update target {nxt!r} unknown")
    action = rows("action", "move")
    return MealyStrategy(player, tuple(sorted(mems)), initial, update, action)


# the strategy object and its rows, written at depth 0
_STRATEGY = (
    '{\n  "player": "%s",\n  "memory_states": %s,\n  "initial": %s,'
    '\n  "update": %s,\n  "action": %s\n}'
)
_UPDATE_ROW = '{\n  "mem": %s,\n  "vertex": %s,\n  "next": %s\n}'
_ACTION_ROW = '{\n  "mem": %s,\n  "vertex": %s,\n  "move": %s\n}'


def serialize_strategy(s: MealyStrategy) -> str:
    """Render a strategy in the canonical file format."""
    return _strategy_text(s, 0) + "\n"


def _strategy_text(s: MealyStrategy, depth: int) -> str:
    """A strategy's file object laid out at `depth`: a file's top level at 0,
    a solution file's witness at 1."""
    return _indent(_STRATEGY, depth) % (
        s.player.value,
        _block([_quote(m) for m in sorted(s.memory_states)], depth + 1),
        _quote(s.initial),
        _table_rows(_UPDATE_ROW, s.update, depth + 1),
        _table_rows(_ACTION_ROW, s.action, depth + 1),
    )


def _table_rows(template: str, table: Mapping[tuple[str, str], str], depth: int) -> str:
    """A table's rows in (mem, vertex) order, as the array at `depth`."""
    if not table:
        return "[]"
    keys, values = zip(*sorted(table.items()))
    mems, places = zip(*keys)
    fields = zip(map(_quote, mems), map(_quote, places), map(_quote, values))
    return _block(list(map(_indent(template, depth + 1).__mod__, fields)), depth)
