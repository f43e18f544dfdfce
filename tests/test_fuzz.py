"""Property tests: the file parsers fail only with the documented errors."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from stochparity import (
    GameFormatError,
    GameValidationError,
    parse_game,
    parse_solution,
    parse_strategy,
    serialize_game,
    serialize_solution,
    serialize_strategy,
    solve_game,
)
from stochparity import fixtures as fx

PARSERS = (parse_game, parse_strategy, parse_solution)
FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)

# every key the three file formats use, and values close to legal ones
KEYS = [
    "name", "vertices", "edges", "id", "owner", "priority", "from", "to", "prob",
    "player", "memory_states", "initial", "update", "action", "mem", "vertex",
    "next", "move", "values", "sigma_star", "tau_star", "consistent", "m",
]
WORDS = [
    "max", "min", "random", "m0", "m1", "s", "t", "1/2", "0/1", "1/0", "inf", "a,b", "",
]

words = st.sampled_from(WORDS)
keys = st.sampled_from(KEYS) | st.text(max_size=3)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), words, st.text(max_size=4)
)


def nested(max_leaves):
    return st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(keys, kids, max_size=6),
        max_leaves=max_leaves,
    )


json_values = nested(20)
fields = nested(3)
containers = st.lists(scalars, max_size=2) | st.dictionaries(words, scalars, max_size=2)
# mostly legal-looking words, so that checks further down are reached
near_legal = st.one_of(words, words, words, st.integers(-1, 3), containers, fields)


def rows(names):
    row = st.fixed_dictionaries({name: near_legal for name in names})
    return st.lists(row | fields, max_size=4)


# one generator per file format, every required key present, so that
# generated files get past the top-level checks into the deeper ones
game_files = st.fixed_dictionaries(
    {
        "vertices": rows(["id", "owner", "priority"]),
        "edges": rows(["from", "to", "prob"]),
    },
    optional={"name": near_legal},
)
strategy_files = st.fixed_dictionaries(
    {
        "player": near_legal,
        "memory_states": st.lists(near_legal, max_size=3) | fields,
        "initial": near_legal,
        "update": rows(["mem", "vertex", "next"]),
        "action": rows(["mem", "vertex", "move"]),
    }
)
solution_files = st.fixed_dictionaries(
    {
        "values": st.dictionaries(words, near_legal, max_size=3),
        "sigma_star": strategy_files | fields,
        "tau_star": strategy_files | fields,
        "consistent": st.booleans() | fields,
        "m": near_legal,
    }
)

VALID_FILES = [
    serialize_game(fx.g3()),
    serialize_strategy(fx.sigma3()),
    serialize_solution(solve_game(fx.g3())),
]


def parse_all(data) -> None:
    for parse in PARSERS:
        try:
            parse(data)
        except (GameFormatError, GameValidationError):
            pass


@FUZZ
@given(json_values)
def test_any_json(value):
    parse_all(json.dumps(value))


@FUZZ
@given(game_files)
def test_game_documents(doc):
    parse_all(json.dumps(doc))


@FUZZ
@given(strategy_files)
def test_strategy_documents(doc):
    parse_all(json.dumps(doc))


@FUZZ
@given(solution_files)
def test_solution_documents(doc):
    parse_all(json.dumps(doc))


@FUZZ
@given(
    st.sampled_from(VALID_FILES),
    st.integers(0, 10**4),
    st.integers(0, 6),
    st.text(max_size=6),
)
def test_spliced_valid_files(text, at, cut, insert):
    at %= len(text) + 1
    parse_all(text[:at] + insert + text[at + cut :])


@FUZZ
@given(st.binary(max_size=64))
def test_raw_bytes(data):
    parse_all(data)
