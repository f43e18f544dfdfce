"""The package's public surface."""

from __future__ import annotations

import ast
from pathlib import Path

import stochparity


def test_every_reexported_name_is_in_all():
    tree = ast.parse(Path(stochparity.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported - set(stochparity.__all__) == set()
    assert set(stochparity.__all__) <= set(vars(stochparity))
