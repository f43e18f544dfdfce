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
    lazy = stochparity._SAMPLER_NAMES
    assert (imported | lazy) - set(stochparity.__all__) == set()
    # the eager names are bound at import, the sampler's are read from it
    assert set(stochparity.__all__) <= set(vars(stochparity)) | lazy
    for name in lazy:
        assert getattr(stochparity, name) is getattr(stochparity.simulate, name)
    # every name resolves, and a star import binds each to the same object
    namespace = {}
    exec("from stochparity import *", namespace)
    assert {name: namespace[name] for name in stochparity.__all__} == {
        name: getattr(stochparity, name) for name in stochparity.__all__
    }


def test_readme_quick_start_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
