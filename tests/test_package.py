"""The public namespace: `oscpot.__all__` against what `__init__` imports."""

import ast
from pathlib import Path

import oscpot


def imported_names() -> list[str]:
    tree = ast.parse(Path(oscpot.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            if node.level == 1 for alias in node.names]


def test_every_public_name_resolves_once():
    assert len(oscpot.__all__) == len(set(oscpot.__all__))
    for name in oscpot.__all__:
        assert getattr(oscpot, name) is not None, name


def test_all_lists_exactly_the_imported_names():
    names = imported_names()
    assert len(names) == len(set(names))
    assert set(oscpot.__all__) == set(names)
