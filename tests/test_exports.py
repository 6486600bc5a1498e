"""The package's public names: ``stem1d.__all__`` against its imports."""

import ast
from pathlib import Path

import stem1d


def _imported_names() -> set[str]:
    tree = ast.parse(Path(stem1d.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_listed_name_resolves_once():
    names = stem1d.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(stem1d, name)] == []


def test_every_public_import_is_listed():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public
    assert sorted(public - set(stem1d.__all__)) == []
