"""The package's public names: ``stem1d.__all__`` against its imports, and
no module importing a name it never uses."""

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


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports (outside ``__future__``) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(Path(stem1d.__file__).parent.glob("*.py"))
    unused = {
        path.name: names
        for path in modules
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert len(modules) > 1
    assert unused == {}
