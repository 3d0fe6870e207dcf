"""Every module of the package uses each name it imports, and every private name it defines.

``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "glsmooth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level or nested import that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    assert unused_imports("from dataclasses import asdict, replace\nasdict\n") == [
        "line 1: replace"
    ]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private names (one leading underscore) a module binds, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def names_read(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_the_check_sees_an_unread_private_name():
    source = "_used = 1\n_unused, x = 2, 3\ndef _dead():\n    pass\nprint(_used)\n"
    assert private_definitions(source) == {"_used": 1, "_unused": 2, "_dead": 3}
    assert private_definitions(source).keys() - names_read(source) == {"_unused", "_dead"}


def test_package_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, sources.values()))
    unread = [
        f"{module} line {line}: {name}"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    ]
    assert unread == []


def test_every_field_kind_has_a_reader():
    from glsmooth import dataset, fileio, training

    named = {
        *training._EXAMPLE_FIELDS.values(),
        *dataset._REQUIRED_FIELDS.values(),
        *dataset._REPORT_FIELDS.values(),
    }
    assert sorted(fileio.FIELD_KINDS.keys() - named) == []
