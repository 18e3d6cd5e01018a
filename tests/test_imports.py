"""No module of the package, other than ``__init__`` (which re-exports),
imports a name it never reads, so an import left behind by a deleted code
path surfaces here."""

import ast
import pathlib

import schemedouble


def _imported(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports():
    out = []
    for path in sorted(pathlib.Path(schemedouble.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out.extend((path.name, line, name) for name, line in _imported(tree)
                   if name not in read)
    return out


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []


def test_an_unread_import_is_reported():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nprint(e)\n")
    assert sorted(_imported(tree)) == [("d", 2), ("e", 2), ("os", 1)]
