"""No module of the package, other than ``__init__`` (which re-exports),
imports a name it never reads, and no module-level function or class, no
method or property of a class and no instance attribute of the package goes
unread by the package itself, so an import, a helper or a value left behind
by a deleted code path, or kept only for the tests, surfaces here; and
every name the benchmark tracer wraps still exists, so deleting one fails
here."""

import ast
import importlib
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


def _definitions(tree):
    """(name, node) for each module-level function and class of tree, and
    ("Class.name", node) for each method and property of such a class other
    than the dunder methods, which the language calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unread_definitions(sources):
    """(module, name) for each definition of ``_definitions`` in the
    sources (file name -> text) that no module reads: a module-level one by
    a name load or an attribute load, a method or property by an attribute
    load.  An ``__init__`` re-export is not a read, since only a caller
    outside the package would read it."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return sorted((name, qual) for name, tree in trees.items()
                  for qual, node in _definitions(tree)
                  if node.name not in (attrs if "." in qual else names | attrs))


# Read by no module of the package, only by perfbench/tracer.py: it wraps
# recognize_triple (ROADMAP item 3) and keys each verify_hopf input by mult.
READ_BY_THE_BENCHMARK_ONLY = [("hopf.py", "HopfAlgebra.mult"), ("quotients.py", "recognize_triple")]


def test_no_module_level_function_or_class_goes_unread():
    package = pathlib.Path(schemedouble.__file__).parent
    assert unread_definitions({p.name: p.read_text()
                               for p in sorted(package.glob("*.py"))}) == READ_BY_THE_BENCHMARK_ONLY


def test_an_unread_definition_is_reported():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported(): pass\n"
                 "def _helper(): pass\n"
                 "def called(): return _helper()\n"
                 "class Attr: pass\n"
                 "def dead(): pass\n"
                 "class Box:\n"
                 "    def __init__(self): self.kept()\n"
                 "    def kept(self): pass\n"
                 "    @property\n"
                 "    def shown(self): pass\n"
                 "    def unused(self): pass\n"
                 "    @property\n"
                 "    def hidden(self): pass\n"),
        "b.py": "from . import a\nx = a.Attr\ncalled()\nBox().shown\nhidden = 1\nprint(hidden)\n",
    }
    assert unread_definitions(sources) == [
        ("a.py", "Box.hidden"), ("a.py", "Box.unused"), ("a.py", "dead"), ("a.py", "exported")]


def test_an_unread_import_is_reported():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nprint(e)\n")
    assert sorted(_imported(tree)) == [("d", 2), ("e", 2), ("os", 1)]


def unread_attributes(sources):
    """(module, name) for each ``self.<name> = ...`` in the sources (file
    name -> text) that no text of the sources reads as ``.<name>``."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({(name, node.attr) for name, tree in trees.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self"
                   and node.attr not in read})


def test_no_instance_attribute_goes_unread():
    """Only the package's own modules count as readers.  ``witness``, the
    payload of ``NoFactorization``, is for a caller that catches it."""
    package = pathlib.Path(schemedouble.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_attributes(sources) == [("errors.py", "witness")]


def test_an_unread_attribute_is_reported():
    sources = {"a.py": ("class Box:\n"
                        "    def __init__(self, x):\n"
                        "        self.kept = x\n"
                        "        self.stored = x\n"
                        "        self.counted = 0\n"
                        "    def bump(self):\n"
                        "        self.counted += 1\n"),
               "b.py": "box.kept\n"}
    assert unread_attributes(sources) == [("a.py", "counted"), ("a.py", "stored")]


def unresolved_traced_names(tracer_source):
    """(module, qualified name) for each entry of the ``TRACED`` list of the
    benchmark tracer's source that does not resolve in the package; the
    list is read with ``ast``, without importing the tracer."""
    tree = ast.parse(tracer_source)
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    missing = []
    for module, qual in traced:
        obj = importlib.import_module(f"schemedouble.{module}")
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append((module, qual))
    return missing


def test_every_traced_name_resolves_in_the_package():
    tracer = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    assert unresolved_traced_names(tracer.read_text()) == []


def test_an_unresolved_traced_name_is_reported():
    source = ('TRACED = [\n    ("hopf", "verify_hopf"),\n    ("hopf", "HopfAlgebra.gone"),\n'
              '    ("lattice", "intersect"),\n]\n')
    assert unresolved_traced_names(source) == [
        ("hopf", "HopfAlgebra.gone"), ("lattice", "intersect")]
