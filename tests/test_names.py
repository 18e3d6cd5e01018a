"""Every global name a function of the package reads must exist, so a missing
import surfaces here and not as a NameError on a rarely taken path."""

import builtins
import importlib
import pkgutil
import symtable

import schemedouble


def _function_globals(table):
    """(function name, global name) for each global read in a function
    table or any table nested inside it."""
    if table.get_type() == "function":
        for sym in table.get_symbols():
            if sym.is_global() and sym.is_referenced():
                yield table.get_name(), sym.get_name()
    for child in table.get_children():
        yield from _function_globals(child)


def unresolved_globals():
    out = []
    for info in sorted(pkgutil.iter_modules(schemedouble.__path__), key=lambda m: m.name):
        module = importlib.import_module(f"schemedouble.{info.name}")
        with open(module.__file__) as fh:
            table = symtable.symtable(fh.read(), module.__file__, "exec")
        for func, name in _function_globals(table):
            if not hasattr(module, name) and not hasattr(builtins, name):
                out.append((info.name, func, name))
    return sorted(set(out))


def test_every_global_read_in_a_function_resolves():
    assert unresolved_globals() == []
