"""Source hygiene: every import in the package modules is used, every
import sits at module level, every top-level definition, method and property
has a caller in the package, one helper freezes arrays, one module packs
pattern bits and sizes its chunks and tables, and one module reads and
writes files."""

import ast
import glob
import os
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "blindgi")
ALL_MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
# __init__.py imports only to export; forward.py re-exports one name on purpose
MODULES = [p for p in ALL_MODULES if os.path.basename(p) != "__init__.py"]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads.

    Lines marked ``# noqa: F401`` and ``from __future__`` imports are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_finds_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy.testing as npt\n"
              "from re import match, sub  # noqa: F401\nfrom json import dumps, loads\n"
              "npt.assert_equal(loads('1'), 1)\n")
    assert unused_imports(source) == [(2, "os"), (5, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def function_local_imports(source: str) -> list[int]:
    """Lines of the import statements inside a function or lambda body."""
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_finds_function_local_import():
    source = ("import os\n\ndef f():\n    from re import match\n    def g():\n"
              "        import json\n    return os, match\n\nclass C:\n"
              "    async def h(self):\n        import sys\n")
    assert function_local_imports(source) == [4, 6, 11]


@pytest.mark.parametrize("path", ALL_MODULES, ids=os.path.basename)
def test_no_function_local_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert function_local_imports(fh.read()) == []


def names_read(node: ast.AST) -> Counter:
    """How often each name occurs under ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes of the modules ``sources``, and the
    methods and properties of those classes (as ``Class.name``), whose name
    occurs nowhere in them outside their own definition.  Dunder methods,
    which Python calls by protocol, and the methods of a class derived from
    one defined elsewhere, which override what that base calls, are skipped;
    dataclass fields are annotated names, not definitions."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum(map(names_read, trees), Counter())
    top = [node for tree in trees for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    classes = {node.name for node in top if isinstance(node, ast.ClassDef)}
    found = []
    for node in top:
        found.append((node.name, node))
        if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes for base in node.bases):
            found += [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return sorted(label for label, node in found
                  if everywhere[node.name] == names_read(node)[node.name])


def test_finds_unreferenced_definition():
    sources = ["def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n\ndef g():\n    return C\n",
               "from a import g\n\ndef h():\n    return a.g()\n",
               "class D:\n    size: int\n\n    def __post_init__(self):\n        self.m()\n\n"
               "    def m(self):\n        return self.size\n\n    @property\n"
               "    def p(self):\n        return self.p\n\n    def q(self):\n        pass\n\n"
               "D(1)\n\nclass E(D):\n    def r(self):\n        pass\n\n"
               "class P(argparse.ArgumentParser):\n    def error(self, message):\n        pass\n"]
    assert unreferenced_definitions(sources) == ["D.p", "D.q", "E", "E.r", "P", "f", "h"]


def test_every_definition_has_a_caller():
    # src/ holds only what a run executes; __init__.py, which only exports,
    # does not count as a caller
    sources = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    assert unreferenced_definitions(sources) == []


def test_only_grid_freezes_arrays():
    # grid.freeze_field is the one place a record's array is made read-only
    callers = set()
    for path in ALL_MODULES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if any(isinstance(node, ast.Attribute) and node.attr == "setflags"
               for node in ast.walk(tree)):
            callers.add(os.path.basename(path))
    assert callers == {"grid.py"}


def test_only_patterns_knows_the_bit_layout():
    # a packed pattern row is read or written through patterns.py alone
    callers = set()
    for path in ALL_MODULES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if any(isinstance(node, ast.Attribute) and node.attr in ("packbits", "unpackbits")
               for node in ast.walk(tree)):
            callers.add(os.path.basename(path))
    assert callers == {"patterns.py"}


# The names that size the packed layout: a row's width, a chunk's length and
# the per-byte tables, with the table helpers patterns.py no longer defines so
# that none comes back in another module.
LAYOUT_NAMES = {"packed_width", "STREAM_CHUNK", "_BYTE_BITS", "_table_indices", "byte_table",
                "byte_table_transpose", "iter_table_indices"}


def layout_names(source: str) -> list[str]:
    """The names of ``LAYOUT_NAMES`` that ``source`` imports or reads."""
    tree = ast.parse(source)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    return sorted(LAYOUT_NAMES & (imported | set(names_read(tree))))


def test_finds_layout_names():
    source = ("from .patterns import STREAM_CHUNK as CHUNK, matvec\nfrom . import patterns\n\n"
              "def f(spec):\n    return patterns.packed_width(spec.grid) * CHUNK\n")
    assert layout_names(source) == ["STREAM_CHUNK", "packed_width"]


def test_only_patterns_sizes_the_layout():
    # chunk buffers and per-byte tables are sized and driven in patterns.py
    # alone; the other modules call matvec, covariance, matvec_covariance
    # and iter_chunks
    found = {}
    for path in ALL_MODULES:
        with open(path, encoding="utf-8") as fh:
            names = layout_names(fh.read())
        if names and os.path.basename(path) != "patterns.py":
            found[os.path.basename(path)] = names
    assert found == {}


def file_calls(source: str) -> list[int]:
    """Lines of the calls of ``open``, ``loadtxt``, ``fromfile`` and
    ``tofile``, bare or as an attribute (``io.open``, ``np.loadtxt``)."""
    names = {"open", "loadtxt", "fromfile", "tofile"}
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) in names
                       or getattr(node.func, "attr", None) in names))


def test_finds_file_calls():
    source = ("import io\nimport numpy as np\n\ndef f(p, a):\n    with open(p) as fh:\n"
              "        a.tofile(fh)\n    return np.loadtxt(p), np.fromfile(p), io.open(p)\n\n"
              "reopen = open\n")
    assert file_calls(source) == [5, 6, 7, 7, 7]


def test_only_arrayio_touches_files():
    # the on-disk formats are read and written through arrayio.py alone
    callers = set()
    for path in ALL_MODULES:
        with open(path, encoding="utf-8") as fh:
            if file_calls(fh.read()):
                callers.add(os.path.basename(path))
    assert callers == {"arrayio.py"}
