"""Every name that a calmkit module, a tool or a test module imports is used in that
module, by an `ast` walk in place of a linter. An import line marked `# noqa: F401` is
exempt: `cli.py` keeps two so that the benchmark's hooks find them, and a `from
__future__` import is a compiler directive, not a name to use.

A second walk finds dead names: every function, class and constant that a calmkit
module defines at module level is read by some module of calmkit, `tools/` or
`perfbench/`. A read from the tests does not count, so no name stays in the package
as API that only its tests use."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "calmkit"
WALKED = sorted([*SRC.rglob("*.py"), *(ROOT / "tools").glob("*.py"),
                 *(ROOT / "tests").glob("*.py")])
# the modules whose reads keep a calmkit name alive: perfbench's tests are not among them
READERS = sorted([*SRC.rglob("*.py"), *(ROOT / "tools").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


# a package module's id is its path in the package, a tool's or a test's its path in the repo
@pytest.mark.parametrize("path", WALKED, ids=lambda p: str(
    p.relative_to(SRC if p.is_relative_to(SRC) else ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .nn import (HELPER_MACS, ROW_BLOCK,\n"
              "                 bind_pass)\n"
              "from .formats import load_tasks  # noqa: F401\n"
              "x = np.zeros(ROW_BLOCK)\n"
              "def f(y: os.PathLike):\n"
              "    return bind_pass\n")
    assert unused_imports(source) == ["HELPER_MACS"]


def defined_names(source: str) -> list[str]:
    """The functions, classes and constants that `source` defines at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def read_names(source: str) -> set[str]:
    """Every name that `source` reads: a loaded name, an attribute, or a name it imports
    from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_defined_name_is_read_outside_the_tests():
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    assert [f"{path.relative_to(SRC)}: {name}" for path in sorted(SRC.rglob("*.py"))
            for name in defined_names(path.read_text()) if name not in read] == []


def test_the_walk_finds_an_unread_name():
    source = ("LIMIT = 3\n"
              "_SEEN: set = set()\n"
              "def used():\n"
              "    return LIMIT\n"
              "def orphan():\n"
              "    return _SEEN\n"
              "class Kept:\n"
              "    pass\n")
    # a reader that imports one name, reads another as an attribute and only rebinds orphan
    reader = "from .mod import used\nkind = mod.Kept\norphan = None\n"
    read = read_names(source) | read_names(reader)
    assert [name for name in defined_names(source) if name not in read] == ["orphan"]
