"""Every name that a calmkit module imports is used in that module, by an `ast` walk in
place of a linter. An import line marked `# noqa: F401` is exempt: `cli.py` keeps two so
that the benchmark's hooks find them, and a `from __future__` import is a compiler
directive, not a name to use."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "calmkit"


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


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
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
