"""Every name a module of the package imports is read in that module."""

import ast
import re
from pathlib import Path

import pytest

import treesweep

SOURCES = sorted(p for p in Path(treesweep.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# an import kept for another module to patch says so after the code
EXCUSED = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def unused_imports(source: str) -> list[str]:
    """The names bound by an import of `source` and never read in it, but
    those whose line carries `# noqa: F401` and a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and not EXCUSED.search(lines[alias.lineno - 1]):
                    unused.append(f"{name} (line {alias.lineno})")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("from __future__ import annotations\n", []),
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import (b,\n               c)\nb()\n", ["c (line 2)"]),
    ("from a import b as c\nb\n", ["c (line 1)"]),
    ("from a import b  # noqa: F401\n", ["b (line 1)"]),
    ("from a import b  # noqa: F401  (patched by a test)\n", []),
], ids=["future", "plain", "dotted", "multiline", "alias", "bare-noqa", "noqa-reason"])
def test_unused_import_rule(source, unused):
    assert unused_imports(source) == unused


def package_imports(source: str) -> list[str]:
    """The modules of the package that `source`, a module inside it, imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "treesweep":
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "treesweep"]
    return found


def test_hd_imports_no_module_of_the_package():
    # the descriptor algebra stands alone; trees reach it through the protocol
    hd = Path(treesweep.__file__).parent / "hd.py"
    assert package_imports(hd.read_text()) == []


@pytest.mark.parametrize("source,found", [
    ("from __future__ import annotations\nimport enum\n", []),
    ("from .forest import Forest\n", [".forest"]),
    ("from . import forest\n", ["."]),
    ("import treesweep.forest\n", ["treesweep.forest"]),
    ("from treesweep import forest\n", ["treesweep"]),
], ids=["stdlib", "relative", "package", "absolute", "absolute-from"])
def test_package_import_rule(source, found):
    assert package_imports(source) == found
