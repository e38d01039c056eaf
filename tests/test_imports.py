"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rydqudit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_every_module_is_checked():
    assert {"cli.py", "compiler.py", "core.py", "fullspace.py", "metrics.py",
            "propagator.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom typing import Optional, Sequence\nx: Optional[int] = None\n"
    assert _unused_imports(source) == ["Sequence (line 2)", "math (line 1)"]
