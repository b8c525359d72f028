"""The package declares every third-party module it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(package: Path) -> set[str]:
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
        for req in project.get("dependencies", [])
    }


def test_every_import_is_stdlib_self_or_declared():
    allowed = set(sys.stdlib_module_names) | {"cokfluct"} | declared_dependencies()
    undeclared = imported_top_level_modules(ROOT / "src" / "cokfluct") - allowed
    assert not undeclared, f"imported but not in [project] dependencies: {sorted(undeclared)}"
