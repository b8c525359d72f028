"""The package declares every third-party module it imports, and its command
line leaves the process pool unimported."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

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
    """Names in the [project] dependencies array of pyproject.toml.  The
    array is a list of TOML strings, which is also a Python literal, so it
    is read with ast.literal_eval: tomllib is new in Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    array = project and re.search(r'^dependencies\s*=\s*(\[(?:\s*"[^"]*"\s*,?)*\s*\])', project.group(1), re.M)
    assert array, "pyproject.toml needs a [project] dependencies array of strings"
    return {
        re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
        for req in ast.literal_eval(array.group(1))
    }


def test_every_import_is_stdlib_self_or_declared():
    allowed = set(sys.stdlib_module_names) | {"cokfluct"} | declared_dependencies()
    undeclared = imported_top_level_modules(ROOT / "src" / "cokfluct") - allowed
    assert not undeclared, f"imported but not in [project] dependencies: {sorted(undeclared)}"


def test_cli_import_leaves_out_the_process_pool():
    # multiprocessing costs 15-22 ms of import time; only a pool run needs it
    code = (
        "import sys, cokfluct.cli; "
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
