"""The public surface: every module's ``__all__`` matches its public
top-level definitions, the package re-exports only listed names, and
importing it loads only its declared runtime dependencies."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c4containers

PACKAGE_DIR = Path(c4containers.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_matches_public_definitions(name):
    module = importlib.import_module(f"c4containers.{name}")
    listed = getattr(module, "__all__", None)
    assert listed is not None, f"{name} has no __all__"
    assert len(set(listed)) == len(listed), f"{name}.__all__ repeats a name"
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = public_definitions(PACKAGE_DIR / f"{name}.py")
    assert [n for n in defined if n not in listed] == []


def test_package_reexports_are_listed():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"c4containers.{node.module}")
            unlisted += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in getattr(module, "__all__", ())
            ]
    assert unlisted == []


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, since this one may have imported scipy for tests
    code = (
        "import sys, c4containers.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_only_hypergraph_touches_the_hypergraph_memo():
    """H's memo belongs to ``hypergraph``: no other module of the package
    calls ``_derived`` or reads ``_memo``."""
    touches = []
    for name in MODULES + ["__init__"]:
        if name == "hypergraph":
            continue
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
        touches += [
            f"{name}.py:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_derived", "_memo")
        ]
    assert touches == []
