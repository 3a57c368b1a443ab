"""Every import in the package source is used, and every export exists.

A name counts as used when the module reads it (an ``ast.Name`` anywhere in
the tree) or exports it in ``__all__``.  ``from __future__`` imports are
exempt.  Every name in a module's ``__all__`` must resolve on the imported
module.
"""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pdwave").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads or exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = read | _exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in keep]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_a_leftover_import():
    source = "from .core import Branch, envelope_lag\n\nlag = envelope_lag\n"
    assert unused_imports(source) == ["Branch (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\n") == [
        "np (line 2)"
    ]
    assert unused_imports("from . import core\n") == ["core (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "pdwave" if path.name == "__init__.py" else f"pdwave.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
