"""Every import in the package source is used, and every export exists.

A name counts as used when the module reads it (an ``ast.Name`` anywhere in
the tree) or exports it in ``__all__``.  ``from __future__`` imports are
exempt.  Every name in a module's ``__all__`` must resolve on the imported
module.  Every public function and class is reached by the package, a demo
or the acceptance suite, and so is every public method and property of a
public class, unless it overrides a method of a base class.
"""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pdwave").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


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


def _inherited(base: str, classes: dict) -> set[str]:
    """Attribute names class ``base`` defines: a class of the sources, with those of its
    own bases, or else the builtin of that name (``object`` for any other class)."""
    if base in classes:
        methods, bases = classes[base]
        return methods.union(*(_inherited(b, classes) for b in bases))
    return set(dir(getattr(builtins, base, object)))


def unreferenced_definitions(sources, callers) -> list[str]:
    """Top-level public functions and classes of ``sources``, and public methods and
    properties of those classes, that no ``ast.Name`` or ``ast.Attribute`` in ``callers``
    names; a string in ``__all__`` does not count.  A method that overrides one of a
    base class counts as reached."""
    defined, classes = [], {}
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.append((f"{path.stem}.{node.name}", node.name, ()))
            if isinstance(node, ast.ClassDef):
                methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
                bases = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
                classes[node.name] = methods, bases
                defined += [(f"{path.stem}.{node.name}.{m}", m, bases)
                            for m in sorted(methods) if not m.startswith("_")]
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [full for full, name, bases in defined
            if name not in named and not any(name in _inherited(b, classes) for b in bases)]


def test_every_public_definition_is_reached():
    assert unreferenced_definitions(SOURCES, CALLERS) == []


@pytest.mark.parametrize("source, caller, flagged", [
    ("def lonely():\n    pass\n", "", ["mod.lonely"]),
    ("class Lonely:\n    pass\n", "", ["mod.Lonely"]),
    ('__all__ = ["lonely"]\n\n\ndef lonely():\n    pass\n', 'NAMES = ["lonely"]\n',
     ["mod.lonely"]),
    ("def lonely():\n    pass\n", "run(lonely=1)\n", ["mod.lonely"]),
    ("def used():\n    pass\n", "import mod\n\nmod.used()\n", []),
    ("def used():\n    pass\n", "from mod import used\n\nused()\n", []),
    ("def _private():\n    pass\n\n\nclass Kept:\n    def _helper(self):\n        pass\n",
     "Kept\n", []),
    ("class Kept:\n    def method(self):\n        pass\n", "Kept\n", ["mod.Kept.method"]),
    ("class Kept:\n    @property\n    def size(self):\n        pass\n", "Kept().size\n", []),
    ("class Text(str):\n    def upper(self):\n        pass\n", "Text\n", []),
    ("class Base:\n    def run(self):\n        pass\n\n\nclass Child(Base):\n"
     "    def run(self):\n        pass\n\n    def stop(self):\n        pass\n",
     "Child\nBase\n", ["mod.Base.run", "mod.Child.stop"]),
], ids=["function", "class", "all-strings", "keyword", "attribute", "name", "private-nested",
        "method", "property", "builtin-override", "source-override"])
def test_reach_rule(tmp_path, source, caller, flagged):
    # A name counts only as code that reads it; strings and keywords do not.
    module, user = tmp_path / "mod.py", tmp_path / "user.py"
    module.write_text(source)
    user.write_text(caller)
    assert unreferenced_definitions([module], [module, user]) == flagged
