"""Every import in the package, its tests and its demos is used, and every export exists.

A name counts as used when the module reads it (an ``ast.Name`` anywhere in
the tree) or exports it in ``__all__``.  ``from __future__`` imports are
exempt.  Every name in a module's ``__all__`` must resolve on the imported
module.  Every public function and class is reached by the package, a demo
or the acceptance suite, and so is every public method and property of a
public class, unless it overrides a method of a base class.  Every
defaulted parameter of a public function or method is passed by some call
there: a default that no caller overrides is an option nothing uses.  No
parameter that two or more such calls reach gets the same literal from all of
them: an option with one value in use is a constant.  Every
public field of a public dataclass is loaded there other than by its own
class's ``__post_init__``, and as ``self.<field>`` only inside its own class,
save the fields kept with a reason in
``_UNREAD_FIELDS_KEPT``: a field that is only validated computes nothing.
Every parameter of a public function or method is read by its body.  Only
``core`` imports ``threading`` or ``contextvars`` or builds a ``Thread``: its
``_both`` is the one place that runs work on a second thread.
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


@pytest.mark.parametrize("path", SOURCES + sorted((ROOT / "tests").glob("*.py"))
                         + sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
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
    properties of those classes, that no code in ``callers`` reads.  A function or class
    is read by a loaded ``ast.Name``, an import or a loaded ``ast.Attribute``; a method
    or property only by a loaded ``ast.Attribute``.  Strings in ``__all__``, keyword
    names and assigned names do not count.  A method that overrides one of a base
    class counts as reached."""
    defined, classes = [], {}
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.append((f"{path.stem}.{node.name}", node.name, None))
            if isinstance(node, ast.ClassDef):
                methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
                bases = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
                classes[node.name] = methods, bases
                defined += [(f"{path.stem}.{node.name}.{m}", m, bases)
                            for m in sorted(methods) if not m.startswith("_")]
    names, attributes = set(), set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)

    def reached(name, bases):
        if bases is None:  # a top-level function or class
            return name in names or name in attributes
        return name in attributes or any(name in _inherited(b, classes) for b in bases)

    return [full for full, name, bases in defined if not reached(name, bases)]


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
    ("def lonely():\n    pass\n", "lonely = 1\n", ["mod.lonely"]),
    ("class Kept:\n    def normalized(self):\n        pass\n", "normalized = Kept()\nnormalized\n",
     ["mod.Kept.normalized"]),
    ("class Text(str):\n    def upper(self):\n        pass\n", "Text\n", []),
    ("class Base:\n    def run(self):\n        pass\n\n\nclass Child(Base):\n"
     "    def run(self):\n        pass\n\n    def stop(self):\n        pass\n",
     "Child\nBase\n", ["mod.Base.run", "mod.Child.stop"]),
], ids=["function", "class", "all-strings", "keyword", "attribute", "name", "private-nested",
        "method", "property", "assigned-name", "local-variable", "builtin-override",
        "source-override"])
def test_reach_rule(tmp_path, source, caller, flagged):
    # A name counts only as code that reads it; strings, keywords and assignments do not,
    # and a bare name, even a loaded one, does not read a method.
    module, user = tmp_path / "mod.py", tmp_path / "user.py"
    module.write_text(source)
    user.write_text(caller)
    assert unreferenced_definitions([module], [module, user]) == flagged


def _public_functions(sources):
    """(name at a call, qualified name, function, count of bound parameters) of each public
    function of ``sources``, and of each public method and ``__init__`` of their public
    classes.  A class's ``__init__`` is called by the class name, and a method's ``self``
    or ``cls`` is bound."""
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name, f"{path.stem}.{node.name}", node, 0
                continue
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and (
                        m.name == "__init__" or not m.name.startswith("_")):
                    static = any(ast.unparse(d) == "staticmethod" for d in m.decorator_list)
                    yield (node.name if m.name == "__init__" else m.name,
                           f"{path.stem}.{node.name}.{m.name}", m, 0 if static else 1)


def _calls(callers) -> dict:
    """The calls in ``callers`` by the name they call, a bare function's or an attribute's."""
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _parameters(fn: ast.FunctionDef, bound: int) -> dict:
    """Each named parameter of ``fn`` past the first ``bound`` with its position in a call,
    or None for a keyword-only one, and its default, or None."""
    positional = fn.args.posonlyargs + fn.args.args
    defaults = [None] * (len(positional) - len(fn.args.defaults)) + fn.args.defaults
    params = {a.arg: (i - bound, default)
              for i, (a, default) in enumerate(zip(positional, defaults)) if i >= bound}
    params.update({a.arg: (None, default)
                   for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)})
    return params


def _spreads(call: ast.Call) -> bool:
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords)


def _passed(call: ast.Call, param: str, position, default):
    """What ``call`` passes as ``param``: its argument, else the default, else None."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    return call.args[position] if position is not None and len(call.args) > position else default


def _passes(call: ast.Call, param: str, position) -> bool:
    return _spreads(call) or _passed(call, param, position, None) is not None


def unpassed_defaults(sources, callers) -> list[str]:
    """Defaulted parameters of the public functions of ``sources``, and of the public
    methods and ``__init__`` of their public classes, that no call of that name in
    ``callers`` passes by keyword or by position.  A call that spreads ``*`` or ``**``
    passes every parameter."""
    calls = _calls(callers)
    return [f"{full}({param})" for name, full, fn, bound in _public_functions(sources)
            for param, (position, default) in _parameters(fn, bound).items()
            if default is not None
            and not any(_passes(call, param, position) for call in calls.get(name, ()))]


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults(SOURCES, CALLERS) == []


@pytest.mark.parametrize("source, caller, flagged", [
    ("def run(a, b=1):\n    pass\n", "run(1)\n", ["mod.run(b)"]),
    ("def run(a, b=1):\n    pass\n", "walk(1, b=2)\n", ["mod.run(b)"]),
    ("def run(a, b=1):\n    pass\n", "run(1)\nrun(a=1, b=2)\n", []),
    ("def run(a, b=1, *, c=2):\n    pass\n", "run(1, 2)\n", ["mod.run(c)"]),
    ("def run(a, b=1, *, c=2):\n    pass\n", "run(*args)\nrun(1, **options)\n", []),
    ("class Box:\n    def __init__(self, size=1):\n        pass\n\n"
     "    def grow(self, by=1, *, twice=False):\n        pass\n",
     "Box(2).grow(3)\n", ["mod.Box.grow(twice)"]),
    ("def _run(a=1):\n    pass\n\n\nclass _Box:\n    def grow(self, by=1):\n        pass\n",
     "", []),
], ids=["unpassed", "other-name", "keyword", "position", "star-call", "class-call", "private"])
def test_default_rule(tmp_path, source, caller, flagged):
    module, user = tmp_path / "mod.py", tmp_path / "user.py"
    module.write_text(source)
    user.write_text(caller)
    assert unpassed_defaults([module], [module, user]) == flagged


def _literal(node) -> bool:
    """A constant, a signed constant or an enum member such as ``Branch.INCOMING``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id[:1].isupper() and node.attr.isupper()
    return isinstance(node, ast.Constant)


def one_value_options(sources, callers) -> list[str]:
    """Parameters of the public functions of ``sources``, and of the public methods and
    ``__init__`` of their public classes, that two or more calls of that name in ``callers``
    reach, every one passing the same literal.  A call that omits a defaulted parameter
    passes its default; a call that spreads ``*`` or ``**`` is skipped."""
    calls, flagged = _calls(callers), []
    for name, full, fn, bound in _public_functions(sources):
        reaching = [call for call in calls.get(name, ()) if not _spreads(call)]
        if len(reaching) < 2:
            continue
        for param, (position, default) in _parameters(fn, bound).items():
            passed = [_passed(call, param, position, default) for call in reaching]
            if all(node is not None and _literal(node) for node in passed) and len(
                    {ast.unparse(node) for node in passed}) == 1:
                flagged.append(f"{full}({param})")
    return flagged


def test_every_option_takes_two_values():
    assert one_value_options(SOURCES, CALLERS) == []


@pytest.mark.parametrize("source, caller, flagged", [
    ("def run(a, b):\n    pass\n", "run(x, 1)\nrun(y, 1)\n", ["mod.run(b)"]),
    ("def run(a, b):\n    pass\n", "run(x, -1.5)\nrun(y, b=-1.5)\n", ["mod.run(b)"]),
    ("def run(a, b):\n    pass\n", "run(x, Branch.INCOMING)\nrun(y, Branch.INCOMING)\n",
     ["mod.run(b)"]),
    ("class Box:\n    def __init__(self, size):\n        pass\n", "Box(2)\nBox(size=2)\n",
     ["mod.Box.__init__(size)"]),
    ("def run(a, b):\n    pass\n", "run(x, 1)\nrun(y, 2)\n", []),
    ("def run(a, b):\n    pass\n", "run(x, 1)\nrun(y, z)\n", []),
    ("def run(a, b):\n    pass\n", "run(x, state.branch)\nrun(y, state.branch)\n", []),
    ("def run(a, b=1):\n    pass\n", "run(x)\nrun(y, b=2)\n", []),
    ("def run(a, b=1):\n    pass\n", "run(x)\nrun(y, b=1)\n", ["mod.run(b)"]),
    ("def run(a, b):\n    pass\n", "run(x, 1)\nrun(*args)\nrun(y, **options)\n", []),
    ("def run(a, b):\n    pass\n", "run(x, 1)\n", []),
    ("def _run(a, b):\n    pass\n", "_run(x, 1)\n_run(y, 1)\n", []),
], ids=["constant", "signed-keyword", "enum-member", "class-call", "two-literals", "variable",
        "attribute", "omitted-default", "default-and-explicit", "star-call", "single-call",
        "private"])
def test_option_rule(tmp_path, source, caller, flagged):
    module, user = tmp_path / "mod.py", tmp_path / "user.py"
    module.write_text(source)
    user.write_text(caller)
    assert one_value_options([module], [module, user]) == flagged


# Fields that nothing outside their own ``__post_init__`` loads, each kept for its reason.
_UNREAD_FIELDS_KEPT = {
    "potential.PotentialSpec.kx": "__post_init__ consumes it into the k(x) spline and its "
                                  "integrals, which k_at, arrival_time and the phase read",
    "potential.SLProblem.kx": "__post_init__ consumes it, with V, into the effective "
                              "potential W = k^2/2 + V, which the solvers read",
    "potential.SLProblem.V": "__post_init__ consumes it into the effective potential "
                             "W = k^2/2 + V, which the solvers read",
    "core.MeasurementEvent.tau": "the type enforces with it that an event exists only on "
                                 "arrival: construction raises unless on_arrival(t, tau)",
}


def _dataclass_fields(sources) -> list[tuple[str, str]]:
    """(qualified name, field) of each public field of each public dataclass."""
    fields = []
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and not node.name.startswith("_") and any(
                    ast.unparse(d).split("(")[0].endswith("dataclass")
                    for d in node.decorator_list)):
                continue
            fields += [(f"{path.stem}.{node.name}.{s.target.id}", s.target.id)
                       for s in node.body if isinstance(s, ast.AnnAssign)
                       and isinstance(s.target, ast.Name) and not s.target.id.startswith("_")]
    return fields


def unread_fields(sources, callers) -> list[str]:
    """Public fields of the public dataclasses of ``sources`` that no code in ``callers``
    loads as an attribute, except as ``self.<field>`` in a ``__post_init__``, which is the
    field's own class validating or consuming it.  ``self.<field>`` in any other method of
    a class reads that class's own field only.  A keyword (``replace(b, size=2)``), a store
    or a string (``getattr``) does not load it."""
    loads, owned = set(), set()
    for path in callers:
        tree = ast.parse(path.read_text())
        owner = {}  # id of each self.<attr> node in a method -> its class, None in __post_init__
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update((id(node), None if fn.name == "__post_init__" else cls.name)
                             for fn in cls.body if isinstance(fn, ast.FunctionDef)
                             for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                             and isinstance(node.value, ast.Name) and node.value.id == "self")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in owner:
                    loads.add(node.attr)
                elif owner[id(node)] is not None:
                    owned.add(f"{path.stem}.{owner[id(node)]}.{node.attr}")
    return [full for full, name in _dataclass_fields(sources)
            if name not in loads and full not in owned]


def test_every_public_field_is_read():
    assert sorted(unread_fields(SOURCES, CALLERS)) == sorted(_UNREAD_FIELDS_KEPT)


_BOX = "from dataclasses import dataclass\n\n\n@dataclass{}\nclass Box:\n    size: int\n{}"
_CHECKED = "\n    def __post_init__(self):\n        assert self.size > 0\n"


@pytest.mark.parametrize("source, caller, flagged", [
    (_BOX.format("", ""), "", ["mod.Box.size"]),
    (_BOX.format("", ""), "Box(1).size\n", []),
    (_BOX.format("(frozen=True)", _CHECKED), "Box(1)\n", ["mod.Box.size"]),
    (_BOX.format("", _CHECKED), "Box(1).size\n", []),
    (_BOX.format("", _CHECKED) + "\n\n@dataclass\nclass Bag:\n    size: int\n" + _CHECKED, "",
     ["mod.Box.size", "mod.Bag.size"]),
    (_BOX.format("", "") + "\n\n@dataclass\nclass Bag:\n    box: Box\n\n"
     "    def __post_init__(self):\n        assert self.box.size > 0\n", "Bag(Box(1)).box\n", []),
    (_BOX.format("", "\n    def area(self):\n        return self.size ** 2\n")
     + "\n\n@dataclass\nclass Bag:\n    size: int\n", "Box(1).area()\n", ["mod.Bag.size"]),
    (_BOX.format("", ""), "replace(Box(1), size=2)\nBox(size=3)\ngetattr(Box(4), 'size')\n"
     "b = Box(5)\nb.size = 6\n", ["mod.Box.size"]),
    (_BOX.format("", "    _cache: int = 0\n"), "Box(1).size\n", []),
    ("class Box:\n    size: int\n", "", []),
    (_BOX.format("", "").replace("class Box", "class _Box"), "", []),
], ids=["unread", "read", "post-init-only", "read-elsewhere", "other-post-init",
        "through-a-field", "read-by-its-own-class", "not-loads",
        "private-field", "not-a-dataclass", "private-class"])
def test_field_rule(tmp_path, source, caller, flagged):
    module, user = tmp_path / "mod.py", tmp_path / "user.py"
    module.write_text(source)
    user.write_text(caller)
    assert unread_fields([module], [module, user]) == flagged


def unread_parameters(sources) -> list[str]:
    """Parameters of the public functions of ``sources``, and of the public methods and
    ``__init__`` of their public classes, that the body never loads, in nested functions
    and lambdas included.  A method's ``self`` or ``cls`` is not a parameter here."""
    unread = []
    for _, full, fn, bound in _public_functions(sources):
        args = fn.args
        params = [a.arg for a in [*args.posonlyargs, *args.args][bound:] + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{full}({param})" for param in params if param not in read]
    return unread


def test_every_parameter_is_read():
    assert unread_parameters(SOURCES) == []


@pytest.mark.parametrize("source, flagged", [
    ("def run(a, b):\n    return a\n", ["mod.run(b)"]),
    ("def run(a, b=1):\n    return a + b\n", []),
    ("def run(a):\n    a = 1\n", ["mod.run(a)"]),
    ("def run(a):\n    return lambda: a\n", []),
    ("def run(*args, key, **options):\n    return key\n", ["mod.run(args)", "mod.run(options)"]),
    ("class Box:\n    def __init__(self, size):\n        pass\n\n"
     "    def grow(self, by):\n        return self\n",
     ["mod.Box.__init__(size)", "mod.Box.grow(by)"]),
    ("class Box:\n    @staticmethod\n    def make(size):\n        pass\n\n"
     "    @classmethod\n    def load(cls, path):\n        return cls(path)\n",
     ["mod.Box.make(size)"]),
    ("def _run(a):\n    pass\n\n\nclass _Box:\n    def grow(self, by):\n        pass\n\n\n"
     "class Box:\n    def _grow(self, by):\n        pass\n", []),
], ids=["unread", "read", "assigned", "lambda", "star-and-keyword", "method", "static-and-class",
        "private"])
def test_parameter_rule(tmp_path, source, flagged):
    module = tmp_path / "mod.py"
    module.write_text(source)
    assert unread_parameters([module]) == flagged


_THREAD_MODULES = {"threading", "contextvars"}


def thread_users(sources) -> list[str]:
    """Imports of ``threading`` or ``contextvars``, and calls of a ``Thread``, in the
    modules of ``sources`` other than ``core``."""
    found = []
    for path in sources:
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names} & _THREAD_MODULES
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module.split(".")[0]} & _THREAD_MODULES
            elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Thread":
                names = {"Thread"}
            else:
                continue
            found += [f"{path.stem}: {name} (line {node.lineno})" for name in sorted(names)]
    return found


def test_only_core_runs_a_thread():
    assert thread_users(SOURCES) == []


@pytest.mark.parametrize("name, source, flagged", [
    ("mod", "import threading\n", ["mod: threading (line 1)"]),
    ("mod", "import contextvars as cv\n", ["mod: contextvars (line 1)"]),
    ("mod", "from threading import Thread\n", ["mod: threading (line 1)"]),
    ("mod", "from . import threading\n", []),
    ("mod", "worker = pool.Thread(target=run)\n", ["mod: Thread (line 1)"]),
    ("mod", "import threadpoolctl\n", []),
    ("core", "import contextvars\nimport threading\n", []),
], ids=["import", "import-as", "from-import", "relative-import", "thread-call", "other-module",
        "core"])
def test_thread_rule(tmp_path, name, source, flagged):
    module = tmp_path / f"{name}.py"
    module.write_text(source)
    assert thread_users([module]) == flagged
