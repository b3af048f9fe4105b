"""Dead-code guard for src/lsrmt, walking syntax trees since no linter is installed.

Only the program counts as a caller: src/ and the non-test files of perfbench/.
A reference from tests/ or perfbench/test_*.py alone keeps nothing alive, so
no code path exists only for the tests.

A string vouches for a name only where it names an attribute: as the
attribute argument of getattr/hasattr/setattr, or as any whole string
constant in perfbench's non-test files (perfbench names the functions it
traces by string).  A string that merely equals a name, such as a CLI target
or a default mode, keeps nothing alive.  A top-level def or class is
referenced when its name appears outside its own definition, in a counted
file, as an identifier, an attribute, an imported name or such a string.  A
non-dunder method or property of a class C is referenced when its name
appears outside its own definition as such a string, or as an attribute in a
module that names C, a subclass of C, or a package function whose return
annotation is C (how an `MCEstimate` reaches the CLI); same-named methods of
unrelated classes do not vouch for each other.  The interpreter calls dunder
methods implicitly, so the guard cannot see those calls: a class may define
only the protocol dunders in PROTOCOL_DUNDERS, each listed with a program line
that exercises it, and any other dunder must be named like a method.  Dunder
bodies are not counted as callers.  A module's imports must each be used in
that module, and so must each import of a module under tests/; package
re-exports in __init__.py and __future__ imports are exempt, and so are the
imports of a tests/ module marked ``# noqa: F401`` (the re-exports of
tests/util.py).  No src/lsrmt import is exempt by marker.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsrmt"
# dunder -> (package file, a line there that makes the interpreter call it)
PROTOCOL_DUNDERS = {
    "__init__": ("verify.py", "checks = _Checks(tol)"),
    "__post_init__": ("verify.py", "RecipeInput(a, b, c, d, (), (), big_n)"),
    "__call__": ("haar.py", "return functional(_haar_batch(rng, count, big_n))"),
    "__getitem__": ("schur_algebra.py", "self[lam] = self[lam] + Fraction(coeff)"),
    "__setitem__": ("schur_algebra.py", "self[lam] = self[lam] + Fraction(coeff)"),
}


def _counted_trees():
    paths = sorted((ROOT / "src").rglob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").rglob("*.py"))
        if not path.name.startswith("test_")
    ]
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _traced(path) -> bool:
    """Whether path is perfbench code, whose string constants all count as references."""
    return "perfbench" in Path(path).parts


def _string_reference(node, traced: bool):
    """The name a string in node vouches for, or None."""
    if traced and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr", "setattr")
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    return None


def _names(node, traced: bool) -> set[str]:
    """Identifiers, attribute names, imported names and vouching strings under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
            if sub.asname:
                out.add(sub.asname)
        elif (string := _string_reference(sub, traced)) is not None:
            out.add(string)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced_definitions(trees, package) -> list[str]:
    """Top-level defs and classes of the package files with no caller in trees."""
    names = {path: _names(tree, _traced(path)) for path, tree in trees.items()}
    unreferenced = []
    for path in package:
        body = trees[path].body
        per_statement = [_names(stmt, _traced(path)) for stmt in body]
        elsewhere = set().union(*(n for p, n in names.items() if p != path))
        for i, stmt in enumerate(body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            in_module = any(stmt.name in n for j, n in enumerate(per_statement) if j != i)
            if not in_module and stmt.name not in elsewhere:
                unreferenced.append(f"{path.name}::{stmt.name}")
    return unreferenced


def test_every_top_level_definition_is_referenced():
    assert _unreferenced_definitions(_counted_trees(), sorted(PACKAGE.glob("*.py"))) == []


def _method_references(tree, skip, traced: bool):
    """(attribute names, vouching strings) in tree outside the nodes in skip."""
    attrs, strings = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif (string := _string_reference(node, traced)) is not None:
            strings.add(string)
        stack.extend(ast.iter_child_nodes(node))
    return attrs, strings


def _unreferenced_methods(trees, package) -> list[str]:
    """Methods of the package's classes, protocol dunders aside, with no caller in trees."""
    classes = {
        stmt.name: (path, stmt)
        for path in package
        for stmt in trees[path].body
        if isinstance(stmt, ast.ClassDef)
    }
    bases = {
        name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
        for name, (_, cls) in classes.items()
    }

    def family(name):
        """name and its subclasses among the package's classes."""
        out = {name}
        while True:
            grown = out | {sub for sub, bs in bases.items() if bs & out}
            if grown == out:
                return out
            out = grown

    dunders = {
        node
        for _, cls in classes.values()
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and _is_dunder(node.name)
    }
    # a class also reaches every module that calls a function declared to return it
    returns = {
        stmt.name: stmt.returns.id
        for path in package
        for stmt in trees[path].body
        if isinstance(stmt, ast.FunctionDef) and isinstance(stmt.returns, ast.Name)
    }
    named = {}
    for path, tree in trees.items():
        ids = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        called = ids | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        named[path] = ids | {returns[f] for f in called & returns.keys()}
    unreferenced = []
    for name, (path, cls) in classes.items():
        relatives = family(name)
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in PROTOCOL_DUNDERS:
                continue
            found = False
            for other, tree in trees.items():
                attrs, strings = _method_references(tree, dunders | {method}, _traced(other))
                if method.name in strings or (
                    method.name in attrs and named[other] & relatives
                ):
                    found = True
                    break
            if not found:
                unreferenced.append(f"{path.name}::{name}.{method.name}")
    return unreferenced


def test_every_method_is_referenced():
    assert _unreferenced_methods(_counted_trees(), sorted(PACKAGE.glob("*.py"))) == []


def test_each_protocol_dunder_has_its_program_line():
    missing = [
        name for name, (module, line) in PROTOCOL_DUNDERS.items()
        if line not in (PACKAGE / module).read_text()
    ]
    assert missing == []


def test_a_dunder_outside_the_protocol_needs_a_caller():
    sources = {
        "src/lsrmt/a.py": (
            "class Box:\n    def __init__(self):\n        pass\n\n"
            "    def __add__(self, other):\n        return self\n\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "src/lsrmt/b.py": "from .a import Box\n\nSIZE = Box().__len__()\n",
    }
    trees = {Path(name): ast.parse(text) for name, text in sources.items()}
    package = [path for path in trees if "lsrmt" in path.parts]
    assert _unreferenced_methods(trees, package) == ["a.py::Box.__add__"]


def test_a_string_that_names_no_attribute_keeps_nothing_alive():
    sources = {
        "src/lsrmt/a.py": (
            "def lonely():\n    pass\n\n\ndef fetched():\n    pass\n\n\n"
            "def traced():\n    pass\n\n\n"
            "class Box:\n    def unread(self):\n        pass\n\n"
            "    def probed(self):\n        pass\n\n"
            "    def shown(self):\n        pass\n\n\n"
            "def make() -> Box:\n    return Box()\n"
        ),
        "src/lsrmt/b.py": (
            "from . import a\n\n"
            'MODES = ("lonely", "unread", "traced")\n'
            'FOUND = getattr(MODES, "fetched", None), hasattr(MODES, "probed")\n'
            "SHOWN = a.make().shown()\n"
        ),
        "perfbench/tracing.py": 'TRACED = [("span", "lsrmt.a", "traced")]\n',
    }
    trees = {Path(name): ast.parse(text) for name, text in sources.items()}
    package = [path for path in trees if "lsrmt" in path.parts]
    assert _unreferenced_definitions(trees, package) == ["a.py::lonely"]
    assert _unreferenced_methods(trees, package) == ["a.py::Box.unread"]


def test_every_import_is_used():
    unused = []
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            if path.parent.name == "tests" and "# noqa: F401" in lines[node.lineno - 1]:
                continue
            unused += [f"{path.parent.name}/{path.name}:{node.lineno}:{name}"
                       for name in bound if name not in used]
    assert unused == []
