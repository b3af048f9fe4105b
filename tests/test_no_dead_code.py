"""Dead-code guard for src/lsrmt, walking syntax trees since no linter is installed.

Only the program counts as a caller: src/ and the non-test files of perfbench/.
A reference from tests/ or perfbench/test_*.py alone keeps nothing alive, so
no code path exists only for the tests.

A top-level def or class is referenced when its name appears outside its own
definition, in a counted file, as an identifier, an attribute, an imported
name or a whole string constant (perfbench names the functions it traces by
string).  A non-dunder method or property of a class C is referenced when its
name appears outside its own definition as a whole string constant, or as an
attribute in a module that names C or a subclass of C; same-named methods of
unrelated classes do not vouch for each other.  Dunder methods are neither
checked nor counted as callers: the interpreter calls them implicitly, so the
guard cannot tell whether they run.  A module's imports must each be used in
that module, and so must each import of a module under tests/; package
re-exports in __init__.py and __future__ imports are exempt, and so are the
imports of a tests/ module marked ``# noqa: F401`` (the re-exports of
tests/util.py).  No src/lsrmt import is exempt by marker.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsrmt"


def _counted_trees():
    paths = sorted((ROOT / "src").rglob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").rglob("*.py"))
        if not path.name.startswith("test_")
    ]
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _names(node) -> set[str]:
    """Identifiers, attribute names, imported names and string constants under node."""
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
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_top_level_definition_is_referenced():
    trees = _counted_trees()
    names = {path: _names(tree) for path, tree in trees.items()}
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = trees[path].body
        per_statement = [_names(stmt) for stmt in body]
        elsewhere = set().union(*(n for p, n in names.items() if p != path))
        for i, stmt in enumerate(body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            in_module = any(stmt.name in n for j, n in enumerate(per_statement) if j != i)
            if not in_module and stmt.name not in elsewhere:
                unreferenced.append(f"{path.name}::{stmt.name}")
    assert unreferenced == []


def _method_references(tree, skip):
    """(attribute names, string constants) in tree outside the nodes in skip."""
    attrs, strings = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return attrs, strings


def test_every_method_is_referenced():
    trees = _counted_trees()
    classes = {
        stmt.name: (path, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
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
    named = {path: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
             for path, tree in trees.items()}
    unreferenced = []
    for name, (path, cls) in classes.items():
        relatives = family(name)
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or _is_dunder(method.name):
                continue
            found = False
            for other, tree in trees.items():
                attrs, strings = _method_references(tree, dunders | {method})
                if method.name in strings or (
                    method.name in attrs and named[other] & relatives
                ):
                    found = True
                    break
            if not found:
                unreferenced.append(f"{path.name}::{name}.{method.name}")
    assert unreferenced == []


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
