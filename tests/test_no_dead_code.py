"""Dead-code guard for src/lsrmt, walking syntax trees since no linter is installed.

A top-level def or class is referenced when its name appears outside its own
definition, anywhere in src/, tests/ or perfbench/, as an identifier, an
attribute, an imported name or a whole string constant (perfbench names the
functions it traces by string).  A module's imports must each be used in that
module; package re-exports in __init__.py and __future__ imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsrmt"


def _parse_all():
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


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


def test_every_top_level_definition_is_referenced():
    trees = _parse_all()
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


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}:{name}" for name in bound if name not in used]
    assert unused == []
