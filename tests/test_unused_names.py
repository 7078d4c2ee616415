"""Nothing in the package source is left over: every name an import binds
is read in its module, and every module-level private function, class or
constant is read somewhere in src/ outside its own definition."""

import ast
from pathlib import Path

import anyon1d

SRC = Path(anyon1d.__file__).parent


def _modules(src=SRC):
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(src.glob("*.py"))}


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _exported(tree):
    """The strings of a module-level __all__ list."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            names |= {elt.value for elt in stmt.value.elts}
    return names


def _private_definitions(tree):
    """(name, statement) of each module-level private function, class or
    constant; dunder names are not private."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _read_elsewhere(modules, module, name, definition):
    """Whether name, defined at module level in module by the statement
    definition, is read by another statement of module, imported from
    module, or read as module.name by another module."""
    if any(name in _loads(stmt) for stmt in modules[module].body if stmt is not definition):
        return True
    for other, tree in modules.items():
        if other == module:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
                    and any(alias.name == name for alias in node.names)):
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name) and node.value.id == module):
                return True
    return False


def unused_names(src=SRC):
    """'module: name' for every import and module-level private name of
    the package in src that nothing reads."""
    modules = _modules(src)
    unused = []
    for module, tree in modules.items():
        used = _loads(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: import {bound}")
        for name, stmt in _private_definitions(tree):
            if not _read_elsewhere(modules, module, name, stmt):
                unused.append(f"{module}: {name}")
    return unused


def test_every_import_and_private_name_in_src_is_used():
    assert unused_names() == []


def test_unused_names_finds_a_leftover_import_and_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "from bisect import bisect_left\nimport math\n\n"
        "_LIMIT = 2.0\n_USED = 3.0\n\n\n"
        "def _ladder_top(x):\n    return _ladder_top(x - 1) if x else math.pi\n\n\n"
        "def _helper():\n    return _USED\n")
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _helper\n\n"
                                   "__all__ = ['a', '_helper']\n")
    assert unused_names(tmp_path) == ["a: import bisect_left", "a: _LIMIT", "a: _ladder_top"]
