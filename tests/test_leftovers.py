"""Leftovers in the package source: an import its module never reads, and a
module-level private function, class or assignment that no module of the
package reads.  Stdlib `ast` only, so the check needs no linter."""

import ast
from pathlib import Path

import bvbounds

SRC = Path(bvbounds.__file__).parent
TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set:
    """The strings of the module's `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return set()


def _loaded(tree: ast.Module) -> set:
    """The names the module loads or exports."""
    return _exported(tree) | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _read(tree: ast.Module) -> set:
    """What the module reads of any module: the names it loads or exports,
    the attributes it reads and the names it imports from a module."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _private_definitions(tree: ast.Module):
    """The `_private` names the module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_import_is_read():
    unread = []
    for module, tree in TREES.items():
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unread += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in loaded]
    assert not unread


def test_every_private_definition_is_read():
    read = set().union(*map(_read, TREES.values()))
    unread = [f"{module}: {name}" for module, tree in TREES.items()
              for name in _private_definitions(tree) if name not in read]
    assert not unread


def test_the_walk_sees_the_leftovers():
    tree = ast.parse("from typing import Iterable\n"
                     "from itertools import repeat\n"
                     "_ONCE = repeat(0)\n"
                     "def _gone(): pass\n"
                     "class _Kept: pass\n"
                     "__all__ = ['_Kept']\n")
    assert _loaded(tree) == {"repeat", "_Kept"}
    assert list(_private_definitions(tree)) == ["_ONCE", "_gone", "_Kept"]
    assert _read(tree) == {"Iterable", "repeat", "_Kept"}
