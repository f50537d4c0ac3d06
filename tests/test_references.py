"""Every function and method in ``src/xsdof`` has a caller in ``src/xsdof``.

A reference is an AST ``Name`` or ``Attribute`` node carrying the name,
anywhere in the package's code outside the definition itself; docstrings
and comments never count.  The match is by name only, so a reference to any
function of the same name keeps a definition alive.  Dunder methods are
called by the language and are not checked.
"""

import ast
from pathlib import Path

from test_tracer_names import _named

SRC = Path(__file__).resolve().parent.parent / "src" / "xsdof"

#: Definitions kept without a caller in the package, with the reason.
ALLOWED = {
    ("verify", "replay_matches_recorded"):
        "the reference the tests check the ledger engine's transcript against",
    ("knowledge", "availability"):
        "the reference table the tests audit every granted ledger read against",
}


def _definitions(tree):
    """``(qualified name, node)`` of every function and method in ``tree``."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _references(trees):
    """Module and line of every ``Name`` and ``Attribute`` node in ``trees``,
    by the name it carries."""
    refs = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((module, node.lineno))
    return refs


def unreferenced(src=SRC):
    """``(module, qualified name)`` of every definition under ``src`` that no
    code under ``src`` outside the definition refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = _references(trees)
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if all(other == module and line in inside for other, line in refs.get(name, ())):
                found.append((module, qualname))
    return found


def test_every_definition_has_a_caller():
    pinned = set(_named())
    orphans = [d for d in unreferenced() if d not in pinned and d not in ALLOWED]
    assert not orphans, f"defined in src/xsdof but never referenced there: {orphans}"


def test_allowed_names_are_still_uncalled():
    # an entry whose name gained a caller, or was deleted, is stale
    assert set(ALLOWED) <= set(unreferenced())
