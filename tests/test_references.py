"""Every class, function and method in ``src/xsdof`` has a caller in ``src/xsdof``.

A reference is an AST node carrying the name, anywhere in the package's
code outside the definition itself; docstrings and comments never count.
A class or a function (module-level or nested) is referenced by a
``Name`` or an ``Attribute`` node; an import or an ``__all__`` entry is
neither, so an exception class that nothing raises or catches is found.
A method is referenced only by an ``Attribute`` node, or by a string
constant that reaches ``getattr``'s name argument, directly or from the
literal tuple a loop or comprehension binds that argument from
(``getattr(sym, name) for name in ("u", "v1", "v2")``); so a local
variable of the same name does not keep a method alive.  The match is by
name only, so an attribute of the same name on any object does.  Dunder
methods are called by the language and are not checked.
"""

import ast
import shutil
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
    """``(qualified name, node, is_method)`` of every class, function and
    method in ``tree``."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child, isinstance(node, ast.ClassDef)))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                out.append((prefix + child.name, child, False))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _getattr_names(node):
    """``(name, line)`` of every string constant in ``node`` that reaches
    ``getattr``'s name argument, as the argument itself or from the literal
    tuple or list a ``for`` loop or comprehension binds it from."""
    calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "getattr"
             and len(call.args) >= 2]
    out = [(call.args[1].value, call.lineno) for call in calls
           if isinstance(call.args[1], ast.Constant) and isinstance(call.args[1].value, str)]
    bound = {call.args[1].id for call in calls if isinstance(call.args[1], ast.Name)}
    for loop in ast.walk(node):
        if (isinstance(loop, (ast.For, ast.comprehension)) and isinstance(loop.target, ast.Name)
                and loop.target.id in bound and isinstance(loop.iter, (ast.Tuple, ast.List))):
            out += [(elt.value, elt.lineno) for elt in loop.iter.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    return out


def _references(trees):
    """Module and line of every reference in ``trees``, by the name it
    carries: ``(functions, methods)``, the references that keep a function
    and those that keep a method alive."""
    functions, methods = {}, {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                functions.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                for refs in (functions, methods):
                    refs.setdefault(node.attr, []).append((module, node.lineno))
        for name, line in _getattr_names(tree):
            methods.setdefault(name, []).append((module, line))
    return functions, methods


def unreferenced(src=SRC):
    """``(module, qualified name)`` of every definition under ``src`` that no
    code under ``src`` outside the definition refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    functions, methods = _references(trees)
    found = []
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            refs = (methods if is_method else functions).get(name, ())
            inside = range(node.lineno, node.end_lineno + 1)
            if all(other == module and line in inside for other, line in refs):
                found.append((module, qualname))
    return found


def test_every_definition_has_a_caller():
    pinned = set(_named())
    orphans = [d for d in unreferenced() if d not in pinned and d not in ALLOWED]
    assert not orphans, f"defined in src/xsdof but never referenced there: {orphans}"


def test_allowed_names_are_still_uncalled():
    # an entry whose name gained a caller, or was deleted, is stale
    assert set(ALLOWED) <= set(unreferenced())


def test_a_local_variable_does_not_keep_a_method_alive(tmp_path):
    # verify.py binds local variables named ``rows``; a method of that name
    # that only the tests call is still found
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path / path.name)
    verify = tmp_path / "verify.py"
    assert any(isinstance(node, ast.Name) and node.id == "rows" and isinstance(node.ctx, ast.Store)
               for node in ast.walk(ast.parse(verify.read_text())))
    verify.write_text(verify.read_text() + "\n\nclass Planted:\n    def rows(self):\n"
                      "        return 0\n")
    assert ("verify", "Planted.rows") in unreferenced(tmp_path)


def test_an_exception_class_only_exported_is_found(tmp_path):
    # imported and listed in ``__all__`` by the package, but never raised or caught
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path / path.name)
    errors, init = tmp_path / "errors.py", tmp_path / "__init__.py"
    errors.write_text(errors.read_text() + "\n\nclass Planted(RuntimeError):\n    pass\n")
    exported = init.read_text().replace("from .errors import (", "from .errors import (Planted,")
    init.write_text(exported.replace("__all__ = [", '__all__ = ["Planted",'))
    assert init.read_text().count("Planted") == 2 and ast.parse(init.read_text())
    assert ("errors", "Planted") in unreferenced(tmp_path)


def test_a_getattr_name_keeps_a_method_alive():
    # ``Symbols.u`` is read only through ``getattr`` with a name from a
    # literal tuple, in ``schemes.linear_response``
    tree = ast.parse("""def f(sym):\n    return [getattr(sym, k) for k in ("u", "v1")]\n""")
    assert [name for name, _ in _getattr_names(tree)] == ["u", "v1"]
    assert ("schemes", "Symbols.u") not in unreferenced()


def _calls(names, src=SRC):
    """``(module, enclosing function)`` of every call under ``src`` to a
    function or method named in ``names``, by its last name
    (``np.linalg.svd(...)`` calls ``svd``)."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.append((module, scope))
            visit(child, module, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_full_rank_is_decided_in_matcore():
    # rank_value is the one full-rank decision: outside matcore only the
    # oracle's leak exit asks the certificate, about a lower bound on
    # another matrix's rank, and no module but matcore factorizes
    certificates = [call for call in _calls({"full_rank_certified"}) if call[0] != "matcore"]
    assert certificates == [("verify", "_certified_leak")]
    assert {module for module, _ in _calls({"svd", "cholesky"})} == {"matcore"}
