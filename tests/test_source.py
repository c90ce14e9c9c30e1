"""Static checks over the package source."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "pulsebeam"
MODULES = sorted(PACKAGE.glob("*.py"))
# __init__.py is left out: its imports are the package's public re-exports
SOURCES = [path for path in MODULES if path.name != "__init__.py"]


def _unused_imports(tree: ast.Module):
    # every module uses `from __future__ import annotations`, so annotations
    # are plain expressions and no name is used only inside a quoted one
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _own_scope(function):
    """Nodes of a function's own scope: its body, not the bodies of nested definitions."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.Module):
    """(line, function.name) of each local a function binds and never reads.

    Names starting with `_` are exempt; a read in a nested function counts.
    """
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, outer = {}, set()
        for node in _own_scope(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        read = {
            node.id
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        found += [
            (line, f"{function.name}.{name}")
            for name, line in bound.items()
            if name not in read and name not in outer and not name.startswith("_")
        ]
    return sorted(found)


def test_unused_locals_are_found_in_their_own_scope():
    tree = ast.parse(
        "def f(x):\n    a, _b = x\n    for i, j in x:\n        print(i)\n"
        "    def g():\n        return c\n    c = 1\n"
        "    try:\n        pass\n    except ValueError as exc:\n        pass\n"
        "    def h():\n        nonlocal a\n        a = 2\n        d = 3\n    return h, a\n"
    )
    assert _unused_locals(tree) == [(3, "f.j"), (5, "f.g"), (10, "f.exc"), (15, "h.d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_locals(tree) == []


def _import_time_imports(tree: ast.Module):
    """Modules a module imports while it is itself imported: all but function bodies."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_import_time_imports_skip_function_bodies():
    tree = ast.parse(
        "try:\n    import scipy.integrate\nexcept ImportError:\n    pass\n"
        "def f():\n    from scipy.special import wofz\n"
        "class C:\n    from scipy import linalg\n"
    )
    assert sorted(_import_time_imports(tree)) == ["scipy", "scipy.integrate"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_scipy_at_import_time(path):
    # scipy is loaded at the first quadrature (signals.quad), so a CLI call
    # that never integrates does not pay for importing it
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _import_time_imports(tree)
    assert [name for name in names if name == "scipy" or name.startswith("scipy.")] == []


def _quadrature_calls(tree: ast.Module):
    """(function, line) of every call of a name ending in `quad`, by enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
            if name.endswith("quad"):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_quadrature_goes_through_quad_complex():
    # one place calls quad, so every quadrature uses the node store and the
    # signals.quad attribute that a caller (the benchmark's tracer) may rebind
    calls = {
        path.name: _quadrature_calls(ast.parse(path.read_text(), filename=str(path)))
        for path in MODULES
    }
    assert {name: [f for f, _ in found] for name, found in calls.items() if found} == {
        "signals.py": ["_quad_complex", "_quad_complex"]
    }


def _private_definitions(tree: ast.Module):
    """(line, name) of each module-level private function, class or assignment."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    # dunders such as __getattr__ are read by Python itself
    return [(line, name) for line, name in found if name[0] == "_" and not name.endswith("__")]


def _references(tree: ast.Module):
    """Names a module reads, plainly or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_definition_has_a_caller():
    # a private helper that nothing in the package reads is dead code; an
    # oracle that only the tests use lives in the tests
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    referenced = set().union(*map(_references, trees.values()))
    unused = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for line, private in _private_definitions(tree)
        if private not in referenced
    ]
    assert unused == []


def _environment_reads(tree: ast.Module):
    """Lines that read `os.environ` or call `os.getenv`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_environment_reads(path):
    # settings come from the config file and the flags, not from hidden variables
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _environment_reads(tree) == []


def test_rows_imports_no_pulsebeam_module():
    # the interpreter's arithmetic sits below every layer, so any module of
    # the package can import it without a cycle
    tree = ast.parse((PACKAGE / "_rows.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert sorted(imported) == ["__future__", "math", "numpy", "sys"]
