"""Every name a library module imports is used in that module.

``__init__.py`` is left out, since it imports only to re-export.  An import
line marked ``# noqa: F401`` is exempt: it keeps a name on a module for the
benchmark's layer tracer (``perfbench/layers.py``), which patches it there by
name, and each such name must still be one the tracer wraps on that module.
"""

import ast
from pathlib import Path

import pytest

import uqgeom

_MODULES = sorted(p for p in Path(uqgeom.__file__).parent.glob("*.py") if p.name != "__init__.py")
_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names listed in __all__ count as used.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_library_modules_are_found():
    assert {"measures.py", "discretize.py", "exact.py"} <= {p.name for p in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _hook_imports(path: Path) -> set[tuple[str, str]]:
    """(module, name) of every import marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    return {
        (path.stem, alias.asname or alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]
        for alias in node.names
    }


def _wrapped_names() -> set[tuple[str, str]]:
    """(module, name) of every ``wrap(uqgeom.<module>, "<name>", ...)`` call
    of the layer tracer, read from its source, with the owners and names
    that ``for`` loops over tuples bind expanded."""
    found = set()

    def visit(node, bound):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple):
            bound = {**bound, node.target.id: node.iter.elts}
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "wrap" and len(node.args) >= 2:
            owners, names = (bound.get(getattr(a, "id", None), [a]) for a in node.args[:2])
            for owner in owners:
                if isinstance(owner, ast.Attribute) and getattr(owner.value, "id", None) == "uqgeom":
                    found.update((owner.attr, n.value) for n in names if isinstance(n, ast.Constant))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(ast.parse(_LAYERS.read_text()), {})
    return found


def test_every_hook_import_is_wrapped_by_the_layer_tracer():
    wrapped = _wrapped_names()
    # Direct calls and both kinds of loop are read.
    assert {("cli", "main"), ("harness", "sample_support"), ("montecarlo", "build_random_sip")} <= wrapped
    hooks = set().union(*(_hook_imports(p) for p in _MODULES))
    assert hooks
    assert sorted(hooks - wrapped) == []
