"""Every name a library module imports is used in that module.

``__init__.py`` is left out, since it imports only to re-export.  An import
line marked ``# noqa: F401`` is exempt: it keeps a name on a module for a
caller that patches it there by name.
"""

import ast
from pathlib import Path

import pytest

import uqgeom

_MODULES = sorted(p for p in Path(uqgeom.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
