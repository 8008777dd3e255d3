"""Every top-level function and class of a library module, and every method
and property of a library class, is used by the library.

A top-level name counts as used when some module of the package refers to
it, by name or as an attribute, outside its own definition; the export
lists (``__all__`` and the re-exports of ``__init__.py``) do not count.  A
member of a class (dunder methods aside, which Python calls itself) counts
as used when some module of the package reads it as an attribute, unless
it shares its name with an attribute of ``np.ndarray`` (``size``,
``shape``): the check cannot tell such a read from an array's, so such a
member needs an entry below.  A function only the tests call belongs in
the tests.  The names below are kept all the same, each for the reason
given.
"""

import ast
from pathlib import Path

import numpy as np

import uqgeom

_PACKAGE = Path(uqgeom.__file__).parent

ALLOWED = {
    # Public API that the acceptance criteria call.
    "distributions_match": "criterion 01 compares the exact engine with the oracle through it",
    "lattice_eps_sample": "criterion 09 samples a Gaussian through it",
    # Public API that the README documents.
    "eval_cdf": "the README's CDF query of a 1-D quantization",
    "eval_dominance": "the README's query of a k-variate quantization",
    "query_many": "SipField.query_many and Raster.query_many, the README's containment queries",
    "query_exact": "SipField.query_exact, the README's exact containment probability",
    "from_numerators": "Quantization1D.from_numerators, the README's checked constructor for exact quantizations built outside the engines",
    # Names the benchmark patches, calls or reads until it reads a run record.
    "sample_support": "perfbench/layers.py wraps it on the harness and montecarlo modules",
    "enumerate_potential_bases": "perfbench/layers.py counts valid bases with it",
    "records": "ExactDistribution.records, which perfbench/layers.py counts",
    "k": "IndecisivePoint.k, which perfbench/layers.py sums into its combo and candidate counts",
    "all_locations": "IndecisivePointSet.all_locations, which the perfbench workloads read",
    "shapes": "SipField.shapes, the params array under the name perfbench/layers.py counts; it goes once the benchmark counts len(field.weights)",
    "combo_count": "_Prepared.combo_count, which perfbench/test_perfbench.py checks its own count against",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ARRAY_ATTRIBUTES = frozenset(dir(np.ndarray))


def _unused_names() -> set[str]:
    defined, referenced = set(), set()
    members, attributes = set(), set()
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            own = None
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                own = node.name
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
            if isinstance(node, ast.ClassDef):
                members.update(
                    m.name for m in node.body
                    if isinstance(m, _FUNCTIONS) and not (m.name.startswith("__") and m.name.endswith("__"))
                )
        attributes.update(sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute))
    return (defined - referenced) | (members - attributes) | (members & _ARRAY_ATTRIBUTES)


def test_every_library_name_is_used_or_allowed():
    assert sorted(_unused_names() - set(ALLOWED)) == []


def test_every_allowed_name_is_still_unused():
    # An allowed name the library has started to use needs no entry.
    assert sorted(set(ALLOWED) - _unused_names()) == []
