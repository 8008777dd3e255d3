"""The tolerance policy: every tolerance is decided in ``uqgeom.geometry``,
and ``measures.tolerance`` is the one comparison-tolerance formula, positive
on every set of at least one point."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import uqgeom
from uqgeom import IndecisivePoint, IndecisivePointSet, MeasureId, canonical_jitter
from uqgeom.exact import _Prepared
from uqgeom.geometry import _JITTER_UNIT, coordinate_scale, coordinate_scales, length_scale
from uqgeom.measures import tolerance

from conftest import bbox_diameter, group_tolerance, random_indecisive

_PACKAGE = Path(uqgeom.__file__).parent
MEASURES = [MeasureId(k) for k in ("seb2", "seb1", "sebinf", "aabb_perimeter", "aabb_area")]
MEASURES.append(MeasureId.parse("dwid:0.6,0.8"))


def _small_floats(path: Path) -> list[tuple[int, float]]:
    """Line and value of every float constant of magnitude in (0, 1e-5]."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) <= 1e-5
    ]


def test_tolerance_literals_only_in_the_policy_module():
    assert _small_floats(_PACKAGE / "geometry.py")
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "geometry.py")
    assert {"measures.py", "exact.py", "quantize.py", "sip.py"} <= {p.name for p in modules}
    found = {p.name: _small_floats(p) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_tolerance_is_the_reference_formula_on_generic_sets():
    rng = np.random.default_rng(24)
    for _ in range(60):
        span = float(10.0 ** rng.integers(-4, 5))
        uset = random_indecisive(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), span=span)
        pts = uset.all_locations()
        assert length_scale(pts) == bbox_diameter(pts)
        for m in MEASURES:
            assert tolerance(pts, m).hex() == group_tolerance(uset, m).hex(), str(m)


def _coincident_set(c, ks) -> IndecisivePointSet:
    return IndecisivePointSet(
        tuple(IndecisivePoint([c] * k, (Fraction(1, k),) * k) for k in ks), 2
    )


@pytest.mark.parametrize("c", [(0.0, 0.0), (3.0, -2.0), (1e6, -1e6), (-1e-30, 5e-300), (1e150, 1e150)])
@pytest.mark.parametrize("ks", [(1,), (3,), (1, 1), (2, 1, 3)], ids=str)
def test_tolerance_positive_on_zero_extent_and_one_candidate_sets(c, ks):
    uset = _coincident_set(c, ks)
    pts = uset.all_locations()
    assert bbox_diameter(pts) == 0.0
    # The floor is the farthest the canonical jitter moves a candidate.
    assert length_scale(pts) == len(pts) * _JITTER_UNIT * coordinate_scale(pts) > 0
    for m in MEASURES:
        assert tolerance(pts, m) > 0


@pytest.mark.parametrize("d", [2, 3])
def test_length_scale_has_the_bits_of_the_diagonal_and_the_coordinate_scale(d):
    # The former two passes, bbox_diameter and then the coordinate scale of
    # the stack path, as the reference for the one max/min pass.
    rng = np.random.default_rng(39 + d)
    sets = [rng.uniform(-1, 1, size=(int(rng.integers(1, 9)), d)) * 10.0 ** rng.integers(-300, 300) for _ in range(200)]
    sets += [c + rng.uniform(-1, 1, size=(5, d)) * 2.0**-40 * e for c in (0.0, 1.0, -3e6, 1e150) for e in (0.1, 1, 5, 50)]
    sets += [np.zeros((3, d)), rng.choice([-0.0, 0.0, -1e-300, 3e-7, -2.5], size=(9, d)), np.full((1, d), -7.5)]
    for pts in sets:
        want = max(bbox_diameter(pts), len(pts) * _JITTER_UNIT * coordinate_scales(pts[None])[0])
        assert length_scale(pts).hex() == want.hex()


def test_engine_groups_at_the_comparison_tolerance():
    rng = np.random.default_rng(5)
    sets = [random_indecisive(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(8)]
    sets += [_coincident_set((2.0, -1.0), (2, 1)), _coincident_set((0.0, 0.0), (1,))]
    for uset in sets:
        jittered = canonical_jitter(uset).locations
        for m in MEASURES:
            prep = _Prepared(uset, m)
            assert prep.group_tol == tolerance(jittered, m) > 0, str(m)
