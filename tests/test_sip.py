import contextlib
import hashlib
import math
import os
import pickle
import tempfile
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from uqgeom import (ContinuousUncertainSet, GaussianPoint, MeasureId, ResourceCapError, UniformDiskPoint,
                    ValidationError, deterministic_sip, discretize_for_measure, rasterize_sip, write_pgm)
from uqgeom.isolines import DEFAULT_LEVELS, _segments_for_level, extract_isolines, isolines_svg
from uqgeom.montecarlo import SampleBudget, build_random_sip
import uqgeom.sip as sip_mod
from uqgeom.sip import DISK, RECT, Raster, SipField

from conftest import random_indecisive, read_pgm


# A shape as the parameter row of its family's field.
_Disk = namedtuple("_Disk", "cx cy r")
_Rect = namedtuple("_Rect", "x0 y0 x1 y1")
_KIND = {_Disk: DISK, _Rect: RECT}


def _contains(kind, p, x, y):
    """Reference containment, one shape at a time: the disk or closed
    rectangle of parameter row ``p`` at (x, y), floats or arrays.  A disk
    holds a point when ``dx * dx + dy * dy <= r * r``, multiplied, not
    ``** 2``: on a Python float that is libm pow, which may round apart
    from the array square that the queries and the raster take."""
    if kind == DISK:
        cx, cy, r = p
        dx, dy = x - cx, y - cy
        return dx * dx + dy * dy <= r * r
    x0, y0, x1, y1 = p
    return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def _field(shapes, kind=None) -> SipField:
    """The field of (_Disk | _Rect, weight) pairs of one family (``kind``,
    else the first shape's), with exact numerators of the weights over the
    lcm of their denominators."""
    if kind is None:
        kind = _KIND[type(shapes[0][0])]
    assert all(_KIND[type(s)] == kind for s, _ in shapes)
    exact = [Fraction(w) for _, w in shapes]
    denom = math.lcm(*(w.denominator for w in exact))
    return SipField.from_arrays(
        kind,
        np.array([s for s, _ in shapes]).reshape(-1, 3 if kind == DISK else 4),
        [float(w) for _, w in shapes],
        [w.numerator * (denom // w.denominator) for w in exact],
        denom,
    )


def _grid_points(raster):
    xs, ys = raster.cell_centers()
    gx, gy = np.meshgrid(xs, ys)
    return gx, gy


def test_rasterize_unit_disk_indicator():
    field = _field([(_Disk(0.0, 0.0, 1.0), 1.0)])
    out = rasterize_sip(field, (64, 64), (-2, -2, 2, 2))
    gx, gy = _grid_points(out)
    expect = ((gx**2 + gy**2) <= 1.0).astype(float)
    assert np.array_equal(out.values, expect)


def test_rasterize_two_disjoint_disks():
    field = _field([(_Disk(-1.0, 0.0, 0.5), 0.5), (_Disk(1.0, 0.0, 0.5), 0.5)])
    out = rasterize_sip(field, (64, 64), (-2, -2, 2, 2))
    assert set(np.unique(out.values)) <= {0.0, 0.5}
    assert (out.values == 0.5).any()


def test_rect_shape_containment():
    field = _field([(_Rect(0.0, 0.0, 2.0, 1.0), 1.0)])
    # Inside, on the closed boundary, outside.
    assert field.query_many([(1.0, 0.5), (2.0, 1.0), (2.1, 0.5)]).tolist() == [1.0, 1.0, 0.0]


def test_raster_query_lookup():
    vals = np.arange(16, dtype=float).reshape(4, 4) / 15.0
    raster = Raster(vals, (0, 0, 4, 4))
    assert raster.query_many([(0.5, 0.5), (3.5, 3.5)]).tolist() == [vals[0, 0], vals[3, 3]]


def test_raster_refinement_stable_away_from_boundaries():
    field = _field([(_Disk(0.0, 0.0, 1.0), 1.0)])
    coarse = rasterize_sip(field, (32, 32), (-2, -2, 2, 2))
    fine = rasterize_sip(field, (128, 128), (-2, -2, 2, 2))
    probes = [(-1.5, -1.5), (0.0, 0.0), (0.5, 0.5), (1.8, 0.0)]
    assert coarse.query_many(probes).tolist() == fine.query_many(probes).tolist()


def test_pgm_round_trip():
    rng = np.random.default_rng(3)
    raster = Raster(rng.random((20, 30)), (-1, -2, 3, 4))
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "field.pgm")
        write_pgm(raster, path)
        back = read_pgm(path)
        quantized = np.round(raster.values * 65535) / 65535
        assert np.array_equal(back.values, quantized)
        assert np.abs(back.values - raster.values).max() <= 2**-16
        assert back.bounds == raster.bounds


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raster_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Raster(np.array([[bad, 0.5]]), (0, 0, 1, 1))


def test_isoline_constant_field_strictly_greater():
    raster = Raster(np.full((20, 20), 0.5), (0, 0, 1, 1))
    contours = extract_isolines(raster, [0.5])
    assert contours[0.5] == []


def test_isoline_levels_validated():
    raster = Raster(np.zeros((4, 4)), (0, 0, 1, 1))
    with pytest.raises(ValueError):
        extract_isolines(raster, [1.5])
    with pytest.raises(ValueError):
        extract_isolines(raster, [0.0])


def test_isoline_radial_isoperimetric():
    n = 201
    xs = np.linspace(-1.5, 1.5, n)
    gx, gy = np.meshgrid(xs, xs)
    raster = Raster(np.clip(1.0 - np.hypot(gx, gy), 0, 1), (-1.5, -1.5, 1.5, 1.5))
    contours = extract_isolines(raster, [0.5])[0.5]
    assert len(contours) == 1
    poly = contours[0]
    assert np.allclose(poly[0], poly[-1])  # closed loop
    area = 0.5 * abs(np.sum(poly[:-1, 0] * poly[1:, 1] - poly[1:, 0] * poly[:-1, 1]))
    perimeter = np.sum(np.hypot(np.diff(poly[:, 0]), np.diff(poly[:, 1])))
    assert abs(4 * math.pi * area / perimeter**2 - 1.0) <= 0.05
    assert abs(perimeter / (2 * math.pi) - 0.5) <= 0.02  # contour at radius 1/2


def test_isolines_default_levels_and_svg():
    n = 101
    xs = np.linspace(-1.5, 1.5, n)
    gx, gy = np.meshgrid(xs, xs)
    raster = Raster(np.clip(1.0 - np.hypot(gx, gy), 0, 1), (-1.5, -1.5, 1.5, 1.5))
    contours = extract_isolines(raster)
    assert set(contours) == set(DEFAULT_LEVELS)
    svg = isolines_svg(contours, raster.bounds)
    assert svg.startswith("<svg") and svg.count("<g ") == len(DEFAULT_LEVELS)


def _rasterize_full_grid(field, grid, bounds):
    """Reference rasterizer: every shape of the field tested at every cell
    center by :func:`_contains`, its weight added in shape order."""
    w, h = grid
    x0, y0, x1, y1 = (float(v) for v in bounds)
    xs = x0 + (np.arange(w) + 0.5) * (x1 - x0) / w
    ys = y0 + (np.arange(h) + 0.5) * (y1 - y0) / h
    values = np.zeros((h, w))
    gx, gy = np.meshgrid(xs, ys)
    for p, weight in zip(field.params.tolist(), field.weights.tolist()):
        values[_contains(field.kind, p, gx, gy)] += weight
    return np.minimum(values, 1.0)


_PATHS = ("_rect_counts", "_rectangle_values", "_disk_values")


def _rasterize_by_path(field, grid, bounds):
    """rasterize_sip's values, and the one path that made them: the name of
    the function called and whether it counted cells (equal weights) or
    added weights."""
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(sip_mod, name, wraps=getattr(sip_mod, name)))
                 for name in _PATHS}
        values = rasterize_sip(field, grid, bounds).values
    (path,) = [name for name, spy in spies.items() if spy.called]
    counts = path == "_rect_counts" or (path == "_disk_values" and spies[path].call_args.args[-1])
    return values, (path, counts)


def _expected_path(kind, shapes) -> tuple:
    equal = len({float(w) for _, w in shapes}) <= 1
    if kind == DISK:
        return "_disk_values", equal
    return ("_rect_counts", True) if equal else ("_rectangle_values", False)


# _SLICE_ADD_BLOCKS values that force the rectangle run adds (no field
# covers more blocks per rectangle) and the slice adds (every field with a
# rectangle on the grid covers more than 0).
_RUN_ADDS, _SLICE_ADDS = 2**62, 0


def _rasterize_rectangles_by_side(field, grid, bounds, cut):
    """rasterize_sip's values with _SLICE_ADD_BLOCKS set to ``cut``, and
    whether _rectangle_values added them by runs."""
    with mock.patch.object(sip_mod, "_SLICE_ADD_BLOCKS", cut), \
            mock.patch.object(sip_mod, "_add_runs", wraps=sip_mod._add_runs) as runs:
        return rasterize_sip(field, grid, bounds).values, runs.called


def _assert_rasterizes_like_full_grid(shapes, grid, bounds):
    """The disks and the rectangles of the shapes, each family as given,
    with every weight 1/3 and with every weight 1/2187: each rasterizes bit
    for bit as the reference does, by the path its family and weights
    select; unequal-weight rectangles also with the run adds forced and
    with the slice adds forced."""
    for cls, kind in _KIND.items():
        family = [(s, w) for s, w in shapes if type(s) is cls]
        equal = [[(s, w) for s, _ in family] for w in (Fraction(1, 3), Fraction(1, 2187))]
        for variant in (family, *equal):
            field = _field(variant, kind)
            got, path = _rasterize_by_path(field, grid, bounds)
            # The reference's dx * dx overflows, with numpy's warning, for a
            # disk centered far off the grid.
            with np.errstate(over="ignore"):
                want = _rasterize_full_grid(field, grid, bounds)
            assert got.tobytes() == want.tobytes()
            assert path == _expected_path(kind, variant)
            if path == ("_rectangle_values", False):
                for cut, by_runs in ((_RUN_ADDS, True), (_SLICE_ADDS, False)):
                    got, ran = _rasterize_rectangles_by_side(field, grid, bounds, cut)
                    assert got.tobytes() == want.tobytes()
                    # A raster of zeros may come from a field with no
                    # rectangle on the grid, which has no side.
                    assert ran == by_runs or not want.any()


def test_rasterize_random_shapes_bitwise_equal_full_grid():
    rng = np.random.default_rng(11)
    bounds = (-1.0, -0.5, 2.0, 1.5)
    shapes = []
    for _ in range(300):
        # Centers reach past the bounds, so shapes lie partly or wholly outside.
        cx, cy = rng.uniform(-2.5, 3.5), rng.uniform(-2.0, 3.0)
        weight = rng.random() / 40
        if rng.random() < 0.5:
            shapes.append((_Disk(cx, cy, rng.uniform(0.0, 1.5)), weight))
        else:
            dx, dy = rng.uniform(0.0, 1.5, 2)
            shapes.append((_Rect(cx, cy, cx + dx, cy + dy), weight))
    # Rational weights, as the exact engine produces them.
    shapes.append((_Disk(0.5, 0.5, 0.7), Fraction(1, 3)))
    shapes.append((_Rect(-3.0, -3.0, 5.0, 5.0), Fraction(2, 7)))
    _assert_rasterizes_like_full_grid(shapes, (37, 29), bounds)
    # Some cells are covered more than three times: at weight 1/3 their
    # running sum passes 1.0 before the cap.
    fields = [_field([(s, 1 / 4096) for s, _ in shapes if type(s) is cls], kind) for cls, kind in _KIND.items()]
    assert sum(_rasterize_full_grid(f, (37, 29), bounds) for f in fields).max() > 3 / 4096


def test_rasterize_rectangles_on_a_lattice_bitwise_equal_full_grid():
    # Few distinct edges, some on cell centers, so the compressed grid has
    # few blocks; among the boxes zero-width, reversed and NaN ones.
    grid, bounds = (24, 20), (-1.0, -1.0, 1.4, 1.0)
    w, h = grid
    centers_x = (-1.0 + (np.arange(w) + 0.5) * 2.4 / w).tolist()
    centers_y = (-1.0 + (np.arange(h) + 0.5) * 2.0 / h).tolist()
    rng = np.random.default_rng(41)
    xs = [-1.2, centers_x[0], -0.5, centers_x[10], 0.3, centers_x[17], 1.3, 1.6]
    ys = [-1.1, centers_y[3], -0.05, 0.2, centers_y[14], 0.95, 1.2]
    shapes = []
    for _ in range(250):
        a, b = sorted(rng.choice(xs, 2))
        c, d = sorted(rng.choice(ys, 2))
        shapes.append((_Rect(float(a), float(c), float(b), float(d)), Fraction(int(rng.integers(1, 60)), 997)))
    shapes += [(_Rect(0.3, -0.05, 0.3, 0.95), Fraction(1, 9)), (_Rect(1.3, -0.05, 0.3, 0.95), Fraction(1, 5)),
               (_Rect(-0.5, math.nan, 1.3, 0.95), Fraction(1, 5))]
    _assert_rasterizes_like_full_grid(shapes, grid, bounds)


def test_rasterize_edges_on_cell_centers_bitwise_equal_full_grid():
    grid, bounds = (16, 12), (0.0, 0.0, 1.0, 0.75)
    w, h = grid
    xs = (np.arange(w) + 0.5) * 1.0 / w
    ys = (np.arange(h) + 0.5) * 0.75 / h
    xs, ys = xs.tolist(), ys.tolist()
    shapes = [
        # Rectangle edges exactly on cell centers.
        (_Rect(xs[2], ys[1], xs[9], ys[7]), 0.25),
        # Zero-width and zero-area rectangles, on and off the centers.
        (_Rect(xs[4], ys[0], xs[4], ys[11]), 0.125),
        (_Rect(xs[5], ys[5], xs[5], ys[5]), 0.125),
        (_Rect(0.3, 0.1, 0.3, 0.6), 0.125),
        # Reversed and NaN rectangles contain nothing.
        (_Rect(0.6, 0.1, 0.2, 0.6), 0.5),
        (_Rect(float("nan"), 0.1, 0.6, 0.6), 0.5),
        # r = 0 disks, on a cell center and off it.
        (_Disk(xs[3], ys[6], 0.0), 0.25),
        (_Disk(0.51, 0.33, 0.0), 0.25),
        # Disk edges exactly on cell centers, along both axes.
        (_Disk(xs[8], ys[6], xs[13] - xs[8]), 0.0625),
        (_Disk(xs[8], ys[6], ys[10] - ys[6]), 0.0625),
        # NaN centers and radii hold nothing; radius -r holds what r does.
        (_Disk(math.nan, ys[6], 0.3), 0.25),
        (_Disk(xs[8], math.nan, 0.3), 0.25),
        (_Disk(xs[8], ys[6], math.nan), 0.25),
        (_Disk(xs[8], ys[6], xs[8] - xs[13]), 0.0625),
        # Infinite centers: nothing within a finite radius, every center
        # within an infinite one.
        (_Disk(math.inf, ys[6], 0.3), 0.25),
        (_Disk(xs[8], -math.inf, 0.3), 0.25),
        (_Disk(-math.inf, ys[6], math.inf), 0.0625),
    ]
    _assert_rasterizes_like_full_grid(shapes, grid, bounds)


@pytest.mark.parametrize("n", [1, 2, 17])
def test_disk_runs_through_the_center_are_the_passing_centers(n):
    # dy2 = 0 over the whole axis, as rasterize_sip takes a disk's windows:
    # [lo, hi) must be every center with (x - c) ** 2 <= r * r and no other.
    xs = sip_mod._cell_centers(-1.0, 1.0, n)
    grid = xs.tolist()
    cs = [*grid, (grid[0] + grid[-1]) / 2 + 0.01, -7.5, 6.0, 1e300, math.nan, math.inf, -math.inf]
    radii = [0.0, -0.0, 0.3, -0.3, 2.5, 1e300, math.nan, math.inf, -math.inf]
    radii += [grid[k] - grid[0] for k in range(n)]
    c, r = (np.array(v, dtype=np.float64).ravel() for v in np.meshgrid(cs, radii))
    with np.errstate(over="ignore"):
        rr = r * r
    m = len(c)
    lo, hi = sip_mod._disk_runs(xs, c, rr, 0, n, np.arange(m), np.zeros(m))
    # Python floats: (x - c) * (x - c) overflows to inf and inf - inf is NaN
    # without a warning.
    for ck, rk, rrk, lok, hik in zip(c.tolist(), r.tolist(), rr.tolist(), lo.tolist(), hi.tolist()):
        passing = [j for j, x in enumerate(grid) if (x - ck) * (x - ck) <= rrk]
        assert list(range(lok, hik)) == passing, (ck, rk)
        assert 0 <= lok <= hik <= n


def test_rasterize_disk_rounding_margin_bitwise_equal_full_grid():
    # Grids one and three ulps per cell at x ~ 2**31; far-centered disks whose
    # edge crosses the grid.  Rounding puts contained centers outside the
    # rounded bounding box, beyond a one-cell margin on the one-ulp grid.
    rng = np.random.default_rng(7)
    big = 1.999 * 2.0**30
    ulp = math.ulp(big)
    shapes = []
    for _ in range(200):
        cx = rng.uniform(-3 * big, 3 * big)
        r = max(abs(big - cx) + rng.normal() * 4 * ulp, 0.0)
        shapes.append((_Disk(cx, rng.normal() * 0.1, r), 1 / 256))
    for cells_per_ulp in (1, 3):
        half = 8 * cells_per_ulp * ulp
        _assert_rasterizes_like_full_grid(shapes, (16, 3), (big - half, -1.0, big + half, 1.0))
    # Cells far narrower than the disk's ulp: every center at or left of 0
    # rounds into the unit disk at (1, 0), although 1 - 1 = 0 is mid-grid.
    shapes = [(_Disk(1.0, 0.0, 1.0), 0.5), (_Disk(-1.0, 0.0, 1.0), 0.25)]
    _assert_rasterizes_like_full_grid(shapes, (32, 3), (-1e-20, -1e-20, 1e-20, 1e-20))
    # Radii whose square overflows to inf, one disk centered far off the
    # grid: every center passes, and the windows take no overflow warning.
    shapes = [(_Disk(0.2, -0.1, 1e300), 0.5), (_Disk(1e300, 0.0, 1e300), 0.25)]
    _assert_rasterizes_like_full_grid(shapes, (5, 4), (-1.0, -1.0, 1.0, 1.0))


@pytest.mark.parametrize("offset_cells", [1, 300, None])
@pytest.mark.parametrize("kind", [DISK, RECT], ids=["disk", "rect"])
def test_rasterize_in_offset_chunks_bitwise_equal_full_grid(monkeypatch, kind, offset_cells):
    # Chunks of one window row or cell, of a few, and the default: the runs
    # of a chunk's disks are taken together.
    if offset_cells is not None:
        monkeypatch.setattr(sip_mod, "_OFFSET_CELLS", offset_cells)
    grid, bounds = (23, 19), (-1.0, -1.0, 1.3, 0.9)
    w, h = grid
    xs = (-1.0 + (np.arange(w) + 0.5) * 2.3 / w).tolist()
    ys = (-1.0 + (np.arange(h) + 0.5) * 1.9 / h).tolist()
    rng = np.random.default_rng(17)
    shapes = []
    for _ in range(400):
        # The 400 draws of either family: three kinds of disk, or a box.
        shape = rng.integers(3) if kind == DISK else 3
        i, j = int(rng.integers(h)), int(rng.integers(w))
        weight = float(rng.random()) / 150
        if shape == 0:
            # A disk through cell centres: centred on one, radius to another.
            i2, j2 = int(rng.integers(h)), int(rng.integers(w))
            shapes.append((_Disk(xs[j], ys[i], math.hypot(xs[j2] - xs[j], ys[i2] - ys[i])), weight))
        elif shape == 1:
            # Zero-radius disks, on a cell centre and off it.
            cx = xs[j] if rng.random() < 0.5 else float(rng.uniform(-1.2, 1.5))
            shapes.append((_Disk(cx, ys[i], 0.0), weight))
        elif shape == 2:
            cx, cy = rng.uniform(-1.5, 1.8, 2)
            shapes.append((_Disk(float(cx), float(cy), float(rng.uniform(0.0, 0.8))), weight))
        else:
            cx, cy = rng.uniform(-1.5, 1.8, 2)
            dx, dy = rng.uniform(0.0, 0.9, 2)
            shapes.append((_Rect(float(cx), float(cy), float(cx + dx), float(cy + dy)), weight))
    _assert_rasterizes_like_full_grid(shapes, grid, bounds)
    field = SipField.from_arrays(kind, [s for s, _ in shapes], [wt for _, wt in shapes])
    got = rasterize_sip(field, grid, bounds).values
    assert got.tobytes() == _rasterize_full_grid(field, grid, bounds).tobytes()
    # Three shapes over one cell, added in shape order: 0.5 + 2**-54 rounds
    # to 0.5 twice, where the two small weights first would give 0.5 + 2**-53.
    # Zero-radius disks, or zero-size boxes, on the cell's center; boxes on
    # both sides of the rectangle cut (which disks do not read).
    i, j = 4, 7
    point = _Disk(xs[j], ys[i], 0.0) if kind == DISK else _Rect(xs[j], ys[i], xs[j], ys[i])
    shapes = [(point, 0.5), (point, 2.0**-54), (point, 2.0**-54)]
    for cut in (_RUN_ADDS, _SLICE_ADDS):
        got = _rasterize_rectangles_by_side(_field(shapes), grid, bounds, cut)[0]
        assert got[i, j] == 0.5 and got.sum() == 0.5
    _assert_rasterizes_like_full_grid(shapes, grid, bounds)


def _grown_field(m, kind, equal, snap=False) -> SipField:
    """m disks or rectangles in [-1, 1]^2, with equal weights or not; with
    ``snap``, rectangle edges rounded to multiples of 0.2, so that the
    rasterizer's compressed grid has at most 14 x 14 blocks."""
    rng = np.random.default_rng(43)
    center, extent = rng.uniform(-1.0, 1.0, (m, 2)), rng.uniform(0.05, 0.6, (m, 2))
    if kind == DISK:
        params = np.column_stack([center, extent[:, 0]])
    else:
        params = np.column_stack([center - extent, center + extent])
        if snap:
            params = np.round(params * 5) / 5
    weights = np.full(m, 1 / m) if equal else rng.random(m) / m
    return SipField.from_arrays(kind, params, weights)


# path -> (kind, equal weights, snapped edges): the rectangles of
# _grown_field cover thousands of blocks each, so unequal weights take the
# slice adds; snapped, a few dozen, and the run adds.
_GROWN_PATHS = {
    "_rect_counts": (RECT, True, False), "_rectangle_values": (RECT, False, False),
    "_rectangle_values-runs": (RECT, False, True),
    "_disk_values-counts": (DISK, True, False), "_disk_values-weights": (DISK, False, False),
}


@pytest.mark.parametrize("path", _GROWN_PATHS)
def test_rasterize_memory_stays_flat_as_the_field_grows(path):
    # Per-row runs and cells to add are bounded per chunk; what grows
    # with the field is a few dozen bytes a shape.  4x the shapes must not
    # raise the traced peak by more than half.
    import tracemalloc

    grid, bounds = (256, 256), (-1.2, -1.2, 1.2, 1.2)
    kind, equal, snap = _GROWN_PATHS[path]
    peaks = []
    for m in (2000, 8000):
        field = _grown_field(m, kind, equal, snap)
        assert _rasterize_by_path(field, grid, bounds)[1] == (path.split("-")[0], equal)
        if kind == RECT and not equal:
            assert _rasterize_rectangles_by_side(field, grid, bounds, sip_mod._SLICE_ADD_BLOCKS)[1] == snap
        tracemalloc.start()
        try:
            rasterize_sip(field, grid, bounds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * min(peaks), peaks


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sipfield_rejects_non_finite_weights(bad):
    params = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="weights must be finite"):
        SipField.from_arrays(DISK, params, [0.5, bad])


@pytest.mark.parametrize("kind, params, message", [
    (2, [(0.0, 0.0, 1.0)], "kind must be DISK or RECT"),
    ([DISK], [(0.0, 0.0, 1.0)], "kind must be DISK or RECT"),
    (True, [(0.0, 0.0, 1.0, 1.0)], "kind must be DISK or RECT"),
    (DISK, [(0.0, 0.0, 1.0, 0.0)], r"one \(3,\) parameter row"),
    (RECT, [(0.0, 0.0, 1.0)], r"one \(4,\) parameter row"),
    (DISK, [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)], r"one \(3,\) parameter row"),
], ids=["kind 2", "kind a list", "kind a bool", "disk of 4", "rectangle of 3", "two rows, one weight"])
def test_sipfield_refuses_another_kind_or_row_width(kind, params, message):
    with pytest.raises(ValueError, match=message):
        SipField.from_arrays(kind, params, [1.0])


@pytest.mark.parametrize("numerators, denominator", [
    ([5], None), (None, 1),
], ids=["no denominator", "no numerators"])
def test_sipfield_refuses_exact_weights_without_a_positive_integer_denominator(numerators, denominator):
    # Fraction(5, None) is 5: a field with numerators and no denominator
    # once answered query_exact with the bare numerator sum.  A bad
    # denominator is a row of tests/test_quantize.py's verdict table.
    with pytest.raises(ValueError, match="numerators and their denominator"):
        SipField.from_arrays(DISK, [(0.0, 0.0, 1.0)], [1.0], numerators, denominator)


def test_sipfield_refuses_weights_that_are_not_numerator_over_denominator():
    # Weights 1/2 over numerators 1/3 once gave query 1.0 and query_exact
    # 2/3 at the origin.
    with pytest.raises(ValueError, match="numerator over the denominator"):
        SipField.from_arrays(DISK, [(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)], [0.5, 0.5], [1, 1], 3)
    # So are two weights of one numerator, which == would broadcast.
    with pytest.raises(ValueError, match="numerator over the denominator"):
        SipField.from_arrays(DISK, [(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)], [0.5, 0.5], [1], 2)
    # A weight one ulp off the rounded quotient is refused too.
    with pytest.raises(ValueError, match="numerator over the denominator"):
        SipField.from_arrays(DISK, [(0.0, 0.0, 1.0)], [math.nextafter(1 / 3, 1.0)], [1], 3)
    # A quotient too large for a float is not a finite weight.
    with pytest.raises(ValueError, match="weights must be finite"):
        SipField.from_arrays(DISK, [(0.0, 0.0, 1.0)], None, [10**400], 1)


def test_sipfield_derives_exact_weights_from_the_numerators():
    # Numerators past 2**63, as the exact engine's object arrays hold them.
    big = 3**60
    nums = np.array([1, 2, big, big - 5], dtype=object)
    field = SipField.from_arrays(RECT, np.zeros((4, 4)), None, nums, 3**61)
    assert field.weights.tolist() == [float(Fraction(n, 3**61)) for n in nums.tolist()]
    assert field.query_exact((0.0, 0.0)) == Fraction(2 * big - 2, 3**61)
    # Given weights that equal the quotients are kept.
    same = SipField.from_arrays(RECT, np.zeros((4, 4)), field.weights.tolist(), nums, 3**61)
    assert same.weights.tobytes() == field.weights.tobytes()


@pytest.mark.parametrize("measure", ["seb2", "aabb-perimeter"])
def test_sipfield_gives_unpickled_arrays_the_canonical_dtype(measure):
    # Arrays read back by pickle carry a float64 dtype instance that equals
    # np.dtype(np.float64) but is not it; a field that kept it sent
    # np.add.at down numpy's slow path, many times slower.
    field = deterministic_sip(random_indecisive(np.random.default_rng(3), 4, 3), MeasureId.parse(measure))
    params, weights, nums = pickle.loads(pickle.dumps((field.params, field.weights, field.numerators)))
    for w in (weights, None):
        again = SipField.from_arrays(field.kind, params, w, nums, field.denominator)
        assert again.params.dtype is np.dtype(np.float64) and again.weights.dtype is np.dtype(np.float64)
        for grid in ((96, 80), (7, 5)):
            want = rasterize_sip(field, grid, (-2.0, -2.0, 2.0, 2.0)).values
            assert rasterize_sip(again, grid, (-2.0, -2.0, 2.0, 2.0)).values.tobytes() == want.tobytes()


def test_sip_makers_refuse_a_measure_without_a_summarizing_shape():
    uset = random_indecisive(np.random.default_rng(2), 3, 2)
    for make in (lambda m: deterministic_sip(uset, m),
                 lambda m: build_random_sip(uset, m, SampleBudget(0.2, 0.2, explicit_m=4), seed=0)):
        for measure in (MeasureId("dwid", (1.0, 0.0)), MeasureId("diameter"), MeasureId("sebinf")):
            with pytest.raises(ValidationError, match="^SIP needs a disk or rectangle summarizing shape$"):
                make(measure)


def test_rasterize_empty_shape_list():
    _assert_rasterizes_like_full_grid([], (7, 5), (0.0, 0.0, 1.0, 1.0))


def _eager_exact_shapes(uset, measure):
    """Reference: deterministic_sip's former per-basis construction, one
    parameter row and one Fraction per counted basis."""
    import uqgeom.exact as exact_mod

    prep = exact_mod._Prepared(uset, measure)
    rows, weights = [], []
    for _, _, chunk, nums in exact_mod._counted_bases(prep):
        rows += chunk.tolist()
        weights += [Fraction(num, prep.jset.denominator) for num in nums.tolist()]
    return rows, weights


def _in_order(floats) -> float:
    """Float sum in the given order from +0.0 (the builtin sum() of floats
    is compensated from Python 3.12 on)."""
    total = 0.0
    for w in floats:
        total += w
    return total


# Bounds that cut through the shapes of sets in [-1, 1]^2, on an uneven grid.
_CUT_GRID, _CUT_BOUNDS = (41, 37), (-1.3, -0.9, 1.1, 1.4)


@pytest.mark.parametrize("measure", ["seb2", "aabb_perimeter", "aabb_area"])
def test_exact_sip_array_form_matches_per_basis_shapes(measure):
    rng = np.random.default_rng(23)
    uset = random_indecisive(rng, 4, 3)
    m = MeasureId(measure)
    field = deterministic_sip(uset, m)
    raster = rasterize_sip(field, _CUT_GRID, _CUT_BOUNDS).values
    rows, weights = _eager_exact_shapes(uset, m)
    assert field.params.tolist() == rows
    assert [Fraction(num, field.denominator) for num in field.numerators.tolist()] == weights
    assert raster.tobytes() == _rasterize_full_grid(field, _CUT_GRID, _CUT_BOUNDS).tobytes()
    probes = rng.uniform(-1.5, 1.5, size=(40, 2)).tolist()
    # Disk centers and rectangle corners (x0, y1).
    probes += [[p[0], p[1]] if m.kind == "seb2" else [p[0], p[3]] for p in rows[:20]]
    for x, y in probes:
        hit = [w for p, w in zip(rows, weights) if _contains(field.kind, p, x, y)]
        assert field.query_exact((x, y)) == sum(hit, Fraction(0))
        assert field.query_many([(x, y)])[0] == min(1.0, _in_order(float(w) for w in hit))


def test_window_edges_are_the_unique_edges():
    """The compressed grid's edges, counted per edge, are ``np.unique``'s:
    no windows, full-grid windows, one-cell grids and random windows."""
    rng = np.random.default_rng(49)
    for size in (1, 2, 7, 48, 256):
        for count in (0, 1, 3, 40, 500):
            lo = rng.integers(0, size + 1, size=count)
            hi = rng.integers(lo, size + 1)
            full = np.zeros(count, dtype=lo.dtype), np.full(count, size)
            for edges in ((lo, hi), full, (hi, lo), (lo[:count // 2], hi[count // 2:])):
                got = sip_mod._edges(size, *edges)
                want = np.unique(np.concatenate([[0, size], *edges]))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("measure", ["aabb_perimeter", "aabb_area"])
def test_exact_sip_of_a_discretized_set_rasterizes_like_full_grid(measure):
    # The sip-pipeline's traffic: Gaussians and a uniform disk on the
    # bounding-box lattice, a few thousand rectangles of unequal weights
    # that cover tens of blocks each.  The run adds, chosen or forced, and
    # the slice adds forced give the reference bit for bit.
    cset = ContinuousUncertainSet((GaussianPoint((-1.0, -0.6), 0.16 * np.eye(2)),
                                   UniformDiskPoint((1.0, -0.5), 0.55),
                                   GaussianPoint((0.1, 0.9), 0.2 * np.eye(2))), 2)
    uset = discretize_for_measure(cset, MeasureId("aabb_perimeter"), 0.2, points_per_point=9)
    field = deterministic_sip(uset, MeasureId(measure))
    grid, bounds = (48, 40), (-3.0, -2.5, 3.0, 2.5)
    want = _rasterize_full_grid(field, grid, bounds)
    assert len(field.weights) > 4000 and want.max() > 0.9
    got, path = _rasterize_by_path(field, grid, bounds)
    assert got.tobytes() == want.tobytes() and path == ("_rectangle_values", False)
    for cut, by_runs in ((sip_mod._SLICE_ADD_BLOCKS, True), (_RUN_ADDS, True), (_SLICE_ADDS, False)):
        got, ran = _rasterize_rectangles_by_side(field, grid, bounds, cut)
        assert got.tobytes() == want.tobytes()
        assert ran == by_runs


@pytest.mark.parametrize("measure", ["seb2", "aabb_perimeter"])
def test_random_sip_array_form_rasterizes_like_full_grid(measure):
    uset = random_indecisive(np.random.default_rng(29), 5, 3)
    field = build_random_sip(uset, MeasureId(measure), SampleBudget(0.2, 0.2, explicit_m=300), seed=3)
    raster = rasterize_sip(field, _CUT_GRID, _CUT_BOUNDS).values
    assert raster.tobytes() == _rasterize_full_grid(field, _CUT_GRID, _CUT_BOUNDS).tobytes()
    assert (field.weights == 1 / 300).all()
    # Monte Carlo weights are floats, not exact probabilities.
    with pytest.raises(ValueError, match="exact"):
        field.query_exact((0.0, 0.0))


def test_shapes_view_and_exact_queries_from_arrays():
    disks = SipField.from_arrays(DISK, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.5)], [1 / 3, 0.25], [4, 3], 12)
    rects = SipField.from_arrays(RECT, [(0.5, -1.0, 2.0, 1.0), (-1.0, -1.0, 1.0, 0.5)], [1 / 3, 0.25], [4, 3], 12)
    assert disks.params.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.5]]
    assert rects.params.tolist() == [[0.5, -1.0, 2.0, 1.0], [-1.0, -1.0, 1.0, 0.5]]
    for field in (disks, rects):
        assert [Fraction(num, field.denominator) for num in field.numerators.tolist()] == [Fraction(1, 3), Fraction(1, 4)]
        assert field.weights.tolist() == [1 / 3, 0.25]
        assert field.query_exact((0.75, 0.0)) == Fraction(1, 3) + Fraction(1, 4)
        assert field.query_exact((3.0, 0.0)) == 0
        assert not any(v.flags.writeable for v in (field.params, field.weights, field.numerators))
    assert (disks.kind, rects.kind) == (DISK, RECT)
    assert not hasattr(disks, "kinds")


@pytest.mark.parametrize("measure", ["seb2", "aabb_perimeter", "aabb_area"])
def test_shapes_is_params_under_the_name_the_benchmark_counts(measure):
    # perfbench/layers.py counts a field's shapes as len(field.shapes).
    uset = random_indecisive(np.random.default_rng(37), 4, 3)
    m = MeasureId(measure)
    for field in (deterministic_sip(uset, m), build_random_sip(uset, m, SampleBudget(0.2, 0.2, explicit_m=50), seed=2)):
        assert field.shapes is field.params
        assert len(field.shapes) == len(field.weights) > 0


def test_rasterize_rejects_non_finite_bounds():
    field = _field([(_Rect(0.0, 0.0, 1.0, 1.0), 1.0)])
    with pytest.raises(ValueError):
        rasterize_sip(field, (4, 4), (-math.inf, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("grid, bounds, message", [
    ((0, 4), (0.0, 0.0, 1.0, 1.0), "grid width must be an integer of at least 1, got 0"),
    ((4, 4), (1.0, 1.0, 0.0, 0.0), "bounds must be well-ordered"),
    ((4, 4), (0.0, 0.0, 1.0, math.nan), "bounds must be finite"),
    ((4, 4), (-1e308, -1e308, 1e308, 1e308), "bounds must have a finite width and height"),
], ids=["grid", "reversed", "nan", "overflowing-width"])
def test_rasterize_refuses_a_bad_window_before_any_work(monkeypatch, grid, bounds, message):
    def fail(*args, **kwargs):
        raise AssertionError("the field was rasterized before its window was checked")

    for name in ("_disk_runs", *_PATHS):
        monkeypatch.setattr(sip_mod, name, fail)
    for field in (_field([(_Disk(0.5, 0.5, 0.3), 0.5), (_Disk(0.2, 0.5, 0.3), 0.25)]),
                  _field([(_Rect(0.0, 0.0, 1.0, 1.0), 0.5), (_Rect(0.2, 0.0, 1.0, 0.5), 0.25)])):
        with pytest.raises(ValueError, match=message):
            rasterize_sip(field, grid, bounds)


def test_disk_query_equals_query_many_on_the_boundary():
    # Points on a disk's circle up to rounding, with r the square root of
    # the scalar squared distance.  CPython's float ** squares with libm
    # pow, which for some of them decides containment apart from the
    # product of an array square; query_exact and query_many must give one
    # answer.
    rng = np.random.default_rng(5)
    centers, points = rng.uniform(-1.0, 1.0, size=(2, 200_000, 2)).tolist()
    split = []
    for (cx, cy), (px, py) in zip(centers, points):
        dx, dy = px - cx, py - cy
        r = math.sqrt(dx**2 + dy**2)
        if (dx**2 + dy**2 <= r * r) != (dx * dx + dy * dy <= r * r):
            split.append(((cx, cy, r), (px, py)))
    assert len(split) >= 10
    for disk, point in split:
        field = SipField.from_arrays(DISK, [disk], [1.0], [1], 1)
        assert field.query_exact(point) == field.query_many([point])[0]


def _raster_query(raster, point) -> float:
    """Reference: the former one-point raster lookup."""
    x, y = float(point[0]), float(point[1])
    x0, y0, x1, y1 = raster.bounds
    h, w = raster.values.shape
    j = int(np.clip((x - x0) / (x1 - x0) * w, 0, w - 1))
    i = int(np.clip((y - y0) / (y1 - y0) * h, 0, h - 1))
    return float(raster.values[i, j])


def test_raster_query_many_equals_query():
    rng = np.random.default_rng(5)
    raster = Raster(rng.random((9, 13)), (-1.0, 2.0, 3.0, 5.0))
    pts = np.column_stack([rng.uniform(-2.0, 4.0, 200), rng.uniform(1.0, 6.0, 200)])
    # Points on the bounds and on interior cell boundaries.
    pts = np.vstack([pts, [[-1.0, 2.0], [3.0, 5.0], [-1.0, 5.0], [1.0, 3.0], [math.inf, -math.inf]]])
    got = raster.query_many(pts)
    assert got.tobytes() == np.array([_raster_query(raster, p) for p in pts]).tobytes()
    assert raster.query_many([]).shape == (0,)
    with pytest.raises(ValueError, match="NaN"):
        raster.query_many([[0.0, math.nan]])


def _loop_hits(field, pts) -> list:
    """Reference containment, one shape at a time: each shape's (p,) mask."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [_contains(field.kind, p, pts[:, 0], pts[:, 1]) for p in field.params.tolist()]


def _loop_query_many(field, pts) -> np.ndarray:
    """Reference: the former per-shape loop, each containing shape's weight
    added in turn."""
    out = np.zeros(len(pts))
    for hit, w in zip(_loop_hits(field, pts), field.weights.tolist()):
        out[hit] += w
    return np.minimum(out, 1.0)


def _random_field(rng, m, kind):
    """m random disks or closed boxes with exact weights, among them
    zero-radius disks, or empty, NaN and zero-width boxes; and query points
    on their circles and edges, at their centers and corners, at random,
    and infinite, NaN and far away."""
    params = rng.uniform(-2.0, 2.0, (m, 4))
    if kind == DISK:
        params = params[:, :3]
        params[:, 2] = rng.uniform(0.0, 1.5, m) * (rng.random(m) < 0.9)
    else:
        params = np.sort(params[:, [0, 2, 1, 3]].reshape(-1, 2, 2), axis=2).reshape(-1, 4)[:, [0, 2, 1, 3]]
        params[::7, 0] = params[::7, 2] + 0.5  # reversed: empty
        params[1::11, 3] = math.nan
        params[2::9, 2] = params[2::9, 0]  # zero width
    nums = rng.integers(1, 50, m)
    denom = int(nums.sum()) + int(rng.integers(1, 3))
    field = SipField.from_arrays(kind, params, [n / denom for n in nums.tolist()], nums, denom)
    pts = [rng.uniform(-3.0, 3.0, (200, 2))]
    for p in params[:60].tolist():
        if kind == DISK:
            a, b, c = p
            t = rng.uniform(0.0, 2 * math.pi)
            pts.append([[a + c * math.cos(t), b + c * math.sin(t)], [a + c, b], [a, b - c], [a, b]])
        else:
            a, b, c, d = p
            mid = b if math.isnan(d) else rng.uniform(b, d)
            pts.append([[a, b], [c, d], [a, mid], [c, mid]])
    pts.append([[math.inf, 0.0], [-math.inf, math.inf], [math.nan, 0.0], [1e200, -1e200]])
    return field, np.vstack(pts)


@pytest.mark.parametrize("offset_cells", [1, 500, None])
def test_array_queries_match_the_per_shape_loop(monkeypatch, offset_cells):
    # Chunks of one shape, of a few shapes, and the default.
    if offset_cells is not None:
        monkeypatch.setattr(sip_mod, "_OFFSET_CELLS", offset_cells)
    rng = np.random.default_rng(31)
    for m in (0, 1, 2, 37, 300):
        for kind in (DISK, RECT):
            field, pts = _random_field(rng, m, kind)
            got = field.query_many(pts)
            assert got.tobytes() == _loop_query_many(field, pts).tobytes()
            assert field.query_many(pts[:0]).shape == (0,)
            hits = _loop_hits(field, pts)
            for i in range(0, len(pts), 3):
                want = sum((Fraction(n, field.denominator) for n, hit in zip(field.numerators.tolist(), hits)
                            if hit[i]), Fraction(0))
                assert field.query_exact(pts[i]) == want


def _unit_disk_field():
    return SipField.from_arrays(DISK, [(0.0, 0.0, 1.0)], [1.0], [1], 1)


@pytest.mark.parametrize("field", [_unit_disk_field, lambda: Raster(np.ones((4, 4)), (-1.0, -1.0, 1.0, 1.0))],
                         ids=["shapes", "raster"])
@pytest.mark.parametrize("points", [[[0.5, 0.5, 0.1]], (0.5, 0.5), [[[0.5, 0.5]]], [[0.5]], 0.5])
def test_query_many_refuses_points_that_are_not_planar(field, points):
    with pytest.raises(ValueError, match=r"\(p, 2\) array"):
        field().query_many(points)


def test_one_point_queries_refuse_points_that_are_not_planar():
    field = _unit_disk_field()
    for point in ((0.5, 0.5, 0.1), (0.5,)):
        with pytest.raises(ValueError, match=r"\(p, 2\) array"):
            field.query_many([point])
        with pytest.raises(ValueError, match=r"\(p, 2\) array"):
            field.query_exact(point)


def test_isolines_golden():
    """Segments, saddle rules and chaining pinned by the sha256 of the SVG,
    of the full-precision polylines and of the segment list, on a raster
    whose cells hit every case, the saddles (5 and 10) with the cell-center
    average both above and below the level."""
    h, w = 9, 12
    k = np.arange(h * w, dtype=np.float64).reshape(h, w)
    raster = Raster((k * k * 0.6180339887498949) % 1.0, (-1.0, 0.5, 2.0, 3.0))
    v = raster.values
    hits = set()
    for level in DEFAULT_LEVELS:
        a = (v > level).astype(int)
        case = a[:-1, :-1] | a[:-1, 1:] << 1 | a[1:, 1:] << 2 | a[1:, :-1] << 3
        center_above = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, 1:] + v[1:, :-1]) > level
        hits |= set(zip(case.ravel().tolist(), (center_above & ((case == 5) | (case == 10))).ravel().tolist()))
    assert hits == {(c, False) for c in range(16)} | {(5, True), (10, True)}

    contours = extract_isolines(raster, DEFAULT_LEVELS)
    svg = isolines_svg(contours, raster.bounds)
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "1cdadfd16d4b5403b31bbc71791b9e0804ba2a479e02245d229759759a1104d1"
    )
    digest = hashlib.sha256()
    for level in sorted(contours):
        for poly in contours[level]:
            digest.update(np.ascontiguousarray(poly, dtype="<f8").tobytes() + b"|")
    assert digest.hexdigest() == "ce10bef68104384d6238eee66057dd68827add6215b28f04b84d3ed621fdfb7f"
    # The segment list itself: per-cell segment order and endpoint order.
    xs, ys = raster.cell_centers()
    digest = hashlib.sha256()
    for level in DEFAULT_LEVELS:
        segs = _segments_for_level(raster.values, xs, ys, level)
        digest.update(np.array(segs, dtype="<f8").tobytes() + b"|")
    assert digest.hexdigest() == "285ac763f7ec865da442279f1ca8955c3311c537c716320584e7959e0119b53c"


def test_rasterize_sip_refuses_past_the_grid_cell_cap(monkeypatch):
    # A 1000 x 1000 raster takes 8 MB; refused at a cap of 999 999 cells
    # before any of it is allocated.
    field = _field([(_Disk(0.0, 0.0, 1.0), 1)])
    monkeypatch.setattr(sip_mod, "_GRID_CELLS_CAP", 999_999)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="^--grid 1000,1000 has 1000000 cells, exceeding the cap of 999999$"):
            rasterize_sip(field, (1000, 1000), (-1.0, -1.0, 1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
