"""Shape-inclusion-probability fields.

A SIP field answers, for any query point, the probability that the fitted
summarizing shape (minimum enclosing disk, bounding rectangle) contains it.
A :class:`SipField` is a weighted set of shapes in array form, from the
exact engine or from Monte Carlo samples.  :func:`rasterize_sip` evaluates
it at the cell centers of a :class:`Raster`, which can be written to and
read from 16-bit binary PGM with a JSON bounds sidecar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .geometry import _WEIGHT_SLACK
from .model import ResourceCapError, ValidationError
from .quantize import _exact_numerators, _integer, _ratio_floats

__all__ = [
    "DISK",
    "RECT",
    "Raster",
    "SipField",
    "check_window",
    "rasterize_sip",
    "shape_kind",
    "write_pgm",
]


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """The centers ``lo + (j + 1/2) (hi - lo) / n`` of n cells along one axis:
    the one definition the raster, the rasterizer and the isolines share."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _planar(points) -> np.ndarray:
    """Query points as a (p, 2) float array; an empty list is no points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (0,):
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"query points must form a (p, 2) array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True, eq=False)
class Raster:
    """Row-major grid of values in [0, 1]; values[i, j] is the cell centered
    at (x0 + (j + 1/2) dx, y0 + (i + 1/2) dy)."""

    values: np.ndarray  # (height, width)
    bounds: tuple[float, float, float, float]  # x0, y0, x1, y1

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("raster values must be 2-d")
        if not np.isfinite(vals).all():
            raise ValueError("raster values must be finite")
        if vals.min() < -_WEIGHT_SLACK or vals.max() > 1 + _WEIGHT_SLACK:
            raise ValueError("raster values must lie in [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bounds", check_window(bounds=self.bounds)[1])

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        x0, y0, x1, y1 = self.bounds
        h, w = self.values.shape
        return _cell_centers(x0, x1, w), _cell_centers(y0, y1, h)

    def query_many(self, points) -> np.ndarray:
        """The value of the cell holding each of the (p, 2) points; points
        outside the bounds read the nearest edge cell."""
        pts = _planar(points)
        x0, y0, x1, y1 = self.bounds
        h, w = self.values.shape
        fx = np.clip((pts[:, 0] - x0) / (x1 - x0) * w, 0, w - 1)
        fy = np.clip((pts[:, 1] - y0) / (y1 - y0) * h, 0, h - 1)
        if np.isnan(fx).any() or np.isnan(fy).any():
            raise ValueError("cannot look up a NaN point in a raster")
        return self.values[fy.astype(np.intp), fx.astype(np.intp)]


DISK = 0
RECT = 1


def shape_kind(measure) -> int:
    """The family of a measure's SIP field: :data:`DISK` for seb2 (the
    smallest enclosing disk), :data:`RECT` for the bounding-box measures;
    any other measure has no summarizing shape (``ValidationError``)."""
    kind = {"seb2": DISK, "aabb_perimeter": RECT, "aabb_area": RECT}.get(measure.kind)
    if kind is None:
        raise ValidationError("SIP needs a disk or rectangle summarizing shape")
    return kind


# Cells per chunk: about _OFFSET_CELLS floats (1 MB) of rasterize_sip's
# per-row runs or of its cells to add, or of SipField.query_many's
# per-shape masked weights.
_OFFSET_CELLS = 131072


@dataclass(frozen=True, eq=False, init=False)
class SipField:
    """A SIP field: m weighted shapes of one family in array form.

    ``kind`` is :data:`DISK` or :data:`RECT`; ``params`` is (m, 3) float
    (cx, cy, r) rows for disks and (m, 4) (x0, y0, x1, y1) rows for closed
    rectangles; float ``weights``; and exact integer ``numerators`` over one
    positive integer ``denominator`` when the maker has them (the exact
    engine), else both None; each exact weight is its numerator over the
    denominator, rounded once.  The arrays are read-only.  ``shapes`` is
    ``params`` under the name the benchmark counts, not another view.

    Weights must be finite.  That is what makes the dense adds of the
    queries and of :func:`rasterize_sip` bit-safe: a point outside a shape
    receives ``+0.0`` or ``0 * weight``, which is +0.0 or -0.0 and leaves
    any sum unchanged, where an infinite or NaN weight would give NaN.
    """

    kind: int
    params: np.ndarray
    weights: np.ndarray
    numerators: np.ndarray | None
    denominator: int | None

    @classmethod
    def from_arrays(cls, kind, params, weights, numerators=None, denominator=None) -> "SipField":
        """The field of m shapes of one family in its array form (see the
        class).  With exact weights, ``weights`` may be None: each float
        weight is then the :func:`~uqgeom.quantize._ratio_floats` of its
        numerator over the denominator; given weights must equal it.
        Exact weights are checked and stored as
        :func:`~uqgeom.quantize._exact_numerators` says."""
        if type(kind) is not int or kind not in (DISK, RECT):
            raise ValueError("a SIP field's kind must be DISK or RECT")
        if (numerators is None) != (denominator is None):
            raise ValueError("exact weights need both the numerators and their denominator")
        if numerators is not None:
            numerators, denominator = _exact_numerators(numerators, denominator)
            try:
                exact = _ratio_floats(numerators, denominator)
            except OverflowError:
                raise ValueError("shape weights must be finite") from None
            weights = exact if weights is None else weights
        # Copies in the canonical float64 dtype: np.array keeps an equal dtype
        # instance of its input (one unpickled, say), slow in np.add.at.
        params = np.asarray(params, dtype=np.float64).astype(np.float64)
        weights = np.asarray(weights, dtype=np.float64).astype(np.float64)
        m, width = weights.size, 3 if kind == DISK else 4
        if weights.shape != (m,) or params.shape != (m, width):
            raise ValueError(f"need one weight and one ({width},) parameter row per shape")
        if not np.isfinite(weights).all():
            raise ValueError("shape weights must be finite")
        # One numerator per weight: (weights == exact) would broadcast one.
        if numerators is not None and not np.array_equal(weights, exact):
            raise ValueError("each exact shape weight must be its numerator over the denominator")
        field = cls.__new__(cls)
        for name, value in (("params", params), ("weights", weights), ("numerators", numerators)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(field, name, value)
        object.__setattr__(field, "kind", kind)
        object.__setattr__(field, "denominator", denominator)
        return field

    @property
    def shapes(self) -> np.ndarray:
        """``params``, under the name the benchmark counts."""
        return self.params

    def _hits(self, part: slice, pts: np.ndarray) -> np.ndarray:
        """(shapes, points) containment of the shapes in ``part``: a disk
        holds a point when ``dx * dx + dy * dy <= r * r``, a rectangle when
        the closed box does: the one containment rule of a field.
        Overflow and ``inf - inf`` give inf and NaN, which contain nothing,
        as on Python floats."""
        p = self.params[part].T[:, :, None]
        x, y = pts[:, 0], pts[:, 1]
        if self.kind == RECT:
            return (x >= p[0]) & (x <= p[2]) & (y >= p[1]) & (y <= p[3])
        with np.errstate(over="ignore", invalid="ignore"):
            dx, dy = x - p[0], y - p[1]
            return dx * dx + dy * dy <= p[2] * p[2]

    def query_exact(self, point) -> Fraction:
        """Exact rational containment probability; needs a field with exact
        weights (the deterministic engine's)."""
        if self.numerators is None:
            raise ValueError("exact queries need a field with exact weights")
        hit = self._hits(slice(None), _planar([point]))[:, 0]
        return Fraction(sum(self.numerators[hit].tolist()), self.denominator)

    def query_many(self, points) -> np.ndarray:
        """Containment probability at each of the (p, 2) points, capped at 1.

        Each point's weights are added in shape order, starting from +0.0,
        by a sequential ``np.add.accumulate`` over chunks of shapes: the
        same float sum as adding each containing shape's weight in turn.
        """
        pts = _planar(points)
        out = np.zeros(len(pts))
        step = max(1, _OFFSET_CELLS // max(1, len(pts)))
        for start in range(0, len(self.weights), step):
            part = slice(start, start + step)
            rows = np.where(self._hits(part, pts), self.weights[part, None], 0.0)
            rows[0] += out  # the running total: float addition commutes
            out = np.add.accumulate(rows, axis=0)[-1]
        return np.minimum(out, 1.0)


# Cells of a raster grid: 4096 x 4096 float64 values, 128 MB.
_GRID_CELLS_CAP = 4096 * 4096


def check_window(grid=None, bounds=None):
    """A raster window's (w, h) grid as ints and (x0, y0, x1, y1) bounds as
    floats, each checked when given: the grid must be two integers of at
    least 1 (``quantize._integer``) and of at most ``_GRID_CELLS_CAP`` cells
    (``ResourceCapError``), and the bounds finite, well-ordered and of
    finite width and height (``ValueError``).  The CLI checks its flags
    with it before it builds a field, :func:`rasterize_sip` its window
    before any work, and a :class:`Raster` its bounds."""
    if grid is not None:
        w, h = grid = _integer(grid[0], "grid width", 1), _integer(grid[1], "grid height", 1)
        if w * h > _GRID_CELLS_CAP:
            raise ResourceCapError(f"--grid {w},{h} has {w * h} cells, exceeding the cap of {_GRID_CELLS_CAP}")
    if bounds is not None:
        x0, y0, x1, y1 = bounds = tuple(float(v) for v in bounds)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError("bounds must be finite")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("bounds must be well-ordered")
        if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
            raise ValueError("bounds must have a finite width and height")
    return grid, bounds


def rasterize_sip(field: SipField, grid: tuple[int, int], bounds) -> Raster:
    """Evaluate the field at every cell center of a (w, h) grid, once the
    window passes :func:`check_window`.

    The value of a cell is its containing shapes' weights added in shape
    order to +0.0, capped at 1: bit for bit what a test of every shape at
    every cell gives, read from the field's arrays.  Every shape's window of
    cells is found at once with ``np.searchsorted`` on the cell centers.

    - *Rectangles*.  A window is the set of centers inside the closed box
      (an empty or NaN box gets an empty window).  Equal weights: each
      cell's count comes from a 2-D difference table of the window corners.
      Otherwise cells between the same consecutive window edges are covered
      by the same rectangles in the same order, so the adds run on the grid
      compressed at the distinct window edges, and each block is copied to
      its cells.  There a rectangle covers one run of block columns on each
      of its block rows, and the blocks of the runs are added in shape
      order by ``np.add.at``, as for disks; where the rectangles cover more
      than ``_SLICE_ADD_BLOCKS`` blocks each on the mean, one slice add per
      rectangle, in shape order, is faster.
    - *Disks*.  One rule, :func:`_disk_runs`, finds every run of centers a
      disk covers.  A disk's windows are its runs along the whole x and y
      axes through its center (``dy2 = 0``), the centers that pass the
      one-axis test ``(x - cx) ** 2 <= r * r``: every center the disk
      holds passes it, since adding ``dy2 >= 0`` never rounds below
      ``dx * dx``.  On each window row the disk covers one run of columns,
      maybe empty, which adds nothing.  Equal weights: each cell's count
      comes from per-row differences of the runs.  Otherwise the cells of
      the runs are added in shape order by ``np.add.at``, one index at a
      time (:func:`_add_runs`, which the rectangles share).

    A cell covered c times by shapes of one weight (every Monte Carlo
    field) holds the weight added c times to +0.0 in any order, so a count
    indexes the running sum of the weight from 0.0.
    """
    (w, h), (x0, y0, x1, y1) = check_window(grid, bounds)
    xs, ys = _cell_centers(x0, x1, w), _cell_centers(y0, y1, h)
    p, weights = field.params, field.weights
    equal = (weights == weights[:1]).all()
    if field.kind == RECT:
        # A reversed or NaN box contains nothing, so its window is emptied.
        j0, j1 = np.searchsorted(xs, p[:, 0], "left"), np.searchsorted(xs, p[:, 2], "right")
        i0, i1 = np.searchsorted(ys, p[:, 1], "left"), np.searchsorted(ys, p[:, 3], "right")
        i1[~((p[:, 0] <= p[:, 2]) & (p[:, 1] <= p[:, 3]))] = 0
        keep = (i0 < i1) & (j0 < j1)
        windows = i0[keep], i1[keep], j0[keep], j1[keep]
        values = _rect_counts(w, h, *windows) if equal else _rectangle_values(w, h, weights[keep], *windows)
    else:
        with np.errstate(over="ignore"):
            rr = p[:, 2] * p[:, 2]
        # The windows: each disk's runs through its center along each axis.
        every, flat = np.arange(len(p)), np.zeros(len(p))
        j0, j1 = _disk_runs(xs, p[:, 0], rr, 0, w, every, flat)
        i0, i1 = _disk_runs(ys, p[:, 1], rr, 0, h, every, flat)
        # Empty windows add nothing; drop them, and no runs are taken there.
        keep = (i0 < i1) & (j0 < j1)
        values = _disk_values(xs, ys, p[keep], rr[keep], weights[keep],
                              i0[keep], i1[keep], j0[keep], j1[keep], equal)
    if equal:
        # table[c] is the weight added c times to +0.0, one addition at a time.
        table = np.zeros(values.max() + 1)
        table[1:] = weights[:1]
        values = np.add.accumulate(table)[values]
    return Raster(np.minimum(values, 1.0), (x0, y0, x1, y1))


def _rect_counts(w, h, i0, i1, j0, j1):
    """Each cell's count of containing rectangles: a sum of the window
    corners in a 2-D difference table."""
    size = (h + 1) * (w + 1)
    rises = np.bincount(np.concatenate([i0 * (w + 1) + j0, i1 * (w + 1) + j1]), minlength=size)
    falls = np.bincount(np.concatenate([i0 * (w + 1) + j1, i1 * (w + 1) + j0]), minlength=size)
    steps = (rises - falls).reshape(h + 1, w + 1)
    return np.cumsum(np.cumsum(steps, axis=0), axis=1)[:h, :w]


def _disk_values(xs, ys, d, rr, weights, i0, i1, j0, j1, equal):
    """The raster of disks (params ``d``, squared radii ``rr``) from each
    window row's run of columns: with ``equal`` weights each cell's count
    of containing disks, from per-row differences of the runs; otherwise
    the weights, the cells of every run added in shape order by
    :func:`_add_runs`."""
    w, h = len(xs), len(ys)
    values = np.zeros(h * (w + 1), dtype=np.intp if equal else np.float64)
    # Chunks of _OFFSET_CELLS / 8 window rows to count (each row's dy2, its
    # window ends and the dozen arrays of _disk_runs take about 1 MB), or
    # of _OFFSET_CELLS / 32 rows to add.
    for part, which, row in _window_rows(i0, i1, _OFFSET_CELLS // (8 if equal else 32)):
        with np.errstate(over="ignore", invalid="ignore"):
            dy2 = ys[row] - d[part, 1][which]
            dy2 *= dy2
        lo, hi = _disk_runs(xs, d[part, 0], rr[part], j0[part][which], j1[part][which], which, dy2)
        if equal:
            values += np.bincount(row * (w + 1) + lo, minlength=len(values))
            values -= np.bincount(row * (w + 1) + hi, minlength=len(values))
        else:
            _add_runs(values, row * (w + 1) + lo, hi - lo, weights[part][which])
    values = values.reshape(h, w + 1)
    return np.cumsum(values, axis=1)[:, :w] if equal else values[:, :w]


def _window_rows(i0, i1, budget):
    """Consecutive slices ``part`` of the windows (rows [i0, i1)), cut by
    :func:`_chunks` at ``budget`` window rows, each with every row of its
    windows in order: the row and its window's index within the part."""
    for part in _chunks(i1 - i0, budget):
        heights = i1[part] - i0[part]
        yield part, np.repeat(np.arange(len(heights)), heights), _spans(i0[part], heights)


def _add_runs(values, starts, sizes, weights):
    """Add each run's weight to the flat cells ``starts + [0, sizes)`` of
    ``values``, run after run: ``np.add.at`` applies its indices one at a
    time, so every cell gets the weights of its runs in run order.  In
    chunks of _OFFSET_CELLS / 4 cells (indices and weights, 1 MB each)."""
    for runs in _chunks(sizes, _OFFSET_CELLS // 4):
        size = sizes[runs]
        np.add.at(values, _spans(starts[runs], size), np.repeat(weights[runs], size))


def _chunks(sizes, budget):
    """Consecutive slices of the entries, cut where the running total of
    ``sizes`` passes a multiple of ``budget``."""
    chunk = np.cumsum(sizes) // max(1, budget)
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(sizes)]
    return map(slice, cuts[:-1], cuts[1:])


def _spans(lo, size):
    """The integers ``lo + [0, size)`` of every range, in order."""
    out = np.repeat(lo - (np.cumsum(size) - size), size)
    out += np.arange(len(out))
    return out


def _disk_runs(xs, c, rr, j0, j1, which, dy2):
    """For each entry, of the disk ``which`` (center ``c[which]`` along the
    axis of sorted cell centers ``xs``, squared radius ``rr[which]``) at
    squared distance ``dy2`` across the axis, the run [lo, hi) of indices j
    whose centers pass ``(xs[j] - c) ** 2 + dy2 <= rr``; ``j0`` and ``j1``
    clamp the first estimates of the ends, per entry.

    Along the axis that squared distance falls and then rises, least at
    index ``jc - 1`` or ``jc``, ``jc`` the first center at or right of
    ``c``, and the test is monotone in it: so the passing centers are one
    run, with ``lo <= jc <= hi`` when it is not empty.  The ends are
    estimated from ``c -/+ sqrt(rr - dy2)`` (a NaN estimate is ``jc``),
    clamped to ``[j0, j1)`` on each side of ``jc``, then each moves a
    center at a time, past the clamp if need be, while the test says so;
    an empty run ends as ``lo == hi == jc``.
    """
    jc = np.searchsorted(xs, c, "left")
    # A center past either end tests as NaN, which contains nothing.
    xe = np.append(xs, np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cs, jcs, rrs = c[which], jc[which], rr[which]
        half = np.sqrt(rrs - dy2)
        # x lies (x - xs[0]) * scale centers right of the first one.
        scale = (len(xs) - 1) / (xs[-1] - xs[0])
        lo = np.fmax(np.fmin(np.ceil((cs - half - xs[0]) * scale), jcs), j0).astype(np.intp)
        hi = np.fmin(np.fmax(np.floor((cs + half - xs[0]) * scale) + 1, jcs), j1).astype(np.intp)

        def inside(s, col):
            dx = xe[col] - cs[s]
            return dx * dx + dy2[s] <= rrs[s]

        _walk(lo, -1, lambda s, col: inside(s, col - 1))
        _walk(lo, 1, lambda s, col: (col < jcs[s]) & ~inside(s, col))
        _walk(hi, 1, lambda s, col: inside(s, col))
        _walk(hi, -1, lambda s, col: (col > jcs[s]) & ~inside(s, col - 1))
    return lo, hi


def _walk(pos, step, go):
    """Move each entry of ``pos`` by ``step`` while ``go(entries, pos)``
    holds for it, all entries together."""
    moving = np.flatnonzero(go(slice(None), pos))
    while len(moving):
        pos[moving] += step
        moving = moving[go(moving, pos[moving])]


# Mean blocks of the compressed grid per rectangle above which
# _rectangle_values adds one slice per rectangle rather than runs: the run
# adds pay per block, the slice adds per rectangle.  Per call on exact
# aabb-perimeter fields (best of seven, both ways in one process, a 2-core
# box), the run adds took 0.24-0.36x the slice adds' time at 71-98 blocks a
# rectangle, 0.63-0.99x at 276-625, 0.93-1.07x at 762-774, 1.07-1.24x at
# 928-980 and 1.36-1.40x at 1287-1379: even near 700, so at 512 the run
# adds are taken only where they win.
_SLICE_ADD_BLOCKS = 512


def _edges(size, lo, hi):
    """The sorted distinct edges of windows in [0, size], 0 and size among them,
    by a count per edge: ``np.unique`` would import all of ``numpy.ma``."""
    return np.flatnonzero(np.bincount(np.concatenate([[0, size], lo, hi])))


def _rectangle_values(w, h, weights, i0, i1, j0, j1):
    """The raster of rectangles alone, added in shape order on the grid
    compressed at the distinct window edges (:func:`_edges`), each block
    then repeated over its rows and columns.  A rectangle covers one run of
    block columns on each of its block rows, and the runs are added by
    :func:`_add_runs`; where the rectangles cover more than
    _SLICE_ADD_BLOCKS blocks each on the mean, one slice add per rectangle
    is faster."""
    rows, cols = _edges(h, i0, i1), _edges(w, j0, j1)
    r0, r1 = np.searchsorted(rows, i0), np.searchsorted(rows, i1)
    c0, c1 = np.searchsorted(cols, j0), np.searchsorted(cols, j1)
    blocks = np.zeros((len(rows) - 1, len(cols) - 1))
    if ((r1 - r0) * (c1 - c0)).sum() > _SLICE_ADD_BLOCKS * len(weights):
        for b0, b1, a0, a1, weight in zip(r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist(), weights.tolist()):
            blocks[b0:b1, a0:a1] += weight
    else:
        stride = blocks.shape[1]
        for part, which, row in _window_rows(r0, r1, _OFFSET_CELLS // 32):
            lo = c0[part][which]
            _add_runs(blocks.reshape(-1), row * stride + lo, c1[part][which] - lo, weights[part][which])
    return np.repeat(np.repeat(blocks, np.diff(rows), axis=0), np.diff(cols), axis=1)


def write_pgm(raster: Raster, path) -> None:
    """Binary 16-bit PGM (P5, big-endian) plus a JSON sidecar with bounds."""
    path = Path(path)
    h, w = raster.values.shape
    quantized = np.round(raster.values * 65535.0).astype(">u2")
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    path.write_bytes(header + quantized.tobytes())
    sidecar = {"bounds": list(raster.bounds), "width": w, "height": h}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))
