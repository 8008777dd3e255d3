"""Shape-inclusion-probability fields.

A SIP field answers, for any query point, the probability that the fitted
summarizing shape (minimum enclosing disk, bounding rectangle) contains it.
Fields are backed either by a weighted shape list (exact engine or Monte
Carlo samples) or by a raster grid of cell-center values; rasters can be
written to and read from 16-bit binary PGM with a JSON bounds sidecar.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "DiskShape",
    "RectShape",
    "Raster",
    "SipField",
    "rasterize_sip",
    "write_pgm",
    "read_pgm",
]


@dataclass(frozen=True)
class DiskShape:
    cx: float
    cy: float
    r: float

    def contains(self, x, y):
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 <= self.r * self.r


@dataclass(frozen=True)
class RectShape:
    x0: float
    y0: float
    x1: float
    y1: float

    def contains(self, x, y):
        return (x >= self.x0) & (x <= self.x1) & (y >= self.y0) & (y <= self.y1)


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
        if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
            raise ValueError("raster values must lie in [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        x0, y0, x1, y1 = (float(v) for v in self.bounds)
        if not (x1 > x0 and y1 > y0):
            raise ValueError("bounds must be well-ordered")
        object.__setattr__(self, "bounds", (x0, y0, x1, y1))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        x0, y0, x1, y1 = self.bounds
        h, w = self.values.shape
        xs = x0 + (np.arange(w) + 0.5) * (x1 - x0) / w
        ys = y0 + (np.arange(h) + 0.5) * (y1 - y0) / h
        return xs, ys


@dataclass(frozen=True, eq=False)
class SipField:
    """Either shape-backed (exact weighted query) or raster-backed."""

    shapes: tuple | None = None  # tuple of (DiskShape | RectShape, weight)
    raster: Raster | None = None

    def __post_init__(self):
        if (self.shapes is None) == (self.raster is None):
            raise ValueError("provide exactly one backing (shapes or raster)")

    @staticmethod
    def from_shapes(shapes) -> "SipField":
        return SipField(shapes=tuple(shapes), raster=None)

    @staticmethod
    def from_raster(raster: Raster) -> "SipField":
        return SipField(shapes=None, raster=raster)

    def query(self, point) -> float:
        """Containment probability at one point (float)."""
        x, y = float(point[0]), float(point[1])
        if self.shapes is not None:
            total = 0.0
            for shape, w in self.shapes:
                if shape.contains(x, y):
                    total += float(w)
            return min(1.0, total)
        rast = self.raster
        x0, y0, x1, y1 = rast.bounds
        h, w = rast.values.shape
        j = int(np.clip((x - x0) / (x1 - x0) * w, 0, w - 1))
        i = int(np.clip((y - y0) / (y1 - y0) * h, 0, h - 1))
        return float(rast.values[i, j])

    def query_exact(self, point) -> Fraction:
        """Exact rational containment probability; requires rational shape
        weights (deterministic engine output)."""
        if self.shapes is None:
            raise ValueError("exact queries need a shape-backed field")
        x, y = float(point[0]), float(point[1])
        total = Fraction(0)
        for shape, w in self.shapes:
            if shape.contains(x, y):
                total += Fraction(w)
        return total

    def query_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0)
        if self.shapes is not None:
            out = np.zeros(len(pts))
            x = pts[:, 0]
            y = pts[:, 1]
            for shape, w in self.shapes:
                out[shape.contains(x, y)] += float(w)
            return np.minimum(out, 1.0)
        rast = self.raster
        x0, y0, x1, y1 = rast.bounds
        h, w = rast.values.shape
        fx = np.clip((pts[:, 0] - x0) / (x1 - x0) * w, 0, w - 1)
        fy = np.clip((pts[:, 1] - y0) / (y1 - y0) * h, 0, h - 1)
        if np.isnan(fx).any() or np.isnan(fy).any():
            raise ValueError("cannot look up a NaN point in a raster")
        return rast.values[fy.astype(np.intp), fx.astype(np.intp)]


def rasterize_sip(field: SipField, grid: tuple[int, int], bounds) -> SipField:
    """Evaluate a shape-backed field at every cell center of a (w, h) grid.

    Each shape touches only its window of cells, found by bisection on the
    sorted cell centers.  A rectangle's window is exactly the set of centers
    inside the closed box, so its weight is added there with no test.  A
    disk's window is its bounding box, widened cell by cell while the
    one-axis test ``(x - cx) ** 2 <= r * r`` still holds (rounding can put a
    contained center just outside the rounded box); ``contains`` is then
    evaluated in the window.  Every cell receives the same ``float(weight)``
    additions, in shape order, as a test of every shape at every cell would
    give, so the values are bit-for-bit the same.
    """
    if field.shapes is None:
        raise ValueError("rasterize_sip needs a shape-backed field")
    w, h = int(grid[0]), int(grid[1])
    if w <= 0 or h <= 0:
        raise ValueError("grid dimensions must be positive")
    x0, y0, x1, y1 = (float(v) for v in bounds)
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
        raise ValueError("bounds must be finite")
    xs = x0 + (np.arange(w) + 0.5) * (x1 - x0) / w
    ys = y0 + (np.arange(h) + 0.5) * (y1 - y0) / h
    xl, yl = xs.tolist(), ys.tolist()
    values = np.zeros((h, w))
    for shape, weight in field.shapes:
        if isinstance(shape, RectShape):
            if not (shape.x0 <= shape.x1 and shape.y0 <= shape.y1):
                continue  # empty, or NaN: contains nothing
            j0, j1 = bisect_left(xl, shape.x0), bisect_right(xl, shape.x1)
            i0, i1 = bisect_left(yl, shape.y0), bisect_right(yl, shape.y1)
            values[i0:i1, j0:j1] += float(weight)
            continue
        j0, j1 = _disk_window(xl, shape.cx, shape.r)
        i0, i1 = _disk_window(yl, shape.cy, shape.r)
        win = values[i0:i1, j0:j1]
        np.add(win, float(weight), out=win, where=shape.contains(xs[j0:j1], ys[i0:i1, None]))
    values = np.minimum(values, 1.0)
    return SipField.from_raster(Raster(values, (x0, y0, x1, y1)))


def _disk_window(centers: list, c: float, r: float) -> tuple[int, int]:
    """Index range [lo, hi) of the sorted ``centers`` that can satisfy
    ``(x - c) ** 2 + dy2 <= r * r`` for some ``dy2 >= 0``.

    A center passes only if ``(x - c) ** 2 <= r * r`` in floating point,
    and that test is monotone on each side of ``c``, so the passing centers
    left of the rounded ``c - |r|`` run up to it without a gap (likewise
    right of ``c + |r|``).
    """
    rr = r * r
    ext = abs(r)
    lo, hi = bisect_left(centers, c - ext), bisect_right(centers, c + ext)
    while lo > 0 and (centers[lo - 1] - c) * (centers[lo - 1] - c) <= rr:
        lo -= 1
    while hi < len(centers) and (centers[hi] - c) * (centers[hi] - c) <= rr:
        hi += 1
    return lo, hi


def write_pgm(raster: Raster, path) -> None:
    """Binary 16-bit PGM (P5, big-endian) plus a JSON sidecar with bounds."""
    path = Path(path)
    h, w = raster.values.shape
    quantized = np.round(raster.values * 65535.0).astype(">u2")
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    path.write_bytes(header + quantized.tobytes())
    sidecar = {"bounds": list(raster.bounds), "width": w, "height": h}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))


def read_pgm(path) -> Raster:
    path = Path(path)
    data = path.read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError("expected binary PGM (P5)")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValueError("expected 16-bit PGM")
    pos += 1  # single whitespace after maxval
    raw = np.frombuffer(data, dtype=">u2", count=w * h, offset=pos)
    values = raw.reshape(h, w).astype(np.float64) / 65535.0
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    return Raster(values, tuple(sidecar["bounds"]))
