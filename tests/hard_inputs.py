"""Seeded hard-input families and an exact miniball referee for the tests.

The stack generators return (rows, n, 2) float64 arrays of planar sets on
which float geometry is fragile: integer lattices with 1e-11 noise (many
near-cocircular and near-collinear points), sets far from the origin
relative to their extent, and sets of extent 1e-9.

:func:`miniball_radius2` is the referee, and :func:`seb2_interval` the
interval a float value of it may take.  It works in ``Fraction``s on the
raw floats, which are dyadic rationals, and imports nothing from the
library: the smallest enclosing disk is the smallest of the disks through
pairs (diametral) and triples (circumscribed) that holds every point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def noisy_lattice_stack(rng: np.random.Generator, rows: int, n: int, span: int = 2, noise: float = 1e-11) -> np.ndarray:
    """Integer points in [-span, span]² moved by normal noise of size
    ``noise``."""
    grid = rng.integers(-span, span + 1, size=(rows, n, 2))
    return grid + rng.normal(size=(rows, n, 2)) * noise


def offset_stack(rng: np.random.Generator, rows: int, n: int, offset: float = 1e7) -> np.ndarray:
    """Standard normal points shifted by ``offset`` on both axes."""
    return rng.normal(size=(rows, n, 2)) + offset


def tiny_extent_stack(rng: np.random.Generator, rows: int, n: int, extent: float = 1e-9, at: float = 3.0) -> np.ndarray:
    """Normal points of size ``extent`` around (at, at)."""
    return rng.normal(size=(rows, n, 2)) * extent + at


def _disk(pts: tuple) -> tuple[Fraction, Fraction, Fraction]:
    """Exact smallest enclosing disk (cx, cy, r²) of two or three points
    given as Fraction pairs: the diametral disk of a pair; the circumcircle
    of a triangle with no obtuse angle; otherwise the diametral disk of its
    longest side."""
    if len(pts) == 3:
        dots = []
        for v in range(3):
            (px, py), (qx, qy) = (pts[t] for t in range(3) if t != v)
            vx, vy = pts[v]
            dots.append((px - vx) * (qx - vx) + (py - vy) * (qy - vy))
        (ax, ay), (bx, by), (cx, cy) = pts
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        det = 2 * (bx * cy - by * cx)
        if min(dots) >= 0 and det != 0:
            b2, c2 = bx * bx + by * by, cx * cx + cy * cy
            ux, uy = (cy * b2 - by * c2) / det, (bx * c2 - cx * b2) / det
            return ax + ux, ay + uy, ux * ux + uy * uy
        v = dots.index(min(dots))
        pts = tuple(pts[t] for t in range(3) if t != v)
    (ax, ay), (bx, by) = pts
    cx, cy = (ax + bx) / 2, (ay + by) / 2
    return cx, cy, (ax - cx) ** 2 + (ay - cy) ** 2


def _float_radii(pts: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Float estimate of each subset's smallest enclosing radius: the
    circumradius of an acute triangle, else half the longest side.  It only
    orders the exact checks."""
    p = pts[subsets]
    if subsets.shape[1] == 2:
        return np.hypot(*(p[:, 0] - p[:, 1]).T) / 2
    sides = np.sort(np.hypot(*(p[:, [1, 2, 0]] - p[:, [2, 0, 1]]).transpose(2, 0, 1)), axis=1)
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        circum = sides.prod(axis=1) / (2 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
    acute = sides[:, 0] ** 2 + sides[:, 1] ** 2 >= sides[:, 2] ** 2
    return np.where(acute & np.isfinite(circum), circum, sides[:, 2] / 2)


def miniball_radius2(points) -> Fraction:
    """Exact squared radius of the smallest enclosing disk of (n, 2) float
    points.

    Every pair and triple S has an exact smallest disk no larger than the
    set's, so a disk of S that holds every point is the set's.  The
    subsets are tried from the largest float estimate down, and the first
    whose exact disk holds every point answers; every subset is tried
    before giving up, so the float order changes only the cost."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) == 1:
        return Fraction(0)
    exact = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    subsets = [np.array(list(itertools.combinations(range(len(pts)), m)), dtype=np.intp) for m in (2, 3) if m <= len(pts)]
    radii = np.concatenate([_float_radii(pts, s) for s in subsets])
    flat = [tuple(row) for s in subsets for row in s.tolist()]
    for i in np.argsort(-radii, kind="stable").tolist():
        cx, cy, r2 = _disk(tuple(exact[j] for j in flat[i]))
        if all((x - cx) ** 2 + (y - cy) ** 2 <= r2 for x, y in exact):
            return r2
    raise AssertionError("no pair or triple disk holds every point")


def miniball_radius(points) -> float:
    """:func:`miniball_radius2`'s radius as a float, within one ulp."""
    return math.sqrt(miniball_radius2(points))


def seb2_interval(points, slack: float) -> tuple[float, float]:
    """Where a float seb2 value of ``points`` may lie around the referee's
    radius R.  A search that stops once every point is within its radius
    plus ``slack`` may end on a ball up to ``slack`` too small, and a
    canonical ball's centre (so a pair's radius) is rounded at the
    coordinates' magnitude, so both sides also allow 4 ulp of R and 1 ulp
    of the largest coordinate."""
    r = miniball_radius(points)
    err = 4 * math.ulp(r) + math.ulp(float(np.abs(points).max()))
    return r - slack - err, r + err
