"""Low-level geometric primitives and the tolerance policy of the package.

Everything here works on plain numpy arrays: a point set is an (m, d)
float64 array with d in {2, 3}.  The minimum enclosing ball here,
:func:`welzl_ball`, is 3-D only; the planar smallest enclosing disk has one
solver, the pivoting search of ``measures._seb2_pivot``.  Welzl's scan is
deterministic: a fixed internal permutation seed makes results
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "as_points",
    "bbox_diameter",
    "coordinate_scale",
    "coordinate_scales",
    "length_scale",
    "unit_vector",
    "Ball",
    "welzl_ball",
    "disk_rect_area",
]

# --------------------------------------------------------------------------
# Tolerance policy: every tolerance of the package; the other modules import
# these names.  The canonical jitter (model.canonical_jitter) moves candidate c
# of a set by c * _JITTER_UNIT * coordinate_scale, the general position the
# exact engine's counting assumes.  The Welzl slacks are relative to the
# coordinate scale and decide output bits.  Measure values compare at
# measures.tolerance, _COMPARE_REL times the value scale of length_scale,
# which is never 0.  The boundary-ball limits of _ball3_3 and _ball3_4
# (1e-10, 1e-12, 1e-300) stay inline literals: read as module globals they
# slow every welzl_ball call.
_JITTER_UNIT = 2.0**-40  # jitter step, relative to the coordinate scale
_COMPARE_REL = 1e-9  # value comparisons, relative to the value scale
_CIRCUM_DET_REL = 1e-14  # planar circumcircle cut, read only by measures._seb2_balls
_CIRCUM_GRAM_REL = 1e-28  # 3-D circumcircle cut on the Gram determinant
_CIRCUMSPHERE_DET_REL = 1e-12  # circumsphere cut on the Cramer determinant
_UNDERFLOW_GUARD = 1e-300  # floor of the magnitudes those cuts scale with
_WEIGHT_SLACK = 1e-12  # float weight sums against 1, raster values against [0, 1]
# Containment slack (Welzl's and the planar pivoting search's) and Welzl's
# duplicate radius, relative to the coordinate scale; a final radius is that
# of the ball of its boundary or basis alone, so neither leaks.
_WELZL_REL, _WELZL_DUP_REL = 1e-13, 1e-10
_KERNEL_SLACK = 1e-12  # absolute slack of alpha_kernel's width check
_FRAME_SPAN_REL = 1e-12  # _normalized_frame's degenerate span, relative to max(axis, 1)
_SYMMETRY_TOL = 1e-12  # rtol and atol of the covariance symmetry check
_EPS_POINT_FLOOR = 1e-6  # the discretizer's smallest per-point epsilon
_WELZL_PERMUTATION_SEED = 0x5EB2C1DC


def as_points(pts) -> np.ndarray:
    """Coerce a sequence of coordinate sequences into an (m, d) float array."""
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError(f"expected an (m, d) array with d in {{2, 3}}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


# Below this norm the sum of squares is a subnormal float.
_TINY_NORM = math.sqrt(np.finfo(np.float64).tiny)


def unit_vector(v, what: str) -> np.ndarray:
    """``v`` divided by its Euclidean norm; a non-finite or zero ``v`` is
    refused with a ValueError naming it ``what``.  Only when the sum of
    squares of the norm overflows or falls below the normal floats (where
    it keeps few digits) is ``v`` first divided by its largest magnitude,
    so every other vector is divided as a plain norm divides it."""
    u = np.asarray(v, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError(f"{what} must be finite")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(u))
        if (norm < _TINY_NORM or norm == math.inf) and u.any():
            u = u / np.abs(u).max()
            norm = float(np.linalg.norm(u))
    if not norm > 0:
        raise ValueError(f"{what} must be nonzero")
    return u / norm


def bbox_diameter(pts: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box."""
    if len(pts) == 0:
        return 0.0
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(math.hypot(*span))


def coordinate_scales(stack: np.ndarray) -> list[float]:
    """Coordinate scale of each set in a (rows, m, d) stack with m >= 1: the
    bbox diagonal with a floor of the coordinate magnitude and of 1."""
    hi = stack.max(axis=1)
    lo = stack.min(axis=1)
    diag = [math.hypot(*span) for span in (hi - lo).tolist()]
    magnitude = np.maximum(np.abs(hi), np.abs(lo)).max(axis=1)
    return np.maximum(np.maximum(diag, magnitude), 1.0).tolist()


def coordinate_scale(pts: np.ndarray) -> float:
    """:func:`coordinate_scales` of one set of m >= 1 points."""
    return coordinate_scales(pts[None])[0]


def length_scale(pts: np.ndarray) -> float:
    """Length scale of value comparisons, never 0 for m >= 1 points: the bbox
    diameter, floored at the farthest the jitter moves one of them."""
    return max(bbox_diameter(pts), len(pts) * _JITTER_UNIT * coordinate_scale(pts))


class Ball:
    """Enclosing ball: its center and radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center: np.ndarray, radius: float):
        self.center = center
        self.radius = radius


_PERMUTATION_CACHE: dict[int, list[int]] = {}


def _fixed_permutation(n: int) -> list[int]:
    cached = _PERMUTATION_CACHE.get(n)
    if cached is None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=_WELZL_PERMUTATION_SEED))
        cached = [int(i) for i in rng.permutation(n)]
        _PERMUTATION_CACHE[n] = cached
    return cached


# Boundary balls of 3 and 4 points in 3-D, one straight-line function per
# size.  Each tries the pairs in lexicographic order (the first strictly
# smallest diametral ball holding the other points wins), then the triples'
# circumcircles the same way, then, for four points, the circumsphere, and
# falls back to the farthest pair's diametral ball.  The balls' bits are
# part of the output, so the float operations and their order are fixed;
# ``** 2`` calls libm ``pow``, which a product does not match.


def _ball3_3(p0, p1, p2):
    x0, y0, z0 = p0
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    best = None
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    cz = 0.5 * (z0 + z1)
    r2 = (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2
    lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
    if not ((x2 - cx) ** 2 + (y2 - cy) ** 2 + (z2 - cz) ** 2 > lim):
        best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x0 + x2)
    cy = 0.5 * (y0 + y2)
    cz = 0.5 * (z0 + z2)
    r2 = (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not ((x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2 > lim):
            best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x1 + x2)
    cy = 0.5 * (y1 + y2)
    cz = 0.5 * (z1 + z2)
    r2 = (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not ((x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2 > lim):
            best, bx, by, bz = r2, cx, cy, cz
    if best is None:
        sol = _circum3(p0, p1, p2)
        if sol is None:
            return _farthest_pair_ball((p0, p1, p2))
        (bx, by, bz), best = sol
    return (bx, by, bz, math.sqrt(best))


def _ball3_4(p0, p1, p2, p3):
    x0, y0, z0 = p0
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    x3, y3, z3 = p3
    best = None
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    cz = 0.5 * (z0 + z1)
    r2 = (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2
    lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
    if not (
        (x2 - cx) ** 2 + (y2 - cy) ** 2 + (z2 - cz) ** 2 > lim
        or (x3 - cx) ** 2 + (y3 - cy) ** 2 + (z3 - cz) ** 2 > lim
    ):
        best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x0 + x2)
    cy = 0.5 * (y0 + y2)
    cz = 0.5 * (z0 + z2)
    r2 = (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not (
            (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2 > lim
            or (x3 - cx) ** 2 + (y3 - cy) ** 2 + (z3 - cz) ** 2 > lim
        ):
            best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x0 + x3)
    cy = 0.5 * (y0 + y3)
    cz = 0.5 * (z0 + z3)
    r2 = (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not (
            (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2 > lim
            or (x2 - cx) ** 2 + (y2 - cy) ** 2 + (z2 - cz) ** 2 > lim
        ):
            best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x1 + x2)
    cy = 0.5 * (y1 + y2)
    cz = 0.5 * (z1 + z2)
    r2 = (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not (
            (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2 > lim
            or (x3 - cx) ** 2 + (y3 - cy) ** 2 + (z3 - cz) ** 2 > lim
        ):
            best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x1 + x3)
    cy = 0.5 * (y1 + y3)
    cz = 0.5 * (z1 + z3)
    r2 = (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not (
            (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2 > lim
            or (x2 - cx) ** 2 + (y2 - cy) ** 2 + (z2 - cz) ** 2 > lim
        ):
            best, bx, by, bz = r2, cx, cy, cz
    cx = 0.5 * (x2 + x3)
    cy = 0.5 * (y2 + y3)
    cz = 0.5 * (z2 + z3)
    r2 = (x2 - cx) ** 2 + (y2 - cy) ** 2 + (z2 - cz) ** 2
    if best is None or not r2 >= best:
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        if not (
            (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2 > lim
            or (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2 > lim
        ):
            best, bx, by, bz = r2, cx, cy, cz
    if best is None:
        sol = _circum3(p0, p1, p2)
        if sol is not None:
            (cx, cy, cz), r2 = sol
            if (best is None or not r2 >= best) and not (
                (x3 - cx) ** 2 + (y3 - cy) ** 2 + (z3 - cz) ** 2 > r2 * (1 + 1e-10)
            ):
                best, bx, by, bz = r2, cx, cy, cz
        sol = _circum3(p0, p1, p3)
        if sol is not None:
            (cx, cy, cz), r2 = sol
            if (best is None or not r2 >= best) and not (
                (x2 - cx) ** 2 + (y2 - cy) ** 2 + (z2 - cz) ** 2 > r2 * (1 + 1e-10)
            ):
                best, bx, by, bz = r2, cx, cy, cz
        sol = _circum3(p0, p2, p3)
        if sol is not None:
            (cx, cy, cz), r2 = sol
            if (best is None or not r2 >= best) and not (
                (x1 - cx) ** 2 + (y1 - cy) ** 2 + (z1 - cz) ** 2 > r2 * (1 + 1e-10)
            ):
                best, bx, by, bz = r2, cx, cy, cz
        sol = _circum3(p1, p2, p3)
        if sol is not None:
            (cx, cy, cz), r2 = sol
            if (best is None or not r2 >= best) and not (
                (x0 - cx) ** 2 + (y0 - cy) ** 2 + (z0 - cz) ** 2 > r2 * (1 + 1e-10)
            ):
                best, bx, by, bz = r2, cx, cy, cz
    if best is None:
        sol = _circumsphere_coords(p0, p1, p2, p3)
        if sol is not None:
            (bx, by, bz), best = sol
    if best is None:
        return _farthest_pair_ball((p0, p1, p2, p3))
    return (bx, by, bz, math.sqrt(best))


def _farthest_pair_ball(pts):
    """Diametral ball of the farthest pair of a degenerate boundary set."""
    dmax, (i, j) = -1.0, (0, len(pts) - 1)
    for a, b in itertools.combinations(range(len(pts)), 2):
        p, q = pts[a], pts[b]
        dist = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
        if dist > dmax:
            dmax, i, j = dist, a, b
    center = [0.5 * (u + v) for u, v in zip(pts[i], pts[j])]
    return (*center, math.sqrt(0.25 * dmax))


def _circum3(a, b, c):
    """Circumcircle (center, squared radius) of three points in 3-D, or
    None when their Gram determinant is too small to solve."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    uu = ux * ux + uy * uy + uz * uz
    vv = vx * vx + vy * vy + vz * vz
    uv = ux * vx + uy * vy + uz * vz
    det = uu * vv - uv * uv
    if det <= _CIRCUM_GRAM_REL * max(uu, vv, _UNDERFLOW_GUARD) ** 2:
        return None
    alpha = 0.5 * vv * (uu - uv) / det
    beta = 0.5 * uu * (vv - uv) / det
    cen = (
        a[0] + alpha * ux + beta * vx,
        a[1] + alpha * uy + beta * vy,
        a[2] + alpha * uz + beta * vz,
    )
    r2 = (cen[0] - a[0]) ** 2 + (cen[1] - a[1]) ** 2 + (cen[2] - a[2]) ** 2
    return cen, r2


def _circumsphere_coords(a, b, c, d4):
    ax, ay, az = a
    aa = ax * ax + ay * ay + az * az
    m11, m12, m13 = 2.0 * (b[0] - ax), 2.0 * (b[1] - ay), 2.0 * (b[2] - az)
    m21, m22, m23 = 2.0 * (c[0] - ax), 2.0 * (c[1] - ay), 2.0 * (c[2] - az)
    m31, m32, m33 = 2.0 * (d4[0] - ax), 2.0 * (d4[1] - ay), 2.0 * (d4[2] - az)
    r1 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2] - aa
    r2_ = c[0] * c[0] + c[1] * c[1] + c[2] * c[2] - aa
    r3 = d4[0] * d4[0] + d4[1] * d4[1] + d4[2] * d4[2] - aa
    # Hand-rolled 3x3 solve via Cramer's rule.
    det = (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )
    scale = max(
        abs(m11), abs(m12), abs(m13), abs(m21), abs(m22), abs(m23), abs(m31), abs(m32), abs(m33)
    ) or _UNDERFLOW_GUARD
    if abs(det) <= _CIRCUMSPHERE_DET_REL * scale**3:
        return None
    x = (
        r1 * (m22 * m33 - m23 * m32)
        - m12 * (r2_ * m33 - m23 * r3)
        + m13 * (r2_ * m32 - m22 * r3)
    ) / det
    y = (
        m11 * (r2_ * m33 - m23 * r3)
        - r1 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * r3 - r2_ * m31)
    ) / det
    z = (
        m11 * (m22 * r3 - r2_ * m32)
        - m12 * (m21 * r3 - r2_ * m31)
        + r1 * (m21 * m32 - m22 * m31)
    ) / det
    return (x, y, z), (x - ax) ** 2 + (y - ay) ** 2 + (z - az) ** 2


def welzl_ball(pts: np.ndarray, scale: float | None = None) -> Ball:
    """Minimum enclosing ball of a 3-D set via Welzl's move-to-front
    algorithm.  A planar set is refused: its smallest enclosing disk is
    ``measures.evaluate(MeasureId("seb2"), pts)``, by the pivoting search
    of ``measures._seb2_pivot``.

    The processing order is a fixed pseudo-random permutation, giving the
    expected-linear behaviour of the randomized algorithm with deterministic,
    bit-reproducible output.  The ball is the boundary ball the scan ended
    with.  It need not be the smallest enclosing ball: on near-degenerate
    input (sets far from the origin) the boundary ball of four points can
    leave a point outside, and the radius is then too small.

    ``scale`` is ``coordinate_scale(pts)``, for callers that have it (see
    :func:`coordinate_scales`); it sets the containment slack.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    if d != 3:
        raise ValueError(
            f"welzl_ball takes 3-D points, got d = {d}; the planar smallest enclosing disk is "
            "measures.evaluate(MeasureId('seb2'), pts)"
        )
    if n == 0:
        raise ValueError("need at least one point")
    if n == 1:
        return Ball(pts[0].copy(), 0.0)
    coords = pts.tolist()
    if scale is None:
        scale = coordinate_scale(pts)
    order = list(_fixed_permutation(n))
    # With no boundary the first point starts the ball and stays in place.
    first = (*coords[order[0]], 0.0)
    result = _scan3(coords, order, n, (), first, _WELZL_REL * scale, (_WELZL_DUP_REL * scale) ** 2)
    return Ball(np.array(result[:3]), result[3])


# The scan: the ball of {order[0..count-1]} with ``boundary`` forced on
# the boundary, in one pass over the prefix from ``ball``, the ball of the
# boundary alone (with no boundary, of order[0], which the pass skips).  A
# point outside the current ball (by more than ``slack``) is forced onto
# the boundary of the ball of the points before it, then moved to the front
# so that later passes test it early.  A point within duplicate tolerance
# (``dup2``) of a boundary point is already on the boundary: forcing both
# would make the four-point ball drop genuine constraints.  A boundary of
# four points determines its ball, with no pass.


def _scan3(coords, order, count, boundary, ball, slack, dup2):
    cx, cy, cz = ball[0], ball[1], ball[2]
    r = ball[3] + slack
    lim = r * r
    m = len(boundary)
    for i in range(0 if m else 1, count):
        p = order[i]
        q = coords[p]
        x, y, z = q
        if (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= lim:
            continue
        for b in boundary:
            u = coords[b]
            if (u[0] - x) ** 2 + (u[1] - y) ** 2 + (u[2] - z) ** 2 <= dup2:
                break
        else:
            if m == 0:
                ball = _scan3(coords, order, i, (p,), (x, y, z, 0.0), slack, dup2)
            elif m == 1:
                a = coords[boundary[0]]
                mx, my, mz = 0.5 * (a[0] + x), 0.5 * (a[1] + y), 0.5 * (a[2] + z)
                r = math.sqrt((a[0] - mx) ** 2 + (a[1] - my) ** 2 + (a[2] - mz) ** 2)
                ball = _scan3(coords, order, i, (boundary[0], p), (mx, my, mz, r), slack, dup2)
            elif m == 2:
                three = _ball3_3(coords[boundary[0]], coords[boundary[1]], q)
                ball = _scan3(coords, order, i, (*boundary, p), three, slack, dup2)
            else:
                b0, b1, b2 = boundary
                ball = _ball3_4(coords[b0], coords[b1], coords[b2], q)
            cx, cy, cz = ball[0], ball[1], ball[2]
            r = ball[3] + slack
            lim = r * r
            del order[i]
            order.insert(0, p)
    return ball


def _disk_corner_area(x: float, y: float, r: float) -> float:
    """Area of {p in disk(0, r) : p.x <= x and p.y <= y}.

    Building block for disk/rectangle intersection via inclusion-exclusion.
    """
    x = max(-r, min(r, x))
    y = max(-r, min(r, y))

    def seg(t: float) -> float:
        # Integral of sqrt(r^2 - u^2) du from -r to t.
        t = max(-r, min(r, t))
        return 0.5 * (t * math.sqrt(max(0.0, r * r - t * t)) + r * r * math.asin(t / r)) + 0.25 * math.pi * r * r

    # Split the x-range at +-sqrt(r^2 - y^2), where the chord height crosses y.
    if y >= 0.0:
        xc = math.sqrt(max(0.0, r * r - y * y))
        # For |u| <= xc the column is clipped at y; outside it the full chord
        # (from -h to h) lies below y.
        lo = -xc
        hi = min(x, xc)
        area = 0.0
        # Region u < -xc: full chord.
        area += 2.0 * (seg(min(x, lo)) - seg(-r))
        if hi > lo:
            # Columns clipped at y: height = y + h(u).
            area += y * (hi - lo) + (seg(hi) - seg(lo))
        if x > xc:
            area += 2.0 * (seg(x) - seg(xc))
        return area
    else:
        xc = math.sqrt(max(0.0, r * r - y * y))
        lo = max(-xc, -r)
        hi = min(x, xc)
        if hi <= lo:
            return 0.0
        # Only columns with h(u) > |y| contribute: height = y + h(u).
        return y * (hi - lo) + (seg(hi) - seg(lo))


def disk_rect_area(center, r: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Area of disk(center, r) intersected with [x0, x1] x [y0, y1]."""
    cx, cy = float(center[0]), float(center[1])
    a = _disk_corner_area(x1 - cx, y1 - cy, r)
    b = _disk_corner_area(x0 - cx, y1 - cy, r)
    c = _disk_corner_area(x1 - cx, y0 - cy, r)
    d = _disk_corner_area(x0 - cx, y0 - cy, r)
    return max(0.0, a - b - c + d)
