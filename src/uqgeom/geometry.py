"""Low-level geometric primitives shared across the package.

Everything here works on plain numpy arrays: a point set is an (m, d)
float64 array with d in {2, 3}.  The minimum enclosing ball machinery is
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
    "Ball",
    "welzl_ball",
    "lens_area",
    "disk_rect_area",
]

# Containment slack used inside the Welzl recursion only; final radii are
# recomputed from the support set, so this does not leak into results.
_WELZL_REL = 1e-13
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


def bbox_diameter(pts: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box."""
    if len(pts) == 0:
        return 0.0
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(math.hypot(*span))


def coordinate_scale(pts: np.ndarray) -> float:
    """Length scale for tolerance decisions: bbox diagonal with a floor of
    the coordinate magnitude (so all-coincident sets still get a usable scale)."""
    if len(pts) == 0:
        return 1.0
    diag = bbox_diameter(pts)
    return max(diag, float(np.abs(pts).max()), 1.0)


def coordinate_scales(stack: np.ndarray) -> list[float]:
    """:func:`coordinate_scale` of each set in a (rows, m, d) stack with
    m >= 1, bit for bit, from one pass over the stack: the extents and
    magnitudes are exact maxima and minima, and each diagonal is the same
    ``math.hypot``."""
    hi = stack.max(axis=1)
    lo = stack.min(axis=1)
    diag = [math.hypot(*span) for span in (hi - lo).tolist()]
    magnitude = np.maximum(np.abs(hi), np.abs(lo)).max(axis=1)
    return np.maximum(np.maximum(diag, magnitude), 1.0).tolist()


class Ball:
    """Enclosing ball with the indices of the points defining it."""

    __slots__ = ("center", "radius", "support")

    def __init__(self, center: np.ndarray, radius: float, support: tuple[int, ...]):
        self.center = center
        self.radius = radius
        self.support = support


_PERMUTATION_CACHE: dict[int, list[int]] = {}


def _fixed_permutation(n: int) -> list[int]:
    cached = _PERMUTATION_CACHE.get(n)
    if cached is None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=_WELZL_PERMUTATION_SEED))
        cached = [int(i) for i in rng.permutation(n)]
        _PERMUTATION_CACHE[n] = cached
    return cached


def _dist2(p, q, d):
    if d == 2:
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2


def _midpoint(a, b, d):
    if d == 2:
        return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2]))


def _subsets(m: int, size: int) -> tuple:
    """(members, others) for every ``size``-subset of range(m), in
    lexicographic order."""
    return tuple(
        (s, tuple(t for t in range(m) if t not in s))
        for s in itertools.combinations(range(m), size)
    )


# Pair and triple search plans for the 3- and 4-point boundaries.
_PAIRS = {m: _subsets(m, 2) for m in (3, 4)}
_TRIPLES = {m: _subsets(m, 3) for m in (3, 4)}


def _trivial_ball(coords, boundary, d):
    """Smallest ball of <= d+1 boundary points as (center..., radius,
    support): pure-float subset search (pairs, then circumcircles, then the
    circumsphere).  Pairs and triples are tried in lexicographic order and
    the first strictly smallest enclosing one wins."""
    m = len(boundary)
    if m == 0:
        return None
    if m == 1:
        p = coords[boundary[0]]
        return (*p, 0.0, (boundary[0],))
    if m == 2:
        a = coords[boundary[0]]
        c = _midpoint(a, coords[boundary[1]], d)
        return (*c, math.sqrt(_dist2(a, c, d)), (boundary[0], boundary[1]))
    pts = [coords[b] for b in boundary]
    best = None
    for (i, j), others in _PAIRS[m]:
        a = pts[i]
        c = _midpoint(a, pts[j], d)
        r2 = _dist2(a, c, d)
        if best is not None and r2 >= best[0]:
            continue
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        for k in others:
            if _dist2(pts[k], c, d) > lim:
                break
        else:
            best = (r2, c, (boundary[i], boundary[j]))
    if best is None:
        for (i, j, k), others in _TRIPLES[m]:
            sol = _circum3(pts[i], pts[j], pts[k], d)
            if sol is None:
                continue
            c, r2 = sol
            if best is not None and r2 >= best[0]:
                continue
            lim = r2 * (1 + 1e-10)
            for t in others:
                if _dist2(pts[t], c, d) > lim:
                    break
            else:
                best = (r2, c, (boundary[i], boundary[j], boundary[k]))
    if best is None and d == 3 and m == 4:
        sol = _circumsphere_coords(*pts)
        if sol is not None:
            best = (sol[1], sol[0], tuple(boundary))
    if best is None:
        # Degenerate boundary set; use the farthest pair's diametral ball.
        dmax, (i, j) = -1.0, (0, m - 1)
        for pair, _ in _PAIRS[m]:
            dist = _dist2(pts[pair[0]], pts[pair[1]], d)
            if dist > dmax:
                dmax, (i, j) = dist, pair
        best = (0.25 * dmax, _midpoint(pts[i], pts[j], d), (boundary[i], boundary[j]))
    r2, c, support = best
    return (*c, math.sqrt(r2), support)


def _circum3(a, b, c, d):
    if d == 2:
        bx, by = b[0] - a[0], b[1] - a[1]
        cx, cy = c[0] - a[0], c[1] - a[1]
        det = 2.0 * (bx * cy - by * cx)
        norm = max(abs(bx), abs(by), abs(cx), abs(cy), 1e-300)
        if abs(det) <= 1e-14 * norm * norm:
            return None
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        ux = (cy * b2 - by * c2) / det
        uy = (bx * c2 - cx * b2) / det
        return (a[0] + ux, a[1] + uy), ux * ux + uy * uy
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    uu = ux * ux + uy * uy + uz * uz
    vv = vx * vx + vy * vy + vz * vz
    uv = ux * vx + uy * vy + uz * vz
    det = uu * vv - uv * uv
    if det <= 1e-28 * max(uu, vv, 1e-300) ** 2:
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
    rows = []
    rhs = []
    aa = sum(x * x for x in a)
    for p in (b, c, d4):
        rows.append([2.0 * (p[t] - a[t]) for t in range(3)])
        rhs.append(sum(x * x for x in p) - aa)
    # Hand-rolled 3x3 solve via Cramer's rule.
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = rows
    det = (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )
    scale = max(abs(v) for row in rows for v in row) or 1e-300
    if abs(det) <= 1e-12 * scale**3:
        return None
    r1, r2_, r3 = rhs
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
    cen = (x, y, z)
    r2v = sum((cen[t] - a[t]) ** 2 for t in range(3))
    return cen, r2v


def welzl_ball(pts: np.ndarray, scale: float | None = None) -> Ball:
    """Minimum enclosing ball via Welzl's move-to-front algorithm (d = 2, 3).

    The processing order is a fixed pseudo-random permutation, giving the
    expected-linear behaviour of the randomized algorithm with deterministic,
    bit-reproducible output.  ``support`` holds indices (into ``pts``) of the
    boundary set the algorithm ended with; it is a valid defining set but
    tie-breaking among equally valid sets is left to the caller.

    ``scale`` is ``coordinate_scale(pts)``, for callers that have it (see
    :func:`coordinate_scales`); it sets the containment slack.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    if n == 0:
        raise ValueError("need at least one point")
    if n == 1:
        return Ball(pts[0].copy(), 0.0, (0,))
    coords = pts.tolist()
    if scale is None:
        scale = coordinate_scale(pts)
    slack = _WELZL_REL * scale
    dup2 = (1e-10 * scale) ** 2
    max_boundary = d + 1
    order = list(_fixed_permutation(n))

    def solve(count: int, boundary: list[int]):
        # Ball of {order[0..count-1]} with `boundary` forced on the boundary:
        # one pass over the prefix, starting from the ball of the boundary
        # alone.  A point outside the current ball is forced onto the
        # boundary of the ball of the points before it, then moved to the
        # front so that later passes test it early.  With no boundary the
        # first point always starts the ball and stays in place.
        if boundary:
            ball = _trivial_ball(coords, boundary, d)
            if len(boundary) == max_boundary:
                return ball
            start = 0
        else:
            ball = _trivial_ball(coords, order[:1], d)
            start = 1
        r = ball[d] + slack
        lim = r * r
        for i in range(start, count):
            p = order[i]
            q = coords[p]
            if d == 2:
                if (q[0] - ball[0]) ** 2 + (q[1] - ball[1]) ** 2 <= lim:
                    continue
            elif (q[0] - ball[0]) ** 2 + (q[1] - ball[1]) ** 2 + (q[2] - ball[2]) ** 2 <= lim:
                continue
            # A near-duplicate of a boundary point is already (within
            # duplicate tolerance) on the ball boundary; forcing both onto
            # the boundary would make the d+1 base case drop genuine
            # constraints.
            for b in boundary:
                if _dist2(coords[b], q, d) <= dup2:
                    break
            else:
                ball = solve(i, boundary + [p])
                r = ball[d] + slack
                lim = r * r
                del order[i]
                order.insert(0, p)
        return ball

    result = solve(n, [])
    center = np.array(result[:d])
    return Ball(center, result[d], result[d + 1])


def lens_area(c1, r1, c2, r2) -> float:
    """Area of the intersection of two disks (closed form)."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    d = float(np.linalg.norm(c1 - c2))
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    alpha = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))))
    beta = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))))
    tri = 0.5 * math.sqrt(
        max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    )
    return r1 * r1 * alpha + r2 * r2 * beta - tri


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
