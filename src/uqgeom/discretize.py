"""Continuous-to-indecisive discretization.

Replaces each continuous uncertain point by a weighted finite candidate set
(a lattice sample of its distribution) so the deterministic engine can run
on the result.  The range family the sample must respect depends on the
measure: intersections of four fixed-direction slabs for the bounding-box
perimeter, wedge ranges for the smallest enclosing disk.  The wedge
decomposition of a disk-fitting range is provided both for validation and
as the constant-VC family backing the sample-size policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .geometry import coordinate_scale, disk_rect_area, welzl_ball
from .measures import MeasureId, evaluate, tolerance
from .model import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePoint,
    IndecisivePointSet,
    PointMassPoint,
    UniformDiskPoint,
    ValidationError,
)

__all__ = [
    "RangeFamily",
    "LatticeSample",
    "Wedge",
    "range_membership",
    "wedge_decompose_seb2",
    "lattice_eps_sample",
    "discretize_for_measure",
    "SLAB_DIRECTIONS_AABB",
]

_SQ2 = math.sqrt(0.5)
SLAB_DIRECTIONS_AABB = ((1.0, 0.0), (_SQ2, _SQ2), (0.0, 1.0), (-_SQ2, _SQ2))

# Lattice origin offsets are derived per point index from this fixed seed.
_OFFSET_SEED = 0x7A771CE


@dataclass(frozen=True)
class RangeFamily:
    """Query ranges an epsilon-sample must respect.

    kinds: ``slabs`` (intersections of slabs along fixed directions),
    ``wedges_seb2`` (halfplane-halfplane-disk intersections from the disk
    decomposition), ``balls``, ``axis_rects``.
    """

    kind: str
    directions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("slabs", "wedges_seb2", "balls", "axis_rects"):
            raise ValueError(f"unknown range family {self.kind!r}")
        if self.kind == "slabs":
            if not self.directions:
                raise ValueError("slab family needs directions")
            dirs = []
            for d in self.directions:
                v = np.asarray(d, dtype=np.float64)
                n = float(np.linalg.norm(v))
                if not n > 0:
                    raise ValueError("slab directions must be nonzero")
                dirs.append((float(v[0] / n), float(v[1] / n)))
            if len({(round(a, 12), round(b, 12)) for a, b in dirs}) != len(dirs):
                raise ValueError("slab directions must be distinct")
            object.__setattr__(self, "directions", tuple(dirs))
        elif self.directions is not None:
            raise ValueError(f"{self.kind} does not take directions")

    @property
    def vc_dimension(self) -> int:
        if self.kind == "slabs":
            return 2 * len(self.directions)
        return {"wedges_seb2": 9, "balls": 3, "axis_rects": 4}[self.kind]


@dataclass(frozen=True, eq=False)
class LatticeSample:
    """Weighted lattice approximation of one continuous distribution.

    Cells are weighted by their exact probability mass (not uniformly),
    which tightens the constants while staying within the weighted-range-
    space framework; weights sum to 1 within 1e-12 and are all positive.
    """

    points: np.ndarray  # (N, 2)
    weights: np.ndarray
    target_epsilon: float
    family: RangeFamily

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if len(pts) == 0 or len(pts) != len(w):
            raise ValueError("points and weights must be non-empty and aligned")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        pts = pts.copy()
        pts.setflags(write=False)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


def range_membership(measure: MeasureId, anchor, w: float, p) -> bool:
    """Definitional membership p in A(anchor, w): f(anchor + p) <= w."""
    anchor = np.asarray(anchor, dtype=np.float64)
    if anchor.ndim == 1:
        anchor = anchor.reshape(1, -1)
    if len(anchor) == 0:
        raise ValueError("anchor must be nonempty")
    union = np.concatenate([anchor, np.asarray(p, dtype=np.float64).reshape(1, -1)])
    return evaluate(measure, union) <= w + tolerance(union, measure)


# --------------------------------------------------------------------------
# Wedge decomposition of smallest-enclosing-disk ranges


@dataclass(frozen=True, eq=False)
class Wedge:
    """Cone-from-apex intersected with a disk: two halfplanes + one disk.

    ``e1``/``e2`` are the arc endpoints, counterclockwise as seen from the
    apex with a view angle of at most pi.
    """

    apex: tuple[float, float]
    e1: tuple[float, float]
    e2: tuple[float, float]
    center: tuple[float, float]
    radius: float

    def contains(self, p) -> bool:
        px, py = float(p[0]), float(p[1])
        cx, cy = self.center
        if (px - cx) ** 2 + (py - cy) ** 2 > self.radius * self.radius * (1 + 1e-12):
            return False
        ax, ay = self.apex
        vx, vy = px - ax, py - ay
        d1x, d1y = self.e1[0] - ax, self.e1[1] - ay
        d2x, d2y = self.e2[0] - ax, self.e2[1] - ay
        slack = 1e-12 * self.radius * self.radius
        return (d1x * vy - d1y * vx) >= -slack and (vx * d2y - vy * d2x) >= -slack

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        cx, cy = self.center
        inside = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 <= self.radius**2 * (1 + 1e-12)
        ax, ay = self.apex
        vx = pts[:, 0] - ax
        vy = pts[:, 1] - ay
        d1x, d1y = self.e1[0] - ax, self.e1[1] - ay
        d2x, d2y = self.e2[0] - ax, self.e2[1] - ay
        slack = 1e-12 * self.radius * self.radius
        return inside & ((d1x * vy - d1y * vx) >= -slack) & ((vx * d2y - vy * d2x) >= -slack)


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _circular_interval_intersection(mid1, half1, mid2, half2):
    """Intersection of two circular intervals each at most pi wide."""
    delta = _wrap(mid2 - mid1)
    lo = max(-half1, delta - half2)
    hi = min(half1, delta + half2)
    if lo > hi:
        return None
    return _wrap(mid1 + 0.5 * (lo + hi)), 0.5 * (hi - lo)


def _arc_points(center, radius, a0, ccw_span):
    e1 = (center[0] + radius * math.cos(a0), center[1] + radius * math.sin(a0))
    e2 = (center[0] + radius * math.cos(a0 + ccw_span), center[1] + radius * math.sin(a0 + ccw_span))
    return e1, e2


def _split_arc_to_wedges(apex, center, radius, a_start, ccw_span, out: list[Wedge]):
    """Emit wedges for one boundary arc, splitting so the apex view angle of
    each piece stays within pi (directions from an interior point are
    monotone along the arc, so endpoint directions measure the view)."""
    stack = [(a_start, ccw_span)]
    while stack:
        a0, span = stack.pop()
        e1, e2 = _arc_points(center, radius, a0, span)
        v1 = math.atan2(e1[1] - apex[1], e1[0] - apex[0])
        v2 = math.atan2(e2[1] - apex[1], e2[0] - apex[0])
        view = (v2 - v1) % (2.0 * math.pi)
        if span <= 0:
            continue
        if view > math.pi * (1.0 + 1e-9) or span > 2.0 * math.pi - 1e-9:
            stack.append((a0 + span / 2.0, span / 2.0))
            stack.append((a0, span / 2.0))
            continue
        out.append(
            Wedge(
                (float(apex[0]), float(apex[1])),
                (float(e1[0]), float(e1[1])),
                (float(e2[0]), float(e2[1])),
                (float(center[0]), float(center[1])),
                float(radius),
            )
        )


def wedge_decompose_seb2(anchor, w: float) -> list[Wedge]:
    """Decompose A(anchor, w) = {p : seb2(anchor + p) <= w} into wedges.

    The range is the Minkowski sum of the center region (intersection of
    radius-w disks about the anchor points) with a radius-w disk: its
    boundary consists of radius-2w arcs centered at anchor points and
    radius-w arcs centered at the center region's vertices.  Each boundary
    arc is coned to an apex inside the convex hull of the anchor (the
    centroid), giving pairwise interior-disjoint wedges whose union is the
    range.  At most 2 |anchor| wedges are produced.
    """
    pts = np.asarray(anchor, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != 2:
        raise ValueError("wedge decomposition is planar (d=2)")
    # Deduplicate coincident anchors: they define identical constraint disks.
    scale = max(coordinate_scale(pts), abs(w))
    uniq: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= 1e-12 * scale for q in uniq):
            uniq.append(p)
    pts = np.asarray(uniq)
    ball = welzl_ball(pts)
    r_anchor = ball.radius
    if w < r_anchor - 1e-12 * scale:
        raise ValidationError(
            f"range is empty: w={w} is below the anchor's enclosing radius {r_anchor}"
        )
    apex = pts.mean(axis=0)
    wedges: list[Wedge] = []
    if len(pts) == 1 or w <= r_anchor * (1 + 1e-12) + 1e-12 * scale:
        # Single full disk: radius 2w about a lone anchor, or (w == radius of
        # the enclosing disk) the ball about its center.
        if len(pts) == 1:
            center, radius = pts[0], 2.0 * w
        else:
            center, radius = ball.center, w
        _split_arc_to_wedges(apex, center, radius, 0.0, 2.0 * math.pi, wedges)
        return wedges

    # Arc of each circle(t_i, w) on the boundary of the center region.
    arcs = []  # (anchor index, mid, half)
    for i, ti in enumerate(pts):
        mid, half = 0.0, math.pi  # full circle as one interval pair
        interval = None
        for j, tj in enumerate(pts):
            if i == j:
                continue
            d = float(np.linalg.norm(tj - ti))
            gamma = math.acos(max(-1.0, min(1.0, d / (2.0 * w))))
            mid_j = math.atan2(tj[1] - ti[1], tj[0] - ti[0])
            if interval is None:
                interval = (mid_j, gamma)
            else:
                interval = _circular_interval_intersection(*interval, mid_j, gamma)
                if interval is None:
                    break
        if interval is not None and interval[1] > 1e-12:
            arcs.append((i, interval[0], interval[1]))
    if not arcs:
        # Center region degenerated to a point; emit the single disk.
        _split_arc_to_wedges(apex, ball.center, w, 0.0, 2.0 * math.pi, wedges)
        return wedges

    # Order arcs counterclockwise around the center region.
    def arc_midpoint(entry):
        i, mid, half = entry
        return pts[i] + w * np.array([math.cos(mid), math.sin(mid)])

    cr_center = np.mean([arc_midpoint(a) for a in arcs], axis=0)
    arcs.sort(key=lambda a: math.atan2(*(arc_midpoint(a) - cr_center)[::-1]))

    m = len(arcs)
    for idx, (i, mid, half) in enumerate(arcs):
        # Outer arc: offset of the center-region arc to radius 2w.
        _split_arc_to_wedges(apex, pts[i], 2.0 * w, mid - half, 2.0 * half, wedges)
        # Corner arc at the shared vertex with the next arc (ccw).
        nxt_i, nxt_mid, nxt_half = arcs[(idx + 1) % m]
        if m == 1:
            break
        # The vertex between consecutive arcs lies on both circles; the
        # corner arc sweeps between the two outward normals, which are just
        # the angles of the vertex on each circle.
        end_angle = mid + half
        vertex = pts[i] + w * np.array([math.cos(end_angle), math.sin(end_angle)])
        phi1 = end_angle
        phi2 = nxt_mid - nxt_half
        span = (phi2 - phi1) % (2.0 * math.pi)
        if span > 1e-12 and span < 2.0 * math.pi - 1e-9:
            _split_arc_to_wedges(apex, vertex, w, phi1, span, wedges)
    return wedges


# --------------------------------------------------------------------------
# Lattice epsilon-samples


def _offset_for_index(index: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=_OFFSET_SEED, spawn_key=(index,)))
    return rng.random(2)


def _axis_lattice(lo: float, hi: float, count: int, offset: float):
    """1-d lattice of about ``count`` cells covering [lo, hi] with a
    fractional origin shift; returns centers and cell bounds clipped to the
    range."""
    h = (hi - lo) / count
    start = math.floor((lo - offset * h) / h)
    stop = math.ceil((hi - offset * h) / h)
    centers = (np.arange(start, stop + 1) + offset) * h
    lows = np.clip(centers - h / 2.0, lo, hi)
    highs = np.clip(centers + h / 2.0, lo, hi)
    keep = highs > lows
    return centers[keep], lows[keep], highs[keep]


def default_sample_size(family: RangeFamily, eps: float, size_constant: float = 1.0) -> int:
    nu = family.vc_dimension
    return max(4, math.ceil(size_constant * (nu / eps**2) * math.log(max(math.e, nu / eps))))


def lattice_eps_sample(
    dist,
    family: RangeFamily,
    eps: float,
    *,
    index: int = 0,
    target_size: int | None = None,
    size_constant: float = 1.0,
) -> LatticeSample:
    """Lattice-based epsilon-sample of one distribution for a range family.

    The distribution is truncated to a region holding all but eps/4 of its
    mass, overlaid with a shifted scaled lattice sized to
    Theta((nu/eps^2) ln(nu/eps)), and each lattice point is weighted by the
    exact mass of its cell (error-function products for Gaussians, exact
    disk/cell overlap areas for uniform disks).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if isinstance(dist, PointMassPoint):
        return LatticeSample(dist.at.reshape(1, 2), np.array([1.0]), eps, family)
    if target_size is None:
        target_size = default_sample_size(family, eps, size_constant)
    offset = _offset_for_index(index)

    if isinstance(dist, GaussianPoint):
        if dist.dimension != 2:
            raise ValueError("lattice sampling supports planar Gaussians only")
        evals, evecs = np.linalg.eigh(dist.cov)
        sigmas = np.sqrt(np.maximum(evals, 0.0))
        # Box at +-z standard deviations per principal axis, excluded mass
        # at most eps/4 in total.
        q = (1.0 - math.sqrt(1.0 - eps / 4.0)) / 2.0
        z = NormalDist().inv_cdf(1.0 - q)
        per_axis = max(2, math.ceil(math.sqrt(target_size)))
        nd = NormalDist()
        cx, lx, hx = _axis_lattice(-z, z, per_axis, offset[0])
        cy, ly, hy = _axis_lattice(-z, z, per_axis, offset[1])
        mx = np.array([nd.cdf(b) - nd.cdf(a) for a, b in zip(lx, hx)])
        my = np.array([nd.cdf(b) - nd.cdf(a) for a, b in zip(ly, hy)])
        wgrid = np.outer(mx, my)
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        local = np.column_stack([gx.ravel() * sigmas[0], gy.ravel() * sigmas[1]])
        pts = dist.mean + local @ evecs.T
        w = wgrid.ravel()
        keep = w > 0
        w = w[keep]
        pts = pts[keep]
        w = w / w.sum()
        return LatticeSample(pts, w, eps, family)

    if isinstance(dist, UniformDiskPoint):
        r = dist.radius
        area_total = math.pi * r * r
        # Cell areas are taken against the disk's area, which must be finite.
        if not math.isfinite(area_total):
            raise ValidationError(f"a uniform disk of radius {r:g} is too large to discretize")
        per_axis = max(2, math.ceil(math.sqrt(target_size * 4.0 / math.pi)))
        cx, lx, hx = _axis_lattice(-r, r, per_axis, offset[0])
        cy, ly, hy = _axis_lattice(-r, r, per_axis, offset[1])
        pts = []
        w = []
        for i in range(len(cx)):
            for j in range(len(cy)):
                a = disk_rect_area((0.0, 0.0), r, lx[i], hx[i], ly[j], hy[j])
                if a > 0.0:
                    pts.append((cx[i], cy[j]))
                    w.append(a / area_total)
        pts = np.asarray(pts) + dist.center
        w = np.asarray(w)
        w = w / w.sum()
        return LatticeSample(pts, w, eps, family)

    raise ValueError(f"unsupported distribution kind {type(dist).__name__}")


# --------------------------------------------------------------------------
# Theorem-style discretization pipeline

# Default per-point lattice sizes keep the downstream basis enumeration
# tractable at desk scale; the asymptotic policy is available through
# lattice_eps_sample(..., target_size=None).
_DEFAULT_PIPELINE_SIZES = {"aabb_perimeter": 64, "seb2": 256}
_WEIGHT_DENOM = 2**53


def _exact_weights(w: np.ndarray) -> tuple[Fraction, ...]:
    """Round float masses to exact rationals with a common power-of-two
    denominator summing to exactly one (deviation per weight <= 2^-53)."""
    ints = [max(1, int(round(float(x) * _WEIGHT_DENOM))) for x in w]
    ints[int(np.argmax(w))] += _WEIGHT_DENOM - sum(ints)
    if ints[int(np.argmax(w))] <= 0:
        raise ValidationError("weight normalization failed")
    return tuple(Fraction(v, _WEIGHT_DENOM) for v in ints)


def discretize_for_measure(
    cset: ContinuousUncertainSet,
    measure: MeasureId,
    eps: float,
    *,
    points_per_point: int | None = None,
) -> IndecisivePointSet:
    """Replace each continuous point by a lattice sample tuned to the
    measure's range family, yielding an indecisive set whose exact
    distribution approximates the continuous one within eps.

    Per-point sample accuracy targets are eps/n for the bounding-box
    perimeter (four-direction slab family) and eps/(2 n^2) for the smallest
    enclosing disk (wedge family).  Default sizes are desk-scale presets;
    pass ``points_per_point`` to override.
    """
    if cset.dimension != 2:
        raise ValidationError("discretization supports d=2 only")
    if measure.kind == "aabb_perimeter":
        family = RangeFamily("slabs", SLAB_DIRECTIONS_AABB)
        eps_point = eps / cset.n
    elif measure.kind == "seb2":
        family = RangeFamily("wedges_seb2")
        eps_point = eps / (2.0 * cset.n**2)
    else:
        raise ValidationError(f"unsupported measure for discretization: {measure.kind}")
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    size = points_per_point or _DEFAULT_PIPELINE_SIZES[measure.kind]
    points = []
    for i, dist in enumerate(cset.points):
        sample = lattice_eps_sample(
            dist, family, max(eps_point, 1e-6), index=i, target_size=size
        )
        if len(sample.points) == 1:
            points.append(IndecisivePoint(sample.points, (Fraction(1),)))
            continue
        weights = _exact_weights(sample.weights)
        points.append(IndecisivePoint(sample.points, weights))
    return IndecisivePointSet(tuple(points), 2)
