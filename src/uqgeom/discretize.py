"""Continuous-to-indecisive discretization.

Replaces each continuous uncertain point by a weighted finite candidate set
(a lattice sample of its distribution) so the deterministic engine can run
on the result.  The pipeline sizes each lattice by a per-measure preset;
:func:`lattice_eps_sample` sizes one instead by the VC dimension of the
ranges of the bounding-box perimeter, intersections of slabs along the four
:data:`SLAB_DIRECTIONS_AABB`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .geometry import _EPS_POINT_FLOOR, _WEIGHT_SLACK, _disk_corner_area
from .measures import MeasureId
from .model import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePointSet,
    PointMassPoint,
    ResourceCapError,
    UniformDiskPoint,
    ValidationError,
)
from .montecarlo import trial_rng
from .quantize import _integer, _ratio_terms, _real

# Unused here; perfbench/layers.py patches this name on this module by getattr.
from .geometry import welzl_ball  # noqa: F401

__all__ = [
    "LatticeSample",
    "lattice_eps_sample",
    "discretize_for_measure",
    "SLAB_DIRECTIONS_AABB",
]

_SQ2 = math.sqrt(0.5)
SLAB_DIRECTIONS_AABB = ((1.0, 0.0), (_SQ2, _SQ2), (0.0, 1.0), (-_SQ2, _SQ2))

# Lattice origin offsets are derived per point index from this fixed seed.
_OFFSET_SEED = 0x7A771CE


@dataclass(frozen=True, eq=False)
class LatticeSample:
    """Weighted lattice approximation of one continuous distribution.

    Cells are weighted by their exact probability mass (not uniformly),
    which tightens the constants while staying within the weighted-range-
    space framework; weights sum to 1 within 1e-12 and are all positive.
    """

    points: np.ndarray  # (N, 2)
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if len(pts) == 0 or len(pts) != len(w):
            raise ValueError("points and weights must be non-empty and aligned")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > _WEIGHT_SLACK:
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        pts = pts.copy()
        pts.setflags(write=False)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


# --------------------------------------------------------------------------
# Lattice epsilon-samples


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


def lattice_eps_sample(dist, eps: float) -> LatticeSample:
    """Lattice-based epsilon-sample of one planar distribution for the
    ranges of the bounding-box perimeter: intersections of slabs along the
    four :data:`SLAB_DIRECTIONS_AABB`, a family of VC dimension nu = 8.  It
    has Theta((nu/eps^2) ln(nu/eps)) cells, refused with ResourceCapError
    above the pipeline's cap; see :func:`_lattice_sample`.
    """
    eps = _real(eps, "eps", "(0, 1)")
    nu = 2 * len(SLAB_DIRECTIONS_AABB)
    square = eps**2  # 0.0 once eps is below about 1e-162
    cells = (nu / square) * math.log(max(math.e, nu / eps)) if square else math.inf
    if cells > _POINTS_PER_POINT_CAP:
        raise ResourceCapError(
            f"eps = {eps!r} needs more than the cap of {_POINTS_PER_POINT_CAP} lattice cells; pass a larger eps"
        )
    return _lattice_sample(dist, eps, max(4, math.ceil(cells)), 0)


def _lattice_sample(dist, eps: float, size: int, index: int) -> LatticeSample:
    """Lattice sample of about ``size`` cells of one planar distribution.

    The distribution is truncated to a region holding all but eps/4 of its
    mass, overlaid with a scaled lattice whose origin is shifted per
    ``index``, and each lattice point is weighted by the exact mass of its
    cell (error-function products for Gaussians, exact disk/cell overlap
    areas for uniform disks); cells of no mass are dropped.  A point mass
    is its own one-point sample.
    """
    if not isinstance(dist, (PointMassPoint, GaussianPoint, UniformDiskPoint)):
        raise ValueError(f"unsupported distribution kind {type(dist).__name__}")
    if dist.dimension != 2:
        raise ValueError("lattice sampling supports planar distributions only")
    if isinstance(dist, PointMassPoint):
        return LatticeSample(dist.at.reshape(1, 2), np.array([1.0]))
    offset = trial_rng(_OFFSET_SEED, index).random(2)

    if isinstance(dist, GaussianPoint):
        evals, evecs = np.linalg.eigh(dist.cov)
        sigmas = np.sqrt(np.maximum(evals, 0.0))
        # Box at +-z standard deviations per principal axis, excluded mass
        # at most eps/4 in total.
        q = (1.0 - math.sqrt(1.0 - eps / 4.0)) / 2.0
        z = NormalDist().inv_cdf(1.0 - q)
        per_axis = max(2, math.ceil(math.sqrt(size)))
        nd = NormalDist()
        cx, lx, hx = _axis_lattice(-z, z, per_axis, offset[0])
        cy, ly, hy = _axis_lattice(-z, z, per_axis, offset[1])
        mx = np.array([nd.cdf(b) - nd.cdf(a) for a, b in zip(lx, hx)])
        my = np.array([nd.cdf(b) - nd.cdf(a) for a, b in zip(ly, hy)])
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        local = np.column_stack([gx.ravel() * sigmas[0], gy.ravel() * sigmas[1]])
        pts = dist.mean + local @ evecs.T
        w = np.outer(mx, my).ravel()
    else:
        r = dist.radius
        area_total = math.pi * r * r
        # Cell areas are taken against the disk's area, which must be finite.
        if not math.isfinite(area_total):
            raise ValidationError(f"a uniform disk of radius {r:g} is too large to discretize")
        per_axis = max(2, math.ceil(math.sqrt(size * 4.0 / math.pi)))
        cx, lx, hx = _axis_lattice(-r, r, per_axis, offset[0])
        cy, ly, hy = _axis_lattice(-r, r, per_axis, offset[1])
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()]) + dist.center
        # Each cell's area by inclusion-exclusion over its four corners, each
        # distinct corner computed once.
        corner = functools.cache(lambda x, y: _disk_corner_area(x, y, r))
        w = np.array([
            max(0.0, corner(x1, y1) - corner(x0, y1) - corner(x1, y0) + corner(x0, y0)) / area_total
            for x0, x1 in zip(lx.tolist(), hx.tolist())
            for y0, y1 in zip(ly.tolist(), hy.tolist())
        ])
    keep = w > 0
    return LatticeSample(pts[keep], w[keep] / w[keep].sum())


# --------------------------------------------------------------------------
# Theorem-style discretization pipeline

# Default per-point lattice sizes keep the downstream basis enumeration
# tractable at desk scale; lattice_eps_sample sizes by the asymptotic policy.
_DEFAULT_PIPELINE_SIZES = {"aabb_perimeter": 64, "seb2": 256}
# The most candidates a point may ask for: a 256 x 256 lattice.  Beyond it
# the lattice's arrays outgrow memory long before the exact engine could
# enumerate the result.
_POINTS_PER_POINT_CAP = 65_536
_WEIGHT_DENOM = 2**53


def _exact_weights(w: np.ndarray) -> list[tuple[int, int]]:
    """Round float masses to exact rationals with a common power-of-two
    denominator summing to exactly one (deviation per weight <= 2^-53), as
    reduced (numerator, denominator) pairs."""
    ints = np.maximum(1, np.round(w * _WEIGHT_DENOM)).astype(np.int64)
    ints[np.argmax(w)] += _WEIGHT_DENOM - ints.sum()
    if ints[np.argmax(w)] <= 0:
        raise ValidationError("weight normalization failed")
    return list(zip(*_ratio_terms(ints, _WEIGHT_DENOM)))


def discretize_for_measure(
    cset: ContinuousUncertainSet,
    measure: MeasureId,
    eps: float,
    *,
    points_per_point: int | None = None,
) -> IndecisivePointSet:
    """Replace each continuous point by a lattice sample, yielding an
    indecisive set whose exact distribution approximates the continuous one
    within eps.

    Per-point sample accuracy targets are eps/n for the bounding-box
    perimeter and eps/(2 n^2) for the smallest enclosing disk; the accuracy
    sets the Gaussians' truncation.  Each lattice has about a desk-scale
    preset count of cells per measure; pass ``points_per_point`` (an
    integer of at least 1) to override it.
    """
    if cset.dimension != 2:
        raise ValidationError("discretization supports d=2 only")
    if measure.kind not in _DEFAULT_PIPELINE_SIZES:
        raise ValidationError(f"unsupported measure for discretization: {measure.kind}")
    eps = _real(eps, "eps", "(0, 1)")
    eps_point = eps / cset.n if measure.kind == "aabb_perimeter" else eps / (2.0 * cset.n**2)
    preset = _DEFAULT_PIPELINE_SIZES[measure.kind]
    size = preset if points_per_point is None else _integer(points_per_point, "--points-per-point", 1)
    if size > _POINTS_PER_POINT_CAP:
        raise ResourceCapError(
            f"--points-per-point {size} exceeds the cap of {_POINTS_PER_POINT_CAP} candidates per point"
        )
    rows = []
    for i, dist in enumerate(cset.points):
        sample = _lattice_sample(dist, max(eps_point, _EPS_POINT_FLOOR), size, i)
        rows.append((sample.points, _exact_weights(sample.weights)))
    return IndecisivePointSet._from_rows(rows, 2)
