"""Continuous-to-indecisive discretization.

Replaces each continuous uncertain point by a weighted finite candidate set
(a lattice sample of its distribution) so the deterministic engine can run
on the result.  The range family the sample must respect depends on the
measure: intersections of four fixed-direction slabs for the bounding-box
perimeter, the constant-VC family of disk-fitting ranges for the smallest
enclosing disk.  A family enters only through its VC dimension, which sets
the sample-size policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .geometry import _EPS_POINT_FLOOR, _WEIGHT_SLACK, disk_rect_area, unit_vector
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

# Unused here; perfbench/layers.py patches this name on this module by getattr.
from .geometry import welzl_ball  # noqa: F401

__all__ = [
    "RangeFamily",
    "LatticeSample",
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
    ``wedges_seb2`` (the ranges {p : seb2(anchor + p) <= w}, each a union
    of halfplane-halfplane-disk wedges), ``balls``, ``axis_rects``.
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
                u = unit_vector(d, "slab directions")
                dirs.append((float(u[0]), float(u[1])))
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


def _offset_for_index(index: int) -> np.ndarray:
    return trial_rng(_OFFSET_SEED, index).random(2)


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


def default_sample_size(family: RangeFamily, eps: float) -> int:
    nu = family.vc_dimension
    return max(4, math.ceil((nu / eps**2) * math.log(max(math.e, nu / eps))))


def lattice_eps_sample(dist, family: RangeFamily, eps: float, *, index: int = 0) -> LatticeSample:
    """Lattice-based epsilon-sample of one distribution for a range family,
    sized to Theta((nu/eps^2) ln(nu/eps)) cells by the family's VC
    dimension nu (:func:`default_sample_size`); see :func:`_lattice_sample`.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    return _lattice_sample(dist, eps, default_sample_size(family, eps), index)


def _lattice_sample(dist, eps: float, size: int, index: int) -> LatticeSample:
    """Lattice sample of about ``size`` cells of one distribution.

    The distribution is truncated to a region holding all but eps/4 of its
    mass, overlaid with a scaled lattice whose origin is shifted per
    ``index``, and each lattice point is weighted by the exact mass of its
    cell (error-function products for Gaussians, exact disk/cell overlap
    areas for uniform disks).  A point mass is its own one-point sample.
    """
    if isinstance(dist, PointMassPoint):
        return LatticeSample(dist.at.reshape(1, 2), np.array([1.0]))
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
        per_axis = max(2, math.ceil(math.sqrt(size)))
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
        return LatticeSample(pts, w)

    if isinstance(dist, UniformDiskPoint):
        r = dist.radius
        area_total = math.pi * r * r
        # Cell areas are taken against the disk's area, which must be finite.
        if not math.isfinite(area_total):
            raise ValidationError(f"a uniform disk of radius {r:g} is too large to discretize")
        per_axis = max(2, math.ceil(math.sqrt(size * 4.0 / math.pi)))
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
        return LatticeSample(pts, w)

    raise ValueError(f"unsupported distribution kind {type(dist).__name__}")


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
    """Replace each continuous point by a lattice sample, yielding an
    indecisive set whose exact distribution approximates the continuous one
    within eps.

    Per-point sample accuracy targets are eps/n for the bounding-box
    perimeter (its range family: four-direction slabs) and eps/(2 n^2) for
    the smallest enclosing disk (``wedges_seb2``); the accuracy sets the
    Gaussians' truncation.  Each lattice has about a desk-scale preset
    count of cells per measure; pass ``points_per_point`` (at least 1) to
    override it.
    """
    if cset.dimension != 2:
        raise ValidationError("discretization supports d=2 only")
    if measure.kind not in _DEFAULT_PIPELINE_SIZES:
        raise ValidationError(f"unsupported measure for discretization: {measure.kind}")
    eps_point = eps / cset.n if measure.kind == "aabb_perimeter" else eps / (2.0 * cset.n**2)
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    size = _DEFAULT_PIPELINE_SIZES[measure.kind] if points_per_point is None else points_per_point
    if size < 1:
        raise ValidationError(f"--points-per-point must be at least 1, got {size}")
    if size > _POINTS_PER_POINT_CAP:
        raise ResourceCapError(
            f"--points-per-point {size} exceeds the cap of {_POINTS_PER_POINT_CAP} candidates per point"
        )
    rows = []
    for i, dist in enumerate(cset.points):
        sample = _lattice_sample(dist, max(eps_point, _EPS_POINT_FLOOR), size, i)
        weights = (Fraction(1),) if len(sample.points) == 1 else _exact_weights(sample.weights)
        rows.append((sample.points, weights))
    return IndecisivePointSet._from_rows(rows, 2)
