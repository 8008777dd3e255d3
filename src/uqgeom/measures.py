"""Geometric measures and the basis records of the exact engine.

Supported measures: smallest enclosing ball radius in the L2, L1 and
L-infinity metrics (``seb2``, ``seb1``, ``sebinf``), axis-aligned bounding
box perimeter and area, directional width, and diameter.  All but diameter
satisfy the LP-type monotonicity/locality axioms with a constant basis
size, which is what the deterministic engine exploits; diameter is exposed
for evaluation only.

The planar smallest enclosing disk of a set is the canonical ball of at
most three points, defined once, in arrays, by :func:`_seb2_balls`.  The
randomized engine (its seb2 values through :func:`evaluate` and its random
SIP disks, both the final ball of the one planar solver, a pivoting search
run on a whole stack of sets at once, :func:`_seb2_pivot`), the exact
engine (on its potential bases) and the brute-force oracle (on its pair
and triple tables) all read it, so the engines give the same bits for the
same basis.

Numeric conventions
-------------------
Every tolerance is set in the tolerance policy of :mod:`uqgeom.geometry`.
Measure values compare at :func:`tolerance`, 1e-9 times the set's length
scale (squared for area): its bbox diameter floored at the jitter span, so
never 0.  Bases are validated only by :mod:`uqgeom.exact`, by sign tests
on the jittered floats with no margin (the oracle reads the same
:func:`_strictly_acute`), so that the two engines count alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    _CIRCUM_DET_REL, _COMPARE_REL, _UNDERFLOW_GUARD, _WELZL_REL,
    as_points,
    coordinate_scales,
    length_scale,
    unit_vector,
    welzl_ball,
)
from .model import ResourceCapError, ValidationError

__all__ = [
    "MeasureId",
    "Basis",
    "BasisMember",
    "NotLPTypeError",
    "combinatorial_dimension",
    "tolerance",
    "evaluate",
]

_KINDS = ("seb2", "seb1", "sebinf", "aabb_perimeter", "aabb_area", "dwid", "diameter")
_AREA_VALUED = {"aabb_area"}

# The seb2 solvers form up to fourth powers of coordinate differences (the
# 3-D circumcircle's uu * vv, the circumsphere's Cramer terms), each a sum of
# a few products of differences of at most twice the largest coordinate
# magnitude; the diameter forms squares of them.  Below this magnitude every
# such term is finite.
_MAX_COORDINATE = float(np.finfo(np.float64).max) ** 0.25 / 16
# The area multiplies two extents of at most twice the largest coordinate
# magnitude, and its tolerances square the bounding-box diagonal, at most
# 2 sqrt(2) times it.  Below this magnitude both stay finite.
_MAX_AREA_COORDINATE = float(np.finfo(np.float64).max) ** 0.5 / 4


class NotLPTypeError(ValueError):
    """Raised when an operation requires the LP-type structure and the
    measure does not provide it."""


@dataclass(frozen=True)
class MeasureId:
    """Identifier of a measure; ``direction`` applies to ``dwid`` only and
    is normalized to unit length."""

    kind: str
    direction: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown measure {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "dwid":
            if self.direction is None:
                raise ValueError("dwid requires a direction")
            u = unit_vector(self.direction, "dwid direction")
            object.__setattr__(self, "direction", tuple(float(x) for x in u))
        elif self.direction is not None:
            raise ValueError(f"{self.kind} does not take a direction")

    @property
    def is_lp_type(self) -> bool:
        return self.kind != "diameter"

    def __str__(self) -> str:
        if self.kind == "dwid":
            return "dwid:" + ",".join(f"{x:.17g}" for x in self.direction)
        return self.kind.replace("_", "-")

    @staticmethod
    def parse(text: str) -> "MeasureId":
        """Parse the CLI spelling, e.g. ``seb2``, ``aabb-perimeter`` or
        ``dwid:0.6,0.8``."""
        text = text.strip()
        if text.startswith("dwid:"):
            parts = text[5:].split(",")
            return MeasureId("dwid", tuple(float(x) for x in parts))
        kind = text.replace("-", "_")
        return MeasureId(kind)


def combinatorial_dimension(measure: MeasureId, dimension: int = 2) -> int:
    """Maximum basis size for the measure in the given ambient dimension."""
    if measure.kind == "dwid":
        return 2
    if measure.kind in ("seb2", "seb1", "sebinf"):
        return dimension + 1
    if measure.kind in ("aabb_perimeter", "aabb_area"):
        return 2 * dimension
    if measure.kind == "diameter":
        return 2
    raise AssertionError(measure.kind)


def value_scale(measure: MeasureId | None, scale: float) -> float:
    """A length scale converted into the units of the measure's value
    (squared for area)."""
    return scale * scale if measure is not None and measure.kind in _AREA_VALUED else scale


def tolerance(pts: np.ndarray, measure: MeasureId | None = None) -> float:
    """The comparison tolerance of measure values on m >= 1 points, always
    positive: 1e-9 times the value scale of their length scale."""
    return _COMPARE_REL * value_scale(measure, length_scale(pts))


# --------------------------------------------------------------------------
# Evaluation


def _check_input(measure: MeasureId, pts: np.ndarray) -> None:
    """Refuse points (..., n, d) that the measure cannot take: a dwid
    direction of another dimension, and seb2, diameter and aabb-area input
    with a coordinate too large for the solvers' powers or the area's
    product to stay finite."""
    d = pts.shape[-1]
    if measure.kind == "dwid" and len(measure.direction) != d:
        raise ValidationError(f"dwid direction has dimension {len(measure.direction)}, points have {d}")
    bound = _MAX_AREA_COORDINATE if measure.kind in _AREA_VALUED else _MAX_COORDINATE
    if measure.kind in ("seb2", "diameter", *_AREA_VALUED) and np.abs(pts).max(initial=0.0) > bound:
        raise ValidationError(f"{measure.kind} needs coordinates of magnitude at most {bound:.3g}")


def _rot_coords(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 45-degree frame in which the L1 ball is an axis-aligned square.
    return pts[..., 0] + pts[..., 1], pts[..., 1] - pts[..., 0]


def _frame(measure: MeasureId, pts: np.ndarray) -> np.ndarray:
    """Per-point coordinates that :func:`_frame_values` reads: the
    projections (..., n) onto the direction for dwid, the (..., n, 2)
    45-degree frame for seb1, the (..., n, d) points themselves otherwise.

    The seb1 frame is elementwise.  The dwid projection is a matmul, whose
    BLAS kernel may round a row differently with its position in the
    matrix, so :func:`evaluate` projects each set on its own."""
    kind = measure.kind
    if kind == "dwid":
        return pts @ np.asarray(measure.direction)
    if kind == "seb1":
        rot = np.empty_like(pts)
        rot[..., 0], rot[..., 1] = _rot_coords(pts)
        return rot
    return pts


def _extent_value(kind: str, ex, ey):
    """Value of a set from its extents in frame coordinates, the one
    formula the randomized engine, the oracle and the exact engine's
    validation share: dwid is its extent ``ex`` (``ey`` unused), sebinf and
    seb1 half the larger extent, aabb-perimeter and aabb-area the box's
    perimeter and area."""
    if kind == "dwid":
        return ex
    if kind in ("sebinf", "seb1"):
        return np.maximum(ex, ey) / 2.0
    if kind == "aabb_perimeter":
        return 2.0 * (ex + ey)
    if kind == "aabb_area":
        return ex * ey
    raise AssertionError(kind)


def _frame_values(kind: str, f: np.ndarray) -> np.ndarray:
    """Value of each point set in a stack of frame coordinates, reduced
    over the last two axes (the last one for dwid); every measure but
    seb2."""
    if kind == "dwid":
        return _extent_value(kind, f.max(axis=-1) - f.min(axis=-1), None)
    if kind == "diameter":
        diff = f[..., :, None, :] - f[..., None, :, :]
        sq = diff * diff
        # Squares added by hand, left to right: the bits of sum(), which
        # adds fewer than eight terms in order, without the cost of a
        # reduction over a length-2 or 3 axis.
        total = sq[..., 0]
        for i in range(1, sq.shape[-1]):
            total = total + sq[..., i]
        # sqrt rounds monotonically, so it commutes with the max.
        return np.sqrt(total.max(axis=(-2, -1)))
    ext = f.max(axis=-2) - f.min(axis=-2)
    return _extent_value(kind, ext[..., 0], ext[..., 1])


def _vertex_dots(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dot products (A-V).(B-V) at each vertex V of rows of three planar
    points, A and B the other two in row order: V lies outside the
    diametral disk of A and B iff its dot product is positive.  The three
    are the same floats in any vertex order."""
    ax, bx, cx = xs.T
    ay, by, cy = ys.T
    return (
        (bx - ax) * (cx - ax) + (by - ay) * (cy - ay),
        (ax - bx) * (cx - bx) + (ay - by) * (cy - by),
        (ax - cx) * (bx - cx) + (ay - cy) * (by - cy),
    )


def _strictly_acute(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rows of three planar points whose triangle is strictly acute: every
    vertex dot product positive."""
    d0, d1, d2 = _vertex_dots(xs, ys)
    return (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)


def _diametral(ax, ay, bx, by) -> np.ndarray:
    """(rows, 3) diametral disks (cx, cy, radius) of the pairs A, B."""
    out = np.empty((len(ax), 3))
    out[:, 0] = 0.5 * (ax + bx)
    out[:, 1] = 0.5 * (ay + by)
    out[:, 2] = np.sqrt(np.float_power(ax - out[:, 0], 2.0) + np.float_power(ay - out[:, 1], 2.0))
    return out


def _seb2_balls(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Canonical enclosing balls of many rows of 2 or 3 planar points, the
    one definition every engine reads.

    ``xs`` and ``ys`` are (rows, m) coordinates; returns (rows, 3) of
    (cx, cy, radius).  Each row is sorted first, by x and then y, so a ball
    has the same bits in any input order.  A pair's ball is its diametral
    disk.  A strictly acute triple with a well-conditioned circumcircle
    (solved relative to the first point, |det| above _CIRCUM_DET_REL times
    the square of the largest offset from it) gets the circumcircle; any other
    triple, obtuse, right or near-singular, gets the diametral disk of the
    pair opposite the vertex with the smallest dot product, the first one
    on a tie.  The choice uses exact sign predicates, not tolerance slack.
    Pair radii square with ``np.float_power``, which calls libm ``pow`` as
    CPython's float ``**`` does; numpy's multiply and power do not match it
    on every value."""
    order = np.lexsort((ys, xs))
    xs = np.take_along_axis(xs, order, axis=1)
    ys = np.take_along_axis(ys, order, axis=1)
    if xs.shape[1] == 2:
        return _diametral(xs[:, 0], ys[:, 0], xs[:, 1], ys[:, 1])
    out = np.empty((len(xs), 3))
    ax, bx, cx = xs.T
    ay, by, cy = ys.T
    d0, d1, d2 = dots = _vertex_dots(xs, ys)
    ubx, uby, ucx, ucy = bx - ax, by - ay, cx - ax, cy - ay
    det = 2.0 * (ubx * ucy - uby * ucx)
    norm = np.maximum(np.abs(np.stack([ubx, uby, ucx, ucy])).max(axis=0), _UNDERFLOW_GUARD)
    circ = (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0) & (np.abs(det) > _CIRCUM_DET_REL * norm * norm)
    ubx, uby, ucx, ucy, det = ubx[circ], uby[circ], ucx[circ], ucy[circ], det[circ]
    b2 = ubx * ubx + uby * uby
    c2 = ucx * ucx + ucy * ucy
    ux = (ucy * b2 - uby * c2) / det
    uy = (ubx * c2 - ucx * b2) / det
    out[circ] = np.column_stack([ax[circ] + ux, ay[circ] + uy, np.sqrt(ux * ux + uy * uy)])
    rest = np.flatnonzero(~circ)
    if len(rest):
        v = np.argmin(np.stack([d[rest] for d in dots]), axis=0)
        # The pair opposite vertex v: (1, 2), (0, 2) or (0, 1).
        i = (v == 0).astype(np.intp)
        j = 2 - (v == 2)
        out[rest] = _diametral(xs[rest, i], ys[rest, i], xs[rest, j], ys[rest, j])
    return out


def _pivot_round_cap(n: int) -> int:
    """Rounds after which the planar pivot search gives up on a set of n
    points.  In exact arithmetic each round strictly grows the ball, so no
    basis comes back.  In floats it need not: a new ball holds the old
    basis only within the slack, so its radius may be up to the slack
    smaller, and a round that finds no holding subset takes the first
    pair.  The cap is therefore what ends the search.  Seeded sets of 3 to
    200 points, generic and hard (noisy and plain lattices, 1e7 offsets,
    1e-9 extents), have needed at most 7 rounds."""
    return 4 * n + 8


# The six subsets of a basis (b0, b1, b2) and the pivot f (column 3) that
# contain f: three pairs, then three triples, so that on equal radii a
# pair wins.
_PAIRS = np.array([[0, 3], [1, 3], [2, 3]])
_TRIPLES = np.array([[0, 1, 3], [0, 2, 3], [1, 2, 3]])
# Each subset as a basis of three indices into (b0, b1, b2, f).
_SUBSETS = np.concatenate([_PAIRS[:, [0, 1, 1]], _TRIPLES])


def _seb2_pivot(sets: np.ndarray) -> np.ndarray:
    """Smallest enclosing disk (cx, cy, r) of each set in a (rows, n, 2)
    stack, as a (rows, 3) array, by Gärtner's pivoting search run on every
    row at once: the one planar miniball solver, which serves both
    :func:`evaluate` and the random SIP disks.

    A row holds a basis of at most three point indices (a pair or a single
    point repeats its last index) and its canonical ball, and starts from
    its first point.  Each round takes each row's farthest point f.  A row
    is done when f is inside its ball under Welzl's containment rule,
    distance at most radius + a slack of ``_WELZL_REL`` times the set's
    coordinate scale; every other row moves to the smallest canonical ball
    (:func:`_seb2_balls`) of a subset of basis and f that contains f and
    holds the basis and f under the same rule (the first pair if rounding
    leaves none).  So a row ends only on a ball
    that holds every point, and the choice decides only how many rounds
    it takes.  A set's disk is its final basis's canonical ball: centred
    on the point with radius 0.0 for one distinct point, and otherwise the
    bits of the exact engine's ball of the same basis.  A row still moving
    after :func:`_pivot_round_cap` rounds is refused."""
    rows, n, _ = sets.shape
    slack = _WELZL_REL * np.asarray(coordinate_scales(sets))
    disks = np.empty((rows, 3))
    active = np.arange(rows)
    xs, ys = sets[..., 0], sets[..., 1]
    basis = np.zeros((rows, 3), dtype=np.intp)
    ball = np.zeros((rows, 3))
    ball[:, 0], ball[:, 1] = xs[:, 0], ys[:, 0]
    for _ in range(_pivot_round_cap(n)):
        x, y = xs[active], ys[active]
        dx, dy = x - ball[:, :1], y - ball[:, 1:2]
        d2 = dx * dx + dy * dy
        f = d2.argmax(axis=1)
        reach = ball[:, 2] + slack
        out = d2[np.arange(len(f)), f] > reach * reach
        disks[active[~out]] = ball[~out]
        if not out.any():
            return disks
        active, basis, slack = active[out], basis[out], slack[out]
        members = np.column_stack([basis, f[out]])
        kept = np.flatnonzero(out)[:, None]
        mx, my = x[kept, members], y[kept, members]
        pairs = _seb2_balls(mx[:, _PAIRS].reshape(-1, 2), my[:, _PAIRS].reshape(-1, 2))
        triples = _seb2_balls(mx[:, _TRIPLES].reshape(-1, 3), my[:, _TRIPLES].reshape(-1, 3))
        balls = np.concatenate([pairs.reshape(-1, 3, 3), triples.reshape(-1, 3, 3)], axis=1)
        ex = mx[:, None, :] - balls[..., :1]
        ey = my[:, None, :] - balls[..., 1:2]
        reach = balls[..., 2] + slack[:, None]
        holds = (ex * ex + ey * ey <= (reach * reach)[..., None]).all(axis=2)
        pick = np.where(holds, balls[..., 2], np.inf).argmin(axis=1)
        kept = np.arange(len(pick))
        basis = members[kept[:, None], _SUBSETS[pick]]
        ball = balls[kept, pick]
    raise ResourceCapError(
        f"seb2 pivot search still moving after {_pivot_round_cap(n)} rounds on a set of {n} points"
    )


def _seb2_values(sets: np.ndarray) -> np.ndarray:
    """seb2 value of each set in a (rows, n, d) stack with n >= 1: the
    radius of its Welzl ball in 3-D; in 2-D the radius of the smallest
    enclosing disk, from one pivoting search over the whole stack
    (:func:`_seb2_pivot`), whose final ball is the canonical ball of its
    basis, so that a value has the bits of the exact engine's basis
    value."""
    if sets.shape[-1] == 2:
        return _seb2_pivot(sets)[:, 2]
    return np.array([welzl_ball(p, s).radius for p, s in zip(sets, coordinate_scales(sets))])


def evaluate(measure: MeasureId, pts) -> float | np.ndarray:
    """Exact measure value of a fixed point set (n, d), as a float, or of
    each set in a stack (..., n, d), as an array of shape (...).  A set's
    value has the same bits either way.

    A set needs at least one point.  seb2 takes the coordinate scales of
    the whole stack at once; in 2-D it solves every set in one pivoting
    search over the stack, in 3-D one Welzl ball per set
    (:func:`_seb2_values`).  dwid projects each set with its own
    ``pts @ u``, since a matmul over the whole stack may round a row
    differently."""
    arr = np.asarray(pts, dtype=np.float64)
    if arr.size == 0 and (arr.ndim < 2 or arr.shape[-2] == 0):
        raise ValueError(f"a point set needs at least one point, got shape {arr.shape}")
    if arr.ndim <= 2:
        arr = as_points(arr)
    elif arr.shape[-1] not in (2, 3):
        raise ValueError(f"expected a (..., m, d) stack with d in {{2, 3}}, got shape {arr.shape}")
    elif not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    d = arr.shape[-1]
    kind = measure.kind
    _check_input(measure, arr)
    if kind not in ("seb2", "dwid", "diameter") and d != 2:
        raise ValueError(f"{kind} is implemented for d=2 only")
    sets = arr.reshape((-1,) + arr.shape[-2:])
    if kind == "seb2":
        values = _seb2_values(sets)
    elif kind == "dwid":
        frame = np.array([_frame(measure, p) for p in sets]).reshape(sets.shape[:-1])
        values = _frame_values(kind, frame)
    else:
        values = _frame_values(kind, _frame(measure, sets))
    return float(values[0]) if arr.ndim == 2 else values.reshape(arr.shape[:-2])


# --------------------------------------------------------------------------
# Bases


@dataclass(frozen=True)
class BasisMember:
    """A basis element: index of the point it came from, the candidate index
    when the point is indecisive (None for plain point lists), and its
    location."""

    point: int
    candidate: int | None
    location: tuple[float, ...]


@dataclass(frozen=True)
class Basis:
    measure: MeasureId
    members: tuple[BasisMember, ...]
    value: float

    @property
    def size(self) -> int:
        return len(self.members)
