"""Geometric measures and the LP-type basis machinery.

Supported measures: smallest enclosing ball radius in the L2, L1 and
L-infinity metrics (``seb2``, ``seb1``, ``sebinf``), axis-aligned bounding
box perimeter and area, directional width, and diameter.  All but diameter
satisfy the LP-type monotonicity/locality axioms with a constant basis
size, which is what the deterministic engine exploits; diameter is exposed
for evaluation only.

Numeric conventions
-------------------
Comparisons of measure values use an absolute tolerance of 1e-9 scaled by
the point set's bounding-box diameter (squared for the area-valued
measure).  Basis identification internally uses much tighter thresholds
(1e-13/1e-14 of the coordinate scale) so that the deterministic engine's
counting agrees with brute-force enumeration even on near-degenerate,
jittered inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball,
    _circum3,
    _trivial_ball,
    as_points,
    bbox_diameter,
    coordinate_scale,
    welzl_ball,
)

__all__ = [
    "MeasureId",
    "Basis",
    "BasisMember",
    "NotLPTypeError",
    "combinatorial_dimension",
    "tolerance",
    "evaluate",
    "find_basis",
    "full_violation_test",
    "check_lp_axioms",
    "AxiomReport",
]

_MATCH_REL = 1e-13   # value-identity threshold for basis recognition
_STRICT_REL = 1e-14  # strictness margin for minimality / interior tests

_KINDS = ("seb2", "seb1", "sebinf", "aabb_perimeter", "aabb_area", "dwid", "diameter")
_AREA_VALUED = {"aabb_area"}


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
            u = np.asarray(self.direction, dtype=np.float64)
            norm = float(np.linalg.norm(u))
            if not norm > 0:
                raise ValueError("dwid direction must be nonzero")
            object.__setattr__(self, "direction", tuple(float(x) for x in u / norm))
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


def value_scale(measure: MeasureId, length_scale: float) -> float:
    """Scale factor converting the coordinate length scale into the units of
    the measure's value (squared for area)."""
    return length_scale * length_scale if measure.kind in _AREA_VALUED else length_scale


def tolerance(pts: np.ndarray, measure: MeasureId | None = None) -> float:
    """Absolute comparison tolerance: 1e-9 times the bounding-box diameter
    (diameter squared for area-valued measures)."""
    diam = bbox_diameter(pts)
    if measure is not None and measure.kind in _AREA_VALUED:
        return 1e-9 * diam * diam
    return 1e-9 * diam


# --------------------------------------------------------------------------
# Evaluation


def _rot_coords(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 45-degree frame in which the L1 ball is an axis-aligned square.
    return pts[..., 0] + pts[..., 1], pts[..., 1] - pts[..., 0]


def _frame(measure: MeasureId, pts: np.ndarray) -> np.ndarray:
    """Per-point coordinates that :func:`_frame_values` reads: the
    projections (..., n) onto the direction for dwid, the (..., n, 2)
    45-degree frame for seb1, the (..., n, d) points themselves otherwise.

    The seb1 frame is elementwise.  The dwid projection is a matmul, whose
    BLAS kernel may round a row differently with its position in the
    matrix, so callers that must agree bitwise project the same matrices."""
    kind = measure.kind
    if kind == "dwid":
        return pts @ np.asarray(measure.direction)
    if kind == "seb1":
        rot = np.empty_like(pts)
        rot[..., 0], rot[..., 1] = _rot_coords(pts)
        return rot
    return pts


def _frame_values(kind: str, f: np.ndarray) -> np.ndarray:
    """Value of each point set in a stack of frame coordinates, reduced
    over the last two axes (the last one for dwid); every measure but
    seb2."""
    if kind == "dwid":
        return f.max(axis=-1) - f.min(axis=-1)
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
    if kind in ("sebinf", "seb1"):
        return ext.max(axis=-1) / 2.0
    if kind == "aabb_perimeter":
        return 2.0 * (ext[..., 0] + ext[..., 1])
    if kind == "aabb_area":
        return ext[..., 0] * ext[..., 1]
    raise AssertionError(kind)


def _strictly_acute(xs: np.ndarray, ys: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Rows of three planar points whose triangle is strictly acute: vertex
    V lies outside the opposite pair's diametral disk iff (A-V).(B-V) > 0.
    The three dot products are the same floats in any vertex order."""
    ax, bx, cx = xs.T
    ay, by, cy = ys.T
    return (
        ((bx - ax) * (cx - ax) + (by - ay) * (cy - ay) > eps)
        & ((ax - bx) * (cx - bx) + (ay - by) * (cy - by) > eps)
        & ((ax - cx) * (bx - cx) + (ay - cy) * (by - cy) > eps)
    )


def _seb2_ball_tuple(coords) -> tuple:
    """Canonical enclosing ball of at most three points given as coordinate
    tuples.  Members are sorted before solving so the result is bitwise
    reproducible regardless of input order, and the pair-vs-circumcircle
    decision for triples uses exact sign predicates (a triangle's enclosing
    ball is its circumcircle iff no angle is obtuse), not tolerance slack.
    Returns (cx, cy[, cz], radius, support)."""
    pts = sorted(tuple(float(x) for x in p) for p in coords)
    d = len(pts[0])
    m = len(pts)
    if m == 1:
        return (*pts[0], 0.0, (0,))

    def diametral(i, j):
        a, b = pts[i], pts[j]
        c = tuple(0.5 * (a[t] + b[t]) for t in range(d))
        r = math.sqrt(sum((a[t] - c[t]) ** 2 for t in range(d)))
        return (*c, r, (i, j))

    if m == 2:
        return diametral(0, 1)
    if m == 3:
        dots = []
        for v in range(3):
            p, q = [t for t in range(3) if t != v]
            dots.append(
                sum((pts[p][t] - pts[v][t]) * (pts[q][t] - pts[v][t]) for t in range(d))
            )
        if all(x > 0.0 for x in dots):
            sol = _circum3(pts[0], pts[1], pts[2], d)
            if sol is not None:
                c, r2 = sol
                return (*c, math.sqrt(r2), (0, 1, 2))
        # Some angle >= 90 degrees (or degenerate): the ball is the diametral
        # disk of the pair opposite the widest vertex.
        v = min(range(3), key=lambda t: dots[t])
        i, j = [t for t in range(3) if t != v]
        return diametral(i, j)
    return _trivial_ball(pts, list(range(m)), d)


def _seb2_balls(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """:func:`_seb2_ball_tuple` over many rows of 2 or 3 planar points.

    ``xs`` and ``ys`` are (rows, m) coordinates; returns (rows, 3) of
    (cx, cy, radius), bit for bit what the scalar function gives per row.
    Rows are sorted as ``sorted`` sorts coordinate tuples.  Pair radii
    square with CPython's float ``**`` (libm ``pow``), which numpy's
    multiply and power do not match on every value.  Strictly acute triples
    with a well-conditioned circumcircle take only + - * / and comparisons,
    which numpy rounds as CPython does; the other triples go to the scalar
    function, which stays the one definition."""
    order = np.lexsort((ys, xs))
    xs = np.take_along_axis(xs, order, axis=1)
    ys = np.take_along_axis(ys, order, axis=1)
    out = np.empty((len(xs), 3))
    if xs.shape[1] == 2:
        out[:, 0] = 0.5 * (xs[:, 0] + xs[:, 1])
        out[:, 1] = 0.5 * (ys[:, 0] + ys[:, 1])
        dx = (xs[:, 0] - out[:, 0]).tolist()
        dy = (ys[:, 0] - out[:, 1]).tolist()
        out[:, 2] = np.sqrt([a**2 + b**2 for a, b in zip(dx, dy)])
        return out
    ax, bx, cx = xs.T
    ay, by, cy = ys.T
    acute = _strictly_acute(xs, ys)
    # _circum3's circumcircle relative to the first point, where it has one.
    ubx, uby, ucx, ucy = bx - ax, by - ay, cx - ax, cy - ay
    det = 2.0 * (ubx * ucy - uby * ucx)
    norm = np.maximum(np.abs(np.stack([ubx, uby, ucx, ucy])).max(axis=0), 1e-300)
    circ = acute & (np.abs(det) > 1e-14 * norm * norm)
    ubx, uby, ucx, ucy, det = ubx[circ], uby[circ], ucx[circ], ucy[circ], det[circ]
    b2 = ubx * ubx + uby * uby
    c2 = ucx * ucx + ucy * ucy
    ux = (ucy * b2 - uby * c2) / det
    uy = (ubx * c2 - ucx * b2) / det
    out[circ] = np.column_stack([ax[circ] + ux, ay[circ] + uy, np.sqrt(ux * ux + uy * uy)])
    for i in np.flatnonzero(~circ).tolist():
        out[i] = _seb2_ball_tuple(tuple(zip(xs[i].tolist(), ys[i].tolist())))[:3]
    return out


def _seb2_ball_of_members(locs: np.ndarray) -> Ball:
    """Canonical enclosing ball of a (candidate) basis (array interface)."""
    locs = np.asarray(locs, dtype=np.float64)
    d = locs.shape[1]
    sol = _seb2_ball_tuple([tuple(row) for row in locs])
    return Ball(np.array(sol[:d]), sol[d], sol[d + 1])


def _seb2_value(pts: np.ndarray) -> float:
    ball = welzl_ball(pts)
    if pts.shape[1] == 2 and 1 <= len(ball.support) <= 3:
        # Recompute from the defining set in canonical order so the value
        # is bitwise identical to the deterministic engine's basis value.
        return _seb2_ball_tuple([tuple(pts[i]) for i in ball.support])[2]
    return ball.radius


def evaluate(measure: MeasureId, pts) -> float | np.ndarray:
    """Exact measure value of a fixed point set (n, d), as a float, or of
    each set in a stack (..., n, d), as an array of shape (...).  A set's
    value has the same bits either way.

    seb2 solves one miniball per set.  dwid projects each set with its own
    ``pts @ u``, since a matmul over the whole stack may round a row
    differently."""
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim <= 2:
        arr = as_points(arr)
    elif arr.shape[-1] not in (2, 3):
        raise ValueError(f"expected a (..., m, d) stack with d in {{2, 3}}, got shape {arr.shape}")
    elif not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    d = arr.shape[-1]
    kind = measure.kind
    if kind == "dwid" and len(measure.direction) != d:
        raise ValueError(f"dwid direction has dimension {len(measure.direction)}, points have {d}")
    if kind not in ("seb2", "dwid", "diameter") and d != 2:
        raise ValueError(f"{kind} is implemented for d=2 only")
    sets = arr.reshape((-1,) + arr.shape[-2:])
    if kind == "seb2":
        values = np.array([_seb2_value(p) for p in sets], dtype=np.float64)
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

    def member_array(self) -> np.ndarray:
        return np.array([m.location for m in self.members], dtype=np.float64)

    def indices(self) -> tuple[int, ...]:
        return tuple(m.point for m in self.members)


def _seb2_basis_indices(pts: np.ndarray) -> tuple[int, ...]:
    """Defining index set of the minimum enclosing disk, ties broken by the
    lexicographically smallest index tuple."""
    n = len(pts)
    if n == 1:
        return (0,)
    ball = welzl_ball(pts)
    scale = coordinate_scale(pts)
    match_eps = _MATCH_REL * scale
    strict_eps = _STRICT_REL * scale
    dist = np.linalg.norm(pts - ball.center, axis=1)
    on_boundary = np.flatnonzero(np.abs(dist - ball.radius) <= max(1e-9 * scale, match_eps))
    if len(on_boundary) == 0:
        on_boundary = np.array(sorted(ball.support))
    candidates = [int(i) for i in on_boundary]
    if len(candidates) > 12:
        candidates = candidates[:12]
    for size in (1, 2, 3):
        if size > len(candidates):
            break
        for combo in itertools.combinations(candidates, size):
            sub = _seb2_ball_of_members(pts[list(combo)])
            if abs(sub.radius - ball.radius) > match_eps:
                continue
            d2 = np.linalg.norm(pts - sub.center, axis=1)
            if d2.max() > sub.radius + max(1e-11 * scale, match_eps):
                continue
            if size >= 2:
                minimal = all(
                    _seb2_ball_of_members(pts[[c for c in combo if c != drop]]).radius
                    < sub.radius - strict_eps
                    for drop in combo
                )
                if not minimal:
                    continue
            return combo
    return tuple(sorted(ball.support))


def _extreme_candidates(measure: MeasureId, pts: np.ndarray) -> list[int]:
    """Indices attaining (bitwise) one of the measure's defining extremes."""
    kind = measure.kind
    cols: list[np.ndarray]
    if kind == "dwid":
        cols = [pts @ np.asarray(measure.direction)]
    elif kind in ("aabb_perimeter", "aabb_area", "sebinf"):
        cols = [pts[:, 0], pts[:, 1]]
    elif kind == "seb1":
        s, t = _rot_coords(pts)
        cols = [s, t]
    else:
        raise AssertionError(kind)
    out: set[int] = set()
    for c in cols:
        out.update(np.flatnonzero(c == c.min()).tolist())
        out.update(np.flatnonzero(c == c.max()).tolist())
    return sorted(out)


def find_basis(measure: MeasureId, pts) -> Basis:
    """Minimal defining subset with the same measure value as the whole set.

    Ties are broken by the lexicographically smallest index tuple; the
    returned value equals ``evaluate`` on the full set up to the internal
    identification threshold.
    """
    if not measure.is_lp_type:
        raise NotLPTypeError("diameter is not LP-type; no basis structure is available")
    pts = as_points(pts)
    if measure.kind != "seb2" and pts.shape[1] != 2:
        raise ValueError(f"{measure.kind} basis search is implemented for d=2 only")
    scale = coordinate_scale(pts)
    vscale = value_scale(measure, scale)
    total = evaluate(measure, pts)
    if measure.kind == "seb2":
        combo = _seb2_basis_indices(pts)
        value = _seb2_ball_of_members(pts[list(combo)]).radius
        members = tuple(BasisMember(int(i), None, tuple(pts[i])) for i in combo)
        return Basis(measure, members, value)
    candidates = _extreme_candidates(measure, pts)
    if len(candidates) > 12:
        candidates = candidates[:12]
    beta = combinatorial_dimension(measure, pts.shape[1])
    match_eps = _MATCH_REL * vscale
    strict_eps = _STRICT_REL * vscale
    for size in range(1, min(beta, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            sub = pts[list(combo)]
            if abs(evaluate(measure, sub) - total) > match_eps:
                continue
            minimal = True
            if size > 1:
                for drop in range(size):
                    rest = np.delete(sub, drop, axis=0)
                    if evaluate(measure, rest) >= total - strict_eps:
                        minimal = False
                        break
            if minimal:
                members = tuple(BasisMember(int(i), None, tuple(pts[i])) for i in combo)
                return Basis(measure, members, total)
    raise AssertionError(f"no basis identified for {measure.kind} (numerically degenerate input)")


def full_violation_test(measure: MeasureId, basis: Basis, candidate) -> bool:
    """True iff adding the candidate strictly increases the basis value.

    Equality (the candidate on the shape boundary) counts as no violation;
    the comparison uses the bounding-box tolerance policy.  Only the basis is
    consulted, which is what makes the test O(1) for constant basis size.
    """
    cand = np.asarray(candidate, dtype=np.float64).reshape(1, -1)
    union = np.concatenate([basis.member_array(), cand], axis=0)
    return evaluate(measure, union) > basis.value + tolerance(union, measure)


# --------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class AxiomReport:
    measure: MeasureId
    trials: int
    monotonicity_violations: tuple
    locality_violations: tuple
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.monotonicity_violations and not self.locality_violations


def check_lp_axioms(measure: MeasureId, pts, trials: int, seed: int) -> AxiomReport:
    """Randomized spot-check of monotonicity and locality on nested subsets.

    For diameter the check still runs (monotonicity holds; locality
    generally fails), but the result is diagnostic only: the deterministic
    engine never relies on a violation test for diameter.
    """
    pts = as_points(pts)
    n = len(pts)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    mono, loc = [], []
    for t in range(trials):
        size_g = int(rng.integers(1, n + 1))
        g_idx = np.sort(rng.choice(n, size=size_g, replace=False))
        size_f = int(rng.integers(1, size_g + 1))
        f_idx = np.sort(rng.choice(g_idx, size=size_f, replace=False))
        g = pts[g_idx]
        f = pts[f_idx]
        vg = evaluate(measure, g)
        vf = evaluate(measure, f)
        tol = tolerance(g, measure)
        if vf > vg + tol:
            mono.append((tuple(f_idx), tuple(g_idx), vf, vg))
            continue
        if abs(vf - vg) <= tol and size_g < n:
            rest = np.setdiff1d(np.arange(n), g_idx)
            h = int(rng.choice(rest))
            vg_h = evaluate(measure, np.concatenate([g, pts[[h]]]))
            vf_h = evaluate(measure, np.concatenate([f, pts[[h]]]))
            if vg_h > vg + tol and not (vf_h > vf + tol):
                loc.append((tuple(f_idx), tuple(g_idx), h))
    note = ""
    if measure.kind == "diameter":
        note = (
            "diameter monotone but locality is not exploitable: "
            "no constant-time full violation test exists"
        )
    return AxiomReport(measure, trials, tuple(mono), tuple(loc), note)
