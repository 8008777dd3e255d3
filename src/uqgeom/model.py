"""Domain types for uncertain and indecisive point sets.

Two input models are supported:

* indecisive points: each point takes one of finitely many candidate
  locations, with exact rational weights summing to one;
* continuous uncertain points: each point follows a parametric planar/3D
  distribution (Gaussian, uniform disk, or point mass).

All types are immutable after construction and safe to share across
threads.  Sampling takes an explicit numpy ``Generator`` so callers control
reproducibility; see :func:`uqgeom.montecarlo.trial_rng` for the
counter-based stream derivation used by the randomized engines, which
derive the seeds of a chunk of trials at once and draw the chunk's supports
with :func:`draw_supports`, one stream per trial.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import as_points, coordinate_scale

__all__ = [
    "ValidationError",
    "ResourceCapError",
    "IndecisivePoint",
    "IndecisivePointSet",
    "GaussianPoint",
    "UniformDiskPoint",
    "PointMassPoint",
    "ContinuousUncertainSet",
    "Support",
    "sample_support",
    "draw_supports",
    "support_probability",
    "canonical_jitter",
    "load_point_set",
    "save_point_set",
]


class ValidationError(ValueError):
    """Raised for malformed inputs; maps to CLI exit code 2."""


class ResourceCapError(RuntimeError):
    """Raised when a run would exceed a cap on its size (supports,
    sampled points, raster cells, candidates or kernel directions), before
    it allocates for them; maps to CLI exit code 3."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# --------------------------------------------------------------------------
# Indecisive model


@dataclass(frozen=True, eq=False)
class IndecisivePoint:
    """One uncertain point restricted to finitely many weighted locations.

    ``weights`` are exact rationals in (0, 1] summing to exactly 1; decimal
    inputs should be converted with an exact decimal expansion before
    construction (the JSON loader does this).  They are validated, and kept
    in ``_nums``, as integers over their common denominator ``_denom``.
    """

    locations: np.ndarray  # (k, d), read-only
    weights: tuple[Fraction, ...]
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _denom: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        locs = as_points(self.locations)
        object.__setattr__(self, "locations", _freeze(locs))
        w = tuple(x if type(x) is Fraction else Fraction(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != len(locs):
            raise ValidationError(f"{len(locs)} locations but {len(w)} weights")
        denom = math.lcm(*(x.denominator for x in w))
        nums = tuple(x.numerator * (denom // x.denominator) for x in w)
        if any(not (0 < v <= denom) for v in nums):
            raise ValidationError("weights must lie in (0, 1]")
        if sum(nums) != denom:
            raise ValidationError(f"weights sum to {Fraction(sum(nums), denom)}, expected exactly 1")
        # Python's int / int is correctly rounded: float() of each weight.
        cum = np.cumsum([v / denom for v in nums])
        cum[-1] = 1.0
        object.__setattr__(self, "_cum", _freeze(cum))
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_denom", denom)

    @classmethod
    def _fresh(cls, locations: np.ndarray, like: "IndecisivePoint") -> "IndecisivePoint":
        """A point at new (k, d) read-only float64 finite locations that
        nothing else writes, with the already validated weights of ``like``:
        skips the public constructor's validation and copies."""
        point = object.__new__(cls)
        object.__setattr__(point, "locations", locations)
        object.__setattr__(point, "weights", like.weights)
        object.__setattr__(point, "_cum", like._cum)
        object.__setattr__(point, "_nums", like._nums)
        object.__setattr__(point, "_denom", like._denom)
        return point

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def dimension(self) -> int:
        return self.locations.shape[1]


@dataclass(frozen=True, eq=False)
class IndecisivePointSet:
    points: tuple[IndecisivePoint, ...]
    dimension: int
    # True once canonical_jitter has been applied; the deterministic engine
    # skips re-jittering sets that carry this mark.
    jitter_applied: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValidationError("need at least one point")
        for i, p in enumerate(self.points):
            if p.dimension != self.dimension:
                raise ValidationError(
                    f"points[{i}] has dimension {p.dimension}, set has {self.dimension}"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def k_max(self) -> int:
        return max(p.k for p in self.points)

    def support_count(self) -> int:
        out = 1
        for p in self.points:
            out *= p.k
        return out

    def all_locations(self) -> np.ndarray:
        return np.concatenate([p.locations for p in self.points], axis=0)

    @functools.cached_property
    def _sampling_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Tables for drawing a whole support at once: the cumulative
        weights padded with inf (n, k_max), the candidate locations
        (n, k_max, d), each point's k - 1, and the row indices."""
        cum = np.full((self.n, self.k_max), np.inf)
        locations = np.zeros((self.n, self.k_max, self.dimension))
        for i, p in enumerate(self.points):
            cum[i, : p.k] = p._cum
            locations[i, : p.k] = p.locations
        last = np.array([p.k - 1 for p in self.points])
        return cum, locations, last, np.arange(self.n)

    @functools.cached_property
    def _jittered(self) -> "IndecisivePointSet":
        """The set :func:`canonical_jitter` returns, computed once."""
        return _jitter(self)


# --------------------------------------------------------------------------
# Continuous model


@dataclass(frozen=True, eq=False)
class GaussianPoint:
    mean: np.ndarray
    cov: np.ndarray  # symmetric positive-definite, (d, d)
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _freeze(np.asarray(self.mean, dtype=np.float64).reshape(-1))
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (len(mean), len(mean)):
            raise ValidationError(f"covariance shape {cov.shape} does not match mean of length {len(mean)}")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise ValidationError("covariance must be symmetric")
        with np.errstate(over="ignore"):
            cov = 0.5 * (cov + cov.T)
        if not np.isfinite(cov).all():
            raise ValidationError("covariance must be finite")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValidationError("covariance must be positive-definite") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _freeze(cov))
        object.__setattr__(self, "_chol", _freeze(chol))

    @property
    def dimension(self) -> int:
        return len(self.mean)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self._chol @ rng.standard_normal(self.dimension)


@dataclass(frozen=True, eq=False)
class UniformDiskPoint:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _freeze(np.asarray(self.center, dtype=np.float64).reshape(-1))
        if len(center) != 2:
            raise ValidationError("uniform_disk supports d=2 only")
        if not (self.radius > 0):
            raise ValidationError("radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self) -> int:
        return 2

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._place(rng.random((2, 1)))[0]

    def _place(self, uv: np.ndarray) -> np.ndarray:
        """Locations (rows, 2) from the two uniforms of each draw, (2, rows):
        ``uv[0]`` sets the radius and ``uv[1]`` the angle.  Scalar ``math``
        per draw, so the bits do not depend on numpy's vector kernels."""
        cx, cy = self.center.tolist()
        out = []
        for u, v in zip(*uv.tolist()):
            theta = 2.0 * math.pi * v
            r = self.radius * math.sqrt(u)
            out.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
        return np.array(out).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class PointMassPoint:
    at: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "at", _freeze(np.asarray(self.at, dtype=np.float64).reshape(-1)))

    @property
    def dimension(self) -> int:
        return len(self.at)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.at.copy()


ContinuousUncertainPoint = GaussianPoint | UniformDiskPoint | PointMassPoint


@dataclass(frozen=True, eq=False)
class ContinuousUncertainSet:
    points: tuple[ContinuousUncertainPoint, ...]
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValidationError("need at least one point")
        for i, p in enumerate(self.points):
            if p.dimension != self.dimension:
                raise ValidationError(
                    f"points[{i}] has dimension {p.dimension}, set has {self.dimension}"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    @functools.cached_property
    def _sampling_plan(self) -> tuple[tuple, tuple, tuple]:
        """How a support is drawn.  ``draws``, in stream order: the stream
        call (``"standard_normal"`` or ``"random"``) and the index, in a
        support's (n, d) draw buffer, that it fills; one
        ``standard_normal((run, d))`` per run of consecutive Gaussian
        points, two uniforms per uniform disk, nothing for a point mass.
        ``gaussians``: ``(start, stop, means, chols)`` per Gaussian run.
        ``others``: ``(i, point)`` per other point."""
        draws, gaussians, others = [], [], []
        start = 0
        for gaussian, group in itertools.groupby(self.points, key=lambda p: isinstance(p, GaussianPoint)):
            group = list(group)
            if gaussian:
                means = np.array([p.mean for p in group])
                chols = np.array([p._chol for p in group])
                draws.append(("standard_normal", (slice(start, start + len(group)),)))
                gaussians.append((start, start + len(group), means, chols))
            else:
                for i, p in enumerate(group, start):
                    if isinstance(p, UniformDiskPoint):
                        draws.append(("random", (i, slice(0, 2))))
                    others.append((i, p))
            start += len(group)
        return tuple(draws), tuple(gaussians), tuple(others)


# --------------------------------------------------------------------------
# Supports


@dataclass(frozen=True, eq=False)
class Support:
    """One realization: exactly one location per uncertain point.

    ``provenance`` carries the chosen candidate index per point when the
    support comes from an indecisive set; it is required for exact
    probability computations.
    """

    locations: np.ndarray  # (n, d)
    provenance: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "locations", _freeze(as_points(self.locations)))
        if self.provenance is not None:
            object.__setattr__(self, "provenance", tuple(int(j) for j in self.provenance))
            if len(self.provenance) != len(self.locations):
                raise ValidationError("provenance length must equal the number of points")

    @property
    def n(self) -> int:
        return len(self.locations)

    @classmethod
    def _fresh(cls, locations: np.ndarray, provenance: tuple[int, ...] | None) -> "Support":
        """A support around a new (n, d) float64 array of finite locations
        that nothing else references, and provenance already of ints:
        skips the public constructor's validation and copy."""
        locations.setflags(write=False)
        support = object.__new__(cls)
        object.__setattr__(support, "locations", locations)
        object.__setattr__(support, "provenance", provenance)
        return support


def sample_support(uset: IndecisivePointSet | ContinuousUncertainSet, rng: np.random.Generator) -> Support:
    """Draw one support, each location independently from its point's
    distribution: the one-row case of :func:`draw_supports`."""
    locations, choices = draw_supports(uset, [rng])
    return Support._fresh(locations[0], None if choices is None else tuple(choices[0].tolist()))


def draw_supports(
    uset: IndecisivePointSet | ContinuousUncertainSet, rngs
) -> tuple[np.ndarray, np.ndarray | None]:
    """One support per generator in ``rngs``: the (rows, n, d) locations,
    and for an indecisive set the (rows, n) chosen candidate indices (None
    for a continuous set).

    Each generator is consumed exactly as by one draw per point in point
    order: an indecisive support takes ``rng.random(n)``, a run of
    consecutive Gaussian points one ``standard_normal((run, d))``, and a
    uniform disk two ``rng.random()``.  Only those draws are made per row;
    the inverse-CDF lookup over the cumulative weights (which respects the
    rational weights), the Gaussians' ``chol @ z`` as one stacked
    ``matmul`` (the same bits as per point), the disk transform and the
    finiteness check each run once over all rows."""
    rows = len(rngs)
    if isinstance(uset, IndecisivePointSet):
        cum, locations, last, points = uset._sampling_plan
        u = np.empty((rows, uset.n))
        for t, rng in enumerate(rngs):
            rng.random(out=u[t])
        j = np.minimum((cum <= u[..., None]).sum(axis=2), last)
        return locations[points, j], j
    draws, gaussians, others = uset._sampling_plan
    z = np.empty((rows, uset.n, uset.dimension))
    for t, rng in enumerate(rngs):
        for call, index in draws:
            getattr(rng, call)(out=z[(t, *index)])
    locs = np.empty_like(z)
    for start, stop, means, chols in gaussians:
        locs[:, start:stop] = means + np.matmul(chols, z[:, start:stop, :, None])[..., 0]
    for i, point in others:
        locs[:, i] = point._place(z[:, i, :2].T) if isinstance(point, UniformDiskPoint) else point.at
    if not np.isfinite(locs).all():
        raise ValueError("coordinates must be finite")
    return locs, None


def support_probability(uset: IndecisivePointSet, support: Support) -> Fraction:
    """Exact probability of a support: the product of chosen candidate weights."""
    if support.provenance is None:
        raise ValidationError("provenance required")
    if len(support.provenance) != uset.n:
        raise ValidationError("support does not match the point set")
    prob = Fraction(1)
    for p, j in zip(uset.points, support.provenance):
        prob *= p.weights[j]
    return prob


# --------------------------------------------------------------------------
# Canonical jitter

# Fixed pseudo-random unit direction used for all jitter offsets.
_JITTER_ANGLE = 2.399963229728653  # radians
_JITTER_DIR = (math.cos(_JITTER_ANGLE), math.sin(_JITTER_ANGLE))
_JITTER_UNIT = 2.0**-40


def canonical_jitter(uset: IndecisivePointSet) -> IndecisivePointSet:
    """Deterministic symbolic-style perturbation enabling general position.

    Candidate (i, j) is translated by a distinct multiple of 2^-40 (scaled by
    the coordinate magnitude of the set) along one fixed pseudo-random
    direction, so coincident candidates, shared coordinates, concyclic
    quadruples and projection ties are all broken consistently.  Applying the
    function to an already-jittered set is a no-op.  The jittered set is
    computed once per set and kept on it, so the exact engine and the
    oracle on one set share it.
    """
    return uset if uset.jitter_applied else uset._jittered


def _jitter(uset: IndecisivePointSet) -> IndecisivePointSet:
    locs = uset.all_locations()
    step = _JITTER_UNIT * coordinate_scale(locs)
    if uset.dimension == 2:
        direction = np.array(_JITTER_DIR)
    else:
        direction = np.array([_JITTER_DIR[0], _JITTER_DIR[1], math.sin(1.0)])
        direction /= np.linalg.norm(direction)
    # Candidate number c (from 1, in point order) moves by c * step.
    flat = locs + (np.arange(1, len(locs) + 1)[:, None] * step) * direction
    if not np.isfinite(flat).all():
        raise ValidationError("jittered coordinates overflow; rescale the input")
    # Distinct multiples guarantee pairwise-distinct candidates unless the
    # raw input was adversarially aligned with the jitter direction.
    if len(set(map(tuple, flat.tolist()))) != len(flat):
        raise ValidationError("jitter failed to separate coincident candidates")
    flat.setflags(write=False)
    bounds = np.cumsum([p.k for p in uset.points])[:-1]
    new_points = tuple(IndecisivePoint._fresh(a, p) for a, p in zip(np.split(flat, bounds), uset.points))
    return IndecisivePointSet(new_points, uset.dimension, jitter_applied=True)


# --------------------------------------------------------------------------
# JSON interchange


def _weight_to_json(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def _parse_weight(text, where: str) -> Fraction:
    try:
        # Plain "p/q" strings, as save_point_set writes them, skip the regex.
        if type(text) is str and text.isascii():
            num, slash, den = text.partition("/")
            if slash and num.isdigit() and den.isdigit():
                return Fraction(int(num), int(den))
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: cannot parse weight {text!r}") from None


def load_point_set(document) -> IndecisivePointSet | ContinuousUncertainSet:
    """Parse the JSON interchange format.

    Accepts raw bytes/str, or an already-parsed mapping.  Floats in weight
    positions are expanded exactly from their decimal representation.
    """
    if isinstance(document, (bytes, bytearray)):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            doc = json.loads(document, parse_float=str)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ValidationError("top-level document must be an object")
    for key in ("dimension", "model", "points"):
        if key not in doc:
            raise ValidationError(f"missing top-level key {key!r}")
    try:
        d = int(doc["dimension"])
    except (TypeError, ValueError, OverflowError):
        d = None
    if d not in (2, 3):
        raise ValidationError("dimension must be 2 or 3")
    model = doc["model"]
    raw_points = doc["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ValidationError("points must be a non-empty list")
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict):
            raise ValidationError(f"points[{i}]: must be an object")

    if model == "indecisive":
        points = []
        for i, rp in enumerate(raw_points):
            where = f"points[{i}]"
            if "locations" not in rp or "weights" not in rp:
                raise ValidationError(f"{where}: needs 'locations' and 'weights'")
            if not isinstance(rp["weights"], list):
                raise ValidationError(f"{where}: weights must be a list")
            weights = tuple(_parse_weight(w, where) for w in rp["weights"])
            try:
                locs = np.asarray(rp["locations"], dtype=np.float64)
                point = IndecisivePoint(locs, weights)
            except (ValidationError, ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"{where}: {exc}") from None
            points.append(point)
        jittered = doc.get("jitter_applied", False)
        if not isinstance(jittered, bool):
            raise ValidationError("jitter_applied must be true or false")
        try:
            return IndecisivePointSet(tuple(points), d, jitter_applied=jittered)
        except ValidationError as exc:
            raise ValidationError(f"points: {exc}") from None

    if model == "continuous":
        points = []
        for i, rp in enumerate(raw_points):
            where = f"points[{i}]"
            kind = rp.get("kind")
            try:
                if kind == "gaussian":
                    point = GaussianPoint(
                        np.asarray(rp["mean"], dtype=np.float64),
                        np.asarray(rp["cov"], dtype=np.float64),
                    )
                elif kind == "uniform_disk":
                    point = UniformDiskPoint(
                        np.asarray(rp["center"], dtype=np.float64), float(rp["radius"])
                    )
                elif kind == "point_mass":
                    point = PointMassPoint(np.asarray(rp["at"], dtype=np.float64))
                else:
                    raise ValidationError(f"unknown kind {kind!r}")
            except KeyError as exc:
                raise ValidationError(f"{where}: {kind} needs the field {exc}") from None
            except (ValidationError, ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"{where}: {exc}") from None
            points.append(point)
        try:
            return ContinuousUncertainSet(tuple(points), d)
        except ValidationError as exc:
            raise ValidationError(f"points: {exc}") from None

    raise ValidationError(f"unknown model {model!r}")


def save_point_set(uset: IndecisivePointSet | ContinuousUncertainSet) -> str:
    """Serialize to the JSON interchange format (inverse of load_point_set)."""
    if isinstance(uset, IndecisivePointSet):
        doc = {
            "dimension": uset.dimension,
            "model": "indecisive",
            "points": [
                {
                    "locations": [[float(x) for x in loc] for loc in p.locations],
                    "weights": [_weight_to_json(w) for w in p.weights],
                }
                for p in uset.points
            ],
        }
        if uset.jitter_applied:
            doc["jitter_applied"] = True
    else:
        points = []
        for p in uset.points:
            if isinstance(p, GaussianPoint):
                points.append(
                    {
                        "kind": "gaussian",
                        "mean": [float(x) for x in p.mean],
                        "cov": [[float(x) for x in row] for row in p.cov],
                    }
                )
            elif isinstance(p, UniformDiskPoint):
                points.append(
                    {"kind": "uniform_disk", "center": [float(x) for x in p.center], "radius": p.radius}
                )
            else:
                points.append({"kind": "point_mass", "at": [float(x) for x in p.at]})
        doc = {"dimension": uset.dimension, "model": "continuous", "points": points}
    return json.dumps(doc, indent=2)
