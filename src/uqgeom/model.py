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

from .geometry import _JITTER_UNIT, _SYMMETRY_TOL, as_points, coordinate_scale
from .quantize import _ratio_cells, _ratio_floats, _real

__all__ = [
    "ValidationError",
    "ResourceCapError",
    "IndecisivePoint",
    "IndecisivePointSet",
    "GaussianPoint",
    "UniformDiskPoint",
    "PointMassPoint",
    "ContinuousUncertainSet",
    "sample_support",
    "draw_supports",
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


def _integer_weights(pairs: list[tuple[int, int]], k: int) -> tuple[list[int], int]:
    """One point's weights for its k candidates, given as reduced
    (numerator, denominator) pairs, as integer numerators over their common
    denominator, checked to lie in (0, 1] and sum to 1."""
    if len(pairs) != k:
        raise ValidationError(f"{k} locations but {len(pairs)} weights")
    denom = math.lcm(*(d for _, d in pairs))
    nums = [v * (denom // d) for v, d in pairs]
    if any(not (0 < v <= denom) for v in nums):
        raise ValidationError("weights must lie in (0, 1]")
    if sum(nums) != denom:
        raise ValidationError(f"weights sum to {Fraction(sum(nums), denom)}, expected exactly 1")
    return nums, denom


def _pairs(weights: tuple[Fraction, ...]) -> list[tuple[int, int]]:
    return [(x.numerator, x.denominator) for x in weights]


def _stacked(located: list) -> np.ndarray | None:
    """Every point's locations as one (N, d) float array from one
    conversion, when each point's are a nonempty list (as JSON spells them)
    of rows of one length d in {2, 3}, every coordinate finite.  None
    otherwise, and the caller reads the points one by one (``as_points``),
    which names the first faulty one, or takes what one array cannot: a
    single location spelled as a flat list, points of differing dimensions,
    and locations already held as arrays."""
    if not all(type(rows) is list and rows for rows in located):
        return None
    try:
        flat = np.array([row for rows in located for row in rows], dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return None
    if flat.ndim != 2 or flat.shape[1] not in (2, 3) or not np.isfinite(flat).all():
        return None
    return flat


def _check_dimensions(dimension, dims: list[int]) -> None:
    """A set's dimension is the int 2 or 3, and its points' ``dims`` match it."""
    if not isinstance(dimension, int) or dimension not in (2, 3):
        raise ValidationError("dimension must be 2 or 3")
    if not dims:
        raise ValidationError("need at least one point")
    for i, d in enumerate(dims):
        if d != dimension:
            raise ValidationError(f"points[{i}]: has dimension {d}, set has {dimension}")


@dataclass(frozen=True, eq=False)
class IndecisivePoint:
    """One uncertain point restricted to finitely many weighted locations.

    ``weights`` are exact rationals in (0, 1] summing to exactly 1; decimal
    inputs should be converted with an exact decimal expansion before
    construction (the JSON loader does this).
    """

    locations: np.ndarray  # (k, d), read-only
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        locs = as_points(self.locations)
        object.__setattr__(self, "locations", _freeze(locs))
        w = tuple(x if type(x) is Fraction else Fraction(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        _integer_weights(_pairs(w), len(locs))

    @property
    def k(self) -> int:
        return len(self.weights)


class IndecisivePointSet:
    """n indecisive points, held as read-only arrays over all N candidates
    in point order: ``locations`` (N, d); ``ks`` (n,), the candidates per
    point, and ``offsets`` (n,), the index of each point's first one;
    ``nums`` (N,), each weight's integer numerator over its point's common
    denominator in ``denoms`` (n,), both int64 while every denominator is
    below 2**62 and Python ints otherwise.  ``jitter_applied`` marks a set
    that canonical_jitter made, which the exact engines do not jitter
    again.  ``points`` views the set as IndecisivePoint objects, built on
    first read; the library reads the arrays.
    """

    def __init__(self, points, dimension: int, jitter_applied: bool = False):
        self._fill(((p.locations, _pairs(p.weights)) for p in points), dimension, jitter_applied)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _from_rows(cls, rows, dimension: int, jitter_applied: bool = False) -> IndecisivePointSet:
        """The set of ``rows``, a (locations, weights) pair per point with
        the weights as reduced (numerator, denominator) pairs, each checked
        as IndecisivePoint checks it (errors prefixed ``points[i]:``).
        Iterating ``rows`` may raise a ValidationError for a point that
        could not be read; a fault of an earlier point is named before
        it."""
        uset = object.__new__(cls)
        uset._fill(rows, dimension, jitter_applied)
        return uset

    def _fill(self, rows, dimension, jitter_applied) -> None:
        located, weighed, unread = [], [], None
        try:
            for locations, pairs in rows:
                located.append(locations)
                weighed.append(pairs)
        except ValidationError as exc:
            unread = exc
        flat = _stacked(located)
        ks, nums, denoms = [], [], []
        for i, (locations, pairs) in enumerate(zip(located, weighed)):
            try:
                if flat is None:
                    located[i] = locations = as_points(locations)
                row, denom = _integer_weights(pairs, len(locations))
            except (ValidationError, ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"points[{i}]: {exc}") from None
            ks.append(len(locations))
            nums += row
            denoms.append(denom)
        if unread is not None:
            raise unread
        if not isinstance(jitter_applied, bool):
            raise ValidationError("jitter_applied must be true or false")
        if flat is None:
            _check_dimensions(dimension, [b.shape[1] for b in located])
            flat = np.concatenate(located)
        else:
            _check_dimensions(dimension, [flat.shape[1]] * len(located))
        ks = np.array(ks)
        # int64 holds the sum of a point's masses unless a denominator is huge.
        dtype = np.int64 if max(denoms) < 2**62 else object
        nums, denoms = np.array(nums, dtype=dtype), np.array(denoms, dtype=dtype)
        self._adopt(dimension, jitter_applied, flat, ks, np.cumsum(ks) - ks, nums, denoms)

    def _adopt(self, dimension, jitter_applied, locations, ks, offsets, nums, denoms) -> None:
        for a in (locations, ks, offsets, nums, denoms):
            a.flags.writeable = False
        self.__dict__.update(dimension=dimension, jitter_applied=jitter_applied, locations=locations)
        self.__dict__.update(ks=ks, offsets=offsets, nums=nums, denoms=denoms)

    @property
    def n(self) -> int:
        return len(self.ks)

    @property
    def k_max(self) -> int:
        return int(self.ks.max())

    def support_count(self) -> int:
        return math.prod(self.ks.tolist())

    def all_locations(self) -> np.ndarray:
        return self.locations

    @functools.cached_property
    def point_of(self) -> np.ndarray:
        """(N,) the point of each candidate."""
        return np.repeat(np.arange(self.n), self.ks)

    @functools.cached_property
    def denominator(self) -> int:
        """The product of the point denominators: each support's
        probability is an integer numerator over it."""
        return math.prod(self.denoms.tolist())

    def _grid(self, flat: np.ndarray, pad) -> np.ndarray:
        """``flat``, an entry or row per candidate, as (n, k_max, ...): row
        i holds point i's candidates, padded with ``pad``."""
        out = np.full((self.n, self.k_max, *flat.shape[1:]), pad, dtype=flat.dtype)
        out[self.point_of, np.arange(len(flat)) - self.offsets[self.point_of]] = flat
        return out

    @functools.cached_property
    def _weight_grid(self) -> np.ndarray:
        return self._grid(self.nums, 0)

    @functools.cached_property
    def _sampling_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Tables for drawing a whole support at once: the cumulative
        weights padded with inf (n, k_max), the candidate locations
        (n, k_max, d), each point's k - 1, and the row indices."""
        weights = _ratio_floats(self.nums, self.denoms[self.point_of])
        # accumulate adds each row left to right, as a cumsum per point does.
        cum = np.cumsum(self._grid(weights, np.inf), axis=1)
        last, rows = self.ks - 1, np.arange(self.n)
        cum[rows, last] = 1.0
        return cum, self._grid(self.locations, 0.0), last, rows

    @functools.cached_property
    def points(self) -> tuple[IndecisivePoint, ...]:
        nums = self.nums.tolist()
        return tuple(
            IndecisivePoint(self.locations[a : a + k], tuple(Fraction(v, d) for v in nums[a : a + k]))
            for a, k, d in zip(self.offsets.tolist(), self.ks.tolist(), self.denoms.tolist())
        )

    @functools.cached_property
    def _jittered(self) -> IndecisivePointSet:
        """The set :func:`canonical_jitter` returns, computed once."""
        return _jitter(self)


# --------------------------------------------------------------------------
# Continuous model


def _symmetric(rows: list[list[float]]) -> bool:
    """``np.allclose(m, m.T, rtol=_SYMMETRY_TOL, atol=_SYMMETRY_TOL)`` on
    the rows of a square matrix, entry by entry on Python floats (the same
    IEEE operations): a close to b when |a - b| <= atol + rtol * |b| with b
    finite, or a == b, so equal infinities are close and NaN never is."""
    return all(
        a == b or (abs(a - b) <= _SYMMETRY_TOL + _SYMMETRY_TOL * abs(b) and math.isfinite(b))
        for row, column in zip(rows, zip(*rows))
        for a, b in zip(row, column)
    )


@dataclass(frozen=True, eq=False)
class GaussianPoint:
    mean: np.ndarray
    cov: np.ndarray  # symmetric positive-definite, (d, d)
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _freeze(np.asarray(self.mean, dtype=np.float64).reshape(-1))
        if not np.isfinite(mean).all():
            raise ValidationError("mean must be finite")
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (len(mean), len(mean)):
            raise ValidationError(f"covariance shape {cov.shape} does not match mean of length {len(mean)}")
        if not _symmetric(cov.tolist()):
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


@dataclass(frozen=True, eq=False)
class UniformDiskPoint:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _freeze(np.asarray(self.center, dtype=np.float64).reshape(-1))
        if len(center) != 2:
            raise ValidationError("uniform_disk supports d=2 only")
        if not np.isfinite(center).all():
            raise ValidationError("center must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", _real(self.radius, "radius", "(0, inf)"))

    @property
    def dimension(self) -> int:
        return 2

    def _place(self, uv: np.ndarray) -> np.ndarray:
        """Locations (rows, 2) from the two uniforms of each draw, (2, rows):
        ``uv[0]`` sets the radius and ``uv[1]`` the angle.  The square root,
        products and sums run over arrays, which IEEE rounds as one draw at
        a time; the cosine and sine stay libm's ``math.cos`` and
        ``math.sin`` per draw, so the bits do not depend on numpy's vector
        kernels."""
        cx, cy = self.center.tolist()
        u, v = uv
        theta = (2.0 * math.pi * v).tolist()
        r = self.radius * np.sqrt(u)
        out = np.empty((len(theta), 2))
        out[:, 0] = cx + r * np.fromiter(map(math.cos, theta), float, len(theta))
        out[:, 1] = cy + r * np.fromiter(map(math.sin, theta), float, len(theta))
        return out


@dataclass(frozen=True, eq=False)
class PointMassPoint:
    at: np.ndarray

    def __post_init__(self):
        at = _freeze(np.asarray(self.at, dtype=np.float64).reshape(-1))
        if not np.isfinite(at).all():
            raise ValidationError("at must be finite")
        object.__setattr__(self, "at", at)

    @property
    def dimension(self) -> int:
        return len(self.at)


ContinuousUncertainPoint = GaussianPoint | UniformDiskPoint | PointMassPoint


@dataclass(frozen=True, eq=False)
class ContinuousUncertainSet:
    points: tuple[ContinuousUncertainPoint, ...]
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _check_dimensions(self.dimension, [p.dimension for p in self.points])

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


def sample_support(uset: IndecisivePointSet | ContinuousUncertainSet, rng: np.random.Generator) -> tuple:
    """Draw one support, each location independently from its point's
    distribution: the one-row case of :func:`draw_supports`, as the (n, d)
    locations and the (n,) candidate choices (None for a continuous set)."""
    locations, choices = draw_supports(uset, [rng])
    return locations[0], None if choices is None else choices[0]


def draw_supports(
    uset: IndecisivePointSet | ContinuousUncertainSet, rngs
) -> tuple[np.ndarray, np.ndarray | None]:
    """One support per numpy ``Generator`` in ``rngs``: the (rows, n, d)
    locations, and for an indecisive set the (rows, n) chosen candidate
    indices (None for a continuous set).

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
        for ut, rng in zip(u, rngs):
            rng.random(out=ut)
        # Candidates below each draw, counted one candidate column at a
        # time: the counts of a sum over a (rows, n, k) comparison, without
        # numpy's reduction over its short last axis.
        j = np.zeros(u.shape, dtype=np.intp)
        for column in cum.T:
            j += column <= u
        np.minimum(j, last, out=j)
        return locations[points, j], j
    draws, gaussians, others = uset._sampling_plan
    z = np.empty((rows, uset.n, uset.dimension))
    # Each draw's stream method and its target across the rows, looked up
    # once, so a row pays for its draws and an integer index each.
    targets = [(getattr(np.random.Generator, call), z[(slice(None), *index)]) for call, index in draws]
    for t, rng in enumerate(rngs):
        for fill, target in targets:
            fill(rng, out=target[t])
    locs = np.empty_like(z)
    for start, stop, means, chols in gaussians:
        locs[:, start:stop] = means + np.matmul(chols, z[:, start:stop, :, None])[..., 0]
    for i, point in others:
        locs[:, i] = point._place(z[:, i, :2].T) if isinstance(point, UniformDiskPoint) else point.at
    if not np.isfinite(locs).all():
        raise ValueError("coordinates must be finite")
    return locs, None


# --------------------------------------------------------------------------
# Canonical jitter

# Fixed pseudo-random unit direction used for all jitter offsets.
_JITTER_ANGLE = 2.399963229728653  # radians
_JITTER_DIR = (math.cos(_JITTER_ANGLE), math.sin(_JITTER_ANGLE))


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
    locs = uset.locations
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
    # The jittered twin shares the set's index and weight arrays.
    twin = object.__new__(IndecisivePointSet)
    twin._adopt(uset.dimension, True, flat, uset.ks, uset.offsets, uset.nums, uset.denoms)
    return twin


# --------------------------------------------------------------------------
# JSON interchange


def _parse_weight(text, where: str) -> tuple[int, int]:
    """The weight ``text`` as the reduced (numerator, denominator) of
    ``Fraction(str(text))``."""
    try:
        # Plain "p/q" strings, as save_point_set writes them, skip the regex.
        if type(text) is str and text.isascii():
            num, slash, den = text.partition("/")
            if slash and num.isdigit() and den.isdigit():
                p, q = int(num), int(den)
                if q == 0:
                    raise ZeroDivisionError
                g = math.gcd(p, q)
                return p // g, q // g
        w = Fraction(str(text))
        return w.numerator, w.denominator
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: cannot parse weight {text!r}") from None


def _numbers(rp: dict, name: str, prefix: str = ""):
    """The field ``name`` of a JSON point, a number or nested lists of
    them, refused with a ValidationError if any is true or false, which
    numpy and float() would read as 1.0 or 0.0."""
    layer = [rp[name]]
    while layer:
        types = set(map(type, layer))
        if bool in types:
            raise ValidationError(f"{prefix}{name} must hold numbers, not true or false")
        layer = [x for v in layer if type(v) is list for x in v] if list in types else []
    return rp[name]


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
    # A JSON integer only: not a string of one, and not a boolean.
    d = doc["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d not in (2, 3):
        raise ValidationError("dimension must be 2 or 3")
    model = doc["model"]
    raw_points = doc["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ValidationError("points must be a non-empty list")
    for i, rp in enumerate(raw_points):
        if not isinstance(rp, dict):
            raise ValidationError(f"points[{i}]: must be an object")

    if model == "indecisive":

        def rows():
            # Stops at the first point whose weights cannot be read or
            # whose locations hold true or false; the set names a fault of
            # an earlier point before it.
            for i, rp in enumerate(raw_points):
                where = f"points[{i}]"
                if "locations" not in rp or "weights" not in rp:
                    raise ValidationError(f"{where}: needs 'locations' and 'weights'")
                if not isinstance(rp["weights"], list):
                    raise ValidationError(f"{where}: weights must be a list")
                yield _numbers(rp, "locations", f"{where}: "), [_parse_weight(w, where) for w in rp["weights"]]

        return IndecisivePointSet._from_rows(rows(), d, doc.get("jitter_applied", False))

    if model == "continuous":
        points = []
        for i, rp in enumerate(raw_points):
            where = f"points[{i}]"
            kind = rp.get("kind")
            try:
                if kind == "gaussian":
                    point = GaussianPoint(_numbers(rp, "mean"), _numbers(rp, "cov"))
                elif kind == "uniform_disk":
                    point = UniformDiskPoint(_numbers(rp, "center"), float(_numbers(rp, "radius")))
                elif kind == "point_mass":
                    point = PointMassPoint(_numbers(rp, "at"))
                else:
                    raise ValidationError(f"unknown kind {kind!r}")
            except KeyError as exc:
                raise ValidationError(f"{where}: {kind} needs the field {exc}") from None
            except (ValidationError, ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"{where}: {exc}") from None
            points.append(point)
        return ContinuousUncertainSet(tuple(points), d)

    raise ValidationError(f"unknown model {model!r}")


def save_point_set(uset: IndecisivePointSet | ContinuousUncertainSet) -> str:
    """Serialize to the JSON interchange format (inverse of load_point_set)."""
    if isinstance(uset, IndecisivePointSet):
        locs = uset.locations.tolist()
        cells = _ratio_cells(uset.nums, uset.denoms[uset.point_of])
        doc = {
            "dimension": uset.dimension,
            "model": "indecisive",
            "points": [
                {"locations": locs[a : a + k], "weights": cells[a : a + k]}
                for a, k in zip(uset.offsets.tolist(), uset.ks.tolist())
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
