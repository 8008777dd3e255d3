"""Deterministic engine for indecisive point sets.

Computes the exact output distribution of any supported LP-type measure by
enumerating potential bases (subsets of at most beta candidate locations,
one per point), validating each as a true minimal basis, and counting the
probability mass of the supports it represents: basis members contribute
their own weight, every other point contributes the summed weight of its
candidates that lie strictly inside the basis's non-violation shape.
Potential bases are validated and counted in array chunks of bounded size,
through one loop that every exact entry point shares.

All probability arithmetic is exact.  Per point, weights are scaled to a
common integer denominator, so a basis probability is an integer numerator
over the product of the per-point denominators; the engine verifies the
integer identity "sum of numerators == product of denominators" and refuses
to return a distribution that leaks or double-counts mass.

Inputs are canonically jittered (see :func:`uqgeom.model.canonical_jitter`)
unless already marked, which realizes the general-position assumption the
counting argument needs.  The brute-force oracle starts from the engine's
own preparation of the set (the jitter, the integer weights, the frame
coordinates and the group tolerance), so the two engines are comparable
breakpoint by breakpoint.  It evaluates all supports as arrays too: chunks
of candidate indices in ``itertools.product`` order, valued by the
formulas :func:`uqgeom.measures.evaluate` uses on the frame coordinates.
For seb2 it relies on the LP-type structure alone: the smallest enclosing
disk of a support is the largest canonical ball of its candidate pairs and
strictly acute triples, so the oracle never asks a miniball solver which
points define the disk.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import (
    Basis,
    BasisMember,
    MeasureId,
    NotLPTypeError,
    _check_input,
    _extent_value,
    _frame_values,
    _rot_coords,
    _seb2_balls,
    _strictly_acute,
    combinatorial_dimension,
    tolerance,
)
from .model import IndecisivePointSet, ResourceCapError, ValidationError, canonical_jitter
from .quantize import Quantization1D, _real
from .sip import SipField, shape_kind

__all__ = [
    "BasisRecord",
    "ExactDistribution",
    "ResourceCapError",
    "ConservationError",
    "enumerate_potential_bases",
    "exact_distribution",
    "brute_force_distribution",
    "deterministic_sip",
    "distributions_match",
]

_HARDNESS_MESSAGE = (
    "diameter is not LP-type (locality fails); computing its exact "
    "distribution is #P-hard, use brute_force_distribution or the "
    "randomized engine instead"
)


class ConservationError(AssertionError):
    """Basis probabilities failed to sum to exactly one.

    This indicates a degeneracy the canonical jitter did not separate (or an
    internal bug); the engine refuses to return a wrong distribution.
    """


@dataclass(frozen=True, eq=False)
class BasisRecord:
    """One weighted atom of an exact distribution.

    ``basis`` is None for records produced by brute-force enumeration, where
    atoms are grouped by value rather than by defining basis.
    """

    basis: Basis | None
    probability: Fraction
    value: float


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """An exact output distribution: the collapsed breakpoints and their
    rational weights, plus the weighted atoms they were collapsed from,
    which ``_build_records`` builds on the first read of :attr:`records`."""

    _build_records: Callable[[], tuple[BasisRecord, ...]]
    collapsed: Quantization1D
    measure: MeasureId

    @functools.cached_property
    def records(self) -> tuple[BasisRecord, ...]:
        return self._build_records()


# --------------------------------------------------------------------------
# Preparation


def _require_indecisive(uset) -> None:
    if not isinstance(uset, IndecisivePointSet):
        raise ValidationError(
            "the exact engines need an indecisive point set; discretize a continuous "
            "set first (`uqgeom discretize`, or discretize_for_measure)"
        )


def combo_count(ks, beta: int) -> int:
    """Potential bases of a set with candidate counts ``ks`` and basis sizes
    up to ``beta``: the sum over sizes 1..beta of the elementary symmetric
    polynomials of the ks."""
    e = [1] + [0] * beta
    for k in ks:
        for s in range(beta, 0, -1):
            e[s] += e[s - 1] * k
    return sum(e[1:])


# Potential bases an exact run may enumerate: over three times the largest
# count the CLI's own defaults make (seb2 on the default discretization of
# 3 uniform disks, 322 + 322 + 323 candidates, 3.38e7 potential bases).
_BASIS_CAP = 120_000_000
# Supports the brute-force oracle may enumerate.
_SUPPORT_CAP = 10**6


def _check_bases(uset, measure: MeasureId) -> None:
    """Refuse an exact run of more than _BASIS_CAP potential bases, counted
    from the candidate counts before anything is jittered or allocated (a
    set the engine cannot take is left to its own refusal)."""
    if isinstance(uset, IndecisivePointSet):
        count = combo_count(uset.ks.tolist(), min(combinatorial_dimension(measure, 2), uset.n))
        if count > _BASIS_CAP:
            raise ResourceCapError(
                f"the exact engine would enumerate {count} potential bases, exceeding the cap of {_BASIS_CAP}"
            )


def _frame_coords(measure: MeasureId, locs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame coordinates (fx, fy) of planar locations (N, 2), which the
    exact engine validates and counts in and the oracle values: the
    projection onto the direction and zeros for dwid, the 45-degree frame
    in which the L1 ball is a square for seb1, plain x/y otherwise.  The
    projection is elementwise, ``x * u0 + y * u1``, so a value does not
    depend on the array it is computed in, as a matmul's may."""
    x = locs[:, 0]
    y = locs[:, 1]
    if measure.kind == "dwid":
        u0, u1 = measure.direction
        return x * u0 + y * u1, np.zeros(len(x))
    if measure.kind == "seb1":
        return _rot_coords(locs)
    return x, y


def _int64_runs(denoms: list[int]) -> list[tuple[int, int]]:
    """[first, last) point ranges, consecutive and covering every point,
    each as long as its denominators multiply below 2**63, so the product of
    a run's masses (each at most its point's denominator) is an int64.  A
    point whose own denominator reaches 2**63 is a run of its own (after an
    empty one when it comes first), whose masses are Python ints already."""
    runs, first, prod = [], 0, 1
    for i, d in enumerate(denoms):
        if prod * d >= 2**63:
            runs.append((first, i))
            first, prod = i, 1
        prod *= d
    return runs + [(first, len(denoms))]


def _points_major(grid: np.ndarray) -> np.ndarray:
    """An (n, k_max) candidate grid as a contiguous (k_max, n, 1) array."""
    return np.ascontiguousarray(grid.T)[:, :, None]


class _Prepared:
    """The exact engines' state of a set and a measure.

    ``jset`` is the jittered set, whose arrays number the candidates
    globally in point order and hold their integer weights; ``members[g]``
    is candidate g's basis member.  ``fx``/``fy`` hold the frame
    coordinates the validity test works in, and ``grid_x``/``grid_y`` lay
    them out points-major, as (k_max, n, 1) arrays, for the strict-interior
    test, with ``grid_w`` the weights: a point with fewer candidates is
    padded with NaN coordinates, which are never strictly inside a shape,
    and zero weight.  Each grid is built on its first read, so the oracle,
    which makes no interior test, builds none.  Every basis and interior
    test is a sign test on these floats, no margin.  ``runs`` cuts the
    points into consecutive runs whose denominators multiply below 2**63
    when the set's denominator does not, else it is None.
    """

    def __init__(self, uset: IndecisivePointSet, measure: MeasureId):
        _require_indecisive(uset)
        if uset.dimension != 2:
            raise ValidationError("the deterministic engine and the brute-force oracle support d=2 only")
        _check_input(measure, uset.locations)
        self.measure = measure
        self.jset = jset = canonical_jitter(uset)
        self.group_tol = tolerance(jset.locations, measure)
        self.beta = min(combinatorial_dimension(measure, 2), jset.n)
        self.fx, self.fy = _frame_coords(measure, jset.locations)
        self.runs = None
        if jset.denominator >= 2**63:
            self.runs = _int64_runs(jset.denoms.tolist())

    @functools.cached_property
    def grid_x(self) -> np.ndarray:
        return _points_major(self.jset._grid(self.fx, np.nan))

    @functools.cached_property
    def grid_y(self) -> np.ndarray:
        return _points_major(self.jset._grid(self.fy, np.nan))

    @functools.cached_property
    def grid_w(self) -> np.ndarray:
        return _points_major(self.jset._weight_grid)

    @functools.cached_property
    def members(self) -> list[BasisMember]:
        """The basis member of every global candidate, built on first read."""
        locs = self.jset.locations.tolist()
        return [
            BasisMember(i, j, tuple(locs[a + j]))
            for i, (a, k) in enumerate(zip(self.jset.offsets.tolist(), self.jset.ks.tolist()))
            for j in range(k)
        ]

    def combo_count(self) -> int:
        """Potential bases of this set (:func:`combo_count`).  Kept only for
        the benchmark's test, which checks its own count against it."""
        return combo_count(self.jset.ks.tolist(), self.beta)


# --------------------------------------------------------------------------
# Chunked enumeration, validation and counting
#
# Potential bases travel as (rows, s) arrays of global candidate indices,
# one basis size at a time.  A chunk holds about _CHUNK_CELLS cells of its
# largest temporaries, counted by what its basis size builds: bases of
# fewer than n points build the strict-interior mask, n x k_max cells a row
# (candidates padded per point to the largest k); bases of every point
# build no mask, only the (rows, s) gathers and the per-slot folds of
# validation, taken as 4 s cells a row.  The budget keeps the temporaries
# of a chunk within a few megabytes whatever the instance size, and a floor
# on the rows keeps per-chunk overhead small when there are many candidates.
_CHUNK_CELLS = 131_072
_MIN_CHUNK_ROWS = 64

# Enumeration plans.  Potential bases of s points, and with s = n the
# supports, are enumerated in one order: point combos in lexicographic
# order, then candidates in ``itertools.product`` order, each point's
# numbered from offsets = cumsum(ks) - ks as the jittered set numbers them.
# The order depends on (ks, s) alone, so one plan serves every instance of
# that shape: the combos, where each combo's candidate products start and
# the mixed-radix strides of its candidate digits (read by the streamed
# rows of :func:`_rows_between` and by the oracle's seb2 tables), and the
# rows whole when all of it fits in _PLAN_CELLS cells.  :func:`_plan` keeps
# exactly the plans that hold their rows, at most _PLANS_KEPT, least
# recently used out: at most about 8 MiB whatever the instances.  The
# benchmark's solve lists reuse at most 14 (12 / 14 / 10 on
# exact-many-points / oracle-lattice / sip-pipeline, each built once, none
# streaming), hence 16.  A plan whose rows stream is built per call, which
# is cheap beside its enumeration (best of 7, a 2-core Xeon): about 0.02 ms
# for 5 points x 12 candidates and 2 ms for 21 x 2 at s = 4 (53 908 cells),
# each serving more than 16 000 rows, the latter 95 760.
_PLAN_CELLS = 65_536
_PLANS_KEPT = 16


# NumPy copies a broadcast operand into buffers when the inner dimension of
# a ufunc call (here the rows of a chunk) is below about a third of its
# buffer, 8192 elements by default; on chunks of a few hundred to a few
# thousand rows those copies made the strict-interior mask about three
# times slower (numpy 2.4).  The mask and its sums run with a buffer of
# _UFUNC_BUFFER elements, which no elementwise result or integer sum
# depends on, and the caller's buffer is set back after them.
_UFUNC_BUFFER = 1024


def _chunk_rows(cells_per_row: int) -> int:
    """Rows of a chunk whose rows take ``cells_per_row`` cells each."""
    return max(_MIN_CHUNK_ROWS, _CHUNK_CELLS // cells_per_row)


def _rows_between(plan, first: int, last: int) -> np.ndarray:
    """Rows first..last-1 of the plan's enumeration (see :func:`_candidate_rows`)."""
    ks, offsets, combos, starts, strides, _ = plan
    pos = np.arange(first, last)
    combo = np.searchsorted(starts, pos, side="right") - 1
    pts = combos[combo]
    # Mixed-radix digits of the position within its combo's product, worked
    # in place: building held rows makes few (rows, s) temporaries.
    idx = (pos - starts[combo])[:, None] // strides[combo]
    idx %= ks[pts]
    idx += offsets[pts]
    return idx


def _build_plan(ks: tuple[int, ...], s: int):
    """The enumeration plan of size-s bases of points with ks candidates:
    (ks, offsets, combos, starts, strides, rows), read-only.  combos are the
    (C, s) point combos in lexicographic order, starts the (C + 1,) first
    position of each combo's candidate product (last one: the total), and
    strides the (C, s) place values of each combo's candidate digits, the
    last point's varying fastest; rows are the whole (total, s) array of
    :func:`_candidate_rows` when it fits in _PLAN_CELLS cells beside the
    other arrays, else None."""
    k = np.array(ks)
    combos = np.array(list(itertools.combinations(range(len(ks)), s)))
    # The product of each combo's counts from slot t on.
    tails = np.cumprod(k[combos][:, ::-1], axis=1)[:, ::-1]
    strides = np.ones_like(combos)
    strides[:, :-1] = tails[:, 1:]
    starts = np.concatenate([[0], np.cumsum(tails[:, 0])])
    plan = (k, np.cumsum(k) - k, combos, starts, strides, None)
    total = int(starts[-1])
    if sum(a.size for a in plan[:-1]) + total * s <= _PLAN_CELLS:
        plan = (*plan[:-1], _rows_between(plan, 0, total))
    for a in plan:
        if a is not None:
            a.flags.writeable = False
    return plan


# (ks, s) -> plan holding its rows, least recently used first.
_PLANS: dict = {}


def _plan(ks: tuple[int, ...], s: int):
    """The plan of :func:`_build_plan`, kept in _PLANS from its first call
    on when it holds its rows, else built for this call alone; a new kept
    plan evicts the least recently used one past _PLANS_KEPT."""
    key = (ks, s)
    plan = _PLANS.pop(key, None)
    if plan is None:
        plan = _build_plan(ks, s)
        if plan[-1] is None:
            return plan
        if len(_PLANS) >= _PLANS_KEPT:
            del _PLANS[next(iter(_PLANS))]
    # Inserted last: a dict keeps insertion order.
    _PLANS[key] = plan
    return plan


def _candidate_rows(plan, rows: int):
    """Every choice of one candidate from each of s distinct points, in the
    order of the plan of (ks, s), as (rows, s) arrays of global candidate
    indices cut into chunks of at most ``rows`` rows.  With s = n these are
    all supports.  Chunks are read-only slices of the plan's rows when it
    holds them, decoded chunk by chunk otherwise."""
    _, _, _, starts, _, whole = plan
    total = int(starts[-1])
    for first in range(0, total, rows):
        last = min(first + rows, total)
        yield whole[first:last] if whole is not None else _rows_between(plan, first, last)


def _index_chunks(prep: _Prepared):
    """All potential bases as arrays of global candidate indices: basis
    sizes ascending, then point combos and candidate products in
    lexicographic order, cut into chunks of a number of rows fixed per
    basis size (see _CHUNK_CELLS)."""
    jset = prep.jset
    ks = tuple(jset.ks.tolist())
    mask_cells = jset.n * jset.k_max
    for s in range(1, prep.beta + 1):
        rows = _chunk_rows(4 * s if s == jset.n else mask_cells)
        yield from _candidate_rows(_plan(ks, s), rows)


def _extrema(cols, op):
    """Fold ``op`` (np.maximum or np.minimum) over the arrays of ``cols``
    left to right, as ``max``/``min`` over an axis does, and over all of
    them but one: returns the full extremum and the list, per t, of the
    extremum without cols[t], joined from a prefix and a suffix fold.
    max and min are exact, so any fold order gives the same values."""
    cols = list(cols)
    pre = list(itertools.accumulate(cols, op))
    if len(cols) == 1:
        return pre[0], []
    suf = list(itertools.accumulate(cols[:0:-1], lambda acc, c: op(c, acc)))[::-1]
    drops = [suf[0]] + [op(pre[t - 1], suf[t]) for t in range(1, len(cols) - 1)] + [pre[-2]]
    return pre[-1], drops


def _validate(prep: _Prepared, idx: np.ndarray):
    """Minimal rows of a chunk of potential bases, with their values and
    counting shapes: returns (idx, values, shapes) restricted to the rows
    that are true bases.  Minimality only needs the drop-one subsets by
    monotonicity; their extrema come from one prefix and one suffix fold
    per coordinate (:func:`_extrema`).  The box family compares exactly: a
    dwid or aabb row is minimal iff every drop moves an extreme (of x alone
    for dwid), a sebinf or seb1 row iff every drop changes (r, cx, cy).
    seb2 keeps every pair, and a triple iff strictly acute.

    Shapes, one row per basis: (cx, cy, r) for seb2, (lo, hi) for dwid and
    (x0, y0, x1, y1) otherwise, in frame coordinates.
    """
    kind = prep.measure.kind
    if kind == "seb2":
        # (rows, s) views of (s, rows) gathers.  A gather follows its
        # index's F order, so each view is C-ordered: its columns are strided.
        return _validate_seb2(idx, prep.fx[idx.T].T, prep.fy[idx.T].T)
    keep = np.ones(len(idx), dtype=bool)
    # One coordinate array per basis slot (a column of idx).
    xs = prep.fx[idx.T]
    x_hi, x_hi_drops = _extrema(xs, np.maximum)
    x_lo, x_lo_drops = _extrema(xs, np.minimum)
    if kind == "dwid":
        values = _extent_value(kind, x_hi - x_lo, None)
        for xh, xl in zip(x_hi_drops, x_lo_drops):
            keep &= (xh < x_hi) | (xl > x_lo)
        shapes = [x_lo, x_hi]
    else:
        ys = prep.fy[idx.T]
        y_hi, y_hi_drops = _extrema(ys, np.maximum)
        y_lo, y_lo_drops = _extrema(ys, np.minimum)
        values = _extent_value(kind, x_hi - x_lo, y_hi - y_lo)
        drops = zip(x_hi_drops, x_lo_drops, y_hi_drops, y_lo_drops)
        if kind in ("aabb_perimeter", "aabb_area"):
            for xh, xl, yh, yl in drops:
                keep &= (xh < x_hi) | (xl > x_lo) | (yh < y_hi) | (yl > y_lo)
            shapes = [x_lo, y_lo, x_hi, y_hi]
        else:
            # sebinf / seb1.  The plain radius violates the locality axiom
            # (optimal centers are not unique), so the basis must pin the
            # lexicographically minimal optimum (r, cx, cy): minimality
            # compares the full triple, with cx = max_x - r and cy = max_y - r.
            cx, cy = x_hi - values, y_hi - values
            for xh, xl, yh, yl in drops:
                r2 = _extent_value(kind, xh - xl, yh - yl)
                keep &= ~((r2 == values) & (xh - r2 == cx) & (yh - r2 == cy))
            # The canonical (lex-minimal) optimal square in frame
            # coordinates, anchored at the max corner.  A support has this
            # basis iff all its other candidates lie inside this square,
            # which pins radius and both center components at once.
            w2 = 2.0 * values
            shapes = [x_hi - w2, y_hi - w2, x_hi, y_hi]
    # Row indices select faster than a mask, and columns before stacking.
    rows = np.flatnonzero(keep)
    return idx[rows], values[rows], np.column_stack([c[rows] for c in shapes])


def _validate_seb2(idx, xs, ys):
    """:func:`_validate` for seb2: every single candidate and pair is
    minimal, and a triple iff strictly acute by the oracle's own test."""
    s = idx.shape[1]
    if s == 1:
        return idx, np.zeros(len(idx)), np.column_stack([xs[:, 0], ys[:, 0], np.zeros(len(idx))])
    if s == 3:
        rows = np.flatnonzero(_strictly_acute(xs, ys))
        idx, xs, ys = idx[rows], xs[rows], ys[rows]
    # The canonical balls of measures._seb2_balls, which the oracle and
    # evaluate read too, for the whole chunk at once; values must match
    # theirs bitwise.
    shapes = _seb2_balls(xs, ys)
    return idx, shapes[:, 2], shapes


def _strict_inside(prep: _Prepared, shapes: np.ndarray) -> np.ndarray:
    """(k_max, n, rows) mask over the padded candidate grid: candidate
    strictly inside the row's counting shape (never a NaN pad), by plain
    ``<`` and ``>``, so a seb2 disk of radius 0 holds nothing."""
    fx = prep.grid_x
    # Contiguous columns: numpy buffers a strided operand too (see
    # _UFUNC_BUFFER).
    cols = list(np.ascontiguousarray(shapes.T))
    kind = prep.measure.kind
    if kind == "dwid":
        lo, hi = cols
        return (fx > lo) & (fx < hi)
    fy = prep.grid_y
    if kind == "seb2":
        cx, cy, r = cols
        return (fx - cx) ** 2 + (fy - cy) ** 2 < r * r
    x0, y0, x1, y1 = cols
    return (fx > x0) & (fx < x1) & (fy > y0) & (fy < y1)


def _numerators(prep: _Prepared, idx: np.ndarray, shapes: np.ndarray):
    """Integer probability numerators (over the set's denominator) of
    validated bases: members contribute their own weight, every other point
    the summed weight of its candidates strictly inside the basis's shape.
    Returns the mask of the rows with nonzero probability and their
    numerators, int64 while the denominator fits (a point's mass is at most
    its denominator, so a numerator is at most their product), Python ints
    otherwise: the products of runs of points (``prep.runs``), each an int64
    unless its weights are Python ints, multiplied together as Python ints.

    When the bases hold every point, the masses are the members' weights
    and no interior test is made: every weight is positive, so every row
    is kept."""
    jset = prep.jset
    if idx.shape[1] == jset.n:
        nonzero = np.ones(len(idx), dtype=bool)
        masses = jset.nums[idx.T]
    else:
        buffer = np.setbufsize(_UFUNC_BUFFER)
        try:
            masses = (_strict_inside(prep, shapes) * prep.grid_w).sum(axis=0)
        finally:
            np.setbufsize(buffer)
        masses[jset.point_of[idx], np.arange(len(idx))[:, None]] = jset.nums[idx]
        nonzero = (masses > 0).all(axis=0)
        masses = masses.compress(nonzero, axis=1)
    if prep.runs is None:
        return nonzero, masses.prod(axis=0)
    return nonzero, functools.reduce(np.multiply, [masses[a:b].prod(axis=0).astype(object) for a, b in prep.runs])


def _counted_bases(prep: _Prepared):
    """Yield, chunk by chunk in the order of :func:`_index_chunks`, the
    bases with nonzero probability as arrays: (global candidate indices,
    values, shapes, numerators over the set's denominator).

    Raises ConservationError once exhausted unless the numerators sum to
    exactly the denominator.
    """
    denom = prep.jset.denominator
    total = 0
    for idx in _index_chunks(prep):
        # A single candidate's shape has no extent and strictly holds no
        # candidate, so with two or more points its rows hold no mass.
        if idx.shape[1] == 1 < prep.jset.n:
            continue
        idx, values, shapes = _validate(prep, idx)
        nonzero, nums = _numerators(prep, idx, shapes)
        total += sum(nums.tolist())
        rows = np.flatnonzero(nonzero)
        yield idx[rows], values[rows], shapes[rows], nums
    if total != denom:
        raise ConservationError(
            f"basis probabilities sum to {Fraction(total, denom)} != 1; "
            "the instance is degenerate beyond what canonical jitter resolves"
        )


def _basis_object(prep: _Prepared, row, value: float) -> Basis:
    members = prep.members
    return Basis(prep.measure, tuple(members[g] for g in row), value)


def _require_lp_type(measure: MeasureId):
    if not measure.is_lp_type:
        raise NotLPTypeError(_HARDNESS_MESSAGE)


def enumerate_potential_bases(uset: IndecisivePointSet, measure: MeasureId):
    """All validated potential bases: subsets of at most beta candidates with
    pairwise-distinct point indices that are minimal for the measure.

    Bases are yielded regardless of whether any support realizes them (a
    basis whose non-members all violate contributes zero probability).  The
    set and the measure are checked at the call, before the first basis is
    asked for."""
    _check_bases(uset, measure)
    _require_lp_type(measure)
    prep = _Prepared(uset, measure)
    return (
        _basis_object(prep, row, value)
        for idx, values, _ in map(functools.partial(_validate, prep), _index_chunks(prep))
        for row, value in zip(idx.tolist(), values.tolist())
    )


def _merge_equal(values: np.ndarray, nums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in ascending order and their summed numerators.
    Equal values (0.0 and -0.0 among them) merge into the first of them in
    input order, as keys of a dict would."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    first = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    return values[first], np.add.reduceat(nums[order], first)


def _collapse(values: np.ndarray, nums: np.ndarray, total_denom: int, group_tol: float) -> Quantization1D:
    """Group merged breakpoints (distinct and ascending, as
    :func:`_merge_equal` returns them) whose consecutive gaps are within
    the tolerance (single linkage); each group keeps its smallest value and
    its numerators' sum over total_denom.  The merge has ordered the
    values, every numerator is positive and the engine's conservation test
    has summed them to total_denom, so the arrays are stored unchecked."""
    first = np.flatnonzero(np.concatenate([[True], ~(np.diff(values) <= group_tol)]))
    return Quantization1D._from_checked(values[first], np.add.reduceat(nums, first), total_denom)


def exact_distribution(uset: IndecisivePointSet, measure: MeasureId) -> ExactDistribution:
    """Exact distribution of the measure over all supports (Theorem-style
    basis counting; O((nk)^(beta+1)) time).

    Raises ConservationError if the counted mass does not sum to exactly 1,
    which would indicate an unresolved degeneracy, and ResourceCapError,
    before anything is jittered, on a set of more than ``_BASIS_CAP``
    potential bases (as every exact entry point does).

    The collapse works on the engine's arrays: ``collapsed`` holds integer
    numerators over the product of the point denominators, and builds its
    Fraction weights on first read.  Only the values and numerators are
    kept; ``records`` enumerates and counts the bases again on its first
    read and builds one :class:`BasisRecord` per nonzero basis, in the
    same order.
    """
    _check_bases(uset, measure)
    _require_lp_type(measure)
    prep = _Prepared(uset, measure)
    chunks = [(values, nums) for _, values, _, nums in _counted_bases(prep)]
    merged = _merge_equal(*map(np.concatenate, zip(*chunks)))
    collapsed = _collapse(*merged, prep.jset.denominator, prep.group_tol)
    return ExactDistribution(functools.partial(_basis_records, prep), collapsed, measure)


def _basis_records(prep: _Prepared) -> tuple[BasisRecord, ...]:
    return tuple(
        BasisRecord(_basis_object(prep, row, value), Fraction(num, prep.jset.denominator), value)
        for idx, values, _, nums in _counted_bases(prep)
        for row, value, num in zip(idx.tolist(), values.tolist(), nums.tolist())
    )


def brute_force_distribution(uset: IndecisivePointSet, measure: MeasureId) -> ExactDistribution:
    """Oracle distribution by full enumeration of all k^n supports.

    Works for every measure including diameter.  The set is prepared as
    the deterministic engine prepares it (:class:`_Prepared`: the jitter,
    the integer weights, the frame coordinates and the group tolerance),
    so the two outputs are directly comparable.

    Supports are enumerated as arrays of global candidate indices, in
    ``itertools.product`` order and in chunks of bounded size, so memory
    stays flat up to ``_SUPPORT_CAP`` supports (``ResourceCapError``
    beyond).  A support's probability numerator is the product of its
    candidates' integer weights (:func:`_numerators` on bases of every
    point).  Values come from the formulas
    :func:`uqgeom.measures.evaluate` uses, applied to the gathered frame
    coordinates.  A seb2 value is the largest canonical ball radius over
    the support's candidate pairs and strictly acute triples: the smallest
    enclosing disk is the ball of a basis of at most three points and, by
    monotonicity, no subset's ball is larger (the LP-type structure of
    Matoušek, Sharir and Welzl, and Welzl 1991).  An obtuse or right
    triple's ball is one of its pairs' balls.  ``records`` holds one atom
    per distinct value, sorted by value, with ``basis=None``.
    """
    _require_indecisive(uset)
    count = uset.support_count()
    if count > _SUPPORT_CAP:
        raise ResourceCapError(f"instance has {count} supports, exceeding the cap of {_SUPPORT_CAP}")
    prep = _Prepared(uset, measure)
    jset = prep.jset
    n = jset.n
    if measure.kind == "seb2":
        width, values_of = _seb2_support_values(prep)
    elif measure.kind == "diameter":
        frames = np.column_stack([prep.fx, prep.fy])
        width = n * n * 2

        def values_of(idx):
            return _frame_values(measure.kind, frames[idx])
    else:
        width = n * 2

        def values_of(idx):
            return _support_extent_values(prep, idx)

    # Supports are chunked as bases of every point are, 4 cells a row for
    # each of the ``width`` cells a support takes.
    chunks = [
        _merge_equal(values_of(idx), _numerators(prep, idx, None)[1])
        for idx in _candidate_rows(_plan(tuple(jset.ks.tolist()), n), _chunk_rows(4 * width))
    ]
    # A lone chunk is merged already.
    values, nums = chunks[0] if len(chunks) == 1 else _merge_equal(*map(np.concatenate, zip(*chunks)))
    if sum(nums.tolist()) != jset.denominator:
        raise ConservationError("support probabilities failed to sum to 1 (internal error)")
    collapsed = _collapse(values, nums, jset.denominator, prep.group_tol)
    return ExactDistribution(functools.partial(_value_records, values, nums, jset.denominator), collapsed, measure)


def _support_extent_values(prep: _Prepared, idx: np.ndarray) -> np.ndarray:
    """The extent-valued measure of each support, a row of ``idx``, from
    its extents in frame coordinates folded over the support's points
    column by column (one contiguous (rows,) column per point), as
    :func:`_validate` folds a basis's.  A max or min over a support's axis
    of points in place reduces a short strided axis per support, several
    times slower; max and min are exact, so the values are those of
    ``evaluate``'s formula (:func:`_extent_value`)."""
    kind = prep.measure.kind
    extents = []
    for frame in (prep.fx,) if kind == "dwid" else (prep.fx, prep.fy):
        cols = frame[idx.T]
        extents.append(functools.reduce(np.maximum, cols) - functools.reduce(np.minimum, cols))
    return _extent_value(kind, extents[0], extents[1] if len(extents) == 2 else None)


def _value_records(values: np.ndarray, nums: np.ndarray, total_denom: int) -> tuple[BasisRecord, ...]:
    return tuple(BasisRecord(None, Fraction(num, total_denom), v) for v, num in zip(values.tolist(), nums.tolist()))


def _seb2_support_values(prep: _Prepared):
    """The brute-force oracle's seb2 values on the prepared set: returns
    the cells a support takes in a chunk and a function from a chunk of
    supports to their values.

    The canonical ball radius of every candidate pair and strictly acute
    candidate triple (one candidate from each of 2 or 3 distinct points) is
    computed once, in the order of its plan (:func:`_plan`); other triples
    get 0.  A support's value is the largest radius over its pairs and
    triples, found in those tables at the position the plan's starts and
    strides give its candidates' digits."""
    ks, offsets = tuple(prep.jset.ks.tolist()), prep.jset.offsets
    tables = []
    for s in range(2, min(prep.jset.n, 3) + 1):
        plan = _plan(ks, s)
        radii = []
        for idx in _candidate_rows(plan, _chunk_rows(4 * s)):
            xs = prep.fx[idx]
            ys = prep.fy[idx]
            if s == 2:
                radii.append(_seb2_balls(xs, ys)[:, 2])
                continue
            r = np.zeros(len(idx))
            acute = _strictly_acute(xs, ys)
            r[acute] = _seb2_balls(xs[acute], ys[acute])[:, 2]
            radii.append(r)
        _, _, combos, starts, strides, _ = plan
        tables.append((combos, starts[:-1], strides, np.concatenate(radii)))

    def values_of(idx):
        digits = idx - offsets
        out = np.zeros(len(idx))
        for combos, starts, strides, radii in tables:
            pos = digits[:, combos[:, -1]] + starts
            for t in range(combos.shape[1] - 1):
                pos += digits[:, combos[:, t]] * strides[:, t]
            out = np.maximum(out, radii[pos].max(axis=1))
        return out

    return max(1, sum(combos.size for combos, *_ in tables)), values_of


def deterministic_sip(uset: IndecisivePointSet, measure: MeasureId) -> SipField:
    """Exact shape-inclusion-probability field: one summarizing shape per
    basis with nonzero probability, weighted by that probability, in the
    exact engine's basis order.  The bases come from the same chunked
    enumeration and counting as :func:`exact_distribution`, so the weights
    are exactly its nonzero record probabilities and sum to exactly 1
    (ConservationError otherwise).

    The field is filled from the engine's chunks in its array form: disks
    (cx, cy, r) for seb2, rectangles (x0, y0, x1, y1) otherwise, the integer
    numerators over the product of the point denominators, from which
    :meth:`~uqgeom.sip.SipField.from_arrays` derives the float weights.  Its
    queries and :func:`~uqgeom.sip.rasterize_sip` read these arrays."""
    _check_bases(uset, measure)
    kind = shape_kind(measure)
    prep = _Prepared(uset, measure)
    chunks = [(shapes, nums) for _, _, shapes, nums in _counted_bases(prep)]
    shapes = np.concatenate([c[0] for c in chunks])
    nums = np.concatenate([c[1] for c in chunks])
    # For these measures the frame coordinates are plain x/y, so the
    # counting shape doubles as the summarizing shape.
    return SipField.from_arrays(kind, shapes, None, nums, prep.jset.denominator)


def distributions_match(
    a: ExactDistribution, b: ExactDistribution, tol: float
) -> bool:
    """Grouped-breakpoint equality: cluster the union of breakpoints at the
    given tolerance (single linkage) and require exactly equal rational
    weights per cluster.  Weights are compared as integer numerators over
    the lcm of the two denominators: a's count up, b's down, and each
    cluster must balance to 0.  ``tol`` is a real number in [0, inf)."""
    tol = _real(tol, "tolerance", "[0, inf)")
    qa, qb = a.collapsed, b.collapsed
    denom = math.lcm(qa.denominator, qb.denominator)
    sa, sb = denom // qa.denominator, -(denom // qb.denominator)
    pooled = [(v, n * sa) for v, n in zip(qa.values.tolist(), qa.numerators.tolist())]
    pooled += [(v, n * sb) for v, n in zip(qb.values.tolist(), qb.numerators.tolist())]
    pooled.sort(key=lambda t: t[0])
    balance = 0
    prev = None
    for v, n in pooled:
        if prev is not None and v - prev > tol and balance:
            return False
        balance += n
        prev = v
    return balance == 0
