"""Quantizations: compact cumulative-distribution representations.

A 1-variate quantization is a sorted list of weighted breakpoints whose
induced step function approximates (or, for the deterministic engine,
exactly equals) the CDF of a measure over an uncertain point set.  Exact
quantizations carry rational weights; sampled ones carry uniform float
weights.  The k-variate form supports dominance queries.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Quantization1D",
    "QuantizationKD",
    "eval_cdf",
    "eval_dominance",
    "simplify",
    "max_deviation",
    "quantization_to_csv",
]


@dataclass(frozen=True, eq=False, init=False)
class Quantization1D:
    """Sorted weighted breakpoints of a step CDF.

    ``values`` is a read-only nondecreasing float array.  A sampled
    quantization, from :meth:`from_samples`, is its m sorted samples, each
    of float weight 1/m (a read-only array).  An exact one, from the exact
    engines or :meth:`from_numerators`, holds positive integer read-only
    ``numerators`` over one ``denominator``, summing to it exactly (stored
    as :func:`_exact_numerators` says); its ``weights`` are the Fractions
    they make, built on first read, and both its CDFs read one running sum
    of them.  ``kind`` is "exact" when there are numerators and "sampled"
    otherwise.
    """

    values: np.ndarray
    numerators: np.ndarray | None = None
    denominator: int | None = None

    @staticmethod
    def from_samples(samples) -> "Quantization1D":
        """Sampled quantization of ``samples``: sorted, each of weight 1/m."""
        q = Quantization1D._from_checked(_checked_values(np.sort(np.asarray(samples, dtype=np.float64))))
        w = np.full(len(q.values), 1.0 / len(q.values))
        w.setflags(write=False)
        q.__dict__["weights"] = w
        return q

    @classmethod
    def from_numerators(cls, values, numerators, denominator: int) -> "Quantization1D":
        """Exact quantization with weights ``numerators / denominator``."""
        vals = _checked_values(values)
        nums, denominator = _exact_numerators(numerators, denominator)
        if len(nums) != len(vals):
            raise ValueError("one weight per value required")
        if nums.min() <= 0:
            raise ValueError("weights must be positive")
        # Summed in Python ints: an int64 sum may wrap to the denominator.
        if sum(nums.tolist()) != denominator:
            raise ValueError("exact weights must sum to exactly 1")
        return cls._from_checked(vals, nums, denominator)

    @classmethod
    def _from_checked(cls, values, numerators=None, denominator=None) -> "Quantization1D":
        """Arrays that hold what the class docstring says, stored as given
        and made read-only, unchecked: both constructors end here after
        their checks, and the exact engines call it directly."""
        q = cls.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(q, "values", values)
        if numerators is not None:
            numerators.setflags(write=False)
            object.__setattr__(q, "numerators", numerators)
            object.__setattr__(q, "denominator", denominator)
        return q

    @property
    def kind(self) -> str:
        return "sampled" if self.numerators is None else "exact"

    @functools.cached_property
    def weights(self) -> tuple:
        """Exact weights as Fractions, built from the numerators
        (:meth:`from_samples` sets a sampled quantization's float weights)."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators.tolist())

    def __len__(self) -> int:
        return len(self.values)

    @functools.cached_property
    def _cum_nums(self) -> np.ndarray:
        """Running sums of the numerators (exact kind only)."""
        return np.cumsum(self.numerators)

    @functools.cached_property
    def _cum_float(self) -> np.ndarray:
        """The float CDF at each breakpoint, the CSV's cumulative column:
        each exact running sum rounded once (nondecreasing, ending at 1.0),
        or the running sums of sampled weights, the last set to 1.0."""
        if self.kind == "exact":
            return _ratio_floats(self._cum_nums, self.denominator)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        return cum


def _checked_values(values) -> np.ndarray:
    """``values`` as a new float64 array, refused unless 1-d, non-empty,
    free of NaN and nondecreasing."""
    vals = np.array(values, dtype=np.float64)
    if vals.ndim != 1 or len(vals) == 0:
        raise ValueError("values must be a non-empty 1-d array")
    if np.isnan(vals).any():
        raise ValueError("values must not be NaN")
    if np.any(np.diff(vals) < 0):
        raise ValueError("values must be nondecreasing")
    return vals


def eval_cdf(q: Quantization1D, v: float):
    """Total weight of breakpoints with value <= v (closed step convention).

    Returns a Fraction for exact quantizations, a float for sampled ones.
    """
    # No breakpoint is <= NaN, though searchsorted sorts NaN after them all.
    idx = 0 if v != v else int(np.searchsorted(q.values, v, side="right"))
    if q.kind == "exact":
        return Fraction(0) if idx == 0 else Fraction(int(q._cum_nums[idx - 1]), q.denominator)
    return 0.0 if idx == 0 else float(q._cum_float[idx - 1])


@dataclass(frozen=True, eq=False)
class QuantizationKD:
    """k-variate sampled quantization: m rows of k values, each row of
    float weight 1/m (``weights``, read-only), supporting dominance
    (coordinate-wise <=) queries."""

    values: np.ndarray  # (m, k)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2 or len(vals) == 0:
            raise ValueError("values must be a non-empty (m, k) array")
        if np.isnan(vals).any():
            raise ValueError("values must not be NaN")
        vals.setflags(write=False)
        w = np.full(len(vals), 1.0 / len(vals))
        w.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weights", w)

    @property
    def arity(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.values)


def eval_dominance(q: QuantizationKD, v) -> float:
    """Total weight of rows dominated by v (every coordinate <= v's)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (q.arity,):
        raise ValueError(f"query arity {v.shape} does not match quantization arity {q.arity}")
    mask = np.all(q.values <= v, axis=1)
    return float(q.weights[mask].sum())


def simplify(q: Quantization1D, eps: float) -> Quantization1D:
    """Reduce to at most ceil(2/eps) evenly spaced quantile breakpoints.

    The output has uniform weights and its CDF deviates from the input's by
    at most 1/(2*ceil(2/eps)) <= eps/4 in the sup norm, so simplifying an
    (eps/2)-accurate sampled quantization still yields an eps-quantization.
    Inputs already within the size budget are returned unchanged; the
    operation is idempotent at fixed eps.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    m_out = math.ceil(2.0 / eps)
    if len(q) <= m_out:
        return q
    cum = q._cum_float
    # Generalized inverse at quantiles (j - 1/2)/m: smallest value v with
    # F(v) >= p.  searchsorted('left') finds the first cumulative >= p.
    probs = (np.arange(1, m_out + 1) - 0.5) / m_out
    idx = np.searchsorted(cum, probs, side="left")
    idx = np.minimum(idx, len(q) - 1)
    return Quantization1D.from_samples(q.values[idx])


def max_deviation(a: Quantization1D, b: Quantization1D) -> float:
    """Sup-norm distance between the two induced step CDFs.

    Between two breakpoints of one input its CDF is constant and the
    other's is monotone, so the distance peaks at (or just below) a
    breakpoint of that input, and both functions are evaluated there, at
    the breakpoints of the shorter input.  A sampled float CDF's sums of
    1/m could pass 1 before its last, set to exactly 1.0, so the last
    breakpoint of the longer input is evaluated too.  Each evaluation is
    one that a grid of both inputs' breakpoints makes, so the maximum has
    the same bits.  Mixing exact and sampled kinds is allowed; the
    comparison is in floating point.
    """
    if len(b) < len(a):
        a, b = b, a
    grid = np.append(a.values, b.values[-1])

    def at(q, side):
        idx = np.searchsorted(q.values, grid, side=side)
        out = np.zeros(len(grid))
        nz = idx > 0
        out[nz] = q._cum_float[idx[nz] - 1]
        return out

    da = np.abs(at(a, "right") - at(b, "right"))
    db = np.abs(at(a, "left") - at(b, "left"))
    return float(max(da.max(), db.max()))


# Rows per formatting pass of quantization_to_csv.
_CSV_ROWS = 512


def _ratio_floats(nums, dens) -> np.ndarray:
    """The float64 of each ratio ``nums / dens`` of integer arrays (or a
    scalar ``dens``), float() of its Fraction: each is a Python int / int,
    which is correctly rounded and raises OverflowError past the largest
    float."""
    return np.true_divide(np.asarray(nums).astype(object), np.asarray(dens).astype(object)).astype(np.float64)


def _integer(value, what: str, least: int) -> int:
    """``value`` as a Python int: every count, size and seed the library
    takes passes this one rule.  Bools (Python and numpy), values that are
    not ``numbers.Integral`` (whole floats and strings too) and values
    below ``least`` are refused with a ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _exact_numerators(numerators, denominator) -> tuple[np.ndarray, int]:
    """Exact weights as both exact constructors store them: a denominator
    by :func:`_integer` (at least 1) and 1-d integral numerators, bools
    refused (ValueError), as a Python int and a new int64 array while the
    denominator and every entry lie below 2**63, as the exact engine's
    runs do, or an array of Python ints otherwise."""
    denominator = _integer(denominator, "the denominator of exact weights", 1)
    nums = numerators if isinstance(numerators, np.ndarray) else np.array(numerators, dtype=object)
    if nums.ndim != 1:
        raise ValueError("the numerators of exact weights must be 1-d")
    # Checked once per type: the exact engine's fields hold thousands of ints.
    types = set(map(type, nums.tolist())) if nums.dtype == object else {nums.dtype.type}
    if not all(issubclass(t, numbers.Integral) and t is not bool for t in types):
        raise ValueError("the numerators of exact weights must be integers")
    if nums.dtype == object and types - {int}:
        nums = np.array(list(map(int, nums.tolist())), dtype=object)
    fits = denominator < 2**63 and -(2**63) <= nums.min(initial=0) and nums.max(initial=0) < 2**63
    return nums.astype(np.int64 if fits else object), denominator


def _ratio_terms(nums, dens) -> tuple[list[int], list[int]]:
    """The reduced numerators and denominators of the ratios ``nums / dens``
    of integer arrays (or a scalar ``dens``): the terms of their Fractions."""
    g = np.gcd(nums, dens)
    return (nums // g).tolist(), (dens // g).tolist()


def _ratio_cells(nums, dens) -> list[str]:
    """The ``num/den`` text of each reduced ratio ``nums / dens``."""
    return list(map("%d/%d".__mod__, zip(*_ratio_terms(nums, dens))))


def quantization_to_csv(q: Quantization1D) -> str:
    """CSV rows value,weight,cumulative (17 significant digits); exact
    quantizations append the rational weight as a num/den column, and their
    float cells are the :func:`_ratio_floats` of each weight and exact
    running sum.  Rows are formatted ``_CSV_ROWS`` at a time, so the writer
    holds little beyond its output."""
    exact = q.kind == "exact"
    parts, fmt = ["value,weight,cumulative" + ",weight_exact" * exact], "%.17g,%.17g,%.17g" + ",%s" * exact
    for lo in range(0, len(q), _CSV_ROWS):
        part = slice(lo, lo + _CSV_ROWS)
        if exact:
            n, d = q.numerators[part], q.denominator
            columns = [_ratio_floats(n, d).tolist(), q._cum_float[part].tolist(), _ratio_cells(n, d)]
        else:
            columns = [q.weights[part].tolist(), q._cum_float[part].tolist()]
        parts.append("\n".join(map(fmt.__mod__, zip(q.values[part].tolist(), *columns))))
    return "\n".join([*parts, ""])
