"""Quantizations: compact cumulative-distribution representations.

A 1-variate quantization is a sorted list of weighted breakpoints whose
induced step function approximates (or, for the deterministic engine,
exactly equals) the CDF of a measure over an uncertain point set.  Exact
quantizations carry rational weights; sampled ones carry uniform float
weights.  The k-variate form supports dominance queries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import _WEIGHT_SLACK

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
    quantization, ``Quantization1D(values, weights)``, has a read-only
    float array of ``weights`` summing to 1.  An exact one, from
    :meth:`from_numerators`, holds positive integer ``numerators`` over one
    ``denominator``, summing to it exactly (int64 while the denominator
    fits, Python ints otherwise); its ``weights`` are the Fractions they
    make, built on first read.  ``kind`` is "exact" when there are
    numerators and "sampled" otherwise.
    """

    values: np.ndarray
    numerators: np.ndarray | None
    denominator: int | None

    def __init__(self, values, weights):
        self._set_values(values)
        w = np.array(weights, dtype=np.float64)
        if w.shape != (len(self.values),):
            raise ValueError("one weight per value required")
        if not np.all(w > 0):  # NaN too
            raise ValueError("weights must be positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SLACK:
            raise ValueError("sampled weights must sum to 1 within 1e-12")
        w.setflags(write=False)
        object.__setattr__(self, "numerators", None)
        object.__setattr__(self, "denominator", None)
        self.__dict__["weights"] = w

    @classmethod
    def from_numerators(cls, values, numerators, denominator: int) -> "Quantization1D":
        """Exact quantization with weights ``numerators / denominator``."""
        q = cls.__new__(cls)
        q._set_values(values)
        ints = numerators.tolist() if isinstance(numerators, np.ndarray) else list(numerators)
        if len(ints) != len(q.values):
            raise ValueError("one weight per value required")
        if any(n <= 0 for n in ints):
            raise ValueError("weights must be positive")
        if sum(ints) != denominator:
            raise ValueError("exact weights must sum to exactly 1")
        # Each numerator lies in (0, denominator].
        nums = np.array(ints, dtype=np.int64 if denominator < 2**63 else object)
        nums.setflags(write=False)
        object.__setattr__(q, "numerators", nums)
        object.__setattr__(q, "denominator", denominator)
        return q

    def _set_values(self, values) -> None:
        vals = np.array(values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if np.isnan(vals).any():
            raise ValueError("values must not be NaN")
        if np.any(np.diff(vals) < 0):
            raise ValueError("values must be nondecreasing")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def kind(self) -> str:
        return "sampled" if self.numerators is None else "exact"

    @functools.cached_property
    def weights(self) -> tuple:
        """Exact weights as Fractions, built from the numerators (a sampled
        quantization's constructor sets its float weights)."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators.tolist())

    def __len__(self) -> int:
        return len(self.values)

    @functools.cached_property
    def _cum_float(self) -> np.ndarray:
        if self.kind == "exact":
            # Python int / int is correctly rounded: float() of each weight.
            cum = np.cumsum([n / self.denominator for n in self.numerators.tolist()])
        else:
            cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        return cum

    @functools.cached_property
    def _cum_exact(self) -> tuple:
        """Running exact weights (exact kind only)."""
        return tuple(Fraction(c, self.denominator) for c in itertools.accumulate(self.numerators.tolist()))

    @staticmethod
    def from_samples(values) -> "Quantization1D":
        vals = np.sort(np.asarray(values, dtype=np.float64))
        m = len(vals)
        return Quantization1D(vals, np.full(m, 1.0 / max(m, 1)))


def eval_cdf(q: Quantization1D, v: float):
    """Total weight of breakpoints with value <= v (closed step convention).

    Returns a Fraction for exact quantizations, a float for sampled ones.
    """
    # No breakpoint is <= NaN, though searchsorted sorts NaN after them all.
    idx = 0 if v != v else int(np.searchsorted(q.values, v, side="right"))
    if q.kind == "exact":
        return Fraction(0) if idx == 0 else q._cum_exact[idx - 1]
    return 0.0 if idx == 0 else float(q._cum_float[idx - 1])


@dataclass(frozen=True, eq=False)
class QuantizationKD:
    """k-variate quantization supporting dominance (coordinate-wise <=) queries."""

    values: np.ndarray  # (m, k)
    weights: np.ndarray
    arity: int = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or len(vals) == 0:
            raise ValueError("values must be a non-empty (m, k) array")
        if np.isnan(vals).any():
            raise ValueError("values must not be NaN")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(vals),):
            raise ValueError("one weight per value row required")
        if not np.all(w > 0) or not abs(float(w.sum()) - 1.0) <= _WEIGHT_SLACK:
            raise ValueError("weights must be positive and sum to 1")
        vals = vals.copy()
        vals.setflags(write=False)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "arity", vals.shape[1])

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
    vals = q.values[idx]
    return Quantization1D(vals, np.full(m_out, 1.0 / m_out))


def max_deviation(a: Quantization1D, b: Quantization1D) -> float:
    """Sup-norm distance between the two induced step CDFs.

    Evaluates both functions at (and just below) every breakpoint of either
    input, which is where the supremum of a difference of step functions is
    attained.  Mixing exact and sampled kinds is allowed; the comparison is
    in floating point.
    """
    grid = np.union1d(a.values, b.values)
    ca = a._cum_float
    cb = b._cum_float

    def at(q, cum, side):
        idx = np.searchsorted(q.values, grid, side=side)
        out = np.zeros(len(grid))
        nz = idx > 0
        out[nz] = cum[idx[nz] - 1]
        return out

    da = np.abs(at(a, ca, "right") - at(b, cb, "right"))
    db = np.abs(at(a, ca, "left") - at(b, cb, "left"))
    return float(max(da.max(), db.max()))


def quantization_to_csv(q: Quantization1D) -> str:
    """CSV rows value,weight,cumulative (17 significant digits); exact
    quantizations append the rational weight as a num/den column."""
    lines = []
    if q.kind == "exact":
        lines.append("value,weight,cumulative,weight_exact")
        # Python int / int is correctly rounded, so each float cell equals
        # float() of its exact weight or running sum.
        denom = q.denominator
        cum = 0
        for v, num in zip(q.values.tolist(), q.numerators.tolist()):
            cum += num
            g = math.gcd(num, denom)
            lines.append(f"{v:.17g},{num / denom:.17g},{cum / denom:.17g},{num // g}/{denom // g}")
    else:
        lines.append("value,weight,cumulative")
        cum = q._cum_float
        for v, w, c in zip(q.values, q.weights, cum):
            lines.append(f"{v:.17g},{float(w):.17g},{c:.17g}")
    return "\n".join(lines) + "\n"
