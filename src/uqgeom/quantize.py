"""Quantizations: compact cumulative-distribution representations.

A 1-variate quantization is a sorted list of weighted breakpoints whose
induced step function approximates (or, for the deterministic engine,
exactly equals) the CDF of a measure over an uncertain point set.  Exact
quantizations carry rational weights; sampled ones carry uniform float
weights.  The k-variate form supports dominance queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Quantization1D",
    "QuantizationKD",
    "EpsAlphaQuantization",
    "eval_cdf",
    "eval_dominance",
    "simplify",
    "max_deviation",
    "quantization_to_csv",
]


@dataclass(frozen=True, eq=False)
class Quantization1D:
    values: np.ndarray
    weights: tuple  # Fractions when kind == "exact", floats otherwise
    kind: str  # "exact" | "sampled"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if np.any(np.diff(vals) < 0):
            raise ValueError("values must be nondecreasing")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.kind not in ("exact", "sampled"):
            raise ValueError("kind must be 'exact' or 'sampled'")
        if self.kind == "exact":
            w = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in self.weights)
            if len(w) != len(vals):
                raise ValueError("one weight per value required")
            # Denominators are positive, so the sign is the numerator's.
            if any(x.numerator <= 0 for x in w):
                raise ValueError("weights must be positive")
            # The sum in integers over the common denominator.
            denom = math.lcm(*(x.denominator for x in w))
            if sum(x.numerator * (denom // x.denominator) for x in w) != denom:
                raise ValueError("exact weights must sum to exactly 1")
            object.__setattr__(self, "weights", w)
        else:
            w = np.asarray(
                [float(x) for x in self.weights]
                if not isinstance(self.weights, np.ndarray)
                else self.weights,
                dtype=np.float64,
            )
            if w.shape != (len(vals),):
                raise ValueError("one weight per value required")
            if np.any(w <= 0):
                raise ValueError("weights must be positive")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise ValueError("sampled weights must sum to 1 within 1e-12")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def _cum_float(self) -> np.ndarray:
        cached = self.__dict__.get("_cum_cache")
        if cached is None:
            if self.kind == "exact":
                cached = np.cumsum(np.array([float(w) for w in self.weights]))
            else:
                cached = np.cumsum(self.weights)
            cached[-1] = 1.0
            self.__dict__["_cum_cache"] = cached
        return cached

    @property
    def _cum_exact(self) -> tuple:
        cached = self.__dict__.get("_cum_exact_cache")
        if cached is None:
            total = Fraction(0)
            out = []
            for w in self.weights:
                total += Fraction(w)
                out.append(total)
            cached = tuple(out)
            self.__dict__["_cum_exact_cache"] = cached
        return cached

    @staticmethod
    def from_samples(values) -> "Quantization1D":
        vals = np.sort(np.asarray(values, dtype=np.float64))
        m = len(vals)
        return Quantization1D(vals, np.full(m, 1.0 / m), "sampled")


def eval_cdf(q: Quantization1D, v: float):
    """Total weight of breakpoints with value <= v (closed step convention).

    Returns a Fraction for exact quantizations, a float for sampled ones.
    """
    idx = int(np.searchsorted(q.values, v, side="right"))
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
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(vals),):
            raise ValueError("one weight per value row required")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-12:
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
    return Quantization1D(vals, (1.0 / m_out,) * m_out, "sampled")


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


@dataclass(frozen=True, eq=False)
class EpsAlphaQuantization:
    """Width quantization with a relative geometric error budget.

    ``widths`` are the per-trial coreset widths in one query direction; the
    CDF they induce matches the true width CDF up to ``epsilon`` in
    probability after a relative ``alpha`` perturbation of the width axis.
    """

    widths: np.ndarray
    alpha: float
    epsilon: float

    def __post_init__(self):
        w = np.sort(np.asarray(self.widths, dtype=np.float64))
        if len(w) == 0 or np.any(w < 0):
            raise ValueError("widths must be nonnegative and non-empty")
        w.setflags(write=False)
        object.__setattr__(self, "widths", w)

    def eval_cdf(self, w: float) -> float:
        return float(np.searchsorted(self.widths, w, side="right")) / len(self.widths)

    def as_quantization(self) -> Quantization1D:
        return Quantization1D.from_samples(self.widths)


def quantization_to_csv(q: Quantization1D) -> str:
    """CSV rows value,weight,cumulative (17 significant digits); exact
    quantizations append the rational weight as a num/den column."""
    lines = []
    if q.kind == "exact":
        lines.append("value,weight,cumulative,weight_exact")
        # Running numerator over one common denominator: int / int is
        # correctly rounded, so each cell equals float() of the exact sum.
        denom = math.lcm(*(w.denominator for w in q.weights))
        num = 0
        for v, w in zip(q.values, q.weights):
            num += w.numerator * (denom // w.denominator)
            lines.append(
                f"{v:.17g},{float(w):.17g},{num / denom:.17g},{w.numerator}/{w.denominator}"
            )
    else:
        lines.append("value,weight,cumulative")
        cum = q._cum_float
        for v, w, c in zip(q.values, q.weights, cum):
            lines.append(f"{v:.17g},{float(w):.17g},{c:.17g}")
    return "\n".join(lines) + "\n"
