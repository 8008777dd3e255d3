"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from uqgeom import IndecisivePoint, IndecisivePointSet, Quantization1D
from uqgeom.sip import Raster
from uqgeom.measures import evaluate

_ND = NormalDist()


def random_indecisive(rng: np.random.Generator, n: int, k: int, span: float = 1.0) -> IndecisivePointSet:
    """Random planar indecisive set with random small-denominator rational weights."""
    points = []
    for _ in range(n):
        locs = rng.uniform(-span, span, size=(k, 2))
        cuts = sorted(int(c) for c in rng.integers(1, 12, size=k))
        total = sum(cuts)
        weights = tuple(Fraction(c, total) for c in cuts)
        points.append(IndecisivePoint(locs, weights))
    return IndecisivePointSet(tuple(points), 2)


def exact_quantization(values, weights) -> Quantization1D:
    """Exact quantization from rational (or float) weights, as integer
    numerators over the lcm of their denominators."""
    exact = [Fraction(w) for w in weights]
    denom = math.lcm(*(w.denominator for w in exact))
    nums = [w.numerator * (denom // w.denominator) for w in exact]
    return Quantization1D.from_numerators(np.asarray(values, dtype=np.float64), nums, denom)


def bbox_diameter(pts: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box: the reference for
    the diagonal that geometry.length_scale takes."""
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(math.hypot(*span))


def group_tolerance(uset: IndecisivePointSet, measure) -> float:
    diam = bbox_diameter(uset.all_locations())
    return 1e-9 * (diam * diam if measure.kind == "aabb_area" else diam)


def enumerate_supports(uset: IndecisivePointSet):
    """All (locations, probability) pairs by full enumeration."""
    for choice in product(*[range(p.k) for p in uset.points]):
        locs = np.array([p.locations[j] for p, j in zip(uset.points, choice)])
        prob = Fraction(1)
        for p, j in zip(uset.points, choice):
            prob *= p.weights[j]
        yield locs, prob


def kvariate_oracle(uset: IndecisivePointSet, measures, v) -> float:
    """Exact dominance probability by support enumeration."""
    total = Fraction(0)
    v = np.asarray(v, dtype=np.float64)
    for locs, prob in enumerate_supports(uset):
        vals = np.array([evaluate(m, locs) for m in measures])
        if np.all(vals <= v):
            total += prob
    return float(total)


def gaussian_slab_mass(slabs, epsabs: float = 1e-9) -> float:
    """Mass of the standard bivariate Gaussian over an intersection of slabs
    [(ux, uy, lo, hi)]; adaptive 1-d quadrature of exact x-slices."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    x_lo, x_hi = -9.0, 9.0
    others = []
    for ux, uy, lo, hi in slabs:
        if abs(uy) < 1e-15:
            a, b = lo / ux, hi / ux
            if ux < 0:
                a, b = b, a
            x_lo = max(x_lo, a)
            x_hi = min(x_hi, b)
        else:
            others.append((ux, uy, lo, hi))
    if x_hi <= x_lo:
        return 0.0

    def integrand(x):
        ylo, yhi = -9.0, 9.0
        for ux, uy, lo, hi in others:
            a = (lo - ux * x) / uy
            b = (hi - ux * x) / uy
            if uy < 0:
                a, b = b, a
            ylo = max(ylo, a)
            yhi = min(yhi, b)
        if yhi <= ylo:
            return 0.0
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * (_ND.cdf(yhi) - _ND.cdf(ylo))

    with warnings.catch_warnings():
        # Narrow slab intersections trip quad's roundoff heuristic; accuracy
        # is still far beyond the 1e-6 the oracle needs.
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, x_lo, x_hi, limit=300, epsabs=epsabs)
    return val


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def read_pgm(path) -> Raster:
    """Reference reader of :func:`uqgeom.sip.write_pgm`'s 16-bit P5 PGM and
    its JSON sidecar."""
    path = Path(path)
    data = path.read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError("expected binary PGM (P5)")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValueError("expected 16-bit PGM")
    pos += 1  # single whitespace after maxval
    raw = np.frombuffer(data, dtype=">u2", count=w * h, offset=pos)
    values = raw.reshape(h, w).astype(np.float64) / 65535.0
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    return Raster(values, tuple(sidecar["bounds"]))
