import math
from fractions import Fraction

import numpy as np
import pytest

from uqgeom import (
    Quantization1D,
    QuantizationKD,
    eval_cdf,
    eval_dominance,
    max_deviation,
    quantization_to_csv,
    simplify,
)

from conftest import exact_quantization


def test_eval_cdf_uniform_breakpoints():
    q = Quantization1D.from_samples([1.0, 2.0, 3.0, 4.0])
    assert eval_cdf(q, 2.5) == 0.5
    assert eval_cdf(q, 0.0) == 0.0
    assert eval_cdf(q, 9.0) == 1.0
    assert eval_cdf(q, 2.0) == 0.5  # closed step convention
    assert eval_cdf(q, math.nan) == 0.0  # no breakpoint is <= NaN


def test_eval_cdf_exact_is_rational():
    q = exact_quantization([1.0, 2.0], (Fraction(1, 3), Fraction(2, 3)))
    assert eval_cdf(q, 1.5) == Fraction(1, 3)
    assert isinstance(eval_cdf(q, 1.5), Fraction)
    assert isinstance(eval_cdf(q, math.nan), Fraction) and eval_cdf(q, math.nan) == 0


def test_cdf_monotone_with_limits(rng):
    q = Quantization1D.from_samples(rng.standard_normal(200))
    grid = np.sort(rng.uniform(-4, 4, 100))
    vals = [eval_cdf(q, v) for v in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert eval_cdf(q, -100) == 0.0 and eval_cdf(q, 100) == 1.0


def test_eval_dominance_examples():
    pts = np.array([[1, 1], [1, 3], [3, 1], [3, 3]], dtype=float)
    q = QuantizationKD(pts)
    assert eval_dominance(q, (2, 2)) == 0.25
    assert eval_dominance(q, (3, 3)) == 1.0
    assert eval_dominance(q, (0, 0)) == 0.0
    with pytest.raises(ValueError):
        eval_dominance(q, (1, 2, 3))


def test_dominance_monotone(rng):
    q = QuantizationKD(rng.uniform(0, 1, (50, 2)))
    v = rng.uniform(0, 1, 2)
    assert eval_dominance(q, v + 0.1) >= eval_dominance(q, v)


def test_simplify_sizes_and_deviation():
    q = Quantization1D.from_samples(np.linspace(0.0, 1.0, 1000))
    s = simplify(q, 0.1)
    assert len(s) <= math.ceil(2 / 0.1)
    assert max_deviation(q, s) <= 0.05


def test_simplify_eps_one():
    q = Quantization1D.from_samples(np.linspace(0.0, 1.0, 500))
    s = simplify(q, 1.0)
    assert len(s) <= 2
    assert max_deviation(q, s) <= 0.5


def test_simplify_noop_when_small():
    q = Quantization1D.from_samples([1.0, 2.0, 3.0])
    assert simplify(q, 0.5) is q


def test_simplify_idempotent(rng):
    q = Quantization1D.from_samples(rng.standard_normal(5000))
    for eps in (0.03, 0.2):
        s1 = simplify(q, eps)
        s2 = simplify(s1, eps)
        assert np.array_equal(s1.values, s2.values)
        assert max_deviation(q, s1) <= eps / 2


def test_simplify_weighted_exact_input():
    q = exact_quantization(np.arange(100, dtype=float), [Fraction(1, 100)] * 100)
    s = simplify(q, 0.1)
    assert len(s) <= 20 and max_deviation(q, s) <= 0.05


def test_max_deviation_examples():
    a = Quantization1D.from_samples([1, 2, 3, 4])
    b = Quantization1D.from_samples([1, 2, 3, 5])
    assert abs(max_deviation(a, b) - 0.25) < 1e-12
    assert max_deviation(a, a) == 0.0
    z = Quantization1D.from_samples([0.0])
    o = Quantization1D.from_samples([1.0])
    assert max_deviation(z, o) == 1.0


def test_max_deviation_pseudometric(rng):
    qs = [Quantization1D.from_samples(rng.standard_normal(40)) for _ in range(3)]
    dab = max_deviation(qs[0], qs[1])
    dba = max_deviation(qs[1], qs[0])
    assert dab == dba
    assert max_deviation(qs[0], qs[2]) <= dab + max_deviation(qs[1], qs[2]) + 1e-12


def test_max_deviation_mixed_kinds():
    a = exact_quantization([0.0, 1.0], (Fraction(1, 2), Fraction(1, 2)))
    b = Quantization1D.from_samples([0.0, 1.0])
    assert max_deviation(a, b) == 0.0


def test_from_samples_sorts_with_uniform_weights():
    q = Quantization1D.from_samples(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(q.values, [1.0, 2.0, 3.0])
    assert np.array_equal(q.weights, np.full(3, 1 / 3))
    assert eval_cdf(q, 2.0) == 2 / 3
    assert q.kind == "sampled"


def test_csv_formats():
    q = exact_quantization([1.0, 2.0], (Fraction(1, 3), Fraction(2, 3)))
    text = quantization_to_csv(q)
    lines = text.strip().splitlines()
    assert lines[0] == "value,weight,cumulative,weight_exact"
    assert lines[1].endswith(",1/3")
    s = Quantization1D.from_samples([1.0, 2.0])
    assert quantization_to_csv(s).splitlines()[0] == "value,weight,cumulative"


def test_quantization_validation():
    with pytest.raises(ValueError, match="values must be nondecreasing"):
        Quantization1D.from_numerators(np.array([2.0, 1.0]), [1, 1], 2)
    with pytest.raises(ValueError):
        exact_quantization([1.0], (Fraction(1, 2),))  # sum != 1
    with pytest.raises(ValueError, match="values must be a non-empty 1-d array"):
        Quantization1D.from_samples([])
    # A sampled quantization is its samples: no constructor takes weights.
    with pytest.raises(TypeError):
        Quantization1D([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(TypeError):
        QuantizationKD([[1.0], [2.0]], [0.5, 0.5])


def test_quantization_refuses_nan_values():
    # The order check is false on NaN: from_samples([1, nan, 0.5]) once built
    # [0.5, 1.0, nan], whose CDF read 2/3 at 10.
    with pytest.raises(ValueError, match="values must not be NaN"):
        Quantization1D.from_samples([1.0, math.nan, 0.5])
    with pytest.raises(ValueError, match="values must not be NaN"):
        Quantization1D.from_numerators([math.nan], [1], 1)
    # Infinite values are ordered and stay accepted.
    q = Quantization1D.from_samples([math.inf, 0.5, -math.inf])
    assert q.values.tolist() == [-math.inf, 0.5, math.inf]
    assert eval_cdf(q, 10.0) == 2 / 3


def test_kvariate_quantization_refuses_nan_values():
    # The checks compared with <=, false on NaN: a NaN row once built and
    # was never dominated, so eval_dominance(q, [10, 10]) read 0.5.
    with pytest.raises(ValueError, match="values must not be NaN"):
        QuantizationKD([[math.nan, 1.0], [0.5, 0.5]])
    q = QuantizationKD([[-math.inf, 1.0], [0.5, math.inf]])
    assert eval_dominance(q, [10.0, 10.0]) == 0.5
    assert np.array_equal(q.weights, [0.5, 0.5]) and not q.weights.flags.writeable



@pytest.mark.parametrize(
    "weights, message",
    [
        ((Fraction(1, 3), Fraction(2, 3), Fraction(0)), "one weight per value"),
        ((Fraction(1, 2),), "one weight per value"),
        ((Fraction(3, 2), Fraction(-1, 2)), "positive"),
        ((Fraction(0), Fraction(1)), "positive"),
        ((Fraction(1, 3), Fraction(1, 3)), "sum to exactly 1"),
        ((Fraction(1, 2**70), Fraction(2**70, 2**70 + 1)), "sum to exactly 1"),
        ((0.5, 0.5000001), "sum to exactly 1"),
    ],
)
def test_exact_weight_validation(weights, message):
    with pytest.raises(ValueError, match=message):
        exact_quantization([1.0, 2.0], weights)


def test_exact_weights_accept_mixed_types_and_keep_fractions():
    q = exact_quantization([1.0, 2.0, 3.0], (Fraction(1, 6), 0.5, Fraction(1, 3)))
    assert q.weights == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    assert all(type(w) is Fraction for w in q.weights)
    huge = Fraction(1, 3 * 2**80)
    q = exact_quantization([1.0, 2.0], (huge, 1 - huge))
    assert sum(q.weights) == 1

def test_csv_cumulative_is_rounded_running_fraction():
    rng = np.random.default_rng(2)
    dens = [3, 7, 9, 11, 13, 2**61 - 1, 10**20 + 39]
    parts = [Fraction(int(rng.integers(1, 50)), int(rng.choice(dens))) for _ in range(60)]
    total = sum(parts)
    weights = tuple(p / total for p in parts)
    q = exact_quantization(np.arange(60, dtype=np.float64), weights)
    running = Fraction(0)
    for w, line in zip(weights, quantization_to_csv(q).splitlines()[1:]):
        running += w
        assert line.split(",")[2] == f"{float(running):.17g}"
