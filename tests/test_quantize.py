import math
import random
from fractions import Fraction

import numpy as np
import pytest

from uqgeom import (
    ContinuousUncertainSet,
    GaussianPoint,
    MeasureId,
    PointMassPoint,
    Quantization1D,
    QuantizationKD,
    UniformDiskPoint,
    discretize_for_measure,
    eval_cdf,
    eval_dominance,
    exact_distribution,
    max_deviation,
    quantization_to_csv,
    simplify,
)
from uqgeom.quantize import _CSV_ROWS, _ratio_cells, _ratio_floats
from uqgeom.sip import DISK, SipField

from conftest import exact_quantization, random_indecisive


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


def _former_max_deviation(a, b):
    """Reference: both CDFs at (and just below) every breakpoint of either
    input, on their sorted union."""
    grid = np.union1d(a.values, b.values)

    def at(q, side):
        idx = np.searchsorted(q.values, grid, side=side)
        out = np.zeros(len(grid))
        out[idx > 0] = q._cum_float[idx[idx > 0] - 1]
        return out

    return float(max(np.abs(at(a, "right") - at(b, "right")).max(), np.abs(at(a, "left") - at(b, "left")).max()))


def _overshooting_exact():
    """Exact weights 0.2, 0.4, 0.3, 0.1 - 2**-70 and 2**-70, whose rounded
    weights sum to 1.0000000000000002 before the last; each running sum
    rounded once is at most 1.0."""
    d = 2**70
    nums = [d // 5, 2 * d // 5 + 1, 3 * d // 10, 0, 1]
    nums[3] = d - sum(nums)
    return Quantization1D.from_numerators(np.arange(5.0), nums, d)


def _deviation_inputs(rng):
    """Pairs of quantizations of every kind: ties, signed zeros, one point,
    exact weights over big denominators, and the overshooting sums."""
    def sampled(values):
        return Quantization1D.from_samples(values)

    def exact(values):
        # Denominators below 2**63 and, scaled by 3**40, above it.
        scale = 3**40 if rng.random() < 0.5 else 1
        nums = [int(c) * scale for c in rng.integers(1, 10, size=len(values))]
        nums[0] += 1
        return Quantization1D.from_numerators(np.sort(values), nums, sum(nums))

    draws = [
        lambda n: rng.normal(size=n),
        lambda n: rng.integers(-3, 4, size=n).astype(float),
        lambda n: np.round(rng.normal(size=n), 1),
        lambda n: rng.choice([-0.0, 0.0, 1.0], size=n),
    ]
    pairs = [(_overshooting_exact(), sampled([-1.0, 5.0])), (_overshooting_exact(), sampled([0.5]))]
    for _ in range(400):
        a, b = (rng.choice([sampled, exact])(draws[rng.integers(4)](int(rng.integers(1, 30)))) for _ in range(2))
        pairs.append((a, b))
    return pairs


def test_max_deviation_matches_the_union_grid_bit_for_bit(rng):
    pairs = _deviation_inputs(rng)
    kinds = {(a.kind, b.kind) for a, b in pairs}
    assert {a.numerators.dtype for a, _ in pairs if a.kind == "exact"} == {np.dtype(np.int64), np.dtype(object)}
    assert kinds == {(x, y) for x in ("exact", "sampled") for y in ("exact", "sampled")}
    assert any(min(len(a), len(b)) == 1 for a, b in pairs)
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert max_deviation(x, y).hex() == _former_max_deviation(x, y).hex(), (x.values, y.values)
    # The grid holds the last breakpoint of the longer input, 4.0 here; just
    # below it the exact float CDF reads 1 - 2**-70 rounded, 1.0, not the
    # 1.0000000000000002 that summing the rounded weights gave.
    exact, sampled = pairs[0]
    assert exact.values[-1] not in sampled.values and exact._cum_float[-2] == 1.0
    assert max_deviation(exact, sampled) == 0.5


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


def test_from_numerators_checks_int64_numerators_exactly():
    # The checks and their messages are those of Python ints: numerators
    # whose int64 sum wraps to the denominator (4 * 2**62 + 4 = 2**64 + 4)
    # are refused.
    wrapping = np.array([2**62, 2**62, 2**62, 2**62 + 4], dtype=np.int64)
    assert int(wrapping.sum()) == 4
    with pytest.raises(ValueError, match="exact weights must sum to exactly 1"):
        Quantization1D.from_numerators(np.arange(4.0), wrapping, 4)
    with pytest.raises(ValueError, match="weights must be positive"):
        Quantization1D.from_numerators(np.arange(3.0), np.array([2, 0, 1], dtype=np.int64), 3)
    with pytest.raises(ValueError, match="one weight per value required"):
        Quantization1D.from_numerators(np.arange(3.0), np.array([2, 1], dtype=np.int64), 3)
    with pytest.raises(ValueError, match="exact weights must sum to exactly 1"):
        Quantization1D.from_numerators(np.arange(2.0), np.array([2, 2], dtype=np.int64), 5)
    # Numerators over a denominator of 2**63 or more become Python ints.
    q = Quantization1D.from_numerators(np.arange(2.0), np.array([2**62, 2**62], dtype=np.int64), 2**63)
    assert q.numerators.dtype == object and q.numerators.tolist() == [2**62, 2**62]
    assert type(q.numerators[0]) is int and not q.numerators.flags.writeable


_NOT_INTEGERS = "the numerators of exact weights must be integers"
_NOT_1D = "the numerators of exact weights must be 1-d"


def _bad_denominator(value):
    return f"the denominator of exact weights must be an integer of at least 1, got {value!r}"


# (id, numerators, denominator, refusal) of one table for both exact
# constructors: refusal is None for a row both accept, else the message
# both refuse it with.
_EXACT_WEIGHT_INPUTS = [
    ("ints", [1, 2], 3, None),
    ("int64 denominator", [1, 2], np.int64(3), None),
    ("int64 list", [np.int64(1), np.int64(2)], 3, None),
    ("int32 array", np.array([1, 2], dtype=np.int32), 3, None),
    ("uint64 array", np.array([1, 2], dtype=np.uint64), 3, None),
    ("below 2**63", [2**62, 5], 2**62 + 5, None),
    ("2**63", [2**63, 5], 2**63 + 5, None),
    ("uint64 2**63", np.array([2**63, 5], dtype=np.uint64), 2**63 + 5, None),
    ("2**64", [2**64, 5], 2**64 + 5, None),
    ("int64 over 2**63", np.array([2**62, 2**62], dtype=np.int64), 2**63, None),
    ("bools", [True, True], 2, _NOT_INTEGERS),
    ("bool array", np.array([True, True]), 2, _NOT_INTEGERS),
    ("whole floats", [1.0, 2.0], 3, _NOT_INTEGERS),
    ("float array", np.array([1.5, 1.5]), 3, _NOT_INTEGERS),
    # Once passed every check of from_numerators and was stored as int64 [1, 0].
    ("halves", [1.5, 0.5], 2, _NOT_INTEGERS),
    ("Fraction", [Fraction(1), 2], 3, _NOT_INTEGERS),
    ("2-D list", [[1], [2]], 3, _NOT_1D),
    ("2-D array", np.array([[1, 2]]), 3, _NOT_1D),
    ("float denominator", [1, 2], 3.0, _bad_denominator(3.0)),
    ("float64 denominator", [1, 2], np.float64(3.0), _bad_denominator(np.float64(3.0))),
    ("bool denominator", [1], True, _bad_denominator(True)),
    ("numpy bool denominator", [1], np.bool_(True), _bad_denominator(np.bool_(True))),
    ("zero denominator", [1], 0, _bad_denominator(0)),
    ("negative denominator", [1], -1, _bad_denominator(-1)),
]


@pytest.mark.parametrize(
    "numerators, denominator, refusal", [row[1:] for row in _EXACT_WEIGHT_INPUTS],
    ids=[row[0] for row in _EXACT_WEIGHT_INPUTS],
)
def test_both_exact_constructors_give_one_verdict(numerators, denominator, refusal):
    # SipField.from_arrays once refused [2**63, 5] (numpy made it float64),
    # and from_numerators once took a 1.0 denominator, whose weights,
    # eval_cdf and CSV then raised TypeError.
    verdicts = []
    for build in (
        lambda: Quantization1D.from_numerators(np.arange(2.0)[: len(numerators)], numerators, denominator),
        lambda: SipField.from_arrays(DISK, np.zeros((len(numerators), 3)), None, numerators, denominator),
    ):
        try:
            made = build()
        except ValueError as exc:
            verdicts.append(str(exc))
        else:
            assert type(made.denominator) is int and made.denominator == denominator
            assert made.numerators.tolist() == [int(n) for n in numerators]
            assert all(type(n) is int for n in made.numerators.tolist())
            fits = made.denominator < 2**63 and max(made.numerators.tolist()) < 2**63
            assert made.numerators.dtype == (np.int64 if fits else object)
            assert not made.numerators.flags.writeable
            verdicts.append((made.numerators.dtype, made.numerators.tolist()))
    assert verdicts[0] == verdicts[1]
    if refusal is None:
        assert not isinstance(verdicts[0], str)
    else:
        assert verdicts[0] == refusal


def test_exact_quantization_reads_one_running_sum():
    q = exact_quantization([0.0, 1.0, 2.0], (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))
    assert q._cum_nums.tolist() == [2, 3, 6]
    assert [eval_cdf(q, v) for v in (-1.0, 0.0, 1.5, 2.0)] == [0, Fraction(1, 3), Fraction(1, 2), 1]
    assert type(eval_cdf(q, 1.0)) is Fraction
    assert q._cum_float.tolist() == [1 / 3, 0.5, 1.0]


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


def _former_quantization_to_csv(q):
    """Reference: the writer as it was, one row at a time in Python ints."""
    lines = []
    if q.kind == "exact":
        lines.append("value,weight,cumulative,weight_exact")
        denom = q.denominator
        cum = 0
        for v, num in zip(q.values.tolist(), q.numerators.tolist()):
            cum += num
            g = math.gcd(num, denom)
            lines.append(f"{v:.17g},{num / denom:.17g},{cum / denom:.17g},{num // g}/{denom // g}")
    else:
        lines.append("value,weight,cumulative")
        for v, w, c in zip(q.values, q.weights, q._cum_float):
            lines.append(f"{v:.17g},{float(w):.17g},{c:.17g}")
    return "\n".join(lines) + "\n"


_EDGE_VALUES = [-1.7976931348623157e308, -1e300, -1.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1,
                1.0, 1e300, 1.7976931348623157e308]


def _csv_quantizations():
    """Exact quantizations over denominators on both sides of 2**53 and
    2**63, with repeated and distinct numerators, of one row and of more
    than one formatting pass, and sampled ones of m = 1, 3, 500 and more,
    over signed zeros, subnormal and huge values."""
    rng, draw = np.random.default_rng(45), random.Random(45)
    out = []
    for denom in (2**53 - 1, 2**53, 2**63 - 1, 2**63, 3**61, 2**106, 6, 2**40 * 3**10):
        for n in (n for n in (1, 2, len(_EDGE_VALUES), 60, 3 * _CSV_ROWS + 1) if 4 * n <= denom):
            values = _EDGE_VALUES if n == len(_EDGE_VALUES) else np.sort(rng.normal(size=n))
            repeated = [denom // (2 * n)] * (n - 1)
            distinct = [draw.randrange(1, denom // (2 * n) + 1) for _ in range(n - 1)]
            for nums in (repeated, distinct):
                out.append(Quantization1D.from_numerators(values, nums + [denom - sum(nums)], denom))
    for m in (1, 3, 500, 3 * _CSV_ROWS + 1):
        out.append(Quantization1D.from_samples(rng.normal(size=m)))
        out.append(Quantization1D.from_samples(rng.choice(_EDGE_VALUES, size=m)))
    return out


def test_csv_writer_bytes_match_the_former_writer():
    qs = _csv_quantizations()
    dtypes = {q.numerators.dtype for q in qs if q.kind == "exact"}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert {len(q) for q in qs} >= {1, 3, 500, len(_EDGE_VALUES)}
    assert any(q.kind == "exact" and len(set(q.numerators.tolist())) < len(q) - 1 for q in qs)
    for q in qs:
        text = quantization_to_csv(q)
        assert text == _former_quantization_to_csv(q), (q.values, q.numerators, q.denominator)
        # The float CDF is the cumulative column, bit for bit: for an exact
        # quantization, each running sum rounded once, as the former writer.
        column = [float(line.split(",")[2]) for line in text.splitlines()[1:]]
        assert [c.hex() for c in q._cum_float.tolist()] == [c.hex() for c in column]


def test_csv_writer_bytes_match_on_engine_distributions(rng):
    # Exact distributions as the engine makes them: int64 numerators on
    # random sets, Python ints on discretized ones (denominators of 2**53
    # per point), several with more rows than one formatting pass.
    sets = [random_indecisive(rng, n, k) for n, k in ((3, 2), (5, 3), (7, 4))]
    cset = ContinuousUncertainSet(
        (GaussianPoint((0.0, 0.0), np.eye(2) * 0.2), UniformDiskPoint((1.0, 0.5), 0.4), PointMassPoint((0.5, 1.0))), 2
    )
    sets += [discretize_for_measure(cset, MeasureId("seb2"), 0.2, points_per_point=16)]
    qs = [exact_distribution(uset, MeasureId.parse(m)).collapsed for uset in sets for m in ("seb2", "aabb-perimeter")]
    assert {q.numerators.dtype for q in qs} == {np.dtype(np.int64), np.dtype(object)}
    assert max(len(q) for q in qs) > 2 * _CSV_ROWS
    for q in qs:
        assert quantization_to_csv(q) == _former_quantization_to_csv(q)


def _ratio_cases():
    """(numerators, denominators) as int64 and object arrays on both sides
    of 2**53 and 2**63, with scalar and per-entry denominators."""
    near = [1, 2, 3, 7, 2**52 - 1, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1]
    big = [2**63, 2**64 + 3, 3**61, 2**106 - 1, 2**159 + 7]
    rng = np.random.default_rng(7)
    cases = []
    for den in near + big:
        nums = [1, 2, 3, den // 3, den - 1, den, -5, 0]
        cases.append((np.array(nums, dtype=object), den))
        if den < 2**63:
            cases.append((np.array(nums, dtype=np.int64), np.int64(den)))
    # Numerators above 2**53 over a small denominator: weights above 1.
    cases.append((np.array([2**53 + 1, 2**60 + 3, 2**63 - 1, -(2**63) + 1], dtype=np.int64), 3))
    cases.append((np.array([2**53 + 1, 2**60 + 3, 2**63 + 1, 2**200 + 1], dtype=object), 3))
    # Per-entry denominators, as each candidate's point denominator.
    for top in (2**20, 2**52, 2**53, 2**62, 2**63 - 1):
        dens = rng.integers(1, top, size=50, dtype=np.int64, endpoint=True)
        nums = np.array([int(rng.integers(0, int(d), endpoint=True)) for d in dens], dtype=np.int64)
        cases.append((nums, dens))
        cases.append((nums.astype(object), dens.astype(object) * 2**70))
    return cases


def test_ratio_helpers_match_fractions():
    for nums, dens in _ratio_cases():
        pairs = list(zip(nums.tolist(), np.broadcast_to(dens, nums.shape).tolist()))
        floats = _ratio_floats(nums, dens)
        assert floats.dtype == np.float64 and floats.shape == (len(pairs),)
        assert [x.hex() for x in floats.tolist()] == [float(Fraction(n, d)).hex() for n, d in pairs]
        cells = _ratio_cells(nums, dens)
        assert cells == [f"{Fraction(n, d).numerator}/{Fraction(n, d).denominator}" for n, d in pairs]
    with pytest.raises(OverflowError):
        _ratio_floats(np.array([10**400], dtype=object), 3)
