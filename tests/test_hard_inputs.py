"""Planar seb2 on the hard-input corpus, against the exact referee of
``hard_inputs``: the referee itself, ``evaluate`` on every family, the
randomized engine against the exact one on sets where Welzl's ball left a
point outside, and the random SIP disks on those sets and on noisy-lattice
indecisive sets."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqgeom import IndecisivePoint, IndecisivePointSet, MeasureId, evaluate, exact_distribution
from uqgeom.geometry import _WELZL_REL, coordinate_scale
from uqgeom.measures import tolerance
from uqgeom.montecarlo import SampleBudget, _support_stacks, build_quantization, build_random_sip

from hard_inputs import (
    miniball_radius, miniball_radius2, noisy_lattice_stack, offset_stack, seb2_interval, tiny_extent_stack,
)

SEB2 = MeasureId("seb2")

_FAMILIES = {
    "noisy-lattice": noisy_lattice_stack,
    "noisy-lattice-3": lambda rng, rows, n: noisy_lattice_stack(rng, rows, n, span=3),
    "offset-1e7": offset_stack,
    "extent-1e-9": tiny_extent_stack,
}


def test_referee_on_known_disks():
    assert miniball_radius2([[0.0, 0.0]]) == 0
    assert miniball_radius2([[1.0, 1.0], [1.0, 1.0]]) == 0
    assert miniball_radius2([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5]]) == 1  # obtuse: the long side's disk
    assert miniball_radius2([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]) == 1  # cocircular
    assert miniball_radius2([[0.0, 0.0], [4.0, 0.0], [2.0, 4.0]]) == Fraction(25, 4)  # acute: the circumcircle
    assert miniball_radius2([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]) == Fraction(9, 4)  # collinear
    # The float order of the subsets only decides which exact disk is tried
    # first: the answer does not depend on the order of the points.
    pts = np.random.default_rng(3).integers(-3, 4, size=(12, 2)).astype(np.float64)
    assert miniball_radius2(pts) == miniball_radius2(pts[::-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
# Stacks holding a set on which Welzl's support leaves a point outside, so
# that a value read off it is 29 % and 8.5 % low.
@example(family="noisy-lattice", n=4, seed=26)
@example(family="noisy-lattice-3", n=12, seed=26)
def test_evaluate_seb2_within_the_referee(family, n, seed):
    stack = _FAMILIES[family](np.random.default_rng(seed), 8, n)
    values = evaluate(SEB2, stack)
    for points, value in zip(stack, values.tolist()):
        lo, hi = seb2_interval(points, _WELZL_REL * coordinate_scale(points))
        assert lo <= value <= hi, (points.tolist(), value, miniball_radius(points))


# (n, row) of noisy_lattice_stack(default_rng(7), 1000, n, span=3): sets on
# which Welzl's ball left a point outside, by 0.30, 1.95 and 0.84, and the
# value read off its support was 1.5, 1.58 and 3.14 where the exact radii
# are 1.58, 2.24 and 3.54.
_WELZL_MISSES = [(4, 518), (5, 72), (6, 665)]


def _welzl_miss(n, row):
    return noisy_lattice_stack(np.random.default_rng(7), 1000, n, span=3)[row]


def _one_candidate_each(points) -> IndecisivePointSet:
    """The set made deterministic: every sampled support is the set itself."""
    return IndecisivePointSet([IndecisivePoint(p[None], (Fraction(1),)) for p in points], 2)


@pytest.mark.parametrize("n, row", _WELZL_MISSES)
def test_sampled_seb2_matches_exact_where_welzl_misses_a_point(n, row):
    points = _welzl_miss(n, row)
    uset = _one_candidate_each(points)
    exact = exact_distribution(uset, SEB2).collapsed.values
    sampled = build_quantization(uset, SEB2, SampleBudget(0.1, 0.05, nu=1.0), seed=row).values
    assert len(exact) == 1 and len(np.unique(sampled)) == 1
    assert abs(sampled[0] - exact[0]) <= tolerance(points, SEB2)
    assert abs(exact[0] - miniball_radius(points)) <= tolerance(points, SEB2)


def _noisy_lattice_indecisive(seed: int, n: int, k: int) -> IndecisivePointSet:
    """n points of k equally likely noisy-lattice candidates each."""
    candidates = noisy_lattice_stack(np.random.default_rng(seed), n, k, span=3)
    return IndecisivePointSet([IndecisivePoint(c, (Fraction(1, k),) * k) for c in candidates], 2)


@pytest.mark.parametrize(
    "uset",
    [_one_candidate_each(_welzl_miss(n, row)) for n, row in _WELZL_MISSES]
    + [_noisy_lattice_indecisive(seed, 6, 3) for seed in (31, 32)],
    ids=[f"welzl-miss-{n}-{row}" for n, row in _WELZL_MISSES] + ["noisy-lattice-31", "noisy-lattice-32"],
)
def test_random_sip_disks_enclose_their_support_at_the_referee_radius(uset):
    m, seed = 150, 4
    field = build_random_sip(uset, SEB2, SampleBudget(0.1, 0.05, explicit_m=m), seed)
    supports = np.concatenate(list(_support_stacks(uset, seed, m)))
    for (cx, cy, r), points in zip(field.params.tolist(), supports):
        reach = r + _WELZL_REL * coordinate_scale(points)
        assert (((points - (cx, cy)) ** 2).sum(axis=1) <= reach * reach).all()
        assert abs(r - miniball_radius(points)) <= tolerance(points, SEB2)
