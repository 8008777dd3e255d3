import math

import numpy as np
import pytest

from uqgeom import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePointSet,
    MeasureId,
    PointMassPoint,
    RangeFamily,
    SampleBudget,
    UniformDiskPoint,
    ValidationError,
    build_quantization,
    discretize_for_measure,
    exact_distribution,
    lattice_eps_sample,
    max_deviation,
)
from uqgeom.discretize import SLAB_DIRECTIONS_AABB
from uqgeom.geometry import lens_area

from conftest import gaussian_slab_mass


def test_lattice_point_mass():
    fam = RangeFamily("balls")
    s = lattice_eps_sample(PointMassPoint((1.0, 2.0)), fam, 0.1)
    assert len(s.points) == 1 and s.weights[0] == 1.0


def test_lattice_weights_sum_and_positive(rng):
    fam = RangeFamily("slabs", SLAB_DIRECTIONS_AABB)
    g = GaussianPoint((0.3, -0.5), [[0.5, 0.1], [0.1, 0.3]])
    s = lattice_eps_sample(g, fam, 0.1)
    assert abs(float(s.weights.sum()) - 1.0) <= 1e-12
    assert np.all(s.weights > 0)
    assert len(s.points) >= 4


def test_lattice_gaussian_slab_discrepancy(rng):
    """Reduced version of the Gaussian epsilon-sample gate (eps = 0.1, 200
    ranges); the full eps = 0.05, 1000-range version is in acceptance."""
    fam = RangeFamily("slabs", SLAB_DIRECTIONS_AABB)
    g = GaussianPoint((0.0, 0.0), np.eye(2))
    eps = 0.1
    s = lattice_eps_sample(g, fam, eps)
    projs = [s.points @ np.array(d) for d in SLAB_DIRECTIONS_AABB]
    worst = 0.0
    for _ in range(200):
        slabs = []
        for d in SLAB_DIRECTIONS_AABB:
            c = rng.normal(0, 1.2)
            h = abs(rng.normal(0, 1.0)) + 0.15
            slabs.append((d[0], d[1], c - h, c + h))
        mask = np.ones(len(s.points), dtype=bool)
        for proj, (ux, uy, lo, hi) in zip(projs, slabs):
            mask &= (proj >= lo) & (proj <= hi)
        est = float(s.weights[mask].sum())
        worst = max(worst, abs(est - gaussian_slab_mass(slabs)))
    assert worst <= eps


def test_lattice_uniform_disk_balls_discrepancy(rng):
    fam = RangeFamily("balls")
    disk = UniformDiskPoint((0.3, -0.2), 0.8)
    eps = 0.1
    s = lattice_eps_sample(disk, fam, eps)
    worst = 0.0
    for _ in range(1000):
        c = rng.uniform(-1.2, 1.2, 2)
        r = rng.uniform(0.2, 1.5)
        est = float(s.weights[((s.points - c) ** 2).sum(1) <= r * r].sum())
        truth = lens_area(disk.center, disk.radius, c, r) / (math.pi * disk.radius**2)
        worst = max(worst, abs(est - truth))
    assert worst <= eps


def test_lattice_monotone_in_eps(rng):
    fam = RangeFamily("slabs", SLAB_DIRECTIONS_AABB)
    g = GaussianPoint((0.0, 0.0), np.eye(2))
    ranges = []
    for _ in range(60):
        slabs = []
        for d in SLAB_DIRECTIONS_AABB:
            c = rng.normal(0, 1.0)
            h = abs(rng.normal(0, 1.0)) + 0.2
            slabs.append((d[0], d[1], c - h, c + h))
        ranges.append(slabs)

    def worst_for(eps):
        s = lattice_eps_sample(g, fam, eps)
        projs = [s.points @ np.array(d) for d in SLAB_DIRECTIONS_AABB]
        worst = 0.0
        for slabs in ranges:
            mask = np.ones(len(s.points), dtype=bool)
            for proj, (ux, uy, lo, hi) in zip(projs, slabs):
                mask &= (proj >= lo) & (proj <= hi)
            worst = max(worst, abs(float(s.weights[mask].sum()) - gaussian_slab_mass(slabs)))
        return worst

    assert worst_for(0.05) <= worst_for(0.2) + 0.01


def test_lattice_origin_shift_varies_by_index():
    fam = RangeFamily("balls")
    g = GaussianPoint((0.0, 0.0), np.eye(2))
    a = lattice_eps_sample(g, fam, 0.2, index=0)
    b = lattice_eps_sample(g, fam, 0.2, index=1)
    assert not np.array_equal(a.points, b.points)


def test_range_family_validation():
    with pytest.raises(ValueError):
        RangeFamily("slabs")
    with pytest.raises(ValueError):
        RangeFamily("balls", directions=((1, 0),))
    assert RangeFamily("slabs", SLAB_DIRECTIONS_AABB).vc_dimension == 8
    assert RangeFamily("wedges_seb2").vc_dimension == 9


def test_discretize_point_masses_exact():
    cset = ContinuousUncertainSet(
        (PointMassPoint((1.0, 2.0)), PointMassPoint((2.0, 1.0))), 2
    )
    out = discretize_for_measure(cset, MeasureId("seb2"), 0.2)
    assert isinstance(out, IndecisivePointSet)
    assert all(p.k == 1 for p in out.points)
    assert all(p.weights == (1,) for p in out.points)


def test_discretize_rejects_unsupported():
    cset = ContinuousUncertainSet((PointMassPoint((0.0, 0.0)),), 2)
    with pytest.raises(ValidationError):
        discretize_for_measure(cset, MeasureId("diameter"), 0.2)


def test_pipeline_small_aabbp_vs_montecarlo():
    """Reduced Theorem-style pipeline check (n=2, modest lattice); the full
    n=3 gate runs in acceptance."""
    cset = ContinuousUncertainSet(
        (
            GaussianPoint((0.0, 0.0), 0.3 * np.eye(2)),
            GaussianPoint((1.5, 1.0), 0.4 * np.eye(2)),
        ),
        2,
    )
    m = MeasureId("aabb_perimeter")
    indec = discretize_for_measure(cset, m, 0.3, points_per_point=49)
    dist = exact_distribution(indec, m)
    ref = build_quantization(cset, m, SampleBudget(0.05, 0.05, explicit_m=30_000), seed=3)
    assert max_deviation(dist.collapsed, ref) <= 0.3 + 3 * math.sqrt(0.25 / 30_000)
