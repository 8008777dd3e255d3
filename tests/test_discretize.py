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
    range_membership,
    wedge_decompose_seb2,
)
from uqgeom.discretize import SLAB_DIRECTIONS_AABB
from uqgeom.geometry import lens_area
from uqgeom.measures import evaluate

from conftest import gaussian_slab_mass


def test_range_membership_two_point_disk():
    m = MeasureId("seb2")
    z = np.array([[0.0, 0.0]])
    # f({z, p}) <= 1  <=>  |p - z| <= 2
    assert range_membership(m, z, 1.0, (1.99, 0.0))
    assert not range_membership(m, z, 1.0, (2.01, 0.0))


def test_range_membership_aabb_no_expansion():
    m = MeasureId("aabb_perimeter")
    anchor = np.array([[0.0, 0.0], [2.0, 1.0]])
    rho = evaluate(m, anchor)
    assert range_membership(m, anchor, rho, (1.0, 0.5))
    assert not range_membership(m, anchor, rho, (2.5, 0.5))


def test_range_membership_definitional(rng):
    m = MeasureId("seb2")
    for _ in range(5):
        anchor = rng.uniform(-1, 1, (3, 2))
        w = evaluate(m, anchor) + rng.uniform(0.1, 0.5)
        pts = rng.uniform(-3, 3, (2000, 2))
        for p in pts[:200]:
            direct = evaluate(m, np.vstack([anchor, p])) <= w + 1e-9
            assert range_membership(m, anchor, w, p) == direct


def test_wedge_single_anchor_two_half_disks():
    wedges = wedge_decompose_seb2(np.array([[0.5, 0.5]]), 1.0)
    assert len(wedges) == 2
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 3, (4000, 2))
    inside = np.zeros(len(pts), dtype=int)
    for w in wedges:
        inside += w.contains_many(pts).astype(int)
    truth = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) <= 2.0
    assert ((inside > 0) == truth).mean() > 0.999
    assert (inside > 1).mean() < 0.001


def test_wedge_membership_equivalence_random(rng):
    m = MeasureId("seb2")
    for trial in range(12):
        na = int(rng.integers(1, 6))
        anchor = rng.uniform(-1, 1, (na, 2))
        w = evaluate(m, anchor) + float(rng.uniform(0.05, 1.0))
        wedges = wedge_decompose_seb2(anchor, w)
        assert len(wedges) <= 2 * na
        span = 2 * w + 1
        pts = rng.uniform(anchor.mean(0) - span, anchor.mean(0) + span, (3000, 2))
        inside = np.zeros(len(pts), dtype=int)
        for wd in wedges:
            inside += wd.contains_many(pts).astype(int)
        member = np.array([range_membership(m, anchor, w, p) for p in pts])
        assert ((inside > 0) != member).mean() < 0.004  # boundary grazing only
        assert (inside > 1).mean() < 0.004  # pairwise disjoint interiors


def _circumcenter(a, b, c):
    """Centre of the circle through three non-collinear planar points."""
    m = 2.0 * np.array([b - a, c - a])
    return np.linalg.solve(m, [b @ b - a @ a, c @ c - a @ a])


def _wedge_cover_count(wedges, pts):
    return sum(wd.contains_many(pts).astype(int) for wd in wedges)


_ACUTE = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]])


@pytest.mark.parametrize(
    "anchor, center",
    [
        (np.array([[0.0, 0.0], [2.0, 0.5]]), np.array([1.0, 0.25])),
        (_ACUTE, _circumcenter(*_ACUTE)),
        (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0])),
        (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5])),
    ],
    ids=["two", "acute-triple", "collinear-triple", "coincident"],
)
def test_wedges_at_enclosing_radius_cover_the_enclosing_disk(anchor, center):
    """With w equal to the anchors' enclosing radius the range is that one
    disk: the wedges must cover exactly it, and agree with the definition."""
    w = float(np.max(np.linalg.norm(anchor - center, axis=1)))
    wedges = wedge_decompose_seb2(anchor, w)
    assert all(np.allclose(wd.center, center) and wd.radius == w for wd in wedges)
    pts = np.random.default_rng(17).uniform(center - 1.5 * w, center + 1.5 * w, (2000, 2))
    dist = np.linalg.norm(pts - center, axis=1)
    away = np.abs(dist - w) > 1e-6 * w
    inside = _wedge_cover_count(wedges, pts)
    assert np.array_equal((inside > 0)[away], (dist <= w)[away])
    assert (inside > 1).mean() < 0.004  # pairwise disjoint interiors
    member = np.array([range_membership(MeasureId("seb2"), anchor, w, p) for p in pts])
    assert np.array_equal(member[away], (dist <= w)[away])


@pytest.mark.parametrize(
    "anchor",
    [
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
        np.array([[0.3, -0.2]] * 3),
    ],
    ids=["collinear-triple", "coincident-pair", "all-coincident"],
)
@pytest.mark.parametrize("extra", [0.05, 0.5])
def test_wedges_degenerate_anchors_match_membership(anchor, extra):
    m = MeasureId("seb2")
    w = evaluate(m, anchor) + extra
    wedges = wedge_decompose_seb2(anchor, w)
    span = 2 * w + 1
    pts = np.random.default_rng(23).uniform(anchor.mean(0) - span, anchor.mean(0) + span, (3000, 2))
    inside = _wedge_cover_count(wedges, pts)
    member = np.array([range_membership(m, anchor, w, p) for p in pts])
    assert ((inside > 0) != member).mean() < 0.004  # boundary grazing only
    assert (inside > 1).mean() < 0.004


def test_wedge_empty_range_error():
    anchor = np.array([[0.0, 0.0], [4.0, 0.0]])
    with pytest.raises(ValidationError, match="empty"):
        wedge_decompose_seb2(anchor, 1.0)


def test_wedge_apex_in_hull():
    anchor = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    wedges = wedge_decompose_seb2(anchor, 2.0)
    apex = np.array(wedges[0].apex)
    assert np.allclose(apex, anchor.mean(axis=0))


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
    dist = exact_distribution(indec, m, keep_records=False)
    ref = build_quantization(cset, m, SampleBudget(0.05, 0.05, explicit_m=30_000), seed=3)
    assert max_deviation(dist.collapsed, ref) <= 0.3 + 3 * math.sqrt(0.25 / 30_000)
