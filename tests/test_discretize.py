import hashlib
import json
import math

import numpy as np
import pytest

from uqgeom import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePointSet,
    MeasureId,
    PointMassPoint,
    ResourceCapError,
    SampleBudget,
    UniformDiskPoint,
    ValidationError,
    build_quantization,
    discretize_for_measure,
    exact_distribution,
    lattice_eps_sample,
    max_deviation,
    save_point_set,
)
import uqgeom.discretize as discretize
from uqgeom.discretize import SLAB_DIRECTIONS_AABB, _lattice_sample
from uqgeom.geometry import _disk_corner_area
from uqgeom.montecarlo import trial_rng

from conftest import gaussian_slab_mass


def lens_area(c1, r1, c2, r2) -> float:
    """Reference: area of the intersection of two disks (closed form)."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    d = float(np.linalg.norm(c1 - c2))
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    alpha = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))))
    beta = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))))
    tri = 0.5 * math.sqrt(
        max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    )
    return r1 * r1 * alpha + r2 * r2 * beta - tri


def test_lattice_point_mass():
    s = lattice_eps_sample(PointMassPoint((1.0, 2.0)), 0.1)
    assert len(s.points) == 1 and s.weights[0] == 1.0


def test_lattice_weights_sum_and_positive(rng):
    g = GaussianPoint((0.3, -0.5), [[0.5, 0.1], [0.1, 0.3]])
    s = lattice_eps_sample(g, 0.1)
    assert abs(float(s.weights.sum()) - 1.0) <= 1e-12
    assert np.all(s.weights > 0)
    assert len(s.points) >= 4


def test_lattice_gaussian_slab_discrepancy(rng):
    """Reduced version of the Gaussian epsilon-sample gate (eps = 0.1, 200
    ranges); the full eps = 0.05, 1000-range version is in acceptance."""
    g = GaussianPoint((0.0, 0.0), np.eye(2))
    eps = 0.1
    s = lattice_eps_sample(g, eps)
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
    disk = UniformDiskPoint((0.3, -0.2), 0.8)
    eps = 0.1
    # The asymptotic size for ball ranges, of VC dimension nu = 3.
    s = _lattice_sample(disk, eps, math.ceil((3 / eps**2) * math.log(3 / eps)), 0)
    worst = 0.0
    for _ in range(1000):
        c = rng.uniform(-1.2, 1.2, 2)
        r = rng.uniform(0.2, 1.5)
        est = float(s.weights[((s.points - c) ** 2).sum(1) <= r * r].sum())
        truth = lens_area(disk.center, disk.radius, c, r) / (math.pi * disk.radius**2)
        worst = max(worst, abs(est - truth))
    assert worst <= eps


def test_lattice_monotone_in_eps(rng):
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
        s = lattice_eps_sample(g, eps)
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
    g = GaussianPoint((0.0, 0.0), np.eye(2))
    a = _lattice_sample(g, 0.2, 738, 0)
    b = _lattice_sample(g, 0.2, 738, 1)
    assert not np.array_equal(a.points, b.points)


@pytest.mark.parametrize(
    "dist, message",
    [
        (PointMassPoint((0.0, 0.0, 0.0)), "lattice sampling supports planar distributions only"),
        (GaussianPoint((0.0, 0.0, 0.0), np.eye(3)), "lattice sampling supports planar distributions only"),
        ((0.0, 0.0), "unsupported distribution kind tuple"),
    ],
)
def test_lattice_refuses_what_it_cannot_sample(dist, message):
    with pytest.raises(ValueError, match=message):
        lattice_eps_sample(dist, 0.2)


@pytest.mark.parametrize("eps", [1e-200, 1e-100, 0.003, 0.001, 5e-324])
def test_lattice_eps_sample_refuses_a_lattice_past_the_cap(monkeypatch, eps):
    def build(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(discretize, "_lattice_sample", build)
    with pytest.raises(ResourceCapError, match=rf"eps = {eps!r} needs more than the cap of 65536 lattice cells"):
        lattice_eps_sample(GaussianPoint((0.0, 0.0), np.eye(2)), eps)


def _former_disk_weights(disk, size, index):
    """The uniform-disk lattice's weights as formed cell by cell, each
    cell's area from its own four corner areas."""
    r = disk.radius
    offset = trial_rng(discretize._OFFSET_SEED, index).random(2)
    per_axis = max(2, math.ceil(math.sqrt(size * 4.0 / math.pi)))
    _, lx, hx = discretize._axis_lattice(-r, r, per_axis, offset[0])
    _, ly, hy = discretize._axis_lattice(-r, r, per_axis, offset[1])

    def disk_rect_area(x0, x1, y0, y1):
        a = _disk_corner_area(x1, y1, r)
        b = _disk_corner_area(x0, y1, r)
        c = _disk_corner_area(x1, y0, r)
        d = _disk_corner_area(x0, y0, r)
        return max(0.0, a - b - c + d)

    w = np.array([disk_rect_area(a, b, c, d) / (math.pi * r * r) for a, b in zip(lx, hx) for c, d in zip(ly, hy)])
    keep = w > 0
    return w[keep] / w[keep].sum()


def test_disk_lattice_weights_match_the_per_cell_corner_areas():
    rng = np.random.default_rng(53)
    for _ in range(60):
        disk = UniformDiskPoint(rng.normal(size=2), float(10 ** rng.uniform(-3, 2)))
        size, index = int(rng.integers(4, 1025)), int(rng.integers(0, 10**6))
        got = _lattice_sample(disk, 0.1, size, index).weights
        want = _former_disk_weights(disk, size, index)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], (disk.radius, size, index)


def test_discretize_point_masses_exact():
    cset = ContinuousUncertainSet(
        (PointMassPoint((1.0, 2.0)), PointMassPoint((2.0, 1.0))), 2
    )
    out = discretize_for_measure(cset, MeasureId("seb2"), 0.2)
    assert isinstance(out, IndecisivePointSet)
    assert all(p.k == 1 for p in out.points)
    assert all(p.weights == (1,) for p in out.points)


@pytest.mark.parametrize(
    "measure, ppp, digest",
    [
        ("seb2", 16, "6898f091e7231de3838c39d46586de2932cf419bcdd75db8f4d400f6cb4c8fb2"),
        ("aabb-perimeter", 25, "20c06f41915b16ca58137483242af45820bf0d11842b728681b88e8bed3c5997"),
    ],
)
def test_saved_discretized_set_keeps_its_bytes(measure, ppp, digest):
    # Weights over 2**53 per point, written as reduced num/den cells.
    cset = ContinuousUncertainSet(
        (
            GaussianPoint((0.0, 0.0), np.array([[0.3, 0.1], [0.1, 0.2]])),
            UniformDiskPoint((1.0, 0.5), 0.4),
            PointMassPoint((0.5, 1.0)),
        ),
        2,
    )
    uset = discretize_for_measure(cset, MeasureId.parse(measure), 0.2, points_per_point=ppp)
    text = save_point_set(uset)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    cells = [w for p in json.loads(text)["points"] for w in p["weights"]]
    nums, dens = uset.nums.tolist(), uset.denoms[uset.point_of].tolist()
    assert cells == [f"{n // math.gcd(n, d)}/{d // math.gcd(n, d)}" for n, d in zip(nums, dens)]


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
