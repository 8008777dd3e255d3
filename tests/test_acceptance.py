"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to calibration.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import uqgeom as uq
from uqgeom import MeasureId, SampleBudget
from uqgeom.discretize import SLAB_DIRECTIONS_AABB
from uqgeom.harness import cylinder_axis_direction
from uqgeom.montecarlo import directional_width, verification_net

from conftest import gaussian_slab_mass, group_tolerance, random_indecisive

MEASURES_C1 = [
    MeasureId("seb2"),
    MeasureId("aabb_perimeter"),
    MeasureId("aabb_area"),
    MeasureId("dwid", (math.cos(1.0), math.sin(1.0))),
    MeasureId("seb1"),
    MeasureId("sebinf"),
]


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def oracle_sweep():
    """200 random instances, 6 measures: exact engine vs brute force."""
    rng = np.random.default_rng(0xC1_0001)
    mismatches = []
    totals_ok = True
    t0 = time.time()
    count = 0
    for trial in range(200):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        uset = random_indecisive(rng, n, k)
        for m in MEASURES_C1:
            ex = uq.exact_distribution(uset, m)
            bf = uq.brute_force_distribution(uset, m)
            count += 1
            if not uq.distributions_match(ex, bf, group_tolerance(uset, m)):
                mismatches.append((trial, m.kind))
            if ex.collapsed is not None:
                total = sum(ex.collapsed.weights, Fraction(0))
                totals_ok = totals_ok and total == 1
    return {
        "mismatches": mismatches,
        "totals_ok": totals_ok,
        "runtime": time.time() - t0,
        "count": count,
    }


def test_criterion_01_oracle_equivalence(oracle_sweep):
    ok = not oracle_sweep["mismatches"] and oracle_sweep["runtime"] < 120.0
    _report(
        1,
        ok,
        f"exact == brute force on {oracle_sweep['count']} instance/measure pairs "
        f"({oracle_sweep['runtime']:.1f}s < 120s, mismatches: {oracle_sweep['mismatches']})",
    )


def test_criterion_02_probability_conservation(oracle_sweep):
    # The engine additionally enforces this as an integer identity and would
    # have raised ConservationError during the sweep.
    _report(
        2,
        oracle_sweep["totals_ok"],
        "sum of basis probabilities == 1 exactly on all criterion-1 instances",
    )


def test_criterion_03_figure_basis_counting():
    far = [(3.0, 0.0), (0.0, 3.0), (-3.0, 1.0)]
    u = (Fraction(1, 4),) * 4
    uset = uq.IndecisivePointSet(
        (
            uq.IndecisivePoint([(-1.0, 0.0)] + far, u),
            uq.IndecisivePoint([(1.0, 0.0)] + far, u),
            uq.IndecisivePoint([(0.1, 0.2)] + far, u),
            uq.IndecisivePoint([(0.2, 0.1), (-0.3, 0.4), (0.5, -0.1), (-0.2, -0.5)], u),
            uq.IndecisivePoint([(0.6, 0.3), (-0.4, -0.2)] + far[:2], u),
        ),
        2,
    )
    dist = uq.exact_distribution(uset, MeasureId("seb2"))
    rec = next(
        r
        for r in dist.records
        if sorted((mm.point, mm.candidate) for mm in r.basis.members) == [(0, 0), (1, 0)]
    )
    supports = rec.probability * 4**5
    # interior candidate counts per free point: 1, 4, 2
    _report(3, supports == 8, f"basis circle with (1, 4, 2) interior split covers {supports} supports == 1*4*2")


def test_criterion_04_randomized_bound():
    budget = SampleBudget(0.1, 0.05, nu=1.0)
    assert budget.m == 200
    rng = np.random.default_rng(0xC4_0004)
    uset = uq.canonical_jitter(random_indecisive(rng, 4, 3))
    measure = MeasureId("seb2")
    exact = uq.exact_distribution(uset, measure).collapsed
    t0 = time.time()
    trials = 500
    good = sum(
        1
        for t in range(trials)
        if uq.max_deviation(uq.build_quantization(uset, measure, budget, seed=40_000 + t), exact)
        <= 0.1
    )
    runtime = time.time() - t0
    frac = good / trials
    ok = frac >= 0.90 and runtime < 60.0
    _report(4, ok, f"fraction of 500 builds with d_inf <= 0.1: {frac:.3f} >= 0.90 ({runtime:.0f}s < 60s)")


def test_criterion_05_deviation_experiment():
    config = uq.ExperimentConfig(
        generator=uq.CylinderConfig(n=20, length=10.0, radius=1.0, sigma=2.0),
        measures=(
            MeasureId("dwid", cylinder_axis_direction(75.0)),
            MeasureId("diameter"),
            MeasureId("seb2"),
        ),
        m_values=(16, 64, 256, 1024),
        eta=20_000,
        tau=200,
        seed=0xC5_0005,
    )
    t0 = time.time()
    result = uq.run_deviation_experiment(config)
    runtime = time.time() - t0
    cs = {name: fit.c for name, fit in result.fits.items()}
    ok = runtime < 600.0 and all(0.3 <= c <= 0.8 for c in cs.values())
    detail = ", ".join(f"{n.split(':')[0]}: C={c:.3f}" for n, c in cs.items())
    _report(5, ok, f"fitted constants in [0.3, 0.8] ({detail}; {runtime:.0f}s < 600s)")


def test_criterion_06_simplification_contract():
    rng = np.random.default_rng(0xC6_0006)
    ok = True
    worst = 0.0
    for trial in range(100):
        size = int(10 ** rng.uniform(3, 5))
        values = rng.standard_normal(size) * rng.uniform(0.5, 3.0)
        q = uq.Quantization1D.from_samples(values)
        for eps in (0.01, 0.1, 0.5):
            s = uq.simplify(q, eps)
            dev = uq.max_deviation(q, s)
            worst = max(worst, dev / (eps / 2))
            if len(s) > math.ceil(2 / eps) or dev > eps / 2:
                ok = False
    _report(6, ok, f"100 quantizations x eps in {{.01,.1,.5}}: size <= ceil(2/eps), dev <= eps/2 (worst dev ratio {worst:.2f})")


def test_criterion_07_alpha_kernel_guarantee():
    rng = np.random.default_rng(0xC7_0007)
    net = verification_net(2)
    ok = True
    sizes = []
    for trial in range(100):
        n = int(rng.integers(4, 201))
        base = rng.standard_normal((n, 2))
        stretch = np.diag(rng.uniform(0.1, 3.0, 2))
        theta = rng.uniform(0, math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        pts = base @ stretch @ rot + rng.uniform(-5, 5, 2)
        for alpha in (0.05, 0.1, 0.25):
            k = uq.alpha_kernel(pts, alpha)
            sizes.append(len(k) / n)
            wf = directional_width(pts, net)
            wk = directional_width(k, net)
            if not np.all(wf - wk <= alpha * wf + 1e-12):
                ok = False
    _report(7, ok, f"300 kernels satisfy the width bound on the 720-direction net (mean size ratio {np.mean(sizes):.2f})")


def test_criterion_08_sip_cross_validation():
    rng = np.random.default_rng(0xC8_0008)
    uset = uq.canonical_jitter(random_indecisive(rng, 4, 3))
    measure = MeasureId("seb2")
    det = uq.deterministic_sip(uset, measure)
    locs = uset.all_locations()
    lo = locs.min(axis=0) - 0.3
    hi = locs.max(axis=0) + 0.3
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 10), np.linspace(lo[1], hi[1], 10))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    truth = det.query_many(grid)
    budget = SampleBudget(0.1, 0.05, nu=3.0)
    good = 0
    worst = []
    for rep in range(20):
        mc = uq.build_random_sip(uset, measure, budget, seed=80_000 + rep)
        err = float(np.abs(mc.query_many(grid) - truth).max())
        worst.append(err)
        if err <= 0.1:
            good += 1
    ok = good >= 18
    _report(8, ok, f"{good}/20 repetitions within 0.1 on the 10x10 grid (m={budget.m}, max err {max(worst):.3f})")


def test_criterion_09_gaussian_eps_sample():
    g = uq.GaussianPoint((0.0, 0.0), np.eye(2))
    eps = 0.05
    sample = uq.lattice_eps_sample(g, eps)
    projs = [sample.points @ np.array(d) for d in SLAB_DIRECTIONS_AABB]
    rng = np.random.default_rng(0xC9_0009)
    worst = 0.0
    for _ in range(1000):
        slabs = []
        for d in SLAB_DIRECTIONS_AABB:
            c = rng.normal(0, 1.2)
            h = abs(rng.normal(0, 1.0)) + 0.15
            slabs.append((d[0], d[1], c - h, c + h))
        mask = np.ones(len(sample.points), dtype=bool)
        for proj, (ux, uy, lo, hi) in zip(projs, slabs):
            mask &= (proj >= lo) & (proj <= hi)
        est = float(sample.weights[mask].sum())
        worst = max(worst, abs(est - gaussian_slab_mass(slabs)))
    ok = worst <= eps
    _report(9, ok, f"max discrepancy over 1000 slab ranges: {worst:.4f} <= {eps} ({len(sample.points)} lattice points)")


def test_criterion_10_theorem5_pipeline():
    # n=3 Gaussians, bounding-box perimeter, eps = 0.2, tolerance 0.25.
    cset3 = uq.ContinuousUncertainSet(
        (
            uq.GaussianPoint((0.0, 0.0), [[0.5, 0.1], [0.1, 0.3]]),
            uq.GaussianPoint((2.0, 1.0), [[0.4, -0.05], [-0.05, 0.6]]),
            uq.GaussianPoint((0.5, 2.5), 0.35 * np.eye(2)),
        ),
        2,
    )
    m_aabb = MeasureId("aabb_perimeter")
    indec = uq.discretize_for_measure(cset3, m_aabb, 0.2)
    dist = uq.exact_distribution(indec, m_aabb)
    ref = uq.build_quantization(cset3, m_aabb, SampleBudget(0.01, 0.01, explicit_m=100_000), seed=101)
    d_aabb = uq.max_deviation(dist.collapsed, ref)

    # n=2 Gaussians, smallest enclosing disk, eps = 0.3, tolerance 0.35.
    cset2 = uq.ContinuousUncertainSet(
        (
            uq.GaussianPoint((0.0, 0.0), [[0.4, 0.05], [0.05, 0.25]]),
            uq.GaussianPoint((1.5, 0.8), [[0.3, -0.04], [-0.04, 0.5]]),
        ),
        2,
    )
    m_seb = MeasureId("seb2")
    indec2 = uq.discretize_for_measure(cset2, m_seb, 0.3)
    dist2 = uq.exact_distribution(indec2, m_seb)
    ref2 = uq.build_quantization(cset2, m_seb, SampleBudget(0.01, 0.01, explicit_m=100_000), seed=102)
    d_seb = uq.max_deviation(dist2.collapsed, ref2)

    ok = d_aabb <= 0.25 and d_seb <= 0.35
    _report(10, ok, f"pipeline sup distances: aabb-perimeter {d_aabb:.4f} <= 0.25, seb2 {d_seb:.4f} <= 0.35")


def test_criterion_11_diameter_structure():
    rng = np.random.default_rng(0xCB_0011)
    measure = MeasureId("diameter")
    ok = True
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 9))
        uset = random_indecisive(rng, n, k)
        if uset.support_count() > 10_000:
            continue
        checked += 1
        dist = uq.brute_force_distribution(uset, measure)
        nk = sum(p.k for p in uset.points)
        if len(dist.records) > nk * (nk - 1) // 2:
            ok = False
    refused = False
    try:
        uq.exact_distribution(random_indecisive(rng, 2, 2), measure)
    except uq.NotLPTypeError as exc:
        refused = "#P-hard" in str(exc)
    ok = ok and refused and checked >= 20
    _report(
        11,
        ok,
        f"{checked} brute-force diameter distributions within C(nk,2) breakpoints; "
        "deterministic engine refuses diameter citing #P-hardness",
    )
