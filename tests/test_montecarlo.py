import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from uqgeom import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePoint,
    IndecisivePointSet,
    MeasureId,
    PointMassPoint,
    UniformDiskPoint,
    SampleBudget,
    ValidationError,
    alpha_kernel,
    build_eda_kernel,
    build_kvariate_quantization,
    build_quantization,
    build_random_sip,
    canonical_jitter,
    eval_cdf,
    eval_dominance,
    exact_distribution,
    max_deviation,
    query_eda_kernel,
)
import uqgeom.montecarlo as mc
from uqgeom.geometry import _WELZL_REL, coordinate_scale
from uqgeom.harness import CylinderConfig, cylinder_uncertain_set
from uqgeom.measures import evaluate
from uqgeom.model import draw_supports, sample_support
from uqgeom.montecarlo import directional_width, sampled_values, trial_rng, verification_net
from uqgeom.sip import RectShape

from conftest import kvariate_oracle, random_indecisive


def verify_alpha_kernel(pts: np.ndarray, kernel: np.ndarray, alpha: float) -> bool:
    """Reference: every width of the verification net keeps at least a
    1 - alpha share on the kernel."""
    net = verification_net(pts.shape[1])
    wf = directional_width(np.asarray(pts, dtype=np.float64), net)
    wk = directional_width(np.asarray(kernel, dtype=np.float64), net)
    return bool(np.all(wf - wk <= alpha * wf + 1e-12))


def test_budget_formula_matches_paper_fit():
    assert SampleBudget(0.1, 0.05, nu=1.0).m == 200
    assert SampleBudget(0.1, 0.05, nu=2.0).m == 250
    assert SampleBudget(0.1, 0.05, explicit_m=77).m == 77
    with pytest.raises(ValueError):
        SampleBudget(0.0, 0.05)
    with pytest.raises(ValueError):
        SampleBudget(0.1, 1.5)


def test_point_mass_single_step():
    cset = ContinuousUncertainSet(
        (PointMassPoint((0.0, 0.0)), PointMassPoint((2.0, 0.0))), 2
    )
    q = build_quantization(cset, MeasureId("seb2"), SampleBudget(0.2, 0.2, explicit_m=50), seed=0)
    assert np.all(q.values == 1.0)


def test_quantization_vs_exact_oracle(rng):
    uset = canonical_jitter(random_indecisive(rng, 3, 2))
    m = MeasureId("seb2")
    exact = exact_distribution(uset, m)
    q = build_quantization(uset, m, SampleBudget(0.05, 0.05, explicit_m=20_000), seed=5)
    assert max_deviation(q, exact.collapsed) <= 0.02


def test_reproducibility_bitwise(rng):
    uset = random_indecisive(rng, 3, 3)
    m = MeasureId("aabb_perimeter")
    budget = SampleBudget(0.2, 0.1, explicit_m=300)
    a = build_quantization(uset, m, budget, seed=42)
    b = build_quantization(uset, m, budget, seed=42)
    assert np.array_equal(a.values, b.values)
    c = build_quantization(uset, m, budget, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_simplified_output_size():
    uset = random_indecisive(np.random.default_rng(0), 3, 2)
    budget = SampleBudget(0.1, 0.1, explicit_m=5000)
    q = build_quantization(uset, MeasureId("diameter"), budget, seed=1, simplify_output=True)
    assert len(q) <= math.ceil(2 / 0.1)


def test_kvariate_point_mass_single_point():
    cset = ContinuousUncertainSet(
        (PointMassPoint((0.0, 0.0)), PointMassPoint((2.0, 1.0))), 2
    )
    measures = [MeasureId("dwid", (1, 0)), MeasureId("dwid", (0, 1))]
    q = build_kvariate_quantization(cset, measures, SampleBudget(0.2, 0.2, explicit_m=20), seed=0)
    assert np.all(q.values == q.values[0])
    assert np.allclose(q.values[0], [2.0, 1.0])


def test_kvariate_dominance_vs_oracle(rng):
    uset = random_indecisive(rng, 3, 2)
    measures = [MeasureId("dwid", (1, 0)), MeasureId("dwid", (0, 1))]
    q = build_kvariate_quantization(
        uset, measures, SampleBudget(0.1, 0.05, explicit_m=30_000), seed=9
    )
    lo = uset.all_locations().min() - 0.1
    hi = uset.all_locations().max() + 0.1
    for vx in np.linspace(0, hi - lo, 10):
        for vy in np.linspace(0, hi - lo, 10):
            truth = kvariate_oracle(uset, measures, (vx, vy))
            assert abs(eval_dominance(q, (vx, vy)) - truth) <= 0.02


def test_kvariate_budget_uses_arity():
    uset = random_indecisive(np.random.default_rng(2), 2, 2)
    measures = [MeasureId("dwid", (1, 0)), MeasureId("dwid", (0, 1))]
    q = build_kvariate_quantization(uset, measures, SampleBudget(0.1, 0.05), seed=0)
    assert len(q) == 250  # ceil(0.5 * 100 * (2 + ln 20))


# ---------------------------------------------------------------------------
# alpha-kernels


def test_alpha_kernel_single_point():
    out = alpha_kernel(np.array([[1.0, 2.0]]), 0.1)
    assert np.array_equal(out, [[1.0, 2.0]])


def test_alpha_kernel_circle_shrinks():
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    k = alpha_kernel(pts, 0.2)
    assert len(k) < 64
    assert verify_alpha_kernel(pts, k, 0.2)


def test_alpha_kernel_collinear():
    pts = np.column_stack([np.linspace(0, 5, 30), np.zeros(30)])
    k = alpha_kernel(pts, 0.1)
    rows = {tuple(r) for r in k}
    assert (0.0, 0.0) in rows and (5.0, 0.0) in rows
    # width along the line is exact
    assert directional_width(k, np.array([[1.0, 0.0]]))[0] == 5.0


def test_alpha_kernel_guarantee_random(rng):
    for _ in range(15):
        n = int(rng.integers(3, 200))
        pts = rng.standard_normal((n, 2)) @ rng.uniform(0.2, 2.0, (2, 2))
        for alpha in (0.05, 0.1, 0.25):
            k = alpha_kernel(pts, alpha)
            net = verification_net(2)
            wf = directional_width(pts, net)
            wk = directional_width(k, net)
            assert np.all(wf - wk <= alpha * wf + 1e-12)
            for row in k:
                assert (np.abs(pts - row).sum(axis=1) < 1e-12).any()


def test_alpha_kernel_3d():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((80, 3))
    k = alpha_kernel(pts, 0.2)
    assert verify_alpha_kernel(pts, k, 0.2)


# ---------------------------------------------------------------------------
# (eps, delta, alpha)-kernels


def _gaussian_set(rng, n=12, sigma2=0.15):
    return ContinuousUncertainSet(
        tuple(GaussianPoint(rng.uniform(-2, 2, 2), sigma2 * np.eye(2)) for _ in range(n)), 2
    )


def test_eda_kernel_point_mass_identical():
    cset = ContinuousUncertainSet(
        (PointMassPoint((0.0, 0.0)), PointMassPoint((1.0, 1.0))), 2
    )
    ek = build_eda_kernel(cset, 0.2, SampleBudget(0.2, 0.2, explicit_m=10), seed=0)
    widths = query_eda_kernel(ek, (1.0, 0.0)).widths
    assert np.all(widths == widths[0])


def test_eda_kernel_rejects_direction_of_other_dimension(rng):
    ek = build_eda_kernel(_gaussian_set(rng), 0.2, SampleBudget(0.2, 0.2, explicit_m=5), seed=0)
    with pytest.raises(ValidationError, match="dimension 3.*dimension 2"):
        query_eda_kernel(ek, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="nonzero"):
        query_eda_kernel(ek, (0.0, 0.0))


def test_eda_kernel_direction_symmetry(rng):
    ek = build_eda_kernel(_gaussian_set(rng), 0.1, SampleBudget(0.1, 0.1, explicit_m=60), seed=2)
    a = query_eda_kernel(ek, (0.3, 0.7))
    b = query_eda_kernel(ek, (-0.3, -0.7))
    assert np.array_equal(a.widths, b.widths)


def test_eda_kernel_storage_saves(rng):
    cset = _gaussian_set(rng, n=200, sigma2=0.05)
    budget = SampleBudget(0.2, 0.2, explicit_m=40)
    ek = build_eda_kernel(cset, 0.1, budget, seed=3)
    assert ek.size < 40 * 200


def test_eda_kernel_median_window(rng):
    """eval_cdf at the true median width lands in the Lemma-style interval
    [F(w(1-2a)) - eps_slack, F(w) + eps_slack]."""
    cset = _gaussian_set(rng, n=10)
    alpha = 0.1
    m = 400
    ek = build_eda_kernel(cset, alpha, SampleBudget(0.1, 0.05, explicit_m=m), seed=4)
    u = np.array([math.cos(0.4), math.sin(0.4)])
    # reference widths from raw supports (independent, large sample)
    from uqgeom.model import draw_supports, sample_support
    from uqgeom.montecarlo import trial_rng

    ref = np.sort(
        [
            float(np.ptp(sample_support(cset, trial_rng(1234, t)).locations @ u))
            for t in range(100_000)
        ]
    )
    med = ref[len(ref) // 2]
    got = query_eda_kernel(ek, u).eval_cdf(med)
    f_lo = np.searchsorted(ref, med * (1 - 2 * alpha), side="right") / len(ref)
    slack = 0.1 + 3.0 * math.sqrt(0.25 / m)
    assert f_lo - slack <= got <= 0.5 + slack


def test_eda_kernel_consistent_with_direct_quantization(rng):
    cset = _gaussian_set(rng, n=8)
    alpha = 0.1
    budget = SampleBudget(0.1, 0.1, explicit_m=500)
    u = (1.0, 0.0)
    ek = build_eda_kernel(cset, alpha, budget, seed=6)
    direct = build_quantization(cset, MeasureId("dwid", u), budget, seed=6)
    kq = query_eda_kernel(ek, u)
    # kernel widths underestimate by at most alpha relative error, plus
    # epsilon probability slack on either side
    for w in np.quantile(direct.values, [0.25, 0.5, 0.75]):
        lo = eval_cdf(direct, w)
        hi = eval_cdf(direct, w / (1 - alpha))
        got = kq.eval_cdf(w)
        assert lo - 0.12 <= got <= hi + 0.12


# ---------------------------------------------------------------------------
# randomized SIP


def test_random_sip_point_mass_indicator():
    cset = ContinuousUncertainSet(
        (PointMassPoint((-1.0, 0.0)), PointMassPoint((1.0, 0.0))), 2
    )
    field = build_random_sip(cset, MeasureId("seb2"), SampleBudget(0.2, 0.2, explicit_m=25), seed=0)
    assert field.query((0.0, 0.0)) == 1.0  # center of the only disk
    assert field.query((0.0, 1.01)) == 0.0
    assert field.query((5.0, 5.0)) == 0.0


def test_random_sip_rect_backing(rng):
    uset = random_indecisive(rng, 3, 2)
    field = build_random_sip(
        uset, MeasureId("aabb_perimeter"), SampleBudget(0.2, 0.2, explicit_m=64), seed=1
    )
    assert len(field.shapes) == 64
    with pytest.raises(ValueError):
        build_random_sip(uset, MeasureId("dwid", (1, 0)), SampleBudget(0.2, 0.2), seed=0)


@pytest.mark.parametrize("measure", ["seb2", "aabb_perimeter", "aabb_area"])
def test_random_sip_rejects_3d_input(measure):
    cset = ContinuousUncertainSet(
        tuple(PointMassPoint((float(i), 0.0, float(i * i))) for i in range(5)), 3
    )
    with pytest.raises(ValidationError, match="d=2"):
        build_random_sip(cset, MeasureId(measure), SampleBudget(0.2, 0.2, explicit_m=4), seed=0)


def test_dkw_style_bound_small(rng):
    """Scaled-down version of the DKW check: fraction of trials whose
    deviation from the exact CDF stays within eps is at least 1 - delta
    minus binomial slack."""
    eps, delta = 0.15, 0.1
    m = math.ceil(math.log(2 / delta) / (2 * eps * eps))
    trials = 120
    uset = canonical_jitter(random_indecisive(rng, 3, 2))
    measure = MeasureId("seb2")
    exact = exact_distribution(uset, measure).collapsed
    good = 0
    for t in range(trials):
        q = build_quantization(uset, measure, SampleBudget(eps, delta, explicit_m=m), seed=9000 + t)
        if max_deviation(q, exact) <= eps:
            good += 1
    slack = 3.0 * math.sqrt(delta * (1 - delta) / trials)
    assert good / trials >= 1 - delta - slack


# ---------------------------------------------------------------------------
# bulk per-trial streams and chunked evaluation

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3)
TAGS = ((), (0,), (7, 3), (2**32 + 1,))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", TAGS)
def test_stream_states_equal_seed_sequence(monkeypatch, seed, tag):
    monkeypatch.setattr(mc, "_STREAM_CHUNK", 7)
    # Chunk boundaries, counters above 2**16, and the step from one to two
    # 32-bit counter words.
    for start, stop in ((0, 23), (2**16 - 5, 2**16 + 9), (2**32 - 4, 2**32 + 3)):
        chunks = list(mc._stream_states(seed, tag, start, stop))
        assert all(len(c) <= 7 for c in chunks)
        got = np.concatenate(chunks)
        want = np.array([
            np.random.SeedSequence(entropy=seed, spawn_key=(*tag, t)).generate_state(4, np.uint64)
            for t in range(start, stop)
        ])
        assert got.dtype == np.uint64 and np.array_equal(got, want), (start, stop)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", TAGS)
def test_sampled_support_streams_equal_trial_rng(monkeypatch, seed, tag):
    """Each trial's generator starts in trial_rng's state and draws what it
    draws, across stream chunks of 7 trials and support chunks of 3."""
    monkeypatch.setattr(mc, "_STREAM_CHUNK", 7)
    monkeypatch.setattr(mc, "_CHUNK_CELLS", 6)
    seen = []

    def recording_draw_supports(uset, rngs):
        assert 1 <= len(rngs) <= 3
        for rng in rngs:
            t = len(seen)
            ref = trial_rng(seed, *tag, t)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random(3).tobytes() == ref.random(3).tobytes()
            assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
            seen.append(t)
        return np.zeros((len(rngs), 1, 2)), None

    monkeypatch.setattr(mc, "draw_supports", recording_draw_supports)
    stacks = list(mc._support_stacks(SimpleNamespace(n=1, dimension=2), seed, 16, tag))
    assert [len(s) for s in stacks] == [3, 3, 1, 3, 3, 1, 2]
    assert seen == list(range(16))


def test_negative_seed_raises_as_trial_rng(rng):
    uset = random_indecisive(rng, 3, 2)
    with pytest.raises(ValueError) as want:
        trial_rng(-1, 0)
    for call in (
        lambda: sampled_values(uset, [MeasureId("seb2")], -1, 5),
        lambda: build_random_sip(uset, MeasureId("seb2"), SampleBudget(0.2, 0.2, explicit_m=5), -1),
        lambda: sampled_values(uset, [MeasureId("seb2")], 3, 5, (-2,)),
    ):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


def _ref_support(uset, rng):
    """One support drawn as the per-support sampler did before chunked
    sampling: the reference.  Returns the locations and, for an indecisive
    set, the chosen candidate indices."""
    if isinstance(uset, IndecisivePointSet):
        cum = np.full((uset.n, uset.k_max), np.inf)
        locations = np.zeros((uset.n, uset.k_max, uset.dimension))
        for i, p in enumerate(uset.points):
            cum[i, : p.k] = np.cumsum([float(w) for w in p.weights])
            cum[i, p.k - 1] = 1.0
            locations[i, : p.k] = p.locations
        last = np.array([p.k - 1 for p in uset.points])
        j = np.minimum((cum <= rng.random(uset.n)[:, None]).sum(axis=1), last)
        return locations[np.arange(uset.n), j], j
    locs = np.empty((uset.n, uset.dimension))
    start = 0
    for gaussian, group in itertools.groupby(uset.points, key=lambda p: isinstance(p, GaussianPoint)):
        group = list(group)
        if gaussian:
            means = np.array([p.mean for p in group])
            chols = np.array([p._chol for p in group])
            z = rng.standard_normal((len(group), uset.dimension))
            locs[start : start + len(group)] = means + np.matmul(chols, z[..., None])[..., 0]
        else:
            for i, p in enumerate(group, start):
                if isinstance(p, UniformDiskPoint):
                    u = rng.random()
                    theta = 2.0 * math.pi * rng.random()
                    r = p.radius * math.sqrt(u)
                    locs[i] = p.center + r * np.array([math.cos(theta), math.sin(theta)])
                else:
                    locs[i] = p.at.copy()
        start += len(group)
    if not np.isfinite(locs).all():
        raise ValueError("coordinates must be finite")
    return locs, None


def _per_trial_supports(uset, seed, count, tag=()):
    return [_ref_support(uset, trial_rng(seed, *tag, t))[0] for t in range(count)]


def _per_trial_values(uset, measures, seed, count, tag=()):
    """The randomized engine as one trial at a time: the reference."""
    out = np.empty((count, len(measures)))
    for t, locations in enumerate(_per_trial_supports(uset, seed, count, tag)):
        for c, measure in enumerate(measures):
            out[t, c] = evaluate(measure, locations)
    return out


def _sampled_sets():
    planar = [MeasureId(k) for k in ("seb2", "seb1", "sebinf", "aabb_perimeter", "aabb_area",
                                     "diameter")] + [MeasureId("dwid", (0.6, 0.8))]
    spatial = [MeasureId("seb2"), MeasureId("diameter"), MeasureId("dwid", (0.9, 0.0, 0.3))]
    return (
        (random_indecisive(np.random.default_rng(31), 9, 3, span=5.0), planar),
        (_gaussian_set(np.random.default_rng(32), n=7), planar),
        (cylinder_uncertain_set(CylinderConfig(n=8, sigma=0.5), 33), spatial),
    )


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_sampled_values_equal_per_trial_loop(monkeypatch, rows):
    if rows is not None:
        monkeypatch.setattr(mc, "_chunk_rows", lambda uset, measures: rows)
        monkeypatch.setattr(mc, "_STREAM_CHUNK", 5)
    for uset, measures in _sampled_sets():
        for seed, tag, count in ((7, (), 30), (2**64 + 5, (4, 2), 23), (0, (2**32 + 1,), 1)):
            got = sampled_values(uset, measures, seed, count, tag)
            want = _per_trial_values(uset, measures, seed, count, tag)
            assert got.tobytes() == want.tobytes(), (uset.dimension, seed, tag)
            for c, measure in enumerate(measures):
                one = sampled_values(uset, [measure], seed, count, tag)[:, 0]
                assert one.tobytes() == want[:, c].tobytes(), measure.kind
    assert sampled_values(uset, measures, 1, 0).shape == (0, len(measures))


def test_each_measure_is_chunked_by_its_own_temporary(monkeypatch):
    # Diameter's n x n x d temporary must not shrink seb2's chunks.
    uset = random_indecisive(np.random.default_rng(50), 50, 3)
    n, d = uset.n, uset.dimension
    measures = [MeasureId("seb2"), MeasureId("diameter")]
    count = 200
    want = np.column_stack([sampled_values(uset, [m], 4, count)[:, 0] for m in measures])
    calls = []

    def recording(measure, pts):
        calls.append((measure.kind, len(pts)))
        return evaluate(measure, pts)

    monkeypatch.setattr(mc, "evaluate", recording)
    got = sampled_values(uset, measures, 4, count)
    assert got.tobytes() == want.tobytes()
    rows = {"seb2": mc._CHUNK_CELLS // (n * d), "diameter": mc._CHUNK_CELLS // (n * n * d)}
    for kind, want_rows in rows.items():
        sizes = [r for k, r in calls if k == kind]
        assert max(sizes) == want_rows and sum(sizes) == count, kind


def test_direction_nets_built_once_and_read_only():
    assert verification_net(2) is verification_net(2)
    assert not verification_net(3).flags.writeable
    pts = np.random.default_rng(6).normal(size=(40, 2))
    mc._direction_net.cache_clear()
    cold = mc.alpha_kernel(pts, 0.05)
    assert mc._direction_net.cache_info().misses >= 2  # the check net and the kernel nets
    warm = mc.alpha_kernel(pts, 0.05)
    assert mc._direction_net.cache_info().hits >= 2
    assert cold.tobytes() == warm.tobytes()


@pytest.mark.parametrize("measure", ["seb2", "aabb_perimeter", "aabb_area"])
def test_random_sip_equals_per_trial_loop(monkeypatch, measure):
    monkeypatch.setattr(mc, "_STREAM_CHUNK", 6)
    # Rectangles come from stacked supports: 3 per chunk here (n = 6, d = 2).
    monkeypatch.setattr(mc, "_CHUNK_CELLS", 36)
    uset = random_indecisive(np.random.default_rng(34), 6, 3)
    field = build_random_sip(uset, MeasureId(measure), SampleBudget(0.2, 0.2, explicit_m=20), seed=8)
    supports = _per_trial_supports(uset, 8, 20)
    assert [w for _, w in field.shapes] == [1.0 / 20] * 20
    if measure == "seb2":
        # Each trial's disk has the radius bits of its seb2 value and holds
        # the support within the solver's containment slack.
        for (disk, _), pts in zip(field.shapes, supports):
            assert disk.r.hex() == evaluate(MeasureId("seb2"), pts).hex()
            reach = disk.r + _WELZL_REL * coordinate_scale(pts)
            assert (((pts - (disk.cx, disk.cy)) ** 2).sum(axis=1) <= reach * reach).all()
        return
    want = []
    for pts in supports:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        want.append(RectShape(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])))
    assert [shape for shape, _ in field.shapes] == want


def _sampler_sets():
    """Sets for the chunked sampler: Gaussian runs of length 1 and 20 in
    d = 2 and 3, uniform disks, point masses, mixed point orders, and
    indecisive sets with unequal k."""
    rng = np.random.default_rng(60)

    def gaussian(d):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return GaussianPoint(10.0 * rng.normal(size=d), q @ np.diag(10.0 ** rng.uniform(-3, 1, size=d)) @ q.T)

    def disk():
        return UniformDiskPoint(rng.normal(size=2), float(rng.uniform(0.1, 3.0)))

    def mass(d=2):
        return PointMassPoint(rng.normal(size=d))

    def indecisive(n, d):
        points = []
        for _ in range(n):
            k = int(rng.integers(1, 6))
            raw = [int(x) for x in rng.integers(1, 100, size=k)]
            points.append(IndecisivePoint(rng.normal(size=(k, d)), tuple(Fraction(x, sum(raw)) for x in raw)))
        return IndecisivePointSet(tuple(points), d)

    sets = {}
    for d in (2, 3):
        sets[f"gaussian-1-d{d}"] = ContinuousUncertainSet((gaussian(d),), d)
        sets[f"gaussian-20-d{d}"] = ContinuousUncertainSet(tuple(gaussian(d) for _ in range(20)), d)
        sets[f"indecisive-d{d}"] = indecisive(9, d)
    sets["disks"] = ContinuousUncertainSet(tuple(disk() for _ in range(5)), 2)
    sets["masses"] = ContinuousUncertainSet((mass(3), mass(3)), 3)
    sets["mixed"] = ContinuousUncertainSet(
        (disk(), gaussian(2), gaussian(2), mass(), disk(), disk(), gaussian(2), mass(), gaussian(2)), 2
    )
    sets["mixed-3d"] = ContinuousUncertainSet((mass(3), gaussian(3), mass(3), gaussian(3), gaussian(3)), 3)
    return sets


@pytest.mark.parametrize("name", sorted(_sampler_sets()))
def test_chunked_sampler_equals_per_support_reference(name):
    uset = _sampler_sets()[name]
    rows = mc._chunk_rows(uset, ())
    # One support, a count that is not a multiple of the chunk, and one
    # that crosses a stream-state chunk of 1024 trials.
    for seed, tag, count in ((3, (), 1), (2**40 + 9, (7,), rows + rows // 2 + 1), (11, (1, 2), 1030)):
        want = _per_trial_supports(uset, seed, count, tag)
        stacks = list(mc._support_stacks(uset, seed, count, tag))
        assert all(1 <= len(s) <= rows for s in stacks)
        assert np.concatenate(stacks).tobytes() == np.array(want).tobytes(), (seed, count)
    # draw_supports on its own, with the candidate choices; and its one-row
    # case, sample_support.
    rngs = [trial_rng(5, t) for t in range(40)]
    locations, choices = draw_supports(uset, rngs)
    refs = [_ref_support(uset, trial_rng(5, t)) for t in range(40)]
    assert locations.tobytes() == np.array([r[0] for r in refs]).tobytes()
    if choices is None:
        assert isinstance(uset, ContinuousUncertainSet)
    else:
        assert choices.tobytes() == np.array([r[1] for r in refs]).tobytes()
    for t, (want_locs, want_choice) in enumerate(refs[:5]):
        sup = sample_support(uset, trial_rng(5, t))
        assert sup.locations.tobytes() == want_locs.tobytes()
        assert sup.provenance == (None if want_choice is None else tuple(want_choice.tolist()))


def test_eda_kernel_equals_per_trial_loop():
    for uset in (_gaussian_set(np.random.default_rng(35), n=9), random_indecisive(np.random.default_rng(36), 6, 3)):
        kernel = build_eda_kernel(uset, 0.2, SampleBudget(0.2, 0.2, explicit_m=30), seed=4)
        want = [alpha_kernel(pts, 0.1) for pts in _per_trial_supports(uset, 4, 30)]
        assert len(kernel.kernels) == 30
        assert all(a.tobytes() == b.tobytes() for a, b in zip(kernel.kernels, want))
