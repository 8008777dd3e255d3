import json
import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqgeom import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePoint,
    IndecisivePointSet,
    PointMassPoint,
    UniformDiskPoint,
    ValidationError,
    canonical_jitter,
    load_point_set,
    sample_support,
    save_point_set,
)
from uqgeom.geometry import as_points
from uqgeom.model import draw_supports
from uqgeom.montecarlo import trial_rng

from conftest import enumerate_supports, random_indecisive


def support_probability(uset: IndecisivePointSet, choices) -> Fraction:
    """Reference: exact probability of the support that takes candidate
    ``choices[i]`` of point i, the product of those candidates' weights."""
    if len(choices) != uset.n:
        raise ValidationError("support does not match the point set")
    prob = Fraction(1)
    for p, j in zip(uset.points, choices):
        prob *= p.weights[j]
    return prob


def test_point_mass_sampling_is_degenerate():
    cset = ContinuousUncertainSet(tuple(PointMassPoint((1.0, 2.0)) for _ in range(3)), 2)
    locations, choices = sample_support(cset, trial_rng(0, 0))
    assert np.array_equal(locations, np.array([[1.0, 2.0]] * 3))
    assert choices is None


def test_single_candidate_always_chosen():
    p = IndecisivePoint([[3.0, 4.0]], (Fraction(1),))
    uset = IndecisivePointSet((p,), 2)
    for t in range(5):
        assert sample_support(uset, trial_rng(1, t))[1].tolist() == [0]


def test_uniform_support_frequencies(rng):
    # n=2, k=2 uniform: each of the 4 supports should appear with freq 1/4.
    pts = tuple(
        IndecisivePoint([[0.0, 0.0], [1.0, 1.0]], (Fraction(1, 2), Fraction(1, 2)))
        for _ in range(2)
    )
    uset = IndecisivePointSet(pts, 2)
    m = 100_000
    counts = {}
    for t in range(m):
        key = tuple(sample_support(uset, trial_rng(99, t))[1].tolist())
        counts[key] = counts.get(key, 0) + 1
    for key in product(range(2), repeat=2):
        assert abs(counts.get(key, 0) / m - 0.25) <= 0.01


def test_candidate_frequencies_match_weights():
    weights = (Fraction(1, 6), Fraction(2, 6), Fraction(3, 6))
    uset = IndecisivePointSet(
        (IndecisivePoint([[0, 0], [1, 0], [2, 0]], weights),), 2
    )
    m = 100_000
    counts = [0, 0, 0]
    for t in range(m):
        counts[sample_support(uset, trial_rng(5, t))[1][0]] += 1
    for j, w in enumerate(weights):
        w = float(w)
        assert abs(counts[j] / m - w) <= 4.0 * math.sqrt(w * (1 - w) / m)


def test_sampling_reproducible_bitwise():
    uset = random_indecisive(np.random.default_rng(4), 4, 3)
    a = [sample_support(uset, trial_rng(123, t))[0] for t in range(20)]
    b = [sample_support(uset, trial_rng(123, t))[0] for t in range(20)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_support_probability_products():
    # weights (1/2,1/2) x (1/3,2/3), choose (0,1) -> 1/3
    uset = IndecisivePointSet(
        (
            IndecisivePoint([[0, 0], [1, 0]], (Fraction(1, 2), Fraction(1, 2))),
            IndecisivePoint([[0, 1], [1, 1]], (Fraction(1, 3), Fraction(2, 3))),
        ),
        2,
    )
    assert support_probability(uset, (0, 1)) == Fraction(1, 3)
    # uniform n=3, k=3 -> 1/27
    uni = IndecisivePointSet(
        tuple(IndecisivePoint(np.random.rand(3, 2), (Fraction(1, 3),) * 3) for _ in range(3)),
        2,
    )
    assert support_probability(uni, (0, 2, 1)) == Fraction(1, 27)


def test_support_probabilities_sum_to_one(rng):
    for _ in range(5):
        uset = random_indecisive(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        total = sum((prob for _, prob in enumerate_supports(uset)), Fraction(0))
        assert total == 1


def test_load_minimal_document():
    doc = {
        "dimension": 2,
        "model": "indecisive",
        "points": [{"locations": [[1.0, 2.0]], "weights": ["1"]}],
    }
    uset = load_point_set(json.dumps(doc))
    assert isinstance(uset, IndecisivePointSet)
    assert uset.n == 1 and uset.points[0].k == 1


def test_load_rejects_bad_weight_sum():
    doc = {
        "dimension": 2,
        "model": "indecisive",
        "points": [
            {"locations": [[0, 0]], "weights": ["1"]},
            {"locations": [[0, 0], [1, 1]], "weights": ["0.5", "0.49"]},
        ],
    }
    with pytest.raises(ValidationError, match=r"points\[1\]"):
        load_point_set(json.dumps(doc))


def test_load_rejects_non_pd_covariance():
    doc = {
        "dimension": 2,
        "model": "continuous",
        "points": [{"kind": "gaussian", "mean": [0, 0], "cov": [[1, 2], [2, 1]]}],
    }
    with pytest.raises(ValidationError, match="positive-definite"):
        load_point_set(json.dumps(doc))


def test_decimal_weights_expand_exactly():
    doc = {
        "dimension": 2,
        "model": "indecisive",
        "points": [{"locations": [[0, 0], [1, 1]], "weights": [0.1, 0.9]}],
    }
    uset = load_point_set(json.dumps(doc))
    assert uset.points[0].weights == (Fraction(1, 10), Fraction(9, 10))


def test_round_trip_indecisive(rng):
    uset = random_indecisive(rng, 3, 3)
    back = load_point_set(save_point_set(uset))
    assert back.n == uset.n and back.dimension == uset.dimension
    for p, q in zip(uset.points, back.points):
        assert np.array_equal(p.locations, q.locations)
        assert p.weights == q.weights


def test_round_trip_continuous():
    cset = ContinuousUncertainSet(
        (
            GaussianPoint((0.5, -1.0), [[0.3, 0.1], [0.1, 0.4]]),
            UniformDiskPoint((2.0, 0.0), 0.7),
            PointMassPoint((1.0, 1.0)),
        ),
        2,
    )
    back = load_point_set(save_point_set(cset))
    assert isinstance(back, ContinuousUncertainSet)
    assert np.allclose(back.points[0].cov, cset.points[0].cov)
    assert back.points[1].radius == 0.7
    assert np.array_equal(back.points[2].at, np.array([1.0, 1.0]))


def test_weights_must_sum_exactly():
    with pytest.raises(ValidationError):
        IndecisivePoint([[0, 0], [1, 1]], (Fraction(1, 3), Fraction(1, 3)))


def test_jitter_separates_coincident_candidates():
    pts = tuple(
        IndecisivePoint([[0.0, 0.0], [1.0, 1.0]], (Fraction(1, 2), Fraction(1, 2)))
        for _ in range(3)
    )
    uset = IndecisivePointSet(pts, 2)
    jit = canonical_jitter(uset)
    assert jit.jitter_applied
    flat = jit.all_locations()
    assert len({tuple(row) for row in flat}) == len(flat)
    # offsets stay tiny
    assert np.abs(jit.all_locations() - uset.all_locations()).max() < 1e-8
    # idempotent
    assert canonical_jitter(jit) is jit



def _loop_jitter_locations(uset):
    """Reference: the jitter's former loop, one candidate at a time."""
    from uqgeom.geometry import _JITTER_UNIT, coordinate_scale
    from uqgeom.model import _JITTER_DIR

    step = _JITTER_UNIT * coordinate_scale(uset.all_locations())
    if uset.dimension == 2:
        direction = np.array(_JITTER_DIR)
    else:
        direction = np.array([_JITTER_DIR[0], _JITTER_DIR[1], math.sin(1.0)])
        direction /= np.linalg.norm(direction)
    out = []
    counter = 1
    for p in uset.points:
        locs = p.locations.copy()
        for j in range(p.k):
            locs[j] = locs[j] + (counter * step) * direction
            counter += 1
        out.append(locs)
    return out


@pytest.mark.parametrize("kind", ["lattice", "generic", "3d"])
def test_jitter_matches_candidate_loop(kind):
    rng = np.random.default_rng(61)
    d = 3 if kind == "3d" else 2
    for ks in ((1,), (1, 1, 1), (3, 3, 3), (2, 1, 4), (5, 2)):
        points = []
        for k in ks:
            if kind == "lattice":
                locs = rng.integers(-3, 4, size=(k, d)).astype(float)
            else:
                locs = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 4)
            cuts = [int(c) for c in rng.integers(1, 6, size=k)]
            points.append(IndecisivePoint(locs, tuple(Fraction(c, sum(cuts)) for c in cuts)))
        uset = IndecisivePointSet(tuple(points), d)
        jit = canonical_jitter(uset)
        assert jit.jitter_applied and jit.dimension == d
        loop = _loop_jitter_locations(uset)
        want = np.concatenate(loop)
        assert jit.locations.tobytes() == want.tobytes()
        assert jit.locations.shape == want.shape and not jit.locations.flags.writeable
        for got, want, p in zip(jit.points, loop, uset.points):
            assert got.locations.tobytes() == want.tobytes() and got.weights == p.weights
        assert jit.nums is uset.nums and jit.denoms is uset.denoms
        assert jit._sampling_plan[0].tobytes() == uset._sampling_plan[0].tobytes()
        assert canonical_jitter(jit) is jit


def test_jitter_rejects_overflowing_coordinates():
    u = (Fraction(1, 2), Fraction(1, 2))
    uset = IndecisivePointSet((IndecisivePoint([[1e308, 0.0], [-1e308, 1.0]], u),), 2)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        canonical_jitter(uset)


def _one_point_draws(point, seed, trials):
    """The (trials, d) locations of one point, one trial_rng stream a draw."""
    cset = ContinuousUncertainSet((point,), point.dimension)
    return draw_supports(cset, [trial_rng(seed, t) for t in range(trials)])[0][:, 0]


def test_gaussian_sampling_moments():
    cov = np.array([[0.5, 0.2], [0.2, 0.8]])
    draws = _one_point_draws(GaussianPoint((1.0, -2.0), cov), 7, 40_000)
    assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(draws.T), cov, atol=0.03)


def test_uniform_disk_sampling_inside():
    draws = _one_point_draws(UniformDiskPoint((3.0, 4.0), 0.5), 8, 5_000)
    r = np.linalg.norm(draws - [3.0, 4.0], axis=1)
    assert r.max() <= 0.5
    # area-uniform: mean squared radius = r^2/2
    assert abs((r**2).mean() - 0.125) < 0.01


def _former_place(point, uv):
    """The scalar per-draw loop that placed a disk's draws before the array
    placement: every operation on Python floats, one draw at a time."""
    cx, cy = point.center.tolist()
    out = []
    for u, v in zip(*uv.tolist()):
        theta = 2.0 * math.pi * v
        r = point.radius * math.sqrt(u)
        out.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return np.array(out).reshape(-1, 2)


@pytest.mark.parametrize(
    "center, radius",
    [((0.0, 0.0), 1.0), ((-0.0, -0.0), 0.7), ((0.3, -1.7), 2.5), ((3e15, -7e12), 0.25), ((0.5, -0.5), 1e200),
     ((1.7e308, 0.0), 1.7e308)],
)
def test_disk_placement_matches_the_scalar_loop(center, radius):
    point = UniformDiskPoint(center, radius)
    edges = np.array(list(product((0.0, 5e-324, 1.0 - 2.0**-53), (0.0, 0.25, 0.5, 1.0 - 2.0**-53)))).T
    uv = np.concatenate([edges, np.random.default_rng(55).random((2, 500))], axis=1)
    # draw_supports passes a (2, rows) view of its (rows, n, 2) buffer.
    buffer = np.zeros((uv.shape[1], 3, 2))
    buffer[:, 1] = uv.T
    with np.errstate(over="ignore"):
        want = _former_place(point, uv)
        for given in (uv, buffer[:, 1, :2].T, uv[:, :0]):
            got = point._place(given)
            assert got.shape == (given.shape[1], 2) and got.tobytes() == want[: given.shape[1]].tobytes()


def _ref_sample_support(uset, rng):
    """The per-point sampler that the one-draw sampling plans replaced: one
    stream call per point, in point order."""
    locs, prov = [], []
    if isinstance(uset, IndecisivePointSet):
        for p in uset.points:
            cum = np.cumsum([float(w) for w in p.weights])
            cum[-1] = 1.0
            j = min(int(np.searchsorted(cum, rng.random(), side="right")), p.k - 1)
            prov.append(j)
            locs.append(p.locations[j])
        return np.array(locs), tuple(prov)
    for p in uset.points:
        if isinstance(p, GaussianPoint):
            locs.append(p.mean + p._chol @ rng.standard_normal(p.dimension))
        elif isinstance(p, UniformDiskPoint):
            u, v = rng.random(2).tolist()
            r, theta = p.radius * math.sqrt(u), 2.0 * math.pi * v
            locs.append(p.center + (r * math.cos(theta), r * math.sin(theta)))
        else:
            locs.append(p.at)
    return np.array(locs), None


def _assert_samples_like_reference(uset, seed, trials=40):
    for t in range(trials):
        locations, choices = sample_support(uset, trial_rng(seed, t))
        want_locs, want_choices = _ref_sample_support(uset, trial_rng(seed, t))
        assert locations.tobytes() == want_locs.tobytes()
        if want_choices is None:
            assert choices is None
        else:
            assert choices.tolist() == list(want_choices)


def _anisotropic_cov(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q @ np.diag(10.0 ** rng.uniform(-4, 2, size=d)) @ q.T


@pytest.mark.parametrize("d", [2, 3])
def test_indecisive_sampling_matches_per_point_reference(d):
    rng = np.random.default_rng(30 + d)
    for n in (1, 2, 7, 50):
        points = []
        for _ in range(n):
            k = int(rng.integers(1, 7))  # unequal k, k = 1 included
            raw = [int(x) for x in rng.integers(1, 1000, size=k)]
            weights = tuple(Fraction(x, sum(raw)) for x in raw)
            points.append(IndecisivePoint(rng.normal(size=(k, d)), weights))
        _assert_samples_like_reference(IndecisivePointSet(tuple(points), d), seed=n)


@pytest.mark.parametrize("d", [2, 3])
def test_gaussian_sampling_matches_per_point_reference(d):
    rng = np.random.default_rng(20 + d)
    for n in (1, 3, 20, 60):
        points = tuple(
            GaussianPoint(100.0 * rng.normal(size=d), _anisotropic_cov(rng, d)) for _ in range(n)
        )
        _assert_samples_like_reference(ContinuousUncertainSet(points, d), seed=n)


def test_mixed_continuous_sampling_matches_per_point_reference():
    rng = np.random.default_rng(12)
    for _ in range(6):
        points = []
        for _ in range(30):
            kind = rng.choice(["gaussian", "gaussian", "disk", "mass"])
            if kind == "gaussian":
                points.append(GaussianPoint(rng.normal(size=2), _anisotropic_cov(rng, 2)))
            elif kind == "disk":
                points.append(UniformDiskPoint(rng.normal(size=2), float(rng.uniform(0.1, 2.0))))
            else:
                points.append(PointMassPoint(rng.normal(size=2)))
        _assert_samples_like_reference(ContinuousUncertainSet(tuple(points), 2), seed=3)


def test_indecisive_draw_on_a_cumulative_weight_matches_reference():
    # Each point's first cumulative weight is exactly the uniform it draws,
    # so the tie rule (a draw equal to a cumulative weight takes the next
    # candidate) decides every point, and any one-ulp change to the table
    # or the comparison shows.
    n, seed = 12, 77
    draws = trial_rng(seed, 0).random(n).tolist()
    points = tuple(
        IndecisivePoint([[0.0, float(i)], [1.0, float(i)]], (Fraction(u), 1 - Fraction(u)))
        for i, u in enumerate(draws)
    )
    uset = IndecisivePointSet(points, 2)
    _assert_samples_like_reference(uset, seed, trials=1)
    assert sample_support(uset, trial_rng(seed, 0))[1].tolist() == [1] * n


@pytest.mark.parametrize("d", [2, 3])
def test_sampled_supports_own_their_arrays(d):
    rng = np.random.default_rng(50 + d)
    uset = random_indecisive(rng, 5, 3) if d == 2 else IndecisivePointSet(
        tuple(IndecisivePoint(rng.normal(size=(3, 3)), (Fraction(1, 3),) * 3) for _ in range(5)), 3
    )
    cset = ContinuousUncertainSet(tuple(GaussianPoint(rng.normal(size=d), np.eye(d)) for _ in range(4)), d)
    for s in (uset, cset):
        a, _ = sample_support(s, trial_rng(1, 0))
        b, _ = sample_support(s, trial_rng(1, 1))
        for locations in (a, b):
            assert locations.dtype == np.float64 and locations.shape == (s.n, d)
        assert not np.shares_memory(a, b)


def test_sample_support_is_row_zero_of_draw_supports():
    rng = np.random.default_rng(60)
    mixed = (
        GaussianPoint(rng.normal(size=2), _anisotropic_cov(rng, 2)),
        UniformDiskPoint(rng.normal(size=2), 0.7),
        PointMassPoint(rng.normal(size=2)),
        GaussianPoint(rng.normal(size=2), np.eye(2)),
    )
    gaussians = tuple(GaussianPoint(rng.normal(size=3), _anisotropic_cov(rng, 3)) for _ in range(5))
    sets = (random_indecisive(rng, 6, 3), ContinuousUncertainSet(gaussians, 3), ContinuousUncertainSet(mixed, 2))
    for s in sets:
        for t in range(5):
            locations, choices = sample_support(s, trial_rng(8, t))
            rows, all_choices = draw_supports(s, [trial_rng(8, t)])
            assert locations.shape == rows[0].shape and locations.tobytes() == rows[0].tobytes()
            if all_choices is None:
                assert choices is None and isinstance(s, ContinuousUncertainSet)
            else:
                assert choices.dtype == all_choices.dtype and choices.tobytes() == all_choices[0].tobytes()


def test_non_finite_continuous_draw_raises():
    # Finite parameters whose draws overflow: the draw refuses them.
    far = UniformDiskPoint((1.7e308, 0.0), 1.7e308)
    cset = ContinuousUncertainSet((PointMassPoint((0.0, 0.0)), far), 2)
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        for t in range(64):
            sample_support(cset, trial_rng(5, t))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_continuous_points_refuse_non_finite_parameters(bad):
    with pytest.raises(ValidationError, match="^mean must be finite$"):
        GaussianPoint((bad, 0.0), np.eye(2))
    with pytest.raises(ValidationError, match="^center must be finite$"):
        UniformDiskPoint((0.0, bad), 1.0)
    with pytest.raises(ValidationError, match="^at must be finite$"):
        PointMassPoint((bad, 1.0))
    with pytest.raises(ValueError, match=r"^radius must be a real number in \(0, inf\), got "):
        UniformDiskPoint((0.0, 0.0), bad)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"^radius must be a real number in \(0, inf\), got "):
            UniformDiskPoint((0.0, 0.0), radius)


def test_gaussian_rejects_overflowing_covariance():
    # 0.5 * (cov + cov.T) overflows; the point is refused as it is built,
    # without numpy warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cov in (1.5e308 * np.eye(3), np.diag([1.0, 1e308])):
            with pytest.raises(ValidationError, match="covariance must be finite"):
                GaussianPoint(np.zeros(len(cov)), cov)
        g = GaussianPoint(np.zeros(2), np.diag([1.0, 8e307]))
    assert np.isfinite(g.cov).all() and np.isfinite(g._chol).all()


def _former_gaussian_error(mean, cov):
    """Reference: the message of GaussianPoint's checks with np.allclose
    deciding symmetry, or None when they accepted the point."""
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    if not np.isfinite(mean).all():
        return "mean must be finite"
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (len(mean), len(mean)):
        return f"covariance shape {cov.shape} does not match mean of length {len(mean)}"
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            return "covariance must be symmetric"
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        return "covariance must be finite"
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return "covariance must be positive-definite"
    return None


def _near_symmetric_covariances():
    rng = np.random.default_rng(39)
    out = []
    for d in (2, 3):
        for _ in range(150):
            a = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-20, 20)
            cov = a @ a.T + np.eye(d) * rng.choice([0.0, 1e-3, 1.0])
            i, j = rng.choice(d, size=2, replace=False)
            # Off the diagonal by about the tolerance, either way round.
            cov[i, j] += abs(cov[j, i]) * rng.choice([0.0, 5e-13, 1e-12, 2e-12, 1e-9]) + rng.choice([0.0, 5e-13, 1e-12, 3e-12])
            out.append(cov)
    for a, b in product([0.5, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e-300, 0.0], repeat=2):
        out += [np.array([[2.0, a], [b, 2.0]]), np.array([[a, 0.0], [0.0, b]])]
    out += [np.diag([1.0, 1e308]), 1.5e308 * np.eye(3), np.array([[1.0, 1e308], [-1e308, 1.0]])]
    return out


def test_gaussian_symmetry_decides_as_allclose_with_the_same_messages():
    from uqgeom.geometry import _SYMMETRY_TOL
    from uqgeom.model import _symmetric

    assert _SYMMETRY_TOL == 1e-12
    for cov in _near_symmetric_covariances():
        with np.errstate(over="ignore", invalid="ignore"):
            want = bool(np.allclose(cov, cov.T, rtol=_SYMMETRY_TOL, atol=_SYMMETRY_TOL))
        assert _symmetric(cov.tolist()) is want, cov
        expected = _former_gaussian_error(np.zeros(len(cov)), cov)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                GaussianPoint(np.zeros(len(cov)), cov)
            except ValidationError as exc:
                assert str(exc) == expected, cov
            else:
                assert expected is None, cov


# --------------------------------------------------------------------------
# Integer weight validation against the former Fraction checks


def _former_weight_error(k, weights):
    """Reference: the message of the former Fraction-based validation, or
    None when it accepted the weights."""
    w = tuple(Fraction(x) for x in weights)
    if len(w) != k:
        return f"{k} locations but {len(w)} weights"
    if any(not (0 < x <= 1) for x in w):
        return "weights must lie in (0, 1]"
    if sum(w) != 1:
        return f"weights sum to {sum(w)}, expected exactly 1"
    return None


_WEIGHT_CASES = [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(3, 2), Fraction(-1, 2)),
    (Fraction(5, 4), Fraction(-1, 4)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(2, 3)),
    (Fraction(1, 2),),
    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
    ("1/3", 0.5, Fraction(1, 6)),
    (1, 0),
    (Fraction(1, 3 * 2**62), Fraction(3 * 2**62 - 1, 3 * 2**62)),
]


@pytest.mark.parametrize("weights", _WEIGHT_CASES, ids=range(len(_WEIGHT_CASES)))
def test_integer_weight_validation_keeps_messages(weights):
    locs = np.zeros((2, 2))
    want = _former_weight_error(len(locs), weights)
    if want is None:
        p = IndecisivePoint(locs, weights)
        assert p.weights == tuple(Fraction(x) for x in weights)
        uset = IndecisivePointSet((p,), 2)
        nums, denom = uset.nums.tolist(), int(uset.denoms[0])
        assert Fraction(1) == sum(Fraction(v, denom) for v in nums)
        assert tuple(Fraction(v, denom) for v in nums) == p.weights
        assert denom == math.lcm(*(w.denominator for w in p.weights))
        return
    with pytest.raises(ValidationError) as exc:
        IndecisivePoint(locs, weights)
    assert str(exc.value) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=40), min_size=1, max_size=4))
def test_integer_weight_validation_matches_fraction_checks(weights):
    locs = np.zeros((len(weights), 2))
    want = _former_weight_error(len(locs), weights)
    try:
        p = IndecisivePoint(locs, weights)
    except ValidationError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert p.weights == tuple(weights)
        uset = IndecisivePointSet((p,), 2)
        assert tuple(Fraction(v, int(uset.denoms[0])) for v in uset.nums.tolist()) == p.weights
        cum = np.cumsum([float(w) for w in weights])
        cum[-1] = 1.0
        assert uset._sampling_plan[0][0].tobytes() == cum.tobytes()


def test_fraction_weights_are_kept_and_jitter_shares_the_integer_arrays():
    w = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    p = IndecisivePoint(np.arange(6.0).reshape(3, 2), w)
    assert all(a is b for a, b in zip(p.weights, w))
    uset = IndecisivePointSet((p,), 2)
    assert uset.nums.tolist() == [1, 2, 3] and uset.denoms.tolist() == [6]
    jit = canonical_jitter(uset)
    q = jit.points[0]
    # The jittered set shares the integer weight arrays, not copies of them.
    assert q.weights == p.weights and jit.nums is uset.nums and jit.denoms is uset.denoms
    assert jit._sampling_plan[0].tobytes() == IndecisivePointSet((p,), 2)._sampling_plan[0].tobytes()


def test_jitter_runs_once_per_set(monkeypatch):
    import uqgeom.model as model_mod
    from uqgeom import MeasureId, brute_force_distribution, exact_distribution

    calls = []
    former = model_mod._jitter

    def counting(uset):
        calls.append(uset)
        return former(uset)

    monkeypatch.setattr(model_mod, "_jitter", counting)
    uset = random_indecisive(np.random.default_rng(3), 3, 2)
    for m in ("seb2", "aabb-perimeter", "dwid:0.6,0.8"):
        exact_distribution(uset, MeasureId.parse(m))
        brute_force_distribution(uset, MeasureId.parse(m))
    assert calls == [uset]
    jit = canonical_jitter(uset)
    assert canonical_jitter(uset) is jit and canonical_jitter(jit) is jit
    # Another set with the same content is jittered on its own.
    twin = load_point_set(save_point_set(uset))
    assert canonical_jitter(twin) is not jit and len(calls) == 2
    assert np.array_equal(canonical_jitter(twin).all_locations(), jit.all_locations())


# --------------------------------------------------------------------------
# Weight strings: the p/q fast path against Fraction(str)'s reduced pair


def _fraction_or_error(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


_DIGITS = st.sampled_from("0123456789")
_ODD_CHARS = st.sampled_from(["/", "-", "+", " ", ".", "e", "E", "_", "\t", "²", "١", "٢", "٣", "０",
                             "x"])


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.lists(st.one_of(_DIGITS, _ODD_CHARS), max_size=12).map("".join),
    st.tuples(st.integers(-5, 10**30), st.integers(-5, 10**30)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0/0", "1/0", "0/5", "1/2", "١/٢", "²", "2²/3", " 1/2", "1/2 ", "+1/2", "-1/2",
                     "1.5/2", "1e3/2", "3e-1", "0.25", "1/2/3", "/2", "1/", "", "1_0/3", "01/02",
                     "9" * 5000 + "/1", "1/" + "9" * 5000]),
))
def test_parse_weight_matches_fraction(text):
    from uqgeom.model import _parse_weight

    want = _fraction_or_error(text)
    try:
        got = _parse_weight(text, "points[0]")
    except ValidationError as exc:
        assert want is None, text
        assert str(exc) == f"points[0]: cannot parse weight {text!r}"
    else:
        assert want is not None and got == (want.numerator, want.denominator), text
        assert type(got[0]) is int and type(got[1]) is int, text


# --------------------------------------------------------------------------
# The set's arrays: one representation, read by every library path


def _arrays(uset):
    return (
        uset.dimension,
        uset.jitter_applied,
        uset.locations.shape,
        uset.locations.tobytes(),
        uset.ks.tolist(),
        uset.offsets.tolist(),
        uset.nums.dtype,
        uset.nums.tolist(),
        uset.denoms.dtype,
        uset.denoms.tolist(),
    )


def _array_sets():
    rng = np.random.default_rng(71)
    tiny = Fraction(1, 3 * 2**62)
    huge = IndecisivePoint([[0.5, 0.25], [1.0, -2.0], [3.0, 0.0]], (tiny, Fraction(1, 3), Fraction(2, 3) - tiny))
    unequal = []
    for k in (3, 1, 5, 2):
        cuts = [int(c) for c in rng.integers(1, 9, size=k)]
        unequal.append(IndecisivePoint(rng.standard_normal((k, 2)), tuple(Fraction(c, sum(cuts)) for c in cuts)))
    return [
        random_indecisive(rng, 5, 3),
        IndecisivePointSet(tuple(unequal), 2),
        IndecisivePointSet((huge, *unequal[:2]), 2),
        IndecisivePointSet((IndecisivePoint(rng.standard_normal((4, 3)), (Fraction(1, 4),) * 4),) * 2, 3),
    ]


@pytest.mark.parametrize("jittered", [False, True])
def test_save_and_load_keep_the_arrays(jittered):
    for uset in _array_sets():
        if jittered:
            uset = canonical_jitter(uset)
        back = load_point_set(save_point_set(uset))
        assert back.jitter_applied is jittered
        assert _arrays(back) == _arrays(uset)


def test_arrays_are_read_only_with_the_integer_dtype_rule():
    for uset in _array_sets():
        for a in (uset.locations, uset.ks, uset.offsets, uset.nums, uset.denoms):
            assert not a.flags.writeable
        assert uset.offsets.tolist() == [sum(uset.ks.tolist()[:i]) for i in range(uset.n)]
        big = max(uset.denoms.tolist()) >= 2**62
        assert uset.nums.dtype == (object if big else np.int64) and uset.denoms.dtype == uset.nums.dtype


def test_jitter_shares_the_weight_arrays():
    for uset in _array_sets():
        jit = canonical_jitter(uset)
        assert jit.nums is uset.nums and jit.denoms is uset.denoms
        assert jit.ks is uset.ks and jit.offsets is uset.offsets
        assert jit.locations is not uset.locations and jit.jitter_applied


def test_points_view_rebuilds_the_same_arrays():
    for uset in _array_sets():
        for s in (uset, canonical_jitter(uset)):
            again = IndecisivePointSet(s.points, s.dimension, s.jitter_applied)
            assert _arrays(again) == _arrays(s)
            assert [p.k for p in s.points] == s.ks.tolist()


def test_library_paths_never_build_the_points_view(tmp_path, monkeypatch):
    import uqgeom.cli as cli_mod
    from uqgeom import MeasureId, brute_force_distribution, deterministic_sip, exact_distribution

    text = save_point_set(random_indecisive(np.random.default_rng(72), 4, 3))
    uset = load_point_set(text)
    for kind in ("seb2", "aabb_perimeter", "dwid"):
        m = MeasureId(kind, (0.6, 0.8)) if kind == "dwid" else MeasureId(kind)
        dist = exact_distribution(uset, m)
        assert dist.records
        brute_force_distribution(uset, m)
    deterministic_sip(uset, MeasureId("seb2"))
    draw_supports(uset, [trial_rng(0, t) for t in range(3)])
    jit = canonical_jitter(uset)
    save_point_set(uset)
    save_point_set(jit)
    assert "points" not in vars(uset) and "points" not in vars(jit)

    loaded = []

    def load(document):
        loaded.append(load_point_set(document))
        return loaded[-1]

    monkeypatch.setattr(cli_mod, "load_point_set", load)
    path = tmp_path / "set.json"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert cli_mod.main(["exact", "--input", str(path), "--measure", "seb2", "--out", str(out)]) == 0
    assert len(loaded) == 1
    assert "points" not in vars(loaded[0]) and "points" not in vars(canonical_jitter(loaded[0]))


# --------------------------------------------------------------------------
# The loader against a per-point reference


def _former_load(text):
    """Reference: the indecisive loader as it read a set point by point.
    Each point in turn is parsed (``Fraction(str(w))`` per weight),
    converted (``as_points``) and weighed (the Fraction checks of
    ``_former_weight_error``), so the first faulty point is the one named.
    Returns ``_arrays`` of the set, or the message of the ValidationError."""
    doc = json.loads(text, parse_float=str)
    for i, rp in enumerate(doc["points"]):
        if not isinstance(rp, dict):
            return f"points[{i}]: must be an object"
    blocks, nums, denoms = [], [], []
    for i, rp in enumerate(doc["points"]):
        where = f"points[{i}]"
        if "locations" not in rp or "weights" not in rp:
            return f"{where}: needs 'locations' and 'weights'"
        if not isinstance(rp["weights"], list):
            return f"{where}: weights must be a list"
        weights = []
        for w in rp["weights"]:
            try:
                weights.append(Fraction(str(w)))
            except (ValueError, ZeroDivisionError):
                return f"{where}: cannot parse weight {w!r}"
        try:
            block = as_points(rp["locations"])
        except (ValueError, TypeError, OverflowError) as exc:
            return f"{where}: {exc}"
        error = _former_weight_error(len(block), weights)
        if error is not None:
            return f"{where}: {error}"
        denom = math.lcm(*(w.denominator for w in weights))
        blocks.append(block)
        nums += [w.numerator * (denom // w.denominator) for w in weights]
        denoms.append(denom)
    jitter = doc.get("jitter_applied", False)
    if not isinstance(jitter, bool):
        return "jitter_applied must be true or false"
    for i, block in enumerate(blocks):
        if block.shape[1] != doc["dimension"]:
            return f"points[{i}]: has dimension {block.shape[1]}, set has {doc['dimension']}"
    locations = np.concatenate(blocks)
    ks = [len(b) for b in blocks]
    dtype = np.dtype(np.int64) if max(denoms) < 2**62 else np.dtype(object)
    offsets = [sum(ks[:i]) for i in range(len(ks))]
    return (doc["dimension"], jitter, locations.shape, locations.tobytes(), ks, offsets, dtype, nums, dtype, denoms)


def _loaded(text):
    try:
        return _arrays(load_point_set(text))
    except ValidationError as exc:
        return str(exc)


def _valid_documents():
    """Documents of every weight spelling (p/q strings, decimal strings,
    JSON integers and floats), 2-D and 3-D, with and without
    ``jitter_applied``, with int64 and Python-int weights."""
    rng = np.random.default_rng(391)
    tiny = Fraction(1, 3 * 2**62)
    docs = []
    for t in range(48):
        d = (2, 3)[t % 2]
        points = []
        for _ in range(int(rng.integers(1, 6))):
            k = int(rng.integers(1, 5))
            cuts = [int(c) for c in rng.integers(1, 9, size=k)]
            weights = [Fraction(c, sum(cuts)) for c in cuts]
            spelling = t // 2 % 4
            if spelling == 0:
                text = [f"{w.numerator * 3}/{w.denominator * 3}" for w in weights]
            elif spelling == 1:
                text = [str(w) for w in weights]
                if k == 2:
                    text = ["0.25", "0.75"]
            elif spelling == 2:
                text = [1] if k == 1 else ["1/4", 0.75] if k == 2 else [str(w) for w in weights]
            else:
                text = [f"{w.numerator}/{w.denominator}" for w in weights]
                if k == 3:
                    text = [f"{tiny.numerator}/{tiny.denominator}", "1/3", str(Fraction(2, 3) - tiny)]
            locations = rng.integers(-3, 4, size=(k, d)).tolist() if t % 3 else rng.normal(size=(k, d)).tolist()
            points.append({"locations": locations, "weights": text})
        doc = {"dimension": d, "model": "indecisive", "points": points}
        if t % 4 == 3:
            doc["jitter_applied"] = bool(t % 8 == 3)
        docs.append(json.dumps(doc))
    # A single location as a flat list, and coordinates as strings.
    docs.append(json.dumps({"dimension": 2, "model": "indecisive", "points": [
        {"locations": [1.5, -2], "weights": ["1"]}, {"locations": [[0, 0], [1, 1]], "weights": ["1/2", "1/2"]}]}))
    docs.append(json.dumps({"dimension": 2, "model": "indecisive", "points": [
        {"locations": [["1.5", 2], [0, "-3e2"]], "weights": ["1/2", "1/2"]}]}))
    return docs


def test_loader_matches_the_per_point_reference_on_valid_documents(monkeypatch):
    import uqgeom.model as model_mod

    per_point = []
    monkeypatch.setattr(model_mod, "as_points", lambda pts: per_point.append(pts) or as_points(pts))
    dtypes = set()
    for text in _valid_documents():
        want = _former_load(text)
        assert not isinstance(want, str), want
        assert _loaded(text) == want
        dtypes.add(want[6])
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # Only the document with a flat single location is read point by point
    # (its JSON float arrives as a string); every other converts its
    # coordinates in one array.
    assert per_point == [["1.5", -2], [[0, 0], [1, 1]]]


# Faults of one point, each replacing point i's (locations, weights) of two
# candidates: (the key replaced, its JSON value).
_POINT_FAULTS = [
    ("point", 3),
    ("point", None),
    ("locations", None),
    ("weights", None),
    ("weights", "1/2"),
    ("weights", ["1/2", "x"]),
    ("weights", ["1/0", "1"]),
    ("weights", [True, "1/2"]),
    ("weights", ["1/2"]),
    ("weights", ["0", "1"]),
    ("weights", ["3/2", "-1/2"]),
    ("weights", ["1/2", "1/3"]),
    ("locations", [[0, 0], [1]]),
    ("locations", [[0, 0], [1, 1, 1, 1]]),
    ("locations", [[0, 0, 0, 0], [1, 1, 1, 1]]),
    ("locations", [[0, 0], [1, "abc"]]),
    ("locations", [[0, 0], [1, None]]),
    ("locations", [[0, 0], [1, 10**400]]),
    ("locations", [[[0, 0]], [[1, 1]]]),
    ("locations", []),
    ("locations", 5),
    ("locations", "ab"),
    ("locations", {"x": 1}),
    ("locations", [[0, 0, 0], [1, 1, 1]]),
    ("locations", [[0, 0], [1, 1], [2, 2]]),
]
_RAW_FAULTS = ['[[0, 0], [1, NaN]]', '[[0, 0], [1, Infinity]]', '[[0, 0], [1, 1e400]]']


def _point(fault=None):
    point = {"locations": [[0, 0], [1, 1]], "weights": ["1/3", "2/3"]}
    if fault is None:
        return json.dumps(point)
    key, value = fault
    if key == "point":
        return json.dumps(value)
    if value is None:
        del point[key]
        return json.dumps(point)
    if isinstance(value, str) and value.startswith("[["):
        return json.dumps(point).replace('[[0, 0], [1, 1]]', value)
    point[key] = value
    return json.dumps(point)


def _document(points, extra=""):
    return '{"dimension": 2, "model": "indecisive", "points": [' + ", ".join(points) + "]" + extra + "}"


def test_loader_names_the_faulty_point_as_the_per_point_reference():
    faults = _POINT_FAULTS + [("locations", raw) for raw in _RAW_FAULTS]
    seen = set()
    for fault in faults:
        for i in range(3):
            points = [_point(fault if j == i else None) for j in range(3)]
            text = _document(points)
            want = _former_load(text)
            assert isinstance(want, str) and want.startswith(f"points[{i}]: "), (fault, want)
            assert _loaded(text) == want, fault
            seen.add(want.split(": ", 1)[1][:24])
    assert len(seen) >= 15
    # Set-level faults come after every point's own.
    for extra in (', "jitter_applied": 1', ', "jitter_applied": "true"'):
        text = _document([_point()] * 2, extra)
        assert _loaded(text) == _former_load(text) == "jitter_applied must be true or false"
        bad = _document([_point(), _point(("weights", ["x"]))], extra)
        assert _loaded(bad) == _former_load(bad) == "points[1]: cannot parse weight 'x'"


def test_loader_names_the_first_of_two_faulty_points():
    faults = _POINT_FAULTS[2:] + [("locations", raw) for raw in _RAW_FAULTS]
    rng = np.random.default_rng(392)
    for _ in range(300):
        a, b = (faults[int(t)] for t in rng.integers(0, len(faults), size=2))
        i, j = sorted(int(t) for t in rng.choice(4, size=2, replace=False))
        points = [_point(a if m == i else b if m == j else None) for m in range(4)]
        text = _document(points)
        want = _former_load(text)
        assert isinstance(want, str), (a, b)
        # A point of the wrong dimension is named only once every point is read.
        solid = _POINT_FAULTS[-2]
        assert want.startswith(f"points[{j if a == solid and b != solid else i}]: "), (a, b, want)
        assert _loaded(text) == want, (a, b)


@pytest.mark.parametrize("model, point, message", [
    ("indecisive", {"locations": [[0, 0], [True, 1]], "weights": ["1/2", "1/2"]}, "locations"),
    ("indecisive", {"locations": [False, 1], "weights": ["1"]}, "locations"),
    ("continuous", {"kind": "gaussian", "mean": [True, 0], "cov": [[1, 0], [0, 1]]}, "mean"),
    ("continuous", {"kind": "gaussian", "mean": [0, 0], "cov": [[1, False], [0, 1]]}, "cov"),
    ("continuous", {"kind": "uniform_disk", "center": [0, True], "radius": 1}, "center"),
    ("continuous", {"kind": "uniform_disk", "center": [0, 0], "radius": True}, "radius"),
    ("continuous", {"kind": "point_mass", "at": [True, 0]}, "at"),
], ids=["location", "flat location", "mean", "cov", "center", "radius", "at"])
def test_loader_refuses_true_and_false_as_numbers(model, point, message):
    # numpy and float() read a JSON true as 1.0 and false as 0.0: each of
    # these once loaded, a true radius as a disk of radius 1.
    first = {"kind": "point_mass", "at": [0, 0]}
    if model == "indecisive":
        first = {"locations": [[0, 0]], "weights": ["1"]}
    text = json.dumps({"dimension": 2, "model": model, "points": [first, point]})
    with pytest.raises(ValidationError, match=f"^points\\[1\\]: {message} must hold numbers, not true or false$"):
        load_point_set(text)


# --------------------------------------------------------------------------
# Set constructors


@pytest.mark.parametrize("dimension", [2.0, 3.0, 1, 4, "2", True, None])
def test_set_constructors_need_the_int_dimension_2_or_3(dimension):
    # A float dimension once built a set that draw_supports then failed on
    # with a TypeError, and that save_point_set wrote as "dimension": 2.0.
    point = IndecisivePoint([[0, 0], [1, 1]], ("1/2", "1/2"))
    with pytest.raises(ValidationError, match="^dimension must be 2 or 3$"):
        IndecisivePointSet((point,), dimension)
    with pytest.raises(ValidationError, match="^dimension must be 2 or 3$"):
        ContinuousUncertainSet((PointMassPoint((0.0, 0.0)),), dimension)


@pytest.mark.parametrize("flag", [1, 0, "true", None, np.bool_(True)])
def test_indecisive_set_needs_a_bool_jitter_flag(flag):
    point = IndecisivePoint([[0, 0], [1, 1]], ("1/2", "1/2"))
    with pytest.raises(ValidationError, match="^jitter_applied must be true or false$"):
        IndecisivePointSet((point,), 2, jitter_applied=flag)


def test_point_of_another_dimension_is_named_once():
    flat = IndecisivePoint([[0, 0], [1, 1]], ("1/2", "1/2"))
    solid = IndecisivePoint([[0, 0, 0]], (1,))
    with pytest.raises(ValidationError) as exc:
        IndecisivePointSet((flat, solid), 2)
    assert str(exc.value) == "points[1]: has dimension 3, set has 2"
    with pytest.raises(ValidationError) as exc:
        ContinuousUncertainSet((PointMassPoint((0.0, 0.0, 1.0)),), 2)
    assert str(exc.value) == "points[0]: has dimension 3, set has 2"

