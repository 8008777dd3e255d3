import hashlib
import itertools
import math

import numpy as np
import pytest

from uqgeom import (
    MeasureId,
    ResourceCapError,
    ValidationError,
    combinatorial_dimension,
    evaluate,
    tolerance,
)
from uqgeom import measures
from uqgeom.geometry import _CIRCUM_DET_REL, _UNDERFLOW_GUARD, _WELZL_REL, coordinate_scales, welzl_ball
from uqgeom.measures import _MAX_COORDINATE, _seb2_balls

from hard_inputs import noisy_lattice_stack, offset_stack, seb2_interval, tiny_extent_stack


def test_measure_id_parsing():
    assert MeasureId.parse("seb2").kind == "seb2"
    assert MeasureId.parse("aabb-perimeter").kind == "aabb_perimeter"
    m = MeasureId.parse("dwid:3,4")
    assert m.kind == "dwid" and np.allclose(m.direction, (0.6, 0.8))
    with pytest.raises(ValueError):
        MeasureId("dwid")  # needs a direction
    with pytest.raises(ValueError):
        MeasureId("seb2", direction=(1.0, 0.0))
    with pytest.raises(ValueError):
        MeasureId("nope")


def test_combinatorial_dimensions():
    assert combinatorial_dimension(MeasureId("seb2")) == 3
    assert combinatorial_dimension(MeasureId("seb1")) == 3
    assert combinatorial_dimension(MeasureId("sebinf")) == 3
    assert combinatorial_dimension(MeasureId("aabb_perimeter")) == 4
    assert combinatorial_dimension(MeasureId("aabb_area")) == 4
    assert combinatorial_dimension(MeasureId("dwid", (1, 0))) == 2


def test_evaluate_seb2_antipodal_pair():
    assert abs(evaluate(MeasureId("seb2"), [[0, 0], [2, 0]]) - 1.0) < 1e-12
    # A point between the pair leaves the disk as it is.
    assert abs(evaluate(MeasureId("seb2"), [[0, 0], [1, 0], [2, 0]]) - 1.0) < 1e-12


def test_evaluate_seb2_equilateral_circumradius():
    tri = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
    assert abs(evaluate(MeasureId("seb2"), tri) - 1 / math.sqrt(3)) < 1e-12
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert abs(evaluate(MeasureId("seb2"), square) - math.sqrt(2) / 2) < 1e-12


def test_evaluate_aabb_perimeter():
    assert evaluate(MeasureId("aabb_perimeter"), [[0, 0], [2, 1]]) == 6.0
    assert evaluate(MeasureId("aabb_area"), [[0, 0], [2, 1]]) == 2.0


def test_evaluate_dwid_and_diameter():
    pts = [[0, 0], [3, 4], [1, 1]]
    assert abs(evaluate(MeasureId("dwid", (1, 0)), pts) - 3.0) < 1e-12
    assert abs(evaluate(MeasureId("diameter"), pts) - 5.0) < 1e-12
    assert evaluate(MeasureId("diameter"), [[2, 2]]) == 0.0


def test_evaluate_seb1_sebinf():
    pts = [[0.0, 0.0], [2.0, 0.0]]
    assert abs(evaluate(MeasureId("sebinf"), pts) - 1.0) < 1e-12
    assert abs(evaluate(MeasureId("seb1"), pts) - 1.0) < 1e-12
    # L1 ball of (0,0), (1,1) has radius 1 (L1 distance 2)
    assert abs(evaluate(MeasureId("seb1"), [[0, 0], [1, 1]]) - 1.0) < 1e-12


_PLANAR = [MeasureId(k) for k in ("seb2", "seb1", "sebinf", "aabb_perimeter", "aabb_area",
                                  "diameter")] + [MeasureId("dwid", (0.6, 0.8))]
_SPATIAL = [MeasureId("seb2"), MeasureId("diameter"),
            MeasureId("dwid", (0.96592582628906831, 0.0, 0.25881904510252074))]


def _bits(values):
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).reshape(-1)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 20])
def test_stacked_evaluate_equals_per_set(d, n):
    rng = np.random.default_rng(50 + 10 * d + n)
    stacks = [
        rng.normal(size=(37, n, d)) * 10.0 ** rng.integers(-3, 4, size=(37, 1, 1)),
        rng.integers(-2, 3, size=(37, n, d)).astype(np.float64),  # ties and repeats
        rng.normal(size=(37, n, d)) * 1e-9 + 1e6,
    ]
    for stack in stacks:
        for measure in _PLANAR if d == 2 else _SPATIAL:
            got = evaluate(measure, stack)
            assert isinstance(got, np.ndarray) and got.shape == (37,)
            want = [evaluate(measure, pts) for pts in stack]
            assert all(type(v) is float for v in want)
            assert _bits(got) == _bits(want), measure.kind
            # Any leading shape, and a stack of one.
            assert _bits(evaluate(measure, stack[:36].reshape(4, 9, n, d))) == _bits(want[:36])
            assert _bits(evaluate(measure, stack[:1])) == _bits(want[:1])
            assert evaluate(measure, stack[:0]).shape == (0,)


def test_stacked_evaluate_dimension_errors():
    stack3 = np.random.default_rng(60).normal(size=(5, 4, 3))
    for kind in ("seb1", "sebinf", "aabb_perimeter", "aabb_area"):
        with pytest.raises(ValueError, match="d=2 only"):
            evaluate(MeasureId(kind), stack3[0])
        with pytest.raises(ValueError, match="d=2 only"):
            evaluate(MeasureId(kind), stack3)
    for measure, pts in ((MeasureId("dwid", (1, 0)), stack3), (MeasureId("dwid", (1, 0, 0)), stack3[..., :2])):
        with pytest.raises(ValueError, match="dwid direction has dimension"):
            evaluate(measure, pts[0])
        with pytest.raises(ValueError, match="dwid direction has dimension"):
            evaluate(measure, pts)
    with pytest.raises(ValueError, match="d in"):
        evaluate(MeasureId("seb2"), np.zeros((5, 4, 4)))
    bad = stack3.copy()
    bad[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        evaluate(MeasureId("diameter"), bad)


def test_seb2_in_3d():
    pts = np.array([[0, 0, 0], [2, 0, 0], [1, 1, 0], [1, 0, 0.5]])
    assert abs(evaluate(MeasureId("seb2"), pts) - 1.0) < 1e-12


def _small_basis(m, pts):
    """Brute force: indices of the first subset, by size and then in
    combination order, of at most combinatorial_dimension(m) points whose
    value is the whole set's within tolerance; None if there is none."""
    total = evaluate(m, pts)
    tol = tolerance(pts, m)
    for size in range(1, min(combinatorial_dimension(m), len(pts)) + 1):
        combos = np.array(list(itertools.combinations(range(len(pts)), size)))
        close = np.flatnonzero(np.abs(evaluate(m, pts[combos]) - total) <= tol)
        if len(close):
            return combos[close[0]]
    return None


def _axiom_violations(m, pts, trials, seed):
    """Seeded spot-check of monotonicity and locality on nested F in G.

    G is a random proper subset and F holds a small basis of G, so
    f(F) = f(G) and locality can be put to the test: a point h outside G
    must raise f(F) exactly when it raises f(G).  Returns the
    monotonicity and the locality violations."""
    rng = np.random.default_rng(seed)
    n = len(pts)
    mono, loc = [], []
    for _ in range(trials):
        g = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        extra = rng.choice(g, size=int(rng.integers(0, len(g) + 1)), replace=False)
        f = np.union1d(g[_small_basis(m, pts[g])], extra)
        vf, vg = evaluate(m, pts[f]), evaluate(m, pts[g])
        tol = tolerance(pts[g], m)
        if vf > vg + tol:
            mono.append((tuple(f), tuple(g)))
        for h in np.setdiff1d(np.arange(n), g):
            raises_g = evaluate(m, pts[np.append(g, h)]) > vg + tol
            raises_f = evaluate(m, pts[np.append(f, h)]) > vf + tol
            if raises_g != raises_f:
                loc.append((tuple(f), tuple(g), int(h)))
    return mono, loc


_LP_TYPE = [
    MeasureId("seb2"),
    MeasureId("seb1"),
    MeasureId("sebinf"),
    MeasureId("aabb_perimeter"),
    MeasureId("aabb_area"),
    MeasureId("dwid", (0.6, 0.8)),
]


def test_lp_type_measures_have_bases_of_combinatorial_dimension(rng):
    for _ in range(20):
        pts = rng.uniform(-2, 2, (int(rng.integers(1, 9)), 2))
        for m in _LP_TYPE:
            assert _small_basis(m, pts) is not None, m.kind


def test_full_violation_closed_boundary():
    # A candidate violates the pair's disk only if it lies strictly outside.
    m = MeasureId("seb2")
    basis = [[-1.0, 0.0], [1.0, 0.0]]
    value = evaluate(m, basis)

    def violates(q):
        union = np.vstack([basis, q])
        return evaluate(m, union) > value + tolerance(union, m)

    assert not violates((0.5, 0.5))  # inside
    assert violates((1.5, 0.5))  # outside
    assert not violates((0.0, 1.0))  # exactly on the circle


def test_full_violation_matches_evaluate(rng):
    # A candidate violates a set exactly when it violates the set's basis.
    measures = [MeasureId("seb2"), MeasureId("aabb_perimeter"), MeasureId("dwid", (1, 0))]
    for _ in range(50):
        pts = rng.uniform(-1, 1, (6, 2))
        q = rng.uniform(-1.5, 1.5, 2)
        for m in measures:
            basis = pts[_small_basis(m, pts)]
            union = np.vstack([basis, q])
            by_basis = evaluate(m, union) > evaluate(m, basis) + tolerance(union, m)
            union = np.vstack([pts, q])
            assert by_basis == (evaluate(m, union) > evaluate(m, pts) + tolerance(union, m))


def test_axioms_seb2_clean(rng):
    pts = rng.uniform(-1, 1, (10, 2))
    assert _axiom_violations(MeasureId("seb2"), pts, trials=100, seed=7) == ([], [])


def test_axioms_dwid_monotone(rng):
    pts = rng.uniform(-1, 1, (8, 2))
    assert _axiom_violations(MeasureId("dwid", (0.3, 0.7)), pts, trials=100, seed=8) == ([], [])


def test_axioms_diameter_diagnostic(rng):
    m = MeasureId("diameter")
    pts = rng.uniform(-1, 1, (8, 2))
    mono, _ = _axiom_violations(m, pts, trials=50, seed=9)
    assert not mono
    # Locality fails, which is why the exact engine refuses diameter: F and
    # G share the diameter 2, and h raises G's diameter but not F's.
    f = np.array([[0.0, 0.0], [2.0, 0.0]])
    g = np.vstack([f, [1.0, 1.7]])
    h = [1.0, -1.7]
    assert evaluate(m, f) == evaluate(m, g) == evaluate(m, np.vstack([f, h])) == 2.0
    assert evaluate(m, np.vstack([g, h])) > 3.0


def _circumcenter(a, b, c):
    """Centre of the circle through three non-collinear planar points."""
    m = 2.0 * np.array([b - a, c - a])
    return np.linalg.solve(m, [b @ b - a @ a, c @ c - a @ a])


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
def test_seb2_range_at_enclosing_radius_is_the_enclosing_disk(anchor, center):
    """With w the anchors' enclosing radius, {p : seb2(anchor + p) <= w} is
    that one disk."""
    w = float(np.max(np.linalg.norm(anchor - center, axis=1)))
    pts = np.random.default_rng(17).uniform(center - 1.5 * w, center + 1.5 * w, (2000, 2))
    dist = np.linalg.norm(pts - center, axis=1)
    away = np.abs(dist - w) > 1e-6 * w
    sets = np.concatenate([np.broadcast_to(anchor, (len(pts), *anchor.shape)), pts[:, None]], axis=1)
    member = evaluate(MeasureId("seb2"), sets) <= w
    assert np.array_equal(member[away], (dist <= w)[away])


def test_monotonicity_property_all_measures(rng):
    measures = [
        MeasureId("seb2"),
        MeasureId("seb1"),
        MeasureId("sebinf"),
        MeasureId("aabb_perimeter"),
        MeasureId("aabb_area"),
        MeasureId("dwid", (0.8, -0.6)),
        MeasureId("diameter"),
    ]
    for _ in range(30):
        pts = rng.uniform(-1, 1, (7, 2))
        size = int(rng.integers(1, 7))
        sub = pts[rng.choice(7, size=size, replace=False)]
        for m in measures:
            assert evaluate(m, sub) <= evaluate(m, pts) + tolerance(pts, m)


# --------------------------------------------------------------------------
# Array seb2 balls against the scalar solver


def _circum2(a, b, c):
    """Reference: the scalar planar circumcircle (center, squared radius)
    of three points, solved relative to the first, or None when the
    determinant is at most _CIRCUM_DET_REL times the square of the largest
    offset from it."""
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    det = 2.0 * (bx * cy - by * cx)
    norm = max(abs(bx), abs(by), abs(cx), abs(cy), _UNDERFLOW_GUARD)
    if abs(det) <= _CIRCUM_DET_REL * norm * norm:
        return None
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / det
    uy = (bx * c2 - cx * b2) / det
    return (a[0] + ux, a[1] + uy), ux * ux + uy * uy


def _seb2_ball_tuple(coords) -> tuple:
    """Reference: the scalar canonical ball of 1 to 3 points given as
    coordinate tuples, which the library used to define the canonical ball.
    Members are sorted before solving; the pair-vs-circumcircle decision
    for triples uses exact sign predicates (a triangle's enclosing ball is
    its circumcircle iff no angle is obtuse).  Returns (cx, cy, radius)."""
    pts = sorted(tuple(float(x) for x in p) for p in coords)
    d = len(pts[0])
    m = len(pts)
    if m == 1:
        return (*pts[0], 0.0)

    def diametral(i, j):
        a, b = pts[i], pts[j]
        c = tuple(0.5 * (a[t] + b[t]) for t in range(d))
        r = math.sqrt(sum((a[t] - c[t]) ** 2 for t in range(d)))
        return (*c, r)

    if m == 2:
        return diametral(0, 1)
    assert m == 3
    dots = []
    for v in range(3):
        p, q = [t for t in range(3) if t != v]
        dots.append(sum((pts[p][t] - pts[v][t]) * (pts[q][t] - pts[v][t]) for t in range(d)))
    if all(x > 0.0 for x in dots):
        sol = _circum2(pts[0], pts[1], pts[2])
        if sol is not None:
            c, r2 = sol
            return (*c, math.sqrt(r2))
    # Some angle >= 90 degrees (or degenerate): the ball is the diametral
    # disk of the pair opposite the widest vertex.
    v = min(range(3), key=lambda t: dots[t])
    i, j = [t for t in range(3) if t != v]
    return diametral(i, j)


def _seb2_balls_per_row(xs, ys):
    """Reference: the scalar solver row by row, as the exact engine did
    before its balls were computed in arrays."""
    return np.array(
        [_seb2_ball_tuple(tuple(zip(x, y))) for x, y in zip(xs.tolist(), ys.tolist())],
        dtype=np.float64,
    ).reshape(-1, 3)


def _assert_balls_bitwise_equal(xs, ys):
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    got = _seb2_balls(xs, ys)
    want = _seb2_balls_per_row(xs, ys)
    assert got.shape == want.shape
    differ = np.flatnonzero((got.view(np.int64) != want.view(np.int64)).any(axis=1))
    assert not len(differ), (xs[differ[:3]], ys[differ[:3]], got[differ[:3]], want[differ[:3]])


def _engine_acute(xs, ys):
    """The exact engine's triple filter: every dot product above
    1e-14 * scale**2, with the scale of the row's own coordinates."""
    ax, bx, cx = xs.T
    ay, by, cy = ys.T
    pts = np.stack([xs, ys], axis=2)
    scale = np.maximum(
        np.maximum(np.hypot(*(pts.max(axis=1) - pts.min(axis=1)).T), np.abs(pts).max(axis=(1, 2))), 1.0
    )
    eps_dot = 1e-14 * scale * scale
    return (
        ((bx - ax) * (cx - ax) + (by - ay) * (cy - ay) > eps_dot)
        & ((ax - bx) * (cx - bx) + (ay - by) * (cy - by) > eps_dot)
        & ((ax - cx) * (bx - cx) + (ay - cy) * (by - cy) > eps_dot)
    )


@pytest.mark.parametrize("m", [2, 3])
def test_seb2_balls_random_generic(m):
    rng = np.random.default_rng(40 + m)
    xs, ys = rng.normal(size=(2, 4000, m))
    _assert_balls_bitwise_equal(xs, ys)
    # Spread over many magnitudes, and offsets of 1e8 and extents of 1e-9.
    mags = 10.0 ** rng.integers(-6, 7, size=(2, 4000, 1))
    _assert_balls_bitwise_equal(*(rng.uniform(-1, 1, size=(2, 4000, m)) * mags))
    _assert_balls_bitwise_equal(*(rng.normal(size=(2, 2000, m)) + 1e8))
    _assert_balls_bitwise_equal(*(rng.normal(size=(2, 2000, m)) * 1e-9 + 3.0))
    _assert_balls_bitwise_equal(*(rng.normal(size=(2, 2000, m)) * 1e-9 - 1e8))


@pytest.mark.parametrize("m", [2, 3])
def test_seb2_balls_integer_lattice(m):
    # Every pair and triple of a 5x5 grid: coincident, collinear and
    # cocircular points and right triangles, in every input order.
    grid = [(float(x), float(y)) for x in range(-2, 3) for y in range(-2, 3)]
    rows = np.array(list(itertools.product(grid, repeat=m)))
    _assert_balls_bitwise_equal(rows[:, :, 0], rows[:, :, 1])
    # The same with jitter far below the grid step, as after canonical_jitter.
    rng = np.random.default_rng(7)
    noisy = rows + rng.normal(size=rows.shape) * 1e-11
    _assert_balls_bitwise_equal(noisy[:, :, 0], noisy[:, :, 1])


def test_seb2_balls_listed_triples():
    # Right, cocircular, coincident and collinear triples, and signed zeros
    # (equal under sorting, different in their bits).
    tri = np.array(
        [
            [(0.0, -0.0), (-0.0, 0.0), (1.0, 1.0)],
            [(-0.0, 2.0), (0.0, -2.0), (2.0, 0.0)],
            [(0.0, 2.0), (-0.0, -2.0), (-2.0, -0.0)],
            [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)],
            [(0.0, 4.0), (3.0, 0.0), (0.0, 0.0)],
            [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
            [(2.0, -3.0), (0.0, -1.0), (3.0, -2.0)],
            [(0.0, -2.0), (3.0, -2.0), (2.0, -3.0)],
            [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)],
            [(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)],
            [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        ]
    )
    _assert_balls_bitwise_equal(tri[:, :, 0], tri[:, :, 1])


@pytest.mark.parametrize("m", [2, 3])
def test_seb2_balls_rows_with_equal_x_and_equal_points(m):
    # The row sort breaks an x tie on y, and keeps equal points (signed
    # zeros among them) in input order: rows with equal x and random y,
    # and rows of points drawn from three, each in every order.
    rng = np.random.default_rng(14 + m)
    xs = rng.integers(-1, 2, size=(3000, m)).astype(float)
    _assert_balls_bitwise_equal(xs, rng.normal(size=(3000, m)))
    _assert_balls_bitwise_equal(xs * 1e-9 + 3.0, rng.normal(size=(3000, m)) * 1e-9)
    few = np.array([(0.0, 1.0), (-0.0, 1.0), (0.5, -0.0)])
    rows = few[np.array(list(itertools.product(range(3), repeat=m)))]
    _assert_balls_bitwise_equal(rows[:, :, 0], rows[:, :, 1])
    picks = few[rng.integers(0, 3, size=(3000, m))]
    _assert_balls_bitwise_equal(picks[:, :, 0], picks[:, :, 1])


def test_seb2_balls_triples_at_the_engine_acute_threshold():
    # Thales triples: A and B nearly antipodal on a circle through C, so
    # the angle at C is within a hair of 90 degrees, around the engine's
    # 1e-14 * scale**2 dot threshold.
    rng = np.random.default_rng(11)
    rows = 20_000
    center = rng.uniform(-5, 5, size=(rows, 2))
    r = rng.uniform(0.1, 3, size=(rows, 1))
    theta, phi = rng.uniform(0, 2 * np.pi, size=(2, rows, 1))
    a = center + r * np.hstack([np.cos(theta), np.sin(theta)])
    b = center - r * np.hstack([np.cos(theta), np.sin(theta)])
    b += 10.0 ** rng.uniform(-16, -11, size=(rows, 1)) * rng.normal(size=(rows, 2))
    c = center + r * np.hstack([np.cos(phi), np.sin(phi)])
    pts = np.stack([a, b, c], axis=1)
    xs, ys = pts[:, :, 0], pts[:, :, 1]
    passing = _engine_acute(xs, ys)
    assert 100 < passing.sum() < rows - 100
    _assert_balls_bitwise_equal(xs[passing], ys[passing])
    _assert_balls_bitwise_equal(xs[~passing], ys[~passing])


def test_seb2_balls_near_degenerate_det():
    # Thin acute triangles whose circumcircle determinant straddles the
    # solver's 1e-14 * norm**2 cut: base w, apex 1 above the base's middle.
    rng = np.random.default_rng(12)
    rows = 4000
    w = 10.0 ** rng.uniform(-16, -12, size=rows)
    off = rng.uniform(-1, 1, size=(rows, 2)) * 10.0 ** rng.integers(0, 3, size=(rows, 1))
    xs = np.column_stack([np.zeros(rows), w, w / 2]) + off[:, :1]
    ys = np.column_stack([np.zeros(rows), np.zeros(rows), np.ones(rows)]) + off[:, 1:]
    ux, uy = xs[:, 1:] - xs[:, :1], ys[:, 1:] - ys[:, :1]
    det = np.abs(2.0 * (ux[:, 0] * uy[:, 1] - uy[:, 0] * ux[:, 1]))
    norm = np.abs(np.hstack([ux, uy])).max(axis=1)
    cut = det <= 1e-14 * norm * norm
    assert 100 < cut.sum() < rows - 100
    _assert_balls_bitwise_equal(xs, ys)


def test_seb2_balls_pairs_where_pow_and_product_round_apart():
    # CPython's float ** calls libm pow, which rounds some squares other
    # than x * x does; the pair radii must follow pow.
    rng = np.random.default_rng(13)
    xs, ys = rng.normal(size=(2, 50_000, 2))
    split = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        (x0, y0), (x1, y1) = sorted(zip(x, y))
        dx, dy = x0 - 0.5 * (x0 + x1), y0 - 0.5 * (y0 + y1)
        split.append(math.sqrt(dx**2 + dy**2) != math.sqrt(dx * dx + dy * dy))
    split = np.array(split)
    assert split.sum() >= 5
    _assert_balls_bitwise_equal(xs[split], ys[split])


def test_float_power_squares_as_cpython_pow():
    # _seb2_balls squares pair radii with np.float_power because it calls
    # libm pow per value, as CPython's float ** does.  A numpy that
    # vectorizes float_power (or special-cases the exponent 2) may round
    # some squares as x * x does, and must fail here rather than move
    # seb2 bits.  Magnitudes run from subnormal to 1e154, both signs.
    rng = np.random.default_rng(20_261)
    size = 200_000
    x = np.concatenate(
        [
            rng.uniform(0.5, 1.0, size) * 10.0 ** rng.integers(-323, 155, size),
            rng.normal(size=size),
            rng.uniform(-3.0, 3.0, size),
        ]
    )
    x[::2] *= -1.0
    want = np.array([v**2 for v in x.tolist()])
    assert np.isfinite(want).all()
    assert np.float_power(x, 2.0).tobytes() == want.tobytes()
    # The sample tells pow from the product.
    assert (x * x != want).sum() >= 100


@pytest.mark.parametrize("kind", ["seb2", "diameter"])
def test_evaluate_refuses_coordinates_too_large_for_the_solvers(kind):
    fine = np.array([[0.0, 0.0], [_MAX_COORDINATE, -_MAX_COORDINATE]])
    assert np.isfinite(evaluate(MeasureId(kind), fine))
    assert np.isfinite(evaluate(MeasureId(kind), np.column_stack([fine, fine[:, :1]])))
    for pts in ([[0.0, 0.0], [1e200, 0.0]], [[0.0, -2 * _MAX_COORDINATE]], [[[0.0, 0.0]], [[0.0, 1e300]]]):
        with pytest.raises(ValidationError, match="magnitude"):
            evaluate(MeasureId(kind), pts)
    # Other measures are not bounded this way.
    assert evaluate(MeasureId("aabb_perimeter"), [[0.0, 0.0], [1e200, 0.0]]) == 2e200


def _former_diameters(f):
    """Diameter of each set of a (..., n, d) stack as measures computed it
    over the whole strided (..., n, n, d) difference tensor: the reference
    for the differences along contiguous planes."""
    diff = f[..., :, None, :] - f[..., None, :, :]
    sq = diff * diff
    total = sq[..., 0]
    for i in range(1, sq.shape[-1]):
        total = total + sq[..., i]
    return np.sqrt(total.max(axis=(-2, -1)))


@pytest.mark.parametrize("d", [2, 3])
def test_diameter_planes_have_the_bits_of_the_difference_tensor(d):
    rng = np.random.default_rng(60 + d)
    edge = _MAX_COORDINATE * rng.choice([-1.0, 1.0, 0.5, -0.25], size=(20, 4, d))
    stacks = [
        rng.normal(size=(81, 20, d)) * 10.0 ** rng.integers(-8, 9, size=(81, 1, 1)),
        rng.normal(size=(729, 6, d)),  # the oracle's supports of 6 points
        rng.normal(size=(40, 1, d)),  # one point per set
        np.repeat(rng.normal(size=(30, 3, d)), 2, axis=1),  # every point twice
        np.repeat(rng.normal(size=(10, 1, d)) * 1e5, 5, axis=1),  # all coincident
        rng.integers(-3, 4, size=(50, 6, d)).astype(float),  # lattice ties
        rng.choice([-0.0, 0.0, 1.0], size=(30, 4, d)),  # signed zeros
        edge,  # coordinates at _check_input's bound
        rng.uniform(-1, 1, size=(3, 2, 7, d)),  # a stack of stacks
        rng.normal(size=(0, 5, d)),  # no sets
    ]
    diameter = MeasureId("diameter")
    for stack in stacks:
        want = _former_diameters(stack)
        assert measures._frame_values("diameter", stack).tobytes() == want.tobytes()
        assert evaluate(diameter, stack).tobytes() == want.tobytes()
        sets = stack.reshape(-1, *stack.shape[-2:])
        assert b"".join(np.float64(evaluate(diameter, pts)).tobytes() for pts in sets) == want.tobytes()
    assert np.isfinite(_former_diameters(edge)).all()


@pytest.mark.parametrize("noise", [0.0, 1e-11, 1e-3])
@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e8])
def test_seb2_balls_scaled_lattice(noise, scale):
    # Pairs and triples of a 9x9 grid, blurred and scaled, and offset by 1e8
    # at the largest scale.
    rng = np.random.default_rng(14)
    pts = rng.integers(-4, 5, size=(3000, 3, 2)) * scale
    pts += rng.normal(size=pts.shape) * noise * scale
    if scale == 1e8:
        pts += 1e8
    for m in (2, 3):
        _assert_balls_bitwise_equal(pts[:, :m, 0], pts[:, :m, 1])


def _sorted_dots(x, y):
    """A triple's points in sorted order and the dot product at each vertex."""
    pts = sorted(zip(x, y))
    dots = [
        (pts[p][0] - pts[v][0]) * (pts[q][0] - pts[v][0]) + (pts[p][1] - pts[v][1]) * (pts[q][1] - pts[v][1])
        for v, (p, q) in enumerate(((1, 2), (0, 2), (0, 1)))
    ]
    return pts, dots


def _takes_fallback(xs, ys):
    """Rows whose canonical ball is a pair's diametral disk: some vertex
    dot product not positive, or a circumcircle the solver refuses."""
    out = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        pts, dots = _sorted_dots(x, y)
        out.append(min(dots) <= 0.0 or _circum2(*pts) is None)
    return np.array(out)


def _all_orders(tri):
    """Every vertex order of each (3, 2) triple in ``tri``."""
    tri = np.asarray(tri, dtype=np.float64)
    return np.concatenate([tri[:, list(p)] for p in itertools.permutations(range(3))])


def _assert_fallback_rows_match(tri):
    xs, ys = np.ascontiguousarray(tri[..., 0]), np.ascontiguousarray(tri[..., 1])
    assert _takes_fallback(xs, ys).all()
    _assert_balls_bitwise_equal(xs, ys)


def test_seb2_balls_fallback_obtuse_and_right_triples():
    rng = np.random.default_rng(15)
    tri = rng.normal(size=(20_000, 3, 2))
    xs, ys = tri[..., 0], tri[..., 1]
    obtuse = _takes_fallback(xs, ys)
    assert obtuse.sum() > 5000
    _assert_fallback_rows_match(tri[obtuse])
    # 3-4-5 triangles under the lattice symmetries, scaled and shifted by
    # integers, in every vertex order.
    base = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    sym = [base, base[:, ::-1], -base, -base[:, ::-1], base * [1.0, -1.0], base * [-1.0, 1.0]]
    k = rng.integers(1, 50, size=(200, 1, 1))
    shift = rng.integers(-100, 100, size=(200, 1, 2))
    _assert_fallback_rows_match(_all_orders(np.concatenate([s * k + shift for s in sym])))


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_seb2_balls_fallback_collinear_triples(offset):
    rng = np.random.default_rng(16)
    # Integer steps along integer directions, and random points on a line.
    a = rng.integers(-20, 20, size=(2000, 1, 2))
    step = rng.integers(-5, 6, size=(2000, 1, 2))
    t = rng.integers(-4, 5, size=(2000, 3, 1))
    lattice = (a + t * step).astype(np.float64)
    p0, u = rng.normal(size=(2, 2000, 1, 2))
    line = p0 + rng.normal(size=(2000, 3, 1)) * u
    line = line[_takes_fallback(line[..., 0], line[..., 1])]
    assert len(line) > 1000
    _assert_fallback_rows_match(_all_orders(lattice) + offset)
    _assert_fallback_rows_match(line + offset)


def test_seb2_balls_fallback_coincident_points():
    rng = np.random.default_rng(17)
    p, q = rng.normal(size=(2, 500, 1, 2))
    q[:100] = np.round(q[:100] * 4)
    p[:100] = np.round(p[:100] * 4)
    two = _all_orders(np.concatenate([p, p, q], axis=1))
    three = np.concatenate([p, p, p], axis=1)
    # Signed zeros: equal under sorting, different in their bits.
    zeros = _all_orders([[(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)], [(-0.0, -0.0), (0.0, 0.0), (1.0, -1.0)]])
    for tri in (two, three, zeros, two + 1e6, three - 1e6):
        _assert_fallback_rows_match(tri)


def test_seb2_balls_fallback_at_the_determinant_threshold():
    # Isosceles slivers: base w, apex 1 above the base's middle.  The
    # triangle is strictly acute, and its circumcircle determinant 2w
    # crosses the solver's 1e-14 * norm**2 cut within the sample.  The two
    # base vertices have the same dot product w**2 / 2, the smallest, so
    # the tie picks the first of them.
    rng = np.random.default_rng(18)
    w = 10.0 ** rng.uniform(-16, -12, size=4000)
    zero, one = np.zeros_like(w), np.ones_like(w)
    tri = np.stack([np.column_stack([zero, zero]), np.column_stack([w, zero]), np.column_stack([w / 2, one])], axis=1)
    tri = np.concatenate([tri, tri * [1.0, -1.0], tri[..., ::-1]])
    xs, ys = tri[..., 0], tri[..., 1]
    assert all(min(_sorted_dots(x, y)[1]) > 0.0 for x, y in zip(xs.tolist(), ys.tolist()))
    fallback = _takes_fallback(xs, ys)
    assert 1000 < fallback.sum() < len(tri) - 1000
    _assert_balls_bitwise_equal(xs, ys)
    _assert_fallback_rows_match(_all_orders(tri[fallback]))
    # Every fallback row has the tie, and taking the last of the tied
    # vertices instead would move the centre.
    got = _seb2_balls(xs[fallback], ys[fallback])
    for x, y, ball in zip(xs[fallback].tolist(), ys[fallback].tolist(), got.tolist()):
        pts, dots = _sorted_dots(x, y)
        tied = [v for v in range(3) if dots[v] == min(dots)]
        assert len(tied) == 2
        i, j = [t for t in range(3) if t != tied[-1]]
        assert (0.5 * (pts[i][0] + pts[j][0]), 0.5 * (pts[i][1] + pts[j][1])) != tuple(ball[:2])


# --------------------------------------------------------------------------
# Stacked seb2 evaluation against the former per-set path


def _seb2_stacks(rng):
    """(stack, pinned) pairs.  A pinned stack keeps the former path's bits;
    on the noisy lattices Welzl's support could leave a point outside, so
    there the values are checked against the exact referee instead."""
    for n in (4, 20, 50):
        yield rng.uniform(-1, 1, size=(60, n, 2)), True
        yield rng.integers(-2, 3, size=(60, n, 2)).astype(np.float64), True  # lattice duplicates
        yield noisy_lattice_stack(rng, 60, n), False
        yield rng.normal(size=(60, n, 2)) * 1e-9 + 1e6, True
    for n in (1, 3, 6):
        yield np.repeat(rng.integers(-3, 4, size=(30, 1, 2)), n, axis=1).astype(np.float64), True  # all coincident
    p, q = rng.normal(size=(2, 40, 1, 2))
    yield np.concatenate([p, p, q, p], axis=1), True  # two distinct locations
    t = rng.integers(-3, 4, size=(40, 5, 1))
    yield (rng.integers(-3, 4, size=(40, 1, 2)) + t * rng.integers(-2, 3, size=(40, 1, 2))).astype(np.float64), True


# sha256 of the float64 bytes of evaluate(seb2) on the pinned stacks of
# _seb2_stacks(default_rng(19)), in order, recorded from the former per-set
# path: one Welzl ball per set, then the scalar canonical ball of its
# support.
_FORMER_SEB2_DIGEST = "3028df44533f38a9fe063f08f4a6b20e34ebeb786f12165cbd99604f5b6666f1"


def test_evaluate_seb2_matches_the_former_per_set_path():
    rng = np.random.default_rng(19)
    seb2 = MeasureId("seb2")
    digest = hashlib.sha256()
    for stack, pinned in _seb2_stacks(rng):
        got = evaluate(seb2, stack)
        if pinned:
            digest.update(got.tobytes())
        else:
            for p, s, v in zip(stack, coordinate_scales(stack), got.tolist()):
                lo, hi = seb2_interval(p, _WELZL_REL * s)
                assert lo <= v <= hi
        assert _bits([evaluate(seb2, p) for p in stack]) == _bits(got)
        # A shuffled stack gives each set the same bits.
        perm = rng.permutation(len(stack))
        assert _bits(evaluate(seb2, stack[perm])) == _bits(got[perm])
    assert digest.hexdigest() == _FORMER_SEB2_DIGEST
    # 3-D sets keep the Welzl radius.
    stack = rng.normal(size=(30, 9, 3))
    want = [welzl_ball(p, s).radius for p, s in zip(stack, coordinate_scales(stack))]
    assert _bits(evaluate(seb2, stack)) == _bits(want)


def test_seb2_pivot_refuses_a_set_past_its_round_cap(monkeypatch):
    # Round one moves a set to the disk of its first point and the point
    # farthest from it; round two ends there only if that disk holds every
    # point.
    seb2 = MeasureId("seb2")
    monkeypatch.setattr(measures, "_pivot_round_cap", lambda n: 2)
    assert evaluate(seb2, [[0.0, 0.0], [2.0, 0.0], [1.0, 0.5]]) == 1.0
    with pytest.raises(ResourceCapError, match="still moving after 2 rounds on a set of 3 points"):
        evaluate(seb2, [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    stack = np.random.default_rng(5).uniform(-1, 1, size=(20, 30, 2))
    with pytest.raises(ResourceCapError):
        evaluate(seb2, stack)


# The pivot search as it solved all six subsets of basis and pivot in every
# round, kept as the reference that the search of fewer subsets must match
# bit for bit.
_REF_PAIRS = np.array([[0, 3], [1, 3], [2, 3]])
_REF_TRIPLES = np.array([[0, 1, 3], [0, 2, 3], [1, 2, 3]])
_REF_SUBSETS = np.concatenate([_REF_PAIRS[:, [0, 1, 1]], _REF_TRIPLES])


def _six_subset_pivot(sets):
    rows, n, _ = sets.shape
    slack = _WELZL_REL * np.asarray(coordinate_scales(sets))
    disks = np.empty((rows, 3))
    active = np.arange(rows)
    xs, ys = sets[..., 0], sets[..., 1]
    basis = np.zeros((rows, 3), dtype=np.intp)
    ball = np.zeros((rows, 3))
    ball[:, 0], ball[:, 1] = xs[:, 0], ys[:, 0]
    for _ in range(measures._pivot_round_cap(n)):
        x, y = xs[active], ys[active]
        dx, dy = x - ball[:, :1], y - ball[:, 1:2]
        d2 = dx * dx + dy * dy
        f = d2.argmax(axis=1)
        reach = ball[:, 2] + slack
        out = d2[np.arange(len(f)), f] > reach * reach
        disks[active[~out]] = ball[~out]
        if not out.any():
            return disks
        active, basis, slack = active[out], basis[out], slack[out]
        members = np.column_stack([basis, f[out]])
        kept = np.flatnonzero(out)[:, None]
        mx, my = x[kept, members], y[kept, members]
        pairs = _seb2_balls(mx[:, _REF_PAIRS].reshape(-1, 2), my[:, _REF_PAIRS].reshape(-1, 2))
        triples = _seb2_balls(mx[:, _REF_TRIPLES].reshape(-1, 3), my[:, _REF_TRIPLES].reshape(-1, 3))
        balls = np.concatenate([pairs.reshape(-1, 3, 3), triples.reshape(-1, 3, 3)], axis=1)
        ex = mx[:, None, :] - balls[..., :1]
        ey = my[:, None, :] - balls[..., 1:2]
        reach = balls[..., 2] + slack[:, None]
        holds = (ex * ex + ey * ey <= (reach * reach)[..., None]).all(axis=2)
        pick = np.where(holds, balls[..., 2], np.inf).argmin(axis=1)
        kept = np.arange(len(pick))
        basis = members[kept[:, None], _REF_SUBSETS[pick]]
        ball = balls[kept, pick]
    raise ResourceCapError("still moving")


def _pivot_stacks(rng):
    for n in (1, 2, 3, 4, 7, 50):
        yield rng.uniform(-1, 1, size=(200, n, 2))
    for n in (4, 20, 50):
        yield noisy_lattice_stack(rng, 100, n)
        yield offset_stack(rng, 100, n)
        yield tiny_extent_stack(rng, 100, n)
        yield rng.integers(-2, 3, size=(100, n, 2)).astype(np.float64)  # repeated points
    # Integer points on the circle x² + y² = 25, with its centre: repeated
    # and cocircular.
    circle = np.array([[3, 4], [4, 3], [5, 0], [0, 5], [-3, 4], [-4, 3], [-5, 0], [0, -5],
                       [3, -4], [4, -3], [-3, -4], [-4, -3], [0, 0]], dtype=np.float64)
    for n in (3, 6, 12):
        yield circle[rng.integers(0, len(circle), size=(100, n))]
    # Every row stops in round one, then only some rows do.
    coincident = np.repeat(rng.integers(-3, 4, size=(60, 1, 2)), 5, axis=1).astype(np.float64)
    yield coincident
    mixed = rng.uniform(-1, 1, size=(60, 5, 2))
    mixed[::2] = coincident[::2]
    yield mixed
    yield np.empty((0, 5, 2))


def test_seb2_pivot_matches_the_six_subset_search_bit_for_bit():
    for sets in _pivot_stacks(np.random.default_rng(48)):
        want = _six_subset_pivot(sets)
        assert measures._seb2_pivot(sets).tobytes() == want.tobytes(), sets.shape


@pytest.mark.parametrize("kind", ["seb2", "seb1", "sebinf", "aabb_perimeter", "aabb_area", "dwid", "diameter"])
def test_evaluate_refuses_a_set_of_no_points(kind):
    measure = MeasureId(kind, (1.0, 0.0) if kind == "dwid" else None)
    for pts in ([], np.empty((0, 2)), np.empty((2, 0, 2))):
        with pytest.raises(ValueError, match="needs at least one point"):
            evaluate(measure, pts)
    # A stack of no sets is not a set of no points.
    assert evaluate(measure, np.empty((0, 3, 2))).shape == (0,)
