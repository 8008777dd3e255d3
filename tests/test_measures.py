import itertools
import math

import numpy as np
import pytest

from uqgeom import (
    MeasureId,
    NotLPTypeError,
    check_lp_axioms,
    combinatorial_dimension,
    evaluate,
    find_basis,
    full_violation_test,
    tolerance,
)
from uqgeom.measures import _seb2_ball_tuple, _seb2_balls


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


def test_evaluate_seb2_equilateral_circumradius():
    tri = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
    assert abs(evaluate(MeasureId("seb2"), tri) - 1 / math.sqrt(3)) < 1e-12


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


def test_find_basis_collinear_points():
    basis = find_basis(MeasureId("seb2"), [[0, 0], [1, 0], [2, 0]])
    assert basis.indices() == (0, 2)
    assert basis.size == 2


def test_find_basis_square_lexicographic():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    basis = find_basis(MeasureId("seb2"), sq)
    assert basis.indices() == (0, 2)
    # derived check: f(B) equals f(Q) (brute: circumradius of the square)
    assert abs(basis.value - evaluate(MeasureId("seb2"), sq)) < 1e-12
    assert abs(basis.value - math.sqrt(2) / 2) < 1e-12


def test_find_basis_aabb_on_random_points(rng):
    m = MeasureId("aabb_perimeter")
    for _ in range(20):
        pts = rng.uniform(-1, 1, (5, 2))
        basis = find_basis(m, pts)
        assert basis.size <= 4
        assert abs(evaluate(m, basis.member_array()) - evaluate(m, pts)) <= tolerance(pts, m)


def test_find_basis_matches_full_value_randomized(rng):
    measures = [
        MeasureId("seb2"),
        MeasureId("seb1"),
        MeasureId("sebinf"),
        MeasureId("aabb_area"),
        MeasureId("dwid", (0.6, 0.8)),
    ]
    for _ in range(20):
        pts = rng.uniform(-2, 2, (int(rng.integers(1, 9)), 2))
        for m in measures:
            basis = find_basis(m, pts)
            assert basis.size <= combinatorial_dimension(m)
            assert abs(evaluate(m, basis.member_array()) - evaluate(m, pts)) <= max(
                tolerance(pts, m), 1e-12
            )
            # minimality: every strict subset has strictly smaller value
            if basis.size > 1:
                arr = basis.member_array()
                for drop in range(basis.size):
                    sub = np.delete(arr, drop, axis=0)
                    assert evaluate(m, sub) < basis.value


def test_find_basis_rejects_diameter():
    with pytest.raises(NotLPTypeError):
        find_basis(MeasureId("diameter"), [[0, 0], [1, 1]])


def test_full_violation_closed_boundary():
    m = MeasureId("seb2")
    basis = find_basis(m, [[-1.0, 0.0], [1.0, 0.0]])
    assert not full_violation_test(m, basis, (0.5, 0.5))  # inside
    assert full_violation_test(m, basis, (1.5, 0.5))  # outside
    assert not full_violation_test(m, basis, (0.0, 1.0))  # exactly on the circle


def test_full_violation_matches_evaluate(rng):
    measures = [MeasureId("seb2"), MeasureId("aabb_perimeter"), MeasureId("dwid", (1, 0))]
    for _ in range(50):
        pts = rng.uniform(-1, 1, (6, 2))
        q = rng.uniform(-1.5, 1.5, 2)
        for m in measures:
            basis = find_basis(m, pts)
            union = np.vstack([basis.member_array(), q])
            slow = evaluate(m, union) > basis.value + tolerance(union, m)
            assert full_violation_test(m, basis, q) == slow


def test_axioms_seb2_clean(rng):
    pts = rng.uniform(-1, 1, (10, 2))
    report = check_lp_axioms(MeasureId("seb2"), pts, trials=100, seed=7)
    assert report.ok


def test_axioms_dwid_monotone(rng):
    pts = rng.uniform(-1, 1, (8, 2))
    report = check_lp_axioms(MeasureId("dwid", (0.3, 0.7)), pts, trials=100, seed=8)
    assert not report.monotonicity_violations


def test_axioms_diameter_diagnostic(rng):
    pts = rng.uniform(-1, 1, (8, 2))
    report = check_lp_axioms(MeasureId("diameter"), pts, trials=50, seed=9)
    assert "not exploitable" in report.note
    assert not report.monotonicity_violations


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


def _seb2_balls_per_row(xs, ys):
    """Reference: the scalar solver row by row, as the exact engine did
    before its balls were computed in arrays."""
    return np.array(
        [_seb2_ball_tuple(tuple(zip(x, y)))[:3] for x, y in zip(xs.tolist(), ys.tolist())],
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
