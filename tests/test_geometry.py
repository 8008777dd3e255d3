"""welzl_ball against the recursive Welzl it replaced, bit for bit.

The references below are the one-frame-per-point recursion and the nested
subset search of ``_trivial_ball`` as they were before the loop rewrite.
Both versions must make the same decisions and produce the same floats, so
the comparison is on center bytes, radius bits and the support tuple.
"""

import math

import numpy as np
import pytest

from uqgeom.geometry import (
    _WELZL_REL,
    _circum3,
    _circumsphere_coords,
    _fixed_permutation,
    _trivial_ball,
    coordinate_scale,
    coordinate_scales,
    welzl_ball,
)


def _ref_dist2(p, q, d):
    if d == 2:
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2


def _ref_trivial_ball(coords, boundary, d):
    m = len(boundary)
    if m == 0:
        return None
    if m == 1:
        p = coords[boundary[0]]
        return (*p, 0.0, (boundary[0],))
    best = None
    for ii in range(m):
        pi = coords[boundary[ii]]
        for jj in range(ii + 1, m):
            pj = coords[boundary[jj]]
            c = tuple(0.5 * (pi[t] + pj[t]) for t in range(d))
            r2 = _ref_dist2(pi, c, d)
            if best is not None and r2 >= best[0]:
                continue
            lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
            ok = True
            for kk in range(m):
                if kk == ii or kk == jj:
                    continue
                if _ref_dist2(coords[boundary[kk]], c, d) > lim:
                    ok = False
                    break
            if ok:
                best = (r2, c, (boundary[ii], boundary[jj]))
    if best is None and m >= 3:
        for ii in range(m):
            for jj in range(ii + 1, m):
                for kk in range(jj + 1, m):
                    sol = _circum3(coords[boundary[ii]], coords[boundary[jj]], coords[boundary[kk]], d)
                    if sol is None:
                        continue
                    c, r2 = sol
                    if best is not None and r2 >= best[0]:
                        continue
                    lim = r2 * (1 + 1e-10)
                    ok = True
                    for ll in range(m):
                        if ll == ii or ll == jj or ll == kk:
                            continue
                        if _ref_dist2(coords[boundary[ll]], c, d) > lim:
                            ok = False
                            break
                    if ok:
                        best = (r2, c, (boundary[ii], boundary[jj], boundary[kk]))
    if best is None and d == 3 and m == 4:
        sol = _circumsphere_coords(*(coords[b] for b in boundary))
        if sol is not None:
            best = (sol[1], sol[0], tuple(boundary))
    if best is None:
        dmax, pair = -1.0, (boundary[0], boundary[-1])
        for ii in range(m):
            for jj in range(ii + 1, m):
                dist = _ref_dist2(coords[boundary[ii]], coords[boundary[jj]], d)
                if dist > dmax:
                    dmax, pair = dist, (boundary[ii], boundary[jj])
        a, b = coords[pair[0]], coords[pair[1]]
        best = (0.25 * dmax, tuple(0.5 * (a[t] + b[t]) for t in range(d)), pair)
    r2, c, support = best
    return (*c, math.sqrt(r2), support)


def _ref_welzl_ball(pts):
    """Recursive move-to-front Welzl: one frame per point."""
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    if n == 1:
        return pts[0].copy(), 0.0, (0,)
    coords = [tuple(row) for row in pts]
    scale = coordinate_scale(pts)
    slack = _WELZL_REL * scale
    dup2 = (1e-10 * scale) ** 2
    order = list(_fixed_permutation(n))

    def solve(count, boundary):
        if count == 0 or len(boundary) == d + 1:
            return _ref_trivial_ball(coords, boundary, d)
        ball = solve(count - 1, boundary)
        p = order[count - 1]
        if ball is not None:
            r = ball[d]
            if _ref_dist2(coords[p], ball, d) <= (r + slack) * (r + slack):
                return ball
        if any(_ref_dist2(coords[b], coords[p], d) <= dup2 for b in boundary):
            return ball
        boundary.append(p)
        ball = solve(count - 1, boundary)
        boundary.pop()
        order.remove(p)
        order.insert(0, p)
        return ball

    result = solve(n, [])
    return np.array(result[:d]), result[d], result[d + 1]


def _assert_same_ball(pts):
    ball = welzl_ball(pts)
    center, radius, support = _ref_welzl_ball(pts)
    assert ball.center.tobytes() == center.tobytes()
    assert float(ball.radius).hex() == float(radius).hex()
    assert tuple(ball.support) == tuple(support)


@pytest.mark.parametrize("d", [2, 3])
def test_welzl_random_sets_match_recursive_reference(d):
    rng = np.random.default_rng(40 + d)
    for n in range(1, 61):
        for _ in range(6):
            _assert_same_ball(rng.normal(size=(n, d)))
        # Anisotropic and uniform sets.
        _assert_same_ball(rng.normal(size=(n, d)) * rng.uniform(0.01, 10.0, size=d))
        _assert_same_ball(rng.uniform(-1.0, 1.0, size=(n, d)))


@pytest.mark.parametrize("d", [2, 3])
def test_welzl_degenerate_sets_match_recursive_reference(d):
    rng = np.random.default_rng(50 + d)
    for n in range(1, 61):
        # Small integer grids: coincident, collinear and cocircular points.
        _assert_same_ball(rng.integers(-2, 3, size=(n, d)).astype(float))
        _assert_same_ball(rng.integers(-1, 2, size=(n, d)).astype(float))
        # All coincident.
        _assert_same_ball(np.full((n, d), 2.5))
        # Collinear, with repeats.
        t = rng.integers(-3, 4, size=n).astype(float)
        _assert_same_ball(np.outer(t, rng.normal(size=d)))
        # Cocircular: points on one circle (a great circle in 3-D).
        theta = 2.0 * np.pi * rng.integers(0, 12, size=n) / 12.0
        ring = np.zeros((n, d))
        ring[:, 0], ring[:, 1] = np.cos(theta), np.sin(theta)
        _assert_same_ball(ring)
        # Far from the origin, and tiny extents.
        _assert_same_ball(rng.integers(-2, 3, size=(n, d)) + 1e8)
        _assert_same_ball(rng.normal(size=(n, d)) + 1e8)
        _assert_same_ball(rng.normal(size=(n, d)) * 1e-9)
        _assert_same_ball(rng.normal(size=(n, d)) * 1e-9 + 3.0)


def _assert_same_trivial_ball(pts, boundary):
    d = pts.shape[1]
    got = _trivial_ball(pts.tolist(), boundary, d)
    want = _ref_trivial_ball([tuple(row) for row in pts], boundary, d)
    assert [float(x).hex() for x in got[:-1]] == [float(x).hex() for x in want[:-1]]
    assert got[-1] == want[-1]


@pytest.mark.parametrize("d", [2, 3])
def test_trivial_ball_matches_subset_search_reference(d):
    # Most boundaries Welzl builds end in a circumcircle; these random and
    # obtuse ones make the pair search decide, so a changed pair radius shows.
    rng = np.random.default_rng(60 + d)
    for m in range(1, d + 2):
        for _ in range(2000 if m < 3 else 5000):
            pts = rng.normal(size=(m, d))
            if m >= 3 and rng.random() < 0.8:
                pts[2] = 0.5 * (pts[0] + pts[1]) + 0.1 * rng.normal(size=d)
            if rng.random() < 0.1:
                pts = np.round(pts)
            _assert_same_trivial_ball(pts, rng.permutation(m).tolist())
    # Pair balls whose radius is a sum of squares that libm pow rounds
    # differently from a product: replacing ``** 2`` by ``x * x`` changes them.
    values = rng.uniform(0.5, 4.0, size=200_000)
    sensitive = [x for x in values.tolist() if x**2 != x * x][: 3 * 50]
    assert len(sensitive) == 150
    for half in np.reshape(sensitive, (50, 3))[:, :d]:
        for m in range(2, d + 2):
            pts = np.zeros((m, d))
            pts[0] = 2.0 * half
            pts[2:] = 0.25 * half
            _assert_same_trivial_ball(pts, list(range(m)))
            _assert_same_ball(pts)


@pytest.mark.parametrize("d", [2, 3])
def test_coordinate_scales_equal_per_set(d):
    rng = np.random.default_rng(70 + d)
    stacks = [
        rng.normal(size=(40, 7, d)),  # generic, scale from the diagonal or the floor
        rng.normal(size=(40, 7, d)) * 1e-3 + 1e6,  # offset: the magnitude wins
        -np.abs(rng.normal(size=(40, 5, d))) * 50.0 - 3.0,  # negative coordinates
        np.repeat(rng.normal(size=(40, 1, d)) * 1e3, 6, axis=1),  # all coincident
        np.zeros((3, 4, d)),  # all at the origin: the floor of 1
        rng.normal(size=(25, 1, d)) * 10.0,  # one point per set
        rng.uniform(-1, 1, size=(60, 3, d)) * 10.0 ** rng.integers(-5, 6, size=(60, 1, 1)),
    ]
    for stack in stacks:
        got = coordinate_scales(stack)
        want = [coordinate_scale(pts) for pts in stack]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        for pts, scale in zip(stack[:8], got):
            a, b = welzl_ball(pts, scale), welzl_ball(pts)
            assert (a.center.tobytes(), a.radius, a.support) == (b.center.tobytes(), b.radius, b.support)
