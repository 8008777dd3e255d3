"""welzl_ball against the recursive Welzl it replaced, bit for bit.

welzl_ball is 3-D only: a planar set is refused, since the planar smallest
enclosing disk is the pivoting search of ``measures._seb2_pivot``.

The references below are the one-frame-per-point recursion and the nested
subset search of ``_trivial_ball`` as they were before the loop rewrite.
Both versions must make the same decisions and produce the same floats, so
the comparison is on center bytes and radius bits.  The references still
return the support they end with, which the near-duplicate test reads.

A second set of references, further down, is the one-loop-per-level Welzl
and the generic pair/triple subset search (``_PAIRS``/``_TRIPLES`` tables,
``_dist2``/``_midpoint`` helpers, generator sums in the circumsphere) as they
were before the boundary balls were written out per dimension and size.
"""

import itertools
import math

import numpy as np
import pytest

from uqgeom import geometry
from uqgeom.geometry import (
    _WELZL_REL,
    _ball3_3,
    _ball3_4,
    _circum3,
    _circumsphere_coords,
    _fixed_permutation,
    bbox_diameter,
    coordinate_scale,
    coordinate_scales,
    welzl_ball,
)
from uqgeom.harness import CylinderConfig, cylinder_uncertain_set
from uqgeom.model import draw_supports


def _trivial_ball(coords, boundary):
    """Smallest ball of 1 to 4 boundary points (indices into ``coords``)
    as (center..., radius), from the library's boundary ball of that size:
    the dispatch the Welzl loop inlines."""
    pts = [coords[b] for b in boundary]
    if len(pts) == 1:
        return (*pts[0], 0.0)
    if len(pts) == 2:
        a, b = pts
        cx, cy, cz = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2])
        return (cx, cy, cz, math.sqrt((a[0] - cx) ** 2 + (a[1] - cy) ** 2 + (a[2] - cz) ** 2))
    if len(pts) == 3:
        return _ball3_3(*pts)
    return _ball3_4(*pts)


def _ref_dist2(p, q, d):
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
                    sol = _circum3(coords[boundary[ii]], coords[boundary[jj]], coords[boundary[kk]])
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
    if best is None and m == 4:
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
    center, radius, _ = _ref_welzl_ball(pts)
    assert ball.center.tobytes() == center.tobytes()
    assert float(ball.radius).hex() == float(radius).hex()


def test_welzl_ball_refuses_a_planar_set():
    for pts in (np.zeros((1, 2)), np.random.default_rng(39).normal(size=(20, 2))):
        with pytest.raises(ValueError, match=r"3-D points, got d = 2; .*measures\.evaluate"):
            welzl_ball(pts)


@pytest.mark.parametrize("d", [3])
def test_welzl_random_sets_match_recursive_reference(d):
    rng = np.random.default_rng(40 + d)
    for n in range(1, 61):
        for _ in range(6):
            _assert_same_ball(rng.normal(size=(n, d)))
        # Anisotropic and uniform sets.
        _assert_same_ball(rng.normal(size=(n, d)) * rng.uniform(0.01, 10.0, size=d))
        _assert_same_ball(rng.uniform(-1.0, 1.0, size=(n, d)))


@pytest.mark.parametrize("d", [3])
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
        # Cocircular: points on a great circle.
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
    got = _trivial_ball(pts.tolist(), boundary)
    want = _ref_trivial_ball([tuple(row) for row in pts], boundary, pts.shape[1])
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want[:-1]]


@pytest.mark.parametrize("d", [3])
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
        # The former per-set formula, kept as the reference.
        want = [max(bbox_diameter(pts), float(np.abs(pts).max()), 1.0) for pts in stack]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert [coordinate_scale(pts) for pts in stack] == got
        if d == 3:
            for pts, scale in zip(stack[:8], got):
                a, b = welzl_ball(pts, scale), welzl_ball(pts)
                assert (a.center.tobytes(), a.radius) == (b.center.tobytes(), b.radius)


# --------------------------------------------------------------------------
# The one-loop-per-level Welzl and the generic subset search, before the
# straight-line boundary balls.


def _ref_midpoint(a, b, d):
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2]))


def _ref_subsets(m, size):
    return tuple(
        (s, tuple(t for t in range(m) if t not in s))
        for s in itertools.combinations(range(m), size)
    )


_REF_PAIRS = {m: _ref_subsets(m, 2) for m in (3, 4)}
_REF_TRIPLES = {m: _ref_subsets(m, 3) for m in (3, 4)}


def _ref_circumsphere_coords(a, b, c, d4):
    rows = []
    rhs = []
    aa = sum(x * x for x in a)
    for p in (b, c, d4):
        rows.append([2.0 * (p[t] - a[t]) for t in range(3)])
        rhs.append(sum(x * x for x in p) - aa)
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = rows
    det = (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )
    scale = max(abs(v) for row in rows for v in row) or 1e-300
    if abs(det) <= 1e-12 * scale**3:
        return None
    r1, r2_, r3 = rhs
    x = (
        r1 * (m22 * m33 - m23 * m32)
        - m12 * (r2_ * m33 - m23 * r3)
        + m13 * (r2_ * m32 - m22 * r3)
    ) / det
    y = (
        m11 * (r2_ * m33 - m23 * r3)
        - r1 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * r3 - r2_ * m31)
    ) / det
    z = (
        m11 * (m22 * r3 - r2_ * m32)
        - m12 * (m21 * r3 - r2_ * m31)
        + r1 * (m21 * m32 - m22 * m31)
    ) / det
    cen = (x, y, z)
    r2v = sum((cen[t] - a[t]) ** 2 for t in range(3))
    return cen, r2v


def _ref_subset_ball(coords, boundary, d):
    m = len(boundary)
    if m == 0:
        return None
    if m == 1:
        p = coords[boundary[0]]
        return (*p, 0.0, (boundary[0],))
    if m == 2:
        a = coords[boundary[0]]
        c = _ref_midpoint(a, coords[boundary[1]], d)
        return (*c, math.sqrt(_ref_dist2(a, c, d)), (boundary[0], boundary[1]))
    pts = [coords[b] for b in boundary]
    best = None
    for (i, j), others in _REF_PAIRS[m]:
        a = pts[i]
        c = _ref_midpoint(a, pts[j], d)
        r2 = _ref_dist2(a, c, d)
        if best is not None and r2 >= best[0]:
            continue
        lim = r2 * (1 + 1e-10) + 1e-12 * (r2 + 1e-300) + 1e-300
        for k in others:
            if _ref_dist2(pts[k], c, d) > lim:
                break
        else:
            best = (r2, c, (boundary[i], boundary[j]))
    if best is None:
        for (i, j, k), others in _REF_TRIPLES[m]:
            sol = _circum3(pts[i], pts[j], pts[k])
            if sol is None:
                continue
            c, r2 = sol
            if best is not None and r2 >= best[0]:
                continue
            lim = r2 * (1 + 1e-10)
            for t in others:
                if _ref_dist2(pts[t], c, d) > lim:
                    break
            else:
                best = (r2, c, (boundary[i], boundary[j], boundary[k]))
    if best is None and m == 4:
        sol = _ref_circumsphere_coords(*pts)
        if sol is not None:
            best = (sol[1], sol[0], tuple(boundary))
    if best is None:
        dmax, (i, j) = -1.0, (0, m - 1)
        for pair, _ in _REF_PAIRS[m]:
            dist = _ref_dist2(pts[pair[0]], pts[pair[1]], d)
            if dist > dmax:
                dmax, (i, j) = dist, pair
        best = (0.25 * dmax, _ref_midpoint(pts[i], pts[j], d), (boundary[i], boundary[j]))
    r2, c, support = best
    return (*c, math.sqrt(r2), support)


def _ref_loop_welzl_ball(pts, scale=None):
    """Move-to-front Welzl with one scan loop per boundary level."""
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    if n == 1:
        return pts[0].copy(), 0.0, (0,)
    coords = pts.tolist()
    if scale is None:
        scale = coordinate_scale(pts)
    slack = _WELZL_REL * scale
    dup2 = (1e-10 * scale) ** 2
    max_boundary = d + 1
    order = list(_fixed_permutation(n))

    def solve(count, boundary):
        if boundary:
            ball = _ref_subset_ball(coords, boundary, d)
            if len(boundary) == max_boundary:
                return ball
            start = 0
        else:
            ball = _ref_subset_ball(coords, order[:1], d)
            start = 1
        r = ball[d] + slack
        lim = r * r
        for i in range(start, count):
            p = order[i]
            q = coords[p]
            if (q[0] - ball[0]) ** 2 + (q[1] - ball[1]) ** 2 + (q[2] - ball[2]) ** 2 <= lim:
                continue
            for b in boundary:
                if _ref_dist2(coords[b], q, d) <= dup2:
                    break
            else:
                ball = solve(i, boundary + [p])
                r = ball[d] + slack
                lim = r * r
                del order[i]
                order.insert(0, p)
        return ball

    result = solve(n, [])
    return np.array(result[:d]), result[d], result[d + 1]


def _assert_same_as_loop(pts, scale=None):
    ball = welzl_ball(pts, scale)
    center, radius, _ = _ref_loop_welzl_ball(pts, scale)
    assert ball.center.tobytes() == center.tobytes()
    assert float(ball.radius).hex() == float(radius).hex()


def _assert_same_as_subset_search(pts, boundary):
    coords = pts.tolist()
    got = _trivial_ball(coords, boundary)
    want = _ref_subset_ball(coords, boundary, pts.shape[1])
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want[:-1]]


def _families(d):
    """The random and degenerate families of the recursive-reference tests."""
    rng = np.random.default_rng(80 + d)
    for n in range(1, 61):
        yield rng.normal(size=(n, d))
        yield rng.normal(size=(n, d)) * rng.uniform(0.01, 10.0, size=d)
        yield rng.uniform(-1.0, 1.0, size=(n, d))
        yield rng.integers(-2, 3, size=(n, d)).astype(float)
        yield rng.integers(-1, 2, size=(n, d)).astype(float)
        yield np.full((n, d), 2.5)
        yield np.outer(rng.integers(-3, 4, size=n).astype(float), rng.normal(size=d))
        theta = 2.0 * np.pi * rng.integers(0, 12, size=n) / 12.0
        ring = np.zeros((n, d))
        ring[:, 0], ring[:, 1] = np.cos(theta), np.sin(theta)
        yield ring
        yield rng.integers(-2, 3, size=(n, d)) + 1e8
        yield rng.normal(size=(n, d)) + 1e8
        yield rng.normal(size=(n, d)) * 1e-9
        yield rng.normal(size=(n, d)) * 1e-9 + 3.0


@pytest.mark.parametrize("d", [3])
def test_welzl_families_match_loop_reference(d):
    for pts in _families(d):
        _assert_same_as_loop(pts)


def _support_stack(count, seed):
    """Sampled supports as the randomized engine draws them: 3-D Gaussian
    cylinder supports with n = 20."""
    uset = cylinder_uncertain_set(CylinderConfig(n=20), seed)
    rngs = [np.random.default_rng([seed, t]) for t in range(count)]
    return draw_supports(uset, rngs)[0]


@pytest.mark.parametrize("d, count", [(3, 2000)])
def test_welzl_sampled_supports_match_loop_reference(d, count):
    stack = _support_stack(count, 90 + d)
    for pts, scale in zip(stack, coordinate_scales(stack)):
        _assert_same_as_loop(pts, scale)
        _assert_same_as_loop(pts)


@pytest.mark.parametrize("d", [3])
def test_welzl_near_duplicates_match_loop_reference(d):
    # A copy of a set's boundary point moved just inside or just outside the
    # duplicate tolerance (1e-10 of the coordinate scale): inside, the copy
    # is skipped; outside, it joins the boundary.
    rng = np.random.default_rng(100 + d)
    for n in (3, 5, 12, 30):
        for _ in range(40):
            pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
            support = _ref_loop_welzl_ball(pts)[2]
            scale = coordinate_scale(pts)
            copies = []
            for b in support:
                direction = rng.normal(size=d)
                direction /= np.linalg.norm(direction)
                for factor in (0.5, 0.999, 1.001, 2.0):
                    copies.append(pts[b] + factor * 1e-10 * scale * direction)
            both = np.vstack([pts, copies])
            _assert_same_as_loop(both)
            _assert_same_as_loop(rng.permutation(both))


@pytest.mark.parametrize("d", [3])
def test_boundaries_on_the_containment_limit_match_subset_search(d):
    # The other points of a boundary placed at squared distance r2 * (1 + t)
    # from a pair's midpoint or a triple's circumcenter, t straddling the
    # containment limits (about 1e-10 relative).
    rng = np.random.default_rng(140 + d)
    for _ in range(3000):
        m = int(rng.integers(3, d + 2))
        pts = rng.normal(size=(m, d))
        if m == 4 and rng.random() < 0.5:
            sol = _circum3(*pts[:3].tolist())
            if sol is None:
                continue
            center, r2, rest = np.array(sol[0]), sol[1], pts[3:]
        else:
            center, rest = 0.5 * (pts[0] + pts[1]), pts[2:]
            r2 = float(np.sum((pts[0] - center) ** 2))
        u = rng.normal(size=rest.shape)
        u /= np.linalg.norm(u, axis=1)[:, None]
        t = 10.0 ** rng.uniform(-11.0, -9.0, size=(len(rest), 1))
        rest[:] = center + u * np.sqrt(r2 * (1.0 + t))
        _assert_same_as_subset_search(pts, rng.permutation(m).tolist())


@pytest.mark.parametrize("d", [3])
def test_degenerate_boundaries_fall_back_like_subset_search(d, monkeypatch):
    # Collinear triples and coplanar quadruples, exact or within noise, where
    # the circumcircle's or circumsphere's determinant test refuses; and
    # boundaries a few ulps apart at large offsets, where rounding makes every
    # pair, circle and sphere fail, so the farthest-pair fallback decides.
    # The fallback runs only where the circumcircle (three points) or the
    # circumsphere (four) was refused.
    fallbacks = set()
    farthest_pair_ball = geometry._farthest_pair_ball

    def counted(pts):
        fallbacks.add(len(pts))
        return farthest_pair_ball(pts)

    monkeypatch.setattr(geometry, "_farthest_pair_ball", counted)
    rng = np.random.default_rng(120 + d)
    for trial in range(6000):
        m = 3 + trial % 2
        u, v = rng.normal(size=d), rng.normal(size=d)
        kind = trial // 2 % 3
        if kind == 0:
            pts = np.outer(rng.integers(-3, 4, size=m).astype(float), u)
        elif kind == 1:
            pts = np.outer(rng.normal(size=m), u) + np.outer(rng.normal(size=m), v)
            pts += rng.normal(size=(m, d)) * 10.0 ** -rng.integers(6, 17)
        else:
            offset = 10.0 ** rng.integers(0, 9)
            pts = offset + np.spacing(offset) * rng.integers(-3, 4, size=(m, d))
        _assert_same_as_subset_search(pts, rng.permutation(m).tolist())
        if trial % 10 == 0:
            _assert_same_as_loop(np.vstack([pts, pts[::-1] + np.spacing(pts[::-1])]))
    assert fallbacks == {3, 4}


def test_circumsphere_matches_generator_sums():
    # Random quadruples, and nearly coplanar ones whose height above the
    # plane of the first three straddles the determinant test.
    rng = np.random.default_rng(130)
    refused = 0
    for _ in range(4000):
        quad = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-3, 4)
        if rng.random() < 0.7:
            quad[:, 2] = 0.0
            quad[3, 2] = 10.0 ** rng.uniform(-14.0, -10.0) * np.abs(quad).max()
        quad = quad @ np.linalg.qr(rng.normal(size=(3, 3)))[0] + rng.normal(size=3)
        got = _circumsphere_coords(*quad.tolist())
        want = _ref_circumsphere_coords(*quad.tolist())
        refused += got is None
        if want is None:
            assert got is None
        else:
            assert [float(x).hex() for x in (*got[0], got[1])] == [
                float(x).hex() for x in (*want[0], want[1])
            ]
    assert 100 < refused < 3000
