import math
from fractions import Fraction

import numpy as np
import pytest

from uqgeom import (
    IndecisivePoint,
    IndecisivePointSet,
    MeasureId,
    NotLPTypeError,
    ResourceCapError,
    ValidationError,
    basis_support_probability,
    brute_force_distribution,
    canonical_jitter,
    deterministic_sip,
    distributions_match,
    enumerate_potential_bases,
    exact_distribution,
)
from uqgeom.montecarlo import SampleBudget, build_random_sip

from conftest import enumerate_supports, group_tolerance, random_indecisive

MEASURES = [
    MeasureId("seb2"),
    MeasureId("aabb_perimeter"),
    MeasureId("aabb_area"),
    MeasureId("dwid", (math.cos(1.0), math.sin(1.0))),
    MeasureId("seb1"),
    MeasureId("sebinf"),
]


def figure_count_instance():
    """Basis hosted by two points (a diametral pair on the unit circle);
    three free points contribute 1, 4 and 2 strictly interior candidates of
    k=4 each, so the basis covers 1*4*2 = 8 supports."""
    far = [(3.0, 0.0), (0.0, 3.0), (-3.0, 1.0)]
    u = (Fraction(1, 4),) * 4
    return IndecisivePointSet(
        (
            IndecisivePoint([(-1.0, 0.0)] + far, u),
            IndecisivePoint([(1.0, 0.0)] + far, u),
            IndecisivePoint([(0.1, 0.2)] + far, u),
            IndecisivePoint(
                [(0.2, 0.1), (-0.3, 0.4), (0.5, -0.1), (-0.2, -0.5)], u
            ),
            IndecisivePoint([(0.6, 0.3), (-0.4, -0.2)] + far[:2], u),
        ),
        2,
    )


def test_figure_basis_counts_eight_supports():
    uset = figure_count_instance()
    m = MeasureId("seb2")
    dist = exact_distribution(uset, m)
    recs = [
        r
        for r in dist.records
        if sorted((mm.point, mm.candidate) for mm in r.basis.members) == [(0, 0), (1, 0)]
    ]
    assert len(recs) == 1
    assert recs[0].probability * 4**5 == 8
    assert abs(recs[0].value - 1.0) < 1e-6


def test_basis_support_probability_direct():
    uset = figure_count_instance()
    m = MeasureId("seb2")
    basis = next(
        b
        for b in enumerate_potential_bases(uset, m)
        if sorted((mm.point, mm.candidate) for mm in b.members) == [(0, 0), (1, 0)]
    )
    assert basis_support_probability(uset, m, basis) == Fraction(8, 4**5)


def test_all_nonmembers_nonviolating_gives_member_product():
    # one huge basis disk containing everything else
    uset = IndecisivePointSet(
        (
            IndecisivePoint([(-5.0, 0.0), (0.1, 0.1)], (Fraction(1, 3), Fraction(2, 3))),
            IndecisivePoint([(5.0, 0.0), (-0.1, 0.2)], (Fraction(1, 2), Fraction(1, 2))),
            IndecisivePoint([(0.0, 1.0), (0.3, -0.8)], (Fraction(1, 4), Fraction(3, 4))),
        ),
        2,
    )
    m = MeasureId("seb2")
    basis = next(
        b
        for b in enumerate_potential_bases(uset, m)
        if sorted((mm.point, mm.candidate) for mm in b.members) == [(0, 0), (1, 0)]
    )
    # both candidates of point 2 lie inside the radius-5 disk
    assert basis_support_probability(uset, m, basis) == Fraction(1, 3) * Fraction(1, 2)


def test_zero_probability_when_no_interior_candidate():
    uset = IndecisivePointSet(
        (
            IndecisivePoint([(-1.0, 0.0)], (Fraction(1),)),
            IndecisivePoint([(1.0, 0.0)], (Fraction(1),)),
            IndecisivePoint([(9.0, 9.0), (-9.0, 9.0)], (Fraction(1, 2), Fraction(1, 2))),
        ),
        2,
    )
    m = MeasureId("seb2")
    basis = next(
        b
        for b in enumerate_potential_bases(uset, m)
        if sorted(mm.point for mm in b.members) == [0, 1]
    )
    assert basis_support_probability(uset, m, basis) == 0


def test_enumerate_bases_n1():
    uset = IndecisivePointSet((IndecisivePoint([(1.0, 1.0)], (Fraction(1),)),), 2)
    bases = list(enumerate_potential_bases(uset, MeasureId("seb2")))
    assert len(bases) == 1 and bases[0].size == 1


def test_enumerate_dwid_pairs_plus_singletons():
    uset = random_indecisive(np.random.default_rng(3), 2, 2)
    m = MeasureId("dwid", (1.0, 0.0))
    bases = list(enumerate_potential_bases(uset, m))
    sizes = sorted(b.size for b in bases)
    # 4 singletons always; pairs validated by distinct projections
    assert sizes.count(1) == 4
    assert all(b.size <= 2 for b in bases)
    # cross-check the pair count by direct enumeration
    jit = canonical_jitter(uset)
    proj = [p.locations @ np.array([1.0, 0.0]) for p in jit.points]
    expected_pairs = sum(
        1 for a in proj[0] for b in proj[1] if abs(a - b) > 0
    )
    assert sizes.count(2) == expected_pairs


def test_exact_single_point_dwid_distribution():
    uset = IndecisivePointSet(
        (
            IndecisivePoint(
                [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)],
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            ),
        ),
        2,
    )
    dist = exact_distribution(uset, MeasureId("dwid", (1.0, 0.0)))
    assert len(dist.collapsed) == 1
    assert dist.collapsed.values[0] == 0.0
    assert dist.collapsed.weights[0] == 1


def test_oracle_equivalence_small_random(rng):
    for _ in range(15):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        uset = random_indecisive(rng, n, k)
        for m in MEASURES:
            ex = exact_distribution(uset, m)
            bf = brute_force_distribution(uset, m)
            assert ex.total_probability == 1
            assert bf.total_probability == 1
            assert distributions_match(ex, bf, group_tolerance(uset, m)), m.kind


def test_oracle_equivalence_degenerate_square():
    sq = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    uset = IndecisivePointSet(
        tuple(
            IndecisivePoint([sq[i], sq[(i + 1) % 4]], (Fraction(1, 2), Fraction(1, 2)))
            for i in range(4)
        ),
        2,
    )
    for m in MEASURES:
        ex = exact_distribution(uset, m)
        bf = brute_force_distribution(uset, m)
        assert ex.total_probability == 1
        assert distributions_match(ex, bf, group_tolerance(uset, m)), m.kind


def test_record_count_within_bound(rng):
    uset = random_indecisive(rng, 4, 3)
    for m in MEASURES:
        ex = exact_distribution(uset, m)
        nk = sum(p.k for p in uset.points)
        from uqgeom.measures import combinatorial_dimension

        assert len(ex.records) <= nk ** combinatorial_dimension(m)
        assert len(ex.collapsed) <= max(len(ex.records), 1)


def test_exact_refuses_diameter():
    uset = random_indecisive(np.random.default_rng(1), 2, 2)
    with pytest.raises(NotLPTypeError, match="#P-hard"):
        exact_distribution(uset, MeasureId("diameter"))
    with pytest.raises(NotLPTypeError):
        list(enumerate_potential_bases(uset, MeasureId("diameter")))


def test_brute_force_diameter_and_cap():
    uset = random_indecisive(np.random.default_rng(2), 2, 2)
    dist = brute_force_distribution(uset, MeasureId("diameter"))
    assert len(dist.collapsed) <= 4
    assert dist.total_probability == 1
    with pytest.raises(ResourceCapError, match="cap"):
        brute_force_distribution(uset, MeasureId("diameter"), cap=3)


def test_exact_cdf_matches_enumeration(rng):
    uset = random_indecisive(rng, 3, 3)
    m = MeasureId("seb2")
    dist = exact_distribution(uset, m)
    jit = canonical_jitter(uset)
    from uqgeom.measures import _seb2_ball_of_members, _seb2_basis_indices

    values = []
    for locs, prob in enumerate_supports(jit):
        idx = _seb2_basis_indices(locs)
        values.append((float(_seb2_ball_of_members(locs[list(idx)]).radius), prob))
    for r in np.quantile([v for v, _ in values], [0.2, 0.5, 0.9]):
        truth = sum((p for v, p in values if v <= r), Fraction(0))
        assert dist.cdf(float(r)) == truth


def test_deterministic_sip_point_disks():
    uset = IndecisivePointSet(
        (IndecisivePoint([(0.0, 0.0), (1.0, 0.0)], (Fraction(1, 2), Fraction(1, 2))),),
        2,
    )
    field = deterministic_sip(uset, MeasureId("seb2"))
    # n=1: every shape is a radius-0 disk at one (jittered) candidate.
    assert all(s.r == 0.0 for s, _ in field.shapes)
    for shape, w in field.shapes:
        assert w == Fraction(1, 2)
        assert field.query_exact((shape.cx, shape.cy)) == Fraction(1, 2)
    assert field.query_exact((0.5, 0.5)) == 0


def test_deterministic_sip_total_and_interior(rng):
    uset = random_indecisive(rng, 3, 2)
    field = deterministic_sip(uset, MeasureId("seb2"))
    total = sum((w for _, w in field.shapes), Fraction(0))
    assert total == 1
    # a point inside every shape queries to exactly 1
    centers = np.array([(s.cx, s.cy) for s, _ in field.shapes])
    radii = np.array([s.r for s, _ in field.shapes])
    probe = centers.mean(axis=0)
    if np.all(np.linalg.norm(centers - probe, axis=1) < radii):
        assert field.query_exact(probe) == 1
    assert field.query((99.0, 99.0)) == 0.0


def test_deterministic_sip_matches_montecarlo(rng):
    uset = canonical_jitter(random_indecisive(rng, 3, 2))
    m = MeasureId("seb2")
    det = deterministic_sip(uset, m)
    mc = build_random_sip(uset, m, SampleBudget(0.05, 0.05, explicit_m=40_000), seed=17)
    grid = np.column_stack(
        [g.ravel() for g in np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))]
    )
    errs = np.abs(det.query_many(grid) - mc.query_many(grid))
    assert errs.max() <= 0.01


def test_keep_records_auto_disable():
    uset = random_indecisive(np.random.default_rng(8), 3, 3)
    dist = exact_distribution(uset, MeasureId("seb2"), keep_records=False)
    assert dist.records == ()
    assert len(dist.collapsed) >= 1


def _record_key(rec):
    members = tuple((m.point, m.candidate, m.location) for m in rec.basis.members)
    return members, rec.value.hex(), rec.probability


@pytest.mark.parametrize("rows", [1, 11])
def test_chunk_boundaries_leave_records_unchanged(monkeypatch, rows):
    import uqgeom.exact as exact_mod

    uset = random_indecisive(np.random.default_rng(21), 4, 3)
    default = {m: exact_distribution(uset, m, keep_records=True) for m in MEASURES}
    chunk_rows = []
    real_chunks = exact_mod._index_chunks

    def recording_chunks(prep):
        for idx in real_chunks(prep):
            chunk_rows.append(idx.shape)
            yield idx

    monkeypatch.setattr(exact_mod, "_CHUNK_CELLS", 0)
    monkeypatch.setattr(exact_mod, "_MIN_CHUNK_ROWS", rows)
    monkeypatch.setattr(exact_mod, "_index_chunks", recording_chunks)
    for m in MEASURES:
        chunk_rows.clear()
        small = exact_distribution(uset, m, keep_records=True)
        # Every basis size spans several chunks, and some chunk has one row.
        sizes = {s for _, s in chunk_rows}
        assert all(sum(1 for _, s2 in chunk_rows if s2 == s) > 1 for s in sizes)
        assert min(r for r, _ in chunk_rows) == 1
        assert [_record_key(r) for r in small.records] == [
            _record_key(r) for r in default[m].records
        ], m.kind
        assert [v.hex() for v in small.collapsed.values.tolist()] == [
            v.hex() for v in default[m].collapsed.values.tolist()
        ]
        assert small.collapsed.weights == default[m].collapsed.weights


def test_basis_support_probability_equals_record_probability(rng):
    uset = random_indecisive(rng, 4, 2)
    for m in MEASURES:
        dist = exact_distribution(uset, m)
        assert dist.records
        for rec in dist.records:
            assert basis_support_probability(uset, m, rec.basis) == rec.probability, m.kind


def test_basis_support_probability_rejects_malformed_bases():
    from uqgeom.measures import Basis, BasisMember

    uset = figure_count_instance()
    m = MeasureId("seb2")

    def basis(*pairs):
        return Basis(m, tuple(BasisMember(i, j, (0.0, 0.0)) for i, j in pairs), 1.0)

    # Out-of-range candidate, repeated point, more members than beta = 3.
    for bad in (basis((0, 0), (1, 4)), basis((0, 0), (0, 1)), basis((0, 0), (1, 1), (2, 2), (3, 3))):
        with pytest.raises(ValidationError):
            basis_support_probability(uset, m, bad)


def test_deterministic_sip_weights_are_nonzero_records_in_order(rng):
    uset = random_indecisive(rng, 4, 3)
    for m in (MeasureId("seb2"), MeasureId("aabb_perimeter"), MeasureId("aabb_area")):
        field = deterministic_sip(uset, m)
        records = exact_distribution(uset, m, keep_records=True).records
        weights = [w for _, w in field.shapes]
        assert sum(weights, Fraction(0)) == 1
        assert weights == [r.probability for r in records]
        if m.kind == "seb2":
            assert [s.r for s, _ in field.shapes] == [r.value for r in records]


def test_huge_weight_denominators_match_oracle():
    # A denominator beyond int64 range takes the exact-integer mass path.
    tiny = Fraction(1, 3 * 2**62)
    uset = random_indecisive(np.random.default_rng(5), 3, 3)
    points = list(uset.points)
    points[0] = IndecisivePoint(points[0].locations, (tiny, Fraction(1, 3), Fraction(2, 3) - tiny))
    uset = IndecisivePointSet(tuple(points), 2)
    for m in MEASURES:
        ex = exact_distribution(uset, m)
        bf = brute_force_distribution(uset, m)
        assert ex.total_probability == 1
        assert distributions_match(ex, bf, group_tolerance(uset, m)), m.kind


def _eager_records(uset, m):
    """Reference: every nonzero basis's record, built while counting, as the
    engine did before records were built on first read."""
    import uqgeom.exact as exact_mod

    prep = exact_mod._Prepared(uset, m)
    return tuple(
        exact_mod.BasisRecord(
            exact_mod._basis_object(prep, row, value), Fraction(num, prep.total_denom), value
        )
        for row, value, _, num in exact_mod._counted_bases(prep)
    )


def _lattice_indecisive(rng, n, k):
    points = []
    for _ in range(n):
        locs = rng.integers(-3, 4, size=(k, 2)).astype(float)
        cuts = [int(c) for c in rng.integers(1, 6, size=k)]
        points.append(IndecisivePoint(locs, tuple(Fraction(c, sum(cuts)) for c in cuts)))
    return IndecisivePointSet(tuple(points), 2)


@pytest.mark.parametrize("kind", ["generic", "lattice"])
def test_lazy_records_equal_eager_records(kind):
    rng = np.random.default_rng(31)
    make = random_indecisive if kind == "generic" else _lattice_indecisive
    for n, k in ((1, 3), (3, 2), (4, 3)):
        uset = make(rng, n, k)
        for m in MEASURES:
            want = _eager_records(uset, m)
            for keep in (True, None):
                dist = exact_distribution(uset, m, keep_records=keep)
                got = dist.records
                assert [_record_key(r) for r in got] == [_record_key(r) for r in want], m.kind
                assert all(r.basis.measure == m for r in got)
                assert [r.basis.value.hex() for r in got] == [r.basis.value.hex() for r in want]
                assert dist.records is got
            assert exact_distribution(uset, m, keep_records=False).records == ()


def test_total_probability_without_records():
    uset = IndecisivePointSet(
        (
            IndecisivePoint([(0.0, 0.0), (1.0, 2.0)], (Fraction(1, 3), Fraction(2, 3))),
            IndecisivePoint([(2.0, 1.0), (-1.0, 0.5)], (Fraction(1, 2), Fraction(1, 2))),
        ),
        2,
    )
    for m in MEASURES:
        for keep in (True, False, None):
            dist = exact_distribution(uset, m, keep_records=keep)
            assert dist.total_probability == 1
            # Summing the collapsed weights leaves the records unbuilt.
            assert "records" not in vars(dist)
            assert sum((r.probability for r in dist.records), Fraction(0)) == (0 if keep is False else 1)
        bf = brute_force_distribution(uset, m)
        assert bf.total_probability == 1
        assert sum((r.probability for r in bf.records), Fraction(0)) == 1
