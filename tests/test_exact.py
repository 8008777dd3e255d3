import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqgeom import (
    ConservationError,
    IndecisivePoint,
    IndecisivePointSet,
    MeasureId,
    NotLPTypeError,
    ResourceCapError,
    ValidationError,
    brute_force_distribution,
    canonical_jitter,
    deterministic_sip,
    distributions_match,
    enumerate_potential_bases,
    exact_distribution,
    tolerance,
)
from uqgeom.geometry import coordinate_scale
from uqgeom.montecarlo import SampleBudget, build_random_sip
from uqgeom.quantize import quantization_to_csv

from conftest import bbox_diameter, enumerate_supports, exact_quantization, group_tolerance, random_indecisive

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


def _basis_key(basis):
    return sorted((mm.point, mm.candidate) for mm in basis.members)


def _record_probability(uset, m, basis):
    """Probability of the exact engine's record of this basis, 0 when it
    has none: only bases that some support realizes get a record."""
    recs = [r for r in exact_distribution(uset, m).records if _basis_key(r.basis) == _basis_key(basis)]
    assert len(recs) <= 1
    return recs[0].probability if recs else 0


def test_basis_support_probability_direct():
    uset = figure_count_instance()
    m = MeasureId("seb2")
    basis = next(b for b in enumerate_potential_bases(uset, m) if _basis_key(b) == [(0, 0), (1, 0)])
    assert _record_probability(uset, m, basis) == Fraction(8, 4**5)


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
    basis = next(b for b in enumerate_potential_bases(uset, m) if _basis_key(b) == [(0, 0), (1, 0)])
    # both candidates of point 2 lie inside the radius-5 disk
    assert _record_probability(uset, m, basis) == Fraction(1, 3) * Fraction(1, 2)


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
    # A valid basis that no support realizes has no record.
    assert _record_probability(uset, m, basis) == 0


def test_enumerate_bases_n1():
    uset = IndecisivePointSet((IndecisivePoint([(1.0, 1.0)], (Fraction(1),)),), 2)
    bases = list(enumerate_potential_bases(uset, MeasureId("seb2")))
    assert len(bases) == 1 and len(bases[0].members) == 1


def test_enumerate_dwid_pairs_plus_singletons():
    uset = random_indecisive(np.random.default_rng(3), 2, 2)
    m = MeasureId("dwid", (1.0, 0.0))
    bases = list(enumerate_potential_bases(uset, m))
    sizes = sorted(len(b.members) for b in bases)
    # 4 singletons always; pairs validated by distinct projections
    assert sizes.count(1) == 4
    assert all(len(b.members) <= 2 for b in bases)
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
            assert sum(ex.collapsed.weights) == 1
            assert sum(bf.collapsed.weights) == 1
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
        assert sum(ex.collapsed.weights) == 1
        assert distributions_match(ex, bf, group_tolerance(uset, m)), m.kind


def _zero_extent_set(rng):
    """n = 1-4 points of k = 1-3 candidates each, every candidate at one
    integer point, with random integer weights."""
    c = tuple(float(v) for v in rng.integers(-3, 4, size=2))
    points = []
    for _ in range(int(rng.integers(1, 5))):
        w = rng.integers(1, 5, size=int(rng.integers(1, 4))).tolist()
        points.append(IndecisivePoint([c] * len(w), tuple(Fraction(x, sum(w)) for x in w)))
    return IndecisivePointSet(tuple(points), 2)


def test_oracle_equivalence_zero_extent_sets():
    # The tolerance of a zero-extent set is positive, floored at the jitter
    # span, but the engine and the oracle are compared at 0.0: they must
    # give the jittered values the same bits, as both project dwid with
    # x * u0 + y * u1.  No measure refuses them: aabb-area bases are decided
    # by the extremes a drop moves, not by a drop in area, which is 0 here.
    rng = np.random.default_rng(0)
    for _ in range(50):
        uset = _zero_extent_set(rng)
        for m in MEASURES + [MeasureId.parse("dwid:0.6,0.8")]:
            assert tolerance(uset.all_locations(), m) > 0
            ex = exact_distribution(uset, m)
            assert distributions_match(ex, brute_force_distribution(uset, m), 0.0), str(m)


def test_distributions_match_refuses_bad_tolerances():
    def perimeters(xs):
        # aabb-perimeters 2x of the pairs (0, 0), (x, 0).
        far = IndecisivePoint([(x, 0.0) for x in xs], (Fraction(1, len(xs)),) * len(xs))
        uset = IndecisivePointSet((IndecisivePoint([(0.0, 0.0)], (Fraction(1),)), far), 2)
        return exact_distribution(uset, MeasureId("aabb_perimeter"))

    a, b = perimeters([1.0, 2.0, 3.0, 4.0]), perimeters([1.0, 6.0, 11.0])
    assert not distributions_match(a, b, 1e-9)
    assert distributions_match(a, a, 0.0)
    # A NaN or infinite tolerance made any two distributions match.
    for tol in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(ValueError, match="tol"):
            distributions_match(a, b, tol)


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


def test_brute_force_diameter_and_cap(monkeypatch):
    import uqgeom.exact as exact_mod

    uset = random_indecisive(np.random.default_rng(2), 2, 2)
    dist = brute_force_distribution(uset, MeasureId("diameter"))
    assert len(dist.collapsed) <= 4
    assert sum(dist.collapsed.weights) == 1
    monkeypatch.setattr(exact_mod, "_SUPPORT_CAP", 3)
    with pytest.raises(ResourceCapError, match="instance has 4 supports, exceeding the cap of 3"):
        brute_force_distribution(uset, MeasureId("diameter"))


def test_exact_cdf_matches_enumeration(rng):
    # The exact referee over every support of the jittered set the engine
    # itself solves.
    uset = random_indecisive(rng, 3, 3)
    m = MeasureId("seb2")
    dist = exact_distribution(uset, m)
    ref = _referee_distribution(canonical_jitter(uset))
    assert distributions_match(dist, ref, group_tolerance(uset, m))


def test_deterministic_sip_point_disks():
    uset = IndecisivePointSet(
        (IndecisivePoint([(0.0, 0.0), (1.0, 0.0)], (Fraction(1, 2), Fraction(1, 2))),),
        2,
    )
    field = deterministic_sip(uset, MeasureId("seb2"))
    # n=1: every shape is a radius-0 disk at one (jittered) candidate.
    assert (field.params[:, 2] == 0.0).all()
    for (cx, cy, _), num in zip(field.params.tolist(), field.numerators.tolist()):
        assert Fraction(num, field.denominator) == Fraction(1, 2)
        assert field.query_exact((cx, cy)) == Fraction(1, 2)
    assert field.query_exact((0.5, 0.5)) == 0


def test_deterministic_sip_total_and_interior(rng):
    uset = random_indecisive(rng, 3, 2)
    field = deterministic_sip(uset, MeasureId("seb2"))
    total = Fraction(sum(field.numerators.tolist()), field.denominator)
    assert total == 1
    # a point inside every shape queries to exactly 1
    centers, radii = field.params[:, :2], field.params[:, 2]
    probe = centers.mean(axis=0)
    if np.all(np.linalg.norm(centers - probe, axis=1) < radii):
        assert field.query_exact(probe) == 1
    assert field.query_many([(99.0, 99.0)])[0] == 0.0


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


def _record_key(rec):
    members = tuple((m.point, m.candidate, m.location) for m in rec.basis.members)
    return members, rec.value.hex(), rec.probability


@pytest.mark.parametrize("rows", [1, 11])
def test_chunk_boundaries_leave_records_unchanged(monkeypatch, rows):
    import uqgeom.exact as exact_mod

    uset = random_indecisive(np.random.default_rng(21), 4, 3)
    default = {m: exact_distribution(uset, m) for m in MEASURES}
    # Records are built on first read: read them before the chunks change.
    default_keys = {m: [_record_key(r) for r in d.records] for m, d in default.items()}
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
        small = exact_distribution(uset, m)
        # Every basis size spans several chunks, and some chunk has one row.
        sizes = {s for _, s in chunk_rows}
        assert all(sum(1 for _, s2 in chunk_rows if s2 == s) > 1 for s in sizes)
        assert min(r for r, _ in chunk_rows) == 1
        assert [_record_key(r) for r in small.records] == default_keys[m], m.kind
        assert [v.hex() for v in small.collapsed.values.tolist()] == [
            v.hex() for v in default[m].collapsed.values.tolist()
        ]
        assert small.collapsed.weights == default[m].collapsed.weights


def test_deterministic_sip_weights_are_nonzero_records_in_order(rng):
    uset = random_indecisive(rng, 4, 3)
    for m in (MeasureId("seb2"), MeasureId("aabb_perimeter"), MeasureId("aabb_area")):
        field = deterministic_sip(uset, m)
        records = exact_distribution(uset, m).records
        weights = [Fraction(num, field.denominator) for num in field.numerators.tolist()]
        assert sum(weights, Fraction(0)) == 1
        assert weights == [r.probability for r in records]
        if m.kind == "seb2":
            assert field.params[:, 2].tolist() == [r.value for r in records]


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
        assert sum(ex.collapsed.weights) == 1
        assert distributions_match(ex, bf, group_tolerance(uset, m)), m.kind


def _eager_records(uset, m):
    """Reference: every nonzero basis's record, built while counting, as the
    engine did before records were built on first read."""
    import uqgeom.exact as exact_mod

    prep = exact_mod._Prepared(uset, m)
    return tuple(
        exact_mod.BasisRecord(
            exact_mod._basis_object(prep, row, value), Fraction(num, prep.jset.denominator), value
        )
        for idx, values, _, nums in exact_mod._counted_bases(prep)
        for row, value, num in zip(idx.tolist(), values.tolist(), nums.tolist())
    )


def _unequal_k_indecisive(rng, ks, lattice):
    points = []
    for k in ks:
        locs = rng.integers(-3, 4, size=(k, 2)).astype(float) if lattice else rng.uniform(-1, 1, (k, 2))
        cuts = [int(c) for c in rng.integers(1, 6, size=k)]
        points.append(IndecisivePoint(locs, tuple(Fraction(c, sum(cuts)) for c in cuts)))
    return IndecisivePointSet(tuple(points), 2)


def _lattice_indecisive(rng, n, k):
    return _unequal_k_indecisive(rng, (k,) * n, lattice=True)


@pytest.mark.parametrize("kind", ["generic", "lattice"])
def test_lazy_records_equal_eager_records(kind):
    rng = np.random.default_rng(31)
    make = random_indecisive if kind == "generic" else _lattice_indecisive
    for n, k in ((1, 3), (3, 2), (4, 3)):
        uset = make(rng, n, k)
        for m in MEASURES:
            want = _eager_records(uset, m)
            dist = exact_distribution(uset, m)
            got = dist.records
            assert [_record_key(r) for r in got] == [_record_key(r) for r in want], m.kind
            assert all(r.basis.measure == m for r in got)
            assert [r.basis.value.hex() for r in got] == [r.basis.value.hex() for r in want]
            assert dist.records is got


def test_total_probability_without_records():
    uset = IndecisivePointSet(
        (
            IndecisivePoint([(0.0, 0.0), (1.0, 2.0)], (Fraction(1, 3), Fraction(2, 3))),
            IndecisivePoint([(2.0, 1.0), (-1.0, 0.5)], (Fraction(1, 2), Fraction(1, 2))),
        ),
        2,
    )
    for m in MEASURES:
        dist = exact_distribution(uset, m)
        assert sum(dist.collapsed.weights) == 1
        # Summing the collapsed weights leaves the records unbuilt.
        assert "records" not in vars(dist)
        assert sum((r.probability for r in dist.records), Fraction(0)) == 1
        bf = brute_force_distribution(uset, m)
        assert sum(bf.collapsed.weights) == 1
        assert sum((r.probability for r in bf.records), Fraction(0)) == 1


def test_records_of_an_instance_past_200k_potential_bases():
    # The engine used to drop the records of instances this large.
    import uqgeom.exact as exact_mod

    uset = random_indecisive(np.random.default_rng(5), 13, 4)
    m = MeasureId("aabb_perimeter")
    prep = exact_mod._Prepared(uset, m)
    assert exact_mod.combo_count(prep.jset.ks.tolist(), prep.beta) > 200_000
    dist = exact_distribution(uset, m)
    assert dist.records
    assert sum((r.probability for r in dist.records), Fraction(0)) == 1
    agg = {}
    for r in dist.records:
        agg[r.value] = agg.get(r.value, 0) + r.probability.numerator * (
            prep.jset.denominator // r.probability.denominator
        )
    _assert_same_quantization(dist.collapsed, _dict_collapse(agg, prep.jset.denominator, prep.group_tol))


# --------------------------------------------------------------------------
# Collapse and CSV from integer numerators against the dict and Fraction
# references they replaced


def _dict_collapse(agg: dict, total_denom: int, group_tol: float):
    """Reference: the former collapse of a value -> numerator dict (equal
    values, 0.0 and -0.0 among them, already merged under the first key)."""
    from uqgeom import Quantization1D

    vals, nums = [], []
    prev = None
    for v, num in sorted(agg.items()):
        if prev is not None and v - prev <= group_tol:
            nums[-1] += num
        else:
            vals.append(v)
            nums.append(num)
        prev = v
    return Quantization1D.from_numerators(np.array(vals), nums, total_denom)


def _fraction_csv(q) -> str:
    """Reference: the former exact CSV writer, one row per Fraction weight."""
    lines = ["value,weight,cumulative,weight_exact"]
    denom = math.lcm(*(w.denominator for w in q.weights))
    num = 0
    for v, w in zip(q.values, q.weights):
        num += w.numerator * (denom // w.denominator)
        lines.append(f"{v:.17g},{float(w):.17g},{num / denom:.17g},{w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"


def _assert_same_quantization(got, want):
    assert [v.hex() for v in got.values.tolist()] == [v.hex() for v in want.values.tolist()]
    assert got.weights == want.weights
    assert all(type(w) is Fraction for w in got.weights)


def test_collapse_signed_zeros_and_tolerance_steps_match_dict():
    import uqgeom.exact as exact_mod

    cases = [
        ([0.0, -0.0, 1.0], 0.0),
        ([-0.0, 0.0, 1.0], 0.0),
        ([1.0, -0.0, 0.0, -0.0], 0.5),
        # Consecutive gaps of exactly the tolerance chain into one group.
        ([0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 2.25 + 2**-50], 0.25),
        ([2.0, 0.5, 0.25, 0.0, 0.5, 1.25, 1.0], 0.25),
    ]
    rng = np.random.default_rng(12)
    pool = [0.0, -0.0, 0.125, 0.25, 0.375, 0.75, 1.0, 1.0 + 2**-52]
    cases += [(rng.choice(pool, size=int(rng.integers(1, 12))).tolist(), 0.125) for _ in range(200)]
    for values, tol in cases:
        nums = [int(x) for x in rng.integers(1, 10**6, size=len(values))]
        agg = {}
        for v, num in zip(values, nums):
            agg[v] = agg.get(v, 0) + num
        total = sum(nums)
        got = exact_mod._collapse(*exact_mod._merge_equal(np.array(values), np.array(nums)), total, tol)
        _assert_same_quantization(got, _dict_collapse(agg, total, tol))
        assert quantization_to_csv(got) == _fraction_csv(_dict_collapse(agg, total, tol))


def _cocircular_set():
    # Every candidate lies on the circle of radius sqrt(5) about the origin.
    ring = [(1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)]
    return _lattice_set([ring[0:3], ring[3:5], ring[5:8]], [[1, 2, 3], [1, 1], [2, 3, 4]])


def _huge_denominator_set():
    tiny = Fraction(1, 3 * 2**62)
    uset = random_indecisive(np.random.default_rng(5), 3, 3)
    points = list(uset.points)
    points[0] = IndecisivePoint(points[0].locations, (tiny, Fraction(1, 3), Fraction(2, 3) - tiny))
    return IndecisivePointSet(tuple(points), 2)


@pytest.mark.parametrize("kind", ["generic", "lattice", "cocircular", "huge-denominator"])
def test_exact_csv_from_numerators_matches_fraction_writer(kind):
    import uqgeom.exact as exact_mod

    make = {
        "generic": lambda: random_indecisive(np.random.default_rng(19), 4, 3),
        "lattice": lambda: _lattice_indecisive(np.random.default_rng(19), 4, 3),
        "cocircular": _cocircular_set,
        "huge-denominator": _huge_denominator_set,
    }[kind]
    uset = make()
    for m in MEASURES:
        prep = exact_mod._Prepared(uset, m)
        # No measure refuses these sets, the lattice one included.
        dist = exact_distribution(uset, m)
        # The dict the engine used to fill, in basis order, from the records.
        agg = {}
        for r in dist.records:
            agg[r.value] = agg.get(r.value, 0) + r.probability.numerator * (
                prep.jset.denominator // r.probability.denominator
            )
        want = _dict_collapse(agg, prep.jset.denominator, prep.group_tol)
        _assert_same_quantization(dist.collapsed, want)
        assert quantization_to_csv(dist.collapsed) == _fraction_csv(want), m.kind
        bf = brute_force_distribution(uset, m)
        agg = {r.value: r.probability.numerator * (prep.jset.denominator // r.probability.denominator) for r in bf.records}
        assert quantization_to_csv(bf.collapsed) == _fraction_csv(
            _dict_collapse(agg, prep.jset.denominator, prep.group_tol)
        ), m.kind


# --------------------------------------------------------------------------
# Brute-force oracle: array enumeration against the per-support loop


def _loop_oracle(uset, m):
    """Reference: the oracle's former loop, one support at a time in
    itertools.product order, for every measure but seb2; dwid projects
    elementwise, as the exact engine does.  Returns the
    value -> numerator map, the common denominator and the group tolerance."""
    import itertools

    from uqgeom.measures import value_scale

    jset = canonical_jitter(uset)
    n = jset.n
    kind = m.kind
    pts_arrays = [p.locations for p in jset.points]
    denoms = [math.lcm(*(w.denominator for w in p.weights)) for p in jset.points]
    wints = [[int(w * d) for w in p.weights] for p, d in zip(jset.points, denoms)]
    total_denom = math.prod(denoms)
    group_tol = 1e-9 * value_scale(m, bbox_diameter(jset.all_locations()))
    if kind == "dwid":
        u0, u1 = m.direction
        projs = [arr[:, 0] * u0 + arr[:, 1] * u1 for arr in pts_arrays]
    agg = {}
    buf = np.empty((n, 2))
    for choice in itertools.product(*[range(p.k) for p in jset.points]):
        num = 1
        for i, j in enumerate(choice):
            num *= wints[i][j]
            buf[i] = pts_arrays[i][j]
        if kind == "dwid":
            t = [projs[i][j] for i, j in enumerate(choice)]
            value = max(t) - min(t)
        elif kind == "diameter":
            if n == 1:
                value = 0.0
            else:
                diff = buf[:, None, :] - buf[None, :, :]
                value = float(np.sqrt((diff * diff).sum(axis=2)).max())
        else:
            ex = buf[:, 0].max() - buf[:, 0].min()
            ey = buf[:, 1].max() - buf[:, 1].min()
            if kind == "aabb_perimeter":
                value = 2.0 * (ex + ey)
            elif kind == "aabb_area":
                value = ex * ey
            elif kind == "sebinf":
                value = max(ex, ey) / 2.0
            else:  # seb1
                s = buf[:, 0] + buf[:, 1]
                t = buf[:, 1] - buf[:, 0]
                value = max(s.max() - s.min(), t.max() - t.min()) / 2.0
        value = float(value)
        agg[value] = agg.get(value, 0) + num
    return agg, total_denom, group_tol


LOOP_MEASURES = [m for m in MEASURES if m.kind != "seb2"] + [MeasureId("diameter")]


def _assert_matches_loop(uset, m):
    import uqgeom.exact as exact_mod

    agg, total_denom, group_tol = _loop_oracle(uset, m)
    want = _dict_collapse(agg, total_denom, group_tol)
    got = brute_force_distribution(uset, m)
    assert [v.hex() for v in got.collapsed.values.tolist()] == [v.hex() for v in want.values.tolist()], m.kind
    assert got.collapsed.weights == want.weights, m.kind
    assert quantization_to_csv(got.collapsed) == _fraction_csv(want), m.kind
    assert [(r.basis, r.value.hex(), r.probability) for r in got.records] == [
        (None, v.hex(), Fraction(num, total_denom)) for v, num in sorted(agg.items())
    ], m.kind


@pytest.mark.parametrize("lattice", [False, True], ids=["generic", "lattice"])
def test_oracle_bits_match_support_loop(lattice):
    rng = np.random.default_rng(41)
    # n = 1, k = 1 everywhere, equal and unequal k.
    for ks in ((1,), (4,), (1, 1, 1), (3, 3), (2, 3, 3), (1, 3, 2, 1), (3, 1, 2, 2, 3)):
        uset = _unequal_k_indecisive(rng, ks, lattice)
        for m in LOOP_MEASURES:
            _assert_matches_loop(uset, m)


@pytest.mark.parametrize("rows", [1, 7])
def test_oracle_chunk_boundaries_keep_bits(monkeypatch, rows):
    import uqgeom.exact as exact_mod

    chunk_rows = []
    real_rows = exact_mod._candidate_rows

    def recording_rows(plan, r):
        for idx in real_rows(plan, r):
            chunk_rows.append(idx.shape)
            yield idx

    rng = np.random.default_rng(43)
    usets = [_unequal_k_indecisive(rng, (3, 2, 3, 2), lattice) for lattice in (False, True)]
    seb2 = MeasureId("seb2")
    default_seb2 = [brute_force_distribution(uset, seb2) for uset in usets]
    monkeypatch.setattr(exact_mod, "_CHUNK_CELLS", 0)
    monkeypatch.setattr(exact_mod, "_MIN_CHUNK_ROWS", rows)
    monkeypatch.setattr(exact_mod, "_candidate_rows", recording_rows)
    for uset, want in zip(usets, default_seb2):
        for m in LOOP_MEASURES:
            chunk_rows.clear()
            _assert_matches_loop(uset, m)
            # The 36 supports span several chunks, the last one partial.
            assert len(chunk_rows) == -(-36 // rows) and chunk_rows[-1][0] == 36 - rows * (len(chunk_rows) - 1)
        # seb2's pair and triple tables are cut into chunks as well.
        chunk_rows.clear()
        got = brute_force_distribution(uset, seb2)
        assert {s for _, s in chunk_rows} == {2, 3, 4} and len(chunk_rows) > 3
        assert [r.value.hex() for r in got.records] == [r.value.hex() for r in want.records]
        assert [r.probability for r in got.records] == [r.probability for r in want.records]


def test_oracle_huge_denominator_object_path_keeps_bits():
    tiny = Fraction(1, 3 * 2**62)
    uset = random_indecisive(np.random.default_rng(5), 3, 3)
    points = list(uset.points)
    points[1] = IndecisivePoint(points[1].locations, (tiny, Fraction(1, 3), Fraction(2, 3) - tiny))
    uset = IndecisivePointSet(tuple(points), 2)
    for m in LOOP_MEASURES:
        _assert_matches_loop(uset, m)


def test_oracle_checks_cap_and_dimension_before_allocating(monkeypatch):
    import uqgeom.exact as exact_mod

    def fail(*args, **kwargs):
        raise AssertionError("allocated before the checks")

    monkeypatch.setattr(exact_mod, "canonical_jitter", fail)
    monkeypatch.setattr(exact_mod, "_candidate_rows", fail)
    # 2**64 supports: any allocation proportional to them would not fit.
    u = (Fraction(1, 2), Fraction(1, 2))
    huge = IndecisivePointSet(tuple(IndecisivePoint([(i, 0.0), (i, 1.0)], u) for i in range(64)), 2)
    for m in (MeasureId("seb2"), MeasureId("aabb_perimeter"), MeasureId("diameter")):
        with pytest.raises(ResourceCapError, match="has 18446744073709551616 supports, exceeding the cap of 1000000$"):
            brute_force_distribution(huge, m)
    flat3 = IndecisivePointSet((IndecisivePoint([(0.0, 0.0, 1.0)], (Fraction(1),)),), 3)
    with pytest.raises(ValidationError, match="d=2"):
        brute_force_distribution(flat3, MeasureId("diameter"))


@pytest.mark.parametrize(
    "entry",
    [exact_distribution, deterministic_sip, lambda uset, m: next(enumerate_potential_bases(uset, m))],
    ids=["exact_distribution", "deterministic_sip", "enumerate_potential_bases"],
)
def test_exact_entry_points_refuse_past_the_basis_cap_before_the_jitter(entry, monkeypatch):
    import tracemalloc

    import uqgeom.exact as exact_mod

    def fail(*args, **kwargs):
        raise AssertionError("jittered before the cap was checked")

    # 8 points of 30 candidates: 240 + 28 * 900 + 56 * 27000 seb2 potential
    # bases, whose enumeration takes several megabytes of chunks.
    uset = random_indecisive(np.random.default_rng(3), 8, 30)
    monkeypatch.setattr(exact_mod, "canonical_jitter", fail)
    monkeypatch.setattr(exact_mod, "_BASIS_CAP", 1_537_439)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="enumerate 1537440 potential bases, exceeding the cap of 1537439$"):
            entry(uset, MeasureId("seb2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_library_call_past_the_basis_cap_is_refused_at_once():
    # 2.84e8 seb2 potential bases: once a call that ran on with no refusal.
    uset = random_indecisive(np.random.default_rng(1), 200, 6)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="potential bases, exceeding the cap of 120000000$"):
        exact_distribution(uset, MeasureId("seb2"))
    assert time.perf_counter() - start < 1.0


def test_enumerate_potential_bases_refuses_at_the_call(monkeypatch):
    import uqgeom.exact as exact_mod
    from uqgeom import ContinuousUncertainSet, PointMassPoint

    uset = random_indecisive(np.random.default_rng(3), 3, 4)
    # No basis is asked for: each call is refused before it returns.
    with pytest.raises(NotLPTypeError, match="diameter is not LP-type"):
        enumerate_potential_bases(uset, MeasureId("diameter"))
    cset = ContinuousUncertainSet((PointMassPoint((0.0, 0.0)), PointMassPoint((1.0, 0.0))), 2)
    with pytest.raises(ValidationError, match="need an indecisive point set"):
        enumerate_potential_bases(cset, MeasureId("seb2"))
    # 3 x 4 single candidates and 3 x 16 pairs.
    monkeypatch.setattr(exact_mod, "_BASIS_CAP", 59)
    with pytest.raises(ResourceCapError, match="enumerate 60 potential bases, exceeding the cap of 59$"):
        enumerate_potential_bases(uset, MeasureId("dwid", (1.0, 0.0)))
    monkeypatch.setattr(exact_mod, "_BASIS_CAP", 60)
    assert 12 < len(list(enumerate_potential_bases(uset, MeasureId("dwid", (1.0, 0.0))))) <= 60


# --------------------------------------------------------------------------
# seb2 oracle against an exact referee


def _seb2_referee_sq(pts) -> Fraction:
    """Exact squared radius of the smallest enclosing disk of planar
    points, read exactly from their floats: the largest over pairs (half
    the distance) and strictly acute triples (the circumcircle); any other
    triple's disk is a pair's."""
    from itertools import combinations

    pts = [tuple(Fraction(c) for c in p) for p in pts]
    best = Fraction(0)

    def sq(a, b):
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

    for a, b in combinations(pts, 2):
        best = max(best, sq(a, b) / 4)
    for a, b, c in combinations(pts, 3):
        dots = [
            (q[0] - v[0]) * (r[0] - v[0]) + (q[1] - v[1]) * (r[1] - v[1])
            for v, q, r in ((a, b, c), (b, a, c), (c, a, b))
        ]
        if all(d > 0 for d in dots):
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            best = max(best, sq(a, b) * sq(b, c) * sq(c, a) / (4 * cross * cross))
    return best


def _referee_distribution(uset):
    """seb2 distribution over the supports of ``uset`` by the referee."""
    from uqgeom import ExactDistribution

    mass = {}
    for locs, prob in enumerate_supports(uset):
        r2 = _seb2_referee_sq(locs)
        mass[r2] = mass.get(r2, 0) + prob
    items = sorted(mass.items())
    values = np.array([math.sqrt(r2) for r2, _ in items])
    collapsed = exact_quantization(values, [p for _, p in items])
    return ExactDistribution(lambda: (), collapsed, MeasureId("seb2"))


def _lattice_set(coords, weights):
    points = [
        IndecisivePoint(np.array(locs, dtype=float), tuple(Fraction(c, sum(cuts)) for c in cuts))
        for locs, cuts in zip(coords, weights)
    ]
    return IndecisivePointSet(tuple(points), 2)


def test_seb2_cocircular_support_engine_oracle_referee_agree():
    # Four cocircular lattice points; the disk has radius sqrt(10)/2 and
    # (3, -2) lies on it, not outside a radius-sqrt(2) pair disk.
    pts = [(2, -3), (0, -1), (3, -2), (0, -2)]
    uset = _lattice_set([[p] for p in pts], [[1]] * 4)
    m = MeasureId("seb2")
    ex = exact_distribution(uset, m)
    bf = brute_force_distribution(uset, m)
    assert _seb2_referee_sq(pts) == Fraction(10, 4)
    assert abs(bf.collapsed.values[0] - math.sqrt(10) / 2) < 1e-9
    tol = group_tolerance(uset, m)
    assert distributions_match(ex, bf, tol)
    assert distributions_match(bf, _referee_distribution(uset), tol)


# Candidate pools: a lattice, a line, the 12 lattice points of the circle
# x^2 + y^2 = 25 plus its centre, and three points that candidates repeat.
_POOLS = {
    "lattice": [(x, y) for x in range(-3, 4) for y in range(-3, 4)],
    "collinear": [(t, 2 * t - 1) for t in range(-3, 4)],
    "cocircular": [(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (-3, 4), (3, -4), (-3, -4),
                   (4, 3), (-4, 3), (4, -3), (-4, -3), (0, 0)],
    "coincident": [(1, 1), (-2, 0), (1, -2)],
}


@st.composite
def _degenerate_sets(draw, pools=_POOLS):
    pool = pools[draw(st.sampled_from(sorted(pools)))]
    n = draw(st.integers(1, 5))
    ks = [draw(st.integers(1, 3)) for _ in range(n)]
    coords = [[draw(st.sampled_from(pool)) for _ in range(k)] for k in ks]
    weights = [[draw(st.integers(1, 5)) for _ in range(k)] for k in ks]
    return _lattice_set(coords, weights)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_sets())
def test_seb2_oracle_matches_exact_referee(uset):
    bf = brute_force_distribution(uset, MeasureId("seb2"))
    ref = _referee_distribution(uset)
    assert sum(bf.collapsed.weights) == 1
    # The coordinate scale, not the diameter: all candidates may coincide.
    assert distributions_match(bf, ref, 1e-9 * coordinate_scale(uset.all_locations()))


# The pools above plus candidates on one horizontal and one vertical line,
# whose boxes have zero area or share an edge coordinate.  A separate dict,
# so the seb2 test above keeps its draws.
_BOX_POOLS = {**_POOLS, "axis-parallel": [(t, 1) for t in range(-3, 4)] + [(2, t) for t in range(-3, 4) if t != 1]}

_BOX_MEASURES = [MeasureId.parse(m) for m in ("aabb-perimeter", "aabb-area", "sebinf", "seb1", "dwid:0.6,0.8")]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_sets(_BOX_POOLS))
# Coincident candidates on which sebinf minimality with an eps slack on
# (r, cx, cy) loses mass.
@example(_lattice_set(
    [[(1, -2), (1, -2), (-2, 0)], [(-2, 0), (-2, 0), (1, 1)], [(1, 1), (1, -2), (-2, 0)],
     [(1, -2), (-2, 0), (-2, 0)], [(1, 1)]],
    [[1, 1, 3], [1, 1, 4], [1, 4, 1], [3, 2, 1], [2]],
))
def test_box_family_matches_oracle_bit_for_bit_on_degenerate_sets(uset):
    # The box family's bases and interiors are decided by exact comparisons
    # on the jittered floats, so the engine never refuses these sets
    # (ConservationError would fail the test) and agrees with the oracle at
    # tolerance 0.0.
    for m in _BOX_MEASURES:
        ex = exact_distribution(uset, m)
        assert distributions_match(ex, brute_force_distribution(uset, m), 0.0), str(m)


# The lattice and cocircular pools far from the origin and at a tiny
# extent, where a margin relative to the coordinate magnitude would reject
# acute triples and pairs.  A separate dict, so the tests above keep their
# draws.
_FAR_POOLS = {
    f"{name} {how}": [move(x, y) for x, y in _POOLS[name]]
    for name in ("lattice", "cocircular")
    for how, move in (
        ("+1e4", lambda x, y: (x + 1e4, y + 1e4)),
        ("+1e7", lambda x, y: (x + 1e7, y + 1e7)),
        ("*1e-9", lambda x, y: (x * 1e-9, y * 1e-9)),
    )
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_sets(_FAR_POOLS))
# oracle-lattice/n5/33 of the benchmark pool, which a margin refused.
@example(_lattice_set(
    [[(3, -3), (-2, 3), (-3, 1)], [(-2, 0), (-2, -2), (1, -2)], [(-2, 1), (-3, -3), (0, 2)],
     [(1, 2), (-1, 0), (-2, 2)], [(-2, 1), (2, 1), (3, 3)]],
    [[6, 1, 2], [2, 3, 1], [4, 1, 2], [1, 1, 3], [3, 3, 2]],
))
def test_seb2_matches_oracle_at_offsets_and_tiny_extents(uset):
    # seb2 bases and interiors are sign tests on the jittered floats, the
    # oracle's own acute test among them, so the engine does not refuse
    # (ConservationError would fail the test) and agrees with the oracle.
    m = MeasureId("seb2")
    ex = exact_distribution(uset, m)
    assert distributions_match(ex, brute_force_distribution(uset, m), tolerance(uset.all_locations(), m))


@pytest.mark.xfail(strict=True, raises=ConservationError,
                   reason="a candidate inside a circumcircle by less than the float error of the in-disk test")
def test_seb2_cocircular_refusal_left_to_an_exact_in_disk_test():
    # In one support the jittered (-4, -3) lies inside the circumcircle of
    # the acute triple (3, 4), (-4, 3), (0, -5) by 5.3e-15 of r^2 = 25, and
    # the float test reads 0, so that support's mass goes missing.
    uset = _lattice_set(
        [[(3, 4), (3, -4), (0, 5)], [(-3, 4)], [(4, 3), (3, -4), (-3, 4), (-4, -3)],
         [(-3, 4), (4, -3), (-4, 3)], [(-3, -4), (0, -5)]],
        [[1, 1, 1], [2], [3, 3, 2, 3], [1, 4, 2], [1, 3]],
    )
    m = MeasureId("seb2")
    ex = exact_distribution(uset, m)
    assert distributions_match(ex, brute_force_distribution(uset, m), tolerance(uset.all_locations(), m))


# --------------------------------------------------------------------------
# Validation and counting against the former per-drop and reduceat code


def _former_validate(prep, idx):
    """Reference: the validation that rebuilt every drop-one rectangle or
    square from copied column subsets, comparing them exactly."""
    import uqgeom.exact as exact_mod

    kind = prep.measure.kind
    s = idx.shape[1]
    xs = prep.fx[idx]
    ys = prep.fy[idx]
    if kind == "seb2":
        return exact_mod._validate_seb2(idx, xs, ys)

    def moves(c, cols):
        # The subset of columns cols has a smaller maximum or a larger minimum.
        return (c[:, cols].max(axis=1) < c.max(axis=1)) | (c[:, cols].min(axis=1) > c.min(axis=1))

    keep = np.ones(len(idx), dtype=bool)
    if s == 1:
        values = np.zeros(len(idx))
    elif kind in ("dwid", "aabb_perimeter", "aabb_area"):
        # dwid's frame y is 0 throughout, so no drop moves it.
        ex = xs.max(axis=1) - xs.min(axis=1)
        ey = ys.max(axis=1) - ys.min(axis=1)
        values = {"dwid": ex, "aabb_perimeter": 2.0 * (ex + ey), "aabb_area": ex * ey}[kind]
        for drop in range(s):
            cols = [t for t in range(s) if t != drop]
            keep &= moves(xs, cols) | moves(ys, cols)
    else:

        def lex_opt(x, y):
            mx = x.max(axis=1)
            my = y.max(axis=1)
            r = np.maximum(mx - x.min(axis=1), my - y.min(axis=1)) / 2.0
            return r, mx - r, my - r

        values, cx, cy = lex_opt(xs, ys)
        for drop in range(s):
            cols = [t for t in range(s) if t != drop]
            r2, cx2, cy2 = lex_opt(xs[:, cols], ys[:, cols])
            keep &= ~((r2 == values) & (cx2 == cx) & (cy2 == cy))
    idx, xs, ys, values = idx[keep], xs[keep], ys[keep], values[keep]
    if kind == "dwid":
        shapes = np.column_stack([xs.min(axis=1), xs.max(axis=1)])
    elif kind in ("aabb_perimeter", "aabb_area"):
        shapes = np.column_stack([xs.min(axis=1), ys.min(axis=1), xs.max(axis=1), ys.max(axis=1)])
    else:
        w2 = 2.0 * values
        mx = xs.max(axis=1)
        my = ys.max(axis=1)
        shapes = np.column_stack([mx - w2, my - w2, mx, my])
    return idx, values, shapes


def _former_numerators(prep, idx, shapes):
    """Reference: a rows x N strict-interior mask over the flat candidates
    for every chunk, reduced per point with where + reduceat.  Every shape
    compares exactly, with no margin."""
    fx = prep.fx
    fy = prep.fy
    cols = [c[:, None] for c in shapes.T]
    kind = prep.measure.kind
    if kind == "seb2":
        cx, cy, r = cols
        inside = (fx - cx) ** 2 + (fy - cy) ** 2 < r * r
    elif kind == "dwid":
        lo, hi = cols
        inside = (fx > lo) & (fx < hi)
    else:
        x0, y0, x1, y1 = cols
        inside = (fx > x0) & (fx < x1) & (fy > y0) & (fy < y1)
    jset = prep.jset
    masses = np.add.reduceat(np.where(inside, jset.nums, 0), jset.offsets, axis=1)
    masses[np.arange(len(idx))[:, None], jset.point_of[idx]] = jset.nums[idx]
    nonzero = (masses > 0).all(axis=1)
    masses = masses[nonzero]
    if prep.jset.denominator >= 2**63:
        masses = masses.astype(object)
    return nonzero, masses.prod(axis=1)


def _marked(points):
    """The set of ``points`` marked as jittered, so the engines take its
    coordinates as they are."""
    return IndecisivePointSet(tuple(points), 2, jitter_applied=True)


def _shared_projection_set():
    """Five points of three candidates on a 3 x 3 grid, marked jittered:
    candidates of different points coincide, so dwid basis ends share
    their projections with other candidates."""
    rng = np.random.default_rng(50)
    weights = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    return _marked(IndecisivePoint(rng.integers(-1, 2, size=(3, 2)).astype(float), weights) for _ in range(5))


def _zero_extent_marked_set():
    """Four points of one to three candidates, all at one location and
    marked jittered: every shape is empty."""
    return _marked(IndecisivePoint([(1.0, -2.0)] * k, (Fraction(1, k),) * k) for k in (3, 1, 2, 3))


def _wide_denominator_set():
    """Six points whose denominators, about 2**21.2 each, multiply past
    2**63 at the third point (but below 2**64), every one below 2**62."""
    rng = np.random.default_rng(51)
    points = []
    for d in (2_359_297, 2_359_301, 2_359_309, 2_359_319, 2_359_327, 2_359_331):
        cuts = [int(c) for c in rng.integers(1, d // 3, size=2)]
        weights = tuple(Fraction(c, d) for c in (*cuts, d - sum(cuts)))
        points.append(IndecisivePoint(rng.uniform(-1, 1, (3, 2)), weights))
    return IndecisivePointSet(tuple(points), 2)


def _object_weight_set():
    """Five points, the third with a denominator of 3 * 2**62, so every
    weight is a Python int."""
    uset = random_indecisive(np.random.default_rng(52), 5, 3)
    points = list(uset.points)
    tiny = Fraction(1, 3 * 2**62)
    points[2] = IndecisivePoint(points[2].locations, (Fraction(1, 3), tiny, Fraction(2, 3) - tiny))
    return IndecisivePointSet(tuple(points), 2)


_COUNTING_SETS = {
    "generic": lambda: random_indecisive(np.random.default_rng(41), 5, 3),
    "lattice": lambda: _lattice_indecisive(np.random.default_rng(41), 5, 3),
    "unequal-k": lambda: _unequal_k_indecisive(np.random.default_rng(42), (4, 1, 6, 2), lattice=False),
    "unequal-k-lattice": lambda: _unequal_k_indecisive(np.random.default_rng(42), (3, 5, 1, 2, 4), lattice=True),
    "k=1": lambda: random_indecisive(np.random.default_rng(43), 6, 1),
    # n <= beta: the last basis size holds every point.
    "n=2": lambda: random_indecisive(np.random.default_rng(44), 2, 4),
    "n=3-lattice": lambda: _lattice_indecisive(np.random.default_rng(44), 3, 3),
    "n=4-unequal-k": lambda: _unequal_k_indecisive(np.random.default_rng(45), (2, 3, 1, 3), lattice=False),
    "huge-denominator": _huge_denominator_set,
    "shared-projections": _shared_projection_set,
    "zero-extent": _zero_extent_marked_set,
    "wide-denominators": _wide_denominator_set,
    "object-weights": _object_weight_set,
}


def _assert_chunks_match_former(prep, idx):
    import uqgeom.exact as exact_mod

    got = exact_mod._validate(prep, idx)
    want = _former_validate(prep, idx)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    idx, _, shapes = got
    got_nonzero, got_nums = exact_mod._numerators(prep, idx, shapes)
    want_nonzero, want_nums = _former_numerators(prep, idx, shapes)
    assert got_nonzero.tolist() == want_nonzero.tolist()
    assert got_nums.dtype == want_nums.dtype and got_nums.tolist() == want_nums.tolist()


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("kind", sorted(_COUNTING_SETS))
def test_validation_and_counting_match_former_code(monkeypatch, kind, rows):
    import uqgeom.exact as exact_mod

    if rows is not None:
        monkeypatch.setattr(exact_mod, "_CHUNK_CELLS", 0)
        monkeypatch.setattr(exact_mod, "_MIN_CHUNK_ROWS", rows)
    uset = _COUNTING_SETS[kind]()
    full = 0
    for m in MEASURES:
        prep = exact_mod._Prepared(uset, m)
        assert np.isnan(prep.grid_x).sum() == prep.jset._weight_grid.size - len(prep.jset.nums)
        for idx in exact_mod._index_chunks(prep):
            assert rows is None or len(idx) <= rows
            _assert_chunks_match_former(prep, idx)
            full += idx.shape[1] == prep.jset.n
    # Chunks of bases that hold every point, for every measure, exactly
    # when the set is no larger than the basis sizes.
    assert (full > 0) == (uset.n <= 4)
    prep = exact_mod._Prepared(uset, MEASURES[0])
    if kind == "huge-denominator":
        # The first point's denominator reaches 2**63: an empty run, then
        # a run of its own, whose masses are Python ints.
        assert prep.jset.nums.dtype == object and prep.runs == [(0, 0), (0, 1), (1, 3)]
    if kind == "object-weights":
        assert prep.jset.nums.dtype == object and prep.runs == [(0, 2), (2, 3), (3, 5)]
    if kind == "wide-denominators":
        # Runs of 2 points: any 3 denominators multiply past 2**63.
        assert prep.jset.nums.dtype == np.int64 and prep.runs == [(0, 2), (2, 4), (4, 6)]
    if kind in ("shared-projections", "zero-extent"):
        fx = exact_mod._Prepared(uset, MEASURES[3]).fx
        assert len(np.unique(fx)) < len(fx)


def test_counting_matches_former_code_on_81_and_100_candidates():
    # The discretized pipeline's shape: two points, unequal k, so nearly all
    # bases hold both points and the grid pads 19 cells.
    import uqgeom.exact as exact_mod

    uset = _unequal_k_indecisive(np.random.default_rng(46), (81, 100), lattice=False)
    for m in MEASURES:
        prep = exact_mod._Prepared(uset, m)
        assert prep.jset._weight_grid.shape == (2, 100)
        for idx in exact_mod._index_chunks(prep):
            _assert_chunks_match_former(prep, idx)


# --------------------------------------------------------------------------
# Counting starts at pairs once a set has two or more points


def _counted_every_size(prep):
    """Reference: the counting loop over every basis size, single
    candidates included, as (indices, values, shapes, numerators) chunks
    of the nonzero bases, and the summed numerators."""
    import uqgeom.exact as exact_mod

    chunks, total = [], 0
    for idx in exact_mod._index_chunks(prep):
        idx, values, shapes = exact_mod._validate(prep, idx)
        nonzero, nums = exact_mod._numerators(prep, idx, shapes)
        total += sum(nums.tolist())
        rows = np.flatnonzero(nonzero)
        chunks.append((idx[rows], values[rows], shapes[rows], nums))
    return chunks, total


def _assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes() if g.dtype != object else g.tolist() == w.tolist()


@pytest.mark.parametrize("kind", sorted(_COUNTING_SETS))
def test_counted_bases_equal_a_loop_over_every_basis_size(kind):
    import uqgeom.exact as exact_mod

    uset = _COUNTING_SETS[kind]()
    for m in MEASURES:
        prep = exact_mod._Prepared(uset, m)
        want, total = _counted_every_size(prep)
        # Every set here has two or more points: the singles' chunks are
        # the reference's only ones left out, and they hold no basis.
        singles = [c for c in want if c[0].shape[1] == 1]
        assert singles and all(len(c[0]) == 0 for c in singles)
        want = [c for c in want if c[0].shape[1] > 1]
        got = []
        try:
            got.extend(exact_mod._counted_bases(prep))
            assert total == prep.jset.denominator
        except ConservationError:
            assert total != prep.jset.denominator
        assert len(got) == len(want), (kind, m.kind)
        for g, w in zip(got, want):
            _assert_same_arrays(g, w)


def _hard_input_sets():
    """Indecisive sets of 2 to 5 points whose candidates are stacks of
    tests/hard_inputs.py: a noisy lattice, sets 1e7 off the origin, and
    sets of extent 1e-9."""
    from hard_inputs import noisy_lattice_stack, offset_stack, tiny_extent_stack

    rng = np.random.default_rng(53)
    sets = []
    for stack in (noisy_lattice_stack, offset_stack, tiny_extent_stack):
        for n, k in ((2, 4), (3, 3), (5, 2)):
            locs = stack(rng, k, n)
            sets.append(IndecisivePointSet(
                tuple(IndecisivePoint(locs[:, i], (Fraction(1, k),) * k) for i in range(n)), 2
            ))
    return sets


def test_single_candidate_rows_hold_no_mass_once_a_set_has_two_points():
    # The proof that counting may start at pairs, kept as a check: a single
    # candidate's shape has no extent, so it strictly holds no candidate and
    # every other point's mass in it is 0.  With one point, every single
    # candidate is a basis that holds mass.
    import uqgeom.exact as exact_mod

    usets = [make() for make in _COUNTING_SETS.values()] + _hard_input_sets()
    usets.append(IndecisivePointSet((IndecisivePoint([(0.0, 0.0), (1.0, 2.0)], (Fraction(1, 3), Fraction(2, 3))),), 2))
    for uset in usets:
        for m in MEASURES:
            prep = exact_mod._Prepared(uset, m)
            singles = 0
            for idx in exact_mod._index_chunks(prep):
                if idx.shape[1] != 1:
                    continue
                idx, _, shapes = exact_mod._validate(prep, idx)
                singles += len(idx)
                nonzero, _ = exact_mod._numerators(prep, idx, shapes)
                inside = exact_mod._strict_inside(prep, shapes)
                assert not inside.any()
                assert nonzero.all() if uset.n == 1 else not nonzero.any()
            assert singles == len(prep.jset.nums)


@pytest.mark.parametrize("kind", sorted(_COUNTING_SETS))
def test_collapsed_equals_from_numerators_of_the_same_arrays(kind, monkeypatch):
    from uqgeom import Quantization1D

    uset = _COUNTING_SETS[kind]()
    real = Quantization1D._from_checked
    handed = []

    def recording(cls, values, numerators=None, denominator=None):
        handed.append((values.copy(), numerators.copy(), denominator))
        return real(values, numerators, denominator)

    dtypes = set()
    for engine in (exact_distribution, brute_force_distribution):
        for m in MEASURES:
            handed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Quantization1D, "_from_checked", classmethod(recording))
                try:
                    got = engine(uset, m).collapsed
                except ConservationError:
                    continue
            ((values, nums, denom),) = handed
            want = Quantization1D.from_numerators(values, nums, denom)
            assert [v.hex() for v in got.values.tolist()] == [v.hex() for v in want.values.tolist()]
            assert got.numerators.dtype == want.numerators.dtype
            assert got.numerators.tolist() == want.numerators.tolist()
            assert got.denominator == want.denominator
            assert not got.values.flags.writeable and not got.numerators.flags.writeable
            assert not want.values.flags.writeable and not want.numerators.flags.writeable
            dtypes.add(got.numerators.dtype)
            # The float CDF is each exact running sum rounded once, and it is
            # the CSV's cumulative column bit for bit.
            rounded = [float(Fraction(c, denom)).hex() for c in np.cumsum(nums.astype(object)).tolist()]
            column = [float(line.split(",")[2]).hex() for line in quantization_to_csv(got).splitlines()[1:]]
            assert [c.hex() for c in got._cum_float.tolist()] == rounded == column
    if kind in ("huge-denominator", "object-weights", "wide-denominators"):
        assert dtypes == {np.dtype(object)}
    else:
        assert dtypes == {np.dtype(np.int64)}


def test_only_the_engine_builds_the_padded_grids(monkeypatch):
    # The grids serve the strict-interior test and its masses alone; the
    # oracle's supports hold every point, so it builds none of them, and a
    # dwid engine never reads grid_y.
    import uqgeom.exact as exact_mod

    built = []
    former = exact_mod._points_major
    monkeypatch.setattr(exact_mod, "_points_major", lambda grid: built.append(grid.shape) or former(grid))
    uset = random_indecisive(np.random.default_rng(47), 4, 3)
    for m in MEASURES + [MeasureId("diameter")]:
        brute_force_distribution(uset, m)
    assert built == []
    exact_distribution(uset, MEASURES[0])
    assert built == [(4, 3)] * 3
    exact_distribution(uset, MEASURES[3])
    assert built == [(4, 3)] * 5


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_oracle_extents_by_columns_have_the_bits_of_the_support_stack(monkeypatch, rows):
    # The former oracle reduced each support's (n, 2) frame in place
    # (measures._frame_values); the column folds must give the same bits
    # on jittered sets, and on sets marked jittered whose supports hold
    # +0.0 and -0.0 together.
    import uqgeom.exact as exact_mod
    from uqgeom.measures import _frame_values

    if rows is not None:
        monkeypatch.setattr(exact_mod, "_CHUNK_CELLS", 0)
        monkeypatch.setattr(exact_mod, "_MIN_CHUNK_ROWS", rows)
    rng = np.random.default_rng(48)
    sets = [_unequal_k_indecisive(rng, ks, lattice) for ks in ((3, 2, 3, 2), (1, 1, 1), (2,) * 6) for lattice in (False, True)]
    for n in (1, 3, 6):
        zeros = rng.choice([0.0, -0.0, 1.0, -2.0], size=(n, 3, 2), p=[0.4, 0.4, 0.1, 0.1])
        sets.append(IndecisivePointSet(tuple(IndecisivePoint(z, ("1/3",) * 3) for z in zeros), 2, jitter_applied=True))
    for uset in sets:
        for m in LOOP_MEASURES[:-1]:
            prep = exact_mod._Prepared(uset, m)
            frames = prep.fx if m.kind == "dwid" else np.column_stack([prep.fx, prep.fy])
            jset = prep.jset
            plan = exact_mod._plan(tuple(jset.ks.tolist()), jset.n)
            for idx in exact_mod._candidate_rows(plan, exact_mod._chunk_rows(4 * 2 * jset.n)):
                got = exact_mod._support_extent_values(prep, idx)
                assert got.tobytes() == _frame_values(m.kind, frames[idx]).tobytes(), m.kind


_SIP_MEASURES = [MeasureId("seb2"), MeasureId("aabb_perimeter"), MeasureId("aabb_area")]


def _sip_field_bytes(field):
    return (field.kind, field.params.tobytes(), field.weights.tobytes(),
            field.numerators.dtype, field.numerators.tolist(), field.denominator)


@pytest.mark.parametrize("rows", [1, 7])
def test_chunk_boundaries_leave_sip_field_unchanged(monkeypatch, rows):
    import uqgeom.exact as exact_mod

    # The sets no larger than the basis sizes, whose last size holds every
    # point, and the discretized pipeline's (81, 100) shape.
    usets = [_COUNTING_SETS[kind]() for kind in ("n=2", "n=3-lattice", "n=4-unequal-k")]
    usets.append(_unequal_k_indecisive(np.random.default_rng(46), (81, 100), lattice=False))
    default = [[_sip_field_bytes(deterministic_sip(u, m)) for m in _SIP_MEASURES] for u in usets]
    monkeypatch.setattr(exact_mod, "_CHUNK_CELLS", 0)
    monkeypatch.setattr(exact_mod, "_MIN_CHUNK_ROWS", rows)
    for uset, want in zip(usets, default):
        for m, w in zip(_SIP_MEASURES, want):
            assert _sip_field_bytes(deterministic_sip(uset, m)) == w, (uset.n, m.kind)


def test_exact_engine_leaves_the_callers_ufunc_buffer():
    # The interior mask runs with a small ufunc buffer and sets the
    # caller's back, whatever it was.
    uset = random_indecisive(np.random.default_rng(53), 5, 3)
    default = np.getbufsize()
    try:
        for size in (4096, 1 << 16):
            np.setbufsize(size)
            for m in MEASURES:
                exact_distribution(uset, m)
            assert np.getbufsize() == size
    finally:
        np.setbufsize(default)


def test_exact_engine_memory_stays_flat_as_the_instance_grows():
    # Temporaries are bounded per chunk: 5.4x the potential bases must not
    # raise the traced peak by more than half.
    import tracemalloc

    m = MeasureId("aabb_perimeter")
    peaks = []
    for n in (7, 10):
        uset = random_indecisive(np.random.default_rng(47), n, 4)
        exact_distribution(uset, m)
        tracemalloc.start()
        try:
            exact_distribution(uset, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * min(peaks), peaks


# --------------------------------------------------------------------------
# Enumeration plans kept per instance shape


@pytest.fixture
def fresh_plans():
    """The exact module, with its plan cache emptied before and after."""
    import uqgeom.exact as exact_mod

    exact_mod._PLANS.clear()
    yield exact_mod
    exact_mod._PLANS.clear()


def _engine_bits(uset):
    """Per measure, the oracle's and (LP-type measures) the exact engine's
    collapsed value hexes, numerators and records, or the error raised."""
    out = []
    for m in [*MEASURES, MeasureId("diameter")]:
        engines = [brute_force_distribution] + ([exact_distribution] if m.is_lp_type else [])
        for engine in engines:
            try:
                dist = engine(uset, m)
            except ConservationError as exc:
                out.append((m.kind, engine.__name__, str(exc)))
                continue
            q = dist.collapsed
            records = [(r.basis and _record_key(r)[0], r.value.hex(), r.probability) for r in dist.records]
            out.append((m.kind, engine.__name__, [v.hex() for v in q.values.tolist()], q.numerators.tolist(),
                        q.denominator, records))
    return out


def test_plans_leave_every_bit_unchanged(monkeypatch, fresh_plans):
    exact_mod = fresh_plans
    rng = np.random.default_rng(48)
    usets = [
        random_indecisive(rng, 5, 3),
        _lattice_indecisive(rng, 5, 3),
        _unequal_k_indecisive(rng, (3, 1, 4, 2), lattice=False),
        random_indecisive(rng, 6, 6),
    ]
    built = []
    build = exact_mod._build_plan

    def counted(*key):
        plan = build(*key)
        built.append((key, plan[-1] is not None))
        return plan

    monkeypatch.setattr(exact_mod, "_build_plan", counted)
    planned = [_engine_bits(u) for u in usets]
    # Each plan that holds its rows was built once, though every measure of
    # its set read it; plans whose rows stream were built per call.
    held = [key for key, rows in built if rows]
    assert held and len(held) == len(set(held))
    streamed = [key for key, rows in built if not rows]
    assert streamed.count(((6,) * 6, 4)) > 1 and streamed.count(((6,) * 6, 6)) > 1
    monkeypatch.setattr(exact_mod, "_build_plan", build)
    # Both kinds of plan were read: rows held whole, and combos only, whose
    # rows streamed (the 4-point bases and the supports of the 6-point set).
    assert exact_mod._plan((3,) * 5, 5)[-1] is not None
    assert exact_mod._plan((6,) * 6, 3)[-1] is not None
    assert exact_mod._plan((6,) * 6, 4)[-1] is None and exact_mod._plan((6,) * 6, 6)[-1] is None
    monkeypatch.setattr(exact_mod, "_PLAN_CELLS", 0)
    exact_mod._PLANS.clear()
    assert [_engine_bits(u) for u in usets] == planned
    assert not exact_mod._PLANS


def test_rows_held_streamed_and_encoded_follow_one_order(monkeypatch, fresh_plans):
    import itertools

    exact_mod = fresh_plans
    rng = np.random.default_rng(50)
    ks = tuple(int(k) for k in rng.integers(1, 5, size=6))
    ks = ks[:2] + (1,) + ks[3:]
    assert len(set(ks)) > 2
    offsets = np.cumsum(ks) - ks
    for s in range(1, len(ks) + 1):
        # Reference: point combos in lexicographic order, then candidates in
        # itertools.product order, numbered from the offsets.
        want = np.array([
            [offsets[p] + c for p, c in zip(pts, cands)]
            for pts in itertools.combinations(range(len(ks)), s)
            for cands in itertools.product(*(range(ks[p]) for p in pts))
        ])
        plan = exact_mod._plan(ks, s)
        assert plan[-1] is not None
        held = np.concatenate(list(exact_mod._candidate_rows(plan, 5)))
        with monkeypatch.context() as m:
            m.setattr(exact_mod, "_PLAN_CELLS", 0)
            exact_mod._PLANS.clear()
            streamed_plan = exact_mod._plan(ks, s)
            assert streamed_plan[-1] is None and (ks, s) not in exact_mod._PLANS
            streamed = np.concatenate(list(exact_mod._candidate_rows(streamed_plan, 5)))
        assert np.array_equal(held, want) and np.array_equal(streamed, want), s
        # Each row's position, encoded as the oracle's seb2 tables encode it
        # from the plan's starts and strides, is the row's index.
        _, _, combos, starts, strides, _ = plan
        point_of = np.repeat(np.arange(len(ks)), ks)[want]
        index = {c: i for i, c in enumerate(map(tuple, combos.tolist()))}
        c = np.array([index[p] for p in map(tuple, point_of.tolist())])
        pos = starts[c] + ((want - offsets[point_of]) * strides[c]).sum(axis=1)
        assert np.array_equal(pos, np.arange(len(want))), s


def test_plan_arrays_are_read_only(fresh_plans):
    exact_mod = fresh_plans
    chunk = next(exact_mod._candidate_rows(exact_mod._plan((3, 2, 4), 2), 64))
    with pytest.raises(ValueError, match="read-only"):
        chunk[0, 0] = 0
    for array in exact_mod._plan((3, 2, 4), 2):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_plan_cache_retains_at_most_its_bound(monkeypatch, fresh_plans):
    import tracemalloc

    exact_mod = fresh_plans
    rng = np.random.default_rng(49)
    shapes = set()
    while len(shapes) < 200:
        shapes.add(tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(2, 8))))
    kept = []
    real = exact_mod._build_plan

    def build(*key):
        plan = real(*key)
        if plan[-1] is not None:
            kept.append(key)
        return plan

    monkeypatch.setattr(exact_mod, "_build_plan", build)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for ks in sorted(shapes):
            for s in {1, 2, min(3, len(ks)), len(ks)}:
                for _ in exact_mod._candidate_rows(exact_mod._plan(ks, s), 4096):
                    pass
                assert len(exact_mod._PLANS) <= exact_mod._PLANS_KEPT
                assert all(plan[-1] is not None for plan in exact_mod._PLANS.values())
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # More plans held their rows than the cache keeps, so some were evicted.
    assert len(set(kept)) > exact_mod._PLANS_KEPT
    # Each kept plan is at most _PLAN_CELLS int64 cells, plus 4 KiB for its
    # key, its tuples, its array headers and its dict slot.
    bound = exact_mod._PLANS_KEPT * (8 * exact_mod._PLAN_CELLS + 4096)
    assert retained <= bound, (retained, bound)


def test_plan_cache_keeps_every_shape_a_benchmark_workload_reuses(monkeypatch, fresh_plans):
    exact_mod = fresh_plans
    built = []
    real = exact_mod._build_plan
    monkeypatch.setattr(exact_mod, "_build_plan", lambda *key: built.append(key) or real(*key))
    # The shapes of the oracle-lattice sets (3 candidates, 4-6 points; bases
    # of at most 4 points and the supports), then of the exact-many-points
    # sets (4 candidates; at most 4, 3, 3 and 2 points a basis).
    oracle = [((3,) * n, s) for n in (4, 5, 6) for s in sorted({*range(1, min(4, n) + 1), n})]
    exact = [((4,) * n, s) for n, beta in ((7, 4), (11, 3), (10, 3), (24, 2)) for s in range(1, beta + 1)]
    for shapes, count in ((oracle, 14), (exact, 12)):
        exact_mod._PLANS.clear()
        built.clear()
        assert len(shapes) == count
        for _ in range(2):
            for ks, s in shapes:
                assert exact_mod._plan(ks, s)[-1] is not None
        assert sorted(built) == sorted(shapes)


# --------------------------------------------------------------------------
# Setup done once per set, against the former code kept here


def _former_distributions_match(a, b, tol):
    """Reference: the former matcher, adding Fraction weights."""
    pooled = [(float(v), 0, w) for v, w in zip(a.collapsed.values, a.collapsed.weights)]
    pooled += [(float(v), 1, w) for v, w in zip(b.collapsed.values, b.collapsed.weights)]
    pooled.sort(key=lambda t: t[0])
    wa = Fraction(0)
    wb = Fraction(0)
    prev = None
    for v, side, w in pooled:
        if prev is not None and v - prev > tol:
            if wa != wb:
                return False
            wa = Fraction(0)
            wb = Fraction(0)
        if side == 0:
            wa += w
        else:
            wb += w
        prev = v
    return wa == wb


def _exact_of(values, weights, denom):
    from uqgeom.exact import ExactDistribution
    from uqgeom.quantize import Quantization1D

    nums = [int(w * denom) for w in weights]
    collapsed = Quantization1D.from_numerators(values, nums, denom)
    return ExactDistribution(lambda: (), collapsed, MeasureId("seb2"))


def _random_atoms(rng, grid):
    """Sorted values drawn from the grid (repeats and both signed zeros
    allowed) with positive rational weights summing to 1."""
    values = sorted(float(v) for v in rng.choice(grid, size=int(rng.integers(1, 7))))
    cuts = [int(c) for c in rng.integers(1, 6, size=len(values))]
    return values, [Fraction(c, sum(cuts)) for c in cuts]


def test_integer_matching_matches_fraction_matching():
    rng = np.random.default_rng(1313)
    tol = 0.25
    # Multiples of tol are exact, so many gaps are exactly tol.
    grid = np.array([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, -0.25, 1e-12, 0.25 + 1e-12])
    outcomes = []
    for trial in range(600):
        values, weights = _random_atoms(rng, grid)
        if trial % 3 == 0:
            other_values, other_weights = _random_atoms(rng, grid)
        else:
            other_values, other_weights = list(values), list(weights)
            if trial % 3 == 2 and len(values) > 1:
                # Move a little mass between two atoms, or one atom along the grid.
                i, j = rng.choice(len(values), size=2, replace=False)
                if rng.random() < 0.5:
                    step = min(other_weights[i], other_weights[j]) / 2
                    other_weights[i] -= step
                    other_weights[j] += step
                else:
                    other_values[i] = float(rng.choice(grid))
                    order = np.argsort(other_values, kind="stable")
                    other_values = [other_values[t] for t in order]
                    other_weights = [other_weights[t] for t in order]
        common = math.lcm(*(w.denominator for w in weights))
        other_common = math.lcm(*(w.denominator for w in other_weights))
        # Equal denominators, unequal ones, and one past the int64 range.
        scale_a, scale_b = [(1, 1), (1, 3), (2, 5), (3 * 2**62, 7)][trial % 4]
        a = _exact_of(values, weights, common * scale_a)
        b = _exact_of(other_values, other_weights, other_common * scale_b)
        for t in (tol, 0.0, 1e-12):
            want = _former_distributions_match(a, b, t)
            assert distributions_match(a, b, t) == want, (values, weights, other_values, other_weights, t)
            assert distributions_match(b, a, t) == want
            outcomes.append(want)
    assert 400 < sum(outcomes) < len(outcomes) - 400


def test_lazy_basis_members_match_eager_list():
    import uqgeom.exact as exact_mod
    from uqgeom.measures import Basis, BasisMember

    rng = np.random.default_rng(41)
    for uset in (random_indecisive(rng, 4, 3), _unequal_k_indecisive(rng, (1, 3, 2, 4), lattice=True)):
        jset = canonical_jitter(uset)
        # Reference: the member list the engine used to build up front.
        eager = [
            BasisMember(i, j, tuple(loc))
            for i, p in enumerate(jset.points)
            for j, loc in enumerate(p.locations.tolist())
        ]
        for m in MEASURES:
            prep = exact_mod._Prepared(uset, m)
            assert "members" not in vars(prep)
            want_records = [
                Basis(m, tuple(eager[g] for g in row), value)
                for idx, values, _, _ in exact_mod._counted_bases(prep)
                for row, value in zip(idx.tolist(), values.tolist())
            ]
            want_bases = []
            for idx in exact_mod._index_chunks(prep):
                idx, values, _ = exact_mod._validate(prep, idx)
                want_bases += [
                    Basis(m, tuple(eager[g] for g in row), v) for row, v in zip(idx.tolist(), values.tolist())
                ]
            assert "members" not in vars(prep)
            dist = exact_distribution(uset, m)
            assert [r.basis for r in dist.records] == want_records
            assert list(enumerate_potential_bases(uset, m)) == want_bases
            assert prep.members == eager and prep.members is prep.members


def test_combo_count_matches_itertools_sum():
    import itertools

    import uqgeom.exact as exact_mod
    from uqgeom.measures import combinatorial_dimension

    rng = np.random.default_rng(17)
    for ks in ((1,), (4,), (2, 5), (3, 3, 3), (1, 4, 2, 7, 3), (4,) * 11, (81, 100, 81)):
        uset = _unequal_k_indecisive(rng, ks, lattice=False)
        for m in MEASURES:
            prep = exact_mod._Prepared(uset, m)
            beta = min(combinatorial_dimension(m, 2), len(ks))
            want = sum(
                math.prod(ks[i] for i in combo)
                for s in range(1, beta + 1)
                for combo in itertools.combinations(range(len(ks)), s)
            )
            assert prep.combo_count() == want, (ks, m.kind)
