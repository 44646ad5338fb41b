import random
import tracemalloc
from math import comb, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import wps.lattice
from wps.fan import canonical_fan
from wps.lattice import count_interior, count_points, face_histogram
from wps.polytope import weighted_transverse
from wps.weights import WeightsVector, reduce_weights

from oracles import (LatticePoint, dp_count_interior, dp_count_points, dp_face_histogram,
                     face_numerator, lattice_points, random_weights, simplex_census,
                     simplex_census_boxscan, solution_count, solution_counts)


def census_of(q: WeightsVector, m: int):
    w = weighted_transverse(canonical_fan(reduce_weights(q)))
    return simplex_census(w, m)


# ---------------------------------------------------------------------------
# frozen examples


def test_zero_dilate_is_a_single_point():
    # the zero dilate's table has one cell, below every weight however large
    for raw in ((1, 1), (2, 3, 5), (2, 3, 4, 15, 25), (3, 5, 2 ** 200 + 1, 2 ** 201 + 3)):
        assert count_points(WeightsVector(raw), 0) == 1
        assert face_histogram(WeightsVector(raw), 0) == {0: 1}


def test_plane_quadratics():
    assert count_points(WeightsVector((1, 1, 1)), 2) == 6


def test_weighted_line_bundle_sections():
    # delta' = 2; solutions of x0 + x1 + 2 x2 = 2: (2,0,0),(1,1,0),(0,2,0),(0,0,1)
    assert count_points(WeightsVector((1, 1, 2)), 1) == 4


def test_interior_counts_on_the_plane():
    q = WeightsVector((1, 1, 1))
    assert count_interior(q, 1) == 0
    assert count_interior(q, 2) == 0
    assert count_interior(q, 3) == 1


def test_interior_on_gorenstein_example():
    # |Q|/delta = 2 for (1,1,2): the doubled polytope's interior matches
    # the zero dilate
    q = WeightsVector((1, 1, 2))
    assert count_interior(q, 2) == 1 == count_points(q, 0)


def test_histograms_on_the_plane():
    q = WeightsVector((1, 1, 1))
    assert face_histogram(q, 1) == {0: 3}
    assert face_histogram(q, 2) == {0: 3, 1: 3}


def test_counts_reject_bad_dilation():
    with pytest.raises(ValueError):
        count_points(WeightsVector((1, 1)), -1)
    with pytest.raises(ValueError):
        count_interior(WeightsVector((1, 1)), 0)
    with pytest.raises(ValueError, match="dilation factor must be nonnegative"):
        face_histogram(WeightsVector((1, 1)), -1)


def test_point_enumeration_agrees_with_counts():
    rng = random.Random(98)
    for _ in range(15):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=3, w_max=6))
        for m in (1, 2):
            pts = list(lattice_points(q, m))
            assert len(pts) == count_points(q, m)
            assert sum(1 for p in pts if p.interior) == count_interior(q, m)
            assert len(set(p.composition for p in pts)) == len(pts)
            by_dim: dict[int, int] = {}
            for p in pts:
                by_dim[p.face_dim] = by_dim.get(p.face_dim, 0) + 1
            assert by_dim == face_histogram(q, m)


def test_lattice_point_validates_face_dimension():
    with pytest.raises(ValueError):
        LatticePoint(composition=(1, 0, 2), face_dim=2)
    p = LatticePoint(composition=(1, 0, 2), face_dim=1)
    assert not p.interior
    assert LatticePoint(composition=(1, 1), face_dim=1).interior


# ---------------------------------------------------------------------------
# the two census oracles agree with each other


def test_geometric_census_matches_boxscan_on_small_cases():
    rng = random.Random(99)
    for _ in range(25):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=2, w_max=5))
        red = reduce_weights(q)
        w = weighted_transverse(canonical_fan(red))
        for m in range(0, 3):
            assert simplex_census(w, m) == simplex_census_boxscan(w, m)


# ---------------------------------------------------------------------------
# composition model vs geometry


def test_counts_match_geometric_enumeration():
    rng = random.Random(101)
    for _ in range(40):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=12))
        for m in range(0, 5 - q.n):
            total, interior, hist = census_of(q, m)
            assert count_points(q, m) == total
            assert face_histogram(q, m) == hist
            if m >= 1:
                assert count_interior(q, m) == interior


def test_counts_are_permutation_invariant():
    rng = random.Random(102)
    for _ in range(20):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=3, w_max=8))
        perm = list(q.q)
        rng.shuffle(perm)
        p = WeightsVector(tuple(perm))
        for m in range(0, 4):
            assert count_points(q, m) == count_points(p, m)
            assert face_histogram(q, m) == face_histogram(p, m)
            # the permuted presentation also matches its own geometry
            assert census_of(p, m)[2] == face_histogram(p, m)


def test_counts_ignore_reduction():
    for raw, m in (((1, 2, 2), 3), ((2, 4, 6, 3), 2), ((5, 10, 15), 1)):
        q = WeightsVector(raw)
        red = reduce_weights(q)
        assert count_points(q, m) == count_points(red, m)
        assert face_histogram(q, m) == face_histogram(red, m)


# ---------------------------------------------------------------------------
# structural invariants


def test_histogram_totals_and_extremes():
    rng = random.Random(103)
    for _ in range(40):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=15))
        n = q.n
        for m in range(1, 4):
            hist = face_histogram(q, m)
            assert sum(hist.values()) == count_points(q, m)
            assert hist.get(n, 0) == count_interior(q, m)
            assert hist[0] == n + 1


def test_monotone_in_dilation():
    rng = random.Random(104)
    for _ in range(25):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=15))
        counts = [count_points(q, m) for m in range(6)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_gorenstein_interior_identity():
    rng = random.Random(105)
    done = 0
    while done < 30:
        raw = random_weights(rng, n_min=1, n_max=4, w_max=12)
        q = WeightsVector(raw)
        red = reduce_weights(q)
        if red.total % red.delta != 0:
            continue
        done += 1
        k = red.total // red.delta
        for m in range(0, k):
            if m >= 1:
                assert count_interior(red, m) == 0
        for m in range(k, k + 4):
            assert count_interior(red, m) == count_points(red, m - k)


def test_ordinary_simplex_binomials():
    # dilates of the unit simplex count monomials
    for n in range(1, 6):
        q = WeightsVector((1,) * (n + 1))
        for m in range(0, 7):
            assert count_points(q, m) == comb(n + m, n)


# ---------------------------------------------------------------------------
# sampled Ehrhart polynomials vs dynamic programming over the whole target

# weights <= 12 drawn among the divisors of one lcm, so that the oracle's
# table of m * lcm cells stays small up to m = 2n + 7
WEIGHT_POOLS = ((1, 2, 3, 4, 5, 6, 10, 12), (1, 2, 3, 4, 6, 7, 12),
                (1, 2, 3, 4, 6, 8, 9, 12), (1, 2, 4, 8, 11), (1, 2, 3, 5, 6, 9, 10))


@st.composite
def pooled_weights(draw):
    n = draw(st.integers(1, 5))
    pool = draw(st.sampled_from(WEIGHT_POOLS))
    return WeightsVector(tuple(draw(st.sampled_from(pool)) for _ in range(n + 1)))


@settings(max_examples=60, deadline=None)
@given(pooled_weights())
def test_counts_match_full_dynamic_programming(q):
    n = q.n
    for m in sorted({0, 1, n, n + 1, n + 2, 2 * n + 7}):
        assert count_points(q, m) == dp_count_points(q, m)
        assert face_histogram(q, m) == dp_face_histogram(q, m)
        if m >= 1:
            assert count_interior(q, m) == dp_count_interior(q, m)


@st.composite
def presented_weights(draw):
    """Reduced weights with ``n = 0..5``, and a presentation of them that is
    the reduced vector itself or, half the time, an unreduced one: every
    weight but one times a prime that does not divide it, then all times
    a common factor."""
    n = draw(st.integers(0, 5))
    pool = draw(st.sampled_from(WEIGHT_POOLS))
    red = reduce_weights(WeightsVector(tuple(draw(st.sampled_from(pool)) for _ in range(n + 1))))
    raw = list(red.q)
    if draw(st.booleans()):
        j = draw(st.integers(0, n))
        p = next(p for p in (2, 3, 5, 7) if raw[j] % p)
        c = draw(st.integers(1, 3))
        raw = [c * (w if i == j else p * w) for i, w in enumerate(raw)]
    return red.q, WeightsVector(tuple(raw))


@settings(max_examples=80, deadline=None)
@given(presented_weights())
# (5,) is n = 0, L = 1; (1, 1, 1) has interior targets m - 3 < 0 at m = 1, 2
@example(((1,), WeightsVector((5,))))
@example(((1, 1, 1), WeightsVector((1, 1, 1))))
def test_totals_match_the_solution_count(case):
    reduced, q = case
    n, half, delta = q.n, q.n // 2, lcm(*reduced)
    for m in sorted({0, 1, half, half + 1, n, n + 1, 2 * n + 7}):
        assert count_points(q, m) == solution_count(reduced, m * delta), (q, m)
        if m >= 1:
            assert count_interior(q, m) == solution_count(reduced, m * delta - sum(reduced)), (q, m)


@settings(max_examples=80, deadline=None)
@given(presented_weights())
@example(((1,), WeightsVector((5,))))
@example(((1, 1), WeightsVector((1, 1))))
def test_face_histogram_matches_full_dynamic_programming(case):
    _, q = case
    n, half = q.n, q.n // 2
    for m in sorted({1, half, half + 1, n, n + 1, 2 * n + 7} - {0}):
        assert face_histogram(q, m) == dp_face_histogram(q, m), (q, m)


@settings(max_examples=60, deadline=None)
@given(presented_weights())
def test_top_two_coefficients_of_the_total_have_closed_forms(case):
    # the n-th forward difference of L at 0 is n! c_n = delta'^n / prod q',
    # the (n-1)-th is (n-1)! c_(n-1) + (n-1) n! c_n / 2 with
    # 2 (n-1)! c_(n-1) = delta'^(n-1) sum q' / prod q'
    reduced, _ = case
    n, delta = len(reduced) - 1, lcm(*reduced)
    row = [solution_count(reduced, j * delta) for j in range(n + 1)]
    lead = []
    while row:
        lead.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    assert lead[n] * prod(reduced) == delta ** n
    if n:
        assert 2 * prod(reduced) * lead[n - 1] == delta ** (n - 1) * (sum(reduced) + (n - 1) * delta)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=6), st.integers(1, 200), st.sampled_from([1, 5, 4096]),
       st.none())
@example((), 7, 4096, 1)                # no weight: 1 at t = 0 alone
@example((5,), 23, 1, 1)                # the first weight's multiples alone
@example((1, 2, 3), 20, 1, 1)
@example((1, 1, 1), 300, 5, 2)
@example((1, 1, 1), 400, 4096, 4)       # 3 bytes of count, read in place as 4
@example((1,) * 5, 200, 5, 4)
@example((1,) * 10, 100, 1, 8)          # 6 bytes of count
@example((1,) * 15, 100, 4096, 8)
@example((1,) * 20, 100, 1, 10)         # past 8 bytes: read with from_bytes
@example((3, 4096), 9000, 4096, 1)      # a weight of one block: its tail is the whole block
@example((1, 1, 4097), 9000, 4096, 2)   # a weight past the block, in blocks of its own
@example((1, 1, 3), 120, 5, 2)          # 2-byte tails shorter than the block, over 24 blocks
def test_packed_counting_table_matches_the_oracle(weights, size, block, width):
    # blocks down to one cell (then as long as the largest weight) carry
    # their sums into the next; every field holds its cell, none carries
    # into the next field, and both readers, the in-place view and
    # from_bytes, see the same cells, also along a residue class ending
    # before the last cell; the totals' byte-plane sums along every
    # residue class of w match the cells (0 at a negative target)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wps.lattice, "_BLOCK", block)
        table = wps.lattice._count_table(tuple(weights), size)
    assert width in (None, table[1]) and len(table[0]) == size * table[1]
    cells = wps.lattice._cells(table, slice(None))
    assert cells == solution_counts(weights, size)
    assert max(cells) < 2 ** (8 * table[1])
    t, w = max(size - 2, 0), max(weights, default=1)
    assert wps.lattice._sums_at(table, range(-1, size), w) == [0] + [
        sum(cells[u % w:u + 1:w]) for u in range(size)]
    windows = slice(size - 1, None, -3), slice(t % w, t + 1, w)
    for formats in (wps.lattice._FORMATS, {}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wps.lattice, "_FORMATS", formats)
            assert wps.lattice._cells(table, slice(None)) == cells
            for window in windows:
                assert wps.lattice._cells(table, window) == cells[window]


def test_a_counting_table_is_updated_in_place():
    # lcm 120,120: a table of 120,121 cells of 4 bytes, about 0.46 MiB; the
    # update holds a few blocks besides it, never a copy of the whole table
    q = WeightsVector((24, 33, 728, 5005))
    tracemalloc.start()
    try:
        assert count_points(q, 2) == 830238
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, peak


def test_a_face_histogram_builds_one_counting_table(monkeypatch):
    count_table, calls = wps.lattice._count_table, []

    def counted(weights, size):
        calls.append(size)
        return count_table(weights, size)

    monkeypatch.setattr(wps.lattice, "_count_table", counted)
    for raw in ((5,), (1, 1), (1, 1, 1, 1), (2, 3, 5), (2, 3, 4, 15, 25), (1, 2, 3, 4, 5, 6)):
        q = WeightsVector(raw)
        delta = reduce_weights(q).delta
        for m in sorted({1, 2, q.n + 1, q.n + 3}):
            calls.clear()
            face_histogram(q, m)
            assert calls == [min(m, q.n // 2) * delta + 1], (raw, m)


def test_closed_forms_at_a_million():
    q, m = WeightsVector((1, 1, 1)), 10 ** 6
    assert count_points(q, m) == comb(m + 2, 2)
    assert count_interior(q, m) == comb(m - 1, 2)
    assert face_histogram(q, m) == {0: 3, 1: 3 * (m - 1), 2: comb(m - 1, 2)}


def test_volume_check_rejects_corrupted_samples(monkeypatch):
    total_samples, face_samples = wps.lattice._total_samples, wps.lattice._face_samples

    def corrupted_counts(weights, delta, k):
        samples = total_samples(weights, delta, k)
        samples[-1] += 1
        return samples

    def corrupted_faces(weights, delta, k):
        samples, totals = face_samples(weights, delta, k)
        samples[-1][-1] += 1
        return samples, totals

    q = WeightsVector((2, 3, 4, 15, 25))
    monkeypatch.setattr(wps.lattice, "_total_samples", corrupted_counts)
    monkeypatch.setattr(wps.lattice, "_face_samples", corrupted_faces)
    for count in (count_points, count_interior, face_histogram):
        with pytest.raises(AssertionError, match="volume check"):
            count(q, 9)

    def corrupted_vertices(weights, delta, k):
        samples, totals = face_samples(weights, delta, k)
        samples[0][-1] += 1
        return samples, totals

    # lower face dimensions have lower degree: their n-th difference is 0
    monkeypatch.setattr(wps.lattice, "_face_samples", corrupted_vertices)
    with pytest.raises(AssertionError, match="face dimension 0"):
        face_histogram(q, 9)


@pytest.mark.parametrize("raw", [(1, 1, 2), (2, 3, 4, 15, 25), (2, 3, 5, 7), (24, 33, 728, 5005)])
def test_every_sample_of_an_extended_total_is_checked(monkeypatch, raw):
    # even n: the n + 1 samples L(-k..k) meet the volume and the facet
    # check; odd n: the volume completes n samples, the facets check them
    q = WeightsVector(raw)
    k = q.n // 2
    total_samples = wps.lattice._total_samples
    for i in range(2 * k + 1):
        def corrupted(weights, delta, k, i=i):
            samples = total_samples(weights, delta, k)
            samples[i] += 1
            return samples

        monkeypatch.setattr(wps.lattice, "_total_samples", corrupted)
        for m in (k + 1, 2 * q.n + 7):
            for count in (count_points, count_interior):
                with pytest.raises(AssertionError, match="fail the (volume|facet) check"):
                    count(q, m)


@pytest.mark.parametrize("raw", [(1, 1, 2), (2, 3, 5, 7), (2, 3, 4, 15, 25), (24, 33, 728, 5005),
                                 (2, 3, 5, 6, 50, 100)])
def test_every_sample_of_an_extended_histogram_is_checked(monkeypatch, raw):
    # a sample H_t(j), t < n, enters every H_s(-j), s >= t: the n + 1
    # values of H_n meet the volume check (even n), or its n values and
    # the volume meet the facet checks (odd n).  H_n(j) itself, and the
    # total at j, must agree with the sum of the counts at j; a point
    # moved from the top face to a lower one keeps that sum
    q = WeightsVector(raw)
    n, k = q.n, q.n // 2
    shifts = [{(t, j): 1} for t in range(n + 2) for j in range(k)]
    shifts += [{(t, j): 1, (n, j): -1} for t in range(n) for j in range(k)]
    face_samples = wps.lattice._face_samples
    for shift in shifts:
        def corrupted(weights, delta, k, shift=shift):
            samples, totals = face_samples(weights, delta, k)
            for (t, j), by in shift.items():
                (samples + [totals])[t][j] += by
            return samples, totals

        monkeypatch.setattr(wps.lattice, "_face_samples", corrupted)
        for m in (k + 1, 2 * n + 7):
            with pytest.raises(AssertionError, match="fail the|nonzero"):
                face_histogram(q, m)


# ---------------------------------------------------------------------------
# the bound on the counting table: delta' = 6 for (1, 2, 3), n = 2


@pytest.mark.parametrize("count,m,cells", [
    (count_points, 2, 1 * 6 + 1),               # k delta' + 1, k = n // 2
    (count_interior, 3, 1 * 6 + 1),
    (face_histogram, 3, 1 * 6 + 1 + 4 * 7),     # table, n + 2 rows of sum q' + 1
])
def test_counting_table_is_bounded_at_the_cell_limit(monkeypatch, count, m, cells):
    q = WeightsVector((1, 2, 3))
    expected = count(q, m)
    monkeypatch.setattr(wps.lattice, "_MAX_CELLS", cells)
    assert count(q, m) == expected
    monkeypatch.setattr(wps.lattice, "_MAX_CELLS", cells - 1)
    with pytest.raises(ValueError, match=f"counting table of {cells} cells for delta' = 6 "):
        count(q, m)


def test_a_total_builds_one_counting_table_of_half_the_dilates(monkeypatch):
    count_table, calls = wps.lattice._count_table, []

    def counted(weights, size):
        calls.append(size)
        return count_table(weights, size)

    monkeypatch.setattr(wps.lattice, "_count_table", counted)
    for raw in ((5,), (1, 1), (1, 1, 1, 1), (2, 3, 5), (2, 3, 4, 15, 25), (1, 2, 3, 4, 5, 6)):
        q = WeightsVector(raw)
        delta = reduce_weights(q).delta
        for m in sorted({1, 2, q.n + 1, q.n + 3}):
            for count in (count_points, count_interior):
                calls.clear()
                count(q, m)
                assert calls == [min(m, q.n // 2) * delta + 1], (raw, m, count)


def test_counting_table_bound_is_checked_before_allocating(monkeypatch):
    # lcm(1..20) = 232,792,560: a table of 7e8 cells is refused at once
    q = WeightsVector(tuple(range(1, 21)))

    def no_table(*args):
        raise AssertionError("table allocated")

    monkeypatch.setattr(wps.lattice, "_count_table", no_table)
    for count, m in ((count_points, 3), (count_interior, 3), (face_histogram, 1)):
        with pytest.raises(ValueError, match="delta' = 232792560 exceeds"):
            count(q, m)


def test_face_histogram_bound_counts_its_numerator(monkeypatch):
    # (7, 7, 7, 1, 1) at m = 1: sum q' = 23 is past k delta' = 7, so the
    # numerator's n + 2 = 6 rows are cut at 8 cells, like the table: 56 cells
    q = WeightsVector((7, 7, 7, 1, 1))
    monkeypatch.setattr(wps.lattice, "_MAX_CELLS", 7 * 8)
    assert face_histogram(q, 1) == dp_face_histogram(q, 1)

    def no_table(*args):
        raise AssertionError("table allocated")

    monkeypatch.setattr(wps.lattice, "_MAX_CELLS", 7 * 8 - 1)
    monkeypatch.setattr(wps.lattice, "_count_table", no_table)
    with pytest.raises(ValueError, match="counting table of 56 cells for delta' = 7 "):
        face_histogram(q, 1)


# ---------------------------------------------------------------------------
# the face numerator, packed: row p is the integer sum_i num[p][i] 2^(F i)


def packed(row: list[int], width: int) -> int:
    return sum(c << 8 * width * i for i, c in enumerate(row))


# n = 0..8 and weights up to 40; terms up to sum q' + 1, where nothing is cut
numerators = st.lists(st.integers(1, 40), min_size=1, max_size=9).map(tuple).flatmap(
    lambda ws: st.tuples(st.just(ws), st.just(sum(ws) + 1) | st.integers(1, sum(ws) + 1)))


@settings(max_examples=150, deadline=None)
@given(numerators)
@example(((1,), 2))
@example(((40,) * 9, 361))
@example(((7, 7, 7, 1, 1), 8))
def test_packed_face_numerator_matches_the_oracle(case):
    weights, terms = case
    rows, width = wps.lattice._numerator(weights, terms)
    num = face_numerator(weights, terms)
    assert width == wps.lattice._numerator_width(len(weights))
    assert all(abs(c) < 2 ** (8 * width - 1) for row in num for c in row)
    assert rows == [packed(row, width) for row in num]


@pytest.mark.parametrize("n,width", [(0, 1), (4, 1), (5, 2), (9, 2), (10, 4), (20, 4),
                                     (21, 8), (40, 8), (41, 9)])
def test_all_ones_numerator_at_each_field_width(n, width):
    # prod ((1 - x) + y x) has y^p x^i coefficient (-1)^(i + p) C(n + 1, i) C(i, p);
    # uncut, the largest is within a factor 7 of the field bound.  The width
    # steps up past n = 4, 9, 20 and 40; from_bytes reads fields past 8 bytes
    ones = (1,) * (n + 1)
    expected = [[(-1) ** (i + p) * comb(n + 1, i) * comb(i, p) for i in range(n + 2)]
                for p in range(n + 2)]
    assert face_numerator(ones, n + 2) == expected
    assert wps.lattice._numerator(ones, n + 2) == ([packed(row, width) for row in expected], width)
    # H_s(m) = C(n + 1, s + 1) C(m - 1, s), through both readers of the fields
    for m in (1, 2, 3):
        counts = {s: comb(n + 1, s + 1) * comb(m - 1, s) for s in range(min(m, n + 1))}
        assert face_histogram(WeightsVector(ones), m) == counts, m
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wps.lattice, "_FORMATS", {})
            assert face_histogram(WeightsVector(ones), m) == counts, m


@pytest.mark.parametrize("raw,ms", [((1,) * 10, (4, 7, 12)), ((1,) * 21, (8, 12)),
                                    ((2, 3, 4, 15, 25), (1, 2, 9)), ((1, 1, 10, 10), (1, 5))])
def test_a_faulty_face_numerator_fails_the_y_equals_1_check(monkeypatch, raw, ms):
    # at y = 1 the rows sum to prod ((1 - x^w) + x^w) = 1, cut or not: a
    # corrupted row breaks that, and so do fields one byte too narrow
    # for ten and 21 ones, whose cut rows then wrap around at the top
    q, numerator, width = WeightsVector(raw), wps.lattice._numerator, wps.lattice._numerator_width

    def corrupted(weights, terms):
        rows, w = numerator(weights, terms)
        rows[1] += 1 << 8 * w * (terms - 1)
        return rows, w

    faults = [("_numerator", corrupted)]
    if raw.count(1) > 9:
        faults.append(("_numerator_width", lambda count: width(count) - 1))
    for name, fault in faults:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wps.lattice, name, fault)
            for m in ms:
                with pytest.raises(AssertionError, match="face numerator fails the y = 1 check"):
                    face_histogram(q, m)


@pytest.mark.parametrize("raw", [(1, 1, 2), (2, 3, 5, 7), (2, 3, 4, 15, 25), (24, 33, 728, 5005),
                                 (2, 3, 5, 6, 50, 100)])
def test_face_counts_at_sampled_dilates_meet_the_sum_check(monkeypatch, raw):
    # at m <= n // 2 the samples are the answer: a count moved off the
    # vertex row into row p keeps the numerator's sum at y = 1, yet the
    # counts at each dilate must still sum to the table's total there
    q = WeightsVector(raw)
    numerator, face_samples = wps.lattice._numerator, wps.lattice._face_samples
    for p in range(1, q.n + 2):
        def moved(weights, terms, p=p):
            rows, w = numerator(weights, terms)
            rows[p] += 1
            rows[0] -= 1
            return rows, w

        monkeypatch.setattr(wps.lattice, "_numerator", moved)
        for m in range(1, q.n // 2 + 1):
            with pytest.raises(AssertionError, match="face counts fail the sum check"):
                face_histogram(q, m)
    monkeypatch.setattr(wps.lattice, "_numerator", numerator)
    for t in range(q.n + 1):
        def corrupted(weights, delta, k, t=t):
            samples, totals = face_samples(weights, delta, k)
            samples[t][-1] += 1
            return samples, totals

        monkeypatch.setattr(wps.lattice, "_face_samples", corrupted)
        for m in range(1, q.n // 2 + 1):
            with pytest.raises(AssertionError, match="face counts fail the sum check"):
                face_histogram(q, m)
