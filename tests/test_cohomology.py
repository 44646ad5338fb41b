import json
import random
from fractions import Fraction
from math import comb

import pytest

import wps.weights
from wps.cli import main
from wps.cohomology import (divisor_info, h0_line_bundle, hodge, hodge_table,
                            rational_homology)
from wps.lattice import count_points
from wps.linalg import DimensionError
from wps.weights import WeightsVector, reduce_weights, reduction_data

from oracles import betti_by_cone_count, random_weights


# ---------------------------------------------------------------------------
# divisor classes


def test_divisors_of_ordinary_projective_space():
    for n in (1, 2, 4):
        info = divisor_info(WeightsVector((1,) * (n + 1)))
        assert sum(info.chow_generator) == 1
        assert info.picard_index == 1
        assert info.gorenstein and info.fano
        assert info.canonical_degree == -(n + 1)


def test_divisors_of_2_3_reduce_to_the_line():
    # (2,3) presents P^1: the class equation runs over the reduced
    # weights (1,1), the Picard index is 1 and the space is Fano
    info = divisor_info(WeightsVector((2, 3)))
    assert sum(info.chow_generator) == 1
    assert info.picard_index == 1
    assert info.gorenstein and info.fano
    assert info.canonical_degree == -2


def test_divisors_of_1_1_2():
    info = divisor_info(WeightsVector((1, 1, 2)))
    b = info.chow_generator
    assert b[0] + b[1] + 2 * b[2] == 1
    assert info.picard_index == 2
    assert info.gorenstein and info.fano
    assert info.canonical_degree == -2


def test_divisors_of_non_gorenstein_weights():
    # (1,2,3): |Q| = 6 is divisible by delta = 6, Gorenstein
    # (1,1,3): |Q| = 5 is not divisible by delta = 3
    assert divisor_info(WeightsVector((1, 2, 3))).gorenstein
    info = divisor_info(WeightsVector((1, 1, 3)))
    assert not info.gorenstein and not info.fano
    assert info.canonical_degree == Fraction(-5, 3)


def test_chow_generator_solves_the_class_equation():
    rng = random.Random(201)
    for _ in range(100):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=50))
        info = divisor_info(q)
        red = reduce_weights(q)
        assert sum(b * w for b, w in zip(info.chow_generator, red.q)) == 1
        assert info.picard_index == red.delta
        assert info.canonical_degree == Fraction(-red.total, red.delta)
        assert (info.canonical_degree.denominator == 1) == info.gorenstein


def test_ampleness_is_divisibility_by_the_picard_index():
    info = divisor_info(WeightsVector((2, 3, 4, 15, 25)))
    assert info.picard_index == 300
    assert info.is_ample(300) and info.is_ample(600)
    assert not info.is_ample(150)
    assert not info.is_ample(0)
    assert not info.is_ample(-300)
    rng = random.Random(202)
    for _ in range(40):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=30))
        info = divisor_info(q)
        assert info.is_ample(info.picard_index)


# ---------------------------------------------------------------------------
# rational homology


def test_rational_homology_values():
    for n in range(1, 9):
        h = rational_homology(WeightsVector((1,) * (n + 1)))
        assert len(h) == 2 * n + 1
        assert all(h[2 * k] == 1 for k in range(n + 1))
        assert all(h[2 * k + 1] == 0 for k in range(n))


def test_rational_homology_matches_the_cone_count():
    for n in range(1, 41):
        assert rational_homology(WeightsVector((1,) * (n + 1))) == betti_by_cone_count(n)


def test_rational_homology_middle_term_by_hand():
    # n = 2: the alternating sum is C(1,1)*3 - C(2,1)*1 = 1
    assert rational_homology(WeightsVector((1, 1, 1)))[2] == 1


# ---------------------------------------------------------------------------
# line bundle sections


def test_h0_matches_lattice_counts():
    q = WeightsVector((1, 1, 2))
    assert h0_line_bundle(q, 1) == 4 == count_points(q, 1)
    assert h0_line_bundle(WeightsVector((1, 1, 1)), 2) == 6


def test_h0_vanishes_for_negative_twists():
    for raw in ((1, 1), (2, 3, 5), (2, 3, 4, 15, 25)):
        assert h0_line_bundle(WeightsVector(raw), -1) == 0


def test_h0_binomials_on_ordinary_space():
    for n in range(1, 6):
        q = WeightsVector((1,) * (n + 1))
        for m in range(0, 7):
            assert h0_line_bundle(q, m) == comb(n + m, n)


# ---------------------------------------------------------------------------
# twisted p-form cohomology


def test_hodge_diagonal_at_zero_twist():
    rng = random.Random(203)
    for _ in range(25):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=20))
        n = q.n
        for p in range(n + 1):
            for qq in range(n + 1):
                assert hodge(q, p, qq, 0) == (1 if p == qq else 0)


def test_hodge_plane_one_forms():
    q = WeightsVector((1, 1, 1))
    # histogram of 2*simplex is {0: 3, 1: 3}: three vertices contribute
    # nothing to one-forms, three edge midpoints contribute C(1,1)
    assert hodge(q, 1, 0, 2) == 3
    assert hodge(q, 1, 0, 1) == 0


def test_hodge_vanishing_band():
    rng = random.Random(204)
    for _ in range(20):
        q = WeightsVector(random_weights(rng, n_min=2, n_max=4, w_max=15))
        n = q.n
        for qq in range(1, n):
            for p in range(n + 1):
                for m in (-3, -1, 1, 2):
                    assert hodge(q, p, qq, m) == 0


def test_hodge_duality_symmetry():
    rng = random.Random(205)
    for _ in range(15):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=3, w_max=10))
        n = q.n
        for p in range(n + 1):
            for m in range(-5, 6):
                assert hodge(q, p, n, m) == hodge(q, n - p, 0, -m)


def test_hodge_euler_characteristic_at_zero():
    rng = random.Random(206)
    for _ in range(15):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=20))
        n = q.n
        chi = sum((-1) ** (p + qq) * hodge(q, p, qq, 0)
                  for p in range(n + 1) for qq in range(n + 1))
        assert chi == n + 1
        assert sum(rational_homology(q)) == n + 1


def test_hodge_euler_sequence_cross_check():
    # on the ordinary plane, h^0 of one-forms twisted by m matches the
    # Euler-sequence count 3*C(m+1, 2) - C(m+2, 2) + [m == 0]
    q = WeightsVector((1, 1, 1))
    for m in range(0, 7):
        euler = 3 * comb(m + 1, 2) - comb(m + 2, 2) + (1 if m == 0 else 0)
        assert hodge(q, 1, 0, m) == euler


def test_hodge_range_checks():
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        hodge(WeightsVector((1, 1)), 2, 0, 0)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        hodge(WeightsVector((1, 1)), 0, -1, 0)


@pytest.mark.parametrize("f", [
    divisor_info, rational_homology,
    # a point: Serre duality would ask h(0, 0, -2) == h(0, 0, 2) == 1
    lambda q: hodge(q, 0, 0, -2),
    lambda q: h0_line_bundle(q, -2),
    lambda q: hodge_table(q, (-2, 2)),
], ids=["divisor_info", "rational_homology", "hodge", "h0_line_bundle", "hodge_table"])
def test_divisor_data_need_two_weights(f):
    with pytest.raises(DimensionError, match="need at least two weights"):
        f(WeightsVector((1,)))


def test_hodge_reduces_weights_internally():
    q = WeightsVector((1, 2, 2))
    red = WeightsVector((1, 1, 1))
    for p in range(3):
        for qq in range(3):
            for m in range(-3, 4):
                assert hodge(q, p, qq, m) == hodge(red, p, qq, m)


# ---------------------------------------------------------------------------
# tables


def test_hodge_table_contents(capsys):
    q = WeightsVector((1, 1, 2))
    table = hodge_table(q, (-2, 2))
    assert table.n == 2
    assert table.cell(0, 0, 0) == 1
    assert table.cell(0, 0, 1) == h0_line_bundle(q, 1)
    assert table.cell(1, 1, 0) == 1
    assert len(table.entries) == 9 * 5
    assert main(["--json", "cohom", "--weights", "1,1,2", "--table", "--m-range", "-2..2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2
    assert all(set(cell) == {"p", "q", "m", "h"} for cell in payload["entries"])
    assert {(c["p"], c["q"], int(c["m"])): int(c["h"])
            for c in payload["entries"]} == table.entries


def test_hodge_table_rejects_empty_range():
    with pytest.raises(ValueError, match=r"^empty range 2\.\.1$"):
        hodge_table(WeightsVector((1, 1)), (2, 1))


def test_a_hodge_table_reduces_its_weights_once(monkeypatch):
    # the reduction data is computed once per vector and kept on it: one
    # reduction for the 21 twists of the table and their 525 cells
    reduce, calls = wps.weights._reduce, []

    def counted(q):
        calls.append(q)
        return reduce(q)

    monkeypatch.setattr(wps.weights, "_reduce", counted)
    q = WeightsVector((2, 3, 4, 15, 25))
    table = hodge_table(q, (-10, 10))
    assert len(calls) == 1
    # a second vector of equal values gets its own reduction data, equal to the first
    twin = WeightsVector((2, 3, 4, 15, 25))
    assert reduction_data(twin) == reduction_data(q)
    assert reduction_data(twin) is not reduction_data(q)
    assert len(calls) == 2
    assert hodge_table(twin, (-10, 10)) == table and len(calls) == 2
