import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import wps.linalg
from wps.linalg import (DimensionError, IntMatrix, SingularMatrixError, _diagonal_of,
                        _primitive_rows, is_hnf, max_minors)

from oracles import (RatMatrix, adjoint, adjugate_cofactor, diagonal, ext_gcd, hnf,
                     random_unimodular, row_gcds, to_rational, transverse, what_by_adjugate)


def mat(rows):
    return IntMatrix.from_rows(rows)


def scalar(n, d=1):
    return diagonal((d,) * n)


small_square = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                       min_size=n, max_size=n))

small_any = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-30, 30), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


# ---------------------------------------------------------------------------
# HNF


def test_hnf_column_3_6():
    # hand row reduction: (3,6) -> (3,0) by subtracting twice the first row
    res = hnf(mat([[3], [6]]))
    assert res.hnf == mat([[3], [0]])
    assert res.rank == 1
    assert res.transform @ mat([[3], [6]]) == res.hnf
    assert abs(res.transform.det()) == 1


def test_hnf_identity_fixed_point():
    for n in (1, 2, 4):
        res = hnf(scalar(n))
        assert res.hnf == scalar(n)
        assert res.transform == scalar(n)
        assert res.rank == n


def test_hnf_column_2_3_reaches_unit():
    # extended Euclid: gcd(2,3) = 1, so the HNF is the unit column
    g, x, y = ext_gcd(2, 3)
    assert g == 2 * x + 3 * y == 1
    res = hnf(mat([[2], [3]]))
    assert res.hnf == mat([[1], [0]])
    assert res.transform @ mat([[2], [3]]) == res.hnf
    assert abs(res.transform.det()) == 1


def test_hnf_zero_matrix():
    z = mat([[0, 0]] * 3)
    res = hnf(z)
    assert res.hnf == z
    assert res.rank == 0
    assert res.transform == scalar(3)


def test_hnf_predicate_rejects_bad_layouts():
    assert is_hnf(mat([[1, 5], [0, 3]])) is False   # 5 not reduced mod 3
    assert is_hnf(mat([[1, 2], [0, 3]]))
    assert is_hnf(mat([[0, 0], [1, 0]])) is False   # zero row on top
    assert is_hnf(mat([[-1, 0], [0, 1]])) is False  # negative pivot


@settings(max_examples=150, deadline=None)
@given(small_any, st.randoms(use_true_random=False))
def test_hnf_uniqueness_under_unimodular_left_action(rows, rng):
    a = mat(rows)
    u = random_unimodular(rng, a.rows)
    left = hnf(u @ a)
    right = hnf(a)
    assert left.hnf == right.hnf
    assert left.rank == right.rank
    assert is_hnf(right.hnf)
    assert right.transform @ a == right.hnf
    assert abs(right.transform.det()) == 1


# ---------------------------------------------------------------------------
# determinants


@st.composite
def det_inputs(draw):
    """A square matrix, n = 1..7, singular about half the time: its last
    row an integer combination of the others (zero when n = 1)."""
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    return rows


@settings(max_examples=200, deadline=None)
@given(det_inputs())
def test_det_matches_rational_elimination(rows):
    a = mat(rows)
    assert a.det() == to_rational(a).det()


def test_det_of_large_entries():
    # 1,024-bit entries, nonsingular and with a dependent last row
    rng = random.Random(23)
    for n in (1, 2, 3, 5, 8):
        rows = [[rng.randint(-(1 << 1024), 1 << 1024) for _ in range(n)] for _ in range(n)]
        a = mat(rows)
        assert a.det() == to_rational(a).det() != 0
        if n > 1:
            rows[-1] = [3 * x - 7 * y for x, y in zip(rows[0], rows[-2])]
            assert mat(rows).det() == to_rational(mat(rows)).det() == 0


def test_det_shape_check():
    with pytest.raises(DimensionError):
        mat([[1, 2]]).det()


# ---------------------------------------------------------------------------
# maximal minors


def test_entries_keep_their_conversions():
    # exact ints pass through unchanged; bools, integral fractions and
    # decimal strings convert, anything inexact is refused
    big = 3 ** 700
    assert mat([[big]]).entries[0][0] is big
    assert mat([[True, Fraction(4, 2), "-7", 5]]).entries == ((1, 2, -7, 5),)
    with pytest.raises(ValueError):
        mat([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        mat([[2.0]])


def test_minors_of_1x2():
    assert max_minors(mat([[1, -1]])) == (-1, 1)


def test_minors_of_unit_rows():
    assert max_minors(mat([[1, 0, 0], [0, 1, 0]])) == (0, 0, 1)


def test_minors_of_canonical_fan_recover_weights():
    v = mat([[-14, 1, 0, 0, 1],
             [-2, 0, 1, 0, 0],
             [-20, 0, 0, 1, 1],
             [-25, 0, 0, 0, 2]])
    assert tuple(abs(x) for x in max_minors(v)) == (2, 3, 4, 15, 25)


@st.composite
def minor_inputs(draw):
    """An ``n x (n+1)`` matrix, n = 1..10: generic, with a singular
    block of columns 1..n (column 2 = column 1), or of rank < n."""
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(("generic", "singular-block", "rank-deficient")))
    if shape == "singular-block" and n >= 2:
        rows = [r[:2] + [r[1]] + r[3:] for r in rows]
    elif shape == "rank-deficient":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n + 1)]
    return shape, rows


@settings(max_examples=150, deadline=None)
@given(minor_inputs())
def test_minors_match_deleted_column_determinants(case):
    shape, rows = case
    v = mat(rows)
    minors = max_minors(v)
    assert minors == tuple(v.delete_column(j).det() for j in range(v.cols))
    # .det() runs the same kernel as max_minors; the rational elimination does not
    assert minors == tuple(to_rational(v.delete_column(j)).det() for j in range(v.cols))
    if shape == "singular-block" and v.rows >= 2:
        assert minors[0] == 0
    if shape == "rank-deficient":
        assert not any(minors)


@st.composite
def dependent_column_inputs(draw):
    """An ``n x (n+1)`` matrix, n = 2..8, whose column ``t`` is an integer
    combination of the columns in ``support``: each block ``B_j`` with
    ``j`` outside ``support`` and ``t`` is singular, so the first block
    that is not sits at a random column."""
    n = draw(st.integers(2, 8))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    t = draw(st.integers(0, n))
    support = draw(st.lists(st.sampled_from([j for j in range(n + 1) if j != t]),
                            min_size=1, max_size=n - 1, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                           min_size=len(support), max_size=len(support)))
    for r in rows:
        r[t] = sum(c * r[j] for c, j in zip(coeffs, support))
    return rows, set(support) | {t}


@settings(max_examples=150, deadline=None)
@given(dependent_column_inputs())
def test_minors_with_a_singular_block_at_a_random_column(case):
    rows, dependent = case
    v = mat(rows)
    minors = max_minors(v)
    assert minors == tuple(to_rational(v.delete_column(j)).det() for j in range(v.cols))
    assert all(minors[j] == 0 for j in range(v.cols) if j not in dependent)


def test_minors_shape_check():
    with pytest.raises(DimensionError):
        max_minors(mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


# ---------------------------------------------------------------------------
# the oracle adjugate (fraction-free elimination) against cofactor expansion


def test_adjoint_scalar_and_identity():
    assert adjoint(mat([[2, 0], [0, 2]])) == (4, mat([[2, 0], [0, 2]]))
    assert adjoint(scalar(3)) == (1, scalar(3))


def test_adjoint_of_polytope_matrix():
    w = mat([[100, 0, 0, 0], [0, 75, 0, 0], [0, 0, 20, 0], [-50, 0, -10, 6]])
    expected = adjugate_cofactor([list(r) for r in w.entries])
    assert expected == [[9000, 0, 0, 0], [0, 12000, 0, 0],
                        [0, 0, 45000, 0], [75000, 0, 75000, 150000]]
    assert adjoint(w) == (w.det(), mat(expected))


def test_adjoint_rejects_singular():
    with pytest.raises(SingularMatrixError):
        adjoint(mat([[1, 2], [2, 4]]))


@settings(max_examples=200, deadline=None)
@given(small_square)
def test_adjoint_matches_cofactor_oracle(rows):
    a = mat(rows)
    if a.det() == 0:
        with pytest.raises(SingularMatrixError):
            adjoint(a)
        return
    d, adj = adjoint(a)
    assert d == a.det()
    assert adj == mat(adjugate_cofactor([list(r) for r in rows]))
    assert adj @ a == scalar(a.rows, d)


def test_adjoint_large_entries_stay_exact():
    rng = random.Random(7)
    for _ in range(10):
        rows = [[rng.randint(-10 ** 9, 10 ** 9) for _ in range(5)] for _ in range(5)]
        a = mat(rows)
        d = a.det()
        if d == 0:
            continue
        det, adj = adjoint(a)
        assert det == d
        assert adj @ a == scalar(5, d)


# ---------------------------------------------------------------------------
# transversion


def test_transverse_identity_and_diagonal():
    eye = RatMatrix.identity(3)
    assert transverse(eye) == eye
    d = RatMatrix.from_rows([[2, 0], [0, 3]])
    assert transverse(d) == RatMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_transverse_of_canonical_block():
    block = mat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]])
    got = transverse(to_rational(block))
    expected = RatMatrix.from_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [Fraction(-1, 2), 0, Fraction(-1, 2), Fraction(1, 2)],
    ])
    assert got == expected


rat_entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))

rat_pair = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rat_entry, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(rat_entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(rat_pair)
def test_transverse_involution_and_multiplicativity(pair):
    from hypothesis import assume
    a = RatMatrix.from_rows(pair[0])
    b = RatMatrix.from_rows(pair[1])
    assume(a.det() != 0 and b.det() != 0)
    assert transverse(transverse(a)) == a
    assert transverse(a @ b) == transverse(a) @ transverse(b)
    assert transverse(a).det() == 1 / a.det()


# ---------------------------------------------------------------------------
# primitive facet normals (the row-normalized adjugate): the rows of the
# paper's W-hat matrix, as _primitive_rows computes them


def test_what_matrix_examples():
    assert _primitive_rows(mat([[2, 0], [0, 2]]))[0] == scalar(2)
    assert _primitive_rows(scalar(4))[0] == scalar(4)
    w = mat([[100, 0, 0, 0], [0, 75, 0, 0], [0, 0, 20, 0], [-50, 0, -10, 6]])
    # adjugate rows divided by their gcds (9000, 12000, 45000, 75000)
    assert _primitive_rows(w)[0] == mat([[1, 0, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [1, 0, 1, 2]])


@settings(max_examples=150, deadline=None)
@given(small_square)
def test_what_matrix_product_is_positive_diagonal(rows):
    a = mat(rows)
    d = a.det()
    if d == 0:
        return
    what, lam, _ = _primitive_rows(a)
    prod = diagonal(lam)
    assert prod == what @ a
    for i in range(a.rows):
        for j in range(a.rows):
            x = prod.entries[i][j]
            if i == j:
                assert x > 0 and abs(d) % x == 0
            else:
                assert x == 0


def random_square(rng, n, bits):
    # about one in six has a repeated row or a zero column, so is singular
    rows = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(12)
    if kind == 0 and n > 1:
        rows[-1] = [3 * x for x in rows[0]]
    elif kind == 1:
        for r in rows:
            r[rng.randrange(n)] = 0
        for r in rows:
            r[0] = 0
    return mat(rows)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9), st.sampled_from((3, 8, 64, 256)), st.integers(0, 2 ** 32))
def test_primitive_rows_match_the_normalized_adjugate(n, bits, seed):
    a = random_square(random.Random(seed), n, bits)
    if a.det() == 0:
        with pytest.raises(SingularMatrixError):
            _primitive_rows(a)
        return
    rows, lam, _ = _primitive_rows(a)
    assert rows == what_by_adjugate(*adjoint(a))
    assert rows @ a == diagonal(lam)


def test_primitive_rows_of_large_entries():
    # entries of 1,024 bits, and a matrix whose rows share content
    rng = random.Random(11)
    for n in (2, 3, 5):
        a = random_square(rng, n, 1024)
        if a.det():
            assert _primitive_rows(a)[0] == what_by_adjugate(*adjoint(a))
    a = mat([[6, 4, 2], [10, 0, 5], [0, 9, 3]])      # det -210
    rows, lam, _ = _primitive_rows(a)
    assert rows == what_by_adjugate(*adjoint(a)) and lam == (210, 105, 105)


@st.composite
def pivoting_squares(draw):
    """An ``n x n`` matrix, n = 1..6: dense, or the rows of an upper
    triangular matrix with nonzero diagonal in a random order, so that
    every step whose pivot row sits lower swaps rows; its diagonal
    entries, and so the pivots, take either sign."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        diag = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=n, max_size=n))
        rows = [[0] * i + [diag[i]] + r[i + 1:] for i, r in enumerate(rows)]
        rows = draw(st.permutations(rows))
    return rows


def check_tracked_determinant(a):
    rows, lam, det = _primitive_rows(a)
    assert det == to_rational(rows).det()
    assert det * to_rational(a).det() == prod(lam)


@settings(max_examples=200, deadline=None)
@given(pivoting_squares())
def test_primitive_rows_track_their_determinant(rows):
    a = mat(rows)
    if to_rational(a).det() == 0:
        with pytest.raises(SingularMatrixError):
            _primitive_rows(a)
        return
    check_tracked_determinant(a)


def test_primitive_rows_track_the_determinant_of_large_entries():
    rng = random.Random(11)
    for n in range(1, 7):
        a = random_square(rng, n, 1024)
        if to_rational(a).det():
            check_tracked_determinant(a)
    check_tracked_determinant(mat([[6, 4, 2], [10, 0, 5], [0, 9, 3]]))
    check_tracked_determinant(mat([[0, 1], [-1, 0]]))    # a swap, then a negative pivot


def test_diagonal_check_at_the_entry_bound():
    # bound = n * max|r| * max|a| = 2: products with every entry at the
    # bound, of either sign, are told apart from diag(2, 2)
    plus_minus = mat([[1, 1], [1, -1]]).entries
    assert _diagonal_of([[1, 1], [1, -1]], plus_minus) == (2, 2)
    for a in ([[1, 1], [1, 1]], [[1, -1], [1, -1]], [[-1, 1], [-1, 1]]):
        with pytest.raises(AssertionError, match="defining identity"):
            _diagonal_of([[1, 1], [1, 1]], mat(a).entries)
    with pytest.raises(AssertionError, match="defining identity"):
        _diagonal_of([[1, 0], [0, -1]], plus_minus)        # diag(1, 1) off by a sign
    # row (-1, 1, 0) at bound 3 would read as lam_0 = 3 with X = 4, which
    # is above the bound but not above twice it: X = 8 tells them apart
    with pytest.raises(AssertionError, match="defining identity"):
        _diagonal_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ((-1, 1, 0), (0, 1, 0), (0, 0, 1)))


DENSE = [mat([[3, -5, 7], [2, 4, -1], [-6, 1, 5]]), mat([[2, 3], [5, -7]])]
PAPER_W = mat([[100, 0, 0, 0], [0, 75, 0, 0], [0, 0, 20, 0], [-50, 0, -10, 6]])
MERSENNE_89 = 2 ** 89 - 1     # a prime above every determinant in these tests


@pytest.mark.parametrize("a", DENSE + [PAPER_W], ids=["3x3", "2x2", "paper"])
def test_primitive_rows_reject_a_wrong_content(monkeypatch, a):
    primitive = wps.linalg._primitive

    def wrong_content(row):
        quotients, c = primitive(row)
        return quotients, c * MERSENNE_89

    monkeypatch.setattr(wps.linalg, "_primitive", wrong_content)
    with pytest.raises(AssertionError, match="lost their determinant"):
        _primitive_rows(a)


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("change", [1, -1])
@pytest.mark.parametrize("a", DENSE, ids=["3x3", "2x2"])
def test_primitive_rows_reject_a_corrupted_row(monkeypatch, a, change, where):
    # only the last step's updates, whose rows are the right block alone,
    # are corrupted: the determinant stays exact, and the product gets
    # row ``where`` of the dense ``a`` as an off-diagonal error
    primitive = wps.linalg._primitive

    def corrupted(row):
        out, c = primitive(row)
        if len(row) == a.rows:
            out = list(out)
            out[where] += change
        return out, c

    monkeypatch.setattr(wps.linalg, "_primitive", corrupted)
    with pytest.raises(AssertionError, match="defining identity"):
        _primitive_rows(a)


def test_primitive_rows_reject_non_square():
    with pytest.raises(DimensionError):
        _primitive_rows(mat([[1, 2]]))


def test_row_gcds():
    assert row_gcds(mat([[4, 6], [0, 0], [-3, 9]])) == (2, 0, 3)
