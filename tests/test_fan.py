import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import wps.fan
import wps.linalg
import wps.weights
from wps.cli import main
from wps.fan import (FanRejection, canonical_fan, fan_isomorphic, permutation_matrix,
                     recognize_fan)
from wps.linalg import DimensionError, IntMatrix, is_hnf
from wps.weights import WeightsVector

from oracles import (canonical_fan_by_hnf, canonical_fan_diophantine, random_permutation,
                     random_unimodular, random_weights, witness_fan)


CANONICAL_2_3_4_15_25 = IntMatrix.from_rows([
    [-14, 1, 0, 0, 1],
    [-2, 0, 1, 0, 0],
    [-20, 0, 0, 1, 1],
    [-25, 0, 0, 0, 2],
])


# ---------------------------------------------------------------------------
# recognition


def test_recognize_smallest_fan():
    fan = recognize_fan(IntMatrix.from_rows([[1, -1]]))
    assert fan.weights.q == (1, 1)


def test_recognize_canonical_example():
    fan = recognize_fan(CANONICAL_2_3_4_15_25)
    assert fan.weights.q == (2, 3, 4, 15, 25)
    assert fan.epsilon == 0


def test_recognize_rejects_nonzero_weighted_sum():
    with pytest.raises(FanRejection) as exc:
        recognize_fan(IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    assert exc.value.code == "nonzero-weighted-sum"


def test_a_nonzero_weighted_sum_names_its_first_row():
    # minors (1, 1, 1): row 0 weighs to 1 - 1 = 0, row 1 to 1 + 1 = 2
    with pytest.raises(FanRejection) as exc:
        recognize_fan(IntMatrix.from_rows([[1, 0, -1], [0, 1, 1]]))
    assert exc.value.code == "nonzero-weighted-sum"
    assert exc.value.index == 1
    assert str(exc.value) == "weighted column sum is nonzero in row 1"


def test_minors_whose_signs_do_not_alternate_on_a_fan_are_an_error(monkeypatch, capsys,
                                                                    tmp_path):
    # one minor's sign flipped on a genuine fan: every |minor|-weighted row
    # sum still vanishes, which the minors of a matrix never allow
    minors_of = wps.fan.max_minors

    def flipped(v):
        m = list(minors_of(v))
        m[2] = -m[2]
        return tuple(m)

    monkeypatch.setattr(wps.fan, "max_minors", flipped)
    with pytest.raises(AssertionError, match="minor signs do not alternate"):
        recognize_fan(CANONICAL_2_3_4_15_25)
    path = tmp_path / "fan.json"
    path.write_text(str(list(map(list, CANONICAL_2_3_4_15_25.entries))))
    assert main(["recognize-fan", "--matrix", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: minor signs do not alternate\n"


def test_recognize_rejects_zero_minor():
    # deleting column 2 leaves rows (1,1),(0,0) with determinant zero
    with pytest.raises(FanRejection) as exc:
        recognize_fan(IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]]))
    assert exc.value.code == "zero-minor"
    assert exc.value.index == 2


def test_recognize_rejects_non_coprime_minors():
    # columns (2,0), (0,2), (-2,-2): minors are -4, 4, -4... all equal size
    with pytest.raises(FanRejection) as exc:
        recognize_fan(IntMatrix.from_rows([[2, 0, -2], [0, 2, -2]]))
    assert exc.value.code == "non-coprime-minors"


def test_recognize_shape_check():
    with pytest.raises(DimensionError):
        recognize_fan(IntMatrix.from_rows([[1, 2], [3, 4]]))


@pytest.mark.parametrize("rows,weights,epsilon,error", [
    ([[1, -1]], (1, 1), 2, ValueError),             # epsilon is 0 or 1
    ([[1, 2], [3, 4]], (1, 1), 0, DimensionError),  # not n x (n+1)
    ([[1, -1]], (1, 1, 1), 0, DimensionError),      # one weight per column
], ids=["epsilon", "shape", "weights"])
def test_fan_matrix_invariants(rows, weights, epsilon, error):
    with pytest.raises(error):
        wps.fan.FanMatrix(v=IntMatrix.from_rows(rows), weights=WeightsVector(weights),
                          epsilon=epsilon)


def test_canonical_fan_needs_two_weights():
    with pytest.raises(DimensionError, match="need at least two weights"):
        canonical_fan(WeightsVector((7,)))


@pytest.mark.parametrize("sigma", [(0, 0, 1), (1, 2), (0, 1, 3)])
def test_permutation_matrix_rejects_a_non_permutation(sigma):
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_matrix(sigma)


# ---------------------------------------------------------------------------
# construction


def test_witness_fan_small():
    # the oracle fan that tests use where the fan must not be canonical
    for raw in ((1, 1), (2, 3), (2, 3, 4, 15, 25)):
        q = WeightsVector(raw)
        fan = witness_fan(q)
        assert fan.weights.q == q.q
    assert witness_fan(WeightsVector((2, 3, 4, 15, 25))).v != CANONICAL_2_3_4_15_25


def test_canonical_fan_of_paper_weights():
    fan = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    assert fan.v == CANONICAL_2_3_4_15_25


def test_canonical_fan_of_projective_line_and_plane():
    fan = canonical_fan(WeightsVector((1, 1)))
    assert fan.v == IntMatrix.from_rows([[-1, 1]])
    fan = canonical_fan(WeightsVector((1, 1, 1)))
    assert fan.v == IntMatrix.from_rows([[-1, 1, 0], [-1, 0, 1]])


def test_canonical_fan_matches_diophantine_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=40))
        got = canonical_fan(q).v
        want = canonical_fan_diophantine(q.q)
        assert got == want, f"mismatch for {q}"


def test_oracle_asserts_survive_python_O():
    # conftest.py registers oracles.py for assert rewriting, so its own
    # checks still run in the CI step under python -O
    with pytest.raises(AssertionError):
        canonical_fan_diophantine((2, 4))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 2 ** 64), min_size=2, max_size=9))
def test_canonical_fan_matches_both_oracles(raw):
    q = WeightsVector(tuple(raw))
    assert canonical_fan(q).v == canonical_fan_diophantine(q.q) == canonical_fan_by_hnf(q.q)


@settings(max_examples=4, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_canonical_fan_matches_both_oracles_at_4000_to_5000_digits(n, seed):
    rng = random.Random(seed)
    q = WeightsVector(tuple(rng.randrange(10 ** 3999, 10 ** 5000) for _ in range(n + 1)))
    assert canonical_fan(q).v == canonical_fan_diophantine(q.q) == canonical_fan_by_hnf(q.q)


@st.composite
def weights_of_size(draw, n_max, bits_max):
    n = draw(st.integers(1, n_max))
    bits = draw(st.integers(1, bits_max))
    return WeightsVector(tuple(draw(st.lists(st.integers(1, 2 ** bits),
                                             min_size=n + 1, max_size=n + 1))))


def assert_canonical_fan_checks_out(q):
    # the certificate stands in for recognize_fan, so recognition must
    # return the same fan, and the fan must be the HNF one of the oracle
    fan = canonical_fan(q)
    assert recognize_fan(fan.v) == fan
    assert fan.weights == q and fan.epsilon == 0
    assert fan.v == canonical_fan_by_hnf(q.q)


@settings(max_examples=150, deadline=None)
@given(weights_of_size(n_max=12, bits_max=256))
def test_canonical_fan_is_recognized_and_matches_the_hnf_oracle(q):
    assert_canonical_fan_checks_out(q)


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 3), seed=st.integers(0, 2 ** 32))
def test_canonical_fan_is_recognized_at_4096_bits(n, seed):
    rng = random.Random(seed)
    assert_canonical_fan_checks_out(WeightsVector(tuple(rng.getrandbits(4096) | 1
                                                        for _ in range(n + 1))))


def test_canonical_fan_with_every_pivot_two():
    # every entry above the diagonal is a nonzero residue
    assert canonical_fan(WeightsVector((8, 3, 6, 4))).v == IntMatrix.from_rows([
        [-2, 2, 1, 1],
        [-2, 0, 2, 1],
        [-1, 0, 0, 2],
    ])


def test_canonical_fan_with_pivots_one_three_four():
    assert canonical_fan(WeightsVector((12, 18, 8, 27))).v == IntMatrix.from_rows([
        [-6, 1, 0, 2],
        [-2, 0, 3, 0],
        [-9, 0, 0, 4],
    ])


# ---------------------------------------------------------------------------
# the certificate that replaces recognition inside canonical_fan


def corrupt_rows(monkeypatch, change):
    """Make ``_canonical_row`` return ``change(i, row, last_row)``."""
    row_of = wps.fan._canonical_row

    def corrupted(q, i, g, d, inv):
        return change(i, row_of(q, i, g, d, inv), row_of(q, len(q) - 1, g, d, inv))

    monkeypatch.setattr(wps.fan, "_canonical_row", corrupted)


@pytest.mark.parametrize("change, message", [
    # row 1 plus row 3 of (8,3,6,4): in the kernel, pivots unchanged, but
    # its column-3 entry is 3, not reduced below the pivot 2
    (lambda i, row, last: [a + b for a, b in zip(row, last)] if i == 1 else row,
     "canonical block is not a nonnegative HNF"),
    # row 1 minus row 3: in the kernel with the same pivots, one entry -1
    (lambda i, row, last: [a - b for a, b in zip(row, last)] if i == 1 else row,
     "canonical block is not a nonnegative HNF"),
    # a nonnegative column 0 with a valid block; with the other conditions
    # it cannot occur, so this row leaves the kernel
    (lambda i, row, last: [0] + row[1:], "canonical rows are not in the kernel of the weights"),
    # the last row doubled: in the kernel and still an HNF, pivots 2*q_0
    (lambda i, row, last: [2 * x for x in row] if i == 3 else row,
     "canonical pivots do not multiply to q_0"),
    # row 2 with column 0 shifted: an HNF with the right pivots, off the kernel
    (lambda i, row, last: [row[0] - 1] + row[1:] if i == 2 else row,
     "canonical rows are not in the kernel of the weights"),
], ids=["unreduced-entry", "negative-entry", "nonnegative-column-0", "scaled-row",
        "non-kernel-row"])
def test_each_certificate_condition_is_checked(monkeypatch, capsys, change, message):
    corrupt_rows(monkeypatch, change)
    with pytest.raises(AssertionError, match=message):
        canonical_fan(WeightsVector((8, 3, 6, 4)))
    assert main(["fan", "--weights", "8,3,6,4", "--canonical"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"internal error: {message}\n"


def test_a_row_that_does_not_close_on_column_0_is_an_error(monkeypatch, capsys):
    # with every inverse 0, row 1 of (8,3,6,4) is (x_0, 2, 0, 0) with the
    # partial sum 6, which q_0 = 8 does not divide: the HNF and pivot checks
    # read only columns 1..n and pass, and x_0 = -6 // 8 leaves row . q = -2
    monkeypatch.setattr(wps.fan, "pow", lambda *args: 0, raising=False)
    message = "canonical rows are not in the kernel of the weights"
    with pytest.raises(AssertionError, match=message):
        canonical_fan(WeightsVector((8, 3, 6, 4)))
    assert main(["fan", "--weights", "8,3,6,4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"internal error: {message}\n"


def test_canonical_fan_runs_no_elimination_and_no_euclid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise RuntimeError("canonical_fan must not call this")

    monkeypatch.setattr(wps.linalg, "_jordan", forbidden)
    monkeypatch.setattr(wps.fan, "max_minors", forbidden)
    monkeypatch.setattr(wps.weights, "_extended_gcd_combination", forbidden)
    assert canonical_fan(WeightsVector((2, 3, 4, 15, 25))).v == CANONICAL_2_3_4_15_25
    rng = random.Random(9)
    for _ in range(20):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=8, w_max=10 ** 6))
        assert canonical_fan(q).weights == q


def test_canonical_block_is_nonneg_hnf_and_first_column_negative():
    rng = random.Random(5)
    for _ in range(60):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=60))
        fan = canonical_fan(q)
        block = fan.v.delete_column(0)
        assert is_hnf(block)
        assert all(x >= 0 for row in block.entries for x in row)
        assert all(x < 0 for x in fan.v.column(0))


def test_moving_first_column_last_keeps_canonical_fan_in_hnf():
    # (V^0 | v_0) is in HNF: the triangular block supplies the pivots and
    # the trailing negative column is unconstrained
    rng = random.Random(6)
    for _ in range(40):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=40))
        v = canonical_fan(q).v
        n = v.rows
        perm = tuple(range(1, n + 1)) + (0,)
        moved = v @ permutation_matrix(perm)
        assert is_hnf(moved)


def test_canonical_fan_deletion_recursion():
    # removing the second column and the first row, after scaling column 0
    # by gcd(q_0, q_2, ..., q_n), yields the canonical fan of the shortened
    # weights (whenever those are again coprime)
    rng = random.Random(77)
    done = 0
    while done < 60:
        q = WeightsVector(random_weights(rng, n_min=2, n_max=5, w_max=40))
        k2 = gcd(q[0], *q.q[2:])
        hat = (q[0] // k2,) + q.q[2:]
        if gcd(*hat) != 1:
            continue
        done += 1
        v = canonical_fan(q).v
        rows = [[k2 * r[0]] + list(r[2:]) for r in v.entries[1:]]
        assert IntMatrix.from_rows(rows) == canonical_fan(WeightsVector(hat)).v


# ---------------------------------------------------------------------------
# invariance properties


def test_round_trip_recognition():
    rng = random.Random(11)
    for _ in range(150):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=6, w_max=10 ** 4))
        fan = witness_fan(q)
        assert recognize_fan(fan.v).weights == q


def test_recognition_is_gl_invariant_on_the_left():
    rng = random.Random(12)
    for _ in range(80):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5))
        v = canonical_fan(q).v
        a = random_unimodular(rng, v.rows)
        assert recognize_fan(a @ v).weights == q


def test_recognition_is_permutation_equivariant_on_the_right():
    rng = random.Random(13)
    for _ in range(80):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5))
        v = canonical_fan(q).v
        sigma = random_permutation(rng, v.cols)
        permuted = recognize_fan(v @ permutation_matrix(sigma))
        assert permuted.weights.q == tuple(q[sigma[j]] for j in range(v.cols))


def test_fan_isomorphism():
    assert fan_isomorphic(canonical_fan(WeightsVector((2, 3))),
                          witness_fan(WeightsVector((3, 2))))
    assert fan_isomorphic(witness_fan(WeightsVector((1, 2, 2))),
                          canonical_fan(WeightsVector((1, 1, 1))))
    assert not fan_isomorphic(witness_fan(WeightsVector((1, 1, 2))),
                              canonical_fan(WeightsVector((1, 2, 3))))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 25), min_size=2, max_size=5).map(tuple))
def test_epsilon_is_recorded_not_normalized(raw):
    q = WeightsVector(raw)
    v = witness_fan(q).v
    flipped = IntMatrix.from_rows([[-x for x in v.entries[0]]] + [list(r) for r in v.entries[1:]])
    fan = recognize_fan(flipped)
    assert fan.weights == q
    assert fan.epsilon in (0, 1)
