import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wps.fan import (FanRejection, canonical_fan, fan_from_weights, fan_isomorphic,
                     permutation_matrix, recognize_fan)
from wps.linalg import DimensionError, IntMatrix, is_hnf
from wps.weights import WeightsVector

from oracles import (canonical_fan_by_hnf, canonical_fan_diophantine, random_permutation,
                     random_unimodular, random_weights)


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


# ---------------------------------------------------------------------------
# construction


def test_fan_from_weights_small():
    for raw in ((1, 1), (2, 3), (2, 3, 4, 15, 25)):
        q = WeightsVector(raw)
        fan = fan_from_weights(q)
        assert fan.weights.q == q.q


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


def test_canonical_block_is_nonneg_hnf_and_first_column_negative():
    rng = random.Random(5)
    for _ in range(60):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=60))
        fan = canonical_fan(q)
        block = fan.rays_block()
        assert is_hnf(block)
        assert all(x >= 0 for row in block.entries for x in row)
        assert all(x < 0 for x in fan.column(0))


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
        fan = fan_from_weights(q)
        assert recognize_fan(fan.v).weights == q


def test_recognition_is_gl_invariant_on_the_left():
    rng = random.Random(12)
    for _ in range(80):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5))
        v = fan_from_weights(q).v
        a = random_unimodular(rng, v.rows)
        assert recognize_fan(a @ v).weights == q


def test_recognition_is_permutation_equivariant_on_the_right():
    rng = random.Random(13)
    for _ in range(80):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5))
        v = fan_from_weights(q).v
        sigma = random_permutation(rng, v.cols)
        permuted = recognize_fan(v @ permutation_matrix(sigma))
        assert permuted.weights.q == tuple(q[sigma[j]] for j in range(v.cols))


def test_fan_isomorphism():
    assert fan_isomorphic(canonical_fan(WeightsVector((2, 3))),
                          fan_from_weights(WeightsVector((3, 2))))
    assert fan_isomorphic(fan_from_weights(WeightsVector((1, 2, 2))),
                          canonical_fan(WeightsVector((1, 1, 1))))
    assert not fan_isomorphic(fan_from_weights(WeightsVector((1, 1, 2))),
                              fan_from_weights(WeightsVector((1, 2, 3))))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 25), min_size=2, max_size=5).map(tuple))
def test_epsilon_is_recorded_not_normalized(raw):
    q = WeightsVector(raw)
    v = fan_from_weights(q).v
    flipped = IntMatrix.from_rows([[-x for x in v.entries[0]]] + [list(r) for r in v.entries[1:]])
    fan = recognize_fan(flipped)
    assert fan.weights == q
    assert fan.epsilon in (0, 1)
