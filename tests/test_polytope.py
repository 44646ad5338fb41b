import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import wps.linalg
import wps.polytope
from wps.fan import FanRejection, canonical_fan, permutation_matrix, recognize_fan
from wps.linalg import IntMatrix, SingularMatrixError, _primitive_rows
from wps.polytope import (LatticeSimplex, PolarizedWps, PolytopeRejection, is_p_admissible,
                          permute_polytope, polytope_of, recognize_polytope,
                          weighted_transverse)
from wps.weights import (WeightsVector, is_reduced, reduce_weights,
                         reduction_data)

from oracles import (admissible_by_inversion, admissible_by_lattice_membership, diagonal,
                     is_p_admissible_by_adjugate, random_permutation, random_unimodular,
                     random_weights, recognize_polytope_by_adjugate, to_rational, transverse,
                     weighted_transverse_by_adjugate, witness_fan)


W_2_3_4_15_25 = IntMatrix.from_rows([
    [100, 0, 0, 0],
    [0, 75, 0, 0],
    [0, 0, 20, 0],
    [-50, 0, -10, 6],
])

CANONICAL_2_3_4_15_25 = IntMatrix.from_rows([
    [-14, 1, 0, 0, 1],
    [-2, 0, 1, 0, 0],
    [-20, 0, 0, 1, 1],
    [-25, 0, 0, 0, 2],
])


def simplex_2_3_4_15_25():
    verts = ((0, 0, 0, 0),) + tuple(W_2_3_4_15_25.column(k) for k in range(4))
    return LatticeSimplex(vertices=verts)


# ---------------------------------------------------------------------------
# weighted transversion


def test_weighted_transverse_of_the_worked_fan():
    fan = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    assert weighted_transverse(fan) == W_2_3_4_15_25


def test_weighted_transverse_of_projective_spaces():
    fan = canonical_fan(WeightsVector((1, 1)))
    assert weighted_transverse(fan) == IntMatrix.from_rows([[1]])
    fan = canonical_fan(WeightsVector((1, 1, 1)))
    assert weighted_transverse(fan) == diagonal((1, 1))


def test_weighted_transverse_always_integral():
    rng = random.Random(21)
    for _ in range(150):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=60))
        v = canonical_fan(q).v
        a = random_unimodular(rng, v.rows)
        fan = recognize_fan(a @ v)
        weighted_transverse(fan)  # raises if any division fails


def test_weighted_transverse_ignores_reduction():
    # the same rays presented with unreduced weights (columns scaled by
    # the complementary gcds d_j) give the identical polytope matrix
    rng = random.Random(22)
    done = 0
    while done < 40:
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=12))
        red = reduce_weights(q)
        if red == q:
            continue
        done += 1
        fan = canonical_fan(q)
        d = reduction_data(q).d
        primitive_cols = []
        for j in range(fan.n + 1):
            col = fan.column(j)
            assert all(x % d[j] == 0 for x in col)
            primitive_cols.append(tuple(x // d[j] for x in col))
        reduced_fan = recognize_fan(
            IntMatrix.from_rows([[c[i] for c in primitive_cols] for i in range(fan.n)]))
        assert reduced_fan.weights == red
        assert weighted_transverse(fan) == weighted_transverse(reduced_fan)
    # consequently the recognized polarization data agree as well
    got = recognize_polytope(polytope_of(WeightsVector((1, 2, 2))))
    want = recognize_polytope(polytope_of(WeightsVector((1, 1, 1))))
    assert got[0] == want[0]


# ---------------------------------------------------------------------------
# polytope construction and recognition


def test_polytope_of_scaled_plane():
    s = polytope_of(WeightsVector((1, 1, 1)), 2)
    assert set(s.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_recognize_simplex_2_3_4_15_25():
    pol, fan = recognize_polytope(simplex_2_3_4_15_25())
    assert pol.weights.q == (2, 3, 4, 15, 25)
    assert pol.polarization == 1
    assert fan.v == CANONICAL_2_3_4_15_25


def test_recognize_scaled_unit_simplex():
    s = LatticeSimplex(vertices=((0, 0), (3, 0), (0, 3)))
    pol, _ = recognize_polytope(s)
    assert pol.weights.q == (1, 1, 1)
    assert pol.polarization == 3


def test_recognize_shifted_vertices_translates_first_to_origin():
    s = LatticeSimplex(vertices=((5, 7), (8, 7), (5, 10)))
    pol, _ = recognize_polytope(s)
    assert pol.weights.q == (1, 1, 1)
    assert pol.polarization == 3


def test_recognize_weighted_plane_polytope():
    pol, _ = recognize_polytope(polytope_of(WeightsVector((1, 1, 2)), 1))
    assert pol.weights.q == (1, 1, 2)
    assert pol.polarization == 1


def test_recognize_skew_triangle():
    # conv(0, (1,0), (1,2)) inverts to the fan [(-1,0),(2,-1),(0,1)]
    # with minors (2,1,1), so recognition succeeds
    s = LatticeSimplex(vertices=((0, 0), (1, 0), (1, 2)))
    pol, fan = recognize_polytope(s)
    assert pol.weights.q == (2, 1, 1)
    assert pol.polarization == 1
    assert weighted_transverse(fan) == s.edge_matrix()


def test_recognize_degenerate_simplex():
    for verts in (((0, 0), (1, 1), (2, 2)),                     # flat, edge gcd 1
                  ((3, 4), (3, 4), (3, 4)),                     # one point, edge gcd 0
                  ((0, 0, 0), (2, 0, 2), (0, 4, 0), (2, 4, 2))):  # flat, edge gcd 2
        with pytest.raises(PolytopeRejection) as exc:
            recognize_polytope(LatticeSimplex(vertices=verts))
        assert exc.value.code == "degenerate"


def test_recognize_rejects_non_wps_simplex():
    # edge matrix [[1,2],[0,3]]: the reconstructed first fan column is
    # fractional, so this triangle is not a wps polytope
    s = LatticeSimplex(vertices=((0, 0), (1, 0), (2, 3)))
    with pytest.raises(PolytopeRejection) as exc:
        recognize_polytope(s)
    assert exc.value.code == "not-wps"


def test_round_trip_weights_and_polarization():
    rng = random.Random(31)
    for _ in range(120):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=50))
        m = rng.randint(1, 5)
        pol, fan = recognize_polytope(polytope_of(q, m))
        assert pol.weights == reduce_weights(q)
        assert pol.polarization == m
        assert is_reduced(pol.weights)


@st.composite
def weights_and_multiple(draw):
    n = draw(st.integers(1, 8))
    bits = draw(st.integers(1, 256))
    raw = draw(st.lists(st.integers(1, 2 ** bits), min_size=n + 1, max_size=n + 1))
    return WeightsVector(tuple(raw)), draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(weights_and_multiple())
def test_polytope_recognizes_as_the_canonical_fan(qm):
    # polytope_of builds on canonical_fan, and recognition returns that
    # fan exactly; unreduced weights come back reduced, with the
    # canonical fan of the reduced weights
    q, m = qm
    red = reduce_weights(q)
    pol, fan = recognize_polytope(polytope_of(q, m))
    assert pol == PolarizedWps(weights=red, polarization=m)
    assert fan == canonical_fan(red)


def test_recognition_is_deterministic():
    s = simplex_2_3_4_15_25()
    first = recognize_polytope(s)
    second = recognize_polytope(s)
    assert first == second


# ---------------------------------------------------------------------------
# inversion identities


def test_what_inverts_transversion_for_reduced_weights():
    rng = random.Random(41)
    done = 0
    while done < 80:
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=40))
        if not is_reduced(q):
            continue
        done += 1
        v = canonical_fan(q).v
        a = random_unimodular(rng, v.rows)
        fan = recognize_fan(a @ v)
        w = weighted_transverse(fan)
        assert _primitive_rows(w)[0].transpose() == fan.rays_block()
        pol, refan = recognize_polytope(
            LatticeSimplex(vertices=((0,) * fan.n,) + tuple(w.column(k) for k in range(fan.n))))
        assert weighted_transverse(refan) == w


def test_recognition_consistency_checks():
    # q_0 = |det what|, q_i = s_i/s, lcm(Q) = |det W|/s are asserted inside
    # recognize_polytope; a successful run on a nontrivial case covers them
    pol, fan = recognize_polytope(simplex_2_3_4_15_25())
    assert pol.weights.delta == 300


# ---------------------------------------------------------------------------
# admissibility conditions


def test_admissibility_of_the_worked_matrix():
    assert is_p_admissible(W_2_3_4_15_25) is True
    assert admissible_by_inversion(W_2_3_4_15_25)
    assert admissible_by_lattice_membership(W_2_3_4_15_25)


def test_admissibility_of_identity():
    assert is_p_admissible(diagonal((1, 1, 1))) is True


def test_admissibility_of_rectangular_diag():
    # conv(0, (2,0), (0,1)) is the polytope of P(1,1,2) with its minimal
    # polarization: the inversion yields the integral fan column (-1,-2)
    w = IntMatrix.from_rows([[2, 0], [0, 1]])
    assert is_p_admissible(w) is True
    assert admissible_by_inversion(w) and admissible_by_lattice_membership(w)
    pol, _ = recognize_polytope(LatticeSimplex(vertices=((0, 0), (2, 0), (0, 1))))
    assert pol.weights.q == (1, 1, 2)
    assert pol.polarization == 1


def test_admissibility_rejects_imprimitive():
    with pytest.raises(ValueError):
        is_p_admissible(IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_admissibility_rejects_singular():
    with pytest.raises(SingularMatrixError):
        is_p_admissible(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_admissibility_conditions_agree_on_random_matrices():
    rng = random.Random(51)
    seen_true = seen_false = 0
    trials = 0
    while trials < 400:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_rows(rows)
        if m.det() == 0 or m.entry_gcd() != 1:
            continue
        trials += 1
        admissible = is_p_admissible(m)
        assert admissible_by_inversion(m) == admissible == admissible_by_lattice_membership(m)
        seen_true += admissible
        seen_false += not admissible
    assert seen_true > 0 and seen_false > 0


# ---------------------------------------------------------------------------
# permutation action and equivariance


def test_permute_identity_fixes_matrix():
    n = W_2_3_4_15_25.rows
    assert permute_polytope(W_2_3_4_15_25, tuple(range(n + 1))) == W_2_3_4_15_25


def test_permute_swap_with_origin():
    # swapping the origin with the first vertex sends the columns to
    # (-e1, e2 - e1)
    out = permute_polytope(diagonal((1, 1)), (1, 0, 2))
    assert out.transpose().entries == ((-1, 0), (-1, 1))


def test_left_equivariance_of_transversion():
    rng = random.Random(61)
    for _ in range(100):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=30))
        fan = canonical_fan(q)
        a = random_unimodular(rng, fan.n)
        left = weighted_transverse(recognize_fan(a @ fan.v))
        right = (transverse(to_rational(a)) @ to_rational(weighted_transverse(fan))).to_integer()
        assert left == right


def test_right_equivariance_of_transversion():
    rng = random.Random(62)
    for _ in range(100):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=30))
        fan = canonical_fan(q)
        sigma = random_permutation(rng, fan.n + 1)
        permuted_fan = recognize_fan(fan.v @ permutation_matrix(sigma))
        assert weighted_transverse(permuted_fan) == \
            permute_polytope(weighted_transverse(fan), sigma)


def test_equivariance_on_the_worked_example():
    fan = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    rng = random.Random(63)
    sigma = random_permutation(rng, 5)
    permuted_fan = recognize_fan(fan.v @ permutation_matrix(sigma))
    assert weighted_transverse(permuted_fan) == permute_polytope(W_2_3_4_15_25, sigma)


def test_permuted_polytope_stays_admissible():
    rng = random.Random(64)
    for _ in range(40):
        q = WeightsVector(random_weights(rng, n_min=1, n_max=4, w_max=20))
        w = weighted_transverse(canonical_fan(q))
        sigma = random_permutation(rng, w.rows + 1)
        assert is_p_admissible(permute_polytope(w, sigma))


# ---------------------------------------------------------------------------
# simplex plumbing


def test_simplex_validation():
    with pytest.raises(ValueError):
        LatticeSimplex(vertices=((0, 0), (1, 0)))          # too few vertices


def test_simplex_rejects_non_integral_vertices():
    # a float or fractional coordinate is an error, never truncated
    with pytest.raises(TypeError):
        LatticeSimplex(vertices=((0, 0), (2.7, 0), (0, 2.2)))
    with pytest.raises(ValueError):
        LatticeSimplex(vertices=((0, 0), (Fraction(5, 2), 0), (0, 2)))
    assert LatticeSimplex(vertices=((0, 0), (Fraction(4, 2), 0), (0, 2))).vertices[1] == (2, 0)


def test_simplex_json_round_trip():
    s = simplex_2_3_4_15_25()
    assert LatticeSimplex.from_json(s.to_json()).vertices == s.vertices
    for q, m in (((2, 3, 4, 15, 25), 1), ((3, 5, 7), 2), ((1, 1), 3)):
        s = polytope_of(WeightsVector(q), m)
        assert LatticeSimplex.from_json(s.to_json()) == s


def test_simplex_normalize_and_edges():
    s = LatticeSimplex(vertices=((1, 2), (3, 2), (1, 7)))
    moved = s.normalize()
    assert moved.vertices == ((0, 0), (2, 0), (0, 5))
    assert moved.normalize() is moved
    assert s.edge_matrix() == moved.edge_matrix() == IntMatrix.from_rows([[2, 0], [0, 5]])


# ---------------------------------------------------------------------------
# primitive facet normals against the adjugate route of tests/oracles.py


def outcome(f, *args):
    """The value, or the exception type with its rejection code."""
    try:
        return "value", f(*args)
    except (FanRejection, PolytopeRejection) as exc:
        return type(exc), exc.code
    except ValueError as exc:
        return (type(exc),)


def moved_simplex(rng, w: IntMatrix, m: int) -> LatticeSimplex:
    """Vertices of ``m * conv(0, columns of w)`` under a random unimodular
    map, translated and listed in a random order."""
    n = w.rows
    a = random_unimodular(rng, n, c_max=2)
    shift = [rng.randint(-50, 50) for _ in range(n)]
    cols = [(0,) * n] + [tuple(m * x for x in col) for col in (a @ w).transpose().entries]
    verts = [tuple(x + t for x, t in zip(v, shift)) for v in cols]
    rng.shuffle(verts)
    return LatticeSimplex(vertices=tuple(verts))


def random_weights_of_bits(rng, n, bits):
    while True:
        q = tuple(rng.randint(1, 1 << bits) for _ in range(n + 1))
        if gcd(*q) == 1:
            return WeightsVector(q)


def assert_routes_agree(simplex: LatticeSimplex):
    got = outcome(recognize_polytope, simplex)
    assert got == outcome(recognize_polytope_by_adjugate, simplex)
    w = simplex.edge_matrix()
    assert outcome(is_p_admissible, w) == outcome(is_p_admissible_by_adjugate, w)
    return got


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.sampled_from((2, 8, 64, 256, 1024)), st.integers(1, 3),
       st.integers(0, 2 ** 32))
def test_recognition_of_genuine_simplices_matches_the_adjugate_route(n, bits, m, seed):
    rng = random.Random(seed)
    q = random_weights_of_bits(rng, n, bits)
    fan = witness_fan(q)
    w = weighted_transverse(fan)
    assert w == weighted_transverse_by_adjugate(fan)
    kind, value = assert_routes_agree(moved_simplex(rng, w, m))
    assert kind == "value", value
    pol, _ = value
    assert sorted(pol.weights.q) == sorted(reduce_weights(q).q) and pol.polarization == m


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 2), (3, 3)])
def test_recognition_at_4096_bits_matches_the_adjugate_route(n, seed):
    rng = random.Random(seed)
    q = random_weights_of_bits(rng, n, 4096)
    fan = canonical_fan(q)
    w = weighted_transverse(fan)
    assert w == weighted_transverse_by_adjugate(fan)
    kind, value = assert_routes_agree(moved_simplex(rng, w, 1))
    assert kind == "value", value
    pol, _ = value
    assert sorted(pol.weights.q) == sorted(reduce_weights(q).q)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2 ** 32))
def test_recognition_of_random_simplices_matches_the_adjugate_route(n, size, seed):
    # small random vertices: mostly not wps polytopes, often singular,
    # sometimes with a repeated vertex or a common factor in the edges
    rng = random.Random(seed)
    verts = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n + 1)]
    if rng.random() < 0.15:
        verts[-1] = list(verts[0])
    if rng.random() < 0.15:
        verts = [[2 * x for x in v] for v in verts]
    assert_routes_agree(LatticeSimplex(vertices=tuple(map(tuple, verts))))


def test_the_random_simplices_reach_every_outcome():
    rng = random.Random(71)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 3)
        verts = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 1))
        got = assert_routes_agree(LatticeSimplex(vertices=verts))
        seen.add(got[0] if got[0] == "value" else got[1])
    assert seen >= {"value", "degenerate", "not-wps"}


def test_recognition_takes_no_determinant(monkeypatch):
    simplex = simplex_2_3_4_15_25()

    def no_det(self):
        raise AssertionError("determinant taken")

    calls = []
    jordan = wps.linalg._jordan

    def counted(a, e):
        calls.append(len(a))
        return jordan(a, e)

    monkeypatch.setattr(IntMatrix, "det", no_det)
    monkeypatch.setattr(wps.linalg, "_jordan", counted)
    pol, fan = recognize_polytope(simplex)
    assert pol.weights.q == (2, 3, 4, 15, 25) and fan.v == CANONICAL_2_3_4_15_25
    assert calls == []                  # no Bareiss elimination at all
    assert is_p_admissible(W_2_3_4_15_25) is True
    canonical = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    assert weighted_transverse(canonical) == W_2_3_4_15_25
    assert recognize_fan(CANONICAL_2_3_4_15_25).weights.q == (2, 3, 4, 15, 25)


def test_recognition_checks_the_determinant_it_is_given(monkeypatch):
    # q_0 = |det what| must divide prod(lam) = det what * det w', so a
    # determinant off by a prime factor above it is caught
    primitive_rows = wps.polytope._primitive_rows

    def wrong_det(a):
        rows, lam, det = primitive_rows(a)
        return rows, lam, det * (2 ** 89 - 1)

    monkeypatch.setattr(wps.polytope, "_primitive_rows", wrong_det)
    with pytest.raises(AssertionError, match="does not divide"):
        recognize_polytope(simplex_2_3_4_15_25())
