import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import wps.fan
import wps.linalg
import wps.polytope
import wps.weights
from wps.cli import _simplex_of, _simplex_payload, _unlimited_digits, main
from wps.fan import FanMatrix, FanRejection, canonical_fan, permutation_matrix, recognize_fan
from wps.linalg import DimensionError, IntMatrix, SingularMatrixError, _primitive_rows, _solve_upper
from wps.polytope import (LatticeSimplex, PolarizedWps, PolytopeRejection, is_p_admissible,
                          permute_polytope, polytope_of, recognize_polytope,
                          weighted_transverse)
from wps.weights import (WeightsVector, is_reduced, reduce_weights,
                         reduction_data)

import oracles
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
            col = fan.v.column(j)
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
        assert list(zip(*_primitive_rows(w.entries)[0])) == [r[1:] for r in fan.v.entries]
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
    # the zero matrix is singular before it is imprimitive
    with pytest.raises(SingularMatrixError):
        is_p_admissible(IntMatrix.from_rows([[0, 0], [0, 0]]))


def test_admissibility_rejects_non_square():
    with pytest.raises(DimensionError):
        is_p_admissible(IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(DimensionError):
        is_p_admissible(IntMatrix(0, 1, ()))


def test_admissibility_conditions_agree_on_random_matrices():
    rng = random.Random(51)
    seen_true = seen_false = 0
    trials = 0
    while trials < 400:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_rows(rows)
        if to_rational(m).det() == 0 or m.entry_gcd() != 1:
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
    assert tuple(zip(*out.entries)) == ((-1, 0), (-1, 1))


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


@pytest.mark.parametrize("vertices", [(), ((),)])
def test_a_simplex_has_at_least_two_vertices(vertices):
    # with one vertex, the 0-dimensional simplex, or none
    with pytest.raises(DimensionError, match="^a simplex needs at least two vertices$"):
        LatticeSimplex(vertices=vertices)


def test_polarized_wps_guards():
    with pytest.raises(ValueError, match="polarization must be positive"):
        PolarizedWps(weights=WeightsVector((1, 1, 1)), polarization=0)
    with pytest.raises(ValueError, match=r"^weights \(1, 2, 2\) are not reduced$"):
        PolarizedWps(weights=WeightsVector((1, 2, 2)), polarization=1)


def test_polytope_of_guards():
    with pytest.raises(ValueError, match="polarization must be positive"):
        polytope_of(WeightsVector((1, 1, 2)), 0)
    with pytest.raises(DimensionError, match="need at least two weights"):
        polytope_of(WeightsVector((3,)))


def test_permute_polytope_guards():
    with pytest.raises(DimensionError, match="must be square"):
        permute_polytope(IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]), (0, 1, 2))
    for sigma in ((0, 0, 1), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            permute_polytope(diagonal((1, 1)), sigma)


def test_simplex_rejects_non_integral_vertices():
    # a float or fractional coordinate is an error, never truncated
    with pytest.raises(TypeError):
        LatticeSimplex(vertices=((0, 0), (2.7, 0), (0, 2.2)))
    with pytest.raises(ValueError):
        LatticeSimplex(vertices=((0, 0), (Fraction(5, 2), 0), (0, 2)))
    assert LatticeSimplex(vertices=((0, 0), (Fraction(4, 2), 0), (0, 2))).vertices[1] == (2, 0)


def test_simplex_json_round_trip(capsys):
    # the CLI writes a simplex as JSON and its vertices reader reads it back
    s = simplex_2_3_4_15_25()
    assert _simplex_of(json.loads(json.dumps(_simplex_payload(s)))) == s
    for q, m in (((2, 3, 4, 15, 25), 1), ((3, 5, 7), 2), ((1, 1), 3)):
        assert main(["--json", "polytope", "--weights", ",".join(map(str, q)),
                     "-m", str(m)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _simplex_of(payload) == polytope_of(WeightsVector(q), m)


def test_simplex_edges_start_at_the_first_vertex():
    s = LatticeSimplex(vertices=((1, 2), (3, 2), (1, 7)))
    moved = LatticeSimplex(vertices=((0, 0), (2, 0), (0, 5)))
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
    cols = [(0,) * n] + [tuple(m * x for x in col) for col in zip(*(a @ w).entries)]
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from((2, 8, 64, 256)), st.integers(1, 3),
       st.integers(0, 2 ** 32))
def test_recognized_fan_orientation_matches_the_adjugate_route(n, bits, m, seed):
    # the sign of the tracked determinant sets epsilon, which no
    # self-check of recognition covers
    rng = random.Random(seed)
    q = random_weights_of_bits(rng, n, bits)
    simplex = moved_simplex(rng, weighted_transverse(canonical_fan(q)), m)
    _, fan = recognize_polytope(simplex)
    _, expected = recognize_polytope_by_adjugate(simplex)
    assert fan.epsilon == expected.epsilon
    assert fan == expected


def test_moved_simplices_reach_both_orientations():
    rng = random.Random(5)
    seen = {recognize_polytope(moved_simplex(rng, W_2_3_4_15_25, 1))[1].epsilon
            for _ in range(40)}
    assert seen == {0, 1}


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

    def counted(a, v):
        calls.append(len(a))
        return jordan(a, v)

    monkeypatch.setattr(IntMatrix, "det", no_det)
    monkeypatch.setattr(wps.linalg, "_jordan", counted)
    pol, fan = recognize_polytope(simplex)
    assert pol.weights.q == (2, 3, 4, 15, 25) and fan.v == CANONICAL_2_3_4_15_25
    assert calls == []                  # no Bareiss elimination at all
    assert is_p_admissible(W_2_3_4_15_25) is True
    canonical = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    assert weighted_transverse(canonical) == W_2_3_4_15_25
    assert recognize_fan(CANONICAL_2_3_4_15_25).weights.q == (2, 3, 4, 15, 25)


def test_oracles_run_no_elimination_of_the_library(monkeypatch):
    # the oracles check the library's minors, determinants and
    # eliminations, so with every one of them disabled they still answer
    inadmissible = IntMatrix.from_rows([[0, 2], [2, 1]])
    assert is_p_admissible(inadmissible) is False
    square = IntMatrix.from_rows([[4, 6, 2], [6, 9, 5], [2, 5, 7]])
    rank_2 = IntMatrix.from_rows([[4, 6, 2], [6, 9, 3], [2, 5, 7]])
    adj = IntMatrix.from_rows(oracles.adjugate_cofactor(square.entries))
    d = (square @ adj).entries[0][0]

    def forbidden(*args, **kwargs):
        raise RuntimeError("an oracle ran a library elimination")

    monkeypatch.setattr(IntMatrix, "det", forbidden)
    for module in (wps.linalg, wps.fan, wps.polytope):
        for name in ("_jordan", "max_minors", "_primitive_rows", "_solve_upper"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    oracles._adjoint.cache_clear()      # no adjugate computed before the patch
    assert oracles.adjoint(square) == (d, adj)
    assert admissible_by_inversion(W_2_3_4_15_25)
    assert admissible_by_lattice_membership(W_2_3_4_15_25)
    assert not admissible_by_inversion(inadmissible)
    assert not admissible_by_lattice_membership(inadmissible)
    res = oracles.hnf(rank_2)
    assert res.transform @ rank_2 == res.hnf and res.rank == 2
    pol, fan = recognize_polytope_by_adjugate(simplex_2_3_4_15_25())
    assert pol.weights.q == (2, 3, 4, 15, 25) and fan.v == CANONICAL_2_3_4_15_25
    assert witness_fan(WeightsVector((2, 3, 4, 15, 25))).weights.q == (2, 3, 4, 15, 25)
    with pytest.raises(RuntimeError):
        recognize_fan(CANONICAL_2_3_4_15_25)


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


RECOGNITION_FAULTS = {
    # lcm(lam) doubled: every q_k doubles with it and q_0 = 2 stays, so
    # q = (2, 6, 8, 30, 50) is not coprime, which the weights vector
    # would divide out silently
    "coprime": (wps.polytope, "lcm", lambda *values: 2 * lcm(*values),
                "derived weights are not coprime"),
    "lcm": (wps.weights, "lcm", lambda *values: 2 * lcm(*values),
            "weights lcm mismatch during recognition"),
    "reduced": (wps.polytope, "is_reduced", lambda q: False,
                "recognition must produce reduced weights"),
}


@pytest.mark.parametrize("fault", sorted(RECOGNITION_FAULTS))
def test_a_recognition_fault_exits_3(fault, capsys, monkeypatch, tmp_path):
    # a failed self-check of recognition is an internal error, never a rejection
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(_simplex_payload(simplex_2_3_4_15_25())))
    owner, name, broken, message = RECOGNITION_FAULTS[fault]
    monkeypatch.setattr(owner, name, broken)
    for argv in (["recognize-polytope", "--vertices", str(path)],
                 ["--json", "recognize-polytope", "--vertices", str(path)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"internal error: {message}\n")


def test_admissibility_raises_a_recognition_fault(monkeypatch):
    # is_p_admissible turns rejections into verdicts, but not a failed self-check
    owner, name, broken, message = RECOGNITION_FAULTS["coprime"]
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(AssertionError, match=message):
        is_p_admissible(W_2_3_4_15_25)


def test_primitive_rows_check_their_primitivity(monkeypatch):
    # every updated row doubled but reported with content 1: R @ a is still
    # diagonal with positive entries and the determinant takes no division,
    # so only the final primitivity check fires
    primitive = wps.linalg._primitive
    monkeypatch.setattr(wps.linalg, "_primitive",
                        lambda row: ([2 * x for x in primitive(row)[0]], 1))
    with pytest.raises(AssertionError, match="primitive rows are not primitive"):
        recognize_polytope(polytope_of(WeightsVector((2, 3, 4, 15, 25)), 1))


def test_the_elimination_route_of_the_transverse_checks_integrality(monkeypatch):
    # a unit lower-bidiagonal U leaves the fan's block non-triangular, so
    # the transverse takes the elimination route; doubled normal multiples
    # mu make delta / (q_k * mu_k) inexact for the odd quotients
    q = WeightsVector((2, 3, 4, 15, 25))
    u = IntMatrix.from_rows([[int(i - k in (0, 1)) for k in range(q.n)] for i in range(q.n)])
    fan = recognize_fan(u @ canonical_fan(q).v)
    primitive_rows = wps.polytope._primitive_rows

    def doubled_mu(a):
        rows, mu, det = primitive_rows(a)
        return rows, tuple(2 * x for x in mu), det

    monkeypatch.setattr(wps.polytope, "_primitive_rows", doubled_mu)
    with pytest.raises(AssertionError, match="weighted transverse is not integral"):
        weighted_transverse(fan)


# ---------------------------------------------------------------------------
# the canonical polytope by forward substitution


def substituted_columns(q: WeightsVector) -> list[list[int]]:
    """The columns ``u_k`` with ``u_k @ B = (delta / q_k) e_k`` for the
    canonical block ``B``, solved by :func:`_solve_upper`."""
    n, delta = q.n, q.delta
    block = [row[1:] for row in canonical_fan(q).v.entries]
    return _solve_upper(block, [[delta // qk if j == k else 0 for j in range(n)]
                                for k, qk in enumerate(q.q[1:])])


def assert_substitution_is_the_transverse(q: WeightsVector):
    cols = substituted_columns(q)
    fan = canonical_fan(q)
    w = weighted_transverse(fan)
    assert [list(col) for col in zip(*w.entries)] == cols
    assert weighted_transverse_by_adjugate(fan) == w
    assert polytope_of(q, 1).vertices == ((0,) * q.n,) + tuple(map(tuple, cols))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.lists(
    st.one_of(st.integers(1, 60), st.integers(1, 2 ** 512)), min_size=n + 1, max_size=n + 1)))
def test_substitution_matches_the_transverse_and_the_adjugate(raw):
    # raw vectors, reduced or not: small weights give pivots above 1 and
    # entries above them, big ones give one large pivot
    assert_substitution_is_the_transverse(WeightsVector(tuple(raw)))


@pytest.mark.parametrize("n,seed", [(1, 1), (2, 2), (4, 3), (6, 4)])
def test_substitution_at_4096_bits(n, seed):
    rng = random.Random(seed)
    assert_substitution_is_the_transverse(random_weights_of_bits(rng, n, 4096))


def test_cli_polytope_at_4096_bits_is_the_transverse(capsys):
    # five odd 4,096-bit weights through `wps --json polytope`: the vertices
    # are the origin and the columns of the canonical fan's transverse
    rng = random.Random(4096)
    q = WeightsVector(tuple(rng.getrandbits(4096) | 1 for _ in range(5)))
    assert main(["--json", "polytope", "--weights", ",".join(map(str, q.q))]) == 0
    w = weighted_transverse(canonical_fan(q))
    with _unlimited_digits():       # the entries pass the default int/str digit limit
        expected = [["0"] * q.n] + [[str(x) for x in c] for c in zip(*w.entries)]
    assert json.loads(capsys.readouterr().out)["vertices"] == expected


def test_substitution_at_20000_digits():
    rng = random.Random(20_000)
    q = WeightsVector(tuple(rng.randrange(10 ** 19_999, 10 ** 20_000) for _ in range(4)))
    assert_substitution_is_the_transverse(q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32))
def test_substitution_solves_any_upper_triangular_system(n, seed):
    # an integral solution is found exactly, and a right side off by one
    # in a column whose pivot is not a unit fails at that column
    rng = random.Random(seed)
    block = [[0] * i + [rng.choice((1, -1, 2, 3, -5, 12))]
             + [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n - 1 - i)]
             for i in range(n)]
    x = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(3)]
    rhs = [[sum(xr[l] * block[l][j] for l in range(j + 1)) for j in range(n)] for xr in x]
    assert _solve_upper(block, rhs) == x
    j = next((j for j in range(n) if abs(block[j][j]) > 1), None)
    if j is not None:
        rhs[1][j] += 1
        with pytest.raises(AssertionError, match=f"not exact in row 1, column {j}$"):
            _solve_upper(block, rhs)


def test_an_inexact_substitution_step_exits_3(capsys, monkeypatch):
    # the block of (2,3,4,15,25) with a 1 above its pivot 2 in row 1:
    # vertex 1 starts at delta / q_2 = 75, which 2 does not divide
    def corrupted(q):
        fan = canonical_fan(q)
        rows = [list(r) for r in fan.v.entries]
        rows[1][4] += 1
        return FanMatrix(v=IntMatrix.from_rows(rows), weights=q, epsilon=0)

    monkeypatch.setattr(wps.polytope, "canonical_fan", corrupted)
    for argv in (("polytope", "--weights", "2,3,4,15,25"),
                 ("--json", "polytope", "--weights", "2,3,4,15,25", "-m", "2")):
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: forward substitution is not exact in row 1, column 3\n"


def test_a_doubled_lcm_fails_the_primitivity_check(capsys, monkeypatch):
    # every right side doubles, so the substitution stays exact and only
    # the entry gcd of the vertex matrix sees the fault
    monkeypatch.setattr(wps.weights, "lcm", lambda *values: 2 * lcm(*values))
    assert main(["polytope", "--weights", "2,3,4,15,25"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: minimal polytope matrix must be primitive\n")


# ---------------------------------------------------------------------------
# the two routes of the weighted transverse: forward substitution for an
# upper triangular block with a nonzero diagonal, the elimination otherwise


def unitriangular(rng, n, lower=False):
    """An upper (or lower) unitriangular matrix; its entries off the
    diagonal take either sign, and below it they are never zero."""
    if lower:
        return IntMatrix.from_rows([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(i)]
                                    + [1] + [0] * (n - 1 - i) for i in range(n)])
    return IntMatrix.from_rows([[0] * i + [1] + [rng.randint(-9, 9) for _ in range(n - 1 - i)]
                                for i in range(n)])


def transverse_on_route(fan: FanMatrix, route: str) -> IntMatrix:
    """``weighted_transverse(fan)``, with the kernel of the other route made to raise."""
    def other(*args):
        raise AssertionError(f"{route} was expected")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wps.polytope, {"substitution": "_primitive_rows",
                                     "elimination": "_solve_upper"}[route], other)
        return weighted_transverse(fan)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.sampled_from((2, 8, 64, 512)),
       st.sampled_from(("canonical", "triangular", "dense")), st.integers(0, 2 ** 32))
def test_both_transverse_routes_match_the_adjugate(n, bits, kind, seed):
    # the fan U @ C of the canonical fan C: U = +-1 on the diagonal keeps
    # C's block triangular, but for signed pivots; an upper unitriangular
    # U adds entries of either sign above the diagonal; a lower one, but
    # for n = 1, puts nonzero entries below it, so the block is dense
    rng = random.Random(seed)
    q = random_weights_of_bits(rng, n, bits)
    u = diagonal(tuple(rng.choice((1, -1)) for _ in range(n)))
    if kind != "canonical":
        u = u @ unitriangular(rng, n)
    if kind == "dense":
        u = unitriangular(rng, n, lower=True) @ u
    fan = recognize_fan(u @ canonical_fan(q).v)
    assert fan.weights.q == q.q
    route = "elimination" if kind == "dense" and n > 1 else "substitution"
    w = transverse_on_route(fan, route)
    assert w == weighted_transverse_by_adjugate(fan)
    assert (to_rational(u).transpose() @ to_rational(w)).to_integer() \
        == weighted_transverse(canonical_fan(q))


@pytest.mark.parametrize("q", [(1, 1), (2, 3), (3, 2), (1, 5), (7, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_transverse_of_a_line(q, sign):
    # n = 1: the block is the single entry of column 1, always triangular,
    # and delta = q_0 q_1 makes the one vertex the sign of that entry
    fan = recognize_fan(IntMatrix.from_rows([[-sign * q[1], sign * q[0]]]))
    assert fan.weights.q == q
    w = transverse_on_route(fan, "substitution")
    assert w == weighted_transverse_by_adjugate(fan) == IntMatrix.from_rows([[sign]])


@pytest.mark.parametrize("rows", [[[1, 0, 5], [-1, 0, 1]], [[1, 2, 5], [-1, 0, 0]],
                                  [[-1, 0, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]]])
def test_a_zero_on_a_triangular_diagonal_is_singular(rows):
    # a FanMatrix built by hand is not checked: a block that is upper
    # triangular but for a zero pivot takes the elimination, which says so
    v = IntMatrix.from_rows(rows)
    fan = FanMatrix(v, WeightsVector((1,) * v.cols), epsilon=0)
    with pytest.raises(SingularMatrixError):
        weighted_transverse(fan)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.sampled_from((1, 4, 16, 128, 512)), st.integers(1, 3),
       st.integers(0, 2 ** 32))
def test_recognized_fan_recognizes_as_itself(n, bits, m, seed):
    # epsilon comes from the sign of the determinant that _primitive_rows
    # tracks; recognize_fan reads it off the maximal minors instead
    rng = random.Random(seed)
    q = random_weights_of_bits(rng, n, bits)
    _, fan = recognize_polytope(moved_simplex(rng, polytope_of(q, 1).edge_matrix(), m))
    assert recognize_fan(fan.v) == fan
