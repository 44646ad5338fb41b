"""Acceptance suite.

One test per criterion, each printing one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).  All
comparisons are exact integer equality; the only tolerances anywhere
are the two stated wall-clock budgets.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import comb

from wps.cohomology import h0_line_bundle, hodge, rational_homology
from wps.fan import canonical_fan, permutation_matrix, recognize_fan
from wps.lattice import count_interior, count_points, face_histogram
from wps.linalg import IntMatrix
from wps.polytope import (LatticeSimplex, is_p_admissible, permute_polytope,
                          polytope_of, recognize_polytope, weighted_transverse)
from wps.weights import WeightsVector, is_reduced, reduce_weights

from oracles import (admissible_by_inversion, admissible_by_lattice_membership,
                     random_permutation, random_unimodular, random_weights, simplex_census,
                     to_rational, transverse, witness_fan)


CANONICAL_MATRIX = IntMatrix.from_rows([
    [-14, 1, 0, 0, 1],
    [-2, 0, 1, 0, 0],
    [-20, 0, 0, 1, 1],
    [-25, 0, 0, 0, 2],
])

POLYTOPE_MATRIX = IntMatrix.from_rows([
    [100, 0, 0, 0],
    [0, 75, 0, 0],
    [0, 0, 20, 0],
    [-50, 0, -10, 6],
])


@contextmanager
def criterion(num: int, desc: str):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    detail = f"  ({info['detail']})" if "detail" in info else ""
    print(f"criterion {num:2d} PASS  {desc}{detail}")


def test_criterion_01_canonical_fan_reproduction():
    with criterion(1, "canonical fan of (2,3,4,15,25) matches the known matrix, < 10 ms") as info:
        fan = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
        assert fan.v == CANONICAL_MATRIX
        best = min(_timed_canonical() for _ in range(5))
        assert best < 0.010, f"canonical fan took {best * 1000:.2f} ms"
        info["detail"] = f"best of 5: {best * 1000:.2f} ms"


def _timed_canonical():
    t0 = time.perf_counter()
    canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    return time.perf_counter() - t0


def test_criterion_02_polytope_reproduction():
    with criterion(2, "weighted transverse of that fan matches the known matrix"):
        fan = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
        assert weighted_transverse(fan) == POLYTOPE_MATRIX


def test_criterion_03_recognition_closure():
    with criterion(3, "recognizing the known simplex returns Q, m=1 and the known fan"):
        verts = ((0, 0, 0, 0),) + tuple(POLYTOPE_MATRIX.column(k) for k in range(4))
        pol, fan = recognize_polytope(LatticeSimplex(vertices=verts))
        assert pol.weights.q == (2, 3, 4, 15, 25)
        assert pol.polarization == 1
        assert fan.v == CANONICAL_MATRIX


def test_criterion_04_round_trip_suite():
    with criterion(4, "500 random weight vectors round-trip through fans and polytopes, < 60 s") as info:
        rng = random.Random(20240)
        t0 = time.perf_counter()
        for _ in range(500):
            q = WeightsVector(random_weights(rng, n_min=2, n_max=5, w_max=50))
            assert recognize_fan(witness_fan(q).v).weights == q
            expected = reduce_weights(q)
            for m in (1, 2, 3):
                pol, _ = recognize_polytope(polytope_of(q, m))
                assert pol.weights == expected
                assert pol.polarization == m
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"round-trip suite took {elapsed:.1f} s"
        info["detail"] = f"{elapsed:.1f} s"


def test_criterion_05_equivariance_suite():
    with criterion(5, "transversion is GL-left and permutation-right equivariant, 200 samples"):
        rng = random.Random(20241)
        for _ in range(200):
            q = WeightsVector(random_weights(rng, n_min=1, n_max=5, w_max=30))
            base = canonical_fan(q)
            fan = recognize_fan(random_unimodular(rng, base.n) @ base.v)
            w = weighted_transverse(fan)
            a = random_unimodular(rng, fan.n)
            left = weighted_transverse(recognize_fan(a @ fan.v))
            right = (transverse(to_rational(a)) @ to_rational(w)).to_integer()
            assert left == right
            sigma = random_permutation(rng, fan.n + 1)
            permuted = weighted_transverse(recognize_fan(fan.v @ permutation_matrix(sigma)))
            assert permuted == permute_polytope(w, sigma)


def test_criterion_06_admissibility_condition_agreement():
    with criterion(6, "the three admissibility conditions agree on 1000 random matrices") as info:
        rng = random.Random(20242)
        done = admissible = 0
        while done < 1000:
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
            if m.det() == 0 or m.entry_gcd() != 1:
                continue
            done += 1
            verdict = is_p_admissible(m)
            assert admissible_by_inversion(m) == verdict == admissible_by_lattice_membership(m)
            admissible += verdict
        info["detail"] = f"{admissible} of 1000 admissible"


def test_criterion_07_lattice_oracle_sweep():
    with criterion(7, "DP counts match geometric enumeration for all Q with n<=3, w<=8, m<=3") as info:
        classes = set()
        for n in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(range(1, 9), n + 1):
                classes.add(tuple(sorted(reduce_weights(WeightsVector(combo)).q)))
        t0 = time.perf_counter()
        points = 0
        for cls in sorted(classes):
            q = WeightsVector(cls)
            w = weighted_transverse(canonical_fan(q))
            for m in range(0, 4):
                total, interior, hist = simplex_census(w, m)
                assert count_points(q, m) == total
                assert face_histogram(q, m) == hist
                if m >= 1:
                    assert count_interior(q, m) == interior
                points += total
        # the counts factor through the sorted reduced class; witness that
        # on unsorted / unreduced representatives, geometry included
        rng = random.Random(20243)
        for _ in range(15):
            raw = random_weights(rng, n_min=1, n_max=3, w_max=8)
            q = WeightsVector(raw)
            cls = WeightsVector(tuple(sorted(reduce_weights(q).q)))
            w = weighted_transverse(canonical_fan(reduce_weights(q)))
            for m in range(0, 3):
                assert count_points(q, m) == count_points(cls, m)
                assert face_histogram(q, m) == face_histogram(cls, m)
                assert simplex_census(w, m)[2] == face_histogram(q, m)
        elapsed = time.perf_counter() - t0
        info["detail"] = f"{len(classes)} classes, {points} points, {elapsed:.1f} s"


def test_criterion_08_gorenstein_identities():
    with criterion(8, "interior counts shift by |Q|/delta on 50 Gorenstein samples") as info:
        pool = []
        for n in (1, 2, 3, 4):
            for combo in itertools.combinations_with_replacement(range(1, 13), n + 1):
                q = WeightsVector(combo)
                if q.q != combo or not is_reduced(q):
                    continue
                if q.total % q.delta == 0:
                    pool.append(q)
        rng = random.Random(20244)
        sample = rng.sample(pool, 50)
        for q in sample:
            k = q.total // q.delta
            for m in range(1, k):
                assert count_interior(q, m) == 0
            for m in range(k, k + 4):
                assert count_interior(q, m) == count_points(q, m - k)
        info["detail"] = f"pool of {len(pool)} Gorenstein vectors"


def test_criterion_09_cohomology_sanity():
    with criterion(9, "section counts, Hodge diagonal, h^0(Omega^1(2)) and duality"):
        for n in range(1, 5):
            q = WeightsVector((1,) * (n + 1))
            for m in range(0, 7):
                assert h0_line_bundle(q, m) == comb(n + m, n)
            for p in range(n + 1):
                for qq in range(n + 1):
                    assert hodge(q, p, qq, 0) == (1 if p == qq else 0)
            for p in range(n + 1):
                for m in range(-5, 6):
                    assert hodge(q, p, n, m) == hodge(q, n - p, 0, -m)
        assert hodge(WeightsVector((1, 1, 1)), 1, 0, 2) == 3


def test_criterion_10_rational_homology():
    with criterion(10, "Betti numbers are 1,0,1,0,...,1 up to dimension 8"):
        for n in range(1, 9):
            h = rational_homology(WeightsVector(tuple(range(1, n + 2))))
            assert len(h) == 2 * n + 1
            for k in range(2 * n + 1):
                assert h[k] == (1 if k % 2 == 0 else 0)
