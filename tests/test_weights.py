import gc
import json
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import wps.polytope
import wps.weights
from wps.cli import main
from wps.linalg import DimensionError
from wps.weights import (WeightsVector, _extended_gcd_combination, is_reduced, isomorphic,
                         reduce_weights, reduction_data)

from oracles import ext_gcd, reduction_by_complements


raw_weights = st.lists(st.integers(1, 60), min_size=1, max_size=6).map(tuple)


def test_constructor_normalizes_common_factor():
    assert WeightsVector((2, 4, 6)).q == (1, 2, 3)
    assert WeightsVector((5,)).q == (1,)


def test_constructor_rejects_nonpositive():
    with pytest.raises(ValueError):
        WeightsVector((0, 1))
    with pytest.raises(ValueError, match=r"^weights must be positive, got \(-2, 3\)$"):
        WeightsVector((-2, 3))
    with pytest.raises(ValueError, match=r"^weights must be positive, got \(0,\)$"):
        WeightsVector((0,))


def test_constructor_rejects_the_empty_vector():
    with pytest.raises(ValueError, match="must be nonempty"):
        WeightsVector(())


def test_constructor_rejects_non_integral():
    # a float or fractional weight is an error, never truncated
    with pytest.raises(TypeError):
        WeightsVector((1.5, 2))
    with pytest.raises(ValueError):
        WeightsVector((Fraction(3, 2), 2))
    assert WeightsVector((Fraction(6, 2), 2)).q == (3, 2)


def test_parse_and_json_round_trip(capsys):
    # the CLI reads the weights text and writes them back as JSON strings,
    # which read back to the same answer
    assert main(["--json", "reduce", "--weights", " 2, +3,4 ,15,25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weights"] == ["2", "3", "4", "15", "25"]
    assert main(["--json", "reduce", "--weights", ",".join(payload["weights"])]) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_reduction_of_all_ones():
    rd = reduction_data(WeightsVector((1, 1, 1, 1)))
    assert rd.d == (1, 1, 1, 1)
    assert rd.a_coeffs == (1, 1, 1, 1)
    assert rd.a == 1 and rd.delta == 1 and rd.delta_reduced == 1
    assert rd.reduced.q == (1, 1, 1, 1)


def test_reduction_of_1_2_2():
    rd = reduction_data(WeightsVector((1, 2, 2)))
    assert rd.d == (2, 1, 1)
    assert rd.a_coeffs == (1, 2, 2)
    assert rd.a == 2
    assert rd.reduced.q == (1, 1, 1)
    assert rd.delta == 2 and rd.delta_reduced == 1


def test_reduction_of_coprime_five_tuple():
    rd = reduction_data(WeightsVector((2, 3, 4, 15, 25)))
    assert rd.d == (1, 1, 1, 1, 1)
    assert rd.reduced.q == (2, 3, 4, 15, 25)
    assert rd.delta == 300 and rd.delta_reduced == 300


def test_is_reduced_examples():
    assert is_reduced(WeightsVector((1, 1, 2)))
    assert not is_reduced(WeightsVector((1, 2, 2)))
    assert is_reduced(WeightsVector((1,)))


def test_isomorphic_examples():
    assert isomorphic(WeightsVector((1, 2, 2)), WeightsVector((1, 1, 1)))
    assert isomorphic(WeightsVector((2, 3, 5)), WeightsVector((3, 2, 5)))
    assert not isomorphic(WeightsVector((1, 1, 2)), WeightsVector((1, 2, 3)))


def test_isomorphic_dimension_mismatch():
    with pytest.raises(DimensionError):
        isomorphic(WeightsVector((1, 1)), WeightsVector((1, 1, 1)))


@settings(max_examples=200, deadline=None)
@given(raw_weights)
def test_reduction_relations(raw):
    q = WeightsVector(raw)
    rd = reduction_data(q)
    n1 = len(q)
    for j in range(n1):
        rest = q.q[:j] + q.q[j + 1:]
        dj = gcd(*rest) if rest else 1
        assert rd.d[j] == dj
        assert gcd(q[j], dj) == 1
        assert q[j] % rd.a_coeffs[j] == 0
        assert gcd(rd.a_coeffs[j], dj) == 1
        assert rd.a_coeffs[j] * dj == rd.a
    for i in range(n1):
        for j in range(i + 1, n1):
            assert gcd(rd.d[i], rd.d[j]) == 1
    assert rd.delta == rd.a * rd.delta_reduced
    assert is_reduced(rd.reduced)


@st.composite
def presented_weights(draw):
    """``n + 1 = 1..8`` weights: a raw vector, or one whose ``q_j`` is
    multiplied by the pairwise coprime ``d_i``, ``i != j``, so that it
    is unreduced whenever some ``d_i > 1``."""
    n1 = draw(st.integers(1, 8))
    q = draw(st.lists(st.integers(1, 60), min_size=n1, max_size=n1))
    if draw(st.booleans()):
        d = [p if draw(st.booleans()) else 1 for p in (2, 3, 5, 7, 11, 13, 17, 19)[:n1]]
        q = [x * prod(d) // dj for x, dj in zip(q, d)]
    return tuple(q)


@settings(max_examples=300, deadline=None)
@given(presented_weights())
@example((1,))
@example((6,))
@example((1, 2, 2))
@example((6, 10, 15))
def test_reduction_data_matches_the_complements(raw):
    q = WeightsVector(raw)
    rd = reduction_data(q)
    assert (rd.d, rd.a_coeffs, rd.a) == reduction_by_complements(q.q)
    assert is_reduced(q) == (rd.reduced == q)
    # the kept lcm and reduction data are not fields: equal vectors compare
    # and hash equal whichever of them were read
    fresh, lcm_only = WeightsVector(raw), WeightsVector(raw)
    assert lcm_only.delta == q.delta == rd.delta
    assert {"delta", "_reduction"} <= vars(q).keys() and vars(fresh) == {"q": q.q}
    assert q == fresh == lcm_only and len({hash(q), hash(fresh), hash(lcm_only)}) == 1


def test_reduction_checks_run_on_the_first_computation(monkeypatch):
    # a wrong complementary gcd fails the divisibility check; a failed
    # computation keeps nothing, so the vector runs the checks again
    q = WeightsVector((2, 3, 4, 15, 25))
    monkeypatch.setattr(wps.weights, "_complementary_gcds", lambda qs: (2,) + (1,) * (len(qs) - 1))
    for _ in range(2):
        with pytest.raises(AssertionError, match="reduction coefficients do not divide"):
            reduction_data(q)
    monkeypatch.undo()
    assert reduction_data(q).d == (1,) * 5


def test_each_request_computes_each_lcm_at_most_once(capsys, monkeypatch, tmp_path):
    # a vector keeps its lcm, the reduction reads the lcms only for its
    # check at a > 1, and is_reduced reads the kept reduction data
    calls, passes = Counter(), []

    def counted(*values):
        calls[values] += 1
        return lcm(*values)

    complementary = wps.weights._complementary_gcds
    monkeypatch.setattr(wps.weights, "lcm", counted)
    monkeypatch.setattr(wps.polytope, "lcm", counted)
    monkeypatch.setattr(wps.weights, "_complementary_gcds",
                        lambda q: passes.append(q) or complementary(q))
    rng = random.Random(4096)
    reduced = [rng.getrandbits(4096) | 1 for _ in range(5)]
    unreduced = [x * 6 if j else x for j, x in enumerate(reduced)]
    simplex = tmp_path / "simplex.json"
    for q in (reduced, unreduced):
        weights = ",".join(map(str, q))
        requests = {"reduce": ["reduce", "--weights", weights],
                    "iso": ["iso", "--weights", weights, "--other", ",".join(map(str, q[::-1]))],
                    "polytope": ["polytope", "--weights", weights, "-m", "2"],
                    "divisors": ["divisors", "--weights", weights],
                    "recognize-polytope": ["recognize-polytope", "--vertices", str(simplex)]}
        for name, argv in requests.items():
            calls.clear()
            passes.clear()
            assert main(["--json", *argv]) == 0, name
            out = capsys.readouterr().out
            if name == "polytope":
                simplex.write_text(out)
            assert all(c == 1 for c in calls.values()), (name, sorted(calls.values()))
            if name == "iso" and q is reduced:
                assert not calls
            if name == "recognize-polytope":
                assert len(passes) == 1         # PolarizedWps reads the kept reduction
    # reduction data hold no reference cycle: without the collector, a
    # dropped vector and its reduced vector die with their last reference
    gc.collect()
    gc.disable()
    try:
        for q in (reduced, unreduced, [1, 1, 1]):
            v = WeightsVector(tuple(q))
            rd = reduction_data(v)
            assert rd.reduced is not v and is_reduced(rd.reduced) and rd.delta == v.delta
            refs = weakref.ref(v), weakref.ref(rd.reduced)
            del v, rd
            assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_reduce_of_20000_weights_returns_within_a_second(capsys):
    # one linear pass: the gcds of each weight's complement cost O(n^2)
    start = time.perf_counter()
    assert main(["--json", "reduce", "--weights", ",".join(["1"] * 19_999 + ["2"])]) == 0
    assert time.perf_counter() - start < 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == ["1"] * 20_000 and payload["a"] == "1" and payload["is_reduced"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=2, max_size=5), st.integers(2, 6))
def test_lcm_factorization_survives_common_factors(raw, scale):
    # the lcm identity delta = a * delta' also holds before dividing out
    # a common factor of the weights
    scaled = tuple(scale * x for x in raw)
    d = [gcd(*(scaled[:j] + scaled[j + 1:])) for j in range(len(scaled))]
    a_coeffs = [lcm(*(d[:j] + d[j + 1:])) for j in range(len(d))]
    a = lcm(*a_coeffs)
    reduced = tuple(x // ax for x, ax in zip(scaled, a_coeffs))
    assert lcm(*scaled) == a * lcm(*reduced)


@settings(max_examples=100, deadline=None)
@given(raw_weights)
def test_reduction_is_idempotent(raw):
    q = WeightsVector(raw)
    red = reduce_weights(q)
    assert reduce_weights(red) == red


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 30), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(1, 30), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(1, 30), min_size=n + 1, max_size=n + 1))))
def test_isomorphic_is_an_equivalence(triple):
    qs = [WeightsVector(tuple(t)) for t in triple]
    for q in qs:
        assert isomorphic(q, q)
    for q1 in qs:
        for q2 in qs:
            assert isomorphic(q1, q2) == isomorphic(q2, q1)
    if isomorphic(qs[0], qs[1]) and isomorphic(qs[1], qs[2]):
        assert isomorphic(qs[0], qs[2])


def euclid_combination(values):
    """The combination folded from extended Euclid, pair by pair."""
    coeffs, g = [1], values[0]
    for v in values[1:]:
        g, x, y = ext_gcd(g, v)
        coeffs = [c * x for c in coeffs] + [y]
    return tuple(coeffs)


big = 2 ** 4096


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 100), st.integers(1, 2 ** 64), st.integers(1, big)),
                min_size=1, max_size=6).map(tuple))
@example((3, 4))                                # a < b
@example((4, 3))
@example((3, 12))                               # a | b
@example((12, 3))                               # b | a
@example((7, 7))                                # equal values
@example((7, 7, 7))
@example((1, 2))                                # the tie 2x = m, m = 2
@example((5, 10))
@example((3, 2, 9))
@example((6, 10, 15))
@example((big - 1, big + 1))                    # 4,096-bit inputs
@example((big - 1, 3 * (big - 1), big // 2 + 1))
def test_bezout_coefficients_match_extended_euclid(values):
    coeffs = _extended_gcd_combination(values)
    assert coeffs == euclid_combination(values)
    assert sum(c * v for c, v in zip(coeffs, values)) == gcd(*values)
