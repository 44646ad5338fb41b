"""Weights vectors and their reduction data.

A weights vector is a tuple of coprime positive integers
``(q_0, ..., q_n)``.  Each entry ``q_j`` carries a complementary gcd
``d_j`` (gcd of all the other weights); dividing ``q_j`` by the lcm of
the other ``d``'s produces the reduced vector, which presents the same
weighted projective space on a coarser lattice.  The ``d_j`` are
pairwise coprime (a common factor of two would divide every weight), so
that lcm is the product of the other ``d``'s, and all of them come from
prefix and suffix gcds in one linear pass.  A vector computes its
reduction data and its lcm ``delta`` on first read and keeps them as
cached properties, not fields, so equality and hashing ignore them: each
is computed at most once per vector, and only when an answer reads it;
:func:`is_reduced` reads the kept reduction data.  On Python 3.10 and
3.11 ``cached_property`` takes one lock per property, shared by every
vector, on each first read: threads' first reads run one at a time, and
each costs about 0.5 us more (3.11.7), 3-5 % of the ``lattice-count``
benchmark's median latency.  From 3.12 on it takes none.  The reduction
takes ``delta'`` from the reduced vector and reads no lcm of the input:
``delta == a * delta'`` follows from its one check, that each
``a_coeffs_j`` divides ``q_j`` (see :func:`_reduce`).  The reduced
vector is a vector of its own, never the input, so no vector reaches
itself through its reduction data and none waits for the cycle
collector to be freed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

from .linalg import DimensionError, _as_int, _fmt_int


@dataclass(frozen=True)
class WeightsVector:
    """Coprime positive weights ``(q_0, ..., q_n)``.

    The constructor silently divides out a common factor of the input
    (the spaces are canonically isomorphic), so the stored tuple always
    has gcd 1.  Order is significant and preserved.
    """

    q: tuple[int, ...]

    def __post_init__(self):
        if not self.q:
            raise ValueError("weights vector must be nonempty")
        qs = tuple(_as_int(x) for x in self.q)
        if any(x < 1 for x in qs):
            raise ValueError(f"weights must be positive, got {_fmt_int(qs)}")
        g = gcd(*qs)
        if g > 1:
            qs = tuple(x // g for x in qs)
        object.__setattr__(self, "q", qs)

    @property
    def n(self) -> int:
        """Dimension of the associated space (one less than the length)."""
        return len(self.q) - 1

    @property
    def total(self) -> int:
        return sum(self.q)

    @cached_property
    def delta(self) -> int:
        """The lcm of the weights, kept after the first read."""
        return lcm(*self.q)

    def __iter__(self):
        return iter(self.q)

    def __len__(self):
        return len(self.q)

    def __getitem__(self, j):
        return self.q[j]

    @cached_property
    def _reduction(self) -> ReductionData:
        return _reduce(self)


def _extended_gcd_combination(values: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients ``b`` with ``sum values[j] * b[j] = gcd(values)``.

    Each step solves ``g * x + v * y = gcd(g, v)`` with one modular
    inverse: ``x`` is the inverse of ``g / gcd`` modulo ``v / gcd`` in the
    symmetric range (a tie goes to the positive side), which is the
    coefficient extended Euclid ends with, and ``y`` follows by exact
    division.
    """
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        h = gcd(g, v)
        mod = v // h
        x = pow(g // h, -1, mod)
        if 2 * x > mod:
            x -= mod
        coeffs = [c * x for c in coeffs] + [(h - g * x) // v]
        g = h
    if g != sum(c * v for c, v in zip(coeffs, values)):
        raise AssertionError("extended gcd combination does not sum to the gcd")
    return tuple(coeffs)


@dataclass(frozen=True)
class ReductionData:
    """Per-weight gcd/lcm bookkeeping and the reduced vector.

    ``d[j]`` is the gcd of all weights except ``q_j``; ``a_coeffs[j]``
    the lcm of the other ``d``'s; ``a`` their common lcm.  The reduced
    weights are ``q_j // a_coeffs[j]``, and ``delta == a * delta_reduced``
    follows from that division being exact (:func:`_reduce`): both read
    the lcm that the reduced vector keeps.
    """

    d: tuple[int, ...]
    a_coeffs: tuple[int, ...]
    a: int
    reduced: WeightsVector

    @property
    def delta_reduced(self) -> int:
        return self.reduced.delta

    @property
    def delta(self) -> int:
        return self.a * self.reduced.delta


def _complementary_gcds(q: tuple[int, ...]) -> tuple[int, ...]:
    """``d_j``, the gcd of the weights other than ``q_j`` (1 for a single
    weight): the gcd of the prefix before ``q_j`` and the suffix after it."""
    suffix = [0] * (len(q) + 1)
    for j in range(len(q) - 1, -1, -1):
        suffix[j] = gcd(suffix[j + 1], q[j])
    d, before = [], 0
    for j, x in enumerate(q):
        d.append(gcd(before, suffix[j + 1]) or 1)
        before = gcd(before, x)
    return tuple(d)


def _reduce(q: WeightsVector) -> ReductionData:
    """Compute the full reduction data of a weights vector.

    One check, that ``a_coeffs_j`` divides ``q_j``, decides the rest with
    the input's gcd 1: a common factor of the reduced weights would divide
    every ``q_j``, so they are coprime; a prime ``p | d_i`` divides every
    ``q_j`` but ``q_i``, so ``p`` does not divide the reduced ``q_i`` and
    ``v_p(delta) = v_p(d_i) + v_p(delta')``, which gives
    ``delta == a * delta'`` without reading the input's lcm."""
    d = _complementary_gcds(q.q)
    a = prod(d)
    a_coeffs = tuple(a // dj for dj in d)
    reduced = tuple(x // ax for x, ax in zip(q.q, a_coeffs))
    if any(x % ax for x, ax in zip(q.q, a_coeffs)):
        raise AssertionError("reduction coefficients do not divide the weights")
    return ReductionData(d=d, a_coeffs=a_coeffs, a=a, reduced=WeightsVector(reduced))


def _space_dimension(q: WeightsVector) -> int:
    """``q.n``, refusing a single weight: it presents a point, which has
    no fan, divisors or cohomology here."""
    if q.n < 1:
        raise DimensionError("need at least two weights")
    return q.n


def reduction_data(q: WeightsVector) -> ReductionData:
    """The full reduction data of a weights vector, computed once per
    vector object and kept on it: a table of twists reduces once."""
    return q._reduction


def reduce_weights(q: WeightsVector) -> WeightsVector:
    return reduction_data(q).reduced


def is_reduced(q: WeightsVector) -> bool:
    """True when every complementary gcd ``d_j`` equals 1, read off the
    reduction data the vector keeps (``a``, their product, is 1)."""
    return reduction_data(q).a == 1


def isomorphic(q1: WeightsVector, q2: WeightsVector) -> bool:
    """Whether the two weights vectors present isomorphic spaces.

    Equivalent to equality of the sorted reduced weights; spaces of
    different dimension are a caller error.
    """
    if q1.n != q2.n:
        raise DimensionError(f"dimension mismatch: {q1.n} vs {q2.n}")
    return sorted(reduce_weights(q1).q) == sorted(reduce_weights(q2).q)
