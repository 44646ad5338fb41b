"""Fan matrices of weighted projective spaces.

A fan matrix is an ``n x (n+1)`` integer matrix whose columns generate
the rays of the fan.  Its maximal minors recover the weights (up to an
alternating sign), which gives a recognition procedure.  The fans of
one weights vector are equal up to ``GL(n, Z)``, and the package builds
only their normal form, the canonical fan: its last ``n`` columns are a
nonnegative HNF block of determinant ``q_0``.  It is solved by
congruences, as in Domich, Kannan and Trotter's HNF modulo the
determinant: every entry above a pivot is a residue, found with one
modular inverse per column, and the result is certified without a
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul

from .linalg import DimensionError, IntMatrix, _fmt_int, is_hnf, max_minors
from .weights import WeightsVector, _space_dimension, isomorphic


class FanRejection(ValueError):
    """A matrix failed fan recognition.

    ``code`` is one of ``zero-minor``, ``non-coprime-minors``,
    ``nonzero-weighted-sum``; ``index`` points at the offending column
    when one exists.
    """

    def __init__(self, code: str, message: str, index: int | None = None):
        super().__init__(message)
        self.code = code
        self.index = index


@dataclass(frozen=True)
class FanMatrix:
    """A recognized fan matrix with its weights and orientation sign."""

    v: IntMatrix
    weights: WeightsVector
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")
        if self.v.cols != self.v.rows + 1:
            raise DimensionError("fan matrix must be n x (n+1)")
        if len(self.weights) != self.v.cols:
            raise DimensionError("weights length must match the column count")

    @property
    def n(self) -> int:
        return self.v.rows


def recognize_fan(v: IntMatrix) -> FanMatrix:
    """Decide whether ``v`` is a fan matrix and recover its weights.

    Checks, in order: every maximal minor nonzero, minors coprime, and
    the columns weighted by ``|minor|`` summing to zero, which is read off
    the minors' signs: the signed minors span ``ker v`` by Cramer's
    identity, which :func:`max_minors` checks, so the sum vanishes exactly
    when they alternate.  The first failed check raises a
    :class:`FanRejection` naming the culprit.  The gcd of the minors is
    the factor the weights vector divides out.  A matrix that is not
    ``n x (n+1)`` with ``n >= 1`` is refused by :func:`max_minors`.
    """
    minors = max_minors(v)
    for j, mj in enumerate(minors):
        if mj == 0:
            raise FanRejection("zero-minor", f"zero maximal minor at index {j}", index=j)
    q = tuple(abs(mj) for mj in minors)
    weights = WeightsVector(q)
    if weights.q != q:
        raise FanRejection("non-coprime-minors", f"maximal minors {_fmt_int(q)} "
                           f"have gcd {_fmt_int(q[0] // weights.q[0])}")
    epsilon = 0 if minors[0] > 0 else 1
    if any(mj != (-1) ** (epsilon + j) * q[j] for j, mj in enumerate(minors)):
        for i, row in enumerate(v.entries):
            if sum(map(mul, q, row)) != 0:
                raise FanRejection("nonzero-weighted-sum",
                                   f"weighted column sum is nonzero in row {i}", index=i)
        raise AssertionError("minor signs do not alternate")
    return FanMatrix(v=v, weights=weights, epsilon=epsilon)


def canonical_fan(q: WeightsVector) -> FanMatrix:
    """The unique fan matrix whose columns 1..n form a nonnegative HNF block.

    Its rows are the HNF basis of ``ker q``, solved as congruences: with
    ``g_i = gcd(q_0, q_{i+1}, ..., q_n)`` the pivot of column ``i`` is
    ``d_i = g_i / g_{i-1}``, and the entry of row ``i`` in column
    ``j > i`` is the one residue mod ``d_j`` that keeps the partial sum
    ``d_i q_i + ... + q_j x_j`` divisible by ``g_j``; it needs
    ``(q_j / g_{j-1})^-1 mod d_j``, one inverse per column.  Column 0
    closes each row to ``row . q = 0`` with ``x_0 = -S // q_0``.

    The result is certified without a determinant: rows in ``ker q`` and
    a nonnegative HNF block whose pivots multiply to ``q_0``.  The block
    then has rank ``n`` and determinant ``q_0``, so the cofactor vector,
    which spans the kernel, is ``q`` itself: the maximal minors are
    ``(-1)^j q_j`` and ``epsilon = 0``.  Column 0 is then negative, as
    ``x_0 q_0 = -sum_(j>0) q_j x_j`` and each row has a positive pivot.
    The kernel check also decides each row's closure on column 0: the
    other two read only columns 1..n, and a row whose ``S`` is not a
    multiple of ``q_0`` misses the kernel by ``(-S) mod q_0``.
    """
    n = _space_dimension(q)
    g = [0] * n + [q[0]]
    for i in range(n - 1, -1, -1):
        g[i] = gcd(g[i + 1], q[i + 1])
    d = [1] + [g[i] // g[i - 1] for i in range(1, n + 1)]
    inv = [pow(q[j] // g[j - 1], -1, d[j]) if d[j] > 1 else 0 for j in range(n + 1)]
    v = IntMatrix(n, n + 1, tuple(tuple(_canonical_row(q.q, i, g, d, inv))
                                  for i in range(1, n + 1)))
    block = v.delete_column(0)
    # an HNF whose diagonal multiplies to q_0 (checked below) is nonnegative
    if not is_hnf(block):
        raise AssertionError("canonical block is not a nonnegative HNF")
    if prod(block.entries[i][i] for i in range(n)) != q[0]:
        raise AssertionError("canonical pivots do not multiply to q_0")
    if any(sum(map(mul, row, q.q)) for row in v.entries):
        raise AssertionError("canonical rows are not in the kernel of the weights")
    return FanMatrix(v=v, weights=q, epsilon=0)


def _canonical_row(q: tuple[int, ...], i: int, g: list[int], d: list[int],
                   inv: list[int]) -> list[int]:
    """Row ``i`` of the canonical fan: pivot ``d_i``, then each entry
    ``j > i`` the residue mod ``d_j`` that makes the partial sum ``S``
    divisible by ``g_j``, and ``x_0 = -S // q_0``."""
    x = [0] * len(q)
    x[i] = d[i]
    s = d[i] * q[i]
    for j in range(i + 1, len(q)):
        if d[j] > 1:
            x[j] = -(s // g[j - 1]) * inv[j] % d[j]
            s += q[j] * x[j]
    x[0] = -s // q[0]
    return x


def permutation_matrix(sigma: tuple[int, ...]) -> IntMatrix:
    """Column-permutation matrix: ``(V @ P)`` has column ``j`` equal to
    column ``sigma[j]`` of ``V``."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    return IntMatrix.from_rows([[1 if sigma[j] == i else 0 for j in range(n)]
                                for i in range(n)])


def fan_isomorphic(v1: FanMatrix, v2: FanMatrix) -> bool:
    """Whether two fan matrices present isomorphic spaces.

    Decided on their weights (:func:`isomorphic`); fans of different
    dimension are never isomorphic.
    """
    return v1.n == v2.n and isomorphic(v1.weights, v2.weights)
