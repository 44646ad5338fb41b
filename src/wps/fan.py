"""Fan matrices of weighted projective spaces.

A fan matrix is an ``n x (n+1)`` integer matrix whose columns generate
the rays of the fan.  Its maximal minors recover the weights (up to an
alternating sign), which gives both a recognition procedure and two
constructions: one reading the fan off the unimodular witness of the
Hermite normal form of the weights column, and a canonical one whose
last ``n`` columns form a nonnegative HNF block, read off one more HNF:
that of the first fan with column 0 moved last, ``[B | v_0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linalg import DimensionError, IntMatrix, hnf, is_hnf, max_minors
from .weights import WeightsVector, isomorphic


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

    def column(self, j: int) -> tuple[int, ...]:
        return self.v.column(j)

    def rays_block(self) -> IntMatrix:
        """The square block of columns 1..n (column 0 deleted)."""
        return self.v.delete_column(0)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "columns": [[str(x) for x in self.v.column(j)] for j in range(self.v.cols)],
            "weights": self.weights.to_json(),
        }

    @staticmethod
    def matrix_from_json(obj) -> IntMatrix:
        """Read a plain rows array or a ``{"columns": ...}`` object."""
        if isinstance(obj, dict):
            cols = obj["columns"]
            if not cols or any(len(col) != len(cols[0]) for col in cols):
                raise DimensionError("columns must be nonempty and of equal length")
            return IntMatrix.from_json_rows(zip(*cols))
        return IntMatrix.from_json_rows(obj)


def recognize_fan(v: IntMatrix) -> FanMatrix:
    """Decide whether ``v`` is a fan matrix and recover its weights.

    Checks, in order: every maximal minor nonzero, minors coprime, and
    the columns weighted by ``|minor|`` summing to zero.  The first
    failed check raises a :class:`FanRejection` naming the culprit.
    """
    if v.rows < 1 or v.cols != v.rows + 1:
        raise DimensionError(f"fan matrix must be n x (n+1) with n >= 1, got {v.rows}x{v.cols}")
    minors = max_minors(v)
    for j, mj in enumerate(minors):
        if mj == 0:
            raise FanRejection("zero-minor", f"zero maximal minor at index {j}", index=j)
    q = tuple(abs(mj) for mj in minors)
    if gcd(*q) != 1:
        raise FanRejection("non-coprime-minors",
                           f"maximal minors {q} have gcd {gcd(*q)}")
    n = v.rows
    for i in range(n):
        s = sum(qj * v.entries[i][j] for j, qj in enumerate(q))
        if s != 0:
            raise FanRejection("nonzero-weighted-sum",
                               f"weighted column sum is nonzero in row {i}", index=i)
    epsilon = 0 if minors[0] > 0 else 1
    for j, mj in enumerate(minors):
        if mj != (-1) ** (epsilon + j) * q[j]:
            raise AssertionError("minor signs do not alternate")
    return FanMatrix(v=v, weights=WeightsVector(q), epsilon=epsilon)


def _witness_rows(q: WeightsVector) -> IntMatrix:
    """Last ``n`` rows of the unimodular witness ``U`` of the HNF of the
    weights column, which satisfies ``U @ q^T = (1,0,...,0)^T``."""
    if q.n < 1:
        raise DimensionError("need at least two weights")
    col = IntMatrix.from_rows([[x] for x in q])
    res = hnf(col)
    if res.hnf.column(0) != (1,) + (0,) * q.n:
        raise AssertionError("weights column did not reduce to a unit vector")
    return IntMatrix.from_rows(res.transform.entries[1:])


def fan_from_weights(q: WeightsVector) -> FanMatrix:
    """Produce a fan matrix of the space with the given weights.

    The last ``n`` rows of the unimodular witness of the HNF of the
    weights column are a fan matrix whose recognized weights are
    exactly ``q``.
    """
    out = recognize_fan(_witness_rows(q))
    if out.weights.q != q.q:
        raise AssertionError("constructed fan has the wrong weights")
    return out


def canonical_fan(q: WeightsVector) -> FanMatrix:
    """The unique fan matrix whose columns 1..n form a nonnegative HNF block.

    Obtained from one HNF of a fan matrix ``V`` of the space with column 0
    moved last, ``[B | v_0]``.  ``B`` is nonsingular, so every pivot lies
    in ``B`` and the result is ``U @ [B | v_0]`` with ``U @ B = HNF(B)``:
    the canonical fan with column 0 last, rotated back to the front.
    Column 0 then has strictly negative entries.
    """
    start = _witness_rows(q)
    res = hnf(IntMatrix(q.n, q.n + 1, tuple(r[1:] + r[:1] for r in start.entries)))
    # The HNF rows, rotated back, are U @ V with U = res.transform (hnf
    # has re-multiplied them).  Only U @ V is recognized, and no check is
    # lost: minors(U @ V) = det(U) * minors(V), and HnfResult has checked
    # |det U| = 1, so ``out.weights.q == q`` implies every check that
    # recognizing ``start`` itself would make.
    out = recognize_fan(IntMatrix(q.n, q.n + 1, tuple(r[-1:] + r[:-1] for r in res.hnf.entries)))
    if out.weights.q != q.q:
        raise AssertionError("normalization changed the weights")
    block = out.rays_block()
    if not is_hnf(block) or any(x < 0 for row in block.entries for x in row):
        raise AssertionError("canonical block is not a nonnegative HNF")
    if any(x >= 0 for x in out.v.column(0)):
        raise AssertionError("canonical first column must be negative")
    return out


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
