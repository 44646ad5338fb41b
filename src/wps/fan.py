"""Fan matrices of weighted projective spaces.

A fan matrix is an ``n x (n+1)`` integer matrix whose columns generate
the rays of the fan.  Its maximal minors recover the weights (up to an
alternating sign), which gives a recognition procedure.  A fan is built
from the HNF witness of the weights column, and the canonical one (its
last ``n`` columns a nonnegative HNF block) with one extended-gcd
combination per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linalg import DimensionError, IntMatrix, hnf, is_hnf, max_minors
from .weights import WeightsVector, _extended_gcd_combination, isomorphic


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
        lists = obj.get("columns") if isinstance(obj, dict) else obj
        if not isinstance(lists, list) or not all(isinstance(x, list) for x in lists):
            raise ValueError('expected {"columns": [[...], ...]} or a rows array [[...], ...]')
        if isinstance(obj, dict):
            if not lists or any(len(col) != len(lists[0]) for col in lists):
                raise DimensionError("columns must be nonempty and of equal length")
            return IntMatrix.from_json_rows(zip(*lists))
        return IntMatrix.from_json_rows(lists)


def _fmt_int(x: int) -> str:
    """Decimal up to about 60 digits, else ``<N-bit integer>``: no decimal
    conversion of a huge value, so messages stay short and under the
    interpreter's int/str digit limit."""
    return str(x) if x.bit_length() <= 200 else f"<{x.bit_length()}-bit integer>"


def recognize_fan(v: IntMatrix) -> FanMatrix:
    """Decide whether ``v`` is a fan matrix and recover its weights.

    Checks, in order: every maximal minor nonzero, minors coprime, and
    the columns weighted by ``|minor|`` summing to zero.  The first
    failed check raises a :class:`FanRejection` naming the culprit.
    """
    if v.rows < 1 or v.cols != v.rows + 1:
        raise DimensionError(f"fan matrix must be n x (n+1) with n >= 1, got {v.rows}x{v.cols}")
    return _fan_of(v, max_minors(v))


def _fan_of(v: IntMatrix, minors: tuple[int, ...]) -> FanMatrix:
    """The checks of :func:`recognize_fan` on ``v`` and its maximal minors."""
    for j, mj in enumerate(minors):
        if mj == 0:
            raise FanRejection("zero-minor", f"zero maximal minor at index {j}", index=j)
    q = tuple(abs(mj) for mj in minors)
    if gcd(*q) != 1:
        raise FanRejection("non-coprime-minors",
                           f"maximal minors ({', '.join(map(_fmt_int, q))}) "
                           f"have gcd {_fmt_int(gcd(*q))}")
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


def fan_from_weights(q: WeightsVector) -> FanMatrix:
    """Produce a fan matrix of the space with the given weights.

    The last ``n`` rows of the unimodular witness ``U`` of the HNF of
    the weights column, ``U @ q^T = (1,0,...,0)^T``, are a fan matrix
    whose recognized weights are exactly ``q``.
    """
    if q.n < 1:
        raise DimensionError("need at least two weights")
    res = hnf(IntMatrix.from_rows([[x] for x in q]))
    if res.hnf.column(0) != (1,) + (0,) * q.n:
        raise AssertionError("weights column did not reduce to a unit vector")
    out = recognize_fan(IntMatrix.from_rows(res.transform.entries[1:]))
    if out.weights.q != q.q:
        raise AssertionError("constructed fan has the wrong weights")
    return out


def canonical_fan(q: WeightsVector) -> FanMatrix:
    """The unique fan matrix whose columns 1..n form a nonnegative HNF block.

    Its rows are the HNF basis of ``ker q``, built from row ``n`` up: row
    ``i`` has pivot ``d_i = g / gcd(g, q_i)`` with ``g = gcd(q_0, q_{i+1},
    ..., q_n)``, the extended-gcd combination of those weights times
    ``-d_i q_i / g`` on columns ``0, i+1..n``, and each entry ``j > i``
    reduced into ``[0, d_j)`` by row ``j``.  Column 0 is then negative.
    """
    if q.n < 1:
        raise DimensionError("need at least two weights")
    rows = {}                       # row i on columns 0..n
    for i in range(q.n, 0, -1):
        r = (q[0],) + q.q[i + 1:]
        g = gcd(*r)
        d = g // gcd(g, q[i])
        t = -d * q[i] // g
        c = _extended_gcd_combination(r)
        x = [t * c[0]] + [0] * (i - 1) + [d] + [t * cj for cj in c[1:]]
        for j in range(i + 1, q.n + 1):
            f = x[j] // rows[j][j]
            x = [a - f * b for a, b in zip(x, rows[j])]
        rows[i] = x
    out = recognize_fan(IntMatrix.from_rows([rows[i] for i in range(1, q.n + 1)]))
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
