"""Exact integer matrix algebra.

Everything here is arbitrary precision: matrices carry Python ints and
every operation is exact.  Floating point is never used anywhere in
this package; maximal minors of fan matrices are products of weights
and overflow fixed-width integers almost immediately.  Kept is what the
answers use: :class:`IntMatrix`, the Hermite form predicate :func:`is_hnf`
(the canonical fan solves its HNF block, never reduces to it), and two
eliminations, the Bareiss kernel :func:`_jordan` behind :func:`max_minors`
and :func:`_primitive_rows`: the primitive facet normals (the paper's
W-hat) with their determinant tracked through the elimination, which
transversion and polytope recognition read their answers off.  Their
defining identity ``W-hat @ a == diag(lam)`` is checked by Kronecker
substitution (:func:`_diagonal_of`), ``n^2`` big-integer products where
the matrix product takes ``n^3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix and got none."""


class DimensionError(ValueError):
    """Raised on shape mismatches."""


def _as_int(x) -> int:
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"entry {x} is not an integer")
        return x.numerator
    if isinstance(x, str):
        return int(x, 10)
    raise TypeError(f"cannot use {type(x).__name__} as an exact integer")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order.

    Zero-row matrices are allowed (``from_rows`` then needs an explicit
    column count); the column count must still be positive.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.cols < 1 or self.rows < 0:
            raise DimensionError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows:
            raise DimensionError("row count does not match entries")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionError("ragged rows")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        ent = tuple(tuple(_as_int(x) for x in r) for r in rows)
        if not ent:
            if cols is None:
                raise DimensionError("zero-row matrix needs an explicit column count")
            return cls(0, cols, ())
        return cls(len(ent), len(ent[0]), ent)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def delete_column(self, j: int) -> "IntMatrix":
        if self.cols < 2:
            raise DimensionError("cannot delete the only column")
        return IntMatrix(self.rows, self.cols - 1,
                         tuple(r[:j] + r[j + 1:] for r in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product.

        No answer calls it; it stays because the benchmark's tracer
        (``perfbench/spans.py``) wraps it by name.
        """
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, r, c)) for c in cols)
                               for r in self.entries))

    def det(self) -> int:
        """Determinant by :func:`_jordan` with an empty right block; 0 when singular.

        No answer calls it; it stays because the benchmark's tracer
        (``perfbench/spans.py``) wraps it by name.
        """
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        try:
            return _jordan(self.entries, [()] * self.rows)[0]
        except SingularMatrixError:
            return 0

    def entry_gcd(self) -> int:
        g = 0
        for r in self.entries:
            for x in r:
                g = gcd(g, x)
        return g

    @classmethod
    def from_json_rows(cls, rows) -> "IntMatrix":
        return cls.from_rows([[int(str(x), 10) for x in r] for r in rows])

    def __str__(self) -> str:
        width = max((len(str(x)) for r in self.entries for x in r), default=1)
        return "\n".join(" ".join(str(x).rjust(width) for x in r) for r in self.entries)


# ---------------------------------------------------------------------------
# Hermite normal form predicate


def is_hnf(m: IntMatrix) -> bool:
    """Row-style Hermite normal form predicate.

    Nonzero rows come first; each has a positive pivot strictly to the
    right of the pivot above it, zeros to its left, and the entries above
    a pivot are reduced into ``[0, pivot)``.
    """
    prev_col = -1
    seen_zero_row = False
    for i in range(m.rows):
        row = m.entries[i]
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        if piv <= prev_col or row[piv] < 1:
            return False
        for k in range(i):
            if not (0 <= m.entries[k][piv] < row[piv]):
                return False
        prev_col = piv
    return True


# ---------------------------------------------------------------------------
# Eliminations: maximal minors and primitive facet normals


def _jordan(a, e) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination on ``[A | E]``.

    Returns ``(det A, adj(A) @ E)`` for a square ``A`` and an ``E`` with
    as many rows.  Step ``k`` clears column ``k`` above and below the
    pivot and divides by the previous pivot, which is exact (Bareiss);
    the left block ends as ``d * I`` with ``d`` the determinant of the
    row-swapped ``A``, and the right block as ``d * A^-1 @ E``.  The
    sign of the row swaps turns both into ``det A`` and ``adj(A) @ E``.
    Columns left of the pivot are never read again, so they are not
    updated.  Raises :class:`SingularMatrixError` for a singular ``A``.
    """
    n = len(a)
    mat = [list(r) + list(x) for r, x in zip(a, e)]
    width = len(mat[0])
    sign, prev = 1, 1
    for k in range(n):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                raise SingularMatrixError("matrix is singular")
        row_k = mat[k]
        mkk = row_k[k]
        for i in range(n):
            if i == k:
                continue
            row_i = mat[i]
            mik = row_i[k]
            for j in range(k + 1, width):
                q, r = divmod(row_i[j] * mkk - mik * row_k[j], prev)
                if r:
                    raise AssertionError("Gauss-Jordan division by the previous pivot is not exact")
                row_i[j] = q
        prev = mkk
    return sign * prev, [[sign * x for x in r[n:]] for r in mat]


def max_minors(v: IntMatrix) -> tuple[int, ...]:
    """Signed maximal minors of an ``n x (n+1)`` matrix.

    Entry ``i`` is the determinant of ``v`` with column ``i`` deleted.
    One :func:`_jordan` on ``[B_j | v_j]``, ``B_j`` being ``v`` without
    its column ``v_j``, gives ``minor_j = det B_j`` and, by Cramer's rule,
    ``minor_i = (-1)^(|i-j|-1)`` times the entry of ``adj(B_j) @ v_j`` at
    column ``i``'s position in ``B_j``.  ``j`` is the first column with a
    nonsingular block (0 for generic input); all minors are 0 when there
    is none.  Checked by ``B_j @ adj(B_j) @ v_j == det(B_j) * v_j``.
    """
    if v.rows < 1 or v.cols != v.rows + 1:
        raise DimensionError(f"expected n x (n+1) with n >= 1, got {v.rows}x{v.cols}")
    for j in range(v.cols):
        block = [r[:j] + r[j + 1:] for r in v.entries]
        try:
            d, adj_vj = _jordan(block, [r[j:j + 1] for r in v.entries])
        except SingularMatrixError:
            continue
        x = [r[0] for r in adj_vj]
        for b, r in zip(block, v.entries):
            if sum(map(mul, b, x)) != d * r[j]:
                raise AssertionError("maximal minors failed Cramer's identity")
        return tuple(d if i == j else
                     (-1) ** (abs(i - j) - 1) * x[i if i < j else i - 1]
                     for i in range(v.cols))
    return (0,) * v.cols


def _primitive(row: list[int]) -> tuple[list[int], int]:
    """``row`` over its gcd, and that gcd: a candidate from two entries,
    checked by one ``divmod`` per entry; a remainder shrinks it and
    rescales the quotients."""
    nz = [x for x in row if x]
    c = gcd(nz[0], nz[-1])
    out = []
    for x in row:
        if c == 1:
            return row, 1
        q, r = divmod(x, c)
        if r:
            g = gcd(c, r)
            out = [y * (c // g) for y in out]
            q, c = q * (c // g) + r // g, g
        out.append(q)
    return out, c


def _diagonal_of(r: list[list[int]], a: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """``lam`` with ``r @ a == diag(lam)``, ``lam_i > 0``, checked with ``n^2``
    products by Kronecker substitution: with ``X = 2^w`` above twice
    ``bound = n * max|r| * max|a|``, which bounds every entry of ``r @ a``,
    and row ``l`` of ``a`` packed as ``sum_j a_lj * X^j``, ``sum_l r_il *
    packed_l`` has row ``i`` of ``r @ a`` as its balanced base-``X``
    digits, so it is ``lam_i * X^i`` with ``0 < lam_i <= bound`` exactly
    when that row is ``lam_i * e_i``."""
    bound = (len(a) * max(max(map(abs, row)) for row in r)
             * max(max(map(abs, row)) for row in a))
    w = bound.bit_length() + 1
    packed = [sum(x << (w * j) for j, x in enumerate(row)) for row in a]
    lam = []
    for i, ri in enumerate(r):
        p = sum(map(mul, ri, packed))
        li = p >> (w * i)
        if li << (w * i) != p or not 0 < li <= bound:
            raise AssertionError("primitive rows failed their defining identity")
        lam.append(li)
    return tuple(lam)


def _primitive_rows(a: IntMatrix) -> tuple[IntMatrix, tuple[int, ...], int]:
    """Primitive rows ``r_k`` with ``r_k @ a == lam_k * e_k``, ``lam_k > 0``,
    and ``det`` of the matrix ``R`` of those rows (the paper's W-hat).

    Gauss-Jordan on ``[a | I]`` that divides each updated row by its
    content (that of its right block ``r``, as the left is ``r @ a``), so
    a row stays the primitive vector of its direction, never larger than
    the Bareiss row: ``r_k`` is adjugate row ``k`` over its gcd.  Pivot
    rows are made positive and later only scaled by positive factors, so
    ``lam_k > 0``.  As in :func:`_jordan` only columns right of the pivot
    are updated.  ``det`` is that of the right block, tracked through
    the elimination: a row swap or a pivot negation flips its sign, and
    the update ``row <- (s * row - t * pivot row) / c`` multiplies it by
    ``s / c``, an exact division as the block stays integral.  Checked
    by ``R @ a == diag(lam)`` (:func:`_diagonal_of`), rows primitive;
    raises :class:`SingularMatrixError` for a singular ``a``.
    """
    if not a.is_square:
        raise DimensionError("primitive rows of a non-square matrix")
    n = a.rows
    mat = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a.entries)]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        if mat[k][k] < 0:
            mat[k] = [-x for x in mat[k]]
            det = -det
        mkk, tail = mat[k][k], mat[k][k + 1:]
        for i, row in enumerate(mat):
            if i != k and row[k]:
                g = gcd(mkk, row[k])
                s, t = mkk // g, row[k] // g
                row[k + 1:], c = _primitive([s * x - t * y for x, y in zip(row[k + 1:], tail)])
                det, rem = divmod(det * s, c)
                if rem:
                    raise AssertionError("primitive rows lost their determinant")
    rows = [r[n:] for r in mat]
    lam = _diagonal_of(rows, a.entries)
    if any(gcd(*r) != 1 for r in rows):
        raise AssertionError("primitive rows failed their defining identity")
    return IntMatrix.from_rows(rows), lam, det
