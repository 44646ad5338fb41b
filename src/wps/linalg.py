"""Exact integer matrix algebra.

Everything here is arbitrary precision: matrices carry Python ints and
every operation is exact.  Floating point is never used anywhere in
this package; maximal minors of fan matrices are products of weights
and overflow fixed-width integers almost immediately.  One Bareiss
kernel, :func:`_jordan`, computes every determinant.  Hermite normal
forms are only recognized (:func:`is_hnf`), never computed: the
canonical fan solves its HNF block directly.
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal((1,) * n)

    @classmethod
    def diagonal(cls, d) -> "IntMatrix":
        return cls.from_rows([[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

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
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, r, c)) for c in cols)
                               for r in self.entries))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-x for x in r) for r in self.entries))

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(k * x for x in r) for r in self.entries))

    def det(self) -> int:
        """Determinant by :func:`_jordan` with an empty right block; 0 when singular."""
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
# Minors, adjugates, transversion


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


def adjoint(w: IntMatrix) -> tuple[int, IntMatrix]:
    """Determinant and adjugate: ``(det w, adj w)``.

    Both come from one fraction-free Gauss-Jordan elimination on
    ``[w | I]``, which keeps intermediate entries polynomial in the
    input size, and are checked against ``adj(w) @ w == det(w) * I``.
    Raises :class:`SingularMatrixError` when ``det w == 0``.
    """
    if not w.is_square:
        raise DimensionError("adjugate of a non-square matrix")
    n = w.rows
    d, adj = _jordan(w.entries, [[int(i == j) for j in range(n)] for i in range(n)])
    out = IntMatrix.from_rows(adj)
    if out @ w != IntMatrix.identity(n).scaled(d):
        raise AssertionError("adjugate failed its defining identity")
    return d, out


def _primitive(row: list[int]) -> list[int]:
    """``row`` over its gcd: a candidate from two entries, checked by one
    ``divmod`` per entry; a remainder shrinks it and rescales the quotients."""
    nz = [x for x in row if x]
    c = gcd(nz[0], nz[-1])
    out = []
    for x in row:
        if c == 1:
            return row
        q, r = divmod(x, c)
        if r:
            g = gcd(c, r)
            out = [y * (c // g) for y in out]
            q, c = q * (c // g) + r // g, g
        out.append(q)
    return out


def _primitive_rows(a: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """Primitive rows ``r_k`` with ``r_k @ a == lam_k * e_k``, ``lam_k > 0``.

    Gauss-Jordan on ``[a | I]`` that divides each updated row by its
    content (that of its right block ``r``, as the left is ``r @ a``), so
    a row stays the primitive vector of its direction, never larger than
    the Bareiss row: ``r_k`` is adjugate row ``k`` over its gcd.  Pivot
    rows are made positive and later only scaled by positive factors, so
    ``lam_k > 0``.  As in :func:`_jordan` only columns right of the pivot
    are updated.  Checked by ``R @ a == diag(lam)``, rows primitive;
    raises :class:`SingularMatrixError` for a singular ``a``.
    """
    if not a.is_square:
        raise DimensionError("primitive rows of a non-square matrix")
    n = a.rows
    mat = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a.entries)]
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        mat[k], mat[piv] = mat[piv], mat[k]
        if mat[k][k] < 0:
            mat[k] = [-x for x in mat[k]]
        mkk, tail = mat[k][k], mat[k][k + 1:]
        for i, row in enumerate(mat):
            if i != k and row[k]:
                g = gcd(mkk, row[k])
                s, t = mkk // g, row[k] // g
                row[k + 1:] = _primitive([s * x - t * y for x, y in zip(row[k + 1:], tail)])
    rows = IntMatrix.from_rows([r[n:] for r in mat])
    prod = rows @ a
    lam = tuple(prod.entries[k][k] for k in range(n))
    if prod != IntMatrix.diagonal(lam) or min(lam) < 1 or set(row_gcds(rows)) != {1}:
        raise AssertionError("primitive rows failed their defining identity")
    return rows, lam


def what_matrix(w: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Primitive facet normals ``what`` of ``w`` and ``what @ w = diag(lam)``:
    adjugate rows over their gcds, signed so ``lam > 0``, computed by
    :func:`_primitive_rows`.  ``what`` inverts the weighted transversion."""
    what, lam = _primitive_rows(w)
    return what, IntMatrix.diagonal(lam)


def row_gcds(m: IntMatrix) -> tuple[int, ...]:
    """gcd of each row's entries (0 for an all-zero row)."""
    out = []
    for row in m.entries:
        g = 0
        for x in row:
            g = gcd(g, x)
        out.append(g)
    return tuple(out)
