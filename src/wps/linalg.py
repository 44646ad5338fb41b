"""Exact integer matrix algebra.

Everything here is arbitrary precision: matrices carry Python ints and
every operation is exact.  Floating point is never used anywhere in
this package; maximal minors of fan matrices are products of weights
and overflow fixed-width integers almost immediately.  Kept is what the
answers use: :class:`IntMatrix`, the Hermite form predicate :func:`is_hnf`
(the canonical fan solves its HNF block, never reduces to it), and two
eliminations, the Bareiss kernel :func:`_jordan` behind :func:`max_minors`
(a forward pass over ``[A | v]`` with one right-hand column to an upper
triangle, then back substitution) and
:func:`_primitive_rows`: the primitive facet normals (the paper's
W-hat) with their determinant tracked through the elimination, which
transversion and polytope recognition read their answers off.  Their
defining identity ``W-hat @ a == diag(lam)`` is checked by Kronecker
substitution (:func:`_diagonal_of`), ``n^2`` big-integer products where
the matrix product takes ``n^3``; on the toric-roundtrip benchmark's
inputs that is 1.5 times faster in all.  An upper triangular system needs no
elimination: :func:`_solve_upper` solves it by forward substitution, one
exact division per entry.
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


def _fmt_int(x) -> str:
    """``str(x)`` of an int or a tuple or list of ints, but an int of more
    than 200 bits (about 60 digits) reads ``<N-bit integer>`` after its
    sign: no decimal conversion of a huge value, so messages stay short
    and under the interpreter's int/str digit limit."""
    if isinstance(x, int):
        return str(x) if x.bit_length() <= 200 else f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"
    text = ", ".join(map(_fmt_int, x))
    return f"[{text}]" if isinstance(x, list) else f"({text}{',' * (len(x) == 1)})"


def _as_int(x) -> int:
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"entry {_fmt_int(x.numerator)}/{_fmt_int(x.denominator)} "
                             "is not an integer")
        return x.numerator
    raise TypeError(f"cannot use {type(x).__name__} as an exact integer")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order.

    Zero-row matrices are allowed, built as ``IntMatrix(0, cols, ())``;
    the column count must still be positive.
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
    def from_rows(cls, rows) -> "IntMatrix":
        ent = tuple(tuple(_as_int(x) for x in r) for r in rows)
        if not ent:
            raise DimensionError("zero-row matrix needs an explicit column count")
        return cls(len(ent), len(ent[0]), ent)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def delete_column(self, j: int) -> "IntMatrix":
        if self.cols < 2:
            raise DimensionError("cannot delete the only column")
        return IntMatrix(self.rows, self.cols - 1,
                         tuple(r[:j] + r[j + 1:] for r in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product.

        No answer calls it yet: the tests check answers with it, and the
        witnessed recognition of ROADMAP item 6 checks its unimodular
        map by the product ``U @ C == V``.
        """
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = tuple(zip(*other.entries))
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, r, c)) for c in cols)
                               for r in self.entries))

    def det(self) -> int:
        """Determinant by :func:`_jordan` with a zero right-hand column; 0 when singular.

        No answer calls it; it stays because the benchmark's tracer
        (``perfbench/spans.py``) wraps it by name.
        """
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        try:
            return _jordan(self.entries, [0] * self.rows)[0]
        except SingularMatrixError:
            return 0

    def entry_gcd(self) -> int:
        """gcd of all entries; 0 when there are none or all are 0."""
        return gcd(*(x for r in self.entries for x in r))


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


def _jordan(a, v) -> tuple[int, list[int]]:
    """Fraction-free elimination on ``[A | v]``, then back substitution.

    Returns ``(det A, adj(A) @ v)`` for a square ``A`` and one column
    ``v``.  Forward phase: step ``k`` clears column ``k`` below the pivot
    and divides by the previous pivot, which is exact (Bareiss); ``A``
    ends as an upper triangular ``U`` whose last pivot is ``d``, the
    determinant of the row-swapped ``A``.  Columns left of the pivot are
    never read again, so they are not updated.  Back substitution then
    solves ``U @ y = d * c`` for the eliminated column ``c``: ``y`` is
    ``d * A^-1 @ v``, an integer vector, so each division
    ``y_i = (d * c_i - sum_(j>i) U_ij * y_j) / U_ii`` is exact, and
    ``y_(n-1) = c_(n-1)`` as ``U_(n-1)(n-1)`` is ``d``.  The sign of the
    row swaps turns ``d`` and ``y`` into ``det A`` and ``adj(A) @ v``.
    That is ``sum_k (n-1-k)(n-k)``, about ``n^3/3``, entry updates and
    ``n(n-1)/2`` products; Gauss-Jordan, which also clears above each
    pivot, takes ``(n-1) * sum_k (n-k)``, about ``n^3/2``.  An inexact
    division in either phase raises :class:`AssertionError`; a singular
    ``A`` raises :class:`SingularMatrixError`.
    """
    n = len(a)
    mat = [list(r) + [x] for r, x in zip(a, v)]
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
        for i in range(k + 1, n):
            row_i = mat[i]
            mik = row_i[k]
            for j in range(k + 1, n + 1):
                q, r = divmod(row_i[j] * mkk - mik * row_k[j], prev)
                if r:
                    raise AssertionError("Bareiss division by the previous pivot is not exact")
                row_i[j] = q
        prev = mkk
    y = [0] * n
    y[n - 1] = mat[n - 1][n]
    for i in range(n - 2, -1, -1):
        row_i = mat[i]
        q, r = divmod(prev * row_i[n] - sum(map(mul, row_i[i + 1:n], y[i + 1:])), row_i[i])
        if r:
            raise AssertionError("back substitution is not exact")
        y[i] = q
    return sign * prev, [sign * x for x in y]


def max_minors(v: IntMatrix) -> tuple[int, ...]:
    """Signed maximal minors of an ``n x (n+1)`` matrix.

    Entry ``i`` is the determinant of ``v`` with column ``i`` deleted.
    One :func:`_jordan` on ``[B_j | v_j]``, ``B_j`` being ``v`` without
    its column ``v_j``, the one right-hand column, gives
    ``minor_j = det B_j`` and, by Cramer's rule,
    ``minor_i = (-1)^(|i-j|-1)`` times the entry of ``adj(B_j) @ v_j`` at
    column ``i``'s position in ``B_j``.  ``j`` is the first column with a
    nonsingular block (0 for generic input); all minors are 0 when there
    is none.  Checked by ``B_j @ adj(B_j) @ v_j == det(B_j) * v_j``.

    The forward Bareiss pass (about ``n^3/3`` entry updates) leaves
    ``det B_j`` as its last pivot, and back substitution (``n(n-1)/2``
    products) reads ``adj(B_j) @ v_j`` off the triangle, where a
    Gauss-Jordan pass takes about ``n^3/2`` updates: on the
    toric-roundtrip benchmark's fans it is 1.2 to 1.4 times faster from
    ``n = 3`` on, and level at ``n = 2`` (CPython 3.11).
    """
    if v.rows < 1 or v.cols != v.rows + 1:
        raise DimensionError(f"expected n x (n+1) with n >= 1, got {v.rows}x{v.cols}")
    for j in range(v.cols):
        block = [r[:j] + r[j + 1:] for r in v.entries]
        try:
            d, x = _jordan(block, [r[j] for r in v.entries])
        except SingularMatrixError:
            continue
        for b, r in zip(block, v.entries):
            if sum(map(mul, b, x)) != d * r[j]:
                raise AssertionError("maximal minors failed Cramer's identity")
        return tuple(d if i == j else
                     (-1) ** (abs(i - j) - 1) * x[i if i < j else i - 1]
                     for i in range(v.cols))
    return (0,) * v.cols


def _primitive(row: list[int]) -> tuple[list[int], int]:
    """``row`` over its gcd, and that gcd; ``row`` itself when the gcd is 1."""
    c = gcd(*row)
    return (row, 1) if c == 1 else ([x // c for x in row], c)


def _diagonal_of(r: list[list[int]], a: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """``lam`` with ``r @ a == diag(lam)``, ``lam_i > 0``, checked with ``n^2``
    products by Kronecker substitution: with ``X = 2^w`` above twice
    ``bound = n * max|r| * max|a|``, which bounds every entry of ``r @ a``,
    and row ``l`` of ``a`` packed as ``sum_j a_lj * X^j``, ``sum_l r_il *
    packed_l`` has row ``i`` of ``r @ a`` as its balanced base-``X``
    digits, so it is ``lam_i * X^i`` with ``0 < lam_i <= bound`` exactly
    when that row is ``lam_i * e_i``.  On the toric-roundtrip benchmark's
    inputs the row-by-column product took 1.5 times as long in all (0.6
    times up to ``n = 5``, 3.6 times at ``n = 24``), and the benchmark
    ran 4 % fewer ops with it (CPython 3.11)."""
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


def _solve_upper(block, rhs) -> list[list[int]]:
    """The integer rows ``x`` with ``x @ block == b``, one for each row ``b``
    of ``rhs``, for an upper triangular ``block`` given by its rows (the
    entries below its nonzero diagonal are not read).

    Forward substitution: ``x_j = (b_j - sum_(l<j) x_l * block[l][j]) /
    block[j][j]``, summed over the nonzero entries above the diagonal
    only.  Each division must be exact; its remainder is entry ``j`` of
    ``x @ block - b``, so the defining identity is checked entry by
    entry, and an inexact step raises.
    """
    n = len(block)
    cols = []                           # pivot, then the rows and entries above it
    for j in range(n):
        above = [(l, row[j]) for l, row in enumerate(block[:j]) if row[j]]
        cols.append((block[j][j], [l for l, _ in above], [c for _, c in above]))
    out = []
    for k, b in enumerate(rhs):
        x = [0] * n
        get = x.__getitem__
        for j, (s, (d, ls, cs)) in enumerate(zip(b, cols)):
            if ls:
                s -= sum(map(mul, map(get, ls), cs))
            if s and d != 1:
                s, rem = divmod(s, d)
                if rem:
                    raise AssertionError(f"forward substitution is not exact in row {k}, column {j}")
            x[j] = s
        out.append(x)
    return out


def _primitive_rows(a) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Primitive rows ``r_k`` with ``r_k @ a == lam_k * e_k``, ``lam_k > 0``,
    and ``det`` of the matrix ``R`` of those rows (the paper's W-hat); ``a``
    is given by its rows, and ``R`` is returned as rows.

    Gauss-Jordan on ``[a | I]`` that divides each updated row by its
    content (that of its right block ``r``, as the left is ``r @ a``), so
    a row stays the primitive vector of its direction, never larger than
    the Bareiss row: ``r_k`` is adjugate row ``k`` over its gcd.  Pivot
    rows are made positive and later only scaled by positive factors, so
    ``lam_k > 0``.  The right block is kept in pivot order: a row swap at
    step ``k`` also swaps the two rows' own entries, columns ``n+k`` and
    ``n+piv``, and ``perm`` puts the columns back once at the end.  So at
    step ``k`` the row at position ``i`` is zero past column ``n+k`` but
    for its own entry ``n+i``, and its update reads those ``n+1``
    columns; the columns left of the pivot are never read again.  ``det``
    is that of the right block, tracked through the elimination: a row
    swap or a pivot negation flips its sign, and the update ``row <- (s *
    row - t * pivot row) / c`` multiplies it by ``s / c``, an exact
    division as the block stays integral (none when ``c`` is 1).  Checked
    by ``R @ a == diag(lam)`` (:func:`_diagonal_of`), rows primitive;
    raises :class:`SingularMatrixError` for a singular ``a``.
    """
    n = len(a)
    if not n or any(len(r) != n for r in a):
        raise DimensionError("primitive rows of an empty or non-square matrix")
    mat = [list(r) + [0] * i + [1] + [0] * (n - 1 - i) for i, r in enumerate(a)]
    perm = list(range(n))               # right-block column n+p is column perm[p] of R
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            for row in (mat[k], mat[piv]):
                row[n + k], row[n + piv] = row[n + piv], row[n + k]
            perm[k], perm[piv] = perm[piv], perm[k]
            det = -det
        row_k = mat[k]
        hi = n + k + 1
        if row_k[k] < 0:
            row_k[k:hi] = [-x for x in row_k[k:hi]]
            det = -det
        mkk, tail = row_k[k], row_k[k + 1:hi]
        for i, row in enumerate(mat):
            t = row[k]
            if i == k or not t:
                continue
            g = gcd(mkk, t)
            s, t = mkk // g, t // g
            new = [s * x - t * y for x, y in zip(row[k + 1:hi], tail)]
            if i > k:
                new.append(s * row[n + i])      # the pivot row is zero there
            new, c = _primitive(new)
            if i > k:
                row[n + i] = new.pop()
            row[k + 1:hi] = new
            if c == 1:
                det *= s
            else:
                det, rem = divmod(det * s, c)
                if rem:
                    raise AssertionError("primitive rows lost their determinant")
    rows = [r[n:] for r in mat]
    if perm != list(range(n)):
        order = sorted(range(n), key=perm.__getitem__)
        rows = [[r[p] for p in order] for r in rows]
    lam = _diagonal_of(rows, a)
    if any(gcd(*r) != 1 for r in rows):
        raise AssertionError("primitive rows are not primitive")
    return rows, lam, det
