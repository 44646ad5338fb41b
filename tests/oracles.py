"""Independent oracles used by the test suite.

Everything here deliberately re-derives results through a different
route than the production code: cofactor expansion instead of
elimination, rational Gauss-Jordan inverses instead of integer
adjugates, two Hermite normal forms instead of the congruences of
the canonical fan (the direct diophantine construction here solves
those same congruences),
the rational adjugate and its row gcds instead of primitive facet
normals for transversion, recognition and admissibility, fans
certified by their kernel instead of their maximal minors, explicit fan
reconstruction and lattice membership instead of the facet-normal
admissibility test, the alternating cone count
instead of the closed-form Betti numbers, geometric half-space
enumeration instead of composition counting, and dynamic programming
over the full target and point-by-point enumeration instead of sampled
Ehrhart polynomials, lists of coefficients instead of packed integers
for the face numerator, and the gcd and lcm of each weight's complement
instead of prefix and suffix gcds for the reduction data.  It also
keeps :func:`witness_fan`, the fan read off the HNF witness of the
weights column, for tests that need a fan which is not the canonical
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterator

from wps.fan import FanMatrix
from wps.linalg import DimensionError, IntMatrix, SingularMatrixError, is_hnf
from wps.polytope import LatticeSimplex, PolarizedWps, PolytopeRejection
from wps.weights import WeightsVector, is_reduced, reduce_weights


# ---------------------------------------------------------------------------
# exact rational matrices, for transposed inverses by Gauss-Jordan


@dataclass(frozen=True)
class RatMatrix:
    """Immutable matrix of exact rationals (always in lowest terms)."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionError("shape does not match entries")

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        ent = tuple(tuple(Fraction(x) for x in r) for r in rows)
        return cls(len(ent), len(ent[0]), ent)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return RatMatrix(self.rows, other.cols,
                         tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in cols)
                               for r in self.entries))

    def det(self) -> Fraction:
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        mat = [list(r) for r in self.entries]
        n = self.rows
        d = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if mat[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                mat[k], mat[piv] = mat[piv], mat[k]
                d = -d
            d *= mat[k][k]
            inv = 1 / mat[k][k]
            for i in range(k + 1, n):
                f = mat[i][k] * inv
                if f:
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[k])]
        return d

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        mat = [list(r) + [Fraction(int(i == j)) for j in range(n)]
               for i, r in enumerate(self.entries)]
        for k in range(n):
            piv = next((i for i in range(k, n) if mat[i][k] != 0), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            if piv != k:
                mat[k], mat[piv] = mat[piv], mat[k]
            inv = 1 / mat[k][k]
            mat[k] = [x * inv for x in mat[k]]
            for i in range(n):
                if i != k and mat[i][k]:
                    f = mat[i][k]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[k])]
        return RatMatrix.from_rows([r[n:] for r in mat])

    def to_integer(self) -> IntMatrix:
        return IntMatrix.from_rows(self.entries)


def to_rational(m: IntMatrix) -> RatMatrix:
    return RatMatrix(m.rows, m.cols, tuple(tuple(Fraction(x) for x in r) for r in m.entries))


def transverse(a: RatMatrix) -> RatMatrix:
    """Transposed inverse of a square invertible rational matrix."""
    if not a.is_square:
        raise DimensionError("transversion of a non-square matrix")
    return a.inverse().transpose()


# ---------------------------------------------------------------------------
# adjugates: rational Gauss-Jordan and recursive cofactor expansion


def diagonal(d) -> IntMatrix:
    """The square integer matrix with diagonal ``d``."""
    return IntMatrix.from_rows([[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])


def adjoint(w: IntMatrix) -> tuple[int, IntMatrix]:
    """Determinant and adjugate: ``(det w, adj w)``.

    Both come from this module's rational eliminations, which share no
    code with the library's: ``d = RatMatrix.det`` and ``adj = d *
    RatMatrix.inverse``, checked against ``adj(w) @ w == d * I``.  The
    determinant is pinned by its own elimination; the identity alone
    would also pass ``c * d`` with ``c * adj``.
    Raises :class:`SingularMatrixError` when ``det w == 0``.
    """
    if not w.is_square:
        raise DimensionError("adjugate of a non-square matrix")
    return _adjoint(w)


@lru_cache(maxsize=4)
def _adjoint(w: IntMatrix) -> tuple[int, IntMatrix]:
    # memoized: the recognition and admissibility routes of one simplex
    # ask for the same adjugate, the costliest step of either
    r = to_rational(w)
    d = int(r.det())
    out = IntMatrix.from_rows([[d * x for x in row] for row in r.inverse().entries])
    if out @ w != diagonal((d,) * w.rows):
        raise AssertionError("adjugate failed its defining identity")
    return d, out


def row_gcds(m: IntMatrix) -> tuple[int, ...]:
    """gcd of each row's entries (0 for an all-zero row)."""
    return tuple(gcd(*r) for r in m.entries)


def adjugate_cofactor(rows):
    n = len(rows)

    def det(rs):
        if not rs:
            return 1
        if len(rs) == 1:
            return rs[0][0]
        return sum((-1) ** j * rs[0][j] * det([r[:j] + r[j + 1:] for r in rs[1:]])
                   for j in range(len(rs)))

    def minor(i, j):
        return [list(r[:j]) + list(r[j + 1:]) for k, r in enumerate(rows) if k != i]

    return [[(-1) ** (i + j) * det(minor(j, i)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# transversion, recognition and admissibility through the adjugate
#
# The library reads everything off the primitive facet normals ``what_k``
# with ``what_k @ w = lam_k * e_k``.  These routes build the rational
# adjugate instead and divide each row by its gcd ``s_k``: then
# q_k = s_k / s with s = gcd(s_k), q_0 = |det w|^(n-1) / prod(s_k) and
# lcm(q) = |det w| / s.


def fan_by_kernel(v: IntMatrix, q: tuple[int, ...]) -> FanMatrix:
    """``v`` as a fan matrix of the coprime weights ``q``, certified
    without its maximal minors: ``v @ q == 0`` and ``|det B| == q_0`` for
    its block ``B`` of columns ``1..n``, by rational elimination.  ``B``
    then has rank ``n``, so ``q`` spans ``ker v``; the signed minors
    span it too and start with ``det B``, so they are ``(-1)^j q_j``
    times the sign of ``det B``."""
    det = to_rational(v.delete_column(0)).det()
    if (gcd(*q) != 1 or abs(det) != q[0]
            or any(sum(map(mul, row, q)) for row in v.entries)):
        raise AssertionError("not a fan matrix of these weights")
    return FanMatrix(v=v, weights=WeightsVector(q), epsilon=int(det < 0))


def what_by_adjugate(det: int, adj: IntMatrix) -> IntMatrix:
    """Each row of ``adj = adjoint(w)[1]`` over its gcd, signed like
    ``det`` so that ``what @ w`` has a positive diagonal."""
    sign = 1 if det > 0 else -1
    return IntMatrix.from_rows([[sign * x // g for x in row]
                                for row, g in zip(adj.entries, row_gcds(adj))])


def _adjugate_weights(det: int, adj: IntMatrix) -> tuple[tuple[int, ...], int]:
    s_rows = row_gcds(adj)
    s = gcd(*s_rows)
    q0 = abs(det) ** (adj.rows - 1) // prod(s_rows)
    return (q0,) + tuple(si // s for si in s_rows), s


def weighted_transverse_by_adjugate(v: FanMatrix) -> IntMatrix:
    """Entry ``(i, k)`` is ``delta * cof_ik / (q_k * det)``."""
    det, adj = adjoint(v.v.delete_column(0))   # adj[k][i] is the (i, k) cofactor
    delta, q = v.weights.delta, v.weights.q
    rows = []
    for i in range(v.n):
        row = []
        for k in range(v.n):
            quo, rem = divmod(delta * adj.entries[k][i], q[k + 1] * det)
            if rem:
                raise AssertionError("weighted transverse is not integral")
            row.append(quo)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def is_p_admissible_by_adjugate(w: IntMatrix) -> bool:
    """Every column sum of the adjugate is divisible by ``q_0 * s``.

    A non-primitive ``w`` is refused after the singularity test, which
    runs on ``w`` over its entry gcd: the adjugate recognition builds.
    """
    if not w.is_square:
        raise DimensionError("admissibility needs a square matrix")
    m = w.entry_gcd() or 1
    det, adj = adjoint(IntMatrix.from_rows([[x // m for x in row] for row in w.entries]))
    if m != 1:
        raise ValueError("entries are not primitive: divide by their gcd first")
    q, s = _adjugate_weights(det, adj)
    return all(sum(col) % (q[0] * s) == 0 for col in zip(*adj.entries))


def recognize_polytope_by_adjugate(s: LatticeSimplex) -> tuple[PolarizedWps, FanMatrix]:
    """Recognition with the same rejections, weights read off the adjugate."""
    w = s.edge_matrix()
    m = w.entry_gcd()
    if m == 0:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional")
    w_prime = IntMatrix.from_rows([[x // m for x in row] for row in w.entries])
    try:
        det, adj = adjoint(w_prime)
    except SingularMatrixError:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional") from None
    n = w_prime.rows
    q, s_all = _adjugate_weights(det, adj)
    what = what_by_adjugate(det, adj)
    v0 = []
    for i in range(n):
        quo, rem = divmod(-sum(q[k + 1] * what.entries[k][i] for k in range(n)), q[0])
        if rem:
            raise PolytopeRejection("not-wps", "not a wps polytope: "
                                    "reconstructed fan column is not integral")
        v0.append(quo)
    fan = fan_by_kernel(IntMatrix.from_rows([[v0[i]] + list(what.column(i))
                                             for i in range(n)]), q)
    assert is_reduced(fan.weights)
    assert lcm(*q) == abs(det) // s_all
    assert weighted_transverse_by_adjugate(fan) == w_prime
    return PolarizedWps(weights=fan.weights, polarization=m), fan


# ---------------------------------------------------------------------------
# polytope-matrix admissibility, the two formulations that the library's
# verdict (facet-normal sums divisible by q_0) is checked against
#
# Both read the weights off the row-normalized adjugate ``what``:
# q_k = s_k / s for the adjugate's row gcds s_k and s = gcd(s_k), and
# q_0 = |det what| from a determinant, not from a closed form.


def _inversion_data(w: IntMatrix):
    det, adj = adjoint(w)
    s_rows = row_gcds(adj)
    s = gcd(*s_rows)
    what = what_by_adjugate(det, adj)
    q = (abs(int(to_rational(what).det())),) + tuple(si // s for si in s_rows)
    return det, adj, what, q, s


def admissible_by_inversion(w: IntMatrix) -> bool:
    """Condition (a): the first fan column fixed by ``what`` and the
    weights is integral, the completed matrix is a fan, and that fan's
    weighted transverse is ``w``.  The completed matrix is a fan
    whenever its first column is integral (:func:`fan_by_kernel`
    certifies it), and its transverse is taken through the adjugate."""
    _, _, what, q, _ = _inversion_data(w)
    n = w.rows
    v0 = []
    for i in range(n):
        quo, rem = divmod(-sum(q[k + 1] * what.entries[k][i] for k in range(n)), q[0])
        if rem:
            return False
        v0.append(quo)
    fan = fan_by_kernel(IntMatrix.from_rows([[v0[i]] + list(what.column(i))
                                             for i in range(n)]), q)
    return weighted_transverse_by_adjugate(fan) == w


def admissible_by_lattice_membership(w: IntMatrix) -> bool:
    """Condition (c): ``delta / q_0`` times the all-ones row vector lies
    in the lattice spanned by the rows of ``w``, with ``delta =
    |det w| / s``."""
    det, adj, _, q, s = _inversion_data(w)
    delta = abs(det) // s
    if delta % q[0]:
        return False
    # solve x @ w = target over the rationals; membership needs x integral
    target = delta // q[0]
    return all(target * sum(col) % det == 0 for col in zip(*adj.entries))


# ---------------------------------------------------------------------------
# rational Betti numbers by the alternating cone count


def betti_by_cone_count(n: int) -> tuple[int, ...]:
    """``h_0, ..., h_{2n}`` of a complete simplicial fan with ``n+1`` rays
    in dimension ``n``, from the alternating sum over its cone counts
    ``C(n+1, n-i)`` of cones of dimension ``n - i``."""
    out = []
    for k in range(n + 1):
        out.append(sum((-1) ** (i - k) * comb(i, k) * comb(n + 1, n - i)
                       for i in range(k, n + 1)))
        out.append(0)
    return tuple(out[:2 * n + 1])


# ---------------------------------------------------------------------------
# extended Euclid, for by-hand expectations


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# canonical fan by direct diophantine construction
#
# Builds the triangular block column by column from the gcd chain
# k_j = gcd(q_0, q_j, ..., q_n), solving each row equation by modular
# inversion, instead of normalizing an existing fan matrix.  The
# library's canonical_fan now solves the same congruences (per row, on
# the running sum), so this is a second implementation of one idea;
# canonical_fan_by_hnf below is the independent route.


def canonical_fan_diophantine(q: tuple[int, ...]) -> IntMatrix:
    n = len(q) - 1
    assert n >= 1 and gcd(*q) == 1
    k = [0] * (n + 2)           # k[j] for 1 <= j <= n, k[n+1] unused
    for j in range(1, n + 1):
        k[j] = gcd(q[0], *q[j:])
    assert k[1] == 1
    diag = [0] * (n + 1)        # diag[j] = v_jj, 1-based
    for j in range(1, n):
        assert k[j + 1] % k[j] == 0
        diag[j] = k[j + 1] // k[j]
    diag[n] = q[0] // k[n]

    v = [[0] * (n + 1) for _ in range(n + 1)]   # 1-based rows/cols, col 0 = v_0
    for j in range(1, n + 1):
        v[j][j] = diag[j]
        rhs = -q[j] * diag[j]
        if j == n:
            assert rhs % q[0] == 0
            v[n][0] = rhs // q[0]
            continue
        # walk the gcd chain: k_{j+1} z_{j+1} = rhs, then absorb columns
        # j+1 .. n one at a time, keeping each entry in [0, diagonal)
        assert rhs % k[j + 1] == 0
        z = rhs // k[j + 1]
        for col in range(j + 1, n):
            mod = diag[col]                     # = k[col+1] // k[col]
            coeff = q[col] // k[col]
            if mod == 1:
                entry = 0
            else:
                entry = (z * pow(coeff, -1, mod)) % mod
            v[j][col] = entry
            num = k[col] * z - q[col] * entry
            assert num % k[col + 1] == 0
            z = num // k[col + 1]
        mod = diag[n]                           # = q0 // k_n
        coeff = q[n] // k[n]
        entry = 0 if mod == 1 else (z * pow(coeff, -1, mod)) % mod
        v[j][n] = entry
        num = k[n] * z - q[n] * entry
        assert num % q[0] == 0
        v[j][0] = num // q[0]

    return IntMatrix.from_rows([row for row in v[1:]])


# ---------------------------------------------------------------------------
# Hermite normal form with a unimodular witness, by Euclid on the
# smallest entry of each column


@dataclass(frozen=True)
class HnfResult:
    """Hermite normal form together with a unimodular witness.

    ``transform @ input == hnf`` holds for the matrix the result was
    computed from; the witness is not unique and callers must rely only
    on unimodularity and that product identity.
    """

    hnf: IntMatrix
    transform: IntMatrix
    rank: int

    def __post_init__(self):
        if not self.transform.is_square or self.transform.rows != self.hnf.rows:
            raise DimensionError("transform must be square with as many rows as the HNF")
        if abs(to_rational(self.transform).det()) != 1:
            raise ValueError("transform is not unimodular")
        if not is_hnf(self.hnf):
            raise ValueError("matrix is not in Hermite normal form")
        nonzero = sum(1 for r in self.hnf.entries if any(r))
        if nonzero != self.rank:
            raise ValueError("rank does not match the number of nonzero rows")


def hnf(a: IntMatrix) -> HnfResult:
    """Hermite normal form ``B = U @ a`` with ``U`` unimodular.

    The elimination order is fixed (leftmost pivot column, Euclid on the
    smallest surviving entry, entries above a pivot reduced last) so one
    build always returns the same witness, but only the HNF itself is
    canonical.
    """
    m, n = a.rows, a.cols
    # each row carries its witness row, [a_i | e_i], so one statement
    # updates both and the two blocks are split off at the end
    rows = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(a.entries)]
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = [i for i in range(r, m) if rows[i][c] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            p = rows[r][c]
            for i in nz:
                q = rows[i][c] // p
                if i != r and q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            nz = [i for i in range(r, m) if rows[i][c] != 0]
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    # built directly, as a has no rows when m == 0
    b = IntMatrix(m, n, tuple(tuple(row[:n]) for row in rows))
    trans = IntMatrix(m, m, tuple(tuple(row[n:]) for row in rows))
    if trans @ a != b:
        raise AssertionError("HNF witness failed re-multiplication check")
    return HnfResult(hnf=b, transform=trans, rank=r)


# ---------------------------------------------------------------------------
# a fan that is not canonical, and the canonical fan by two Hermite
# normal forms
#
# The last n rows of the unimodular witness of the HNF of the weights
# column are a fan V.  With column 0 moved last, [B | v_0] has B
# nonsingular, so every pivot of its HNF lies in B: that HNF is the
# canonical fan with column 0 last, and rotating it back gives the fan.


def witness_fan(q: WeightsVector) -> FanMatrix:
    """Produce a fan matrix of the space with the given weights.

    The last ``n`` rows of the unimodular witness ``U`` of the HNF of
    the weights column, ``U @ q^T = (1,0,...,0)^T``, are a fan matrix
    whose weights are exactly ``q`` (:func:`fan_by_kernel`).
    """
    if q.n < 1:
        raise DimensionError("need at least two weights")
    res = hnf(IntMatrix.from_rows([[x] for x in q]))
    if res.hnf.column(0) != (1,) + (0,) * q.n:
        raise AssertionError("weights column did not reduce to a unit vector")
    return fan_by_kernel(IntMatrix.from_rows(res.transform.entries[1:]), q.q)


def canonical_fan_by_hnf(q: tuple[int, ...]) -> IntMatrix:
    start = witness_fan(WeightsVector(q)).v.entries
    moved = hnf(IntMatrix.from_rows([r[1:] + r[:1] for r in start])).hnf
    return IntMatrix.from_rows([r[-1:] + r[:-1] for r in moved.entries])


# ---------------------------------------------------------------------------
# geometric lattice-point census of m * conv(0, w_1, ..., w_n)
#
# The simplex is described by n+1 integer half spaces (the barycentric
# coordinates scaled by |det W| plus the opposite-facet cap).  Points
# are enumerated coordinate by coordinate with exact Fourier-Motzkin
# bounds.  Along the innermost axis every facet functional is affine
# with integer coefficients, so membership holds throughout a slab once
# both endpoints check out, and the points sitting on a facet are the
# integer roots of those affine functions; everything stays exact.


def _facet_data(w: IntMatrix, m: int):
    n = w.rows
    det, adj = adjoint(w)
    sign = 1 if det > 0 else -1
    big_d = abs(det)
    rows = [[sign * adj.entries[k][i] for i in range(n)] for k in range(n)]
    cap = [sum(r[i] for r in rows) for i in range(n)]
    # a . u >= b form
    ineqs = [(tuple(r), 0) for r in rows]
    ineqs.append((tuple(-x for x in cap), -m * big_d))
    return ineqs


def _fm_levels(ineqs, n):
    levels = [None] * n
    levels[n - 1] = list(ineqs)
    for t in range(n - 1, 0, -1):
        nxt = []
        pos = [iq for iq in levels[t] if iq[0][t] > 0]
        neg = [iq for iq in levels[t] if iq[0][t] < 0]
        for a, b in levels[t]:
            if a[t] == 0:
                nxt.append((a, b))
        for a, b in pos:
            for c, d in neg:
                coeff_a, coeff_c = -c[t], a[t]
                comb = tuple(coeff_a * a[i] + coeff_c * c[i] for i in range(n))
                nxt.append((comb, coeff_a * b + coeff_c * d))
        levels[t - 1] = nxt
    return levels


def _bounds(level, t, rests):
    """Bounds on coordinate ``t`` from the inequalities ``a . u >= b`` of
    one level, given each one's rest ``b - a . prefix`` over the
    coordinates before ``t``."""
    lo, hi = None, None
    feasible = True
    for (a, _), rest in zip(level, rests):
        at = a[t]
        if at > 0:
            cand = -((-rest) // at)
            lo = cand if lo is None else max(lo, cand)
        elif at < 0:
            cand = rest // at
            hi = cand if hi is None else min(hi, cand)
        elif rest > 0:
            feasible = False
    return feasible, lo, hi


def simplex_census(w: IntMatrix, m: int):
    """Count lattice points of ``m * conv(0, columns of w)`` per face dim.

    Returns ``(total, interior, histogram)`` with ``histogram`` keyed by
    the dimension of the smallest containing face.  The rest
    ``b - a . prefix`` of every inequality of every deeper level is
    carried down the recursion, one multiply-subtract per coordinate
    fixed, instead of summed again at each node.
    """
    n = w.rows
    if m == 0:
        return 1, 0, {0: 1}
    levels = _fm_levels(_facet_data(w, m), n)
    hist = [0] * (n + 1)
    # coefficient of coordinate t in each inequality of level l
    coeffs = [[[a[t] for a, _ in level] for t in range(n)] for level in levels]
    # the innermost level is the facets ``r . u >= 0``, then the cap
    # ``-cap . u >= -m |det W|``: along the innermost axis each functional
    # is ``f = -rest + c * u`` with ``c`` its last coefficient
    slab = coeffs[n - 1][n - 1]

    def classify_slab(rests, lo, hi):
        baseline = 0
        specials: dict[int, int] = {}
        for j, (rest, c) in enumerate(zip(rests, slab)):
            base = -rest
            assert base + c * lo >= 0 and base + c * hi >= 0, \
                "facet test violated inside bounds" if j < n else "cap test violated inside bounds"
            if c == 0:
                baseline += base == 0
            elif base % c == 0:
                root = -base // c
                if lo <= root <= hi:
                    specials[root] = specials.get(root, 0) + 1
        assert baseline <= n
        hist[n - baseline] += hi - lo + 1 - len(specials)
        for extra in specials.values():
            assert baseline + extra <= n, "too many active facets"
            hist[n - baseline - extra] += 1

    def recurse(t, rests):
        # rests[l - t]: the rests of level l's inequalities, for l >= t
        feasible, lo, hi = _bounds(levels[t], t, rests[0])
        if not feasible or lo is None or hi is None or lo > hi:
            return
        if t < n - 1:
            deeper = [(rs, coeffs[l][t]) for l, rs in enumerate(rests[1:], t + 1)]
            for val in range(lo, hi + 1):
                recurse(t + 1, [[r - c * val for r, c in zip(rs, cs)] for rs, cs in deeper])
            return
        classify_slab(rests[0], lo, hi)

    recurse(0, [[b for _, b in level] for level in levels])
    total = sum(hist)
    return total, hist[n], {s: c for s, c in enumerate(hist) if c}


def simplex_census_boxscan(w: IntMatrix, m: int):
    """Tiny reference census: scan the vertex bounding box with exact
    rational barycentric tests.  Only usable for small examples."""
    n = w.rows
    if m == 0:
        return 1, 0, {0: 1}
    inv = to_rational(w).inverse()
    verts = [tuple(0 for _ in range(n))] + [tuple(m * x for x in w.column(k))
                                            for k in range(n)]
    lo = [min(v[i] for v in verts) for i in range(n)]
    hi = [max(v[i] for v in verts) for i in range(n)]
    hist: dict[int, int] = {}

    def points(i, acc):
        if i == n:
            yield acc
            return
        for val in range(lo[i], hi[i] + 1):
            yield from points(i + 1, acc + (val,))

    for u in points(0, ()):
        lam = [sum(inv.entries[k][i] * u[i] for i in range(n)) for k in range(n)]
        if any(x < 0 for x in lam) or sum(lam) > m:
            continue
        active = sum(1 for x in lam if x == 0) + (1 if sum(lam) == m else 0)
        s = n - active
        hist[s] = hist.get(s, 0) + 1
    total = sum(hist.values())
    return total, hist.get(n, 0), hist


# ---------------------------------------------------------------------------
# lattice counts by dynamic programming over the whole target m * delta
#
# One Python-level step per table cell, no polynomial extension: the
# counting routines of the library before they sampled Ehrhart
# polynomials.


def solution_counts(weights: tuple[int, ...], size: int) -> list[int]:
    """Numbers of nonnegative solutions of ``sum w_j x_j = t`` for
    ``0 <= t < size``, ``size >= 1``, one running sum per weight."""
    table = [1] + [0] * (size - 1)
    for w in weights:
        for t in range(w, size):
            table[t] += table[t - w]
    return table


def solution_count(weights: tuple[int, ...], target: int) -> int:
    """Number of nonnegative solutions of ``sum w_j x_j = target``."""
    return solution_counts(weights, target + 1)[target] if target >= 0 else 0


def face_numerator(weights: tuple[int, ...], terms: int) -> list[list[int]]:
    """The coefficients of ``y^p``, ``p = 0..len(weights)``, in
    ``prod ((1 - x^w) + y x^w)`` cut past ``x^(terms - 1)``: one list of
    ``terms`` coefficients a row, updated element by element, the
    library's numerator before it packed its rows into integers."""
    num = [[1] + [0] * (terms - 1)] + [[0] * terms for _ in weights]
    for j, w in enumerate(weights):
        # num[p] <- num[p] (1 - x^w) + num[p - 1] x^w, from the top row down
        # so that row p - 1 still holds its value from before the weight
        for p in range(j + 1, 0, -1):
            num[p][w:] = map(add, num[p][w:], map(sub, num[p - 1][:-w], num[p][:-w]))
        num[0][w:] = map(sub, num[0][w:], num[0][:-w])
    return num


def dp_count_points(q: WeightsVector, m: int) -> int:
    red = reduce_weights(q)
    return solution_count(red.q, m * red.delta)


def dp_count_interior(q: WeightsVector, m: int) -> int:
    red = reduce_weights(q)
    return solution_count(red.q, m * red.delta - red.total)


def dp_face_histogram(q: WeightsVector, m: int) -> dict[int, int]:
    """Counts keyed by smallest-face dimension, from a row-major table
    ``table[t][p]`` of the ways to reach ``t`` with ``p`` positive
    coordinates."""
    if m == 0:
        return {0: 1}
    red = reduce_weights(q)
    n, target = q.n, m * red.delta
    table = [[0] * (n + 2) for _ in range(target + 1)]
    table[0][0] = 1
    for w in red.q:
        positive = [[0] * (n + 2) for _ in range(target + 1)]
        for t in range(w, target + 1):
            prev, cur = table[t - w], positive[t - w]
            row = positive[t]
            for p in range(1, n + 2):
                row[p] = prev[p - 1] + cur[p]
        for t in range(target + 1):
            row, pos = table[t], positive[t]
            for p in range(n + 2):
                row[p] += pos[p]
    return {p - 1: ways for p, ways in enumerate(table[target]) if ways and p >= 1}


# ---------------------------------------------------------------------------
# lattice points enumerated one by one
#
# Exponential in the target m * delta: for small cases only.


@dataclass(frozen=True)
class LatticePoint:
    """A solution of the weighted composition equation with its face data.

    ``face_dim`` is the dimension of the smallest face of the dilated
    polytope containing the point: the ambient dimension minus the
    number of vanishing coordinates.
    """

    composition: tuple[int, ...]
    face_dim: int

    def __post_init__(self):
        n = len(self.composition) - 1
        if any(x < 0 for x in self.composition):
            raise ValueError("composition entries must be nonnegative")
        zeros = sum(1 for x in self.composition if x == 0)
        if self.face_dim != n - zeros:
            raise ValueError(f"face_dim {self.face_dim} does not match {zeros} zeros")

    @property
    def interior(self) -> bool:
        return all(x > 0 for x in self.composition)


def lattice_points(q: WeightsVector, m: int) -> Iterator[LatticePoint]:
    """Enumerate the points of the ``m``-th dilate (``m >= 1``)."""
    if m < 1:
        raise ValueError("enumeration needs a positive dilation factor")
    red = reduce_weights(q)
    weights, target, n = red.q, m * red.delta, q.n

    def solve(j: int, remaining: int, acc: tuple[int, ...]):
        if j == n:
            if remaining % weights[n] == 0:
                yield acc + (remaining // weights[n],)
            return
        for x in range(remaining // weights[j] + 1):
            yield from solve(j + 1, remaining - x * weights[j], acc + (x,))

    for comp in solve(0, target, ()):
        zeros = sum(1 for x in comp if x == 0)
        yield LatticePoint(composition=comp, face_dim=n - zeros)


# ---------------------------------------------------------------------------
# reduction data from each weight's complement, quadratic in the length


def reduction_by_complements(q: tuple[int, ...]) -> tuple[tuple, tuple, int]:
    """``(d, a_coeffs, a)``: ``d_j`` the gcd of the weights other than
    ``q_j``, ``a_coeffs[j]`` the lcm of the ``d``'s other than ``d_j``
    (1 when there are none), and ``a`` the lcm of ``a_coeffs``."""
    def complementary(values, combine):
        return tuple(combine(*values[:j], *values[j + 1:]) if len(values) > 1 else 1
                     for j in range(len(values)))

    d = complementary(q, gcd)
    a_coeffs = complementary(d, lcm)
    return d, a_coeffs, lcm(*a_coeffs)


# ---------------------------------------------------------------------------
# shared random generators


def random_weights(rng, n_min=1, n_max=5, w_max=50):
    n = rng.randint(n_min, n_max)
    while True:
        q = tuple(rng.randint(1, w_max) for _ in range(n + 1))
        if gcd(*q) == 1:
            return q


def random_unimodular(rng, n, ops=None, c_max=3):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if ops is not None else 2 * n + 2):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-c_max, c_max)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def random_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)
