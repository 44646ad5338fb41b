"""Benchmark-owned exact arithmetic that expected values come from.

Nothing here imports ``wps``: every expected value the checker compares
against is built by this module, read from the golden file, or fixed by
the construction of the input.  The routines take plain tuples and lists
of Python ints and favour obviousness over speed; they run outside the
timed region.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``s*a + t*b == g == gcd(a, b) >= 0``."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def max_bits(values) -> int:
    """Largest bit-length among the integers of a nested tuple/list."""
    best = 0
    for x in values:
        if isinstance(x, int):
            best = max(best, abs(x).bit_length())
        else:
            best = max(best, max_bits(x))
    return best


# ---------------------------------------------------------------------------
# weights


def reduction(q: tuple[int, ...]) -> dict:
    """Reduction data of a weights vector, keyed like the CLI's payload."""
    g = gcd(*q)
    q = tuple(x // g for x in q)
    d = tuple(gcd(*(q[:j] + q[j + 1:])) if len(q) > 1 else 1 for j in range(len(q)))
    a_coeffs = tuple(lcm(*(d[:j] + d[j + 1:])) if len(q) > 1 else 1 for j in range(len(q)))
    reduced = tuple(x // a for x, a in zip(q, a_coeffs))
    return {"weights": q, "d": d, "a_coeffs": a_coeffs, "a": lcm(*a_coeffs),
            "delta": lcm(*q), "delta_reduced": lcm(*reduced), "reduced": reduced}


def reduce_weights(q: tuple[int, ...]) -> tuple[int, ...]:
    return reduction(q)["reduced"]


def unreduce(rng, q: tuple[int, ...]) -> tuple[int, ...]:
    """A non-reduced vector presenting the same space as reduced ``q``.

    Multiplying every weight but ``q_j`` by a prime ``p`` coprime to
    ``q_j`` gives ``P(pq_0, .., q_j, .., pq_n) = P(q)``.
    """
    j = rng.randrange(len(q))
    p = rng.choice([p for p in (2, 3, 5, 7, 11, 13) if q[j] % p])
    return tuple(x if i == j else p * x for i, x in enumerate(q))


# ---------------------------------------------------------------------------
# fans and polytopes


def gcd_fan(q: tuple[int, ...]) -> list[list[int]]:
    """A fan matrix of ``q``: the last ``n`` rows of a unimodular ``M``
    with ``M q = e_0``, built from 2x2 extended-Euclid steps."""
    size = len(q)
    x = list(q)
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    for j in range(size - 1, 0, -1):
        a, b = x[j - 1], x[j]
        if b == 0:
            continue
        g, s, t = ext_gcd(a, b)
        top, bot = mat[j - 1], mat[j]
        mat[j - 1] = [s * u + t * v for u, v in zip(top, bot)]
        mat[j] = [(-b // g) * u + (a // g) * v for u, v in zip(top, bot)]
        x[j - 1], x[j] = g, 0
    assert x[0] == 1, "weights are not coprime"
    return mat[1:]


def hnf_witness(block: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF ``H = U @ block`` of a square nonsingular matrix.

    ``H`` is upper triangular with positive diagonal and entries above
    each pivot in ``[0, pivot)``; this form is unique, which is what
    makes it a canonical form under left unimodular multiplication.
    """
    n = len(block)
    work = [list(r) for r in block]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            b = work[i][c]
            if b == 0:
                continue
            a = work[c][c]
            g, s, t = ext_gcd(a, b)
            for rows in (work, u):
                top, bot = rows[c], rows[i]
                rows[c] = [s * p + t * r for p, r in zip(top, bot)]
                rows[i] = [(-b // g) * p + (a // g) * r for p, r in zip(top, bot)]
        if work[c][c] == 0:
            raise ValueError("singular block")
        if work[c][c] < 0:
            work[c] = [-v for v in work[c]]
            u[c] = [-v for v in u[c]]
        piv = work[c][c]
        for r in range(c):
            f = work[r][c] // piv
            if f:
                work[r] = [p - f * v for p, v in zip(work[r], work[c])]
                u[r] = [p - f * v for p, v in zip(u[r], u[c])]
    return work, u


def matmul(a: list, b: list) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def canonical_form(v: list[list[int]]) -> list[list[int]]:
    """``U @ v`` where ``U`` puts the block of columns 1..n in HNF.

    Two fan matrices with the same weights in the same column order
    differ by a left unimodular factor, so they share this form; for a
    fan it is the canonical fan.
    """
    _, u = hnf_witness([list(r[1:]) for r in v])
    return matmul(u, v)


def canonical_fan(q: tuple[int, ...]) -> list[list[int]]:
    return canonical_form(gcd_fan(q))


def fan_weights_ok(v, q) -> bool:
    """Whether ``v`` (n x (n+1)) is a fan matrix of exactly ``q``.

    ``v q = 0`` puts ``q`` in the kernel; the canonical form having a
    triangular block of determinant ``q_0`` then pins the minors to
    ``+-q`` rather than a multiple.
    """
    v = [list(r) for r in v]
    if len(v) + 1 != len(q) or any(len(r) != len(q) for r in v):
        return False
    if any(sum(a * b for a, b in zip(row, q)) for row in v):
        return False
    try:
        c = canonical_form(v)
    except ValueError:
        return False
    det = 1
    for i in range(len(c)):
        det *= c[i][i + 1]
    return det == q[0]


def transverse_of_fan(v, q) -> list[list[int]]:
    """Polytope matrix ``delta * (B^-1)^T * diag(1/q_k)`` of a fan whose
    block ``B`` (columns 1..n) is upper triangular."""
    n = len(v)
    b = [list(r[1:]) for r in v]
    inv = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = Fraction(int(i == col)) - sum(b[i][k] * inv[k][col] for k in range(i + 1, n))
            inv[i][col] = acc / b[i][i]
    delta = lcm(*q)
    w = [[delta * inv[k][i] / q[k + 1] for k in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for r in w for x in r), "transverse is not integral"
    return [[int(x) for x in r] for r in w]


def polytope_matrix(q: tuple[int, ...]) -> list[list[int]]:
    """Vertex matrix of the minimal polytope of reduced weights ``q``."""
    return transverse_of_fan(canonical_fan(q), q)


def transverse_ok(w, v, q) -> bool:
    """Whether ``w`` is the weighted transverse of fan ``v`` with weights
    ``q``: ``B^T w == diag(delta / q_k)`` for the block ``B``."""
    n = len(v)
    if len(w) != n or any(len(r) != n for r in w):
        return False
    bt = [[v[i][k + 1] for i in range(n)] for k in range(n)]
    delta = lcm(*q)
    prod = matmul(bt, w)
    return all(prod[i][k] == (delta // q[k + 1] if i == k else 0)
               for i in range(n) for k in range(n))


def random_unimodular(rng, n: int, ops: int, c_max: int = 2) -> list[list[int]]:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            rows[i] = [-a for a in rows[i]]
        else:
            c = rng.choice([c for c in range(-c_max, c_max + 1) if c])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


# ---------------------------------------------------------------------------
# lattice counts and cohomology


class EhrhartTable:
    """Face-graded lattice-point counts of the dilates of one polytope.

    ``values[s]`` lists ``h_s(m)`` for ``m = 1..n+1``: the points of the
    ``m``-th dilate whose smallest face has dimension ``s``.  Each is a
    polynomial of degree at most ``n`` in ``m >= 1`` (a sum of interior
    Ehrhart polynomials of lattice faces), evaluated here through its
    Newton forward differences, so any ``m`` is exact.
    """

    def __init__(self, q: tuple[int, ...], values: dict[int, list[int]]):
        self.q = tuple(q)
        self.n = len(q) - 1
        self.delta = lcm(*q)
        self.diffs = {}
        for s, ys in values.items():
            ys, d = list(ys), []
            while ys:
                d.append(ys[0])
                ys = [b - a for a, b in zip(ys, ys[1:])]
            self.diffs[int(s)] = d

    def histogram(self, m: int) -> dict[int, int]:
        if m == 0:
            return {0: 1}
        out = {}
        for s, d in self.diffs.items():
            h = sum(c * comb(m - 1, k) for k, c in enumerate(d))
            if h:
                out[s] = h
        return out

    def count(self, m: int) -> int:
        return sum(self.histogram(m).values())

    def interior(self, m: int) -> int:
        return self.histogram(m).get(self.n, 0)


def face_counts(q: tuple[int, ...], targets: list[int]) -> list[dict[int, int]]:
    """Face-graded solution counts of ``sum q_j x_j = T`` for each target.

    A solution with support ``S`` lies on a face of dimension ``|S|-1``;
    solutions with support exactly ``S`` are the nonnegative solutions of
    ``sum_{j in S} q_j y_j = T - sum_{j in S} q_j``.  Tables of those
    counts are built depth first over subsets, one weight at a time.
    """
    top = max(targets)
    hist = [dict() for _ in targets]

    def visit(start: int, table: list[int], used: int, size: int):
        for j in range(start, len(q)):
            w = q[j]
            nxt = list(table)
            for t in range(w, top + 1):
                nxt[t] += nxt[t - w]
            u, s = used + w, size + 1
            for out, t in zip(hist, targets):
                if t - u >= 0 and nxt[t - u]:
                    out[s - 1] = out.get(s - 1, 0) + nxt[t - u]
            visit(j + 1, nxt, u, s)

    base = [0] * (top + 1)
    base[0] = 1
    visit(0, base, 0, 0)
    return hist


def hodge_from_histograms(n: int, p: int, qq: int, m: int, histogram) -> int:
    """``h^qq(Omega^p(m))`` from face-graded counts (``histogram(m)``)."""
    if qq == 0:
        return 0 if m < 0 else sum(c * comb(s, p) for s, c in histogram(m).items())
    if qq < n:
        return int(m == 0 and p == qq)
    return 0 if m > 0 else sum(c * comb(s, n - p) for s, c in histogram(-m).items())


def bott(n: int, p: int, qq: int, k: int) -> int:
    """Bott's formula for ``h^qq(P^n, Omega^p(k))``."""
    if k == 0:
        return int(p == qq)
    if qq == 0:
        return comb(k + n - p, k) * comb(k - 1, p) if k > p else 0
    if qq == n:
        return comb(-k + p, -k) * comb(-k - 1, n - p) if k < p - n else 0
    return 0
