"""Polytopes of polarized weighted projective spaces.

The fan-to-polytope map deletes column 0 of the fan matrix, takes the
transposed inverse and rescales column ``k`` by ``lcm(weights)/q_k``.
The result is an integer matrix whose columns, together with the
origin, span the polytope of the minimal very ample polarization.  The
inverse direction divides out the entry gcd and reads the weights off
the primitive facet normals and one maximal-minor elimination, which
is also the recognition procedure for arbitrary origin-anchored simplices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .linalg import (DimensionError, IntMatrix, SingularMatrixError, _as_int,
                     _primitive_rows, max_minors)
from .fan import FanMatrix, _fan_of, canonical_fan
from .weights import WeightsVector, is_reduced


class PolytopeRejection(ValueError):
    """A simplex failed recognition as a weighted projective polytope."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class LatticeSimplex:
    """Lattice simplex given by its vertices.

    ``vertices`` holds ``n+1`` integer points of ``Z^n``; the first one
    is the anchor that :meth:`normalize` moves to the origin.
    """

    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise DimensionError("a simplex needs at least two vertices")
        dim = len(self.vertices[0])
        if any(len(v) != dim for v in self.vertices):
            raise DimensionError("vertices of mixed dimension")
        if len(self.vertices) != dim + 1:
            raise DimensionError(f"need {dim + 1} vertices in dimension {dim}")
        object.__setattr__(self, "vertices",
                           tuple(tuple(_as_int(x) for x in v) for v in self.vertices))

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    def normalize(self) -> "LatticeSimplex":
        """Translate so the first listed vertex becomes the origin."""
        p0 = self.vertices[0]
        if not any(p0):
            return self
        moved = tuple(tuple(a - b for a, b in zip(v, p0)) for v in self.vertices)
        return LatticeSimplex(vertices=moved)

    def edge_matrix(self) -> IntMatrix:
        """Columns ``vertex_i - vertex_0`` for ``i = 1..n``."""
        p0 = self.vertices[0]
        return IntMatrix.from_rows(
            [[v[i] - p0[i] for v in self.vertices[1:]] for i in range(self.n)])

    def to_json(self) -> dict:
        return {"vertices": [[str(x) for x in v] for v in self.vertices]}

    @classmethod
    def from_json(cls, obj) -> "LatticeSimplex":
        verts = obj.get("vertices") if isinstance(obj, dict) else None
        if not isinstance(verts, list) or not all(isinstance(v, list) for v in verts):
            raise ValueError('expected {"vertices": [[...], ...]}, a list of vertex lists')
        return cls(vertices=tuple(tuple(int(str(x), 10) for x in v) for v in verts))


@dataclass(frozen=True)
class PolarizedWps:
    """Reduced weights plus a polarization multiple ``m >= 1``."""

    weights: WeightsVector
    polarization: int

    def __post_init__(self):
        if self.polarization < 1:
            raise ValueError("polarization must be positive")
        if not is_reduced(self.weights):
            raise ValueError(f"weights {self.weights} are not reduced")


def weighted_transverse(v: FanMatrix) -> IntMatrix:
    """Polytope matrix of a fan matrix.

    Entry ``(i, k)`` is ``delta * cof_ik / (q_k * det)`` where ``cof``
    ranges over the cofactors of the square block and ``delta`` is the
    lcm of the weights; the division is always exact.  With ``r_k @ B
    = mu_k * e_k`` primitive (:func:`_primitive_rows`) cofactor row ``k``
    is ``det / mu_k * r_k``, so the entry is ``delta * r_k[i] / (q_k * mu_k)``.
    """
    r, mu = _primitive_rows(v.rays_block())
    delta, q = v.weights.delta, v.weights.q
    rows = []
    for i in range(v.n):
        row = []
        for k in range(v.n):
            quo, rem = divmod(delta * r.entries[k][i], q[k + 1] * mu[k])
            if rem:
                raise AssertionError("weighted transverse is not integral")
            row.append(quo)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def polytope_of(q: WeightsVector, m: int = 1) -> LatticeSimplex:
    """Polytope of the ``m``-th multiple of the minimal polarization.

    Vertices are the origin and ``m`` times the columns of the weighted
    transverse of the canonical fan; any fan of ``q`` gives the same
    polytope up to ``GL(n, Z)``, and this one is what
    :func:`recognize_polytope` returns for reduced ``q``.
    """
    if q.n < 1:
        raise DimensionError("need at least two weights")
    if m < 1:
        raise ValueError("polarization must be positive")
    w = weighted_transverse(canonical_fan(q))
    if w.entry_gcd() != 1:
        raise AssertionError("minimal polytope matrix must be primitive")
    origin = tuple(0 for _ in range(q.n))
    verts = (origin,) + tuple(tuple(m * x for x in w.column(k)) for k in range(q.n))
    return LatticeSimplex(vertices=verts)


def _normal_weights(what: IntMatrix, lam: tuple[int, ...]) -> tuple[tuple, list, tuple]:
    """Weights ``q`` of the normals ``what_k @ w = lam_k * e_k``, their sum
    ``s = sum_k q_k * what_k`` and the minors of the fan ``[-s/q_0 | what^T]``.

    ``q_k = lcm(lam) / lam_k`` for ``k >= 1``.  One :func:`max_minors` of
    ``[-s | what^T]`` gives ``q_0 = |minor_0| = |det what|`` and, as its
    first column is ``q_0`` times the fan's, ``q_0`` times the fan's other minors.
    """
    big_l = lcm(*lam)
    q = tuple(big_l // x for x in lam)
    cols = list(zip(*what.entries))
    s = [sum(map(mul, q, col)) for col in cols]
    minors = max_minors(IntMatrix.from_rows([[-si, *col] for si, col in zip(s, cols)]))
    q0 = abs(minors[0])
    if any(mi % q0 for mi in minors[1:]):
        raise AssertionError("fan minors are not a multiple of |det what|")
    return (q0,) + q, s, (minors[0],) + tuple(mi // q0 for mi in minors[1:])


def is_p_admissible(w: IntMatrix) -> bool:
    """Test whether a primitive square matrix is a polytope matrix.

    It is one exactly when ``s = sum_k q_k * what_k == 0 (mod q_0)`` in
    every component (:func:`_normal_weights`): the adjugate column sums
    over ``|det w| / lcm(lam)``.
    """
    if not w.is_square:
        raise DimensionError("admissibility needs a square matrix")
    what, lam = _primitive_rows(w)   # raises SingularMatrixError when det w == 0
    if w.entry_gcd() != 1:
        raise ValueError("entries are not primitive: divide by their gcd first")
    q, s, _ = _normal_weights(what, lam)
    return all(si % q[0] == 0 for si in s)


def recognize_polytope(s: LatticeSimplex) -> tuple[PolarizedWps, FanMatrix]:
    """Recognize an origin-anchored simplex as a polarized space.

    Translates by the first vertex, divides the edge matrix by its
    entry gcd ``m`` and inverts the transversion through the primitive
    facet normals (:func:`_primitive_rows`), which are the rays of the
    fan.  The weights, the fan's minors and every consistency check are
    read off the normals, their multiples ``lam`` and :func:`_normal_weights`.
    Fails with ``degenerate`` when the edge matrix is zero or singular,
    and with ``not-wps`` when the derived first fan column is not integral.
    """
    w = s.edge_matrix()
    m = w.entry_gcd()
    if m == 0:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional")
    w_prime = IntMatrix.from_rows([[x // m for x in row] for row in w.entries])
    try:
        what, lam = _primitive_rows(w_prime)
    except SingularMatrixError:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional") from None

    q, wsum, minors = _normal_weights(what, lam)
    # the fan has the rows of ``what`` as columns 1..n; its first column
    # ``v0 = -wsum / q_0`` is fixed by the weighted column sum being zero
    v0 = []
    for si in wsum:
        quo, rem = divmod(-si, q[0])
        if rem:
            raise PolytopeRejection("not-wps", "not a wps polytope: "
                                    "reconstructed fan column is not integral")
        v0.append(quo)
    fan = _fan_of(IntMatrix.from_rows([[x, *col] for x, col in zip(v0, zip(*what.entries))]),
                  minors)
    if fan.weights.q != q:
        raise AssertionError("reconstructed fan disagrees with the derived weights")
    if not is_reduced(fan.weights):
        raise AssertionError("recognition must produce reduced weights")
    # consistency: the lcm of the recognized weights against the normals
    if lcm(*q) != lcm(*lam):
        raise AssertionError("weights lcm mismatch during recognition")
    # ``weighted_transverse(fan) == w'`` is decided by the equivalent
    # identity ``B^T @ w' @ diag(q_1..q_n) == delta * I`` for the rays
    # block ``B``: that block is ``what^T``, so ``B^T @ w'`` is the product
    # ``diag(lam)`` that ``_primitive_rows`` already checked
    delta = fan.weights.delta
    if any(x * qk != delta for x, qk in zip(lam, q[1:])):
        raise AssertionError("recognized fan does not map back to the polytope")
    return PolarizedWps(weights=fan.weights, polarization=m), fan


def permute_polytope(w: IntMatrix, sigma: tuple[int, ...]) -> IntMatrix:
    """Vertex-relabeling action on a polytope matrix.

    With ``w_0`` the origin and ``w_1..w_n`` the columns, returns the
    matrix with columns ``w_sigma(k) - w_sigma(0)`` for ``k = 1..n``.
    """
    if not w.is_square:
        raise DimensionError("polytope matrix must be square")
    n = w.rows
    if sorted(sigma) != list(range(n + 1)):
        raise ValueError(f"not a permutation of 0..{n}: {sigma}")
    cols = [tuple(0 for _ in range(n))] + [w.column(k) for k in range(n)]
    anchor = cols[sigma[0]]
    new_cols = [tuple(a - b for a, b in zip(cols[sigma[k]], anchor))
                for k in range(1, n + 1)]
    return IntMatrix.from_rows([[c[i] for c in new_cols] for i in range(n)])
