"""Polytopes of polarized weighted projective spaces.

The fan-to-polytope map deletes column 0 of the fan matrix, takes the
transposed inverse and rescales column ``k`` by ``lcm(weights)/q_k``.
The result is an integer matrix whose columns, together with the
origin, span the polytope of the minimal very ample polarization.  The
inverse direction divides out the entry gcd, row-normalizes the
adjugate and reads the weights off the row gcds, which is also the
recognition procedure for arbitrary origin-anchored simplices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .linalg import (DimensionError, IntMatrix, SingularMatrixError, _as_int,
                     adjoint, row_gcds, what_matrix)
from .fan import FanMatrix, fan_from_weights, recognize_fan
from .weights import WeightsVector, is_reduced


class PolytopeRejection(ValueError):
    """A simplex failed recognition as a weighted projective polytope."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class LatticeSimplex:
    """Origin-anchored full-dimensional lattice simplex.

    ``vertices`` holds ``n+1`` integer points of ``Z^n``.  Once
    ``normalized`` the first vertex is the origin and the matrix of the
    remaining vertices is nonsingular.
    """

    vertices: tuple[tuple[int, ...], ...]
    normalized: bool = False

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
        if self.normalized and any(self.vertices[0]):
            raise ValueError("normalized simplex must have the origin first")

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    def normalize(self) -> "LatticeSimplex":
        """Translate so the first listed vertex becomes the origin."""
        if self.normalized:
            return self
        p0 = self.vertices[0]
        moved = tuple(tuple(a - b for a, b in zip(v, p0)) for v in self.vertices)
        return LatticeSimplex(vertices=moved, normalized=True)

    def edge_matrix(self) -> IntMatrix:
        """Columns ``vertex_i - vertex_0`` for ``i = 1..n``."""
        s = self.normalize()
        return IntMatrix.from_rows(
            [[s.vertices[k + 1][i] for k in range(self.n)] for i in range(self.n)])

    def to_json(self) -> dict:
        return {"vertices": [[str(x) for x in v] for v in self.vertices]}

    @classmethod
    def from_json(cls, obj) -> "LatticeSimplex":
        return cls(vertices=tuple(tuple(int(str(x), 10) for x in v)
                                  for v in obj["vertices"]))


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
    lcm of the weights; the division is always exact.  The determinant
    and the cofactors come from one elimination (:func:`adjoint`).
    """
    det, adj = adjoint(v.rays_block())   # adj[k][i] is the (i, k) cofactor
    delta = v.weights.delta
    q = v.weights.q
    rows = []
    for i in range(v.n):
        row = []
        for k in range(v.n):
            num = delta * adj.entries[k][i]
            den = q[k + 1] * det
            quo, rem = divmod(num, den)
            if rem:
                raise AssertionError("weighted transverse is not integral")
            row.append(quo)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def polytope_of(q: WeightsVector, m: int = 1) -> LatticeSimplex:
    """Polytope of the ``m``-th multiple of the minimal polarization.

    Vertices are the origin and ``m`` times the columns of the weighted
    transverse of a fan produced from the weights.
    """
    if q.n < 1:
        raise DimensionError("need at least two weights")
    if m < 1:
        raise ValueError("polarization must be positive")
    w = weighted_transverse(fan_from_weights(q))
    if w.entry_gcd() != 1:
        raise AssertionError("minimal polytope matrix must be primitive")
    origin = tuple(0 for _ in range(q.n))
    verts = (origin,) + tuple(tuple(m * x for x in w.column(k)) for k in range(q.n))
    return LatticeSimplex(vertices=verts, normalized=True)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the polytope-matrix admissibility test.

    ``admissible`` is the production verdict (the adjugate column-sum
    divisibility test); ``condition_a`` re-derives it by full inversion
    and ``condition_c`` by a lattice-membership check, for
    cross-validation.
    """

    admissible: bool
    condition_a: bool
    condition_b: bool
    condition_c: bool


def _recognition_core(w: IntMatrix, det: int, adj: IntMatrix):
    """Shared inversion steps, from ``(det, adj) = adjoint(w)``.

    Returns ``(q, s, what, what_w, v0)``: the weights read off the
    adjugate, the gcd ``s`` of its row gcds, the normalized adjugate, its
    product with ``w`` and the first fan column, or ``None`` for ``v0``
    when that column is not integral.
    ``q_0 = |det what|`` comes in closed form, ``|det|^(n-1)`` over the
    product of the adjugate's row gcds, not from another determinant.
    """
    n = w.rows
    s_rows = row_gcds(adj)
    s = gcd(*s_rows)
    q0 = abs(det) ** (n - 1) // prod(s_rows)
    q = (q0,) + tuple(si // s for si in s_rows)
    what, what_w = what_matrix(w, (det, adj))
    v0 = []
    for i in range(n):
        tot = sum(q[k + 1] * what.entries[k][i] for k in range(n))
        quo, rem = divmod(-tot, q0)
        if rem:
            return q, s, what, what_w, None
        v0.append(quo)
    return q, s, what, what_w, tuple(v0)


def _fan_columns(v0: tuple[int, ...], what: IntMatrix) -> IntMatrix:
    """Fan matrix with first column ``v0`` and the rows of ``what`` after it."""
    return IntMatrix.from_rows([[v0[i]] + list(what.column(i)) for i in range(what.rows)])


def _maps_to(fan: FanMatrix, what_w: IntMatrix) -> bool:
    """Whether ``weighted_transverse(fan) == w`` for a fan built by
    :func:`_fan_columns` from ``what = what_matrix(w)``.

    Decided by the equivalent identity ``B^T @ w @ diag(q_1..q_n) ==
    delta * I`` for the rays block ``B``: that block is ``what^T``, so
    ``B^T @ w`` is the product ``what_w`` that ``what_matrix`` already
    built and checked.
    """
    q, delta = fan.weights.q, fan.weights.delta
    return all(x * q[k + 1] == (delta if i == k else 0)
               for i, row in enumerate(what_w.entries) for k, x in enumerate(row))


def is_p_admissible(w: IntMatrix) -> AdmissibilityReport:
    """Test whether a primitive square matrix is a polytope matrix.

    The production check divides the adjugate's column sums by
    ``q_0 * s``; the two equivalent formulations (explicit inversion,
    lattice membership of the scaled all-ones vector) are reported
    alongside it for the test suite.  All three share one adjugate.
    """
    if not w.is_square:
        raise DimensionError("admissibility needs a square matrix")
    det, adj = adjoint(w)          # raises SingularMatrixError when det w == 0
    if w.entry_gcd() != 1:
        raise ValueError("entries are not primitive: divide by their gcd first")

    q, s, what, what_w, v0 = _recognition_core(w, det, adj)
    q0 = q[0]
    col_sums = [sum(adj.entries[i][k] for i in range(w.rows)) for k in range(w.cols)]
    cond_b = all(c % (q0 * s) == 0 for c in col_sums)

    cond_a = False
    if v0 is not None:
        try:
            fan = recognize_fan(_fan_columns(v0, what))
            cond_a = fan.weights.q == q and _maps_to(fan, what_w)
        except ValueError:
            cond_a = False

    delta = abs(det) // s
    cond_c = False
    if delta % q0 == 0:
        target = [delta // q0] * w.rows
        # solve x @ W = target over the rationals; membership needs x integral
        sol_num = [sum(target[i] * adj.entries[i][k] for i in range(w.rows))
                   for k in range(w.cols)]
        cond_c = all(v % det == 0 for v in sol_num)

    return AdmissibilityReport(admissible=cond_b, condition_a=cond_a,
                               condition_b=cond_b, condition_c=cond_c)


def recognize_polytope(s: LatticeSimplex) -> tuple[PolarizedWps, FanMatrix]:
    """Recognize an origin-anchored simplex as a polarized space.

    Translates by the first vertex, divides the edge matrix by its
    entry gcd ``m``, inverts the transversion through the normalized
    adjugate and reconstructs the fan matrix.  One fraction-free
    elimination gives the determinant and the adjugate; the weights,
    the fan and every consistency check are read off those two.  Fails
    with ``degenerate`` when the edge matrix is zero or singular, and
    with ``not-wps`` when the derived first fan column is not integral.
    """
    s = s.normalize()
    w = s.edge_matrix()
    m = w.entry_gcd()
    if m == 0:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional")
    w_prime = IntMatrix.from_rows([[x // m for x in row] for row in w.entries])
    try:
        det, adj = adjoint(w_prime)
    except SingularMatrixError:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional") from None

    q, s_all, what, what_w, v0 = _recognition_core(w_prime, det, adj)
    if v0 is None:
        raise PolytopeRejection("not-wps", "not a wps polytope: "
                                "reconstructed fan column is not integral")
    fan = recognize_fan(_fan_columns(v0, what))
    if fan.weights.q != q:
        raise AssertionError("reconstructed fan disagrees with the derived weights")
    if not is_reduced(fan.weights):
        raise AssertionError("recognition must produce reduced weights")
    # consistency: the lcm of the recognized weights against the adjugate data
    if lcm(*q) != abs(det) // s_all:
        raise AssertionError("weights lcm mismatch during recognition")
    if not _maps_to(fan, what_w):
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
