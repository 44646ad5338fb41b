"""Polytopes of polarized weighted projective spaces.

The fan-to-polytope map deletes column 0 of the fan matrix, takes the
transposed inverse and rescales column ``k`` by ``lcm(weights)/q_k``.
The result is an integer matrix whose columns, together with the
origin, span the polytope of the minimal ample polarization ``O(delta)``.
:func:`weighted_transverse` is that map, with two routes chosen by the
block: an upper triangular one with a nonzero diagonal, as every
canonical fan's, is solved by forward substitution, one exact division
per entry; any other takes one elimination, a gcd per row update.
:func:`polytope_of` is the transverse of the canonical fan.  The
inverse direction divides out the entry gcd and reads the weights and
the fan off one elimination, the primitive facet normals with their
determinant, and builds the fan once from them, deciding each identity
in one step (:func:`recognize_polytope`); the fan's orientation, the
sign of that determinant, is checked by the tests, not at run time.
This is the recognition procedure for arbitrary origin-anchored
simplices; a square matrix is admissible exactly when it accepts the
simplex of the origin and its columns.  Every lcm of weights read here
is the one the weights vector keeps, computed at most once per vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .linalg import (DimensionError, IntMatrix, SingularMatrixError, _as_int, _fmt_int,
                     _primitive_rows, _solve_upper)
from .fan import FanMatrix, canonical_fan
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
    is the anchor that :meth:`edge_matrix` measures the edges from.
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

    def edge_matrix(self) -> IntMatrix:
        """Columns ``vertex_i - vertex_0`` for ``i = 1..n``."""
        p0 = self.vertices[0]
        return IntMatrix(self.n, self.n, tuple(tuple(v[i] - p0[i] for v in self.vertices[1:])
                                               for i in range(self.n)))


@dataclass(frozen=True)
class PolarizedWps:
    """Reduced weights plus a polarization multiple ``m >= 1``.

    Reducedness is read off the reduction data that the weights vector
    keeps, so a vector checked before is not checked again.
    """

    weights: WeightsVector
    polarization: int

    def __post_init__(self):
        if self.polarization < 1:
            raise ValueError("polarization must be positive")
        if not is_reduced(self.weights):
            raise ValueError(f"weights {_fmt_int(self.weights.q)} are not reduced")


def weighted_transverse(v: FanMatrix) -> IntMatrix:
    """Polytope matrix of a fan matrix.

    Column ``k`` is the row ``u_k`` with ``u_k @ B = (delta / q_k) e_k``
    for the fan's square block ``B`` (columns 1..n) and the lcm ``delta``
    of the weights, that is ``delta / q_k`` times row ``k`` of ``B^-1``;
    it is always integral.  An upper triangular ``B`` with a nonzero
    diagonal, as the canonical fan's, is solved by forward substitution
    (:func:`_solve_upper`), one exact division per entry, whose remainder
    checks ``(u_k @ B)_j`` entry by entry.  Any other block takes one
    elimination: with ``r_k @ B = mu_k * e_k`` primitive
    (:func:`_primitive_rows`), ``u_k = delta * r_k / (q_k * mu_k)``, and as
    ``r_k`` is primitive it is integral exactly when ``q_k * mu_k``
    divides ``delta``: one division per column.  A singular ``B`` raises
    :class:`SingularMatrixError`.
    """
    block = [row[1:] for row in v.v.entries]
    delta, q = v.weights.delta, v.weights.q
    n = len(block)
    if all(row[k] and not any(row[:k]) for k, row in enumerate(block)):
        cols = _solve_upper(block, [[0] * k + [delta // qk] + [0] * (n - 1 - k)
                                    for k, qk in enumerate(q[1:])])
    else:
        r, mu, _ = _primitive_rows(block)
        cols = []
        for qk, mk, rk in zip(q[1:], mu, r):
            f, rem = divmod(delta, qk * mk)
            if rem:
                raise AssertionError("weighted transverse is not integral")
            cols.append([f * x for x in rk])
    return IntMatrix(n, n, tuple(zip(*cols)))


def polytope_of(q: WeightsVector, m: int = 1) -> LatticeSimplex:
    """Polytope of the ``m``-th multiple of the minimal polarization.

    Vertices are the origin and ``m`` times the columns of the weighted
    transverse of the canonical fan; any fan of ``q`` gives the same
    polytope up to ``GL(n, Z)``, and this one is what
    :func:`recognize_polytope` returns for reduced ``q``.  The canonical
    block is upper triangular, so :func:`weighted_transverse` solves it
    by forward substitution: vertex ``k`` has ``u_k[j] = 0`` for ``j <
    k`` and ``u_k[k] = delta / (q_k d_k)`` with the pivot ``d_k``.  The
    vertex matrix must then be primitive.
    """
    fan = canonical_fan(q)                  # refuses fewer than two weights
    if m < 1:
        raise ValueError("polarization must be positive")
    w, n = weighted_transverse(fan).entries, q.n
    # the diagonal first, from the last vertex: u_k[k] = delta / (q_k d_k)
    # lacks q_k, so the running gcd sheds a weight at each step, and the
    # other entries meet math.gcd's shortcut once it is 1
    diagonal = [w[k][k] for k in range(n - 1, -1, -1)]
    if gcd(*diagonal, *(x for row in w for x in row)) != 1:
        raise AssertionError("minimal polytope matrix must be primitive")
    verts = ((0,) * n,) + tuple(tuple(m * x for x in col) for col in zip(*w))
    return LatticeSimplex(vertices=verts)


def recognize_polytope(s: LatticeSimplex) -> tuple[PolarizedWps, FanMatrix]:
    """Recognize an origin-anchored simplex as a polarized space.

    Translates by the first vertex, divides the edge matrix by its
    entry gcd ``m`` and inverts the transversion through the primitive
    facet normals (:func:`_primitive_rows`), the rows of the paper's
    W-hat, which are the rays (columns 1..n) of the returned fan.  The
    weights are read off ``what_k @ w' = lam_k * e_k`` and ``det what``,
    one elimination in all: ``q_0 = |det what|``, ``q_k = lcm(lam) / lam_k``.
    Each identity is decided once: ``q_0`` divides ``prod(lam)`` (a
    running product reduced mod ``q_0``, never the full product); the
    fan's column 0 ``-sum_k q_k what_k / q_0`` is integral (the weighted
    column sum), else the rejection is ``not-wps``; ``WeightsVector(q)``
    keeps ``q``, so the minors ``sign(det) (-1)^k q_k`` are coprime; the
    weights are reduced; and their lcm is ``lcm(lam)``, which with
    ``lam_k q_k = lcm(lam)`` maps the fan back to ``w'``.  Any other
    failure is an :class:`AssertionError`.  The orientation ``epsilon``,
    the sign of ``det what``, is checked by the tests, not here.  A
    singular edge matrix, the zero one included, is rejected as
    ``degenerate``.
    """
    w = s.edge_matrix()
    m = w.entry_gcd() or 1              # a zero edge matrix is singular too
    try:
        what, lam, det = _primitive_rows([[x // m for x in row] for row in w.entries])
    except SingularMatrixError:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional") from None

    lam_lcm, q0 = lcm(*lam), abs(det)
    rest = 1                            # prod(lam) mod q0, reduced at each factor
    for x in lam:
        rest = rest * x % q0
    if rest:
        raise AssertionError("|det what| does not divide the product of the normal multiples")
    q = (q0,) + tuple(lam_lcm // x for x in lam)
    # the fan has the rows of ``what`` as columns 1..n; its first column
    # ``v0 = -sum_k q_k * what_k / q_0`` is fixed by the weighted column sum being zero
    v0 = []
    for si in (sum(map(mul, q[1:], col)) for col in zip(*what)):
        quo, rem = divmod(-si, q0)
        if rem:
            raise PolytopeRejection("not-wps", "not a wps polytope: "
                                    "reconstructed fan column is not integral")
        v0.append(quo)
    weights = WeightsVector(q)
    if weights.q != q:
        raise AssertionError("derived weights are not coprime")
    if not is_reduced(weights):
        raise AssertionError("recognition must produce reduced weights")
    # ``weighted_transverse(fan) == w'`` is ``B^T @ w' @ diag(q_1..q_n) == delta * I``
    # for the rays ``B = what^T``, where ``B^T @ w' = diag(lam)`` and ``lam_k q_k = lcm(lam)``
    if weights.delta != lam_lcm:
        raise AssertionError("weights lcm mismatch during recognition")
    fan = FanMatrix(IntMatrix(len(v0), len(v0) + 1,
                              tuple((x, *col) for x, col in zip(v0, zip(*what)))),
                    weights, epsilon=int(det < 0))
    return PolarizedWps(weights=weights, polarization=m), fan


def is_p_admissible(w: IntMatrix) -> bool:
    """Test whether a primitive square matrix is a polytope matrix: the
    verdict of :func:`recognize_polytope` on the simplex ``(0, columns of
    w)``, whose ``degenerate`` rejection, a singular ``w``, raises
    :class:`SingularMatrixError`.  An imprimitive ``w`` is refused after it."""
    try:
        recognize_polytope(LatticeSimplex(vertices=((0,) * w.rows, *zip(*w.entries))))
        admissible = True
    except PolytopeRejection as exc:
        if exc.code == "degenerate":
            raise SingularMatrixError(str(exc)) from None
        admissible = False
    if w.entry_gcd() != 1:
        raise ValueError("entries are not primitive: divide by their gcd first")
    return admissible


def permute_polytope(w: IntMatrix, sigma: tuple[int, ...]) -> IntMatrix:
    """Vertex-relabeling action on a polytope matrix.

    Relabels the vertices ``w_0, ..., w_n`` of ``conv(0, columns of w)``,
    ``w_0`` the origin, by ``sigma`` and returns the edge matrix of the
    relabelled simplex: columns ``w_sigma(k) - w_sigma(0)``, ``k = 1..n``.
    """
    if not w.is_square:
        raise DimensionError("polytope matrix must be square")
    n = w.rows
    if sorted(sigma) != list(range(n + 1)):
        raise ValueError(f"not a permutation of 0..{n}: {sigma}")
    verts = ((0,) * n, *zip(*w.entries))
    return LatticeSimplex(vertices=tuple(verts[k] for k in sigma)).edge_matrix()
