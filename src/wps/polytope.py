"""Polytopes of polarized weighted projective spaces.

The fan-to-polytope map deletes column 0 of the fan matrix, takes the
transposed inverse and rescales column ``k`` by ``lcm(weights)/q_k``.
The result is an integer matrix whose columns, together with the
origin, span the polytope of the minimal very ample polarization.  For
an arbitrary fan that takes one elimination (:func:`weighted_transverse`);
the canonical fan's block is upper triangular, so :func:`polytope_of`
solves for its vertices by forward substitution instead, one exact
division per entry where the elimination takes a gcd per row update.
The inverse direction divides out the entry gcd and reads the weights
and the fan off one elimination, the primitive facet normals with their
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
from math import gcd, lcm, prod
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

    Entry ``(i, k)`` is ``delta * cof_ik / (q_k * det)`` where ``cof``
    ranges over the cofactors of the square block and ``delta`` is the
    lcm of the weights; the division is always exact.  With ``r_k @ B
    = mu_k * e_k`` primitive (:func:`_primitive_rows`) cofactor row ``k``
    is ``det / mu_k * r_k``, so the entry is ``delta * r_k[i] / (q_k * mu_k)``.
    As ``r_k`` is primitive, column ``k`` is integral exactly when
    ``q_k * mu_k`` divides ``delta``: one division per column.
    """
    r, mu, _ = _primitive_rows([row[1:] for row in v.v.entries])
    delta, q = v.weights.delta, v.weights.q
    scale = []
    for qk, mk in zip(q[1:], mu):
        f, rem = divmod(delta, qk * mk)
        if rem:
            raise AssertionError("weighted transverse is not integral")
        scale.append(f)
    return IntMatrix(len(r), len(r), tuple(tuple(f * x for f, x in zip(scale, col))
                                           for col in zip(*r)))


def polytope_of(q: WeightsVector, m: int = 1) -> LatticeSimplex:
    """Polytope of the ``m``-th multiple of the minimal polarization.

    Vertices are the origin and ``m`` times the columns of the weighted
    transverse of the canonical fan; any fan of ``q`` gives the same
    polytope up to ``GL(n, Z)``, and this one is what
    :func:`recognize_polytope` returns for reduced ``q``.

    Column ``k`` is the row ``u_k`` with ``u_k @ B = (delta / q_k) e_k``
    for the fan's upper triangular block ``B``, that is ``delta / q_k``
    times row ``k`` of ``B^-1`` as in :func:`weighted_transverse`, solved
    by :func:`_solve_upper`:
    ``u_k[j] = 0`` for ``j < k``, ``u_k[k] = delta / (q_k d_k)`` with the
    pivot ``d_k``, then one exact division per entry, which checks
    ``(u_k @ B)_j`` entry by entry.
    """
    block = [row[1:] for row in canonical_fan(q).v.entries]    # refuses fewer than two weights
    if m < 1:
        raise ValueError("polarization must be positive")
    n, delta = q.n, q.delta
    rhs = [[0] * k + [delta // qk] + [0] * (n - 1 - k) for k, qk in enumerate(q.q[1:])]
    cols = _solve_upper(block, rhs)
    # the diagonal first, from the last column: u_k[k] = delta / (q_k d_k)
    # lacks q_k, so the running gcd sheds a weight at each step, and the
    # other entries meet math.gcd's shortcut once it is 1
    diagonal = [cols[k][k] for k in range(n - 1, -1, -1)]
    if gcd(*diagonal, *(x for col in cols for x in col)) != 1:
        raise AssertionError("minimal polytope matrix must be primitive")
    verts = ((0,) * n,) + tuple(tuple(m * x for x in col) for col in cols)
    return LatticeSimplex(vertices=verts)


def recognize_polytope(s: LatticeSimplex) -> tuple[PolarizedWps, FanMatrix]:
    """Recognize an origin-anchored simplex as a polarized space.

    Translates by the first vertex, divides the edge matrix by its
    entry gcd ``m`` and inverts the transversion through the primitive
    facet normals (:func:`_primitive_rows`), the rows of the paper's
    W-hat, which are the rays (columns 1..n) of the returned fan.  The
    weights are read off ``what_k @ w' = lam_k * e_k`` and ``det what``,
    one elimination in all: ``q_0 = |det what|``, ``q_k = lcm(lam) / lam_k``.
    Each identity is decided once: ``q_0`` divides ``prod(lam)``; the
    fan's column 0 ``-sum_k q_k what_k / q_0`` is integral (the weighted
    column sum), else the rejection is ``not-wps``; ``WeightsVector(q)``
    keeps ``q``, so the minors ``sign(det) (-1)^k q_k`` are coprime; the
    weights are reduced; and their lcm is ``lcm(lam)``, which with
    ``lam_k q_k = lcm(lam)`` maps the fan back to ``w'``.  Any other
    failure is an :class:`AssertionError`.  The orientation ``epsilon``,
    the sign of ``det what``, is checked by the tests, not here.  A zero
    or singular edge matrix is rejected as ``degenerate``.
    """
    w = s.edge_matrix()
    m = w.entry_gcd()
    if m == 0:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional")
    try:
        what, lam, det = _primitive_rows([[x // m for x in row] for row in w.entries])
    except SingularMatrixError:
        raise PolytopeRejection("degenerate", "simplex is not full-dimensional") from None

    lam_lcm, q0 = lcm(*lam), abs(det)
    if prod(lam) % q0:
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
