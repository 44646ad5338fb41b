"""Divisor classes, rational homology and sheaf cohomology dimensions.

Every quantity here depends only on the reduced weights, so all
operations reduce their input internally.  Line-bundle and twisted
``p``-form cohomology comes down to binomial sums over lattice points
of dilated polytopes graded by smallest-face dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .lattice import count_points, face_histogram
from .linalg import _fmt_int
from .weights import WeightsVector, _extended_gcd_combination, _space_dimension, reduction_data


@dataclass(frozen=True)
class DivisorClassInfo:
    """Generators and numerical invariants of the divisor class groups.

    ``chow_generator`` is an integer solution of
    ``sum q'_j b_j = 1`` over the reduced weights; the Picard group sits
    inside the class group with index ``picard_index`` (the lcm of the
    reduced weights).  A multiple ``k`` of the class generator is ample
    exactly when the index divides ``k``.
    """

    chow_generator: tuple[int, ...]
    picard_index: int
    canonical_degree: Fraction
    gorenstein: bool

    @property
    def fano(self) -> bool:
        """Whether the space is Gorenstein Fano.

        ``-K`` of a weighted projective space is always ample, so
        Gorenstein Fano is equivalent to ``-K`` being Cartier, which is
        the Gorenstein property itself.
        """
        return self.gorenstein

    def is_ample(self, k: int) -> bool:
        return k > 0 and k % self.picard_index == 0


def divisor_info(q: WeightsVector) -> DivisorClassInfo:
    """Divisor-class data of the space presented by ``q``."""
    _space_dimension(q)
    rd = reduction_data(q)
    delta, total = rd.delta_reduced, rd.reduced.total
    return DivisorClassInfo(
        chow_generator=_extended_gcd_combination(rd.reduced.q),
        picard_index=delta,
        canonical_degree=Fraction(-total, delta),
        gorenstein=total % delta == 0,
    )


def rational_homology(q: WeightsVector) -> tuple[int, ...]:
    """Rational Betti numbers ``h_0, ..., h_{2n}``: 1 in even degrees,
    0 in odd ones, as for every complete simplicial fan with ``n+1``
    rays."""
    n = _space_dimension(q)
    return tuple(int(i % 2 == 0) for i in range(2 * n + 1))


def h0_line_bundle(q: WeightsVector, m: int) -> int:
    """Global sections of the ``m``-th power of the Picard generator."""
    _space_dimension(q)
    return count_points(q, m) if m >= 0 else 0


def hodge(q: WeightsVector, p: int, qq: int, m: int) -> int:
    """Dimension of the ``qq``-th cohomology of twisted ``p``-forms.

    Three regimes: degree 0 counts lattice points of the ``m``-th dilate
    weighted by ``C(s, p)`` over the smallest-face dimension ``s``;
    intermediate degrees vanish away from ``m = 0`` and are Kronecker
    delta at 0; top degree is degree 0 at ``(n - p, -m)``.
    """
    n = _space_dimension(q)
    if not (0 <= p <= n and 0 <= qq <= n):
        raise ValueError(f"form degree and cohomology degree must lie in [0, {n}]")
    if 0 < qq < n:
        return 1 if m == 0 and p == qq else 0
    if qq:          # top degree, so n > 0
        p, m = n - p, -m
    if m < 0:
        return 0
    return sum(ways * comb(s, p) for s, ways in face_histogram(q, m).items())


@dataclass(frozen=True)
class HodgeTable:
    """Cohomology dimensions indexed by ``(p, q, m)``."""

    n: int
    entries: dict[tuple[int, int, int], int]

    def cell(self, p: int, qq: int, m: int) -> int:
        return self.entries[(p, qq, m)]


def hodge_table(q: WeightsVector, m_range: tuple[int, int]) -> HodgeTable:
    """Full table of ``hodge`` values for ``m`` in the inclusive range."""
    lo, hi = m_range
    if lo > hi:
        raise ValueError(f"empty range {_fmt_int(lo)}..{_fmt_int(hi)}")
    n = q.n
    entries = {}
    for m in range(lo, hi + 1):
        for p in range(n + 1):
            for qq in range(n + 1):
                entries[(p, qq, m)] = hodge(q, p, qq, m)
    return HodgeTable(n=n, entries=entries)
