"""Lattice-point counts in dilates of the minimal wps polytope.

Lattice points of the ``m``-th dilate correspond to nonnegative integer
solutions of ``sum q'_j x_j = m * delta'`` over the reduced weights
``q'`` with lcm ``delta'``, and the dimension of the smallest face
containing a point is ``n`` minus the number of vanishing coordinates.

The polytope has lattice vertices, so every count here is a polynomial
of degree at most ``n`` in ``m`` (Ehrhart): the total ``L(m)`` for
``m >= 0``, the interior and each face-graded count ``H_s(m)``, of
degree ``s``, for ``m >= 1``.  By Ehrhart--Macdonald reciprocity the
interior count of the ``m``-th dilate is ``(-1)^n L(-m)``, and on each
face, summed over the faces of dimension ``s`` (each ``t``-face lies in
``C(n - t, s - t)`` of them),
``H_s(-j) = (-1)^s sum_(t <= s) C(n - t, s - t) H_t(j)`` with
``H_s(0) = (-1)^s C(n + 1, s + 1)``.  So every count reads about half
the dilates its degree asks for:

* **sampling bound** -- one table of ``prod 1/(1 - x^q'_j)`` runs up
  to ``K * delta'``, ``K = min(m, n // 2)``, never past the target
  ``m * delta'``, and is read at the multiples of ``delta'``.  The
  totals read ``L(-K..K)``: the totals at ``0..K`` and, shifted by
  ``-sum q'``, the interiors at ``1..K``.  The histogram reads
  ``H_s(1..K)`` through the numerator ``prod ((1 - x^q'_j) + y x^q'_j)``,
  graded by the number ``s + 1`` of positive coordinates, and
  reciprocity gives ``H_s(-K..0)``;
* **Newton extension** -- the samples' forward differences give the
  polynomial in Newton's form, evaluated at ``m`` exactly; at a sampled
  dilate that is the sample itself;
* **volume check** -- the ``n``-th difference is ``n!`` times the
  leading coefficient: the normalized volume ``delta'^n / prod q'`` for
  the total and the top face, zero for a lower face, whose differences
  above its dimension all vanish.  The facets ``x_j = 0`` have
  normalized volumes ``delta'^(n-1) q'_j / prod q'``, which sum to
  ``(n-1)!`` times the leading coefficient of ``H_(n-1)`` and to
  ``2 (n-1)!`` times the next coefficient of ``L``, or minus that of
  ``H_n``.  For even ``n`` the ``n + 1`` samples on
  ``-K..K`` meet both closed forms; for odd ``n`` the volume supplies
  the top term of the ``n`` samples and the facets check them.  The
  part of ``H_n`` that the lower faces do not fix has no other check
  for odd ``n``, so the histogram at each sampled dilate must also sum
  to the table's total there.  So every count extended past its
  samples is checked; a mismatch raises ``AssertionError`` (the CLI's
  exit 3).

One evaluator, :func:`_ehrhart`, does the extension and the check for
all three counts.

Each weight updates the table with running sums along its residue
classes, or block by block when the classes are short, in slices of at
most a few thousand entries: the per-entry work runs at C level and the
temporaries stay bounded.  For the totals the largest weight enters
only at the sampled targets.  The histogram's numerator has ``n + 2``
rows of at most ``sum q' + 1`` small coefficients, each weight a slice
update of every row, and each sample is one numerator row against the
table below its target.  So with ``K`` as above the totals cost
``O(n * K * delta')`` and the histogram
``O(n * K * delta' + n^2 * sum q' + n * K * sum q')``, independent of
``m`` beyond ``n // 2``.  The table still grows linearly with
``delta'``; lcms in the millions (say ``(7,11,13,17,19,23)``,
``delta' = 7,436,429``) remain the open case, and a table of more than
``_MAX_CELLS`` cells, the histogram's numerator rows counted with its
table, raises ``ValueError`` before it is allocated (the CLI's exit 2).  The geometric enumeration and the dynamic
programming over the whole target ``m * delta'`` live in the test suite
as oracles.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, prod
from operator import add, mul, sub

from .weights import WeightsVector, reduction_data

# longest slice one table update materializes at a time
_CHUNK = 4096

# most cells that one counting table may hold: the table grows with
# delta', so a huge lcm fails fast instead of running out of memory
_MAX_CELLS = 5 * 10 ** 7


def _reduced(q: WeightsVector) -> tuple[tuple[int, ...], int]:
    """The reduced weights and their lcm."""
    rd = reduction_data(q)
    return rd.reduced.q, rd.delta_reduced


def _divide(a: list[int], w: int) -> None:
    """Divide the series ``a`` by ``1 - x^w`` in place.

    That is ``a[t] += a[t - w]`` for ascending ``t``: prefix sums along
    each residue class mod ``w`` when the classes are long, otherwise
    adding the already final entries ``w`` below, block by block.
    Either way no slice is longer than about ``_CHUNK`` entries.
    """
    size = len(a)
    if w * w <= size:
        step = w * _CHUNK
        for r in range(w):
            for s in range(r, size, step):
                # start at the previous chunk's last sum to carry it on
                lo = s - w if s > r else s
                a[lo:s + step:w] = accumulate(a[lo:s + step:w])
    else:
        span = min(w, _CHUNK)
        for s in range(w, size, span):
            a[s:s + span] = map(add, a[s:s + span], a[s - w:s - w + span])


def _check_cells(cells: int, delta: int) -> None:
    """Refuse a table of more than ``_MAX_CELLS`` cells, before allocating it."""
    if cells > _MAX_CELLS:
        raise ValueError(f"counting table of {cells} cells for delta' = {delta} "
                         f"exceeds the limit of {_MAX_CELLS}")


def _count_table(weights: tuple[int, ...], size: int) -> list[int]:
    """Solutions of ``sum w_j x_j = t`` for ``0 <= t < size``.

    The series ``prod 1/(1 - x^w)``: the first weight's indicator of its
    multiples, divided by ``1 - x^w`` for each further weight.
    """
    first = weights[0] if weights else size + 1     # no weight: 1 at t = 0 alone
    a = ([1] + [0] * (first - 1)) * (size // first + 1)
    del a[size:]
    for w in weights[1:]:
        _divide(a, w)
    return a


def _sums_at(a: list[int], targets: range, w: int) -> list[int]:
    """``a[t] + a[t - w] + a[t - 2w] + ...`` at each of the ascending
    ``targets``, which share one residue mod ``w`` (0 below zero).

    One pass along that residue class, in slices of ``_CHUNK`` entries.
    """
    out, total, start = [], 0, targets[0] % w
    step = w * _CHUNK
    for t in targets:
        if t >= start:
            total += sum(sum(a[s:min(s + step, t + 1):w]) for s in range(start, t + 1, step))
            start = t + w
        out.append(total)
    return out


def _total_samples(weights: tuple[int, ...], delta: int, k: int) -> list[int]:
    """``L(-k), .., L(k)`` for the total ``L(j)``, the solutions of
    ``sum w_j x_j = j delta``, where ``delta`` is the lcm of the weights.

    By reciprocity ``L(-j) = (-1)^n L°(j)`` for ``j >= 1``, with the
    interior count ``L°(j)`` at ``j delta - sum w``.  The table runs over
    all weights but the largest, which is added only at the targets: a
    sum along one residue class for the totals and one for the interiors.
    """
    *rest, last = sorted(weights)
    size = k * delta + 1
    _check_cells(size, delta)
    table, shift = _count_table(rest, size), sum(weights)
    inner = range(delta - shift, size - shift, delta)
    interior = _sums_at(table, inner, last) if inner else []
    sign = (-1) ** len(rest)
    return [sign * c for c in reversed(interior)] + _sums_at(table, range(0, size, delta), last)


def _face_samples(weights: tuple[int, ...], delta: int,
                  k: int) -> tuple[list[list[int]], list[int]]:
    """For ``p = 1..n+1``, the solutions of ``sum w_j x_j = t`` with
    exactly ``p`` positive coordinates at ``t = delta, 2 delta, .., k delta``;
    and all the solutions at those ``t``, which the rows sum to.

    These are the coefficients of ``y^p`` in
    ``prod (1 + y x^w / (1 - x^w)) = prod ((1 - x^w) + y x^w) / prod (1 - x^w)``.
    The numerator's ``y^p`` coefficients ``num[p]``, cut past the last
    target, take one two-term factor per weight; the denominator is the
    one counting table, and each sample is a numerator row convolved
    with the table at one target.  The totals are the table's entries there.
    """
    size = k * delta + 1
    terms = min(sum(weights) + 1, size)
    _check_cells(size + (len(weights) + 1) * terms, delta)     # table and numerator
    num = [[1] + [0] * (terms - 1)] + [[0] * terms for _ in weights]
    for j, w in enumerate(weights):
        # num[p] <- num[p] (1 - x^w) + num[p - 1] x^w, from the top row down
        # so that row p - 1 still holds its value from before the weight
        for p in range(j + 1, 0, -1):
            num[p][w:] = map(add, num[p][w:], map(sub, num[p - 1][:-w], num[p][:-w]))
        num[0][w:] = map(sub, num[0][w:], num[0][:-w])
    table = _count_table(tuple(sorted(weights)), size)
    out: list[list[int]] = [[] for _ in weights]
    for t in range(delta, size, delta):
        # table[t], table[t - 1], .., against num[p][0], num[p][1], ..
        below = table[t:t - terms:-1] if t >= terms else table[t::-1]
        for row, samples in zip(num[1:], out):
            samples.append(sum(map(mul, row, below)))
    return out, table[delta::delta]


def _ehrhart(samples: list[int], x: int, weights: tuple[int, ...], delta: int,
             dim: int, start: int = 0, total: bool = False) -> int:
    """Value at ``x`` of the polynomial of degree at most ``dim`` that
    takes ``samples[i]`` at ``start + i``: the total ``L`` with ``total``,
    else the count of face dimension ``dim`` (``n`` for the interior).

    Newton's forward-difference form, with ``C(x - start, i)`` stepped by
    the exact recurrence ``C(y, i + 1) = C(y, i) * (y - i) / (i + 1)``; at
    a sampled ``x`` it returns the sample.  The ``n``-th difference is
    ``n! c_n``: the normalized volume ``delta'^n / prod q'`` for ``dim = n``,
    else zero.  It is the top term of a sample of ``n`` values and is
    checked on one of ``n + 1``; so is every difference above ``dim``,
    which must vanish.  Once the top difference is known, the ``(n-1)``-th
    difference at ``start`` is checked too: ``2 (n-1)! c_(n-1)`` is
    ``f`` times the facets' normalized volume ``delta'^(n-1) sum q' / prod q'``,
    with ``f = 1`` for ``L``, ``-1`` for the interior ``(-1)^n L(-x)``,
    ``2`` for the facets' own count and ``0`` below.
    """
    value, binom, lead, row = 0, 1, [], samples
    for i in range(len(samples)):
        lead.append(row[0])
        value += row[0] * binom
        binom = binom * (x - start - i) // (i + 1)
        row = list(map(sub, row[1:], row))
    n, pq = len(weights) - 1, prod(weights)
    top = delta ** n if dim == n else 0     # n! c_n prod q'
    if len(samples) == n:
        lead.append(top // pq)
        value += lead[n] * binom
    if len(lead) == n + 1:
        if dim == n and lead[n] * pq != top:
            raise AssertionError(f"lattice counts fail the volume check: n-th difference "
                                 f"{lead[n]} for weights {weights}")
        if any(lead[dim + 1:]):
            raise AssertionError(f"face dimension {dim} count has nonzero differences "
                                 f"{lead[dim + 1:]} above its degree for weights {weights}")
        # 2 prod q' D^(n-1) f(start) = 2 (n-1)! c_(n-1) prod q' + (2 start + n - 1) n! c_n prod q'
        facets = 1 if total else -1 if dim == n else 2 if dim == n - 1 else 0
        if n and (2 * pq * lead[n - 1] != facets * delta ** (n - 1) * sum(weights)
                  + (2 * start + n - 1) * top):
            raise AssertionError(f"lattice counts fail the facet check: (n-1)-th difference "
                                 f"{lead[n - 1]} for weights {weights}")
    return value


def _total(q: WeightsVector, x: int) -> int:
    """The total ``L(x)`` of the reduced ``q``, from the samples
    ``L(-k..k)`` with ``k = min(|x|, n // 2)``."""
    weights, delta = _reduced(q)
    n = len(weights) - 1
    k = min(abs(x), n // 2)
    return _ehrhart(_total_samples(weights, delta, k), x, weights, delta, n, -k, total=True)


def count_points(q: WeightsVector, m: int) -> int:
    """Lattice points of the ``m``-th dilate of the minimal polytope.

    The Ehrhart polynomial ``L`` at ``m``, read off one counting table
    at the dilates ``-k..k``, ``k = min(m, n // 2)``.
    """
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    return _total(q, m)


def count_interior(q: WeightsVector, m: int) -> int:
    """Lattice points with every coordinate positive (interior points).

    These are the solutions at target ``m * delta' - sum q'`` of the
    same equation, and by reciprocity ``(-1)^n L(-m)``.
    """
    if m < 1:
        raise ValueError("dilation factor must be positive")
    return (-1) ** q.n * _total(q, -m)


def face_histogram(q: WeightsVector, m: int) -> dict[int, int]:
    """Point counts of the ``m``-th dilate keyed by smallest-face dimension.

    A solution with ``z`` zero coordinates sits on a face of dimension
    ``n - z``; the zero dilate is the single vertex of a point.  For
    ``m >= 1`` the count ``H_s`` of face dimension ``s`` is a polynomial
    in ``m`` of degree ``s``.  One counting table, graded by the number
    of positive coordinates through a numerator, gives ``H_s(1..k)``
    with the totals' bound ``k = min(m, n // 2)``: ``k delta' + 1``
    cells, at a cost of ``O(n k delta' + n^2 sum q' + n k sum q')``.
    Reciprocity on each face, summed over the faces of dimension ``s``,
    gives the rest of ``H_s(-k..k)``:
    ``H_s(-j) = (-1)^s sum_(t <= s) C(n - t, s - t) H_t(j)`` and
    ``H_s(0) = (-1)^s C(n + 1, s + 1)``; the polynomials extend these to ``m``.
    """
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    if m == 0:
        return {0: 1}
    weights, delta = _reduced(q)
    n = len(weights) - 1
    k = min(m, n // 2)
    samples, totals = _face_samples(weights, delta, k)
    if m == k:
        values = [row[-1] for row in samples]
    else:
        values, dilates = [], list(zip(*samples))
        for s, row in enumerate(samples):
            sign, binoms = (-1) ** s, [comb(n - t, s - t) for t in range(s + 1)]
            negative = [sign * sum(map(mul, binoms, counts)) for counts in dilates]
            full = negative[::-1] + [sign * comb(n + 1, s + 1)] + row
            values.append(_ehrhart(full, m, weights, delta, s, -k))
        # for odd n the checks above see only the part of H_n that the lower
        # faces fix; its own samples are checked by summing to the totals
        sums = list(map(sum, dilates))
        if sums != totals:
            raise AssertionError(f"face counts fail the sum check: {sums} at dilates 1..{k} "
                                 f"against the totals {totals} for weights {weights}")
    return {s: value for s, value in enumerate(values) if value}
