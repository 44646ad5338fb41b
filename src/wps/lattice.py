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
  for odd ``n``, and at ``m <= n // 2`` the samples are the answer, so
  the histogram at each sampled dilate must also sum to the table's
  total there.  So every count is checked; a mismatch raises
  ``AssertionError`` (the CLI's exit 3).

One evaluator, :func:`_ehrhart`, does the extension and the check for
all three counts.

The table is one buffer of cells in fields of ``width`` bytes, sized by a
bound on the largest count.  The first weight enters as its indicator of
multiples.  Each further weight ``w`` divides by ``1 - x^w`` block by block:
the block as one integer times ``(1 + x^w)(1 + x^2w)..``, a shift and add
per factor in C loops, plus the ``w`` final cells before it, repeated; a
weight of more than ``_BLOCK`` cells takes blocks of its own length.  That
carry, the block's last ``w`` cells, is read by one shift of the block's
integer, and only those cells are converted to bytes: converting the whole
block to keep its tail took 1.72 s against 1.50 s for
``count_points((7, 11, 13, 17, 19, 23), 1)`` (CPython 3.11).
The totals' table leaves out the largest weight, which enters only at the
targets: :func:`_sums_at` sums the cells along its residue class there,
byte plane by byte plane.  Every other count reads cells through
:func:`_cells`.

The numerator's ``n + 2`` rows of at most ``sum q' + 1`` terms are packed
too: row ``p`` is one integer of signed fields, wide enough for
the bound ``C(n + 1, p) 2^(n + 1 - p) <= 3^(n + 1)`` on its coefficients,
and each weight updates it with one shift and add.  At ``y = 1`` the
numerator is 1, so the rows must sum to exactly 1; otherwise
``AssertionError``.  So with ``K`` as above the totals cost
``O(n K delta' log2 _BLOCK)`` additions and the histogram that plus
``O(n^2)`` shift-adds on integers of ``sum q' + 1`` fields and
``O(n K sum q')`` multiplications, independent of ``m`` beyond ``n // 2``.
The table grows linearly with ``delta'``, and one of more than
``_MAX_CELLS`` cells, numerator rows included, raises ``ValueError`` before
it is allocated (the CLI's exit 2).  The geometric enumeration, the
full-target dynamic programming and the numerator as lists of
coefficients are test oracles.
"""

from __future__ import annotations

import sys
from math import comb, factorial, prod
from operator import mul, sub

from .linalg import _fmt_int
from .weights import WeightsVector, reduction_data

# most cells that one counting table may hold: the table grows with
# delta', so a huge lcm fails fast instead of running out of memory
_MAX_CELLS = 5 * 10 ** 7

_BLOCK = 4096       # cells in one block of a table update, few enough for the cache

# array codes of the fields read in place, where the native order is little-endian
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _reduced(q: WeightsVector) -> tuple[tuple[int, ...], int]:
    """The reduced weights and their lcm."""
    rd = reduction_data(q)
    return rd.reduced.q, rd.delta_reduced


def _check_cells(cells: int, delta: int) -> None:
    """Refuse a table of more than ``_MAX_CELLS`` cells, before allocating it."""
    if cells > _MAX_CELLS:
        raise ValueError(f"counting table of {_fmt_int(cells)} cells for delta' = "
                         f"{_fmt_int(delta)} exceeds the limit of {_MAX_CELLS}")


def _width(bound: int) -> int:
    """Bytes of a field that holds ``0..bound``: 1, 2, 4 or 8, which
    ``_FORMATS`` reads in place, or as many as it takes past 8."""
    width = (bound.bit_length() + 7) // 8
    return next(f for f in (1, 2, 4, 8, width) if f >= width)


def _count_table(weights: tuple[int, ...], size: int) -> tuple[bytearray, int]:
    """Solutions of ``sum w_j x_j = t`` for ``0 <= t < size``, packed: the
    little-endian cells of ``width`` bytes, and ``width``.  Each field holds
    a partial sum of its final count, so none carries into the next while
    ``width`` holds the largest: with ``x_0`` fixed by the others, at most
    the points ``x_1..x_k >= 0`` with ``sum w_j x_j <= size - 1``, fewer than
    their box and than the simplex of their unit cubes.

    Each weight carries the block's last ``w`` cells, its top ``gap``
    bytes, into the next block.  The block's integer stays below
    ``2^bits`` since no field carries, so one shift reads them, and only
    they are converted to bytes."""
    first, *rest = weights or (size + 1,)      # no weight: 1 at t = 0 alone
    box = prod((size - 1) // w + 1 for w in rest)
    cubes = (size - 1 + sum(rest)) ** len(rest) // (factorial(len(rest)) * prod(rest))
    width = _width(min(box, cubes))
    table = bytearray(size * width)
    table[::first * width] = b"\x01" * ((size - 1) // first + 1)     # the multiples of first
    groups = [([w for w in rest if w <= _BLOCK], _BLOCK)] + [([w], w) for w in rest if w > _BLOCK]
    for ws, span in groups:
        step, tails = span * width, [b""] * len(ws)
        for lo in range(0, len(table), step):
            bits = 8 * len(block := table[lo:lo + step])
            cells, mask = int.from_bytes(block, "little"), (1 << bits) - 1
            for j, w in enumerate(ws):
                # the block times (1 + x^w)(1 + x^2w).., plus the w final cells before it, repeated
                gap, shift = w * width, 8 * w * width
                while shift < bits:
                    cells += (cells << shift) & mask
                    shift *= 2
                if lo:
                    carry = (tails[j] * (len(block) // gap + 1))[:len(block)]
                    cells += int.from_bytes(carry, "little")
                if lo + step < len(table):
                    tails[j] = (cells >> bits - 8 * gap).to_bytes(gap, "little")
            table[lo:lo + step] = cells.to_bytes(len(block), "little")
    return table, width


def _cells(table: tuple[bytearray, int], index: slice) -> list[int]:
    """The cells of a packed table at ``index``: a C-level view for
    fields of 1, 2, 4 or 8 bytes, else one ``int.from_bytes`` a cell."""
    raw, width = table
    if width in _FORMATS:
        return memoryview(raw).cast(_FORMATS[width])[index].tolist()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(*index.indices(len(raw) // width))]


def _sums_at(table: tuple[bytearray, int], targets: range, w: int) -> list[int]:
    """``a[t] + a[t - w] + a[t - 2w] + ...`` over the cells ``a`` of ``table``
    at each of the ``targets`` (0 below zero), byte by byte: byte ``b`` of
    the cells, summed along the residue class of ``t``, weighs ``2^8b``.
    No int per cell: summing :func:`_cells` instead read 9-byte cells 2.6
    times slower and raised the peak memory by 28 % (CPython 3.11,
    ``count_points((11, 13, 14, 15, 16, 17), 2)``)."""
    raw, width = table
    return [sum(sum(raw[t % w * width + b:t * width + b + 1:w * width]) << 8 * b
                for b in range(width)) if t >= 0 else 0 for t in targets]


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
    interior = _sums_at(table, inner, last)
    sign = (-1) ** len(rest)
    return [sign * c for c in reversed(interior)] + _sums_at(table, range(0, size, delta), last)


def _numerator_width(count: int) -> int:
    """Bytes of a signed field of the face numerator over ``count``
    weights.  A ``y^p`` coefficient sums terms of ``C(count, p)`` choices
    of ``y x^w`` and ``2^(count - p)`` of ``1`` or ``-x^w``, so its absolute
    value is at most ``C(count, p) 2^(count - p) <= 3^count``; the field
    holds twice the largest such bound, which leaves the sign bit."""
    return _width(2 * max(comb(count, p) << count - p for p in range(count + 1)))


def _numerator(weights: tuple[int, ...], terms: int) -> tuple[list[int], int]:
    """The coefficients ``num[p]`` of ``y^p``, ``p = 0..len(weights)``, in
    ``prod ((1 - x^w) + y x^w)`` cut past ``x^(terms - 1)``, and the
    field width in bytes.  Row ``p`` is one integer
    ``sum_i num[p][i] 2^(F i)`` of signed fields ``F`` bits wide, which
    hold every coefficient, so a weight updates a row with one shift and
    add; a row cut to ``terms`` fields returns to the symmetric range."""
    width = _numerator_width(len(weights))
    field = 8 * width
    half, mask = 1 << field * terms - 1, (1 << field * terms) - 1
    rows, degree = [1] + [0] * len(weights), 0
    for j, w in enumerate(weights):
        if w >= terms:
            continue        # (1 - x^w) + y x^w is 1 below x^terms
        shift, degree = field * w, degree + w
        # num[p] <- num[p] (1 - x^w) + num[p - 1] x^w, from the top row down
        # so that row p - 1 still holds its value from before the weight
        for p in range(j + 1, 0, -1):
            rows[p] += (rows[p - 1] - rows[p]) << shift
        rows[0] -= rows[0] << shift
        if degree >= terms:
            rows = [((row + half) & mask) - half for row in rows]
    return rows, width


def _face_samples(weights: tuple[int, ...], delta: int,
                  k: int) -> tuple[list[list[int]], list[int]]:
    """For ``p = 1..n+1``, the solutions of ``sum w_j x_j = t`` with
    exactly ``p`` positive coordinates at ``t = delta, 2 delta, .., k delta``;
    and all the solutions at those ``t``, which the rows sum to.

    These are the coefficients of ``y^p`` in
    ``prod (1 + y x^w / (1 - x^w)) = prod ((1 - x^w) + y x^w) / prod (1 - x^w)``.
    The numerator's rows, cut past the last target, are packed integers
    (:func:`_numerator`); at ``y = 1`` the numerator is
    ``prod ((1 - x^w) + x^w) = 1``, so the rows, cut or not, must sum to
    exactly 1.  Each row is unpacked once with ``h = 2^(F - 1)`` added to
    every field; the denominator is the one counting table, and each sample
    is a row convolved with the table at one target,
    ``sum (c + h) T - h sum T``.  The totals are the table's entries there.
    """
    size = k * delta + 1
    terms = min(sum(weights) + 1, size)
    _check_cells(size + (len(weights) + 1) * terms, delta)     # table and numerator
    rows, width = _numerator(weights, terms)
    if sum(rows) != 1:
        raise AssertionError(f"face numerator fails the y = 1 check: its {len(rows)} rows "
                             f"of {terms} terms do not sum to 1 for weights {_fmt_int(weights)}")
    h = 1 << 8 * width - 1
    bias = int.from_bytes(h.to_bytes(width, "little") * terms, "little")
    num = [_cells(((row + bias).to_bytes(terms * width, "little"), width), slice(None))
           for row in rows[1:]]
    table = _count_table(tuple(sorted(weights)), size)
    out: list[list[int]] = [[] for _ in weights]
    for t in range(delta, size, delta):
        # table[t], table[t - 1], .., against num[p][0] + h, num[p][1] + h, ..
        below = _cells(table, slice(t, t - terms if t >= terms else None, -1))
        offset = h * sum(below)
        for row, samples in zip(num, out):
            samples.append(sum(map(mul, row, below)) - offset)
    return out, _cells(table, slice(delta, None, delta))


def _ehrhart(samples: list[int], x: int, weights: tuple[int, ...], delta: int,
             dim: int, total: bool = False) -> int:
    """Value at ``x`` of the polynomial of degree at most ``dim`` that
    takes ``samples[i]`` at ``start + i``, ``start = -k`` for the ``2k + 1``
    samples on ``-k..k``: the total ``L`` with ``total``, else the count
    of face dimension ``dim`` (``n`` for the interior).

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
    start = -(len(samples) // 2)
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
                                 f"{_fmt_int(lead[n])} for weights {_fmt_int(weights)}")
        if any(lead[dim + 1:]):
            raise AssertionError(f"face dimension {dim} count has nonzero differences "
                                 f"{_fmt_int(lead[dim + 1:])} above its degree for weights "
                                 f"{_fmt_int(weights)}")
        # 2 prod q' D^(n-1) f(start) = 2 (n-1)! c_(n-1) prod q' + (2 start + n - 1) n! c_n prod q'
        facets = 1 if total else -1 if dim == n else 2 if dim == n - 1 else 0
        if n and (2 * pq * lead[n - 1] != facets * delta ** (n - 1) * sum(weights)
                  + (2 * start + n - 1) * top):
            raise AssertionError(f"lattice counts fail the facet check: (n-1)-th difference "
                                 f"{_fmt_int(lead[n - 1])} for weights {_fmt_int(weights)}")
    return value


def _total(q: WeightsVector, x: int) -> int:
    """The total ``L(x)`` of the reduced ``q``, from the samples
    ``L(-k..k)`` with ``k = min(|x|, n // 2)``."""
    weights, delta = _reduced(q)
    n = len(weights) - 1
    k = min(abs(x), n // 2)
    return _ehrhart(_total_samples(weights, delta, k), x, weights, delta, n, total=True)


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
    cells, at a cost of ``O(n k delta' + n k sum q')`` plus ``O(n^2)``
    shift-adds of packed numerator rows.  The counts at each sampled
    dilate must sum to the total there.
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
    dilates = list(zip(*samples))
    if m == k:
        values = [row[-1] for row in samples]
    else:
        values = []
        for s, row in enumerate(samples):
            sign, binoms = (-1) ** s, [comb(n - t, s - t) for t in range(s + 1)]
            negative = [sign * sum(map(mul, binoms, counts)) for counts in dilates]
            full = negative[::-1] + [sign * comb(n + 1, s + 1)] + row
            values.append(_ehrhart(full, m, weights, delta, s))
    # for m <= k the samples are the answer, and for odd n the checks above
    # see only the part of H_n that the lower faces fix: the counts at each
    # sampled dilate must sum to the table's total there
    sums = list(map(sum, dilates))
    if sums != totals:
        raise AssertionError(f"face counts fail the sum check: {_fmt_int(sums)} at dilates "
                             f"1..{k} against the totals {_fmt_int(totals)} for weights "
                             f"{_fmt_int(weights)}")
    return {s: value for s, value in enumerate(values) if value}
