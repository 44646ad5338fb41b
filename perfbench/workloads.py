"""Op generators and checkers for the library workloads.

A workload is a stream of blocks.  Block ``i`` of seed ``s`` is drawn
from its own ``random.Random`` stream, so the same seed always yields
the same inputs, and no input repeats within a run (a cache keyed on
inputs gets no hits).  A block is a fixed grid of op kinds and sizes
(dimension, bit-length, lcm, target); the seed draws the weights, maps
and presentations within each cell, so the cost of a block varies
little from seed to seed.  Block sizes (55, 45, 25 and 35 ops) are odd
with ``0.9 * size`` half-integral: the pooled median and 90th
percentile of a run then fall in the middle of an op class, not on the
boundary between two classes, where a gap in cost would make them jump.

Every op carries the library objects it will be called with, its
expected outcome and its size counters.
Expected outcomes come from the construction (weights, polarization,
rejection code), from :mod:`reference`, or from the golden file; never
from ``wps``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

import reference as R

GOLDEN = Path(__file__).with_name("golden.json")


@dataclass
class Op:
    kind: str
    args: tuple                 # library objects the op is called with
    expect: object              # expected outcome, as the checker reads it
    size: dict                  # n, delta, target, bits (see size_of)


def size_of(q, target=0, bits=None) -> dict:
    """Size counters of an op on reduced weights ``q``: dimension, lcm
    (``None`` past 62 bits), its bit-length, counting target and the
    largest entry bit-length of the inputs."""
    delta = lcm(*q)
    return {"n": len(q) - 1,
            "delta": delta if delta.bit_length() <= 62 else None,
            "delta_bits": delta.bit_length(),
            "target": target,
            "bits": R.max_bits(q) if bits is None else bits}


# ---------------------------------------------------------------------------
# toric-roundtrip

# (n, weight bits) points on the frontier from n=2 at 4096 bits to n=24
# at 5 bits.  Off it single ops explode: recognition is quartic in n
# and roughly quadratic in the entry size.  The points are fixed and the
# seed draws the weights, so a block costs about the same on every seed.
FRONTIER = ((2, 4096), (3, 2048), (4, 1024), (5, 512), (6, 256), (7, 128), (8, 96),
            (10, 64), (12, 32), (14, 16), (16, 8), (24, 5))
REJECTIONS = ("reject-row", "reject-column", "reject-flat")


def frontier_weights(rng, n: int, bits: int) -> tuple[int, ...]:
    """Reduced weights: ``n+1`` random ``bits``-bit integers, reduced."""
    while True:
        q = tuple(rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(n + 1))
        if math.gcd(*q) == 1:
            return R.reduce_weights(q)


def fan_input(rng, q):
    """A unimodular image of a fan of ``q`` with columns relabelled."""
    v = R.gcd_fan(q)
    u = R.random_unimodular(rng, len(v), ops=len(v) + 2)
    rows, sigma = [], list(range(len(q)))
    rng.shuffle(sigma)
    for r in R.matmul(u, v):
        rows.append([r[s] for s in sigma])
    return rows, tuple(q[s] for s in sigma)


def simplex_input(rng, q, m: int):
    """Vertices of the ``m``-th polytope of reduced ``q`` after a
    unimodular map, a translation and a vertex relabelling, with the
    weights in the relabelled order."""
    n = len(q) - 1
    w = R.polytope_matrix(q)
    u = R.random_unimodular(rng, n, ops=n + 2)
    uw = R.matmul(u, w)
    shift = [rng.randint(-1000, 1000) for _ in range(n)]
    verts = [tuple(shift)] + [tuple(m * uw[i][k] + shift[i] for i in range(n))
                              for k in range(n)]
    sigma = list(range(n + 1))
    rng.shuffle(sigma)
    return tuple(verts[s] for s in sigma), tuple(q[s] for s in sigma)


def flatten_simplex(rng, verts):
    """Replace one vertex by an affine combination of two others."""
    verts = list(verts)
    k = rng.randrange(len(verts))
    a, b = rng.sample([i for i in range(len(verts)) if i != k], 2)
    verts[k] = tuple(2 * x - y for x, y in zip(verts[a], verts[b]))
    return tuple(verts)


def toric_block(lib, rng, small: bool = False) -> list[Op]:
    """Each accepting op once per frontier point, plus nine rejections
    (a sixth of the block) spread over the frontier.  Ten more ops of
    middling cost (fans at n = 5..16, fan recognitions at n = 14 and 16)
    thicken the latency distribution where its median falls, so the
    median moves less with the draw of weights."""
    IntMatrix, WeightsVector = lib.linalg.IntMatrix, lib.weights.WeightsVector
    points = FRONTIER[3:4] if small else FRONTIER
    fans = points if small else points + FRONTIER[3:11]
    recognitions = points if small else points + FRONTIER[9:11]
    ops = []
    for n, bits in fans:
        q = frontier_weights(rng, n, bits)
        ops.append(Op("fan", (WeightsVector(q),), q, size_of(q)))
    for n, bits in points:
        m = rng.randint(1, 3)
        verts, qs = simplex_input(rng, frontier_weights(rng, n, bits), m)
        ops.append(Op("recognize-polytope", (lib.polytope.LatticeSimplex(vertices=verts),),
                      (qs, m), size_of(qs, bits=R.max_bits(verts))))
    for n, bits in recognitions:
        rows, qs = fan_input(rng, frontier_weights(rng, n, bits))
        ops.append(Op("recognize-fan", (IntMatrix.from_rows(rows),), qs,
                      size_of(qs, bits=R.max_bits(rows))))
    for k in range(3 if small else 9):
        kind = REJECTIONS[k % 3]
        n, bits = points[(5 * k + 1) % len(points)]
        q = frontier_weights(rng, n, bits)
        if kind == "reject-flat":
            verts = flatten_simplex(rng, simplex_input(rng, q, 1)[0])
            ops.append(Op(kind, (lib.polytope.LatticeSimplex(vertices=verts),),
                          "degenerate", size_of(q, bits=R.max_bits(verts))))
            continue
        rows, _ = fan_input(rng, q)
        if kind == "reject-row":
            i = rng.randrange(len(rows))
            rows[i] = [2 * x for x in rows[i]]
            code = "non-coprime-minors"
        else:
            j = rng.randrange(len(rows[0]))
            for r in rows:
                r[j] = -r[j]
            code = "nonzero-weighted-sum"
        ops.append(Op(kind, (IntMatrix.from_rows(rows),), code,
                      size_of(q, bits=R.max_bits(rows))))
    rng.shuffle(ops)
    return ops


def toric_call(lib, op: Op):
    if op.kind == "fan":
        fan = lib.fan.canonical_fan(*op.args)
        return fan, lib.polytope.weighted_transverse(fan)
    if op.kind in ("recognize-polytope", "reject-flat"):
        return lib.polytope.recognize_polytope(*op.args)
    return lib.fan.recognize_fan(*op.args)


def toric_check(op: Op, value) -> bool:
    if op.kind.startswith("reject-"):
        return False            # a rejection that returned is wrong
    if op.kind == "fan":
        fan, w = value
        q = op.expect
        v = [list(r) for r in fan.v.entries]
        return (fan.weights.q == q and v == R.canonical_fan(q)
                and R.transverse_ok([list(r) for r in w.entries], v, q))
    if op.kind == "recognize-polytope":
        (pol, fan), (qs, m) = value, op.expect
        return (pol.weights.q == qs and pol.polarization == m
                and fan.weights.q == qs and R.fan_weights_ok(fan.v.entries, qs))
    return value.weights.q == op.expect and value.v == op.args[0]


def rejection_ok(op: Op, exc: BaseException) -> bool:
    return op.kind.startswith("reject-") and getattr(exc, "code", None) == op.expect


# ---------------------------------------------------------------------------
# golden lattice counts


class Golden:
    """Face-graded Ehrhart data of the weight pools, grouped by (lcm, n)."""

    def __init__(self, path: Path = GOLDEN):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.groups: dict[str, dict[tuple[int, int], list[R.EhrhartTable]]] = {}
        for name, entries in raw["pools"].items():
            groups = self.groups[name] = {}
            for e in entries:
                t = R.EhrhartTable(tuple(e["q"]), {int(s): v for s, v in e["values"].items()})
                groups.setdefault((t.delta, t.n), []).append(t)

    def pick(self, rng, pool: str, group: tuple[int, int]) -> R.EhrhartTable:
        return rng.choice(self.groups[pool][group])


def presented(rng, q):
    """A seed-chosen presentation of reduced ``q``: permuted, and half
    the time not reduced."""
    qs = list(q)
    rng.shuffle(qs)
    return R.unreduce(rng, tuple(qs)) if rng.random() < 0.5 else tuple(qs)


# ---------------------------------------------------------------------------
# lattice-count

COUNT_TARGETS = (30, 300_000)
HISTOGRAM_TARGETS = (30, 20_000)
LATTICE_STRATA = 15


def lattice_grid(groups, lo: int, hi: int) -> list[tuple[tuple[int, int], int]]:
    """``(group, m)`` per stratum: targets ``m * lcm`` spread log-uniformly
    over ``[lo, hi]``.  Stratum ``k`` takes the group whose lcm is nearest
    ``target ** a_k``, with ``a_k`` cycling from 1 down to 0.4 (1 at the
    top target), so both the lcm ladder and ``m`` vary along the targets."""
    grid = []
    for k in range(LATTICE_STRATA):
        target = lo * (hi / lo) ** (k / (LATTICE_STRATA - 1))
        aim = math.log(target) * (1.0, 0.8, 0.6, 0.4)[(LATTICE_STRATA - 1 - k) % 4]
        group = min((g for g in groups if g[0] <= target),
                    key=lambda g: (abs(math.log(g[0]) - aim), g))
        grid.append((group, max(1, round(target / group[0]))))
    return grid


def lattice_block(lib, rng, golden: Golden, small: bool = False) -> list[Op]:
    """Each counting kind at fifteen targets spread log-uniformly."""
    WeightsVector = lib.weights.WeightsVector
    groups = golden.groups["lattice"]
    ops = []
    for kind, (lo, hi) in (("count_points", COUNT_TARGETS),
                           ("count_interior", COUNT_TARGETS),
                           ("face_histogram", HISTOGRAM_TARGETS)):
        grid = lattice_grid(groups, lo, hi)
        for group, m in grid[:3] if small else grid:
            table = golden.pick(rng, "lattice", group)
            q_in = presented(rng, table.q)
            expect = {"count_points": table.count, "count_interior": table.interior,
                      "face_histogram": table.histogram}[kind](m)
            ops.append(Op(kind, (WeightsVector(q_in), m), expect,
                          size_of(table.q, target=m * table.delta, bits=R.max_bits(q_in))))
    rng.shuffle(ops)
    return ops


def lattice_call(lib, op: Op):
    return getattr(lib.lattice, op.kind)(*op.args)


# ---------------------------------------------------------------------------
# hodge-table

# (lcm, n) group and twist range of each table, chosen so the seed's
# per-cell evaluation spends from about 1 ms (all-ones weights) to about
# 120 ms (lcm 300, n = 5) per table
TABLES = (((1, 7), -8, 8), ((1, 4), -12, 12), ((12, 3), -6, 6), ((6, 2), -12, 12),
          ((180, 2), -3, 3), ((30, 4), -4, 4), ((84, 6), -3, 2), ((240, 4), -2, 2),
          ((120, 7), -1, 1), ((300, 5), -2, 2))
# (group, p, q, m) of the single cells: targets |m| * lcm graded so the
# cells' costs spread evenly from about 0.2 ms to 4 ms
CELLS = (((1, 6), 2, 6, -9), ((6, 2), 1, 0, 14), ((12, 3), 0, 0, 8), ((30, 4), 2, 4, -4),
         ((60, 5), 1, 0, 2), ((84, 6), 3, 0, 1), ((240, 4), 4, 0, 1), ((210, 3), 1, 3, -2),
         ((120, 7), 2, 0, 1), ((180, 2), 2, 2, -5), ((300, 5), 1, 0, 1))
DIVISOR_GROUPS = ((300, 5), (1, 3))
HOMOLOGY_GROUPS = ((84, 6), (12, 3))


def expected_cell(t: R.EhrhartTable):
    """``(p, q, m) -> h`` for the pool entry: Bott's formula for all-ones
    weights, the golden histograms otherwise."""
    if set(t.q) == {1}:
        return lambda p, qq, m: R.bott(t.n, p, qq, m)
    return lambda p, qq, m: R.hodge_from_histograms(t.n, p, qq, m, t.histogram)


def hodge_block(lib, rng, golden: Golden, small: bool = False) -> list[Op]:
    """Ten tables, eleven single cells, two divisor and two homology ops."""
    WeightsVector = lib.weights.WeightsVector
    ops = []
    for group, lo, hi in TABLES[:2] if small else TABLES:
        t = golden.pick(rng, "hodge", group)
        q_in = presented(rng, t.q)
        cell = expected_cell(t)
        expect = {(p, qq, m): cell(p, qq, m)
                  for m in range(lo, hi + 1) for p in range(t.n + 1) for qq in range(t.n + 1)}
        ops.append(Op("hodge_table", (WeightsVector(q_in), (lo, hi)), (t.n, expect),
                      size_of(t.q, target=max(-lo, hi) * t.delta, bits=R.max_bits(q_in))))
    for group, p, qq, m in CELLS:
        t = golden.pick(rng, "hodge", group)
        q_in = presented(rng, t.q)
        ops.append(Op("hodge", (WeightsVector(q_in), p, qq, m), expected_cell(t)(p, qq, m),
                      size_of(t.q, target=abs(m) * t.delta, bits=R.max_bits(q_in))))
    for kind, groups in (("divisor_info", DIVISOR_GROUPS),
                         ("rational_homology", HOMOLOGY_GROUPS)):
        for group in groups:
            t = golden.pick(rng, "hodge", group)
            q_in = presented(rng, t.q)
            ops.append(Op(kind, (WeightsVector(q_in),), R.reduce_weights(q_in),
                          size_of(t.q, bits=R.max_bits(q_in))))
    rng.shuffle(ops)
    return ops


def hodge_call(lib, op: Op):
    return getattr(lib.cohomology, op.kind)(*op.args)


def divisor_expect(red) -> dict:
    delta, total = lcm(*red), sum(red)
    return {"picard_index": delta, "canonical_degree": Fraction(-total, delta),
            "gorenstein": total % delta == 0}


def counting_check(op: Op, value) -> bool:
    if op.kind == "hodge_table":
        n, entries = op.expect
        return value.n == n and value.entries == entries
    if op.kind == "divisor_info":
        red = op.expect
        exp = divisor_expect(red)
        b = value.chow_generator
        return (len(b) == len(red) and sum(x * y for x, y in zip(b, red)) == 1
                and value.picard_index == exp["picard_index"]
                and value.canonical_degree == exp["canonical_degree"]
                and value.gorenstein == exp["gorenstein"] == value.fano)
    if op.kind == "rational_homology":
        n = len(op.expect) - 1
        return value == tuple(int(i % 2 == 0) for i in range(2 * n + 1))
    return value == op.expect
