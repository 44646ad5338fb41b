"""Regenerate ``golden.json``, the expected lattice counts of the weight pools.

Run from the repository root::

    python3 perfbench/make_golden.py

For every pool entry it counts face-graded solutions at ``m = 1..n+2``
with :func:`reference.face_counts` (a subset-by-subset table, a
different route from the library's bivariate table), stores
``m = 1..n+1`` and checks that the stored polynomials reproduce
``m = n+2``.  It then cross-validates against the independent oracles
of the test suite: ``simplex_census`` (geometric enumeration of the
polytope from :func:`reference.polytope_matrix`) wherever the dilate is
small enough to enumerate, and Bott's formula for all-ones weights.
It exits non-zero on any disagreement and never imports the counting
code under test.
"""

from __future__ import annotations

import json
import random
import sys
from math import gcd, lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import reference as R                                  # noqa: E402
from oracles import simplex_census                     # noqa: E402
from wps.linalg import IntMatrix                       # noqa: E402  (container only)

# (lcm, n) groups of each pool.  The counting cost of an op depends on
# n and the target m * lcm, not on which weights of a group it gets, so
# a workload fixes the groups and lets the seed pick within each.
LATTICE_GROUPS = ((30, 2), (60, 3), (120, 4), (180, 2), (840, 3), (840, 5), (2520, 4),
                  (10080, 3), (27720, 2), (55440, 3), (110880, 2), (120120, 3))
HODGE_GROUPS = ((6, 2), (12, 3), (30, 4), (60, 5), (84, 6), (120, 7), (180, 2), (210, 3),
                (240, 4), (300, 5))
PER_GROUP = 3
CENSUS_LIMIT = 20_000


def divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def pool_weights(rng, lcm_target: int, n: int) -> list[tuple[int, ...]]:
    """Up to ``PER_GROUP`` distinct reduced vectors with the given lcm."""
    ds = divisors(lcm_target)
    found = {}
    for _ in range(200_000):
        q = tuple(sorted(rng.choice(ds) for _ in range(n + 1)))
        if gcd(*q) == 1 and lcm(*q) == lcm_target and R.reduce_weights(q) == q:
            found[q] = None
            if len(found) == PER_GROUP:
                break
    return list(found)


def entry(q: tuple[int, ...]) -> dict:
    n, delta = len(q) - 1, lcm(*q)
    hists = R.face_counts(q, [m * delta for m in range(1, n + 3)])
    values = {s: [h.get(s, 0) for h in hists[:n + 1]] for s in range(n + 1)}
    table = R.EhrhartTable(q, values)
    if table.histogram(n + 2) != hists[n + 1]:
        raise SystemExit(f"{q}: counts are not polynomial of degree <= n in m")
    w = IntMatrix.from_rows(R.polytope_matrix(q))
    for m in range(1, n + 2):
        if table.count(m) > CENSUS_LIMIT:
            break
        total, interior, hist = simplex_census(w, m)
        if (total, interior, hist) != (table.count(m), table.interior(m), table.histogram(m)):
            raise SystemExit(f"{q}, m={m}: census {hist} != {table.histogram(m)}")
    if set(q) == {1}:
        for p in range(n + 1):
            for qq in range(n + 1):
                for m in range(-n - 3, n + 4):
                    h = R.hodge_from_histograms(n, p, qq, m, table.histogram)
                    if h != R.bott(n, p, qq, m):
                        raise SystemExit(f"{q}: Bott disagrees at p={p} q={qq} m={m}")
    return {"q": list(q), "values": {str(s): v for s, v in values.items()}}


def main() -> int:
    rng = random.Random(20111201)
    lattice = [q for target, n in LATTICE_GROUPS for q in pool_weights(rng, target, n)]
    hodge = [(1,) * (n + 1) for n in range(2, 8)]
    hodge += [q for target, n in HODGE_GROUPS for q in pool_weights(rng, target, n)]
    pools = {}
    for name, qs in (("lattice", lattice), ("hodge", hodge)):
        pools[name] = []
        for q in dict.fromkeys(qs):
            pools[name].append(entry(q))
            print(f"{name} {q} delta={lcm(*q)} ok", file=sys.stderr, flush=True)
    out = {"about": "face-graded lattice counts h_s(m), m = 1..n+1, per weights "
                    "vector; written by make_golden.py", "pools": pools}
    (HERE / "golden.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
