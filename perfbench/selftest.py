"""Self-test of the benchmark's generators and checkers.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* a deliberately wrong expected value shows up as a failed op, on every
  workload;
* two processes with different hash seeds generate byte-identical
  inputs from one seed;
* the benchmark's own references agree with the test suite's oracles
  (``canonical_fan_diophantine``, ``simplex_census``, Bott's formula);
* the CLI runs under the default int/str digit limit and the checker
  leaves it in place;
* traced self times add up to each op's traced duration, and the traced
  run reports every per-layer metric.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import reference as R                                   # noqa: E402
import worker                                           # noqa: E402
from run import WORKLOADS                               # noqa: E402
from spans import LAYER_METRICS, Tracer                 # noqa: E402



def plain(obj):
    """Library inputs as plain JSON data, for fingerprinting."""
    for attr in ("q", "entries", "vertices"):
        if hasattr(obj, attr) and not isinstance(obj, (tuple, list)):
            return plain(getattr(obj, attr))
    if isinstance(obj, (tuple, list)):
        return [plain(x) for x in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return hex(obj)
    return obj


def fingerprint(name: str, seed: int, workdir: Path) -> str:
    lib = worker.load_library()
    wl = worker.Workload(name, seed, lib, workdir)
    digest = hashlib.sha256()
    for index in ("warm-up", 0, 1, 2):
        for op in wl.block(index, small=index == "warm-up"):
            digest.update(json.dumps([op.kind, plain(op.args), op.size]).encode())
    for path in sorted(workdir.glob("*.json")) if workdir.exists() else ():
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def corrupt(op):
    """A copy of ``op`` whose expected value is wrong."""
    bad = copy.copy(op)
    e = op.expect
    if op.kind == "fan" or op.kind == "recognize-fan":
        bad.expect = (e[0] + 1,) + tuple(e[1:])
    elif op.kind == "recognize-polytope":
        bad.expect = (e[0], e[1] + 1)
    elif op.kind in ("count_points", "count_interior", "hodge"):
        bad.expect = e + 1
    elif op.kind == "face_histogram":
        bad.expect = {**e, 0: e.get(0, 0) + 1}
    elif op.kind == "hodge_table":
        key = next(iter(e[1]))
        bad.expect = (e[0], {**e[1], key: e[1][key] + 1})
    elif op.kind in ("divisor_info", "rational_homology"):
        bad.expect = tuple(e) + (1,)          # one weight too many
    else:                               # cli: break the expected payload
        bad.expect = copy.copy(e)
        bad.expect.code = e.code + 5
    return bad


def check_wrong_expectations(lib, workdir: Path) -> None:
    for name in WORKLOADS:
        wl = worker.Workload(name, 11, lib, workdir / name)
        ops = wl.block("warm-up", small=True)
        good = worker.Tally()
        worker.execute(wl, ops, good)
        assert good.failed == good.limit, f"{name}: clean block failed {good.errors}"
        for op in ops:
            if op.kind.startswith("reject-") or getattr(op.expect, "over_limit", False):
                continue
            tally = worker.Tally()
            worker.execute(wl, [corrupt(op)], tally)
            assert (tally.failed, tally.wrong) == (1, 1), f"{name}/{op.kind}: not caught"
        print(f"PASS wrong expected values fail ({name})")


def check_identical_inputs() -> None:
    for name in WORKLOADS:
        prints = set()
        # one path for both runs: the CLI's argv names its input files
        workdir = ROOT / ".bench_build" / "selftest-inputs"
        for hash_seed in ("1", "2"):
            try:
                out = subprocess.run(
                    [sys.executable, __file__, "--fingerprint", name, "5", str(workdir)],
                    capture_output=True, text=True, check=True,
                    env={**os.environ, "PYTHONHASHSEED": hash_seed})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            prints.add(out.stdout.strip())
        assert len(prints) == 1, f"{name}: inputs differ between runs"
        print(f"PASS one seed, identical inputs ({name})")


def check_oracles(golden) -> None:
    from oracles import canonical_fan_diophantine, simplex_census
    from wps.linalg import IntMatrix
    import workloads as W
    rng = random.Random(3)
    for n, bits in W.FRONTIER:
        q = W.frontier_weights(rng, n, bits)
        assert [list(r) for r in canonical_fan_diophantine(q).entries] == R.canonical_fan(q)
    print("PASS reference canonical fans match canonical_fan_diophantine")
    checked = 0
    for pool in golden.groups.values():
        for tables in pool.values():
            for t in tables:
                if t.count(1) > 3000:
                    continue
                w = IntMatrix.from_rows(R.polytope_matrix(t.q))
                for m in (1, 2):
                    assert simplex_census(w, m) == (t.count(m), t.interior(m), t.histogram(m))
                checked += 1
                if set(t.q) == {1}:
                    n = t.n
                    for p in range(n + 1):
                        for qq in range(n + 1):
                            for m in range(-n - 2, n + 3):
                                assert (R.hodge_from_histograms(n, p, qq, m, t.histogram)
                                        == R.bott(n, p, qq, m))
    print(f"PASS golden counts match simplex_census ({checked} weight vectors) and Bott")


def check_digit_limit(lib, workdir: Path) -> None:
    default = sys.int_info.default_max_str_digits
    wl = worker.Workload("cli-mix", 3, lib, workdir / "limit")
    ops = [op for op in wl.block(0) if op.expect.over_limit]
    assert ops, "cli-mix has no request above the digit limit"
    tally = worker.Tally()
    worker.execute(wl, ops, tally)
    assert sys.get_int_max_str_digits() == default, "the digit limit was left lifted"
    print(f"PASS cli-mix runs under the default digit limit "
          f"({tally.limit} of {len(ops)} over-limit requests stopped on it)")


def check_tracing(lib, workdir: Path) -> None:
    for name in WORKLOADS:
        wl = worker.Workload(name, 13, lib, workdir / f"trace-{name}")
        ops = wl.block("warm-up", small=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = worker.Tally()
            worker.execute(wl, ops, traced, tracer)
        finally:
            tracer.uninstall()
        own = tracer.self_times()
        assert tracer.check_accounting(own) == 0, f"{name}: self times do not add up"
        roots = sum(1 for span in tracer.spans if span[3] < 0)
        assert roots == len(ops), f"{name}: {roots} root spans for {len(ops)} ops"
        metrics = tracer.layer_metrics(len(ops), traced.stdout_bytes, 1.0, 1.0)
        assert list(metrics) == [m["name"] for m in LAYER_METRICS]
        assert not hasattr(lib.fan.canonical_fan, "__wrapped__"), "wrappers left installed"
        print(f"PASS traced self times account for every op ({name})")


def main() -> int:
    if sys.argv[1:2] == ["--fingerprint"]:
        name, seed, workdir = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        print(fingerprint(name, seed, workdir))
        return 0
    lib = worker.load_library()
    import workloads as W
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        check_wrong_expectations(lib, workdir)
        check_identical_inputs()
        check_oracles(W.Golden())
        check_digit_limit(lib, workdir)
        check_tracing(lib, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
