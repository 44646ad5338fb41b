"""Benchmark of the ``wps`` library and CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload toric-roundtrip --seed 1 --seconds 10 --trace 0

Workloads: ``toric-roundtrip``, ``lattice-count``, ``hodge-table`` and
``cli-mix`` (see ``BENCHMARK.json`` for why each exists).  Each run is
one closed-loop client in one fresh worker process that imports ``wps``
from ``src/``.  With ``--trace 0`` it prints the end-to-end metrics
(``ops_per_s``, ``latency_ms_p50``, ``latency_ms_p90``, ``ok_ratio``,
``setup_s``, ``peak_rss_mib``); set-up is timed over several fresh
workers and reported as the median.  Times are scaled to the speed of
a reference host by a calibration kernel (see ``calibration.py``).  With ``--trace 1`` it prints the
per-layer metrics of ``spans.LAYER_METRICS`` and writes the spans to
``.bench_build/perfbench/``.  Every op's outcome is checked; the last
line of standard output is the JSON result, and the lines before it are
one record per op with its size counters.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toric-roundtrip", "lattice-count", "hodge-table", "cli-mix")
SETUPS = 7              # fresh workers timed per untraced run; setup_s is their median
DEADLINE_S = 170        # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def start_worker(args, workdir: Path, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def run_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start one worker; returns (set-up seconds at reference speed, RESULT
    payload or None)."""
    start = time.perf_counter()
    proc = start_worker(args, workdir, setup_only)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != "READY":
            raise WorkerError(f"worker did not get ready: {first!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    if setup_only:
        cal = [ln for ln in out.splitlines() if ln.startswith("CAL ")]
        if not cal:
            raise WorkerError("worker printed no calibration")
        return setup / float(cal[-1][len("CAL "):]), None
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    return setup / result["calibration_factor"], result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wps" / "__init__.py").is_file():
        print(f"run.py: no wps package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUPS - 1):
                setup, _ = run_worker(args, workdir / f"setup{k}", True, deadline)
                setups.append(setup)
        setup, result = run_worker(args, workdir / "run", False, deadline)
        setups.append(setup)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for i, record in enumerate(result["records"]):
        print(json.dumps({"op": i, **record}))
    limit_failed = sum(1 for r in result["records"] if r.get("over_limit") and not r["ok"])
    print(f"run.py: {result['attempted']} ops, {result['failed']} failed "
          f"({result['wrong']} wrong answers, {result['digit_limit_failures']} stopped on the "
          f"int/str digit limit; {result['limit_requests']} requests need more than 4300 "
          f"digits, {limit_failed} of them failed)", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
