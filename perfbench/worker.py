"""One benchmark process: set up a workload, then run it closed-loop.

Started by ``run.py``, never by hand.  The worker imports ``wps`` from
``src/`` of the checkout it lives in, generates its inputs from the
seed, warms up, and prints ``READY``; the parent times that as set-up.
With ``--setup-only`` it then prints its calibration factor and stops.
Otherwise it runs whole blocks of ops, one at a time, between
calibration samples, until ``--seconds`` have passed, checks every
op's outcome, and prints one ``RESULT`` line of JSON.  With ``--trace``
it runs every block twice, untraced and then traced, and reports
per-layer numbers from the traced runs and the ratio of the two times.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calibration import REFERENCE_MS, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("linalg", "weights", "fan", "polytope", "lattice", "cohomology", "cli")


def load_library() -> SimpleNamespace:
    """Import ``wps`` from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "wps" / "__init__.py").is_file():
        raise SystemExit(f"worker: no wps package under {src}")
    sys.path.insert(0, str(src))
    import importlib
    lib = SimpleNamespace(**{m: importlib.import_module(f"wps.{m}") for m in MODULES})
    if Path(lib.linalg.__file__).resolve().parent != (src / "wps").resolve():
        raise SystemExit(f"worker: wps imported from {lib.linalg.__file__}, not {src}")
    return lib


class Workload:
    """Block generator, op call and outcome checks of one workload."""

    def __init__(self, name: str, seed: int, lib, workdir: Path):
        import climix
        import workloads as W
        self.name, self.seed, self.lib = name, seed, lib
        self.rejection_ok = lambda op, exc: False
        self.limit_failure = lambda value: False
        self.output_bytes = lambda value: 0
        if name == "toric-roundtrip":
            self._block = lambda rng, i, small: W.toric_block(lib, rng, small)
            self.call, self.check = W.toric_call, W.toric_check
            self.rejection_ok = W.rejection_ok
            return
        golden = W.Golden()
        if name == "lattice-count":
            self._block = lambda rng, i, small: W.lattice_block(lib, rng, golden, small)
            self.call, self.check = W.lattice_call, W.counting_check
        elif name == "hodge-table":
            self._block = lambda rng, i, small: W.hodge_block(lib, rng, golden, small)
            self.call, self.check = W.hodge_call, W.counting_check
        else:
            workdir.mkdir(parents=True, exist_ok=True)
            self._block = lambda rng, i, small: climix.cli_block(lib, rng, golden, workdir,
                                                                 i, small)
            self.call, self.check = climix.cli_call, climix.cli_check
            self.limit_failure = climix.digit_limit_failure
            self.output_bytes = lambda value: len(value[1].encode())

    def block(self, index, small: bool = False):
        """Block ``index`` of this seed; ``small`` gives a cheap warm-up block."""
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return self._block(rng, index, small)


class Tally:
    """Outcome counts and per-op records of a run."""

    def __init__(self):
        self.latencies: list[int] = []
        self.factors: list[float] = []      # each op's block calibration factor
        self.records: list[dict] = []
        self.attempted = self.failed = self.wrong = self.limit = self.stdout_bytes = 0
        self.errors: dict[str, int] = {}

    def add(self, workload: Workload, op, ns: int, value, exc) -> None:
        self.attempted += 1
        self.latencies.append(ns)
        if exc is not None:
            ok = workload.rejection_ok(op, exc)
            if not ok:
                key = f"{op.kind}: {type(exc).__name__}: {str(exc)[:120]}"
                self.errors[key] = self.errors.get(key, 0) + 1
                # a rejection with the wrong code is a wrong answer
                self.wrong += getattr(exc, "code", None) is not None
        else:
            self.stdout_bytes += workload.output_bytes(value)
            ok = workload.check(op, value)
            if not ok and workload.limit_failure(value):
                self.limit += 1
            elif not ok:
                self.wrong += 1
                key = f"{op.kind}: wrong answer"
                self.errors[key] = self.errors.get(key, 0) + 1
        self.failed += not ok
        self.records.append({"kind": op.kind, **op.size, "ms": ns / 1e6, "ok": ok})


def execute(workload: Workload, ops, tally: Tally, tracer=None, first_id: int = 0) -> int:
    """Run ops closed-loop; returns the summed op time in ns."""
    busy = 0
    for k, op in enumerate(ops):
        value = exc = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                value = workload.call(workload.lib, op)
            else:
                value = tracer.run_op(first_id + k, lambda: workload.call(workload.lib, op))
        except Exception as err:        # counted as a failed op, never raised
            exc = err
        ns = time.perf_counter_ns() - start
        busy += ns
        tally.add(workload, op, ns, value, exc)
    return busy


def end_to_end(tally: Tally, block_rates: list[float]) -> dict:
    """Throughput is the median over blocks (all blocks have the same
    composition), so a burst of load from outside the run moves it
    little; the latency percentiles pool every op of the run.  Times
    are at reference speed (see :mod:`calibration`)."""
    lat_ms = [ns / 1e6 / f for ns, f in zip(tally.latencies, tally.factors)]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ops_per_s": {"value": statistics.median(block_rates), "unit": "1/s"},
            "latency_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_ms_p90": {"value": p90, "unit": "ms"},
            "ok_ratio": {"value": (tally.attempted - tally.failed) / tally.attempted,
                         "unit": "ratio"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the library runs under the interpreter's default int/str digit limit
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    sys.path.insert(0, str(HERE))
    lib = load_library()
    workload = Workload(args.workload, args.seed, lib, args.workdir)
    first = workload.block(0)
    execute(workload, workload.block("warm-up", small=True), Tally())
    print("READY", flush=True)
    cal = Calibration()
    cal.sample()
    if args.setup_only:
        cal.sample()
        cal.sample()
        print(f"CAL {cal.factor()}", flush=True)
        return 0

    tally, traced = Tally(), Tally()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    busy = {False: 0, True: 0}
    block_rates, raw_rates = [], []
    started = time.perf_counter()
    index, ops, next_id = 0, first, 0
    while True:
        ns = execute(workload, ops, tally)
        busy[False] += ns
        # the block ran between two samples: use their mean
        factor = (cal.samples[-1] / REFERENCE_MS + cal.sample()) / 2
        tally.factors += [factor] * len(ops)
        raw_rates.append(len(ops) / (ns / 1e9))
        block_rates.append(raw_rates[-1] * factor)
        if tracer is not None:
            # the same ops again, traced: the ratio of the two is the overhead
            tracer.install()
            try:
                busy[True] += execute(workload, ops, traced, tracer, next_id)
            finally:
                tracer.uninstall()
            next_id += len(ops)
        index += 1
        if time.perf_counter() - started >= args.seconds:
            break
        ops = workload.block(index)

    both = Tally()
    for t in (tally, traced):
        both.attempted += t.attempted
        both.failed += t.failed
        both.wrong += t.wrong
        both.limit += t.limit
        for k, v in t.errors.items():
            both.errors[k] = both.errors.get(k, 0) + v
    for key, count in sorted(both.errors.items()):
        print(f"worker: {count} x {key}", file=sys.stderr)
    if both.limit:
        print(f"worker: {both.limit} requests stopped on the int/str digit limit",
              file=sys.stderr)
    factor = cal.factor()
    print(f"worker: calibration {cal.median_ms():.2f} ms over {len(cal.samples)} samples, "
          f"factor {factor:.4f}; raw ops_per_s {statistics.median(raw_rates):.4f}",
          file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(tally, block_rates)
    else:
        own = tracer.self_times()
        bad = tracer.check_accounting(own)
        if bad:
            print(f"worker: self times do not add up for {bad} ops", file=sys.stderr)
            return 3
        overhead = (busy[True] / traced.attempted) / (busy[False] / tally.attempted)
        metrics = tracer.layer_metrics(traced.attempted, traced.stdout_bytes, overhead, factor)
        spans = ROOT / ".bench_build" / "perfbench"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"spans-{args.workload}-seed{args.seed}.jsonl")
    limit_requests = sum(1 for r in tally.records + traced.records if r.get("over_limit"))
    result = {"correct": both.wrong == 0, "attempted": both.attempted, "failed": both.failed,
              "wrong": both.wrong, "digit_limit_failures": both.limit,
              "metrics": metrics, "records": tally.records + traced.records,
              "limit_requests": limit_requests, "calibration_factor": factor}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
