"""Spans around calls into ``wps``, recorded from outside the library.

:class:`Tracer` replaces each public function of every ``wps`` module,
in every ``wps`` module namespace that binds it, plus ``IntMatrix.det``
and ``IntMatrix.__matmul__``, with a wrapper that records a span
``(name, start_ns, end_ns, parent, op_id)``.  Spans stay in memory and
are written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children; the root span
of each op is the benchmark's own call, so per op the self times add up
to the op's traced duration exactly.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end
metric it should move, the workload it should move it on, and the
prediction for the other workloads (unchanged).
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from math import lcm
from time import perf_counter_ns

import reference as R

LAYERS = ("linalg", "weights", "fan", "polytope", "lattice", "cohomology", "cli")
LINALG = ("det", "adjoint", "hnf", "max_minors", "what_matrix", "matmul")
COUNTERS = ("count_points", "count_interior", "face_histogram")


def _metric(name, unit, moves, on, computed=False):
    return {"name": name, "unit": unit, "better": "lower", "moves": moves,
            "on": on, "elsewhere": "unchanged", "computed": computed}


def _layer_metrics() -> list[dict]:
    out = []
    toric, count, hodge, cli = "toric-roundtrip", "lattice-count", "hodge-table", "cli-mix"
    for f in LINALG:
        out.append(_metric(f"linalg.{f}.calls", "count/op", "ops_per_s, latency_ms_p90", toric))
        out.append(_metric(f"linalg.{f}.self_ms", "ms/op", "ops_per_s, latency_ms_p90", toric))
    out.append(_metric("linalg.det.max_entry_bits", "bits", "ops_per_s, latency_ms_p90", toric))
    out.append(_metric("polytope.adjoint_per_recognition", "count",
                       "ops_per_s, latency_ms_p90", toric))
    out.append(_metric("polytope.det_per_recognition", "count",
                       "ops_per_s, latency_ms_p90", toric))
    for f in ("fan.recognize_fan", "fan.fan_from_weights", "fan.canonical_fan",
              "polytope.weighted_transverse", "polytope.recognize_polytope",
              "polytope.polytope_of"):
        out.append(_metric(f"{f}.calls", "count/op", "ops_per_s", toric))
        out.append(_metric(f"{f}.self_ms", "ms/op", "ops_per_s", toric))
    for f in COUNTERS:
        on = f"{count}; ops_per_s on {hodge}" if f == "face_histogram" else count
        out.append(_metric(f"lattice.{f}.calls", "count/op",
                           "ops_per_s, latency_ms_p90, peak_rss_mib", on))
        out.append(_metric(f"lattice.{f}.self_ms", "ms/op",
                           "ops_per_s, latency_ms_p90, peak_rss_mib", on))
    out.append(_metric("lattice.target_sum", "count/op", "ops_per_s, latency_ms_p90",
                       count, computed=True))
    out.append(_metric("lattice.dp_cells", "count/op", "ops_per_s, latency_ms_p90, peak_rss_mib",
                       count, computed=True))
    for f in ("hodge", "hodge_table", "divisor_info"):
        out.append(_metric(f"cohomology.{f}.calls", "count/op", "ops_per_s, latency_ms_p50", hodge))
        out.append(_metric(f"cohomology.{f}.self_ms", "ms/op", "ops_per_s, latency_ms_p50", hodge))
    out.append(_metric("cohomology.histograms_per_twist", "count", "ops_per_s, latency_ms_p50",
                       hodge))
    out.append(_metric("weights.reduction_data.calls", "count/op", "latency_ms_p50", count))
    out.append(_metric("weights.reduction_data.self_ms", "ms/op", "latency_ms_p50", count))
    out.append(_metric("cli.main.self_ms", "ms/op", "latency_ms_p50, ok_ratio", cli))
    out.append(_metric("cli.stdout_bytes", "bytes/op", "latency_ms_p50, ok_ratio", cli))
    # whole-module self time; the cli module's is cli.main.self_ms above
    for layer, on in (("linalg", toric), ("weights", count), ("fan", toric),
                      ("polytope", toric), ("lattice", count), ("cohomology", hodge)):
        out.append(_metric(f"{layer}.self_ms", "ms/op", "ops_per_s", on))
    out.append(_metric("trace_overhead_ratio", "ratio", "none (tracing cost)", "every workload"))
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Installs span-recording wrappers into the ``wps`` modules."""

    def __init__(self):
        self.spans: list = []
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "wps" or name.startswith("wps.")}
        wrapped = {}
        for name, mod in modules.items():
            if name == "wps":
                continue
            layer = name.split(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == name
                        and not attr.startswith("_")):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    self._patch(mod, attr, wrapped[fn])
        int_matrix = modules["wps.linalg"].IntMatrix
        self._patch(int_matrix, "det", self._wrap("linalg.det", int_matrix.det))
        self._patch(int_matrix, "__matmul__",
                    self._wrap("linalg.matmul", int_matrix.__matmul__))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def _patch(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn):
        spans, extra, stack = self.spans, self.extra, self.stack
        if name == "linalg.det":
            def note(idx, args):
                rows = args[0].entries
                extra[idx] = (max(max(map(max, rows)), -min(map(min, rows))).bit_length()
                              if rows else 0)
        elif name.startswith("lattice.") or name == "cohomology.hodge_table":
            def note(idx, args):
                extra[idx] = args
        else:
            note = None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
                if note is not None:
                    note(idx, args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-op root span ---------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run ``call()`` under a root span ``op``; returns its result."""
        self.op_id = op_id
        return self._wrap("op", call)()

    # -- reporting ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def self_times(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def check_accounting(self, own: list[int]) -> int:
        """Ops whose self times do not add up to their root span."""
        total, root = defaultdict(int), {}
        for span, t in zip(self.spans, own):
            total[span[4]] += t
            if span[3] < 0:
                root[span[4]] = span[2] - span[1]
        return sum(1 for op, dur in root.items() if total[op] != dur)

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, ops: int, stdout_bytes: int, overhead: float,
                      factor: float) -> dict:
        """Per-op layer metrics; self times at reference speed (``factor``
        from :mod:`calibration`)."""
        own = self.self_times()
        calls, self_ns = defaultdict(int), defaultdict(int)
        for span, t in zip(self.spans, own):
            calls[span[0]] += 1
            self_ns[span[0]] += t
        layer_ns = defaultdict(int)
        for name, t in self_ns.items():
            layer_ns[name.split(".", 1)[0]] += t

        det_bits = recog_adj = recog_det = hist_in_tables = twists = target = cells = 0
        for idx, span in enumerate(self.spans):
            name = span[0]
            if name == "linalg.det":
                det_bits = max(det_bits, self.extra[idx])
                recog_det += self._under(idx, "polytope.recognize_polytope")
            elif name == "linalg.adjoint":
                recog_adj += self._under(idx, "polytope.recognize_polytope")
            elif name == "cohomology.hodge_table":
                lo, hi = self.extra[idx][1]
                twists += hi - lo + 1
            elif name.startswith("lattice.") and name.split(".")[1] in COUNTERS:
                if name == "lattice.face_histogram":
                    hist_in_tables += self._under(idx, "cohomology.hodge_table")
                t, c = dp_size(name, *self.extra[idx][:2])
                target += t
                cells += c
        recognitions = calls["polytope.recognize_polytope"]

        values = {}
        for m in LAYER_METRICS:
            name = m["name"]
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                values[name] = calls[head] / ops
            elif tail == "self_ms":
                # all the cli layer runs sits under main, so main's span
                # minus library child spans is the cli layer's self time
                layer = "cli" if head == "cli.main" else head
                ns = layer_ns[layer] if layer in LAYERS else self_ns[head]
                values[name] = ns / 1e6 / ops / factor
        values.update({
            "linalg.det.max_entry_bits": det_bits,
            "polytope.adjoint_per_recognition": recog_adj / recognitions if recognitions else 0,
            "polytope.det_per_recognition": recog_det / recognitions if recognitions else 0,
            "lattice.target_sum": target / ops,
            "lattice.dp_cells": cells / ops,
            "cohomology.histograms_per_twist": hist_in_tables / twists if twists else 0,
            "cli.stdout_bytes": stdout_bytes / ops,
            "trace_overhead_ratio": overhead,
        })
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in LAYER_METRICS}


def dp_size(name: str, q, m: int) -> tuple[int, int]:
    """Target and table cells of the O(m * delta) counting table, computed
    from the call's inputs (not measured)."""
    red = R.reduce_weights(tuple(q))
    n = len(red) - 1
    target = m * lcm(*red)
    if name == "lattice.count_interior":
        target -= sum(red)
    if target < 0 or (name == "lattice.face_histogram" and m == 0):
        return max(target, 0), 0
    width = (n + 1) * (n + 2) if name == "lattice.face_histogram" else n + 1
    return target, (target + 1) * width
