"""The cli-mix workload: in-process ``wps.cli.main(argv)`` requests.

A block holds thirty-five requests over all ten subcommands, in both output
modes, with JSON-file inputs, exit-1 rejections and weights along the
bit-length ladder up to 4096 bits.  Its composition is fixed, so the
share of requests that need a decimal integer of more than 4300 digits
(CPython's default int/str conversion limit) is fixed too: three of the
thirty-five.  Those requests expect the correct answer; a run that fails
them counts them as failed.

Every call into the CLI runs under the interpreter's default limit.
The limit is lifted only inside :func:`cli_check`, around the
benchmark's own parsing of an output the CLI has already printed, so a
CLI that learns to print longer integers can still be checked.  The
inputs the benchmark writes are below the limit by construction.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import reference as R
from workloads import (Golden, Op, divisor_expect, expected_cell, fan_input,
                       flatten_simplex, frontier_weights, presented, simplex_input, size_of)

DIGIT_LIMIT = 10 ** 4300        # smallest int with more than 4300 decimal digits
TOKEN = re.compile(r"-?\d+|\byes\b|\bno\b")

# (subcommand, variant, n, bits, output mode)
REQUESTS = (
    ("reduce", "unreduced", 2, 8, "json"),
    ("reduce", "unreduced", 4, 64, "human"),
    ("reduce", "plain", 2, 4096, "json"),
    ("reduce", "plain", 3, 4096, "json"),             # delta > 4300 digits
    ("fan", "plain", 3, 512, "human"),
    ("fan", "canonical", 6, 64, "json"),
    ("fan", "canonical", 2, 4096, "human"),
    ("fan", "plain", 4, 4096, "json"),
    ("recognize-fan", "rows", 3, 512, "json"),
    ("recognize-fan", "columns", 12, 8, "human"),
    ("recognize-fan", "reject-row", 4, 64, "json"),
    ("recognize-fan", "reject-column", 3, 1024, "human"),
    ("polytope", "m2", 3, 256, "json"),
    ("polytope", "m1", 2, 4096, "human"),
    ("polytope", "m1", 4, 4096, "json"),              # entries > 4300 digits
    ("recognize-polytope", "accept", 3, 256, "json"),
    ("recognize-polytope", "accept", 8, 16, "human"),
    ("recognize-polytope", "reject-flat", 3, 64, "json"),
    ("lattice-points", "count", 0, 0, "json"),
    ("lattice-points", "interior-histogram", 0, 0, "human"),
    ("lattice-points", "histogram", 0, 0, "json"),
    ("cohom", "cell", 0, 0, "json"),
    ("cohom", "table", 0, 0, "human"),
    ("cohom", "table", 0, 0, "json"),
    ("divisors", "plain", 3, 64, "json"),
    ("divisors", "plain", 3, 4096, "human"),          # delta > 4300 digits
    ("gorenstein", "plain", 2, 512, "json"),
    ("gorenstein", "pool", 0, 0, "human"),
    ("iso", "same", 3, 4096, "json"),
    ("iso", "random", 2, 64, "human"),
    ("fan", "canonical", 12, 8, "human"),
    ("polytope", "m1", 6, 32, "json"),
    ("lattice-points", "count", 0, 0, "human"),
    ("cohom", "cell", 0, 0, "human"),
    ("iso", "same", 5, 64, "human"),
)


class Request:
    """Expected outcome of one CLI invocation.

    ``payload`` mirrors the JSON the CLI should print, with ints where
    the CLI prints decimal strings and callables where only a property
    is fixed (a non-canonical fan, a chow generator).  ``tokens`` is
    the sequence of integers and yes/no words the human output should
    contain, or a callable over that sequence.
    """

    def __init__(self, code=0, payload=None, tokens=None, reject=None):
        self.code = code
        self.payload = payload
        self.tokens = tokens
        self.reject = reject
        self.over_limit = any(abs(x) >= DIGIT_LIMIT for x in _ints((payload, tokens)))


def _ints(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, Fraction):
        yield obj.numerator
        yield obj.denominator
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _ints(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _ints(v)


def same(got, want) -> bool:
    """Whether parsed CLI JSON ``got`` matches the expectation ``want``."""
    if callable(want):
        return bool(want(got))
    if isinstance(want, bool) or want is None:
        return got is want
    if isinstance(want, int):
        return (isinstance(got, str) and re.fullmatch(r"-?\d+", got) is not None
                and int(got) == want) or (type(got) is int and got == want)
    if isinstance(want, Fraction):
        return isinstance(got, str) and Fraction(got) == want
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], v) for k, v in want.items()))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    return got == want


def tokens_of(text: str) -> list:
    return [t if t in ("yes", "no") else int(t) for t in TOKEN.findall(text)]


def yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _columns(v):
    return [list(c) for c in zip(*v)]


def _fan_payload(v, q) -> dict:
    return {"n": len(v), "columns": _columns(v), "weights": list(q)}


def _fan_tokens(v, q) -> list:
    return [x for r in v for x in r] + list(q)


def _rows_from_columns(cols) -> list[list[int]]:
    return [[int(c[i]) for c in cols] for i in range(len(cols[0]))]


def _fan_property(q):
    """A JSON fan payload with weights ``q`` and a valid fan matrix."""
    def check(got):
        return (isinstance(got, dict) and got.get("n") == len(q) - 1
                and same(got.get("weights"), list(q))
                and R.fan_weights_ok(_rows_from_columns(got["columns"]), q))
    return check


def _shape(tokens, *sizes):
    """Split a token list into consecutive runs of the given sizes."""
    out, i = [], 0
    for k in sizes:
        out.append(tokens[i:i + k])
        i += k
    return out if i == len(tokens) and all(type(t) is int for t in tokens) else None


def _polytope_ok(verts, q, m) -> bool:
    n = len(q) - 1
    if len(verts) != n + 1 or any(len(v) != n for v in verts) or any(verts[0]):
        return False
    if any(x % m for v in verts for x in v):
        return False
    w = [[verts[k + 1][i] // m for k in range(n)] for i in range(n)]
    try:
        return R.hnf_witness(w)[0] == R.hnf_witness(R.polytope_matrix(q))[0]
    except ValueError:
        return False


def _csv(q) -> str:
    return ",".join(str(x) for x in q)


def _divisor_payload(q_in, red) -> dict:
    exp = divisor_expect(red)
    return {"weights": list(q_in),
            "chow_generator": lambda b: (isinstance(b, list) and len(b) == len(red)
                                         and sum(int(x) * y for x, y in zip(b, red)) == 1),
            **exp, "fano": exp["gorenstein"], "betti_even": [1] * len(red)}


def build(rng, golden: Golden, workdir, tag: str, spec) -> tuple[list[str], Request, dict]:
    """argv, expectation and size counters of one request."""
    cmd, variant, n, bits, _ = spec

    if cmd == "reduce":
        q = frontier_weights(rng, n, bits)
        if variant == "unreduced":
            q = R.unreduce(rng, q)
        rd = R.reduction(q)
        payload = {"weights": q, "d": rd["d"], "a_coeffs": rd["a_coeffs"], "a": rd["a"],
                   "delta": rd["delta"], "delta_reduced": rd["delta_reduced"],
                   "reduced": rd["reduced"], "is_reduced": all(x == 1 for x in rd["d"])}
        tokens = [*q, *rd["d"], *rd["a_coeffs"], rd["a"], rd["delta"], rd["delta_reduced"],
                  *rd["reduced"]]
        return (["reduce", "--weights", _csv(q)], Request(payload=payload, tokens=tokens),
                size_of(q))

    if cmd == "fan":
        q = frontier_weights(rng, n, bits)
        argv = ["fan", "--weights", _csv(q)]
        if variant == "canonical":
            v = R.canonical_fan(q)
            return (argv + ["--canonical"],
                    Request(payload=_fan_payload(v, q), tokens=_fan_tokens(v, q)), size_of(q))

        def fan_tokens(toks):
            parts = _shape(toks, *([n + 1] * (n + 1)))
            return (parts is not None and parts[-1] == list(q)
                    and R.fan_weights_ok(parts[:-1], q))
        return argv, Request(payload=_fan_property(q), tokens=fan_tokens), size_of(q)

    if cmd == "recognize-fan":
        q = frontier_weights(rng, n, bits)
        rows, qs = fan_input(rng, q)
        expect = Request(payload=_fan_payload(rows, qs), tokens=_fan_tokens(rows, qs))
        if variant == "reject-row":
            i = rng.randrange(len(rows))
            rows[i] = [2 * x for x in rows[i]]
            expect = Request(code=1, reject="non-coprime-minors")
        elif variant == "reject-column":
            j = rng.randrange(len(rows[0]))
            for r in rows:
                r[j] = -r[j]
            expect = Request(code=1, reject="nonzero-weighted-sum")
        text = [[str(x) for x in r] for r in rows]
        body = {"columns": [list(c) for c in zip(*text)]} if variant == "columns" else text
        path = workdir / f"{tag}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        return (["recognize-fan", "--matrix", str(path)], expect,
                size_of(q, bits=R.max_bits(rows)))

    if cmd == "polytope":
        q = frontier_weights(rng, n, bits)
        m = 2 if variant == "m2" else 1
        w = R.polytope_matrix(q)
        verts = [[0] * n] + [[m * w[i][k] for i in range(n)] for k in range(n)]

        def poly_json(got):
            try:
                return _polytope_ok([[int(x) for x in v] for v in got["vertices"]], q, m)
            except (KeyError, TypeError, ValueError):
                return False

        def poly_tokens(toks):
            parts = _shape(toks, *([n] * (n + 1)))
            return parts is not None and _polytope_ok(parts, q, m)
        # ``verts`` is one valid answer; it sizes the output for the limit
        expect = Request(payload=poly_json, tokens=poly_tokens)
        expect.over_limit = any(abs(x) >= DIGIT_LIMIT for v in verts for x in v)
        return (["polytope", "--weights", _csv(q), "-m", str(m)], expect,
                size_of(q, bits=R.max_bits(verts)))

    if cmd == "recognize-polytope":
        q = frontier_weights(rng, n, bits)
        m = rng.randint(1, 3)
        verts, qs = simplex_input(rng, q, m)
        if variant == "reject-flat":
            verts = flatten_simplex(rng, verts)
            expect = Request(code=1, reject="degenerate")
        else:
            def poly_tokens(toks):
                parts = _shape(toks, n + 1, n + 1, 1, *([n + 1] * n), n + 1)
                return (parts is not None and parts[0] == list(qs) == parts[-1]
                        and parts[1] == sorted(qs) and parts[2] == [m]
                        and R.fan_weights_ok(parts[3:-1], qs))
            expect = Request(payload={"weights": qs, "weights_sorted": sorted(qs), "m": m,
                                      "fan": _fan_property(qs)}, tokens=poly_tokens)
        path = workdir / f"{tag}.json"
        path.write_text(json.dumps({"vertices": [[str(x) for x in v] for v in verts]}),
                        encoding="utf-8")
        return (["recognize-polytope", "--vertices", str(path)], expect,
                size_of(q, bits=R.max_bits(verts)))

    if cmd == "lattice-points":
        group, m = {"count": ((840, 3), 3), "interior-histogram": ((180, 2), 6),
                    "histogram": ((120, 4), 4)}[variant]
        t = golden.pick(rng, "lattice", group)
        q_in = presented(rng, t.q)
        argv = ["lattice-points", "--weights", _csv(q_in), "-m", str(m)]
        payload = {"weights": q_in, "m": m}
        if variant == "interior-histogram":
            argv += ["--interior", "--histogram"]
            payload["interior"] = t.interior(m)
        else:
            payload["count"] = t.count(m)
        tokens = [payload.get("interior", payload.get("count"))]
        if variant != "count":
            if variant == "histogram":
                argv.append("--histogram")
            hist = sorted(t.histogram(m).items())
            payload["histogram"] = {str(s): c for s, c in hist}
            tokens += [x for item in hist for x in item]
        return argv, Request(payload=payload, tokens=tokens), \
            size_of(t.q, target=m * t.delta, bits=R.max_bits(q_in))

    if cmd == "cohom":
        t = golden.pick(rng, "hodge", {"cell": (60, 5), "table": (30, 4)}[variant])
        q_in = presented(rng, t.q)
        cell = expected_cell(t)
        if variant == "cell":
            p, qq = rng.randint(0, t.n), rng.choice((0, t.n))
            m = 2 if qq == 0 else -2
            h = cell(p, qq, m)
            return (["cohom", "--weights", _csv(q_in), "-p", str(p), "-q", str(qq),
                     "-m", str(m)],
                    Request(payload={"weights": q_in, "p": p, "q": qq, "m": m, "h": h},
                            tokens=[qq, p, m, h]),
                    size_of(t.q, target=abs(m) * t.delta, bits=R.max_bits(q_in)))
        lo, hi = -2, 1
        cells = {(p, qq, m): cell(p, qq, m) for m in range(lo, hi + 1)
                 for p in range(t.n + 1) for qq in range(t.n + 1)}
        entries = [{"p": p, "q": qq, "m": m, "h": h} for (p, qq, m), h in sorted(cells.items())]
        tokens = [x for (p, qq, m), h in sorted(cells.items(), key=lambda kv: (kv[0][2],
                                                                               kv[0][0],
                                                                               kv[0][1]))
                  if h for x in (m, p, qq, h)]
        return (["cohom", "--weights", _csv(q_in), "--table", "--m-range", f"{lo}..{hi}"],
                Request(payload={"n": t.n, "entries": entries}, tokens=tokens),
                size_of(t.q, target=max(-lo, hi) * t.delta, bits=R.max_bits(q_in)))

    if cmd == "divisors":
        q = frontier_weights(rng, n, bits)
        payload = _divisor_payload(q, q)
        deg = payload["canonical_degree"]
        tail = [payload["picard_index"], deg.numerator] + \
            ([deg.denominator] if deg.denominator != 1 else []) + \
            [yes(payload["gorenstein"])] * 2

        def div_tokens(toks):
            b = toks[:n + 1]
            return (toks[n + 1:] == tail and len(b) == n + 1
                    and all(type(x) is int for x in b)
                    and sum(x * y for x, y in zip(b, q)) == 1)
        expect = Request(payload=payload, tokens=div_tokens)
        expect.over_limit = any(abs(x) >= DIGIT_LIMIT for x in _ints(tail))
        return ["divisors", "--weights", _csv(q)], expect, size_of(q)

    if cmd == "gorenstein":
        if variant == "pool":
            t = golden.pick(rng, "hodge", (84, 6))
            q_in, red = presented(rng, t.q), t.q
        else:
            q_in = red = frontier_weights(rng, n, bits)
        full = _divisor_payload(q_in, red)
        payload = {k: full[k] for k in ("weights", "gorenstein", "fano", "canonical_degree")}
        return (["gorenstein", "--weights", _csv(q_in)],
                Request(payload=payload, tokens=[yes(full["gorenstein"])] * 2),
                size_of(red, bits=R.max_bits(q_in)))

    # iso
    q = frontier_weights(rng, n, bits)
    other = presented(rng, q) if variant == "same" else frontier_weights(rng, n, bits)
    same_space = sorted(R.reduce_weights(other)) == sorted(q)
    return (["iso", "--weights", _csv(q), "--other", _csv(other)],
            Request(payload={"weights": q, "other": other, "isomorphic": same_space,
                             "reduced": sorted(q)},
                    tokens=[yes(same_space)]),
            size_of(q))


def cli_block(lib, rng, golden: Golden, workdir, block: int, small: bool = False) -> list[Op]:
    ops = []
    for i, spec in enumerate(REQUESTS):
        if small and spec[3] > 64:
            continue
        argv, expect, size = build(rng, golden, workdir, f"b{block}-{i}", spec)
        if spec[4] == "json":
            argv = ["--json"] + argv if rng.random() < 0.5 else argv + ["--json"]
        size["over_limit"] = expect.over_limit
        ops.append(Op(f"{spec[0]}:{spec[1]}:{spec[4]}", (argv,), expect, size))
    rng.shuffle(ops)
    return ops


def cli_call(lib, op: Op):
    """``(exit code, stdout, stderr)`` of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lib.cli.main(list(op.args[0]))
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextmanager
def unlimited_digits():
    """Lift the int/str digit limit for the benchmark's own comparison of
    an output the CLI has already produced, and restore it after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def cli_check(op: Op, value) -> bool:
    with unlimited_digits():
        return _cli_check(op, value)


def _cli_check(op: Op, value) -> bool:
    code, stdout, _ = value
    want: Request = op.expect
    if code != want.code:
        return False
    as_json = "--json" in op.args[0]
    if want.reject is not None:
        if not as_json:
            return stdout == ""
        try:
            return json.loads(stdout).get("code") == want.reject
        except (ValueError, AttributeError):
            return False
    if as_json:
        try:
            got = json.loads(stdout)
        except ValueError:
            return False
        return same(got, want.payload)
    toks = tokens_of(stdout)
    if callable(want.tokens):
        return bool(want.tokens(toks))
    return toks == list(want.tokens)


def digit_limit_failure(value) -> bool:
    """Whether a failed invocation stopped on the int/str digit limit."""
    code, _, stderr = value
    return code == 2 and "limit" in stderr and "digits" in stderr
