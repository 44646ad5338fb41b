"""Command-line interface.

One subcommand per construction or recognition procedure plus the
derived numerical queries.  The library takes and returns ints; only
this module turns them into text and back, reading each integer with
:func:`_read_int` and writing big ones to JSON as decimal strings, so
they survive any parser bit-exactly.  Identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 recognition failure,
2 malformed input or usage error, 3 internal error (a failed self-check);
:func:`main` returns each of them, argparse's usage errors included.

Each subcommand handler parses its input and computes the answer, and
raises on bad input, a rejection or a failed self-check; it returns two
zero-argument renderers of that answer, the JSON payload and the human
text.  :func:`main` calls only the one it prints, and neither under
``--quiet``, inside the same error handling and digit-limit lift as the
computation, so every integer goes to decimal at most once and a
failure while rendering still exits 2 or 3.  A key-value answer declares
each field once, in :func:`_fields`; its values are computed by the
handler, under ``--quiet`` too (a vector's kept lcms, sorted weights).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from .cohomology import HodgeTable, divisor_info, hodge, hodge_table, rational_homology
from .fan import FanMatrix, FanRejection, canonical_fan, recognize_fan
from .lattice import count_interior, count_points, face_histogram
from .linalg import DimensionError, IntMatrix
from .polytope import LatticeSimplex, PolytopeRejection, polytope_of, recognize_polytope
from .weights import WeightsVector, is_reduced, isomorphic, reduce_weights, reduction_data


def _read_int(x) -> int:
    """A JSON integer, or text that is an optional sign and ASCII digits
    once surrounding whitespace is stripped: ``int``'s syntax less its
    ``_`` separators and non-ASCII digits.  What ``int`` refuses keeps
    ``int``'s message."""
    if type(x) is int:
        return x
    text = str(x)
    value = int(text, 10)
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"{text!r} is not an optional sign and ASCII digits")
    return value


_read_int.__name__ = "int"      # argparse says "invalid <__name__> value: ..."


def _ints(values) -> list[str]:
    """``values`` as decimal strings, the form of every big integer in JSON output."""
    return [str(x) for x in values]


def _parse_weights(text: str) -> WeightsVector:
    try:
        if not text.strip():
            raise ValueError("empty weights list")
        return WeightsVector(tuple(map(_read_int, text.split(","))))
    except ValueError as exc:
        raise ValueError(f"bad weights {text!r}: {exc}") from exc


def _matrix_of(obj) -> IntMatrix:
    """Read a plain rows array or a ``{"columns": ...}`` object."""
    lists = obj.get("columns") if isinstance(obj, dict) else obj
    if not isinstance(lists, list) or not all(isinstance(x, list) for x in lists):
        raise ValueError('expected {"columns": [[...], ...]} or a rows array [[...], ...]')
    if isinstance(obj, dict):
        if not lists or any(len(col) != len(lists[0]) for col in lists):
            raise DimensionError("columns must be nonempty and of equal length")
        lists = zip(*lists)
    return IntMatrix.from_rows([list(map(_read_int, r)) for r in lists])


def _simplex_of(obj) -> LatticeSimplex:
    verts = obj.get("vertices") if isinstance(obj, dict) else None
    if not isinstance(verts, list) or not all(isinstance(v, list) for v in verts):
        raise ValueError('expected {"vertices": [[...], ...]}, a list of vertex lists')
    return LatticeSimplex(vertices=tuple(tuple(map(_read_int, v)) for v in verts))


def _fan_payload(fan: FanMatrix) -> dict:
    return {"n": fan.n, "columns": [_ints(col) for col in zip(*fan.v.entries)],
            "weights": _ints(fan.weights)}


def _simplex_payload(simplex: LatticeSimplex) -> dict:
    return {"vertices": [_ints(v) for v in simplex.vertices]}


def _table_payload(table: HodgeTable) -> dict:
    cells = [{"p": p, "q": qq, "m": str(m), "h": str(h)}
             for (p, qq, m), h in sorted(table.entries.items())]
    return {"n": table.n, "entries": cells}


def _load(path: str, what: str, reader):
    """``reader`` of the JSON file ``path``, any fault of which is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return reader(obj)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"bad {what} payload in {path}: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _fmt_matrix(m: IntMatrix, weights) -> str:
    """``m`` in right-aligned columns, a rule, then ``weights`` under the columns."""
    cells = [[str(x) for x in row] for row in m.entries]
    tag = [str(w) for w in weights]
    widths = [max(len(t), *(len(row[j]) for row in cells)) for j, t in enumerate(tag)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    lines.append("-" * len(lines[0]))
    lines.append("  ".join(t.rjust(w) for t, w in zip(tag, widths)))
    return "\n".join(lines)


# the table's work grows with the number of twists, so a mistyped
# range fails fast instead of running without bound
_MAX_TWISTS = 10_000


def _parse_m_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise ValueError(f"bad range {text!r}: expected LO..HI")
    lo, _, hi = text.partition("..")
    try:
        lo, hi = _read_int(lo), _read_int(hi)
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}: {exc}") from exc
    if hi - lo + 1 > _MAX_TWISTS:
        raise ValueError(f"bad range {text!r}: {hi - lo + 1} twists, at most {_MAX_TWISTS}")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the renderers (json_payload, human_text)
# of the answer it computed; see the module docstring


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _tuple(values) -> str:
    return "(" + ",".join(str(x) for x in values) + ")"


def _fields(width: int, fields):
    """The renderers of a key-value answer, each field declared once as
    ``(json key, text label, value)``; one without a label is JSON only.
    The wire rule: a bool is a JSON bool or yes/no, an int or Fraction is
    decimal, and a sequence is a list of decimal strings or ``(a,b,c)``;
    the text puts each value after its label padded to ``width``."""
    def encode(v, flag, vector):
        return flag(v) if isinstance(v, bool) else (
            str(v) if isinstance(v, (int, Fraction)) else vector(v))

    return (lambda: {key: encode(v, bool, _ints) for key, _, v in fields},
            lambda: "\n".join(label.ljust(width) + encode(v, _yes, _tuple)
                              for _, label, v in fields if label))


def _cmd_reduce(args):
    q = _parse_weights(args.weights)
    rd = reduction_data(q)
    return _fields(14, [("weights", "weights", q), ("d", "d", rd.d),
                        ("a_coeffs", "a_coeffs", rd.a_coeffs), ("a", "a", rd.a),
                        ("delta", "delta", rd.delta),
                        ("delta_reduced", "delta'", rd.delta_reduced),
                        ("reduced", "reduced", rd.reduced),
                        ("is_reduced", None, is_reduced(q))])


def _fan_answer(fan: FanMatrix):
    return lambda: _fan_payload(fan), lambda: _fmt_matrix(fan.v, weights=fan.weights.q)


def _cmd_fan(args):
    return _fan_answer(canonical_fan(_parse_weights(args.weights)))


def _cmd_recognize_fan(args):
    m = _load(args.matrix, "matrix", _matrix_of)
    try:
        fan = recognize_fan(m)
    except DimensionError as exc:       # a rejection is not a payload fault
        raise ValueError(f"bad matrix payload in {args.matrix}: {exc}") from exc
    return _fan_answer(fan)


def _cmd_polytope(args):
    simplex = polytope_of(_parse_weights(args.weights), args.m)
    return lambda: _simplex_payload(simplex), lambda: "\n".join(map(_tuple, simplex.vertices))


def _cmd_recognize_polytope(args):
    polarized, fan = recognize_polytope(_load(args.vertices, "vertices", _simplex_of))
    scalars, text = _fields(14, [("weights", "weights", polarized.weights),
                                 ("weights_sorted", "sorted", sorted(polarized.weights)),
                                 ("m", "polarization", polarized.polarization)])
    return (lambda: {**scalars(), "fan": _fan_payload(fan)},
            lambda: f"{text()}\nfan\n{_fmt_matrix(fan.v, weights=fan.weights.q)}")


def _cmd_lattice_points(args):
    q = _parse_weights(args.weights)
    if args.interior and args.m < 1:
        raise ValueError("interior counts need m >= 1")
    hist = sorted(face_histogram(q, args.m).items()) if args.histogram else None
    # a histogram holds the count: its sum, or its top face for the interior
    if args.interior:
        key, label = "interior", "interior points"
        k = count_interior(q, args.m) if hist is None else dict(hist).get(q.n, 0)
    else:
        key, label = "count", "lattice points"
        k = count_points(q, args.m) if hist is None else sum(c for _, c in hist)
    scalars, text = _fields(17, [("weights", None, q), ("m", None, args.m), (key, label, k)])
    if hist is None:
        return scalars, text
    return (lambda: {**scalars(), "histogram": {str(s): str(c) for s, c in hist}},
            lambda: "\n".join([text()] + [f"  face dim {s}: {c}" for s, c in hist]))


def _cmd_cohom(args):
    q = _parse_weights(args.weights)
    if args.table and (args.p, args.q, args.m) != (None,) * 3:
        raise ValueError("--table reads --m-range, not -p, -q or -m")
    if not args.table and args.m_range is not None:
        raise ValueError("--m-range needs --table")
    if args.table:
        if args.m_range is None:
            raise ValueError("--table needs --m-range LO..HI")
        table = hodge_table(q, _parse_m_range(args.m_range))

        def human():
            lines = [f"m={m} p={p} q={qq}: {h}"
                     for (p, qq, m), h in sorted(table.entries.items(),
                                                 key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
                     if h != 0]
            return "\n".join(lines) or "all entries vanish"

        return lambda: _table_payload(table), human
    if args.p is None or args.q is None or args.m is None:
        raise ValueError("cohom needs -p, -q and -m (or --table with --m-range)")
    h = hodge(q, args.p, args.q, args.m)
    return (lambda: {"weights": _ints(q), "p": args.p, "q": args.q,
                     "m": str(args.m), "h": str(h)},
            lambda: f"h^{args.q} Omega^{args.p}({args.m}) = {h}")


def _cmd_divisors(args):
    q = _parse_weights(args.weights)
    info = divisor_info(q)
    return _fields(18, [("weights", None, q),
                        ("chow_generator", "chow generator", info.chow_generator),
                        ("picard_index", "picard index", info.picard_index),
                        ("canonical_degree", "canonical degree", info.canonical_degree),
                        ("gorenstein", "gorenstein", info.gorenstein), ("fano", "fano", info.fano),
                        ("betti_even", None, rational_homology(q)[::2])])


def _cmd_gorenstein(args):
    q = _parse_weights(args.weights)
    info = divisor_info(q)
    return _fields(12, [("weights", None, q), ("gorenstein", "gorenstein", info.gorenstein),
                        ("fano", "fano", info.fano),
                        ("canonical_degree", None, info.canonical_degree)])


def _cmd_iso(args):
    q1, q2 = _parse_weights(args.weights), _parse_weights(args.other)
    return _fields(12, [("weights", None, q1), ("other", None, q2),
                        ("isomorphic", "isomorphic", isomorphic(q1, q2)),
                        ("reduced", None, sorted(reduce_weights(q1).q))])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wps`` parser, built once per process: parsing leaves it unchanged."""
    # the output flags are accepted both before and after the subcommand;
    # SUPPRESS keeps the subparser from clobbering a value set up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress stdout")

    parser = argparse.ArgumentParser(
        prog="wps",
        parents=[common],
        description="Toric data of weighted projective spaces: exact fans, "
                    "polytopes, divisor classes and cohomology dimensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the parent of every subcommand that reads a weights vector
    weighted = argparse.ArgumentParser(add_help=False, parents=[common])
    weighted.add_argument("--weights", required=True,
                          help="comma-separated positive integers, e.g. 2,3,4,15,25")

    def add(name, parent, help_text, handler):
        p = sub.add_parser(name, parents=[parent], help=help_text)
        p.set_defaults(handler=handler)
        return p

    add("reduce", weighted, "reduction data of a weights vector", _cmd_reduce)

    p = add("fan", weighted, "produce a fan matrix from weights", _cmd_fan)
    p.add_argument("--canonical", action="store_true",
                   help="accepted for older scripts; the canonical fan is the default")

    p = add("recognize-fan", common, "recognize a fan matrix from a JSON file", _cmd_recognize_fan)
    p.add_argument("--matrix", required=True,
                   help="JSON file: rows array or {\"columns\": ...} object")

    p = add("polytope", weighted, "polytope of a polarized space", _cmd_polytope)
    p.add_argument("-m", type=_read_int, default=1, help="polarization multiple (default 1)")

    p = add("recognize-polytope", common,
            "recognize a lattice simplex from a JSON vertices file", _cmd_recognize_polytope)
    p.add_argument("--vertices", required=True,
                   help="JSON file: {\"vertices\": [[...], ...]}")

    p = add("lattice-points", weighted, "lattice point counts of polytope dilates",
            _cmd_lattice_points)
    p.add_argument("-m", type=_read_int, required=True, help="dilation factor")
    p.add_argument("--interior", action="store_true", help="count interior points only")
    p.add_argument("--histogram", action="store_true",
                   help="also report counts per smallest-face dimension")

    p = add("cohom", weighted, "twisted p-form cohomology dimensions", _cmd_cohom)
    p.add_argument("-p", type=_read_int, default=None, help="form degree")
    p.add_argument("-q", type=_read_int, default=None, help="cohomology degree")
    p.add_argument("-m", type=_read_int, default=None, help="twist")
    p.add_argument("--table", action="store_true", help="emit the full table")
    p.add_argument("--m-range", default=None,
                   help=f"twist range LO..HI for --table, at most {_MAX_TWISTS} twists")

    add("divisors", weighted, "divisor class data", _cmd_divisors)
    add("gorenstein", weighted, "Gorenstein / Fano test", _cmd_gorenstein)

    p = add("iso", weighted, "isomorphism test for two weight vectors", _cmd_iso)
    p.add_argument("--other", required=True, help="second weights vector")

    return parser


@contextmanager
def _unlimited_digits():
    """Lift CPython's int/str digit limit for one CLI invocation.

    Arbitrary-precision input and output outlive the interpreter's
    default 4300-digit guard; the previous limit comes back on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):     # interpreters without the guard
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse refuses option values starting with "-" unless glued with
    # "="; ranges like "-3..3" are documented, so glue them here
    patched = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--m-range" and i + 1 < len(argv):
            patched.append(f"--m-range={argv[i + 1]}")
            skip = True
        else:
            patched.append(tok)
    parser = build_parser()
    with _unlimited_digits():
        try:
            args = parser.parse_args(patched)
        except SystemExit as exc:       # usage errors (2) and --help (0)
            return exc.code
        as_json = getattr(args, "json", False)
        quiet = getattr(args, "quiet", False)
        try:
            payload, human = args.handler(args)
            if quiet:
                return 0
            text = _dump(payload()) if as_json else human()
        except (FanRejection, PolytopeRejection) as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            if as_json and not quiet:
                print(_dump({"error": str(exc), "code": exc.code}))
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except AssertionError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 3
        print(text)
        return 0


if __name__ == "__main__":
    sys.exit(main())
