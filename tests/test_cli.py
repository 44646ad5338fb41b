import json
import random
import sys
import time
from contextlib import contextmanager
from math import comb, gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wps.cli
import wps.lattice
import wps.linalg
from wps.cli import main
from wps.cohomology import divisor_info
from wps.fan import FanRejection, canonical_fan, recognize_fan
from wps.lattice import count_points
from wps.linalg import IntMatrix
from wps.polytope import polytope_of, recognize_polytope
from wps.weights import WeightsVector, reduce_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out) if out else None, err


def test_reduce(capsys):
    code, payload, _ = run_json(capsys, "reduce", "--weights", "1,2,2")
    assert code == 0
    assert payload["reduced"] == ["1", "1", "1"]
    assert payload["a"] == "2"
    assert payload["is_reduced"] is False


def test_fan_canonical_known_example(capsys):
    code, payload, _ = run_json(capsys, "fan", "--weights", "2,3,4,15,25", "--canonical")
    assert code == 0
    assert payload["n"] == 4
    assert payload["weights"] == ["2", "3", "4", "15", "25"]
    assert payload["columns"] == [
        ["-14", "-2", "-20", "-25"],
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["1", "0", "1", "2"],
    ]


@pytest.mark.parametrize("weights", ["2,3,4,15,25", ",".join(map(str, range(1, 21)))],
                         ids=["paper", "1-to-20"])
@pytest.mark.parametrize("output", [(), ("--json",)], ids=["text", "json"])
def test_plain_fan_is_the_canonical_fan(capsys, weights, output):
    # --canonical is still accepted and changes nothing; the canonical fan
    # itself is pinned in test_fan_canonical_known_example
    code, plain, _ = run(capsys, *output, "fan", "--weights", weights)
    assert code == 0
    code, canonical, _ = run(capsys, *output, "fan", "--weights", weights, "--canonical")
    assert code == 0
    assert plain == canonical


# the weighted transverse of the canonical fan: the paper's worked polytope
POLYTOPE_2_3_4_15_25 = (
    '{"vertices": [["0", "0", "0", "0"], ["100", "0", "0", "-50"], ["0", "75", "0", "0"], '
    '["0", "0", "20", "-10"], ["0", "0", "0", "6"]]}\n')


def test_polytope_json_is_pinned(capsys):
    code, out, _ = run(capsys, "--json", "polytope", "--weights", "2,3,4,15,25")
    assert code == 0
    assert out == POLYTOPE_2_3_4_15_25


def test_fan_output_round_trips_through_recognition(capsys, tmp_path):
    code, out, _ = run(capsys, "--json", "fan", "--weights", "3,5,7")
    assert code == 0
    path = tmp_path / "fan.json"
    path.write_text(out)
    code, payload, _ = run_json(capsys, "recognize-fan", "--matrix", str(path))
    assert code == 0
    assert payload["weights"] == ["3", "5", "7"]


def test_recognize_fan_accepts_bare_rows(capsys, tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([["1", "-1"]]))
    code, payload, _ = run_json(capsys, "recognize-fan", "--matrix", str(path))
    assert code == 0
    assert payload["weights"] == ["1", "1"]


def test_recognize_fan_rejection_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([["1", "1", "0"], ["0", "0", "1"]]))
    code, payload, err = run_json(capsys, "recognize-fan", "--matrix", str(path))
    assert code == 1
    assert "zero maximal minor at index 2" in err
    assert payload["code"] == "zero-minor"
    assert "zero maximal minor" in payload["error"]


def test_polytope_and_recognition_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "--json", "polytope", "--weights", "2,3,4,15,25")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"][0] == ["0", "0", "0", "0"]
    path = tmp_path / "simplex.json"
    path.write_text(out)
    code, rec, _ = run_json(capsys, "recognize-polytope", "--vertices", str(path))
    assert code == 0
    assert rec["weights"] == ["2", "3", "4", "15", "25"]
    assert rec["m"] == "1"
    assert rec["weights_sorted"] == ["2", "3", "4", "15", "25"]
    # the simplex is built from the canonical fan, and recognition gives it back
    code, fan, _ = run(capsys, "--json", "fan", "--weights", "2,3,4,15,25")
    assert code == 0
    assert rec["fan"] == json.loads(fan)


def test_recognize_polytope_of_known_simplex(capsys, tmp_path):
    simplex = {"vertices": [["0", "0", "0", "0"],
                            ["100", "0", "0", "-50"],
                            ["0", "75", "0", "0"],
                            ["0", "0", "20", "-10"],
                            ["0", "0", "0", "6"]]}
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(simplex))
    code, payload, _ = run_json(capsys, "recognize-polytope", "--vertices", str(path))
    assert code == 0
    assert payload["weights"] == ["2", "3", "4", "15", "25"]
    assert payload["m"] == "1"


def test_recognize_polytope_rejection(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"vertices": [["0", "0"], ["1", "0"], ["2", "3"]]}))
    code, payload, err = run_json(capsys, "recognize-polytope", "--vertices", str(path))
    assert code == 1
    assert payload["code"] == "not-wps"
    assert "not a wps polytope" in err


@pytest.mark.parametrize("subcommand,flag", [("recognize-fan", "--matrix"),
                                              ("recognize-polytope", "--vertices")])
def test_deeply_nested_json_is_bad_input(capsys, tmp_path, subcommand, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, subcommand, flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read JSON from {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("payload", [
    {"columns": [[1], [-1, 7]]},        # cut to the first column's length: a valid fan
    {"columns": [[1], [2, 3]]},         # cut to the first column's length: a rejection
    {"columns": [[1, 2], [3]]},         # a later column too short
    {"columns": []},
])
def test_ragged_fan_columns_are_bad_input(capsys, tmp_path, payload):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "recognize-fan", "--matrix", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: bad matrix payload in {path}: "
                   "columns must be nonempty and of equal length\n")


def test_payload_without_the_expected_key_names_it(capsys, tmp_path):
    fan = ("bad matrix payload",
           'expected {"columns": [[...], ...]} or a rows array [[...], ...]')
    simplex = ("bad vertices payload",
               'expected {"vertices": [[...], ...]}, a list of vertex lists')
    cases = [
        ("recognize-fan", "--matrix", {"vertices": []}, fan),
        ("recognize-fan", "--matrix", [1, -1], fan),
        ("recognize-polytope", "--vertices", [[0, 0], [1, 0], [0, 1]], simplex),
        ("recognize-polytope", "--vertices", {"vertices": 5}, simplex),
    ]
    path = tmp_path / "payload.json"
    for subcommand, flag, payload, (what, expected) in cases:
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, subcommand, flag, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {what} in {path}: {expected}\n"


def test_wrong_shape_payload_names_the_file(capsys, tmp_path):
    path = tmp_path / "rows.json"
    path.write_text("[[1], [2]]")
    code, out, err = run(capsys, "recognize-fan", "--matrix", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: bad matrix payload in {path}: "
                   "fan matrix must be n x (n+1) with n >= 1, got 2x1\n")


def test_lattice_points(capsys):
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,2", "-m", "1")
    assert code == 0
    assert payload["count"] == "4"
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", "2", "--histogram")
    assert payload["histogram"] == {"0": "3", "1": "3"}
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", "3", "--interior")
    assert payload["interior"] == "1"


def test_cohom_single_cell(capsys):
    code, payload, _ = run_json(capsys, "cohom", "--weights", "1,1,1",
                                "-p", "1", "-q", "0", "-m", "2")
    assert code == 0
    assert payload["h"] == "3"


def test_cohom_table(capsys):
    code, payload, _ = run_json(capsys, "cohom", "--weights", "1,1,2",
                                "--table", "--m-range", "-2..2")
    assert code == 0
    assert payload["n"] == 2
    cells = {(c["p"], c["q"], c["m"]): c["h"] for c in payload["entries"]}
    assert cells[(0, 0, "0")] == "1"
    assert cells[(0, 0, "1")] == "4"
    assert cells[(1, 1, "0")] == "1"


def test_cohom_table_rejects_a_huge_range_at_once(capsys):
    for m_range in ("0..1000000000000", "0..10000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "cohom", "--weights", "1,1,2",
                             "--table", "--m-range", m_range)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "at most 10000" in err


def test_divisors_and_gorenstein(capsys):
    code, payload, _ = run_json(capsys, "divisors", "--weights", "1,1,2")
    assert code == 0
    assert payload["picard_index"] == "2"
    assert payload["gorenstein"] is True
    assert payload["canonical_degree"] == "-2"
    code, payload, _ = run_json(capsys, "gorenstein", "--weights", "1,1,3")
    assert payload["gorenstein"] is False


def test_iso(capsys):
    code, payload, _ = run_json(capsys, "iso", "--weights", "1,2,2", "--other", "1,1,1")
    assert code == 0
    assert payload["isomorphic"] is True
    code, payload, _ = run_json(capsys, "iso", "--weights", "1,1,2", "--other", "1,2,3")
    assert payload["isomorphic"] is False


def test_malformed_weights_exit_code(capsys):
    code, out, err = run(capsys, "reduce", "--weights", "2,x")
    assert code == 2
    assert "bad weights" in err and out == ""


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "recognize-fan", "--matrix", "/nonexistent.json")
    assert code == 2
    assert "cannot read JSON" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--json", "divisors", "--weights", "2,3,4,15,25")
    _, second, _ = run(capsys, "--json", "divisors", "--weights", "2,3,4,15,25")
    assert first == second


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run(capsys, "--quiet", "fan", "--weights", "1,1")
    assert code == 0 and out == ""


def test_shared_parser_leaks_no_flag(capsys):
    # main() builds its parser once per process; every call must print
    # what it prints on a freshly built parser, in any order
    calls = [("--json", "reduce", "--weights", "2,3,4,15,25"),
             ("reduce", "--weights", "2,3,4,15,25"),
             ("--quiet", "fan", "--weights", "2,3,4,15,25"),
             ("fan", "--weights", "2,3,4,15,25", "--canonical")]
    alone = []
    for argv in calls:
        wps.cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert alone[0][1].startswith("{") and not alone[1][1].startswith("{")
    assert alone[2][1] == "" and not alone[3][1].startswith("{")
    shared = [run(capsys, *argv) for argv in calls + calls[::-1]]
    assert shared == alone + alone[::-1]
    assert wps.cli.build_parser() is wps.cli.build_parser()


def test_human_output_annotates_weights(capsys):
    code, out, _ = run(capsys, "fan", "--weights", "2,3,4,15,25", "--canonical")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].split() == ["2", "3", "4", "15", "25"]


def test_internal_error_exit_code(capsys, monkeypatch):
    # a failed self-check reaches the user as exit 3 and one message line
    def broken(q):
        raise AssertionError("canonical block is not a nonnegative HNF")

    monkeypatch.setattr(wps.cli, "canonical_fan", broken)
    code, out, err = run(capsys, "fan", "--weights", "2,3", "--canonical")
    assert code == 3
    assert out == ""
    assert err == "internal error: canonical block is not a nonnegative HNF\n"
    assert "Traceback" not in err


def test_lattice_points_at_a_huge_dilation(capsys):
    # the counts are polynomials in m, so the work stops growing past m = n + 1
    m = 10 ** 9
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", str(m), "--histogram")
    assert code == 0
    assert payload["count"] == str(comb(m + 2, 2))
    assert payload["histogram"] == {"0": "3", "1": str(3 * (m - 1)),
                                    "2": str(comb(m - 1, 2))}
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "2,3,4,15,25",
                                "-m", str(m), "--interior", "--histogram")
    assert code == 0
    assert sum(int(c) for c in payload["histogram"].values()) == \
        count_points(WeightsVector((2, 3, 4, 15, 25)), m)
    assert payload["interior"] == payload["histogram"]["4"]
    assert time.perf_counter() - start < 5


def test_internal_error_from_the_counting_self_check(capsys, monkeypatch):
    count_samples = wps.lattice._count_samples

    def corrupted(weights, targets):
        samples = count_samples(weights, targets)
        samples[-1] += 1
        return samples

    monkeypatch.setattr(wps.lattice, "_count_samples", corrupted)
    code, out, err = run(capsys, "lattice-points", "--weights", "1,1,2", "-m", "5")
    assert code == 3 and out == ""
    assert err.startswith("internal error: lattice counts fail the volume check")


def test_internal_error_from_the_tracked_determinant(capsys, monkeypatch, tmp_path):
    # a wrong row content leaves a remainder in the determinant that
    # polytope recognition tracks through its one elimination
    code, out, _ = run(capsys, "--json", "polytope", "--weights", "2,3,4,15,25")
    assert code == 0
    path = tmp_path / "simplex.json"
    path.write_text(out)
    primitive = wps.linalg._primitive

    def wrong_content(row):
        quotients, c = primitive(row)
        return quotients, c * (2 ** 89 - 1)

    monkeypatch.setattr(wps.linalg, "_primitive", wrong_content)
    code, out, err = run(capsys, "recognize-polytope", "--vertices", str(path))
    assert code == 3 and out == ""
    assert err == "internal error: primitive rows lost their determinant\n"


# ---------------------------------------------------------------------------
# integers past CPython's default int/str digit limit

has_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                     reason="interpreter has no int/str digit limit")


@contextmanager
def digit_limit(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# three pairwise coprime 5001-digit weights, written without converting
BIG = tuple("1" + "0" * 4999 + d for d in "137")


def run_at_default_limit(capsys, *argv):
    """Run the CLI under the interpreter's default limit, which it must
    lift for itself and then restore."""
    default = sys.int_info.default_max_str_digits
    with digit_limit(default):
        result = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == default
    return result


def unlimited(compute):
    with digit_limit(0):
        return compute()


@has_digit_limit
def test_reduce_json_with_5000_digit_weights(capsys):
    code, out, err = run_at_default_limit(capsys, "--json", "reduce", "--weights", ",".join(BIG))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["weights"] == list(BIG)
    delta = unlimited(lambda: str(lcm(*(int(x) for x in BIG))))
    assert len(delta) > 15000
    assert payload["delta"] == delta


@has_digit_limit
def test_polytope_json_with_5000_digit_weights(capsys):
    weights = ("1",) + BIG[:2]
    code, out, err = run_at_default_limit(capsys, "--json", "polytope", "--weights",
                                          ",".join(weights))
    assert code == 0, err
    payload = json.loads(out)
    expected = unlimited(lambda: polytope_of(WeightsVector.parse(",".join(weights))).to_json())
    assert payload == expected
    assert max(len(x.lstrip("-")) for v in payload["vertices"] for x in v) >= 5000


@has_digit_limit
def test_divisors_with_5000_digit_weights(capsys):
    code, out, err = run_at_default_limit(capsys, "divisors", "--weights", ",".join(BIG))
    assert code == 0, err
    info = unlimited(lambda: divisor_info(WeightsVector.parse(",".join(BIG))))
    lines = unlimited(lambda: [f"picard index      {info.picard_index}",
                               f"canonical degree  {info.canonical_degree}"])
    assert len(lines[0]) > 15000
    for line in lines:
        assert line in out.splitlines()


@has_digit_limit
# capsys is read out after every run and the file is rewritten, so the
# function-scoped fixtures are safe to share between examples
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_round_trips_with_4000_to_5000_digit_weights(capsys, tmp_path, n, seed):
    # random weights far above the default int/str digit limit; the
    # library never converts them to decimal
    rng = random.Random(seed)
    q = (0,)
    while gcd(*q) != 1:
        q = tuple(rng.randrange(10 ** 3999, 10 ** 5000) for _ in range(n + 1))
    weights = WeightsVector(q)
    default = sys.int_info.default_max_str_digits
    with digit_limit(default):
        fan = canonical_fan(weights)
        assert recognize_fan(fan.v) == fan
        assert fan.weights == weights
        polarized, _ = recognize_polytope(polytope_of(weights))
        assert polarized.weights == reduce_weights(weights)
        assert polarized.polarization == 1

        text = unlimited(lambda: ",".join(map(str, q)))
        code, out, err = run_at_default_limit(capsys, "--json", "fan", "--weights", text,
                                              "--canonical")
        assert code == 0, err
        path = tmp_path / "fan.json"
        path.write_text(out)
        code, out, err = run_at_default_limit(capsys, "--json", "recognize-fan",
                                              "--matrix", str(path))
        assert code == 0, err
        assert json.loads(out) == unlimited(fan.to_json)
        assert json.loads(out)["weights"] == text.split(",")
        assert sys.get_int_max_str_digits() == default


@has_digit_limit
def test_polytope_round_trips_through_the_cli_with_20000_digit_weights(capsys, tmp_path):
    # both polytope legs at n = 3: the weighted transverse of the canonical
    # fan, and its recognition back to the canonical fan of the reduced weights
    rng = random.Random(20003)
    q = (0,)
    while gcd(*q) != 1:
        q = tuple(rng.randrange(10 ** 19999, 10 ** 20000) for _ in range(4))
    text = unlimited(lambda: ",".join(map(str, q)))
    code, out, err = run_at_default_limit(capsys, "--json", "polytope", "--weights", text)
    assert code == 0, err
    path = tmp_path / "simplex.json"
    path.write_text(out)
    code, out, err = run_at_default_limit(capsys, "--json", "recognize-polytope",
                                          "--vertices", str(path))
    assert code == 0, err
    payload = json.loads(out)
    reduced = reduce_weights(WeightsVector(q))
    assert payload["m"] == "1"
    assert payload["weights"] == unlimited(reduced.to_json)
    assert payload["fan"] == unlimited(canonical_fan(reduced).to_json)


@has_digit_limit
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fan_round_trips_with_20000_digit_weights(capsys, tmp_path, n):
    # one 66,000-bit modular inverse per canonical fan, which the polytope
    # leg builds too
    rng = random.Random(20000 + n)
    q = (0,)
    while gcd(*q) != 1:
        q = tuple(rng.randrange(10 ** 19999, 10 ** 20000) for _ in range(n + 1))
    weights = WeightsVector(q)
    default = sys.int_info.default_max_str_digits
    with digit_limit(default):
        fan = canonical_fan(weights)
        assert recognize_fan(fan.v) == fan
        assert fan.weights == weights
        polarized, refan = recognize_polytope(polytope_of(weights))
        assert polarized.weights == reduce_weights(weights)
        assert polarized.polarization == 1
        assert refan == (fan if polarized.weights == weights
                         else canonical_fan(polarized.weights))

        text = unlimited(lambda: ",".join(map(str, q)))
        code, out, err = run_at_default_limit(capsys, "--json", "fan", "--weights", text,
                                              "--canonical")
        assert code == 0, err
        path = tmp_path / "fan.json"
        path.write_text(out)
        code, out, err = run_at_default_limit(capsys, "--json", "recognize-fan",
                                              "--matrix", str(path))
        assert code == 0, err
        assert json.loads(out) == unlimited(fan.to_json)
        assert json.loads(out)["weights"] == text.split(",")


@has_digit_limit
def test_huge_non_coprime_minors_are_named_by_bit_length():
    # 6,001-digit minors: under the default int/str digit limit a decimal
    # message would raise a plain ValueError in place of the rejection
    d = 10 ** 3000
    with digit_limit(sys.int_info.default_max_str_digits), pytest.raises(FanRejection) as exc:
        recognize_fan(IntMatrix.from_rows([[2 * d, 0, -2 * d], [0, 2 * d, -2 * d]]))
    assert exc.value.code == "non-coprime-minors"
    big = "<19934-bit integer>"
    assert str(exc.value) == f"maximal minors ({big}, {big}, {big}) have gcd {big}"
    # minors of up to 60 digits are still written in decimal
    with pytest.raises(FanRejection) as exc:
        recognize_fan(IntMatrix.from_rows([[2 * 10 ** 29, 0, -2], [0, 2 * 10 ** 30, -2]]))
    assert str(exc.value) == (f"maximal minors ({4 * 10 ** 30}, {4 * 10 ** 29}, "
                              f"{4 * 10 ** 59}) have gcd {4 * 10 ** 29}")


@has_digit_limit
def test_huge_non_coprime_minors_give_a_short_rejection(capsys, tmp_path):
    # 3,001-digit entries, so the minors have 6,001 digits: past the
    # default limit, and 24 KB per message if printed in decimal
    d = "2" + "0" * 3000
    path = tmp_path / "fan.json"
    path.write_text(f"[[{d}, 0, -{d}], [0, {d}, -{d}]]")
    code, out, err = run_at_default_limit(capsys, "--json", "recognize-fan", "--matrix",
                                          str(path))
    assert code == 1
    assert len(err.splitlines()) == 1 and len(err) < 2048
    assert err.startswith("rejected: maximal minors (<19934-bit integer>, ")
    assert len(out) < 2048 and json.loads(out)["code"] == "non-coprime-minors"


# ---------------------------------------------------------------------------
# robustness at the boundary: random malformed and huge payloads

ODD_ENTRIES = ("true", "false", "null", "NaN", "Infinity", "-Infinity", "1.5", "1e400",
               '"7"', '"x"', "[]", "{}")
ODD_FILES = (b"", b"{", b"[1,,2]", b"5", b'"text"', b"null", b"true", b"{}", b"[]",
             b"[[]]", b"\xff\xfe", b'{"columns": 5}', b'{"vertices": [[], []]}')


def fuzz_matrix(rng):
    # mostly the shapes the two subcommands read (n x (n+1) rows, or n+1
    # columns or vertices of length n), sometimes ragged or any shape
    n = rng.randint(1, 3)
    rows, width = rng.choice(((n, n + 1), (n + 1, n), (rng.randint(0, 4), rng.randint(0, 4))))
    huge, odd = rng.random() < 0.3, rng.random() < 0.3

    def entry():
        if odd and rng.random() < 0.3:
            return rng.choice(ODD_ENTRIES)
        if huge and rng.random() < 0.5:     # 10,000 digits, written without converting
            return rng.choice(("", "-")) + "".join(rng.choices("123456789", k=10_000))
        return str(rng.randint(-6, 6))

    lines = []
    for _ in range(rows):
        w = width if rng.random() < 0.9 else rng.randint(0, 4)
        lines.append("[" + ", ".join(entry() for _ in range(w)) + "]")
    return "[" + ", ".join(lines) + "]"


def fuzz_payload(rng) -> bytes:
    m = fuzz_matrix(rng)
    text = rng.choice((m, '{"columns": %s}' % m, '{"vertices": %s}' % m, '{"rows": %s}' % m,
                       m[:rng.randint(0, len(m))]))
    return text.encode() if rng.random() < 0.9 else rng.choice(ODD_FILES)


def test_random_payloads_exit_cleanly(capsys, tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "payload.json"
    seen = set()
    for _ in range(150):
        data = fuzz_payload(rng)
        path.write_bytes(data)
        for subcommand, flag in (("recognize-fan", "--matrix"),
                                 ("recognize-polytope", "--vertices")):
            argv = ("--json",) if rng.random() < 0.5 else ()
            code, out, err = run(capsys, *argv, subcommand, flag, str(path))
            assert code in (0, 1, 2), (data[:200], err[:500])
            if code == 0:
                assert out and err == ""
            else:
                lines = err.splitlines()
                assert len(lines) == 1, (data[:200], err[:500])
                assert lines[0].startswith(("error: ", "rejected: "))
            seen.add(code)
    assert seen == {0, 1, 2}
