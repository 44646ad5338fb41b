import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wps.cli
import wps.lattice
import wps.linalg
import wps.weights
from wps.cli import _fan_payload, _ints, _simplex_payload, main
from wps.cohomology import divisor_info
from wps.fan import FanRejection, canonical_fan, recognize_fan
from wps.lattice import count_points
from wps.linalg import IntMatrix
from wps.polytope import PolarizedWps, polytope_of, recognize_polytope
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


# answers pinned byte for byte as `wps` prints them, in text or with --json:
# the canonical fan and the worked polytope first, then the lattice counts,
# then the key-value answers; a file argument names a file in {dir}
TEXT, JSON = (), ("--json",)

# the worked polytope at m = 2, which recognition reads back
POLYTOPE_2_3_4_15_25_M2 = (
    '{"vertices": [["0", "0", "0", "0"], ["200", "0", "0", "-100"], ["0", "150", "0", "0"], '
    '["0", "0", "40", "-20"], ["0", "0", "0", "12"]]}')

# 4,096-bit weights (x, x + 1, x + 2) with x = 2^4096: the outer two share
# only the factor 2, so d = (1, 2, 1) and a = 2, and the reduced weights
# (y, 2y + 1, y + 1) with y = x / 2 are pairwise coprime, so
# delta' = y (2y + 1) (y + 1) = delta / 2; their chow generator is (-2, 1, 0)
BIG3_Y = 2 ** 4095
BIG3 = (2 * BIG3_Y, 2 * BIG3_Y + 1, 2 * BIG3_Y + 2)
BIG3_ARG = ",".join(map(str, BIG3))
BIG3_REDUCED = (BIG3_Y, 2 * BIG3_Y + 1, BIG3_Y + 1)
BIG3_DELTA_RED = BIG3_Y * (2 * BIG3_Y + 1) * (BIG3_Y + 1)
BIG3_DEGREE = Fraction(-sum(BIG3_REDUCED), BIG3_DELTA_RED)

PINNED_ANSWERS = [
    pytest.param(
        JSON, ("fan", "--weights", "2,3,4,15,25", "--canonical"),
        '{"columns": [["-14", "-2", "-20", "-25"], ["1", "0", "0", "0"], ["0", "1", "0", "0"], '
        '["0", "0", "1", "0"], ["1", "0", "1", "2"]], "n": 4, "weights": ["2", "3", "4", "15", "25"]}',
        id="fan-2,3,4,15,25"),
    # every pivot 2 and every entry above the diagonal a nonzero residue
    pytest.param(
        JSON, ("fan", "--canonical", "--weights", "8,3,6,4"),
        '{"columns": [["-2", "-2", "-1"], ["2", "0", "0"], ["1", "2", "0"], ["1", "1", "2"]], '
        '"n": 3, "weights": ["8", "3", "6", "4"]}',
        id="fan-8,3,6,4"),
    pytest.param(
        JSON, ("polytope", "--weights", "2,3,4,15,25", "-m", "2"), POLYTOPE_2_3_4_15_25_M2,
        id="polytope-2,3,4,15,25-m2"),
    # the face histogram and its total
    pytest.param(
        JSON, ("lattice-points", "--weights", "2,3,4,15,25", "-m", "3", "--histogram"),
        '{"count": "3380287", "histogram": {"0": "5", "1": "596", "2": "33346", "3": "627910", '
        '"4": "2718430"}, "m": "3", "weights": ["2", "3", "4", "15", "25"]}',
        id="histogram-2,3,4,15,25-m3"),
    pytest.param(
        TEXT, ("lattice-points", "--weights", "2,3,4,15,25", "-m", "3", "--histogram"),
        "lattice points   3380287\n  face dim 0: 5\n  face dim 1: 596\n  face dim 2: 33346\n"
        "  face dim 3: 627910\n  face dim 4: 2718430",
        id="histogram-2,3,4,15,25-m3-text"),
    pytest.param(
        TEXT, ("lattice-points", "--weights", "2,3,4,15,25", "-m", "3", "--interior"),
        "interior points  2718430",
        id="interior-2,3,4,15,25-m3-text"),
    # the totals, read off L(-k..k) of one table: even n, then odd n
    pytest.param(
        JSON, ("lattice-points", "--weights", "24,33,728,5005", "-m", "2"),
        '{"count": "830238", "m": "2", "weights": ["24", "33", "728", "5005"]}',
        id="count-24,33,728,5005-m2"),
    pytest.param(
        JSON, ("lattice-points", "--weights", "24,33,728,5005", "-m", "2", "--interior"),
        '{"interior": "772336", "m": "2", "weights": ["24", "33", "728", "5005"]}',
        id="interior-24,33,728,5005-m2"),
    pytest.param(
        JSON, ("lattice-points", "--weights", "7,11,13,17,19", "-m", "9"),
        '{"count": "9240353679987116863", "m": "9", "weights": ["7", "11", "13", "17", "19"]}',
        id="count-7,11,13,17,19-m9"),
    pytest.param(
        JSON, ("lattice-points", "--weights", "7,11,13,17,19", "-m", "9", "--interior"),
        '{"interior": "9239502690332789701", "m": "9", "weights": ["7", "11", "13", "17", "19"]}',
        id="interior-7,11,13,17,19-m9"),
    # the face counts, read off H_s(-k..k) of one table: even n, odd n, odd n
    pytest.param(
        JSON, ("lattice-points", "--weights", "24,33,728,5005", "-m", "2", "--histogram"),
        '{"count": "830238", "histogram": {"0": "4", "1": "1048", "2": "56850", "3": "772336"}, '
        '"m": "2", "weights": ["24", "33", "728", "5005"]}',
        id="histogram-24,33,728,5005-m2"),
    pytest.param(
        JSON, ("lattice-points", "--weights", "7,11,13,17,19", "-m", "9", "--histogram"),
        '{"count": "9240353679987116863", "histogram": {"0": "5", "1": "199880", '
        '"2": "22915217800", "3": "850966738909477", "4": "9239502690332789701"}, "m": "9", '
        '"weights": ["7", "11", "13", "17", "19"]}',
        id="histogram-7,11,13,17,19-m9"),
    pytest.param(
        JSON, ("lattice-points", "--weights", "2,3,5,6,50,100", "-m", "9", "--histogram"),
        '{"count": "1543685179", "histogram": {"0": "6", "1": "2118", "2": "386093", '
        '"3": "26780457", "4": "381676074", "5": "1134840431"}, "m": "9", '
        '"weights": ["2", "3", "5", "6", "50", "100"]}',
        id="histogram-2,3,5,6,50,100-m9"),
    # the face numerator packed in 2-byte fields for ten ones,
    # H_s(m) = C(10, s + 1) C(m - 1, s)
    pytest.param(
        JSON, ("lattice-points", "--weights", ",".join(["1"] * 10), "-m", "7", "--histogram"),
        json.dumps({"count": "11440", "histogram": {"0": "10", "1": "270", "2": "1800",
                                                    "3": "4200", "4": "3780", "5": "1260",
                                                    "6": "120"},
                    "m": "7", "weights": ["1"] * 10}),
        id="histogram-ten-ones-m7"),
    # a cut numerator: sum q' = 22 is past k delta' + 1 = 11; the values are the oracle's
    pytest.param(
        JSON, ("lattice-points", "--weights", "1,1,10,10", "-m", "5", "--histogram"),
        '{"count": "371", "histogram": {"0": "4", "1": "69", "2": "204", "3": "94"}, "m": "5", '
        '"weights": ["1", "1", "10", "10"]}',
        id="histogram-1,1,10,10-m5"),
    # counts past 8 bytes: 40 ones and a 2 at m = 25 pack the table in
    # 12-byte fields; the count is sum_(y=0..25) C(89 - 2y, 39)
    pytest.param(
        JSON, ("lattice-points", "--weights", ",".join(["1"] * 40 + ["2"]), "-m", "25"),
        json.dumps({"count": "38444538240310903521197806", "m": "25",
                    "weights": ["1"] * 40 + ["2"]}),
        id="count-forty-ones-and-a-two-m25"),
    # the key-value answers: the reduction data, divisor classes and the
    # yes/no tests, then polytope recognition of the m = 2 worked polytope
    pytest.param(
        TEXT, ("reduce", "--weights", "2,4,6"),
        "weights       (1,2,3)\nd             (1,1,1)\na_coeffs      (1,1,1)\na             1\n"
        "delta         6\ndelta'        6\nreduced       (1,2,3)",
        id="reduce-2,4,6-text"),
    pytest.param(
        JSON, ("reduce", "--weights", "2,4,6"),
        '{"a": "1", "a_coeffs": ["1", "1", "1"], "d": ["1", "1", "1"], "delta": "6", '
        '"delta_reduced": "6", "is_reduced": true, "reduced": ["1", "2", "3"], '
        '"weights": ["1", "2", "3"]}',
        id="reduce-2,4,6-json"),
    pytest.param(
        TEXT, ("reduce", "--weights", "2,3,4,15,25"),
        "weights       (2,3,4,15,25)\nd             (1,1,1,1,1)\na_coeffs      (1,1,1,1,1)\n"
        "a             1\ndelta         300\ndelta'        300\nreduced       (2,3,4,15,25)",
        id="reduce-2,3,4,15,25-text"),
    pytest.param(
        JSON, ("reduce", "--weights", "2,3,4,15,25"),
        '{"a": "1", "a_coeffs": ["1", "1", "1", "1", "1"], "d": ["1", "1", "1", "1", "1"], '
        '"delta": "300", "delta_reduced": "300", "is_reduced": true, '
        '"reduced": ["2", "3", "4", "15", "25"], "weights": ["2", "3", "4", "15", "25"]}',
        id="reduce-2,3,4,15,25-json"),
    pytest.param(
        TEXT, ("reduce", "--weights", BIG3_ARG),
        f"weights       ({BIG3_ARG})\nd             (1,2,1)\na_coeffs      (2,1,2)\n"
        f"a             2\ndelta         {2 * BIG3_DELTA_RED}\ndelta'        {BIG3_DELTA_RED}\n"
        f"reduced       ({','.join(map(str, BIG3_REDUCED))})",
        id="reduce-4096-bit-text"),
    pytest.param(
        JSON, ("reduce", "--weights", BIG3_ARG),
        json.dumps({"a": "2", "a_coeffs": ["2", "1", "2"], "d": ["1", "2", "1"],
                    "delta": str(2 * BIG3_DELTA_RED), "delta_reduced": str(BIG3_DELTA_RED),
                    "is_reduced": False, "reduced": list(map(str, BIG3_REDUCED)),
                    "weights": list(map(str, BIG3))}),
        id="reduce-4096-bit-json"),
    pytest.param(
        TEXT, ("divisors", "--weights", "2,3,4,15,25"),
        "chow generator    (-1,1,0,0,0)\npicard index      300\ncanonical degree  -49/300\n"
        "gorenstein        no\nfano              no",
        id="divisors-2,3,4,15,25-text"),
    pytest.param(
        JSON, ("divisors", "--weights", "2,3,4,15,25"),
        '{"betti_even": ["1", "1", "1", "1", "1"], "canonical_degree": "-49/300", '
        '"chow_generator": ["-1", "1", "0", "0", "0"], "fano": false, "gorenstein": false, '
        '"picard_index": "300", "weights": ["2", "3", "4", "15", "25"]}',
        id="divisors-2,3,4,15,25-json"),
    pytest.param(
        TEXT, ("divisors", "--weights", BIG3_ARG),
        f"chow generator    (-2,1,0)\npicard index      {BIG3_DELTA_RED}\n"
        f"canonical degree  {BIG3_DEGREE}\ngorenstein        no\nfano              no",
        id="divisors-4096-bit-text"),
    pytest.param(
        JSON, ("divisors", "--weights", BIG3_ARG),
        json.dumps({"betti_even": ["1", "1", "1"], "canonical_degree": str(BIG3_DEGREE),
                    "chow_generator": ["-2", "1", "0"], "fano": False, "gorenstein": False,
                    "picard_index": str(BIG3_DELTA_RED), "weights": list(map(str, BIG3))}),
        id="divisors-4096-bit-json"),
    pytest.param(
        TEXT, ("gorenstein", "--weights", "1,1,2"), "gorenstein  yes\nfano        yes",
        id="gorenstein-1,1,2-text"),
    pytest.param(
        JSON, ("gorenstein", "--weights", "1,1,2"),
        '{"canonical_degree": "-2", "fano": true, "gorenstein": true, "weights": ["1", "1", "2"]}',
        id="gorenstein-1,1,2-json"),
    pytest.param(
        TEXT, ("gorenstein", "--weights", "1,1,3"), "gorenstein  no\nfano        no",
        id="gorenstein-1,1,3-text"),
    pytest.param(
        JSON, ("gorenstein", "--weights", "1,1,3"),
        '{"canonical_degree": "-5/3", "fano": false, "gorenstein": false, '
        '"weights": ["1", "1", "3"]}',
        id="gorenstein-1,1,3-json"),
    pytest.param(
        TEXT, ("iso", "--weights", "1,2,2", "--other", "1,1,1"), "isomorphic  yes",
        id="iso-yes-text"),
    pytest.param(
        JSON, ("iso", "--weights", "1,2,2", "--other", "1,1,1"),
        '{"isomorphic": true, "other": ["1", "1", "1"], "reduced": ["1", "1", "1"], '
        '"weights": ["1", "2", "2"]}',
        id="iso-yes-json"),
    pytest.param(
        TEXT, ("iso", "--weights", "1,2,2", "--other", "1,1,2"), "isomorphic  no",
        id="iso-no-text"),
    pytest.param(
        JSON, ("iso", "--weights", "1,2,2", "--other", "1,1,2"),
        '{"isomorphic": false, "other": ["1", "1", "2"], "reduced": ["1", "1", "1"], '
        '"weights": ["1", "2", "2"]}',
        id="iso-no-json"),
    pytest.param(
        TEXT, ("recognize-polytope", "--vertices", "{dir}/simplex-m2.json"),
        "weights       (2,3,4,15,25)\nsorted        (2,3,4,15,25)\npolarization  2\nfan\n"
        "-14  1  0   0   1\n -2  0  1   0   0\n-20  0  0   1   1\n-25  0  0   0   2\n"
        "-----------------\n  2  3  4  15  25",
        id="recognize-polytope-2,3,4,15,25-m2-text"),
    pytest.param(
        JSON, ("recognize-polytope", "--vertices", "{dir}/simplex-m2.json"),
        '{"fan": {"columns": [["-14", "-2", "-20", "-25"], ["1", "0", "0", "0"], '
        '["0", "1", "0", "0"], ["0", "0", "1", "0"], ["1", "0", "1", "2"]], "n": 4, '
        '"weights": ["2", "3", "4", "15", "25"]}, "m": "2", '
        '"weights": ["2", "3", "4", "15", "25"], "weights_sorted": ["2", "3", "4", "15", "25"]}',
        id="recognize-polytope-2,3,4,15,25-m2-json"),
]


@pytest.mark.parametrize("output,argv,printed", PINNED_ANSWERS)
def test_pinned_answers_byte_for_byte(capsys, tmp_path, output, argv, printed):
    (tmp_path / "simplex-m2.json").write_text(POLYTOPE_2_3_4_15_25_M2)
    argv = [a.format(dir=tmp_path) for a in argv]
    assert run(capsys, *output, *argv) == (0, printed + "\n", "")


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
                   "expected n x (n+1) with n >= 1, got 2x1\n")


@pytest.mark.parametrize("subcommand,flag,payload,what,message", [
    ("recognize-fan", "--matrix", [], "matrix", "zero-row matrix needs an explicit column count"),
    ("recognize-fan", "--matrix", [[]], "matrix", "bad shape 1x0"),
    ("recognize-fan", "--matrix", [[1, 0, 1], [0, 1]], "matrix", "ragged rows"),
    ("recognize-polytope", "--vertices", {"vertices": []}, "vertices",
     "a simplex needs at least two vertices"),
    ("recognize-polytope", "--vertices", {"vertices": [[]]}, "vertices",
     "a simplex needs at least two vertices"),
])
def test_shapeless_payloads_are_refused_where_they_are_read(capsys, tmp_path, subcommand, flag,
                                                            payload, what, message):
    # no index error, no ragged matrix and no 0-dimensional simplex
    # reaches recognition
    path = tmp_path / "shapeless.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, subcommand, flag, str(path)) == (
        2, "", f"error: bad {what} payload in {path}: {message}\n")


def test_blank_weights_are_refused_by_name(capsys):
    # not as a malformed integer ' '
    assert run(capsys, "fan", "--weights", " ") == (
        2, "", "error: bad weights ' ': empty weights list\n")


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


def test_lattice_points_histogram_holds_its_own_count(capsys, monkeypatch):
    # with --histogram the count is the histogram's sum and the interior
    # its top face, so no second counting table is built
    def no_count(q, m):
        raise AssertionError("second counting table built")

    monkeypatch.setattr(wps.cli, "count_points", no_count)
    monkeypatch.setattr(wps.cli, "count_interior", no_count)
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", "2", "--histogram")
    assert code == 0
    assert payload["count"] == "6" and payload["histogram"] == {"0": "3", "1": "3"}
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", "3", "--interior", "--histogram")
    assert code == 0
    assert payload["interior"] == "1" and payload["histogram"] == {"0": "3", "1": "6", "2": "1"}
    # no interior point: the top face is absent from the histogram
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", "2", "--interior", "--histogram")
    assert code == 0 and payload["interior"] == "0"
    code, out, _ = run(capsys, "lattice-points", "--weights", "1,1,1", "-m", "2",
                       "--histogram")
    assert code == 0
    assert out == "lattice points   6\n  face dim 0: 3\n  face dim 1: 3\n"
    m = 10 ** 9
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "1,1,1",
                                "-m", str(m), "--histogram")
    assert code == 0 and payload["count"] == str(comb(m + 2, 2))
    code, payload, _ = run_json(capsys, "lattice-points", "--weights", "2,3,4,15,25",
                                "-m", str(m), "--interior", "--histogram")
    assert code == 0
    interior = wps.lattice.count_interior(WeightsVector((2, 3, 4, 15, 25)), m)
    assert payload["interior"] == str(interior)


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


@pytest.mark.parametrize("argv,message", [
    (("lattice-points", "-m", "-1"), "dilation factor must be nonnegative"),
    (("lattice-points", "-m", "-1", "--histogram"), "dilation factor must be nonnegative"),
    (("lattice-points", "-m", "-1", "--interior"), "interior counts need m >= 1"),
    (("lattice-points", "-m", "0", "--interior"), "interior counts need m >= 1"),
    (("cohom", "--table", "--m-range", "0:2"), "bad range '0:2': expected LO..HI"),
    (("cohom", "--table", "--m-range", "0..x"),
     "bad range '0..x': invalid literal for int() with base 10: 'x'"),
    (("cohom", "--table"), "--table needs --m-range LO..HI"),
    (("cohom", "-p", "0", "-q", "0"), "cohom needs -p, -q and -m (or --table with --m-range)"),
    (("cohom", "-p", "0", "-q", "0", "-m", "1", "--m-range", "0..5"), "--m-range needs --table"),
    (("cohom", "--table", "--m-range", "1..1", "-p", "9"),
     "--table reads --m-range, not -p, -q or -m"),
    (("cohom", "--table", "--m-range", "3..1"), "empty range 3..1"),
])
def test_input_guards_exit_2(capsys, argv, message):
    command, *flags = argv
    assert run(capsys, command, "--weights", "1,1,2", *flags) == (2, "", f"error: {message}\n")


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


# one rule for every integer the CLI reads: an optional sign and ASCII
# digits, after stripping surrounding whitespace (or a JSON integer); no
# empty field, "_" separator or non-ASCII digit is read as a number
MALFORMED_TEXT = ["", "1_0", "١٠", "1.0", "0x1", "1 0", "1-", "+"]
WELL_FORMED_TEXT = [" 1", "+1", "1\t"]


@pytest.mark.parametrize("weights,reads_as", [
    ("", None), (" ", None), ("2,,3", None), ("2,3,", None), (",2,3", None), ("1_0,3", None),
    ("٢,٣", None), ("2,3.0", None), ("2, 3", "2,3"), ("+2, 3 ", "2,3")])
def test_weights_fields_are_a_sign_and_ascii_digits(capsys, weights, reads_as):
    code, out, err = run(capsys, "--json", "reduce", "--weights", weights)
    if reads_as is None:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad weights {weights!r}: ")
    else:
        assert (code, out, err) == run(capsys, "--json", "reduce", "--weights", reads_as)


JSON_ENTRIES = ([(json.dumps(x), None) for x in MALFORMED_TEXT]
                + [(json.dumps(x), "1") for x in WELL_FORMED_TEXT]
                + [("1", "1"), ("true", None), ("1.0", None), ("null", None)])


@pytest.mark.parametrize("entry,reads_as", JSON_ENTRIES)
def test_matrix_entries_are_a_sign_and_ascii_digits(capsys, tmp_path, entry, reads_as):
    # entry 1 makes a fan, and so does 10, which "1_0" used to be read as:
    # only the reader turns the malformed entries away
    path = tmp_path / "fan.json"
    path.write_text(f'{{"columns": [[{entry}, 0], [0, 1], [-1, -1]]}}')
    code, out, err = run(capsys, "--json", "recognize-fan", "--matrix", str(path))
    if reads_as is None:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad matrix payload in {path}: ")
    else:
        assert (code, json.loads(out)["weights"], err) == (0, ["1", "1", "1"], "")


@pytest.mark.parametrize("entry,reads_as", JSON_ENTRIES)
def test_vertex_entries_are_a_sign_and_ascii_digits(capsys, tmp_path, entry, reads_as):
    path = tmp_path / "simplex.json"
    path.write_text(f'{{"vertices": [[0, 0], [{entry}, 0], [0, 1]]}}')
    code, out, err = run(capsys, "--json", "recognize-polytope", "--vertices", str(path))
    if reads_as is None:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad vertices payload in {path}: ")
    else:
        assert (code, json.loads(out)["weights"], err) == (0, ["1", "1", "1"], "")


@pytest.mark.parametrize("m,reads_as", [(x, None) for x in MALFORMED_TEXT]
                         + [(x.replace("1", "3"), "3") for x in WELL_FORMED_TEXT])
def test_dilation_is_a_sign_and_ascii_digits(capsys, m, reads_as):
    argv = ("lattice-points", "--weights", "1,1,2", "-m")
    if reads_as is None:
        code, out, err = run(capsys, *argv, m)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument -m: invalid int value: {m!r}\n")
    else:
        assert run(capsys, *argv, m) == run(capsys, *argv, reads_as)


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "recognize-fan", "--matrix", "/nonexistent.json")
    assert code == 2
    assert "cannot read JSON" in err


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("usage: wps") and "invalid choice: 'frobnicate'" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--json", "divisors", "--weights", "2,3,4,15,25")
    _, second, _ = run(capsys, "--json", "divisors", "--weights", "2,3,4,15,25")
    assert first == second


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run(capsys, "--quiet", "fan", "--weights", "1,1")
    assert code == 0 and out == ""


# one call per subcommand, plus the exit-1 rejections; the files are
# written by render_calls
RENDER_CALLS = [
    ("reduce", "--weights", "2,4,15,25"),
    ("fan", "--weights", "2,3,4,15,25"),
    ("recognize-fan", "--matrix", "{dir}/fan.json"),
    ("recognize-fan", "--matrix", "{dir}/nonfan.json"),
    ("polytope", "--weights", "2,3,4,15,25", "-m", "2"),
    ("recognize-polytope", "--vertices", "{dir}/simplex.json"),
    ("recognize-polytope", "--vertices", "{dir}/triangle.json"),
    ("lattice-points", "--weights", "1,1,2", "-m", "2", "--histogram"),
    ("lattice-points", "--weights", "1,1,2", "-m", "2", "--interior"),
    ("cohom", "--weights", "1,1,2", "-p", "1", "-q", "0", "-m", "2"),
    ("cohom", "--weights", "1,1,2", "--table", "--m-range", "-1..1"),
    ("divisors", "--weights", "2,3,4,15,25"),
    ("gorenstein", "--weights", "1,1,2"),
    ("iso", "--weights", "1,2,2", "--other", "1,1,1"),
]

JSON_RENDERERS = [(wps.cli, "_fan_payload"), (wps.cli, "_simplex_payload"),
                  (wps.cli, "_table_payload"), (wps.cli, "_ints")]
HUMAN_RENDERERS = [(wps.cli, "_fmt_matrix"), (wps.cli, "_tuple"), (wps.cli, "_yes")]


@pytest.fixture
def render_calls(tmp_path, monkeypatch):
    """The calls of RENDER_CALLS, and a counter of renderer calls by mode."""
    (tmp_path / "fan.json").write_text(
        json.dumps(_fan_payload(canonical_fan(WeightsVector((2, 3, 4, 15, 25))))))
    (tmp_path / "nonfan.json").write_text(json.dumps([[1, 0, 1], [0, 1, 1]]))
    (tmp_path / "simplex.json").write_text(POLYTOPE_2_3_4_15_25)
    (tmp_path / "triangle.json").write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 3]]}))
    counts = {"json": 0, "human": 0}
    for mode, renderers in (("json", JSON_RENDERERS), ("human", HUMAN_RENDERERS)):
        for owner, name in renderers:
            def counted(*args, _f=getattr(owner, name), _mode=mode, **kwargs):
                counts[_mode] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    calls = [tuple(a.format(dir=tmp_path) for a in argv) for argv in RENDER_CALLS]
    return calls, counts


@pytest.mark.parametrize("flags,rendered", [
    ((), "human"), (("--json",), "json"), (("--quiet",), None), (("--json", "--quiet"), None)],
    ids=["human", "json", "quiet", "json-quiet"])
def test_each_answer_is_rendered_once_in_the_printed_mode(capsys, render_calls, flags,
                                                          rendered):
    calls, counts = render_calls
    used = False
    for argv in calls:
        counts.update(json=0, human=0)
        code, out, _ = run(capsys, *flags, *argv)
        if rendered is None:
            assert counts == {"json": 0, "human": 0} and out == "", argv
        else:
            assert counts["human" if rendered == "json" else "json"] == 0, argv
            used |= counts[rendered] > 0
            # a rejection prints its payload under --json and nothing otherwise
            assert bool(out) == (code == 0 or rendered == "json"), argv
        # the exit code never depends on the output mode
        code_quiet, out_quiet, _ = run(capsys, "--quiet", *argv)
        assert code == code_quiet and out_quiet == "", argv
    assert used == (rendered is not None)    # the counted renderers are the ones in use


def test_rendering_failures_keep_their_exit_codes(capsys, monkeypatch):
    # rendering runs inside the CLI's error handling: a failed check
    # while rendering is exit 3, not a traceback, and prints nothing
    def broken(fan):
        raise AssertionError("render check failed")

    monkeypatch.setattr(wps.cli, "_fan_payload", broken)
    code, out, err = run(capsys, "--json", "fan", "--weights", "2,3,4,15,25")
    assert (code, out, err) == (3, "", "internal error: render check failed\n")
    # the human text does not touch the payload, and --quiet renders nothing
    assert run(capsys, "fan", "--weights", "2,3,4,15,25")[0] == 0
    assert run(capsys, "--json", "--quiet", "fan", "--weights", "2,3,4,15,25") == (0, "", "")


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


ONE_TO_TWENTY = ",".join(map(str, range(1, 21)))


@pytest.mark.parametrize("argv,cells", [
    (("lattice-points", "--weights", ONE_TO_TWENTY, "-m", "3"), 3 * 232792560 + 1),
    (("cohom", "--weights", ONE_TO_TWENTY, "-p", "0", "-q", "0", "-m", "3"),
     3 * 232792560 + 1 + 21 * 211),     # table, n + 2 numerator rows of sum q' + 1
], ids=["lattice-points", "cohom"])
def test_a_huge_counting_table_is_bad_input_at_once(capsys, argv, cells):
    # delta' = lcm(1..20) = 232,792,560: the table is refused, not allocated
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (f"error: counting table of {cells} cells for delta' = 232792560 "
                   f"exceeds the limit of {wps.lattice._MAX_CELLS}\n")


def test_internal_error_from_the_counting_self_check(capsys, monkeypatch):
    total_samples = wps.lattice._total_samples

    def corrupted(weights, delta, k):
        samples = total_samples(weights, delta, k)
        samples[-1] += 1
        return samples

    monkeypatch.setattr(wps.lattice, "_total_samples", corrupted)
    # even n: the volume check; odd n: the volume completes the samples
    # and the facet check catches the corruption
    for weights, check in (("1,1,2", "volume"), ("2,3,5,7", "facet")):
        code, out, err = run(capsys, "lattice-points", "--weights", weights, "-m", "5")
        assert code == 3 and out == ""
        assert err.startswith(f"internal error: lattice counts fail the {check} check")


@pytest.mark.parametrize("fault", ["row", "width"])
def test_internal_error_from_the_face_numerator_check(capsys, monkeypatch, fault):
    # a corrupted numerator row, or fields one byte too narrow for ten
    # ones, fails the check at y = 1: exit 3, and no count is printed
    numerator, width = wps.lattice._numerator, wps.lattice._numerator_width

    def corrupted(weights, terms):
        rows, w = numerator(weights, terms)
        rows[1] += 1
        return rows, w

    if fault == "row":
        monkeypatch.setattr(wps.lattice, "_numerator", corrupted)
    else:
        monkeypatch.setattr(wps.lattice, "_numerator_width", lambda count: width(count) - 1)
    ones = ",".join(["1"] * 10)
    for argv in (("--json", "lattice-points", "--weights", ones, "-m", "7", "--histogram"),
                 ("cohom", "--weights", ones, "-p", "2", "-q", "0", "-m", "7")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("internal error: face numerator fails the y = 1 check"), argv


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


def test_internal_error_from_cramers_identity(capsys, monkeypatch, tmp_path):
    # a back-substituted entry off by one breaks B @ adj(B) @ v == det(B) * v,
    # which max_minors checks before it reads the minors off
    path = tmp_path / "fan.json"
    fan = canonical_fan(WeightsVector((2, 3, 4, 15, 25)))
    path.write_text(json.dumps([list(row) for row in fan.v.entries]))
    jordan = wps.linalg._jordan

    def off_by_one(a, v):
        d, x = jordan(a, v)
        return d, [x[0] + 1, *x[1:]]

    monkeypatch.setattr(wps.linalg, "_jordan", off_by_one)
    code, out, err = run(capsys, "recognize-fan", "--matrix", str(path))
    assert code == 3 and out == ""
    assert err == "internal error: maximal minors failed Cramer's identity\n"


def test_internal_error_from_the_extended_gcd_identity(capsys, monkeypatch):
    # a modular inverse off by one gives coefficients that do not sum to the gcd
    monkeypatch.setattr(wps.weights, "pow", lambda *args: pow(*args) + 1, raising=False)
    code, out, err = run(capsys, "divisors", "--weights", "2,3,5")
    assert code == 3 and out == ""
    assert err == "internal error: extended gcd combination does not sum to the gcd\n"


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
    expected = unlimited(
        lambda: _simplex_payload(polytope_of(WeightsVector(tuple(map(int, weights))))))
    assert payload == expected
    assert max(len(x.lstrip("-")) for v in payload["vertices"] for x in v) >= 5000


@has_digit_limit
def test_divisors_with_5000_digit_weights(capsys):
    code, out, err = run_at_default_limit(capsys, "divisors", "--weights", ",".join(BIG))
    assert code == 0, err
    info = unlimited(lambda: divisor_info(WeightsVector(tuple(map(int, BIG)))))
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
        assert json.loads(out) == unlimited(lambda: _fan_payload(fan))
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
    assert payload["weights"] == unlimited(lambda: _ints(reduced))
    assert payload["fan"] == unlimited(lambda: _fan_payload(canonical_fan(reduced)))


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
        assert json.loads(out) == unlimited(lambda: _fan_payload(fan))
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


def bits(x: int) -> str:
    return f"<{x.bit_length()}-bit integer>"


@has_digit_limit
def test_library_messages_name_20000_digit_values_by_bit_length():
    # under the default digit limit a decimal message would raise the
    # interpreter's ValueError in place of the library's own text
    d = 10 ** 19999
    with digit_limit(sys.int_info.default_max_str_digits):
        with pytest.raises(ValueError) as exc:
            WeightsVector((1, -d))
        assert str(exc.value) == f"weights must be positive, got (1, -{bits(d)})"
        with pytest.raises(ValueError) as exc:
            IntMatrix.from_rows([[Fraction(d + 1, 3)]])
        assert str(exc.value) == f"entry {bits(d + 1)}/3 is not an integer"
        with pytest.raises(ValueError) as exc:
            PolarizedWps(weights=WeightsVector((1, 2 * d, 2 * d + 2)), polarization=1)
        assert str(exc.value) == f"weights (1, {bits(2 * d)}, {bits(2 * d + 2)}) are not reduced"
        # pairwise coprime, so delta' is their product, a 200,000-bit integer
        q = (d, d + 1, 2 * d + 1)
        with pytest.raises(ValueError) as exc:
            count_points(WeightsVector(q), 1)
        delta = d * (d + 1) * (2 * d + 1)
        assert str(exc.value) == (f"counting table of {bits(delta + 1)} cells for delta' = "
                                  f"{bits(delta)} exceeds the limit of {wps.lattice._MAX_CELLS}")


@has_digit_limit
def test_a_counting_table_of_20000_bit_weights_is_refused_in_one_short_line(capsys):
    # the CLI lifts the digit limit, so a decimal message would print 36 KB
    weights = unlimited(lambda: ",".join(map(str, (2 ** 20000 + 1, 2 ** 20001 + 1,
                                                   2 ** 20003 + 3))))
    code, out, err = run_at_default_limit(capsys, "lattice-points", "--weights", weights,
                                          "-m", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert err.startswith("error: counting table of <60005-bit integer> cells for delta' = ")


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
