import ast
from pathlib import Path

import wps
import wps.linalg


def test_public_names_are_pinned():
    # test-only derivations live in tests/oracles.py and are not exported
    assert wps.__all__ == [
        "IntMatrix", "SingularMatrixError", "DimensionError",
        "is_hnf", "max_minors",
        "WeightsVector", "ReductionData", "reduction_data", "reduce_weights",
        "is_reduced", "isomorphic",
        "FanMatrix", "FanRejection", "recognize_fan",
        "canonical_fan", "fan_isomorphic", "permutation_matrix",
        "LatticeSimplex", "PolarizedWps", "PolytopeRejection",
        "weighted_transverse", "polytope_of", "is_p_admissible", "recognize_polytope",
        "permute_polytope",
        "count_points", "count_interior", "face_histogram",
        "DivisorClassInfo", "HodgeTable", "divisor_info", "rational_homology",
        "h0_line_bundle", "hodge", "hodge_table",
    ]
    assert all(hasattr(wps, name) for name in wps.__all__)


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so every self-check raises
    # AssertionError explicitly and the CLI still reports it as exit 3
    for path in sorted(Path(wps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"assert statements in {path.name} at lines {lines}"


def test_linalg_defines_only_what_answers_use():
    # a helper that no answer calls belongs in tests/oracles.py; the
    # IntMatrix methods include its operators, so a dead one shows too
    tree = ast.parse(Path(wps.linalg.__file__).read_text(encoding="utf-8"))
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert [node.name for node in defs] == [
        "SingularMatrixError", "DimensionError", "IntMatrix", "is_hnf", "max_minors"]
    int_matrix = next(node for node in defs if node.name == "IntMatrix")
    methods = [node.name for node in int_matrix.body if isinstance(node, ast.FunctionDef)
               and (not node.name.startswith("_") or node.name.endswith("__"))]
    assert methods == [
        "__post_init__", "from_rows", "is_square", "column", "transpose",
        "delete_column", "__matmul__", "det", "entry_gcd", "from_json_rows", "__str__"]
