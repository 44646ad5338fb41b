import ast
from pathlib import Path

import wps


def test_public_names_are_pinned():
    # test-only derivations live in tests/oracles.py and are not exported
    assert wps.__all__ == [
        "IntMatrix", "SingularMatrixError", "DimensionError",
        "is_hnf", "max_minors", "adjoint", "what_matrix",
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
