import ast
from pathlib import Path

import wps
import wps.fan
import wps.linalg
import wps.polytope

TESTS = Path(__file__).parent


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
    assert methods_of(wps.linalg, "IntMatrix") == [
        "__post_init__", "from_rows", "is_square", "column",
        "delete_column", "__matmul__", "det", "entry_gcd"]


def methods_of(module, name: str) -> list[str]:
    """The methods, dunders included, that class ``name`` of ``module`` defines."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
    return [node.name for node in cls.body if isinstance(node, ast.FunctionDef)
            and (not node.name.startswith("_") or node.name.endswith("__"))]


def test_fan_and_simplex_define_only_what_answers_use():
    # as for IntMatrix: a method that only tests call belongs in the tests
    assert methods_of(wps.fan, "FanMatrix") == ["__post_init__", "n"]
    assert methods_of(wps.polytope, "LatticeSimplex") == ["__post_init__", "n", "edge_matrix"]


def test_oracles_import_no_private_name_of_the_library():
    # the oracles re-derive what the library computes, so they use only
    # its public names: no elimination kernel, no private helper
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "wps" for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]


def test_readme_library_block_runs():
    # CI runs every wps line of README's CLI block; this runs its Python
    # block, whose last line states its value in a comment
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    code, _, value = block.strip().splitlines()[-1].partition("#")
    assert eval(code, namespace) == int(value) == 3


def test_only_the_cli_reads_and_writes_text():
    # the library takes and returns ints; the text and JSON formats, and
    # the one rule for reading an integer, belong to wps.cli
    writers = {"parse", "to_json", "from_json", "from_json_rows", "matrix_from_json", "__str__"}
    for path in sorted(Path(wps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert ("json" in imported) == (path.name == "cli.py"), path.name
        defined = [f"{cls.name}.{fn.name}" for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name in writers]
        assert not defined, f"text readers or writers in {path.name}: {defined}"
