import ast
from pathlib import Path

import realsnf


def test_public_names():
    assert sorted(realsnf.__all__) == sorted([
        "Conclusion", "CounterexampleRecipe", "INTEGERS", "Matrix",
        "PsdReport", "QuadElem", "RATIONAL_POLYNOMIALS", "RatPoly",
        "RingFamily", "RingSpec", "SignPattern", "SnfResult", "SplitMix64", "SturmChain",
        "TheoremReport", "TrialConfig", "are_associated", "build_counterexample",
        "builtin_counterexample_recipe", "check_valuation_lemma",
        "determinant", "element_is_nonneg", "fundamental_unit", "gcd", "is_nonneg_on_reals",
        "is_psd_on_spectrum", "is_real_irreducible", "minor_gcd_profile", "parse_ring",
        "pnri_holds", "quadratic_ring", "random_psd_matrix", "run_property_suite",
        "smith_normal_form", "squarefree_decomposition", "sturm_chain", "valuation",
        "verify_main_theorem", "verify_snf",
    ])
    assert len(realsnf.__all__) == 39


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from realsnf import *", namespace)
    assert set(realsnf.__all__) <= namespace.keys()


def test_no_assert_statements_in_the_package():
    """Invariants must still be checked under `python -O`, which strips asserts.
    That holds for the test helpers too: a test input built on a broken
    invariant would pass unnoticed there."""
    package = Path(realsnf.__file__).parent
    helpers = Path(__file__).parent / "helpers.py"
    found = [
        f"{path.name}:{node.lineno}"
        for path in [*sorted(package.glob("**/*.py")), helpers]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
