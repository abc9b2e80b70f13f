import ast
from pathlib import Path

import realsnf


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from realsnf import *", namespace)
    assert set(realsnf.__all__) <= namespace.keys()


def test_no_assert_statements_in_the_package():
    """Invariants must still be checked under `python -O`, which strips asserts."""
    package = Path(realsnf.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
