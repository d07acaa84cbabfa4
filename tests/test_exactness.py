"""The computing modules use exact integer arithmetic only: no true division,
no float literal, and no float, Fraction or Decimal.  The one exemption is
the wall-clock field `CheckResult.seconds`, which times a check and feeds no
coefficient."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monomial_segre"
EXACT_MODULES = ("lattice", "polytope", "series", "chow", "principalize",
                 "segre")
INEXACT_NAMES = {"float", "Fraction", "Decimal"}
INEXACT_MODULES = {"fractions", "decimal"}


def timing_field(tree):
    """The annotated `seconds` field of class CheckResult, if any."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CheckResult":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        getattr(stmt.target, "id", None) == "seconds":
                    return stmt
    return None


def inexact_nodes(tree):
    exempt = timing_field(tree)
    skipped = set(map(id, ast.walk(exempt))) if exempt else set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in INEXACT_NAMES:
            yield node, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in INEXACT_NAMES:
            yield node, f"attribute {node.attr}"
        elif isinstance(node, ast.alias) and \
                node.name in INEXACT_NAMES | INEXACT_MODULES:
            yield node, f"import of {node.name}"
        elif isinstance(node, ast.ImportFrom) and \
                node.module in INEXACT_MODULES:
            yield node, f"import from {node.module}"


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_module_uses_exact_arithmetic_only(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = [f"line {node.lineno}: {what}"
             for node, what in inexact_nodes(tree)]
    assert found == []


def test_the_checks_see_what_they_forbid():
    tree = ast.parse("import fractions\nfrom decimal import Decimal\n"
                     "a = b / c\na /= 2\nx = 0.5\ny = float(1)\n"
                     "z = fractions.Fraction(1, 2)\nw = a // b\n")
    assert sorted(what for _, what in inexact_nodes(tree)) == sorted([
        "import of fractions", "import from decimal", "import of Decimal",
        "true division", "true division", "float literal 0.5", "name float",
        "attribute Fraction"])
    # the timing field is exempt, and so is nothing else in its class
    tree = ast.parse("class CheckResult:\n    seconds: float = 0.0\n"
                     "    other: float = 0.0\n")
    assert sorted(what for _, what in inexact_nodes(tree)) == \
        ["float literal 0.0", "name float"]
