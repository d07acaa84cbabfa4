"""No API that only tests use: every public top-level name a library module
defines is read by some code of the library or the benchmark.

A name counts as read where the AST of `src/` or `bench/` code (outside any
`tests` directory) holds it as a loaded `Name` or as an `Attribute`, so
imports, docstrings, comments and strings do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unread_public_names(root: Path, package: str) -> list[str]:
    """`module.name` for each public top-level name of src/<package>/*.py,
    but __init__, that no src/ or bench/ code outside tests reads."""
    code = [path for top in ("src", "bench") for path in (root / top).rglob("*.py")
            if "tests" not in path.relative_to(root).parts]
    read = {name for path in code
            for name in _read(ast.parse(path.read_text()))}
    return sorted(
        f"{path.stem}.{name}"
        for path in (root / "src" / package).glob("*.py")
        if path.name != "__init__.py"
        for name in _defined(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in read)


def test_every_public_name_is_read_outside_the_tests():
    assert unread_public_names(ROOT, "monomial_segre") == []


def test_the_guard_finds_a_name_only_tests_read(tmp_path):
    files = {
        "src/pkg/__init__.py": "from .core import used, unused\n",
        "src/pkg/core.py": '"""`unused` is named here, in a docstring."""\n'
                           "LIMIT: int = 3\n"
                           "OTHER = 'unused'\n"
                           "def used(): return LIMIT\n"
                           "def unused(): pass\n"
                           "def _private(): pass\n"
                           "class Shape: pass\n",
        "bench/run.py": "import pkg\npkg.used()\nx: pkg.Shape\n",
        "bench/tests/test_b.py": "import pkg\npkg.unused()\n",
        "tests/test_a.py": "from pkg.core import OTHER, unused\nunused()\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unread_public_names(tmp_path, "pkg") == ["core.OTHER", "core.unused"]
