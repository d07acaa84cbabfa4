"""No API that only tests use: every public top-level name a library module
defines, and every public method, classmethod or property of its classes, is
read by some code of the library or the benchmark.

A top-level name counts as read where the AST of `src/` or `bench/` code
(outside any `tests` directory) holds it as a loaded `Name` or as an
`Attribute`, so imports, docstrings, comments and strings do not count.  A
method counts as read only as an `Attribute` (`x.name`), so a local variable
of the same name does not hide it."""

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


def _methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef))


def _read(tree):
    """(the names loaded as a `Name`, the names read as an `Attribute`)."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def unread_public_names(root: Path, package: str) -> list[str]:
    """`module.name` for each public top-level name of src/<package>/*.py,
    but __init__, that no src/ or bench/ code outside tests reads, and
    `module.Class.name` for each public method that none reads as an
    attribute."""
    code = [path for top in ("src", "bench") for path in (root / top).rglob("*.py")
            if "tests" not in path.relative_to(root).parts]
    names, attributes = set(), set()
    for path in code:
        n, a = _read(ast.parse(path.read_text()))
        names |= n
        attributes |= a
    unread = []
    for path in (root / "src" / package).glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        unread += [f"{path.stem}.{name}" for name in _defined(tree)
                   if not name.startswith("_")
                   and name not in names | attributes]
        unread += [f"{path.stem}.{cls}.{name}" for cls, name in _methods(tree)
                   if not name.startswith("_") and name not in attributes]
    return sorted(unread)


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
                           "class Shape:\n"
                           "    def area(self): pass\n"
                           "    @property\n"
                           "    def tested(self): pass\n"
                           "    @classmethod\n"
                           "    def local(cls): pass\n"
                           "    def _hidden(self): pass\n",
        "bench/run.py": "import pkg\npkg.used()\nx: pkg.Shape\n"
                        "local = 1\nprint(local, x.area())\n",
        "bench/tests/test_b.py": "import pkg\npkg.unused()\n",
        "tests/test_a.py": "from pkg.core import OTHER, unused\nunused()\n"
                           "pkg.core.Shape().tested\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unread_public_names(tmp_path, "pkg") == [
        "core.OTHER", "core.Shape.local", "core.Shape.tested", "core.unused"]
