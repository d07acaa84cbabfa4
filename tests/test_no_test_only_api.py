"""No API that only tests use: every public top-level name a library module
defines, and every public method, classmethod or property of its classes, is
read by some code of the library or the benchmark, and every defaulted
parameter of its public functions and methods is passed by some of that code.

A top-level name counts as read where the AST of `src/` or `bench/` code
(outside any `tests` directory) holds it as a loaded `Name` or as an
`Attribute`, so imports, docstrings, comments and strings do not count.  A
method counts as read only as an `Attribute` (`x.name`), so a local variable
of the same name does not hide it.  A parameter counts as passed where a
call in that code, to any function of the same name, passes it by position
or by keyword; a call with `*args` or `**kwargs` passes every parameter."""

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


def _code(root):
    """The ASTs of the src/ and bench/ files outside any tests directory."""
    return [ast.parse(path.read_text())
            for top in ("src", "bench") for path in (root / top).rglob("*.py")
            if "tests" not in path.relative_to(root).parts]


def _modules(root, package):
    """(module name, AST) for each src/<package>/*.py but __init__."""
    return [(path.stem, ast.parse(path.read_text()))
            for path in (root / "src" / package).glob("*.py")
            if path.name != "__init__.py"]


def unread_public_names(root: Path, package: str) -> list[str]:
    """`module.name` for each public top-level name of src/<package>/*.py,
    but __init__, that no src/ or bench/ code outside tests reads, and
    `module.Class.name` for each public method that none reads as an
    attribute."""
    names, attributes = set(), set()
    for tree in _code(root):
        n, a = _read(tree)
        names |= n
        attributes |= a
    unread = []
    for module, tree in _modules(root, package):
        unread += [f"{module}.{name}" for name in _defined(tree)
                   if not name.startswith("_")
                   and name not in names | attributes]
        unread += [f"{module}.{cls}.{name}" for cls, name in _methods(tree)
                   if not name.startswith("_") and name not in attributes]
    return sorted(unread)


def _defaulted(tree):
    """(function name, its defaulted parameters as (position, name)) for
    each public top-level function and public method.  A position counts
    the arguments a call writes, so a method's self or cls is not one (the
    library has no staticmethod), and a keyword-only parameter has none."""
    functions = [(node, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(m, 1) for m in node.body
                          if isinstance(m, ast.FunctionDef)]
    for fn, implicit in functions:
        if fn.name.startswith("_"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        params = [(k - implicit, a.arg) for k, a in enumerate(positional)
                  if k >= first]
        params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                 fn.args.kw_defaults) if d]
        yield fn.name, params


def _passed(trees):
    """{called name: (most positional arguments, keywords)} over the calls
    in trees, with positional arguments infinite for a call that passes
    *args or **kwargs."""
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        count, keywords = calls.get(name, (0, set()))
        spread = any(isinstance(a, ast.Starred) for a in node.args) or \
            any(k.arg is None for k in node.keywords)
        calls[name] = (float("inf") if spread else max(count, len(node.args)),
                       keywords | {k.arg for k in node.keywords})
    return calls


def unpassed_parameters(root: Path, package: str) -> set[str]:
    """`module.function(parameter)` for each defaulted parameter of a
    public function or method of src/<package>/*.py, but __init__, that no
    call in src/ or bench/ code outside tests passes, by position or by
    keyword.  Calls are matched by the called name alone, and a call with
    *args or **kwargs passes every parameter."""
    calls = _passed(_code(root))
    unpassed = set()
    for module, tree in _modules(root, package):
        for name, params in _defaulted(tree):
            count, keywords = calls.get(name, (0, set()))
            unpassed |= {f"{module}.{name}({param})" for k, param in params
                         if param not in keywords
                         and (k is None or k >= count)}
    return unpassed


# defaulted parameters that no library or benchmark code passes yet, each
# with the reason it stays
UNPASSED_ON_PURPOSE = {
    "principalize.principalize(cap)":
        "the tower's blow-up budget; ROADMAP item 4 replaces it with a work "
        "budget that the CLI passes",
}


def test_every_public_name_is_read_outside_the_tests():
    assert unread_public_names(ROOT, "monomial_segre") == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert unpassed_parameters(ROOT, "monomial_segre") == \
        set(UNPASSED_ON_PURPOSE)


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


def test_the_guard_finds_a_parameter_only_tests_pass(tmp_path):
    files = {
        "src/pkg/__init__.py": "",
        "src/pkg/core.py": "def tested(a, flag=False): pass\n"
                           "def by_keyword(a, *, width=1): pass\n"
                           "def by_position(a, b=2, c=3): pass\n"
                           "def spread(a, d=4): pass\n"
                           "def _private(a, e=5): pass\n"
                           "class Shape:\n"
                           "    def scale(self, k=1, m=2): pass\n",
        "src/pkg/use.py": "from .core import by_position, spread\n"
                          "by_position(0, 1)\n"
                          "args = (0, 4)\n"
                          "spread(*args)\n",
        "bench/run.py": "import pkg\n"
                        "pkg.core.by_keyword(0, width=2)\n"
                        "pkg.core.Shape().scale(3)\n",
        "tests/test_a.py": "from pkg.core import Shape, by_position, tested\n"
                           "tested(0, flag=True)\n"
                           "by_position(0, 1, 2)\n"
                           "Shape().scale(1, 2)\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unpassed_parameters(tmp_path, "pkg") == {
        "core.tested(flag)", "core.by_position(c)", "core.scale(m)"}
