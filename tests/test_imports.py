"""Every imported name is used, every module-level private name of the
package is read somewhere in it, and every public function, class and
method of the package is read somewhere in the repository: dead-code checks
with no linter."""

import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for pattern in ("src/mirabolic/*.py", "tests/*.py")
               for p in ROOT.glob(pattern) if p.name != "__init__.py")
SRC = sorted(ROOT.glob("src/mirabolic/*.py"))
READERS = sorted(p for pattern in ("src/mirabolic/*.py", "tests/*.py",
                                   "perfbench/*.py")
                 for p in ROOT.glob(pattern))


def unused_imports(source):
    """Names bound by an import of the module source that no expression
    reads; `from __future__` imports are not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from itertools import chain, product as prod\n"
              "print(np.zeros(1), chain)\n")
    assert unused_imports(source) == [(2, "os"), (4, "prod")]


def test_no_unused_imports():
    assert FILES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in FILES
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def modules_imported(source):
    """The top-level names of the absolute modules that the source
    imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_checker_finds_imported_modules():
    source = ("import os.path\nfrom dataclasses import dataclass\n"
              "from . import qv\nfrom .linalg import bump\n")
    assert modules_imported(source) == {"os", "dataclasses"}


def test_no_dataclasses_in_the_package():
    # a dataclass decorator generates and compiles its methods at every
    # fresh import; the value types derive from decorated.Record instead
    found = [p.name for p in SRC
             if "dataclasses" in modules_imported(p.read_text("utf-8"))]
    assert not found, "modules importing dataclasses: " + ", ".join(found)


def names_read(trees):
    """Every name and attribute that the syntax trees read."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def dead_private_names(sources):
    """(file, line, name) of each module-level `_name` (function, class or
    constant) in sources, a {file: source} dict, that no source reads as a
    name or an attribute."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = names_read(trees.values())
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            found.extend((path, node.lineno, name) for name in names
                         if name.startswith("_") and not name.startswith("__")
                         and name not in read)
    return sorted(found)


def dead_public_names(sources, readers, also_read=()):
    """(file, line, name) of each public module-level function or class and
    each public method, named Class.method, in sources, a {file: source}
    dict, that no source of readers (another such dict) reads as a name or
    an attribute and that is not in also_read.  Dunder methods are called
    by the language, so they are not public names here."""
    read = names_read(ast.parse(source) for source in readers.values())
    read.update(also_read)
    found = []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}") for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            found.extend((path, n.lineno, name) for n, name in defs
                         if not n.name.startswith("_") and n.name not in read)
    return sorted(found)


def strings_in(source):
    """Every string constant of the module source."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def entry_points():
    """The function names that the console scripts of pyproject.toml call,
    read from its "module:function" strings."""
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    return set(re.findall(r'"[\w.]+:(\w+)"', text))


def test_checker_finds_dead_private_names():
    sources = {"a.py": ("_USED, _DEAD = 1, 2\n_ATTR = 3\n"
                        "def _f():\n    return _USED\n"
                        "class _Gone:\n    pass\n__all__ = []\n"),
               "b.py": "from a import _f\nimport a\nprint(_f(), a._ATTR)\n"}
    assert dead_private_names(sources) == [("a.py", 1, "_DEAD"),
                                           ("a.py", 5, "_Gone")]


def test_no_dead_private_names():
    assert SRC
    found = dead_private_names({p.relative_to(ROOT): p.read_text("utf-8")
                                for p in SRC})
    assert not found, "private names nothing reads:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in found)


def test_checker_finds_dead_public_names():
    sources = {"a.py": ("def used():\n    pass\ndef dead():\n    pass\n"
                        "def hooked():\n    pass\n"
                        "class Kept:\n    def __init__(self):\n        pass\n"
                        "    def method(self):\n        pass\n"
                        "    def _private(self):\n        pass\n"
                        "    def gone(self):\n        pass\n"
                        "class Unused:\n    pass\n")}
    readers = dict(sources, **{"b.py": "from a import Kept, used\n"
                                       "used(Kept().method())\n"})
    assert dead_public_names(sources, readers, {"hooked"}) == [
        ("a.py", 3, "dead"), ("a.py", 14, "Kept.gone"),
        ("a.py", 16, "Unused")]


def test_perfbench_hooks_resolve(monkeypatch):
    """Every function, method and memo cache that the benchmark's tracer
    wraps or counts exists in a fresh import of the package."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import bench_session
    import bench_trace
    saved = {n: m for n, m in sys.modules.items()
             if n == "mirabolic" or n.startswith("mirabolic.")}
    try:
        s = bench_session.open_session()
        missing = [f"{layer}.{attr}" for layer, attr, _ in bench_trace.FUNCTIONS
                   if not hasattr(getattr(s, layer), attr)]
        for layer, cls_name, methods in bench_trace.METHODS:
            cls = getattr(getattr(s, layer), cls_name, None)
            missing += [f"{layer}.{cls_name}.{meth}" for meth in methods
                        if meth not in vars(cls or object)]
        assert not missing, "names the tracer wraps are gone: " + \
            ", ".join(missing)
        assert all(n == 0 for n in bench_trace.cache_entries(s).values())
    finally:
        for name in [n for n in sys.modules
                     if n == "mirabolic" or n.startswith("mirabolic.")]:
            del sys.modules[name]
        sys.modules.update(saved)


# public names that only the tests read, each kept for a reason
TEST_ONLY = {
    "apply_word": "a scaled word times any element, the reference that "
                  "products by the recursion are tested against",
    "t22_diagonal": "the marked diagonal built by the recursion, tested "
                    "against its basis element",
    "specialize_ell": "the quotients l = 0 and l = 1 of the PBW algebra, "
                      "which test the normal forms against plain sl2",
    "inversion_sum": "the inversion count of the tensor space, tested "
                     "against its closed form",
    "PrimeFieldSubspace.from_rows": "the oracle's subspace from any "
                                    "spanning rows, for hand-built flags",
    "Combination.is_zero": "the explicit zero test of the element API",
}


def test_no_dead_public_names():
    # a name that only the tests read counts as dead unless TEST_ONLY gives
    # it a reason: the package, the benchmark or the README's backticked
    # code must use it
    assert READERS
    sources = {p.relative_to(ROOT): p.read_text("utf-8") for p in SRC}
    read = {p.relative_to(ROOT): p.read_text("utf-8") for p in READERS}
    hooked = strings_in((ROOT / "perfbench" / "bench_trace.py")
                        .read_text("utf-8"))
    assert "apply_letter" in hooked and entry_points() == {"main"}
    found = dead_public_names(sources, read, hooked | entry_points())
    assert not found, "public names nothing reads:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in found)
    used = {path: source for path, source in read.items()
            if path.parts[0] != "tests"}
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text("utf-8"))
    readme = set(re.findall(r"\w+", " ".join(spans)))
    found = dead_public_names(sources, used, hooked | entry_points() | readme)
    names = {name for _, _, name in found}
    assert names == TEST_ONLY.keys(), (
        f"only the tests read {sorted(names - TEST_ONLY.keys())}; "
        f"more than the tests read {sorted(TEST_ONLY.keys() - names)}")


def schur_names_imported(source):
    """The names that the module source imports from `.schur_algebra`, and
    "*" for a whole-module import of it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "schur_algebra":
                found.update(alias.name for alias in node.names)
            elif node.module is None:
                found.update("*" for alias in node.names
                             if alias.name == "schur_algebra")
        elif isinstance(node, ast.Import):
            found.update("*" for alias in node.names
                         if alias.name.endswith("schur_algebra"))
    return found


def test_checker_finds_schur_imports():
    source = ("from .schur_algebra import SchurElement, ell_rule\n"
              "from . import schur_algebra, qv\n"
              "from .qv import v_power\n")
    assert schur_names_imported(source) == {"SchurElement", "ell_rule", "*"}


def loads_oracle(node):
    """Whether the AST node is an import statement that loads the oracle
    module."""
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[-1] == "oracle"
                or any(alias.name == "oracle" for alias in node.names))
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[-1] == "oracle" for alias in node.names)


def test_checker_finds_oracle_imports():
    for source, want in (("from . import oracle", True),
                         ("from .oracle import SIZE_GUARD", True),
                         ("import mirabolic.oracle as o", True),
                         ("from mirabolic import checks, oracle", True),
                         ("from . import pbw, reps", False),
                         ("from .linalg import SIZE_GUARD", False)):
        assert loads_oracle(ast.parse(source).body[0]) == want, source


# the front ends, which import the oracle inside the functions of the
# `oracle` command and the `oracle` verify suite only
FRONT_ENDS = ("checks", "cli")


def test_oracle_shares_no_rule_with_the_engine():
    # the oracle counts points itself; from the engine it takes only the
    # element type it answers in, and no engine module imports it back, so
    # the two stay independent checks
    source = (ROOT / "src" / "mirabolic" / "oracle.py").read_text("utf-8")
    assert schur_names_imported(source) <= {"SchurElement"}
    for path in SRC:
        tree = ast.parse(path.read_text("utf-8"))
        nodes = tree.body if path.stem in FRONT_ENDS else ast.walk(tree)
        assert path.stem == "oracle" or not any(map(loads_oracle, nodes)), \
            path.name


def test_engine_and_cli_load_neither_numpy_nor_the_oracle():
    # numpy was about 40% of a command that does not count points
    modules = [f"mirabolic.{path.stem}" for path in SRC
               if path.stem not in ("__init__", "__main__", "oracle")]
    assert "mirabolic.cli" in modules and "mirabolic.checks" in modules
    code = (f"import sys\nimport {', '.join(modules)}\n"
            "print([m for m in ('numpy', 'mirabolic.oracle') "
            "if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.stdout.strip() == "[]"


def test_docstring_examples_pass():
    # every module but __main__, which runs the command line on import
    for path in SRC:
        if path.stem != "__main__":
            module = importlib.import_module(
                "mirabolic" + ("" if path.stem == "__init__"
                               else "." + path.stem))
            assert doctest.testmod(module).failed == 0, path.name
