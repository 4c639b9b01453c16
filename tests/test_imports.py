"""Every imported name is used, and every module-level private name of the
package is read somewhere in it: dead-code checks with no linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for pattern in ("src/mirabolic/*.py", "tests/*.py")
               for p in ROOT.glob(pattern) if p.name != "__init__.py")
SRC = sorted(ROOT.glob("src/mirabolic/*.py"))


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


def dead_private_names(sources):
    """(file, line, name) of each module-level `_name` (function, class or
    constant) in sources, a {file: source} dict, that no source reads as a
    name or an attribute."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
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
