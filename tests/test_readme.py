"""The README's library quick start runs and prints what it says it does,
and the code it names exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import mirabolic

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The python block of the section "Quick start (library)"."""
    section = README.read_text("utf-8").split("## Quick start (library)")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_each_commented_line(capsys):
    code = quick_start()
    lines = code.splitlines()
    # each print(...) is followed by its output, as a "# ..." comment
    want = [after for line, after in zip(lines, lines[1:])
            if line.startswith("print(")]
    assert len(want) == 4 and all(w.startswith("# ") for w in want)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [w[2:] for w in want]


def test_named_code_exists():
    # every backticked name that starts with _ or reads module.name for a
    # module of the package, such as `_blm` or `linalg.fold_word`, is an
    # attribute of the package; file names such as `oracle.py` are not names
    modules = {m.name: importlib.import_module(f"mirabolic.{m.name}")
               for m in pkgutil.iter_modules(mirabolic.__path__)
               if not m.name.startswith("_")}
    named, missing = set(), []
    for span in re.findall(r"`([^`\n]+)`", README.read_text("utf-8")):
        m = re.match(r"_\w*|(\w+)((?:\.\w+)+)", span)
        if not m or re.fullmatch(r"[\w./-]+\.(py|toml|json|md)", span):
            continue
        if m.group(1) in modules:
            obj, path = modules[m.group(1)], m.group(2).split(".")[1:]
            while path and hasattr(obj, path[0]):
                obj = getattr(obj, path.pop(0))
            found = not path
        elif m.group(0).startswith("_"):
            found = any(hasattr(mod, m.group(0)) for mod in modules.values())
        else:
            continue
        named.add(m.group(0))
        if not found:
            missing.append(m.group(0))
    assert len(named) >= 30 and not missing, missing
