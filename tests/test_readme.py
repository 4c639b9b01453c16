"""The README's library quick start runs and prints what it says it does."""

import re
from pathlib import Path

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
