"""Fresh package sessions, the correctness reference and the run environment.

A session is one fresh import of the ``mirabolic`` package from ``src/`` of
the checkout, so every module-level memo cache starts empty, exactly as in a
new process or a new CLI call.
"""

import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# the package modules, which are also the layers the trace reports
LAYERS = ("qv", "decorated", "schur_algebra", "pbw", "reps", "tensor_space",
          "linalg", "oracle")


def package_available():
    return (SRC / "mirabolic" / "__init__.py").is_file()


def open_session():
    """Import every layer module afresh and return them as attributes."""
    for name in [n for n in sys.modules
                 if n == "mirabolic" or n.startswith("mirabolic.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module(f"mirabolic.{m}")
                              for m in LAYERS})


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def pair_key(left, right):
    return f"{left}*{right}"


def digest(element):
    """sha256 of an element's JSON exactly as ``mirabolic mul`` prints it."""
    text = json.dumps(element.to_json(), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def compatible_pairs(s, d):
    labels = s.decorated.enumerate_xi(2, d)
    sums = {lab: s.decorated.row_col_sums(lab) for lab in labels}
    return [(a, b) for a in labels for b in labels if sums[a][1] == sums[b][0]]


def git_commit():
    """HEAD of the checkout, or None outside a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": git_commit(),
    }
