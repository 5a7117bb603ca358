"""Every ``repro`` module imports on its own, from a clean interpreter.

An import cycle between two packages only shows when the cycle's far
side is imported first, so a suite that happens to import
``repro.cfa.fleet`` early hides one. This test imports each module
with every ``repro`` module evicted from ``sys.modules`` beforehand
(``__main__`` modules are skipped: importing one runs the CLI).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import importlib, pkgutil, sys, traceback
import repro
names = sorted(m.name for m in pkgutil.walk_packages(repro.__path__,
                                                     "repro.")
               if not m.name.endswith(".__main__"))
failures = []
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append(name + ": " + traceback.format_exc(limit=1))
print(len(names))
print("\\n".join(failures))
"""


def test_every_module_imports_from_a_clean_interpreter():
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        cwd=src, timeout=600)
    assert result.returncode == 0, result.stderr
    count, _, failures = result.stdout.partition("\n")
    assert int(count) > 50
    assert failures.strip() == ""
