"""The runtime imports nothing outside the standard library.

The dev extras pull numpy in through scipy, so inside the test
environment only a fresh interpreter can tell whether a third-party
import crept back into the packages people run (CI's ``bare-install``
step checks the same from a clean venv).  The package facades load
their submodules on first use (``repro._lazy``), so the fence imports
every module by name instead of trusting ``import repro`` to reach it.
"""

from __future__ import annotations

import subprocess
import sys

_CODE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
         if not m.name.endswith("__main__")]
for name in names:
    importlib.import_module(name)
assert len(names) > 100, f"walked only {len(names)} modules"
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
assert "numpy" not in sys.modules, "numpy is back in the import graph"
assert not foreign, f"third-party imports at runtime: {foreign}"
"""


def test_runtime_import_graph_is_stdlib_only():
    proc = subprocess.run([sys.executable, "-c", _CODE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
