"""The runtime imports nothing outside the standard library.

The dev extras pull numpy in through scipy, so inside the test
environment only a fresh interpreter can tell whether a third-party
import crept back into the packages people run (CI's ``bare-install``
step checks the same from a clean venv).
"""

from __future__ import annotations

import subprocess
import sys

_CODE = """
import sys
before = set(sys.modules)
import repro, repro.cli, repro.experiments, repro.service
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
assert "numpy" not in sys.modules, "numpy is back in the import graph"
assert not foreign, f"third-party imports at runtime: {foreign}"
"""


def test_runtime_import_graph_is_stdlib_only():
    proc = subprocess.run([sys.executable, "-c", _CODE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
