"""The package facades are lazy export tables (``repro._lazy``).

Two fences: the public surface is exactly what the eager facades
exported (``facade_exports.json`` is their recorded ``__all__``), and a
run loads the modules it uses — the layering DESIGN.md describes, stated
as which ``repro.*`` modules a fresh interpreter holds after an import.
"""

from __future__ import annotations

import importlib
import json
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

EXPORTS: dict[str, list[str]] = json.loads(
    (Path(__file__).parent / "facade_exports.json").read_text())


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_facade_exports_what_the_eager_facade_did(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == EXPORTS[package]    # no name twice, none lost
    listed = dir(module)
    for name in EXPORTS[package]:
        assert getattr(module, name) is not None
        assert name in listed
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(EXPORTS[package]) <= set(namespace)
    with pytest.raises(AttributeError, match=package):
        module.no_such_export


def test_worker_reached_through_a_facade_pickles_by_reference():
    from repro.experiments import heatmaps

    assert pickle.loads(pickle.dumps(heatmaps._cell_worker)) is heatmaps._cell_worker


def _loaded_after(statement: str) -> list[str]:
    """``repro.*`` modules a fresh interpreter holds after ``statement``."""
    code = ("import contextlib, io, json, sys\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"{textwrap.indent(statement, '    ')}\n"
            "print(json.dumps(sorted(n for n in sys.modules\n"
            "                        if n == 'repro' or n.startswith('repro.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_CLI_HELP = """\
from repro.cli import main
try:
    main(["--help"])
except SystemExit:
    pass"""


@pytest.mark.parametrize("statement, budget, forbidden", [
    ("import repro.experiments.fig9", 32,
     ["repro.chaos", "repro.fabric", "repro.service", "repro.lint",
      "repro.baselines", "repro.hardware", "repro.telemetry", "repro.obs"]),
    ("import repro.experiments.fabric", 28,
     ["repro.runtime.executor", "repro.runtime.cache", "repro.runtime.progress",
      "repro.telemetry", "repro.obs", "repro.fabric.reroute"]),
    ("import repro.service.soak", 48,
     ["repro.chaos.harness", "repro.chaos.perturbations", "repro.chaos.shrink",
      "repro.core.classify", "repro.simulator.udp"]),
    ("from repro.runtime import *", 10, ["repro.core", "repro.simulator"]),
    ("import repro.cli", 10, ["repro.experiments.", "repro.core", "repro.simulator"]),
    (_CLI_HELP, 10, ["repro.experiments.", "repro.core", "repro.simulator"]),
], ids=["fig9", "fabric", "serve", "runtime", "cli", "cli --help"])
def test_load_budget(statement, budget, forbidden):
    loaded = _loaded_after(statement)
    assert len(loaded) <= budget, loaded
    strays = [name for name in loaded
              if any(name == f or name.startswith(f.rstrip(".") + ".") for f in forbidden)]
    assert not strays, strays


def test_export_named_like_its_submodule_survives_a_direct_import():
    # The import system binds a loaded submodule on its package; the
    # facade's `shrink` export must still be the function.
    loaded = _loaded_after("import repro.chaos.shrink, repro.chaos; "
                           "assert callable(repro.chaos.shrink)")
    assert "repro.chaos.shrink" in loaded
