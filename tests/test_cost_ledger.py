"""``benchmarks/cost_ledger.py``: the committed ledger's shape, and a counter
that gives the same bytes on every run of the same code."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from repro.core.detector import FancyConfig
from repro.fabric.builders import ring
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.simulator.engine import Simulator
from repro.simulator.udp import UdpSource

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"fabric_discrete", "fabric_fluid", "fabric_sharded",
             "paper_fig9a", "serve_soak"}
FIELDS = {"c_calls", "calls", "digest", "events",
          "repro_modules_before_call", "repro_modules_during_call"}
#: The only modules a workload may import before its call and never
#: enter (``cost_ledger.idle_modules``); every other one loads on first use.
IDLE_ALLOWED = {
    "repro.runtime.context": "RuntimeContext annotates experiments.fabric's "
                             "public calls, whose hints resolve at run time",
    "repro.simulator.tcp": "serve_soak's fluid-fed hosts get no DATA; a Host "
                           "makes a TcpSink per new flow, too often to import",
    "repro.core.counters": "paper_fig9a's monitors are tree-only; the detector "
                           "builds dedicated counters in every other workload",
}


def _load_ledger_module():
    spec = importlib.util.spec_from_file_location(
        "cost_ledger", REPO_ROOT / "benchmarks" / "cost_ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_ledger_has_every_workload_and_field():
    ledger = json.loads((REPO_ROOT / "benchmarks" / "results"
                         / "cost_ledger.json").read_text())
    assert set(ledger) == {"python", "seed", "workloads"}
    assert set(ledger["workloads"]) == WORKLOADS
    for name, row in ledger["workloads"].items():
        assert set(row) == FIELDS, name
        for kind in ("calls", "c_calls"):
            per_module = {k: v for k, v in row[kind].items() if k != "total"}
            assert row[kind]["total"] == sum(per_module.values()) > 0
            assert all(module.startswith("repro.") for module in per_module)
            assert any(module.startswith("repro.simulator.") for module in per_module)
        for kind in ("repro_modules_before_call", "repro_modules_during_call"):
            assert all(module.split(".")[0] == "repro" for module in row[kind])
        assert row["events"] > 0


def test_idle_modules_skips_packages_and_the_facade_helper():
    ledger = _load_ledger_module()
    row = {"repro_modules_before_call": ["repro", "repro._lazy", "repro.core",
                                         "repro.core.bloom", "repro.core.classify"],
           "calls": {"repro.core.bloom": 3, "total": 3},
           "c_calls": {"total": 0}}
    assert ledger.idle_modules(row) == ["repro.core.classify"]


def test_no_workload_imports_a_module_its_call_never_enters():
    ledger = _load_ledger_module()
    committed = json.loads((REPO_ROOT / "benchmarks" / "results"
                            / "cost_ledger.json").read_text())
    assert len(IDLE_ALLOWED) <= 3
    idle = {name: [m for m in ledger.idle_modules(row) if m not in IDLE_ALLOWED]
            for name, row in committed["workloads"].items()}
    assert not any(idle.values()), idle


def short_ring_run() -> int:
    """A monitored 4-ring carrying one flow for 0.3 simulated seconds."""
    sim = Simulator()
    net = FabricNetwork(sim, ring(4))
    net.add_entry("be", "s0", "s2")
    dep = FabricDeployment(net, config=FancyConfig(tree_session_s=0.05))
    dep.start(stagger_s=0.001)
    UdpSource(sim, net.host("s0").send, "be", flow_id=1,
              rate_bps=800_000, packet_size=400, seed=3).start()
    sim.run(until=0.3)
    return sim.events_processed


#: One counted run of :func:`short_ring_run`, as the ledger renders it.
_COUNT = """\
import sys
sys.path[:0] = [{src!r}, {benchmarks!r}, {root!r}]
from cost_ledger import count_calls, render
from tests.test_cost_ledger import short_ring_run
events, counts = count_calls(short_ring_run)
sys.stdout.write(render(dict(counts, events=events)))
"""


def test_counter_repeats_byte_for_byte():
    """Two fresh interpreters, as the ledger uses: a process's first run
    fills caches (the hash-tree and Bloom helpers) its second run reads."""
    ledger = _load_ledger_module()
    code = _COUNT.format(src=str(REPO_ROOT / "src"),
                         benchmarks=str(REPO_ROOT / "benchmarks"),
                         root=str(REPO_ROOT))
    texts = [subprocess.run([sys.executable, "-S", "-c", code],
                            env=ledger.fresh_env(), capture_output=True,
                            check=True, timeout=120).stdout
             for _ in range(2)]
    assert texts[0] == texts[1]
    counts = json.loads(texts[0])
    assert counts["events"] > 500
    assert counts["calls"]["repro.simulator.engine"] > 0
    assert counts["c_calls"]["repro.simulator.engine"] > 0
    assert "tests.test_cost_ledger" not in counts["calls"]
