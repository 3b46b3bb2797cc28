"""Per-layer probes: fixed-operation-count drive loops.

Each probe drives one layer's public functions for a fixed number of
operations and reports the cost of one.  A round's operation count is
asserted — against the request where the probe controls it, and against
the other rounds everywhere — so a probe that silently did less work
fails instead of reporting a speed-up.  The value is the median of the
rounds.

Run as a script (the harness does, in a fresh interpreter) it prints
one JSON object: ``{name: {"value", "unit", "ops", "rounds"}}``.

Operation counts are sized for rounds of at least 0.1 s on the reference
box and are the same wherever the probes run: several costs depend on
the round's size (heap depth, live objects the collector walks), so a
value is only comparable with values taken at the same count.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

@dataclass(frozen=True)
class Probe:
    name: str
    unit: str                 # ns | us | ms per operation, or ratio
    home: str                 # workload whose time this layer cost explains
    ops: int                  # operations per round
    fn: Callable[[int], tuple[float, int]]   # ops -> (seconds, ops done)
    exact: bool = True        # ops done must equal ops asked for
    quantum: int = 1          # ops are asked for in multiples of this
    rounds: int = 5


_PER_OP = {"ns": 1e9, "us": 1e6, "ms": 1e3}


# -- shared fixtures ------------------------------------------------------------------


class _Sink:
    """Minimal link receiver that counts deliveries."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet: Any, in_port: int) -> None:
        self.received += 1


def _noop() -> None:
    return None


def _data_packets(n: int, entries: list[str]) -> list[Any]:
    from repro.simulator.packet import Packet, PacketKind

    k = len(entries)
    return [Packet(PacketKind.DATA, entries[i % k], 1500, flow_id=i % 64, seq=i)
            for i in range(n)]


_DEDICATED = [f"hp/{i}" for i in range(32)]
_BEST_EFFORT = [f"be/{i}" for i in range(32)]


def _monitored_link(tree: bool = True, **topo_args: Any) -> tuple[Any, Any, Any]:
    """Two switches with FANcY on the link, both FSMs in COUNTING."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.core.protocol import SenderState
    from repro.simulator.engine import Simulator
    from repro.simulator.topology import TwoSwitchTopology

    sim = Simulator()
    topo = TwoSwitchTopology(sim, tm_queue_packets=None, **topo_args)
    config = FancyConfig(high_priority=list(_DEDICATED), seed=1)
    if not tree:
        config.tree_params = None
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)
    monitor.start()
    sim.run(until=0.03)   # Start/StartACK done, sessions open
    assert monitor.dedicated_sender.state is SenderState.COUNTING
    return sim, topo, monitor


def _fat_tree_net() -> Any:
    from repro.fabric.builders import fat_tree
    from repro.fabric.graph import FabricNetwork
    from repro.simulator.engine import Simulator

    net = FabricNetwork(Simulator(), fat_tree(4), link_delay_s=0.010)
    for i in range(20):
        net.add_entry(f"e/{i}", f"edge{i % 4}-0", f"edge{(i + 1) % 4}-1")
    return net


# -- simulator.engine -------------------------------------------------------------------


def engine_dispatch(ops: int) -> tuple[float, int]:
    from repro.simulator.engine import Simulator

    sim = Simulator()
    schedule = sim.schedule
    t0 = perf_counter()
    for i in range(ops):
        schedule(i * 1e-6, _noop)
    sim.run()
    return perf_counter() - t0, sim.events_processed


def engine_timer_rearm(ops: int) -> tuple[float, int]:
    """Arm and cancel, the TCP RTO pattern; compaction keeps the heap small."""
    from repro.simulator.engine import Simulator

    sim = Simulator()
    schedule = sim.schedule
    t0 = perf_counter()
    for _ in range(ops):
        schedule(1.0, _noop).cancel()
    sim.run()
    elapsed = perf_counter() - t0
    assert sim.events_processed == 0 and sim.compactions > 0
    return elapsed, ops


# -- simulator.link / packet ---------------------------------------------------------------


def _link(bandwidth_bps: float | None, loss_model: Any = None) -> tuple[Any, Any, Any]:
    from repro.simulator.engine import Simulator
    from repro.simulator.link import Link

    sim = Simulator()
    sink = _Sink()
    link = Link(sim, sink, 0, bandwidth_bps=bandwidth_bps, delay_s=0.001,
                loss_model=loss_model, fused=True)
    return sim, sink, link


def link_fused_send(ops: int) -> tuple[float, int]:
    """Uncontended sends: 2 us apart on a link that serializes in 1.2 us."""
    sim, sink, link = _link(10e9)
    packets = _data_packets(ops, ["e0"])
    t0 = perf_counter()
    for i, packet in enumerate(packets):
        sim.schedule(i * 2e-6, link.send, packet)
    sim.run()
    elapsed = perf_counter() - t0
    assert link.fused_events == ops
    return elapsed, sink.received


def link_queued_send(ops: int) -> tuple[float, int]:
    """One burst into a serializing link: all but the head take the queue."""
    sim, sink, link = _link(10e9)
    packets = _data_packets(ops, ["e0"])

    def burst() -> None:
        for packet in packets:
            link.send(packet)

    t0 = perf_counter()
    sim.schedule(0.0, burst)
    sim.run()
    elapsed = perf_counter() - t0
    assert link.fused_events <= 1
    return elapsed, sink.received


def link_burst_send(ops: int) -> tuple[float, int]:
    """Same-instant bursts of 8 on an instant (access) link, coalesced."""
    sim, sink, link = _link(None)
    packets = _data_packets(ops, ["e0"])
    chunks = [packets[i:i + 8] for i in range(0, ops, 8)]

    def burst(chunk: list[Any]) -> None:
        for packet in chunk:
            link.send(packet)

    t0 = perf_counter()
    for i, chunk in enumerate(chunks):
        sim.schedule(i * 1e-4, burst, chunk)
    sim.run()
    elapsed = perf_counter() - t0
    assert link.coalesced_bursts == len(chunks)
    return elapsed, sink.received


def link_lossy_send(ops: int) -> tuple[float, int]:
    """Uncontended sends through a 50 % entry gray failure."""
    from repro.simulator.failures import EntryLossFailure

    sim, sink, link = _link(10e9, EntryLossFailure(["e0"], 0.5, start_time=0.0, seed=1))
    packets = _data_packets(ops, ["e0"])
    t0 = perf_counter()
    for i, packet in enumerate(packets):
        sim.schedule(i * 2e-6, link.send, packet)
    sim.run()
    elapsed = perf_counter() - t0
    assert 0 < link.stats.dropped_failure < ops
    return elapsed, sink.received + link.stats.dropped_failure


def packet_alloc(ops: int) -> tuple[float, int]:
    from repro.simulator.packet import make_data_packet

    total = 0
    t0 = perf_counter()
    for i in range(ops):
        packet = make_data_packet("e0", 1500, 1, i, 0.0)
        total += packet.size
        packet.release()
    return perf_counter() - t0, total // 1500


# -- simulator.switch ---------------------------------------------------------------------


def _forward(ops: int, monitored: bool) -> tuple[float, int]:
    from repro.simulator.engine import Simulator
    from repro.simulator.topology import TwoSwitchTopology

    if monitored:
        _sim, topo, monitor = _monitored_link()
    else:
        topo = TwoSwitchTopology(Simulator(), tm_queue_packets=None)
    # A bounded set sent over and over: the link's queue only ever holds
    # references, and the monitor rewrites the tag on every pass.
    packets = _data_packets(10_000, _DEDICATED + _BEST_EFFORT)
    receive = topo.upstream.receive
    before = topo.upstream.stats.forwarded   # the monitor's own Start messages
    t0 = perf_counter()
    for _ in range(ops // 10_000):
        for packet in packets:
            receive(packet, 0)
    elapsed = perf_counter() - t0
    if monitored:
        counted = (sum(monitor.dedicated_strategy.counters)
                   + monitor.tree_strategy.counters.packets)
        assert counted == ops, (counted, ops)
    return elapsed, topo.upstream.stats.forwarded - before


def switch_forward(ops: int) -> tuple[float, int]:
    return _forward(ops, monitored=False)


def switch_monitored_forward(ops: int) -> tuple[float, int]:
    """Same switch and link with a monitor tagging: half dedicated, half tree."""
    return _forward(ops, monitored=True)


# -- simulator.udp / tcp --------------------------------------------------------------------


def udp_emit(ops: int) -> tuple[float, int]:
    from repro.simulator.engine import Simulator
    from repro.simulator.udp import UdpSource

    sim = Simulator()
    sent = [0]

    def send(packet: Any) -> None:
        sent[0] += 1
        if sent[0] == ops:
            source.stop()

    source = UdpSource(sim, send, "e0", 0, rate_bps=4e6, packet_size=400,
                       jitter=0.1, seed=1)
    source.start()
    t0 = perf_counter()
    sim.run()
    return perf_counter() - t0, source.packets_sent


def tcp_segment(ops: int) -> tuple[float, int]:
    """One flow across two switches and back: cost per ACKed segment."""
    from repro.simulator.engine import Simulator
    from repro.simulator.tcp import TcpFlow
    from repro.simulator.topology import TwoSwitchTopology

    sim = Simulator()
    topo = TwoSwitchTopology(sim, link_delay_s=0.001)
    flow = TcpFlow(sim, topo.source.send, "e0", 1, total_packets=ops, rate_bps=1e9)
    topo.source.register_flow(flow)
    flow.start()
    t0 = perf_counter()
    sim.run()
    elapsed = perf_counter() - t0
    assert flow.completed and flow.retransmissions == 0
    return elapsed, flow.high_acked


# -- simulator.fluid ---------------------------------------------------------------------


def fluid_absorb(ops: int) -> tuple[float, int]:
    """16 fluid flows (half dedicated, half tree) absorbed at window close."""
    from repro.simulator.fluid import FluidFlow, FluidTraffic

    sim, topo, monitor = _monitored_link()
    traffic = FluidTraffic(sim)
    entries = _DEDICATED[:8] + _BEST_EFFORT[:8]
    for i, entry in enumerate(entries):
        traffic.add_flow(FluidFlow(entry=entry, flow_id=i, rate_bps=4e6,
                                   packet_size=400, jitter=0.1, seed=i,
                                   start_s=0.0005 * (i + 1)))
    traffic.bind_monitor(monitor, traffic.flows, (0.0001,), loss_seed=1)
    per_s = len(entries) * 4e6 / (400 * 8)
    t0 = perf_counter()
    sim.run(until=sim.now + ops / per_s)
    return perf_counter() - t0, traffic.absorbed


# -- core.protocol -----------------------------------------------------------------------


def _sessions(ops: int, control_loss: float) -> tuple[float, int]:
    from repro.core.protocol import SenderState
    from repro.simulator.failures import ControlPlaneFailure

    reverse = (ControlPlaneFailure(control_loss, seed=2) if control_loss else None)
    sim, _topo, monitor = _monitored_link(
        tree=False, link_delay_s=0.001, reverse_loss_model=reverse)
    # Ten attempts: at 20 % loss an exchange all but never exhausts them,
    # so the link is not declared down half way through the round.
    sender = monitor.dedicated_sender
    sender.max_attempts = 10
    done_before = sender.sessions_completed
    t0 = perf_counter()
    while sender.sessions_completed - done_before < ops:
        assert sender.state is not SenderState.FAILED
        sim.run(until=sim.now + 1.0)
    return perf_counter() - t0, sender.sessions_completed - done_before


def protocol_session(ops: int) -> tuple[float, int]:
    """Start/ACK/Stop/Report cycles on an idle monitored link."""
    return _sessions(ops, 0.0)


def protocol_session_lossy(ops: int) -> tuple[float, int]:
    """Same with 20 % of returning control messages lost (retransmit path)."""
    return _sessions(ops, 0.2)


# -- core.counters / core.zooming --------------------------------------------------------


def _tree_params() -> Any:
    from repro.core.hashtree import HashTreeParams

    return HashTreeParams(width=190, depth=3, split=2, pipelined=True)


def counters_tag(ops: int) -> tuple[float, int]:
    from repro.core.counters import DedicatedSenderCounters

    entries = [f"e{i}" for i in range(500)]
    strategy = DedicatedSenderCounters(entries)
    strategy.begin_session(1)
    packets = _data_packets(1000, entries)
    process = strategy.process_packet
    t0 = perf_counter()
    for _ in range(ops // 1000):
        for packet in packets:
            process(packet, 1)
    return perf_counter() - t0, sum(strategy.counters)


def _hash_paths(ops: int, working_set: int) -> tuple[float, int]:
    from repro.core.hashtree import HashTree

    # A seed nothing else uses: trees with equal (seed, width, depth)
    # share one path cache per process.
    tree = HashTree(_tree_params(), seed=48_879, cache_size=1024)
    entries = [f"10.{i % 256}.{i // 256}.0/24" for i in range(working_set)]
    for entry in entries:
        tree.hash_path(entry)
    work = entries * (ops // working_set)
    hash_path = tree.hash_path
    t0 = perf_counter()
    for entry in work:
        hash_path(entry)
    return perf_counter() - t0, len(work)


def hash_path_cold(ops: int) -> tuple[float, int]:
    """4096 entries cycled through a 1024-entry LRU: every lookup misses."""
    return _hash_paths(ops, 4096)


def hash_path_warm(ops: int) -> tuple[float, int]:
    """512 entries in a 1024-entry LRU: every lookup hits."""
    return _hash_paths(ops, 512)


def tree_increment(ops: int) -> tuple[float, int]:
    from repro.core.hashtree import TreeCounters

    counters = TreeCounters(_tree_params())
    counters.activate_node((3,))
    counters.activate_node((3, 7))
    tags = [(3, 7, i % 190) for i in range(1000)]
    increment = counters.increment_path
    t0 = perf_counter()
    for _ in range(ops // 1000):
        for tag in tags:
            increment(tag)
    return perf_counter() - t0, counters.packets


def zooming_step(ops: int) -> tuple[float, int]:
    """``end_session`` with one entry losing packets: zoom, report, retreat."""
    from repro.core.hashtree import HashTree
    from repro.core.zooming import TreeReceiverStrategy, TreeSenderStrategy

    params = _tree_params()
    sender = TreeSenderStrategy(HashTree(params, seed=7), seed=7)
    receiver = TreeReceiverStrategy(params)
    entries = [f"e{i}" for i in range(64)]
    elapsed = 0.0
    for session in range(ops):
        sender.begin_session(session)
        receiver.begin_session(session)
        for i, entry in enumerate(entries):
            tag = sender.tag_for_entry(entry)
            sender.absorb(tag, 10)
            receiver.absorb(tag, 5 if i == 0 else 10)
        remote = receiver.snapshot()
        t0 = perf_counter()
        sender.end_session(remote, session)
        elapsed += perf_counter() - t0
    assert sender.known_failed, "the zoom never reached the failing leaf"
    return elapsed, sender.sessions_completed


# -- core.detector -----------------------------------------------------------------------


def detector_update_entries(ops: int) -> tuple[float, int]:
    """Dedicated-set swap on an idle monitor (20 entries, half persist)."""
    from repro.core.detector import FancyConfig, FancyLinkMonitor
    from repro.simulator.engine import Simulator
    from repro.simulator.topology import TwoSwitchTopology

    sim = Simulator()
    topo = TwoSwitchTopology(sim)
    sets = [[f"p/{i}" for i in range(20)], [f"p/{i}" for i in range(10, 30)]]
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               FancyConfig(high_priority=sets[1], seed=1))
    applied = 0
    t0 = perf_counter()
    for i in range(ops):
        applied += monitor.update_entries(sets[i & 1])
    return perf_counter() - t0, applied


# -- fabric ---------------------------------------------------------------------------------


def fabric_build_fat_tree(ops: int) -> tuple[float, int]:
    """k=4 fat tree -> network -> 20 entries -> 64 monitors."""
    from repro.core.detector import FancyConfig
    from repro.fabric.deployment import FabricDeployment

    config = FancyConfig(high_priority=[f"e/{i}" for i in range(4)], seed=1)
    built = 0
    t0 = perf_counter()
    for _ in range(ops):
        deployment = FabricDeployment(_fat_tree_net(), config=config)
        built += deployment.n_sessions == 64
    return perf_counter() - t0, built


def fabric_path(ops: int) -> tuple[float, int]:
    """One ECMP path replay plus one LFA repair-path lookup."""
    from repro.fabric.reroute import LfaTable

    net = _fat_tree_net()
    table = LfaTable(net.graph)
    failed = net.graph.directed_links()
    dsts = [f"edge{i}-1" for i in range(4)]
    found = 0
    t0 = perf_counter()
    for i in range(ops):
        path = net.flow_path(f"e/{i % 20}", i)
        link = failed[i % len(failed)]
        found += len(path) > 1 and table.protectable(link, dsts[i % 4])
    return perf_counter() - t0, found


# -- runtime --------------------------------------------------------------------------------


@functools.cache
def _link_payloads() -> dict[str, dict[str, Any]]:
    """64 per-link probe payloads of realistic size, built through the
    same registry and collector the real probes use (read-only: shared by
    every round that needs them)."""
    from repro.telemetry import Telemetry

    payloads = {}
    for n in range(64):
        link_id = f"s{n}->s{n + 1}"
        telemetry = Telemetry(scope=link_id)
        for kind in ("start", "start_ack", "stop", "report"):
            for fsm in ("dedicated", "tree"):
                telemetry.metrics.counter(
                    "fancy_control_messages_total", "Control messages",
                    fsm=f"{link_id}/{fsm}", role="sender", kind=kind).inc(600)
        telemetry.metrics.gauge("fancy_zoom_frontier", "Frontier",
                                fsm=f"{link_id}/tree").set(1)
        telemetry.metrics.histogram("link_wait_s", "Wait", link=link_id).observe(0.01)
        telemetry.traces.begin_episode(1.0, cause="fault", link=link_id)
        for i in range(200):
            telemetry.traces.emit("control", 1.0 + i * 0.01, category="control",
                                  fsm=f"{link_id}/dedicated", kind="report")
        telemetry.traces.finalize(30.0)
        payloads[link_id] = {
            "link": link_id,
            "detections": [(link_id, "dedicated_entry", "'hp/0'", 1.1 + i * 0.05, i)
                           for i in range(5)],
            "metrics": telemetry.metrics.snapshot(),
            "spans": telemetry.traces.span_dicts(),
            "sessions_completed": 450,
            "events_processed": 18_000,
            "fluid_absorbed": 31_000,
        }
    return payloads


def runtime_merge_links(ops: int) -> tuple[float, int]:
    from repro.fabric.sharding import merge_link_results

    payloads = _link_payloads()
    merged = 0
    t0 = perf_counter()
    for _ in range(ops):
        merged += len(merge_link_results(payloads)["links"]) == 64
    return perf_counter() - t0, merged


def _identity(payload: Any) -> Any:
    return payload


def runtime_job_overhead(ops: int) -> tuple[float, int]:
    """Serial ``run_sweep`` over jobs that do nothing."""
    from repro.runtime import Job, run_sweep

    jobs = [Job(key=i, payload=i) for i in range(ops)]
    t0 = perf_counter()
    sweep = run_sweep(jobs, _identity)
    elapsed = perf_counter() - t0
    assert sweep.ok
    return elapsed, len(sweep.results)


def runtime_cache_hit(ops: int) -> tuple[float, int]:
    from repro.runtime import ResultCache, fingerprint

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".probe-cache-") as tmp:
        cache = ResultCache(tmp)
        keys = [fingerprint("probe", i) for i in range(64)]
        for i, key in enumerate(keys):
            cache.put(key, {"runs": [{"n_failed": 1, "n_detected": i % 2}]})
        t0 = perf_counter()
        for i in range(ops):
            cache.get(keys[i % 64])
        elapsed = perf_counter() - t0
    return elapsed, cache.hits


# -- service --------------------------------------------------------------------------------


class _StubSender:
    def __init__(self) -> None:
        self.impairment_taps: list[Any] = []
        self.on_exhaustion = None
        self.on_link_failure = None
        self.last_verified_snapshot = None
        self.last_verified_at = None
        self.absorbed_exhaustions = 0


class _StubMonitor:
    telemetry = None

    def __init__(self) -> None:
        self.dedicated_sender = _StubSender()
        self.tree_sender = _StubSender()

    def flagged_entries(self) -> list[Any]:
        return []

    def clear_dedicated_flags(self, entries: Any) -> list[Any]:
        return []


def ladder_transition(ops: int) -> tuple[float, int]:
    """HEALTHY -> USE_LAST_STATE -> FREEZE -> HEALTHY, per rung change."""
    from repro.service.ladder import DegradationLadder

    ladder = DegradationLadder(_StubMonitor(), link_id="probe")
    signal = ladder.on_signal
    now = 0.0
    t0 = perf_counter()
    for _ in range(ops // 3):
        signal("rtx", now)
        signal("saturated", now)
        signal("recovered", now)
        now += 1.0
    return perf_counter() - t0, ladder.transitions


def supervise_tick(ops: int) -> tuple[float, int]:
    """One I1-I6 observer tick on a healthy, counting link."""
    from repro.service.supervision import InvariantSupervisor

    sim, topo, monitor = _monitored_link()
    supervisor = InvariantSupervisor(sim)
    observer = supervisor.watch(
        "A->B", monitor, [], list(_DEDICATED), list(_BEST_EFFORT),
        links=[topo.link_ab, topo.link_ba], chaos_models=[])
    now = sim.now
    t0 = perf_counter()
    for _ in range(ops):
        observer.tick(now)
    elapsed = perf_counter() - t0
    assert not observer.breaches, observer.breaches
    return elapsed, observer.ticks


# -- telemetry ---------------------------------------------------------------------------


def counter_inc(ops: int) -> tuple[float, int]:
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    inc = registry.counter("probe_total", "A pre-bound counter", link="a").inc
    t0 = perf_counter()
    for _ in range(ops):
        inc()
    return perf_counter() - t0, int(registry.value("probe_total", link="a"))


def export_prometheus(ops: int) -> tuple[float, int]:
    """Exposition text of a 64-link merged snapshot (about 700 series)."""
    from repro.telemetry import merge_snapshots, to_prometheus

    snapshot = merge_snapshots(*(p["metrics"] for p in _link_payloads().values()))
    rendered = 0
    t0 = perf_counter()
    for _ in range(ops):
        rendered += len(to_prometheus(snapshot)) > 0
    return perf_counter() - t0, rendered


def trace_span(ops: int) -> tuple[float, int]:
    """Open and close one durative span inside an episode."""
    from repro.obs.trace import TraceCollector

    collector = TraceCollector(scope="probe", max_spans=ops + 1)
    collector.begin_episode(0.0, cause="fault")
    open_span, close_span = collector.open_span, collector.close_span
    t0 = perf_counter()
    for i in range(ops):
        close_span(open_span("control", i * 1e-3, category="control", fsm="x"),
                   i * 1e-3)
    return perf_counter() - t0, len(collector) - 1


def health_report(ops: int) -> tuple[float, int]:
    """Health roll-up of a 64-monitor fat-tree deployment."""
    from repro.core.detector import FancyConfig
    from repro.fabric.deployment import FabricDeployment
    from repro.obs.health import FabricHealthReport
    from repro.telemetry import Telemetry

    deployment = FabricDeployment(
        _fat_tree_net(), telemetry=Telemetry(scope="probe"),
        config=FancyConfig(high_priority=[f"e/{i}" for i in range(4)], seed=1))
    scored = 0
    t0 = perf_counter()
    for _ in range(ops):
        report = FabricHealthReport.from_deployment(deployment, sim_time=0.0)
        scored += len(report.links) == 64
    return perf_counter() - t0, scored


def telemetry_overhead(ops: int) -> tuple[float, int]:
    """One entry-failure cell of ``ops`` simulated seconds, with a
    ``Telemetry()`` session divided by without: the observer effect."""
    from repro.experiments.runner import ExperimentSpec, run_entry_failure
    from repro.telemetry import Telemetry
    from repro.traffic.synthetic import EntrySize

    spec = ExperimentSpec(entry_size=EntrySize(1e6, 50), loss_rate=0.1, mode="tree",
                          duration_s=float(ops), n_background=5,
                          max_pps_per_entry=300, seed=1)
    walls = []
    for telemetry in (None, Telemetry()):
        gc.collect()
        t0 = perf_counter()
        result = run_entry_failure(spec, telemetry=telemetry)
        walls.append(perf_counter() - t0)
        assert result.n_failed == 1
    return walls[1] / walls[0], ops


PROBES: tuple[Probe, ...] = (
    Probe("simulator.engine.dispatch_ns", "ns", "fabric_discrete", 60_000, engine_dispatch),
    Probe("simulator.engine.timer_rearm_ns", "ns", "paper_fig9a", 225_000, engine_timer_rearm),
    Probe("simulator.link.fused_send_ns", "ns", "fabric_discrete", 25_000, link_fused_send),
    Probe("simulator.link.queued_send_ns", "ns", "fabric_discrete", 40_000, link_queued_send),
    Probe("simulator.link.burst_send_ns", "ns", "fabric_discrete", 144_000, link_burst_send,
          quantum=8),
    Probe("simulator.link.lossy_send_ns", "ns", "paper_fig9a", 25_000, link_lossy_send),
    Probe("simulator.packet.alloc_ns", "ns", "fabric_discrete", 130_000, packet_alloc),
    Probe("simulator.switch.forward_ns", "ns", "fabric_discrete", 250_000, switch_forward,
          quantum=10_000),
    Probe("simulator.switch.monitored_forward_ns", "ns", "fabric_discrete", 70_000,
          switch_monitored_forward, quantum=10_000),
    Probe("simulator.udp.emit_ns", "ns", "fabric_discrete", 60_000, udp_emit),
    Probe("simulator.tcp.segment_ns", "ns", "paper_fig9a", 8_000, tcp_segment),
    Probe("simulator.fluid.absorb_ns", "ns", "fabric_fluid", 360_000, fluid_absorb,
          exact=False),
    Probe("core.protocol.session_us", "us", "fabric_fluid", 1_150, protocol_session,
          exact=False),
    Probe("core.protocol.session_lossy_us", "us", "serve_soak", 1_000,
          protocol_session_lossy, exact=False),
    Probe("core.counters.tag_ns", "ns", "fabric_discrete", 800_000, counters_tag,
          quantum=1000),
    Probe("core.counters.hash_path_cold_ns", "ns", "paper_fig9a", 32_768, hash_path_cold,
          quantum=4096),
    Probe("core.counters.hash_path_warm_ns", "ns", "fabric_discrete", 819_200,
          hash_path_warm, quantum=512),
    Probe("core.counters.tree_increment_ns", "ns", "paper_fig9a", 200_000, tree_increment,
          quantum=1000),
    Probe("core.zooming.step_us", "us", "paper_fig9a", 3_500, zooming_step),
    Probe("core.detector.update_entries_us", "us", "serve_soak", 18_000,
          detector_update_entries),
    Probe("fabric.build_fat_tree_ms", "ms", "fabric_sharded", 20, fabric_build_fat_tree),
    Probe("fabric.path_us", "us", "fabric_sharded", 60_000, fabric_path),
    Probe("runtime.merge_links_ms", "ms", "fabric_sharded", 2, runtime_merge_links),
    Probe("runtime.job_overhead_us", "us", "fabric_sharded", 88_000, runtime_job_overhead),
    Probe("runtime.cache_hit_us", "us", "fabric_sharded", 6_500, runtime_cache_hit),
    Probe("service.ladder_transition_ns", "ns", "serve_soak", 225_000, ladder_transition,
          quantum=3),
    Probe("service.supervise_tick_us", "us", "serve_soak", 5_000, supervise_tick),
    Probe("telemetry.counter_inc_ns", "ns", "serve_soak", 2_400_000, counter_inc),
    Probe("telemetry.export_prometheus_ms", "ms", "fabric_sharded", 35, export_prometheus),
    Probe("telemetry.span_ns", "ns", "serve_soak", 60_000, trace_span),
    Probe("telemetry.health_report_ms", "ms", "serve_soak", 400, health_report),
    Probe("telemetry.overhead_ratio", "ratio", "serve_soak", 10, telemetry_overhead,
          rounds=3),
)


def run_probe(probe: Probe) -> dict[str, Any]:
    """Median cost of one operation over the probe's rounds."""
    ops = probe.ops
    assert ops % probe.quantum == 0, probe.name
    costs = []
    done_first = None
    for _ in range(probe.rounds):
        gc.collect()
        cost, done = probe.fn(ops)
        if probe.exact and done != ops:
            raise AssertionError(f"{probe.name}: did {done} operations, not {ops}")
        if done_first is None:
            done_first = done
        elif done != done_first:
            raise AssertionError(
                f"{probe.name}: {done} operations this round, {done_first} the first")
        if done <= 0:
            raise AssertionError(f"{probe.name}: no operation done")
        per_op = cost if probe.unit == "ratio" else cost / done * _PER_OP[probe.unit]
        costs.append(per_op)
    return {"value": statistics.median(costs), "unit": probe.unit,
            "ops": done_first, "rounds": probe.rounds, "home": probe.home,
            "round_s": None if probe.unit == "ratio"
            else statistics.median(costs) * done_first / _PER_OP[probe.unit]}


def main() -> int:
    print(json.dumps({probe.name: run_probe(probe) for probe in PROBES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
