"""The per-hop frame budget (docs/PERFORMANCE.md, "Per-hop budget").

Deterministic, no wall clock: Python ``call`` events counted with
``sys.setprofile`` while a fully monitored k=4 fat tree (64 monitors,
dedicated counters + hash tree) carries one dedicated and one
best-effort flow edge to edge, divided by the hops the switches served
(``Switch.stats.received``).  The figures are end to end — each packet's
source tick, access links and sink are amortised over its five switch
hops — so they move when *anything* on the per-packet path gains a
frame.  The first run has no sinks (DATA hops only); the second adds the
sinks' ACKs, and the difference is the ACK hops' cost.
"""

from __future__ import annotations

import pytest

from repro.core.detector import FancyConfig
from repro.fabric.builders import fat_tree
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.simulator.engine import Simulator
from repro.simulator.udp import UdpSource
from tests.frames import count_calls

#: Measured Python frames per hop.  The parent commit (tree tag through
#: ``hash_path`` / ``_tag_for`` / ``_count`` per packet, the FSMs'
#: ``process_packet`` forwarding frames, ``by_prefix``, ``Host.send``,
#: ``Packet.acquire`` + ``__init__``) measured 14.25 per DATA hop and 8.02
#: per ACK hop on this scenario; the commit before it 21.67 and 11.63.
DATA_HOP_FRAMES = 10.23
ACK_HOP_FRAMES = 7.40
#: Room for one more frame on one hop in five, not for one on every hop;
#: the lower edge only catches the scenario silently losing its monitors.
HEADROOM = 0.2
SLACK_BELOW = 1.0


def frames_and_hops(with_acks: bool) -> tuple[int, int]:
    sim = Simulator()
    net = FabricNetwork(sim, fat_tree(4))
    for entry in ("hp", "be"):
        net.add_entry(entry, "edge0-0", "edge1-1")
    # Sessions outlast the run: after the Start/StartACK exchange every
    # monitor is counting and no control message crosses the window.
    dep = FabricDeployment(net, config=FancyConfig(
        high_priority=["hp"], dedicated_session_s=10.0, tree_session_s=10.0))
    dep.start(stagger_s=0.001)
    sim.run(until=0.2)
    net.host("edge1-1").auto_sink = with_acks
    for flow_id, entry in enumerate(("hp", "be")):
        UdpSource(sim, net.host("edge0-0").send, entry, flow_id=flow_id,
                  rate_bps=1_600_000, packet_size=400, seed=flow_id).start()

    hops_before = sum(sw.stats.received for sw in net.switches.values())
    frames = count_calls(sim.run, until=1.2)
    hops = sum(sw.stats.received for sw in net.switches.values()) - hops_before

    # The hops measured are the hops claimed: every DATA packet was tagged
    # and counted at each of its four monitored links.
    sent = net.host("edge0-0").links[0].stats.tx_packets
    monitors = [dep.monitors[net.link_id(a, b)]
                for path in (net.flow_path("hp", 0), net.flow_path("be", 1))
                for a, b in zip(path, path[1:])]
    counted = sum(sum(m.dedicated_strategy.counters) + m.tree_strategy.counters.packets
                  for m in monitors)
    assert sent >= 900 and 0.97 * 4 * sent <= counted <= 4 * sent  # rest: in flight
    return frames, hops


@pytest.fixture(scope="module")
def budget() -> tuple[float, float]:
    data_frames, data_hops = frames_and_hops(with_acks=False)
    both_frames, both_hops = frames_and_hops(with_acks=True)
    assert both_hops > 1.9 * data_hops
    return (data_frames / data_hops,
            (both_frames - data_frames) / (both_hops - data_hops))


def test_data_hop_budget(budget):
    data, _ack = budget
    assert DATA_HOP_FRAMES - SLACK_BELOW <= data <= DATA_HOP_FRAMES + HEADROOM, data


def test_ack_hop_budget(budget):
    _data, ack = budget
    assert ACK_HOP_FRAMES - SLACK_BELOW <= ack <= ACK_HOP_FRAMES + HEADROOM, ack
