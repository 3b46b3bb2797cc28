"""The per-segment frame budget (docs/PERFORMANCE.md, "Per-segment budget").

Deterministic, no wall clock: Python ``call`` events counted with
``sys.setprofile`` while one paced :class:`TcpFlow` crosses a
tree-monitored :class:`TwoSwitchTopology`, divided by the segments the
flow got ACKed.  One ACKed segment is the whole round trip — pacing tick,
segment out, access link, switch A (classify, tree tag, count), the
monitored link, switch B (count), access link, sink, ACK out and the same
three links back, ``on_ack`` — six engine events plus the flow's timers,
so the figure moves when *anything* on the path Figure 9a spends its wall
on gains a frame.  The commit before the per-window tag memo and the flat
send path measured 54.12 frames per segment; this one 41.12 (-24 %).
"""

from __future__ import annotations

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.protocol import ReceiverState, SenderState
from repro.simulator.engine import Simulator
from repro.simulator.tcp import TcpFlow
from repro.simulator.topology import TwoSwitchTopology
from tests.frames import count_calls

#: Measured Python frames per ACKed segment.  The parent commit (tree tag
#: re-derived through ``hash_path`` / ``_tag_for`` / ``_count`` per packet,
#: the FSMs' ``process_packet`` forwarding frames, ``by_prefix``,
#: ``_window_allows`` / ``_arm_rto`` / ``_send_ack`` / ``Host.send``,
#: ``Packet.acquire`` + ``__init__``) measured 54.12 on this scenario.
SEGMENT_FRAMES = 41.12
#: Room for one more frame on one segment in five, not for one on every
#: segment; the lower edge only catches the scenario losing its monitor.
HEADROOM = 0.2
SLACK_BELOW = 1.0

SEGMENTS = 1000


def frames_per_segment() -> float:
    sim = Simulator()
    topo = TwoSwitchTopology(sim)
    # The session outlasts the run: after the Start/StartACK exchange the
    # tree FSM is counting and no control message crosses the window.
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               FancyConfig(tree_session_s=60.0))
    monitor.start()
    sim.run(until=0.1)
    assert monitor.tree_sender.state is SenderState.COUNTING
    # 100 segments/s against a 20.4 ms round trip: paced, not window-bound.
    flow = TcpFlow(sim, topo.source.send, "e0", 1, total_packets=SEGMENTS,
                   rate_bps=1_200_000)
    topo.source.register_flow(flow)

    frames = count_calls(flow.start) + count_calls(sim.run, until=20.0)

    # The segments measured are the segments claimed: every one was tagged
    # and counted on both sides of the monitored link, and ACKed.
    assert flow.completed and flow.retransmissions == 0
    assert monitor.tree_receiver.state is ReceiverState.COUNTING
    assert monitor.tree_strategy.counters.packets == SEGMENTS
    assert monitor.tree_receiver.strategy.counters.packets == SEGMENTS
    return frames / SEGMENTS


def test_segment_budget():
    frames = frames_per_segment()
    assert SEGMENT_FRAMES - SLACK_BELOW <= frames <= SEGMENT_FRAMES + HEADROOM, frames
