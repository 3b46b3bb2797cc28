"""The per-session frame budget (docs/PERFORMANCE.md, "Per-session budget").

Deterministic, no wall clock: Python ``call`` events counted with
``sys.setprofile`` while one FANcY FSM pair on a
:class:`TwoSwitchTopology` monitored link runs its stop-and-wait
exchange with a :class:`Telemetry` session attached to the monitor (as
the serve soak and the fabric deployments attach it), divided by the
sessions the sender completed.  One completed session is the whole
round: Start out, StartACK back, the counting window, Stop out, T_wait,
Report back, ``end_session``, the next ``_open_session`` — four control
frames over two links, six FSM transitions, two session-lifecycle
timeline events, the control counts and (inside an episode) eleven
trace spans — so the figure moves when *anything* on the control
exchange or in the telemetry it feeds gains a frame.  Three rows:

=========================  ======  ======  ======
frames per session         before  then    now
=========================  ======  ======  ======
dedicated, no episode      166.70  103.83   88.86
dedicated, episode open    294.42  168.36  134.79
tree + fluid window tap    300.20  181.01  147.25
=========================  ======  ======  ======

"now" is the registry reading the FSMs' ``ControlStats`` at snapshot
time instead of two counter calls per control message and one per
completed session, a transition row built as one dict (no ``**``
merge), and each span line from one prebuilt C encoder (no
``JSONEncoder.encode`` / ``iterencode`` frames per span).  The tree row
then fell 167.20 → 147.25 once the output Bloom filter allocates its bits
at the first flag: every fluid window asks ``entry_is_flagged`` for each
flow, and an empty filter answers without the ``_indices`` generator and
its two blake2b hashes.  The dedicated rows then fell one frame each
(89.86 → 88.86, 135.79 → 134.79) once ``coerce_remote_snapshot`` takes a
receiver's ``list`` without the ``Sequence`` ABC check, whose
``ABCMeta.__instancecheck__`` ran once per session close.

"before" built a frozen-dataclass ``TimelineEvent`` per event
(``__init__`` plus five ``object.__setattr__``), read enum values through
the ``.value`` descriptor (two frames each), asked the
``TraceCollector.active`` property at every guard, canonicalised each
payload through a dict comprehension, passed every span attribute
through ``_json_safe``, hashed ``PacketKind`` members in Python, went
``inject`` → ``_egress`` → the monitor's own egress tap for every control
message it sent, and replayed fluid emissions through one ``_arrival``
frame per packet.

"then" (the rows at "before"'s child) became 103.83 / 149.73 / 181.01;
once a closed span is text (docs/TELEMETRY.md), the episode row also
paid the encode of each chunk that fills during the run: 149.73 →
168.36, +1.69 frames per span, where ``jsonl_chunks()`` spent 4.00 per
span encoding the same spans at export before.
"""

from __future__ import annotations

# StateTimeline imports pickle at its first chunk seal; loaded here, that
# one-time import stays out of the profiled window whatever ran before.
import pickle  # noqa: F401

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams
from repro.simulator.engine import Simulator
from repro.simulator.fluid import FluidFlow, FluidTraffic
from repro.simulator.topology import TwoSwitchTopology
from repro.telemetry import Telemetry
from tests.frames import count_calls

#: Measured Python frames per completed session, "before" in the table.
PARENT_FRAMES = {"dedicated": 166.70, "episode": 294.42, "tree_fluid": 300.20}
#: ... and now.
SESSION_FRAMES = {"dedicated": 88.86, "episode": 134.79, "tree_fluid": 147.25}
#: Room for one more frame on every other session, not for one on each;
#: the lower edge only catches the scenario silently losing its telemetry.
HEADROOM = 0.5
SLACK_BELOW = 5.0

#: Simulated seconds profiled: ~220 dedicated (50 ms windows) or ~80 tree
#: (200 ms windows) sessions at the 20 ms round trip.
RUN_S = 20.0


def frames_per_session(row: str) -> float:
    sim = Simulator()
    telemetry = Telemetry(scope="A->B")
    topo = TwoSwitchTopology(sim)
    if row == "tree_fluid":
        config = FancyConfig(
            tree_params=HashTreeParams(width=8, depth=2, split=2, pipelined=True))
    else:
        config = FancyConfig(high_priority=[f"hp{i}" for i in range(8)],
                             tree_params=None)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                               config, telemetry=telemetry)
    sender = monitor.tree_sender if row == "tree_fluid" else monitor.dedicated_sender
    traffic = FluidTraffic(sim)
    if row == "tree_fluid":
        # Four best-effort flows, 10 packets per 200 ms window each.
        flows = [traffic.add_flow(FluidFlow(
            entry=f"be{i}", flow_id=i, rate_bps=160_000, packet_size=400,
            jitter=0.1, seed=i, start_s=0.001 * (i + 1))) for i in range(4)]
        traffic.bind_monitor(monitor, flows, legs=(0.0001,))
    monitor.start()
    # Past the first sessions: every first-call memo is warm.
    sim.run(until=1.0)
    if row == "episode":
        telemetry.traces.begin_episode(sim.now, cause="fault", name="probe")
    done_before = sender.sessions_completed
    spans_before = len(telemetry.traces)
    events_before = len(telemetry.timeline)

    frames = count_calls(sim.run, until=1.0 + RUN_S)

    # The sessions measured are the sessions claimed: clean exchanges, the
    # timeline fed on every one, spans recorded exactly when an episode is
    # open, the fluid tap absorbing into both sides' counters.
    done = sender.sessions_completed - done_before
    assert done >= 80
    assert sender.rejected_corrupt == sender.rejected_stale == 0
    assert monitor.log.reports == []
    # (The profiled interval starts and ends mid-session: +-1 session.)
    events = len(telemetry.timeline) - events_before
    assert 8 * (done - 1) <= events <= 8 * (done + 1), events
    spans = len(telemetry.traces) - spans_before
    if row == "episode":
        assert 11 * (done - 1) <= spans <= 11 * (done + 1), spans
    else:
        assert spans == 0
    if row == "tree_fluid":
        assert traffic.absorbed >= 4 * 9 * done and traffic.lost == 0
    return frames / done


@pytest.mark.parametrize("row", sorted(SESSION_FRAMES))
def test_session_budget(row):
    frames = frames_per_session(row)
    pinned = SESSION_FRAMES[row]
    assert pinned - SLACK_BELOW <= frames <= pinned + HEADROOM, frames
    if row != "tree_fluid":
        # The dedicated exchange, episode or not, keeps at least a quarter
        # fewer frames than the parent's.
        assert frames <= 0.75 * PARENT_FRAMES[row], frames
