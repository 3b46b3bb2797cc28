"""Tests for the counting-protocol FSMs (Figure 3 / §4.1).

The FSMs are exercised against an in-memory control channel with
controllable loss, so every transition, retransmission and failure path
is observable without the full simulator.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import (
    FancyReceiver,
    FancySender,
    ReceiverState,
    SenderState,
)
from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet, PacketKind


class RecordingStrategy:
    """Sender/receiver strategy that logs calls and counts packets."""

    def __init__(self):
        self.sessions_started = []
        self.sessions_ended = []
        self.packets = 0

    def begin_session(self, session_id):
        self.sessions_started.append(session_id)
        self.packets = 0

    def process_packet(self, packet, session_id, entry=None):
        self.packets += 1
        packet.tag = (0,)
        packet.tag_session = session_id
        return True

    def end_session(self, remote, session_id):
        self.sessions_ended.append((session_id, remote))
        return []

    def snapshot(self):
        return self.packets


class Channel:
    """Bidirectional control channel with per-direction loss switches."""

    def __init__(self, sim, delay=0.010):
        self.sim = sim
        self.delay = delay
        self.sender: FancySender | None = None
        self.receiver: FancyReceiver | None = None
        self.drop_to_receiver = lambda kind: False
        self.drop_to_sender = lambda kind: False
        self.log = []

    def to_receiver(self, kind, payload, size):
        self.log.append(("->", kind, dict(payload)))
        if self.drop_to_receiver(kind):
            return
        self.sim.schedule(self.delay, self.receiver.on_control, kind, payload)

    def to_sender(self, kind, payload, size):
        self.log.append(("<-", kind, dict(payload)))
        if self.drop_to_sender(kind):
            return
        self.sim.schedule(self.delay, self.sender.on_control, kind, payload)


def make_pair(sim, session_duration=0.05, rtx=0.05, max_attempts=5, twait=0.001):
    chan = Channel(sim)
    s_strat, r_strat = RecordingStrategy(), RecordingStrategy()
    failures = []
    sender = FancySender(sim, "fsm", chan.to_receiver, s_strat,
                         session_duration=session_duration, rtx_timeout=rtx,
                         max_attempts=max_attempts,
                         on_link_failure=lambda fid, t: failures.append((fid, t)))
    receiver = FancyReceiver(sim, "fsm", chan.to_sender, r_strat, twait=twait)
    chan.sender, chan.receiver = sender, receiver
    return sender, receiver, s_strat, r_strat, chan, failures


def data():
    return Packet(PacketKind.DATA, "e", 1500)


class TestHappyPath:
    def test_handshake_reaches_counting(self, sim):
        sender, receiver, *_ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        assert sender.state is SenderState.COUNTING
        assert receiver.state is ReceiverState.SEND_ACK

    def test_session_completes_and_reopens(self, sim):
        sender, receiver, s_strat, r_strat, chan, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.3)
        assert sender.sessions_completed >= 1
        assert s_strat.sessions_ended
        # A new session opens immediately after the Report arrives.
        assert sender.session_id > 1

    def test_counting_only_in_counting_state(self, sim):
        sender, receiver, s_strat, _, _, _ = make_pair(sim)
        sender.start()
        assert sender.process_packet(data()) is False  # still WAIT_ACK
        sim.run(until=0.03)
        assert sender.process_packet(data()) is True

    def test_receiver_counts_after_first_tagged_packet(self, sim):
        sender, receiver, *_ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        pkt = data()
        sender.process_packet(pkt)
        receiver.process_packet(pkt)
        assert receiver.state is ReceiverState.COUNTING

    def test_report_carries_receiver_snapshot(self, sim):
        sender, receiver, s_strat, r_strat, chan, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        for _ in range(7):
            pkt = data()
            sender.process_packet(pkt)
            receiver.process_packet(pkt)
        sim.run(until=0.3)
        session_id, remote = s_strat.sessions_ended[0]
        assert remote == 7

    def test_sessions_have_increasing_ids(self, sim):
        sender, _, s_strat, _, _, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.5)
        assert s_strat.sessions_started == sorted(s_strat.sessions_started)
        assert len(set(s_strat.sessions_started)) == len(s_strat.sessions_started)

    def test_start_not_reentrant(self, sim):
        sender, *_ = make_pair(sim)
        sender.start()
        with pytest.raises(RuntimeError):
            sender.start()


class TestControlLoss:
    def test_start_retransmitted_until_acked(self, sim):
        sender, receiver, _, _, chan, _ = make_pair(sim)
        drops = [True, True, False]  # lose first two Starts

        def drop(kind):
            if kind is PacketKind.FANCY_START and drops:
                return drops.pop(0)
            return False

        chan.drop_to_receiver = drop
        sender.start()
        sim.run(until=0.5)
        assert sender.state in (SenderState.COUNTING, SenderState.WAIT_REPORT)
        starts = [e for e in chan.log if e[1] is PacketKind.FANCY_START]
        assert len(starts) >= 3

    def test_lost_start_ack_triggers_reack(self, sim):
        sender, receiver, _, _, chan, _ = make_pair(sim)
        dropped = []

        def drop(kind):
            if kind is PacketKind.FANCY_START_ACK and not dropped:
                dropped.append(1)
                return True
            return False

        chan.drop_to_sender = drop
        sender.start()
        sim.run(until=0.5)
        assert sender.sessions_completed >= 1

    def test_lost_report_answered_from_cache(self, sim):
        sender, receiver, s_strat, _, chan, _ = make_pair(sim)
        dropped = []

        def drop(kind):
            if kind is PacketKind.FANCY_REPORT and not dropped:
                dropped.append(1)
                return True
            return False

        chan.drop_to_sender = drop
        sender.start()
        sim.run(until=1.0)
        assert sender.sessions_completed >= 1
        reports = [e for e in chan.log if e[1] is PacketKind.FANCY_REPORT]
        assert len(reports) >= 2  # original (lost) + cache answer

    def test_dead_channel_reports_link_failure_after_x_attempts(self, sim):
        """§4.1: X = 5 attempts, then the link is flagged."""
        sender, _, _, _, chan, failures = make_pair(sim, max_attempts=5)
        chan.drop_to_receiver = lambda kind: True
        sender.start()
        sim.run(until=2.0)
        assert sender.state is SenderState.FAILED
        assert len(failures) == 1
        starts = [e for e in chan.log if e[1] is PacketKind.FANCY_START]
        assert len(starts) == 5

    def test_dead_reverse_channel_also_fails(self, sim):
        """A failure on the reverse direction (Reports lost) must still be
        reported — the strawman's weakness FANcY fixes (§4.1)."""
        sender, _, _, _, chan, failures = make_pair(sim)
        chan.drop_to_sender = lambda kind: True
        sender.start()
        sim.run(until=3.0)
        assert failures

    def test_stale_session_responses_ignored(self, sim):
        sender, _, _, _, chan, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        assert sender.state is SenderState.COUNTING
        # A stray ACK for an old session must not disturb the FSM.
        sender.on_control(PacketKind.FANCY_START_ACK, {"fsm": "fsm", "session": 0})
        assert sender.state is SenderState.COUNTING

    def test_duplicate_start_before_counting_is_safe(self, sim):
        sender, receiver, _, r_strat, chan, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        # Duplicate Start for the current session: receiver re-ACKs without
        # resetting into a new session.
        receiver.on_control(PacketKind.FANCY_START, {"fsm": "fsm", "session": 1})
        assert r_strat.sessions_started.count(1) == 1

    def test_receiver_ignores_old_session_start(self, sim):
        sender, receiver, _, r_strat, _, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.3)
        current = receiver.session_id
        receiver.on_control(PacketKind.FANCY_START, {"fsm": "fsm", "session": current - 1})
        assert receiver.session_id == current


class TestTiming:
    def test_session_duration_respected(self, sim):
        sender, _, _, _, chan, _ = make_pair(sim, session_duration=0.1)
        sender.start()
        sim.run(until=1.0)
        stops = [e for e in chan.log if e[1] is PacketKind.FANCY_STOP]
        starts = [e for e in chan.log if e[1] is PacketKind.FANCY_START]
        assert stops and starts
        # Full cycle: 20ms handshake + 100ms counting + 21ms close ≈ 141ms;
        # in 1s we fit ~7 sessions.
        assert 5 <= len(starts) <= 9

    def test_counting_stops_during_exchange(self, sim):
        """§4.1: packets seen while control messages are in flight are not
        counted — the accepted accuracy trade-off."""
        sender, receiver, s_strat, _, _, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        sim.run(until=0.08)  # past session_duration: Stop sent
        assert sender.state is SenderState.WAIT_REPORT
        assert sender.process_packet(data()) is False

    def test_twait_delays_report(self, sim):
        sender, receiver, _, _, chan, _ = make_pair(sim, twait=0.005)
        sender.start()
        sim.run(until=0.03)
        t_stop = None
        t_report = None
        sim.run(until=0.2)
        for direction, kind, payload in chan.log:
            if kind is PacketKind.FANCY_STOP and t_stop is None:
                t_stop = True
        assert sender.sessions_completed >= 1

    def test_rejects_nonpositive_session_duration(self, sim):
        with pytest.raises(ValueError):
            FancySender(sim, "x", lambda *a: None, RecordingStrategy(),
                        session_duration=0)

    def test_stop_teardown_cancels_timers(self, sim):
        sender, receiver, *_ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        sender.stop()
        receiver.stop()
        sim.run(until=1.0)
        assert sender.state is SenderState.IDLE


class TestProtocolFuzz:
    """Property-based: the protocol's safety invariants hold under
    arbitrary control-loss patterns."""

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=60),
           st.lists(st.booleans(), min_size=0, max_size=60))
    def test_no_false_flags_under_any_control_loss(self, fwd_drops, rev_drops):
        """§5: 'the FPR is always zero for any dedicated counter' — even
        when Start/Stop/ACK/Report messages are lost in any pattern, a
        loss-free data path never produces a flag."""
        from repro.core.counters import (
            DedicatedReceiverCounters,
            DedicatedSenderCounters,
        )

        sim = Simulator()
        chan = Channel(sim)
        sender_counters = DedicatedSenderCounters(["e"])
        receiver_counters = DedicatedReceiverCounters(1)
        sender = FancySender(sim, "fsm", chan.to_receiver, sender_counters,
                             session_duration=0.05)
        receiver = FancyReceiver(sim, "fsm", chan.to_sender, receiver_counters)
        chan.sender, chan.receiver = sender, receiver
        fwd = iter(fwd_drops)
        rev = iter(rev_drops)
        chan.drop_to_receiver = lambda kind: next(fwd, False)
        chan.drop_to_sender = lambda kind: next(rev, False)

        # Loss-free data: every counted packet reaches the receiver.
        def feed():
            pkt = data()
            if sender.process_packet(pkt):
                sim.schedule(0.01, receiver.process_packet, pkt)

        for i in range(200):
            sim.schedule_at(i * 0.02, feed)
        sender.start()
        sim.run(until=5.0)

        assert sender_counters.flagged_entries == []

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=80))
    def test_liveness_or_explicit_failure(self, drops):
        """The sender never wedges silently: after any finite loss burst it
        either keeps opening sessions or has declared the link down."""
        sim = Simulator()
        chan = Channel(sim)
        s_strat, r_strat = RecordingStrategy(), RecordingStrategy()
        failures = []
        sender = FancySender(sim, "fsm", chan.to_receiver, s_strat,
                             session_duration=0.05,
                             on_link_failure=lambda f, t: failures.append(t))
        receiver = FancyReceiver(sim, "fsm", chan.to_sender, r_strat)
        chan.sender, chan.receiver = sender, receiver
        pattern = iter(drops)
        chan.drop_to_receiver = lambda kind: next(pattern, False)
        sender.start()
        sim.run(until=10.0)

        if failures:
            assert sender.state is SenderState.FAILED
        else:
            # Finite drop pattern: the protocol recovered and kept cycling.
            assert sender.sessions_completed > 10
