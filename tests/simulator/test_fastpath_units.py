"""Unit tests for the simulator fast-path machinery.

The equivalence suite (test_fastpath_equivalence.py) proves end-to-end
output identity; this module pins the *mechanisms* — heap compaction,
sequence-counter reset, and the fused/kick link state machine and its
observer taps — with small, surgical scenarios.
"""

from __future__ import annotations

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.packet import Packet, PacketKind, make_data_packet
from repro.simulator.tracing import PacketTracer
from repro.telemetry import Telemetry


class _Sink:
    """Minimal Receiver: records (packet, in_port, time)."""

    def __init__(self, sim):
        self.sim = sim
        self.received: list[tuple[Packet, int, float]] = []

    def receive(self, packet, in_port):
        self.received.append((packet, in_port, self.sim.now))


def _data(size=1000, seq=0):
    return make_data_packet("e", size, flow_id=1, seq=seq, now=0.0)


# ---------------------------------------------------------------------------
# Engine: reset() sequence counter + heap compaction.
# ---------------------------------------------------------------------------


class TestEngineReset:
    def test_reset_rewinds_sequence_counter(self):
        """Same-timestamp tie-break order after reset() matches a fresh sim.

        Regression test: reset() used to keep the old itertools.count, so
        a reused simulator broke ties differently from a fresh one and
        traces were not reproducible across resets.
        """

        def order_of(sim):
            fired = []
            sim.schedule(1.0, fired.append, "first-scheduled")
            sim.schedule(1.0, fired.append, "second-scheduled")
            sim.run()
            return fired

        sim = Simulator()
        # Burn sequence numbers, then reset.
        for _ in range(10):
            sim.schedule(0.0, lambda: None)
        sim.run(until=0.5)
        sim.reset()
        assert sim.now == 0.0
        assert order_of(sim) == order_of(Simulator())

    def test_reset_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "stale")
        sim.reset()
        sim.run()
        assert fired == []


class TestHeapCompaction:
    def test_compact_removes_cancelled_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(100)]
        for h in handles[:60]:
            h.cancel()
        removed = sim.compact()
        assert removed == 60
        assert len(sim._queue) == 40

    def test_compaction_triggers_automatically(self):
        """Scheduling past the cancellation threshold shrinks the heap."""
        sim = Simulator()
        survivors = []
        handles = [sim.schedule(float(i), survivors.append, i)
                   for i in range(1400)]
        for h in handles[:1300]:
            h.cancel()
        # 1300 cancelled > _COMPACT_MIN_CANCELLED and > half the queue:
        # the next schedule_at call compacts in place.
        sim.schedule(2000.0, survivors.append, -1)
        assert len(sim._queue) < 1400
        sim.run()
        assert survivors == list(range(1300, 1400)) + [-1]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        kill = sim.schedule(0.5, fired.append, "kill")
        kill.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep is not None


# ---------------------------------------------------------------------------
# Fused link state machine.
# ---------------------------------------------------------------------------


class TestFusedLink:
    def test_uncontended_send_is_one_fused_event(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01, fused=True)
        link.send(_data(size=1000))
        sim.run()
        assert link.fused_events == 1
        assert len(sink.received) == 1
        _, _, arrival = sink.received[0]
        # (0 + tx) + delay with tx = 1000*8/1e6 = 8 ms.
        assert arrival == (0.0 + 1000 * 8 / 1e6) + 0.01
        assert link.stats.tx_packets == link.stats.delivered == 1

    def test_contended_send_falls_back_and_keeps_timing(self):
        """A packet sent while a fused one serializes is kicked onto the
        full pipeline at exactly the reference departure instant."""

        def run(fused):
            sim = Simulator()
            sink = _Sink(sim)
            link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01,
                        fused=fused)
            link.send(_data(seq=0))
            sim.schedule(0.001, link.send, _data(seq=1))  # mid-serialization
            sim.run()
            return link, [(p.seq, t) for p, _, t in sink.received]

        fast_link, fast = run(True)
        _, reference = run(False)
        assert fast == reference
        assert fast_link.fused_events == 1  # only the first send fused

    def test_busy_until_blocks_fusing_until_wire_quiet(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01, fused=True)
        link.send(_data(seq=0))
        # Sent after serialization ends but while the first is propagating:
        # the wire (serializer) is idle again, so this send fuses too.
        sim.schedule(0.009, link.send, _data(seq=1))
        sim.run()
        assert link.fused_events == 2
        assert [p.seq for p, _, _ in sink.received] == [0, 1]

    def test_fused_drop_draws_at_send_with_departure_timestamp(self):
        seen = []

        def loss(_packet, now):
            seen.append(now)
            return True

        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01,
                    loss_model=loss, fused=True)
        link.send(_data())
        assert seen == [1000 * 8 / 1e6]  # pinned depart time, drawn at send
        sim.run()
        assert link.stats.dropped_failure == 1
        assert link.stats.tx_packets == 1
        assert sink.received == []

    def test_telemetry_keeps_fused_pipeline(self):
        telemetry = Telemetry()
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01,
                    telemetry=telemetry, fused=True)
        assert link.fused is True
        link.send(_data())
        sim.run()
        assert link.fused_events == 1
        assert len(sink.received) == 1
        metrics = telemetry.metrics
        assert metrics.value("link_tx_packets_total", link=link.name) == 1
        assert metrics.value("link_tx_bytes_total", link=link.name) == 1000
        assert metrics.value("link_delivered_total", link=link.name) == 1

    def test_tracer_attach_keeps_fusing(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01, fused=True)
        tracer = PacketTracer(sim)
        tracer.attach_link(link)
        assert link.fused is True
        link.send(_data())
        sim.run()
        assert link.fused_events == 1
        depart = 1000 * 8 / 1e6
        assert [(e.event, e.time) for e in tracer.events] == \
            [("tx", depart), ("deliver", depart + 0.01)]

    def test_taps_see_pinned_times_on_every_path(self):
        """One stream of tap events per packet, whichever path booked it:
        the departure instant for tx / drop, the arrival for deliver."""

        def run(fused, bandwidth_bps):
            sim = Simulator()
            seen = []
            link = Link(sim, _Sink(sim), 0, bandwidth_bps=bandwidth_bps,
                        delay_s=0.01, fused=fused,
                        loss_model=lambda p, _now: p.seq == 1)

            def tap(event, packet, t):
                if event != "queue":  # only queued packets wait
                    seen.append((event, packet.seq, t))

            link.taps += (tap,)
            for seq in range(3):
                link.send(_data(seq=seq))
            sim.run()
            return sorted(seen, key=lambda row: (row[2], row[1]))

        for bandwidth_bps in (1e6, None):
            fused = run(True, bandwidth_bps)
            assert fused == run(False, bandwidth_bps)
            assert [event for event, _, _ in fused].count("drop") == 1

    def test_queue_depth_counts_waiting_packets_only(self):
        telemetry = Telemetry()
        sim = Simulator()
        link = Link(sim, _Sink(sim), 0, bandwidth_bps=1e6, delay_s=0.01,
                    telemetry=telemetry)
        depth = telemetry.metrics.get("link_queue_depth", link=link.name)
        link.send(_data(seq=0))           # fused: nothing waits
        assert depth.max_value == 0
        link.send(_data(seq=1))           # waits behind the first
        link.send(_data(seq=2))
        assert depth.value == 2
        sim.run()
        assert depth.value == 0 and depth.max_value == 2

    def test_instant_link_never_serialize_fuses(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.01, fused=True)
        link.send(_data())
        assert link.fused_events == 0  # no serialization to fuse
        sim.run()
        assert len(sink.received) == 1

    def test_instant_link_coalesces_same_instant_burst(self):
        """A burst of sends at one instant delivers from a single event,
        in order, at the same arrival time as the reference path."""

        def run(fused):
            sim = Simulator()
            sink = _Sink(sim)
            link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.01,
                        fused=fused)
            for seq in range(8):
                link.send(_data(seq=seq))
            sim.run()
            return link, sim, [(p.seq, t) for p, _, t in sink.received]

        fast_link, fast_sim, fast = run(True)
        _, ref_sim, reference = run(False)
        assert fast == reference  # same order, same arrival instants
        assert fast_link.coalesced_bursts == 1
        assert fast_sim.events_processed == ref_sim.events_processed - 7

    def test_instant_link_bursts_split_on_time_advance(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.01, fused=True)
        link.send(_data(seq=0))
        link.send(_data(seq=1))                      # joins the open burst
        sim.schedule(0.001, link.send, _data(seq=2))  # later instant: stays single
        sim.run()
        assert link.coalesced_bursts == 1  # only the seq 0+1 pair converted
        assert [(p.seq, t) for p, _, t in sink.received] == \
            [(0, 0.01), (1, 0.01), (2, 0.011)]

    def test_instant_link_zero_delay_burst_is_sealed_after_firing(self):
        """With delay 0 a burst fires at its own send instant; a send from
        a later same-timestamp event must open a fresh burst, not append
        to the fired one."""
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.0, fused=True)
        sim.schedule(1.0, link.send, _data(seq=0))
        # Scheduled after the burst event will fire (same timestamp, FIFO):
        sim.schedule(1.0, lambda: sim.schedule(0.0, link.send, _data(seq=1)))
        sim.run()
        assert [p.seq for p, _, _ in sink.received] == [0, 1]
        assert link.coalesced_bursts == 0  # two sealed singles, no burst

    def test_queue_len_counts_both_classes(self):
        sim = Simulator()
        sink = _Sink(sim)
        link = Link(sim, sink, 0, bandwidth_bps=1e6, delay_s=0.01, fused=False)
        link.send(_data(seq=0))           # starts serializing immediately
        link.send(_data(seq=1))           # data queue
        link.send(Packet(PacketKind.FANCY_REPORT, None, 100, payload={}))
        assert link.queue_len == 2
        sim.run()
        assert link.queue_len == 0
