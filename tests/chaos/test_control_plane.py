"""End-to-end control-plane resilience tests (S3).

§4.1's stop-and-wait contract on the canonical two-switch topology with
a :class:`~repro.simulator.failures.ControlPlaneFailure` on the wire:

* a lossy-but-alive control channel (20 % each way) is survived by the
  X = 5 retransmission budget — sessions keep completing, no LINK_DOWN,
  no false entry flags;
* a *dead* reverse channel exhausts the budget and is declared a link
  failure within the capped-backoff latency bound;
* ``fancy_retransmissions_total`` is the wire truth: it equals the
  number of repeated (kind, session) control emissions actually sent.
"""

from __future__ import annotations

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.output import FailureKind
from repro.simulator.engine import Simulator
from repro.simulator.failures import ControlPlaneFailure
from repro.simulator.topology import PORT_TO_PEER, TwoSwitchTopology
from repro.simulator.udp import UdpSource
from repro.telemetry import Telemetry, to_prometheus

ENTRIES = ["hp/0", "hp/1"]


def build(telemetry=None):
    sim = Simulator()
    topo = TwoSwitchTopology(sim, link_delay_s=0.001)
    config = FancyConfig(high_priority=ENTRIES, tree_params=None,
                         dedicated_session_s=0.05, seed=5)
    monitor = FancyLinkMonitor(sim, topo.upstream, PORT_TO_PEER,
                               topo.downstream, PORT_TO_PEER, config=config,
                               telemetry=telemetry)
    sources = [
        UdpSource(sim, topo.source.send, entry, flow_id=i, rate_bps=4e5,
                  packet_size=400, jitter=0.1, seed=50 + i)
        for i, entry in enumerate(ENTRIES)
    ]
    for src in sources:
        src.start()
    return sim, topo, monitor


def wrap_control_taps(monitor):
    """Record every control emission a sender FSM puts on the wire."""
    taps = {}
    for sender in (monitor.dedicated_sender, monitor.tree_sender):
        if sender is None:
            continue
        emissions = []
        taps[sender.fsm_id] = emissions

        def tapped(kind, payload, size, _orig=sender.send_control,
                   _log=emissions):
            _log.append((kind, payload["session"]))
            _orig(kind, payload, size)

        sender.send_control = tapped
    return taps


def wire_retransmissions(emissions):
    """Repeat emissions of the same (kind, session) beyond the first."""
    seen = {}
    for key in emissions:
        seen[key] = seen.get(key, 0) + 1
    return sum(n - 1 for n in seen.values())


class TestLossyControlChannel:
    def test_x5_budget_survives_twenty_percent_loss(self):
        sim, topo, monitor = build()
        topo.link_ab.loss_model = ControlPlaneFailure(0.2, seed=1)
        topo.link_ba.loss_model = ControlPlaneFailure(0.2, seed=2)
        monitor.start()
        sim.run(until=4.0)
        sender = monitor.dedicated_sender
        # sessions keep completing despite lost control messages (backoff
        # inflates session duration, so the bar is progress, not rate) ...
        assert sender.sessions_completed >= 5
        # ... with no link-down declaration and no invented entry failures
        assert monitor.log.by_kind(FailureKind.LINK_DOWN) == []
        assert monitor.log.by_kind(FailureKind.DEDICATED_ENTRY) == []
        assert not any(monitor.dedicated_strategy.flags)

    def test_retransmissions_metric_matches_wire_counts(self):
        telemetry = Telemetry()
        sim, topo, monitor = build(telemetry=telemetry)
        topo.link_ab.loss_model = ControlPlaneFailure(0.3, seed=3)
        topo.link_ba.loss_model = ControlPlaneFailure(0.3, seed=4)
        taps = wrap_control_taps(monitor)
        monitor.start()
        sim.run(until=4.0)
        for fsm_id, emissions in taps.items():
            expected = wire_retransmissions(emissions)
            assert expected > 0  # the scenario must actually retransmit
            assert telemetry.metrics.value(
                "fancy_retransmissions_total", fsm=fsm_id) == expected


class TestCleanChannel:
    def test_clean_run_mints_no_impairment_series(self):
        """Control counters are bound on first use, never ahead of it: a
        run without retransmissions or rejections exports no such sample
        at all — in particular no zero-valued one."""
        telemetry = Telemetry()
        sim, topo, monitor = build(telemetry=telemetry)
        monitor.start()
        sim.run(until=2.0)
        assert monitor.dedicated_sender.sessions_completed >= 5
        text = to_prometheus(telemetry.metrics)
        assert "fancy_control_messages_total{" in text
        assert "fancy_sessions_completed_total{" in text
        assert "fancy_retransmissions_total" not in text
        assert "fancy_rejected_messages_total" not in text
        zero_valued = [line for line in text.splitlines()
                       if line.startswith("fancy_") and line.endswith(" 0")]
        assert zero_valued == []


class TestDeadReverseChannel:
    def test_declared_link_down_within_backoff_bound(self):
        sim, topo, monitor = build()
        # ACKs and Reports all die: the sender can never complete a phase.
        topo.link_ba.loss_model = ControlPlaneFailure(1.0, seed=1)
        monitor.start()
        sim.run(until=3.0)
        downs = monitor.log.by_kind(FailureKind.LINK_DOWN)
        assert downs, "dead reverse channel must be declared a link failure"
        # capped-backoff latency bound: 5 attempts at rtx = 50 ms wait
        # 0.05 + 0.1 + 0.2 + 0.4 + 0.4 = 1.15 s after the first Start
        assert downs[0].time <= 1.2
        # and the declaration is the *only* report: no invented entry flags
        assert len(downs) == len(monitor.log.reports)
