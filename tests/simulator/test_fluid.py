"""Fluid traffic model: bit-exactness, loss statistics, tree tolerance.

The acceptance contract of the hybrid fluid/packet engine
(docs/PERFORMANCE.md):

* **sent** counts absorbed into dedicated counters are bit-identical to
  the packet model (same jitter RNG, same draw order, same arrival-chain
  float association) on instant links;
* the monitors on a flow's path share one emission log: one jitter draw
  per emission, each cursor counting exactly what a private one-by-one
  scan (the oracle, ``_ScanCursor``) counts, a stalled cursor included;
* **received** counts are exact for loss rates 0 and 1 (no RNG touched)
  and statistically matched for intermediate rates;
* a flagged entry's fluid flow retires (hand-back contract), with both
  planes flagging at the same session;
* hash-tree zooming over fluid background detects a lossy entry at the
  same time as the packet model (the fig9a-quick analogue);
* unsupported loss models fail loudly (:class:`FluidModelError`).
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import FancyConfig
from repro.fabric.builders import line, ring
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.simulator.engine import Simulator
from repro.simulator.failures import (
    CompositeFailure,
    ControlPlaneFailure,
    EntryLossFailure,
    IntermittentFailure,
    PacketPropertyFailure,
    UniformLossFailure,
)
from repro.simulator.fluid import (
    FluidFlow,
    FluidModelError,
    FluidTraffic,
    binomial,
    loss_profile,
)
from repro.simulator import fluid
from repro.simulator.fluid import _CHUNK, _MAX_LAG, _EmissionCursor, _EmissionLog
from repro.simulator.udp import UdpSource

ENTRIES = ["10.0.0.0/24", "10.0.1.0/24"]
LINK = "s0->s2"


# --------------------------------------------------------------------------
# emission cursor: bit-identical replay of UdpSource
# --------------------------------------------------------------------------


def _discrete_emissions(rate_bps, packet_size, jitter, seed, start, until):
    """Ground-truth departure instants from a real UdpSource on a sim."""
    sim = Simulator()
    times: list[float] = []
    src = UdpSource(sim, lambda p: times.append(p.created_at), "e", 0,
                    rate_bps=rate_bps, packet_size=packet_size,
                    jitter=jitter, seed=seed)
    src.start(delay=start)
    sim.run(until=until)
    src.stop()
    return times


class TestEmissionCursor:
    def test_replays_udp_source_instants_bit_exactly(self):
        times = _discrete_emissions(800_000, 500, 0.3, 42, 0.007, 1.0)
        assert len(times) > 150
        flow = FluidFlow(entry="e", flow_id=0, rate_bps=800_000,
                         packet_size=500, jitter=0.3, seed=42, start_s=0.007)
        cursor = _EmissionCursor(flow)
        # Advancing to each recorded departure instant absorbs exactly
        # the emissions strictly before it: the count flips at the
        # discrete instant, bit-for-bit, never one float off.
        counts = [cursor.advance(t) for t in times]
        assert counts == [0] + [1] * (len(times) - 1)
        assert cursor.advance(times[-1] + 1e-9) == 1
        assert cursor.emitted == len(times)

    def test_windowed_counts_partition_the_stream(self):
        times = _discrete_emissions(2_000_000, 400, 0.2, 7, 0.0, 0.5)
        flow = FluidFlow(entry="e", flow_id=0, rate_bps=2_000_000,
                         packet_size=400, jitter=0.2, seed=7)
        cursor = _EmissionCursor(flow)
        edges = [0.1, 0.25, 0.3, 0.5]
        counts = [cursor.advance(edge) for edge in edges]
        expected = []
        lo = float("-inf")
        for edge in edges:
            expected.append(len([t for t in times if lo <= t < edge]))
            lo = edge
        assert counts == expected

    def test_legs_shift_window_membership_like_the_pipeline(self):
        # With a 10 ms leg, an emission at t arrives at t + 0.01; window
        # membership must use the *forward* arrival sum, not an inverted
        # boundary.
        flow = FluidFlow(entry="e", flow_id=0, rate_bps=80_000,
                         packet_size=1000, jitter=0.0, seed=0)
        # interval = 0.1s: emissions at 0.0, 0.1, 0.2 ...
        cursor = _EmissionCursor(flow, legs=(0.01,))
        assert cursor.advance(0.1) == 1          # arrival 0.01 < 0.1
        assert cursor.advance(0.1100001) == 1    # arrival 0.11 just inside
        assert cursor.advance(0.21) == 0         # arrival 0.21 not < 0.21
        assert cursor.advance(0.2100001) == 1

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            FluidFlow(entry="e", flow_id=0, rate_bps=0.0)
        with pytest.raises(ValueError):
            FluidFlow(entry="e", flow_id=0, rate_bps=1.0, jitter=1.0)


# --------------------------------------------------------------------------
# the shared emission log: one recurrence per flow, a bisection per window
# --------------------------------------------------------------------------


class _ScanCursor:
    """The oracle: one cursor's private replay of the flow, one emission
    per step, exactly as each monitor used to run it."""

    def __init__(self, flow, legs=()):
        self._t = flow.start_s
        self._rng = random.Random(flow.seed) if flow.jitter else None
        self._lo = 1.0 - flow.jitter
        self._span = 2.0 * flow.jitter
        self._interval = flow.interval_s
        self.legs = legs

    def advance(self, until):
        n = 0
        t = self._t
        while True:
            arrival = t
            for leg in self.legs:
                arrival = arrival + leg
            if not arrival < until:
                break
            n += 1
            if self._rng is None:
                t = t + self._interval
            else:
                t = t + self._interval * (
                    self._lo + self._span * self._rng.random())
        self._t = t
        return n


_legs = st.lists(st.floats(0.0, 0.02, allow_nan=False), max_size=4).map(tuple)


class TestSharedLog:
    @settings(max_examples=150, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.1, 0.45]),
        seed=st.integers(0, 2**16),
        start=st.floats(0.0, 0.01),
        legs=st.lists(_legs, min_size=1, max_size=4),
        steps=st.lists(st.tuples(st.integers(0, 3), st.floats(-0.02, 0.08)),
                       max_size=50),
        chunk=st.sampled_from([1, 3, 16, 256]),
        lag=st.sampled_from([2, 10, 2048]),
    )
    def test_cursors_count_what_independent_scans_count(
            self, jitter, seed, start, legs, steps, chunk, lag):
        """Cursors on one log, advancing out of order (and sometimes
        backwards), count exactly what private one-by-one scans count —
        through chunk edges, trims and forks."""
        flow = FluidFlow(entry="e", flow_id=0, rate_bps=8e5, packet_size=100,
                         jitter=jitter, seed=seed, start_s=start)
        log = _EmissionLog(flow)
        cursors = [_EmissionCursor(flow, chain, log) for chain in legs]
        oracles = [_ScanCursor(flow, chain) for chain in legs]
        untils = [0.0] * len(legs)
        with mock.patch.object(fluid, "_CHUNK", chunk), \
                mock.patch.object(fluid, "_MAX_LAG", lag):
            for which, delta in steps:
                i = which % len(legs)
                untils[i] += delta
                assert cursors[i].advance(untils[i]) == \
                    oracles[i].advance(untils[i])
            for cursor, oracle in zip(cursors, oracles):
                assert cursor.advance(0.9) == oracle.advance(0.9)

    def test_nan_until_counts_nothing(self):
        flow = FluidFlow(entry="e", flow_id=0, rate_bps=8e5, packet_size=100,
                         jitter=0.2, seed=3)
        cursor = _EmissionCursor(flow, (0.001,))
        oracle = _ScanCursor(flow, (0.001,))
        assert cursor.advance(0.01) == oracle.advance(0.01) > 0
        assert cursor.advance(float("nan")) == 0 == oracle.advance(float("nan"))
        assert cursor.advance(0.02) == oracle.advance(0.02) > 0

    def test_cursor_on_a_trimmed_log_refuses(self):
        """Cursors bind before the run: a log that has already dropped
        its first emissions cannot count them for a new one."""
        flow = FluidFlow(entry="e", flow_id=0, rate_bps=8e5, packet_size=100)
        log = _EmissionLog(flow)
        assert _EmissionCursor(flow, (), log).advance(2.0) > 1000
        assert log.base > 0
        with pytest.raises(ValueError):
            _EmissionCursor(flow, (), log)

    def test_monitors_on_one_path_draw_one_stream(self, monkeypatch):
        """Three monitors on a flow's path: one jitter draw per distinct
        emission, not one per monitor per emission."""
        draws = 0

        class CountingRandom(random.Random):
            def random(self):
                nonlocal draws
                draws += 1
                return super().random()

        monkeypatch.setattr(fluid, "random",
                            SimpleNamespace(Random=CountingRandom))
        sim = Simulator()
        net = FabricNetwork(sim, line(4), link_bandwidth_bps=None,
                            link_delay_s=0.002)
        net.add_entry("e", "s0", "s3")
        dep = FabricDeployment(net, config=FancyConfig(high_priority=["e"],
                                                       tree_params=None),
                               links=["s0->s1", "s1->s2", "s2->s3"])
        engine = FluidTraffic(sim)
        engine.add_flow(FluidFlow(entry="e", flow_id=0, rate_bps=4e6,
                                  packet_size=500, jitter=0.1, seed=11))
        dep.bind_fluid(engine, {link: 0 for link in dep.monitors})
        dep.start()
        sim.run(until=2.0)
        emitted = [cursor.emitted for binding in engine._bindings
                   for cursor in binding._cursors]
        assert len(emitted) == 3 and min(emitted) > 1500
        # One stream, a chunk of lookahead at most (the parent drew 3x).
        assert max(emitted) <= draws <= max(emitted) + 256

    def test_stalled_cursor_pins_nothing_and_resumes_exactly(self, monkeypatch):
        """A flagged entry's cursor stalls on one monitor while its
        siblings on the other two advance: the shared log stays bounded,
        and once the flag is cleared its windows count what the oracle
        counts."""
        windows = []
        original = fluid._MonitorBinding._window_counts

        def recording(binding, cursor, t0, t1, tier, session_id):
            counts = original(binding, cursor, t0, t1, tier, session_id)
            windows.append((cursor, t0, t1, counts[0]))
            return counts

        monkeypatch.setattr(fluid._MonitorBinding, "_window_counts", recording)
        sim = Simulator()
        net = FabricNetwork(sim, line(4), link_bandwidth_bps=None,
                            link_delay_s=0.002)
        net.add_entry("e", "s0", "s3")
        dep = FabricDeployment(net, config=FancyConfig(high_priority=["e"],
                                                       tree_params=None),
                               links=["s0->s1", "s1->s2", "s2->s3"])
        engine = FluidTraffic(sim)
        flow = engine.add_flow(FluidFlow(entry="e", flow_id=0, rate_bps=8e6,
                                         packet_size=500, jitter=0.1, seed=5))
        dep.bind_fluid(engine, {link: 0 for link in dep.monitors})
        log = engine.log_of(flow)
        mid = dep.monitors["s1->s2"]
        stalled = next(cursor for binding in engine._bindings
                       if binding.monitor is mid for cursor in binding._cursors)
        longest = []

        def sample():
            longest.append(len(log.times))
            sim.schedule(0.01, sample)

        def flag():
            strategy = mid.dedicated_strategy
            strategy.flags[strategy.index["e"]] = True

        sim.schedule_at(0.5, flag)
        sim.schedule_at(0.0, sample)
        sim.schedule_at(3.0, lambda: mid.clear_dedicated_flags(["e"]))
        dep.start()
        sim.run(until=2.9)
        # 2 000 packets/s stalled for 2.4 s: the cursor was forked off, and
        # the log its siblings read never held its backlog.
        assert stalled.log is not log and stalled not in log.cursors
        assert max(longest) <= 2 * (_MAX_LAG + _CHUNK)
        sim.run(until=4.0)
        assert stalled.log is not log  # it counts on its private log
        assert max(longest) <= 2 * (_MAX_LAG + _CHUNK)
        by_cursor = {}
        for cursor, t0, t1, sent in windows:
            by_cursor.setdefault(cursor, []).append((t0, t1, sent))
        assert len(by_cursor) == 3
        for cursor, seen in by_cursor.items():
            oracle = _ScanCursor(cursor.flow, cursor.legs)
            for t0, t1, sent in seen:
                oracle.advance(t0)
                assert oracle.advance(t1) == sent
        resumed = [w for w in by_cursor[stalled] if w[0] >= 3.0]
        assert len(resumed) > 5 and all(w[2] > 0 for w in resumed)


# --------------------------------------------------------------------------
# loss profiles
# --------------------------------------------------------------------------


class TestLossProfile:
    def test_entry_loss_window_clipped(self):
        model = EntryLossFailure({"a"}, 0.5, start_time=1.0, end_time=2.0)
        profile = loss_profile(model)
        assert profile.segments("a", 0.0, 3.0) == [(1.0, 2.0, 0.5)]
        assert profile.segments("a", 1.5, 1.8) == [(1.5, 1.8, 0.5)]
        assert profile.segments("b", 0.0, 3.0) == []
        assert profile.segments("a", 2.5, 3.0) == []

    def test_uniform_loss_affects_every_entry(self):
        profile = loss_profile(UniformLossFailure(0.25, start_time=0.5))
        assert profile.segments("anything", 0.0, 1.0) == [(0.5, 1.0, 0.25)]

    def test_intermittent_duty_cycle(self):
        inner = UniformLossFailure(1.0)
        model = IntermittentFailure(inner, period_s=1.0, on_fraction=0.25)
        profile = loss_profile(model)
        segs = profile.segments("e", 0.0, 2.0)
        assert segs == [(0.0, 0.25, 1.0), (1.0, 1.25, 1.0)]

    def test_composite_survival_product(self):
        model = CompositeFailure([
            UniformLossFailure(0.5, start_time=0.0, end_time=2.0),
            UniformLossFailure(0.5, start_time=1.0, end_time=3.0),
        ])
        segs = loss_profile(model).segments("e", 0.0, 3.0)
        assert segs[0] == (0.0, 1.0, 0.5)
        a, b, p = segs[1]
        assert (a, b) == (1.0, 2.0) and p == pytest.approx(0.75)
        assert segs[2] == (2.0, 3.0, 0.5)

    def test_none_is_lossless(self):
        assert loss_profile(None).segments("e", 0.0, 10.0) == []

    @pytest.mark.parametrize("model", [
        PacketPropertyFailure(lambda p: p.size == 64, 1.0),
        object(),
    ])
    def test_unsupported_models_fail_loudly(self, model):
        with pytest.raises(FluidModelError):
            loss_profile(model)

    def test_control_plane_failure_is_lossless_for_data(self):
        # Control-plane loss only drops control messages, which stay
        # discrete; the fluid data profile across such a link is null.
        profile = loss_profile(ControlPlaneFailure(1.0))
        assert profile.segments("e", 0.0, 10.0) == []


class TestBinomial:
    def test_zero_and_one_are_exact_without_rng(self):
        class Exploding(random.Random):
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("p in {0, 1} must not draw")

        rng = Exploding(1)
        assert binomial(rng, 100, 0.0) == 0
        assert binomial(rng, 100, 1.0) == 100
        assert binomial(rng, 0, 0.5) == 0

    def test_seeded_and_deterministic(self):
        assert binomial(random.Random(5), 50, 0.3) == binomial(
            random.Random(5), 50, 0.3)

    def test_large_n_normal_approx_in_range(self):
        k = binomial(random.Random(9), 10_000, 0.5)
        assert 0 <= k <= 10_000
        assert abs(k - 5000) < 500

    @pytest.mark.parametrize("n", [50, 1000])  # exact path and approx path
    def test_matches_binomial_expectation(self, n):
        rng = random.Random(0)
        trials = 300
        mean = sum(binomial(rng, n, 0.3) for _ in range(trials)) / trials
        assert mean == pytest.approx(n * 0.3, rel=0.05)


# --------------------------------------------------------------------------
# dedicated-counter equivalence on a monitored fabric link
# --------------------------------------------------------------------------


def _build(loss_rate, seed=7, failure_start=0.3):
    sim = Simulator()
    net = FabricNetwork(sim, ring(3), link_bandwidth_bps=None,
                        link_delay_s=0.010)
    for e in ENTRIES:
        net.add_entry(e, "s0", "s2")
    cfg = FancyConfig(high_priority=ENTRIES, tree_params=None, seed=seed)
    dep = FabricDeployment(net, config=cfg, links=[LINK])
    if loss_rate:
        net.link("s0", "s2").loss_model = EntryLossFailure(
            {ENTRIES[0]}, loss_rate, start_time=failure_start, seed=5)
    mon = dep.monitors[LINK]
    exchanges: list[tuple] = []
    orig = mon.dedicated_strategy.end_session

    def spy(snapshot, session_id):
        exchanges.append((session_id,
                          tuple(mon.dedicated_strategy.counters),
                          tuple(snapshot)))
        return orig(snapshot, session_id)

    mon.dedicated_strategy.end_session = spy
    return sim, net, dep, mon, exchanges


def _run_discrete(loss_rate, until=1.0):
    sim, net, dep, mon, exchanges = _build(loss_rate)
    net.host("s2")
    for i, e in enumerate(ENTRIES):
        UdpSource(sim, net.host("s0").send, e, flow_id=i, rate_bps=800_000,
                  packet_size=500, jitter=0.3, seed=100 + i,
                  ).start(delay=0.002 * i)
    dep.start()
    sim.run(until=until)
    return exchanges, mon


def _run_fluid(loss_rate, until=1.0, failure_start=0.3):
    sim, net, dep, mon, exchanges = _build(loss_rate, failure_start=failure_start)
    engine = FluidTraffic(sim)
    flows = [FluidFlow(entry=e, flow_id=i, rate_bps=800_000, packet_size=500,
                       jitter=0.3, seed=100 + i, start_s=0.002 * i)
             for i, e in enumerate(ENTRIES)]
    for flow in flows:
        engine.add_flow(flow)
    engine.bind_monitor(mon, flows, legs=(net.access_delay_s,),
                        loss_model=net.link("s0", "s2").loss_model,
                        loss_seed=9)
    dep.start()
    sim.run(until=until)
    return exchanges, mon, engine


class TestDedicatedEquivalence:
    def test_lossless_exchanges_bit_identical(self):
        discrete, _ = _run_discrete(0.0)
        fluid, _, engine = _run_fluid(0.0)
        assert len(discrete) >= 8
        assert fluid == discrete
        assert engine.absorbed > 0 and engine.lost == 0

    def test_blackhole_bit_identical_until_flag_then_flow_retires(self):
        discrete, d_mon = _run_discrete(1.0)
        fluid, f_mon, engine = _run_fluid(1.0)
        d_flags = [(r.kind.value, r.entry, r.session_id)
                   for r in d_mon.log.reports]
        f_flags = [(r.kind.value, r.entry, r.session_id)
                   for r in f_mon.log.reports]
        # Both planes flag the same entry at the same session.  The
        # discrete source keeps sending into the blackhole, so every
        # later session re-flags; the fluid flow retires (hand-back
        # contract) and goes silent after the first report.
        assert len(d_flags) > 1 and len(f_flags) == 1
        assert d_flags[0] == f_flags[0]
        flag_session = f_flags[0][2]
        # Every exchange up to (and including) the flagging session is
        # bit-identical.
        d_prefix = [x for x in discrete if x[0] <= flag_session]
        f_prefix = [x for x in fluid if x[0] <= flag_session]
        assert d_prefix == f_prefix and len(d_prefix) >= 2
        lossless_idx = 1  # ENTRIES[1] is unaffected by the failure
        for (_, d_send, d_recv), (_, f_send, f_recv) in zip(discrete, fluid):
            assert d_send[lossless_idx] == f_send[lossless_idx]
            assert d_recv[lossless_idx] == f_recv[lossless_idx]

    def test_blackhole_receiver_counts_exact(self):
        # p=1.0 never touches the loss RNG: in the flagging session the
        # lossy entry's receiver counter is exactly zero while the sender
        # counter carries the full emission count.
        fluid, mon, engine = _run_fluid(1.0, failure_start=0.0)
        flag_session = mon.log.reports[0].session_id
        _, sent, recv = next(x for x in fluid if x[0] == flag_session)
        assert sent[0] > 0 and recv[0] == 0
        assert engine.lost > 0

    def test_partial_loss_prefix_exact_and_draws_plausible(self):
        discrete, d_mon = _run_discrete(0.5, until=2.0)
        fluid, f_mon, engine = _run_fluid(0.5, until=2.0)
        d_first = d_mon.log.reports[0]
        f_first = f_mon.log.reports[0]
        assert (d_first.entry, d_first.session_id) == \
            (f_first.entry, f_first.session_id)
        flag = f_first.session_id
        assert [x for x in fluid if x[0] < flag] == \
            [x for x in discrete if x[0] < flag]
        # In the flag session the sent counts still match bit-for-bit
        # (the flag lands only after the report comparison); received
        # counts are independent draws from the same binomial.
        d_flag = next(x for x in discrete if x[0] == flag)
        f_flag = next(x for x in fluid if x[0] == flag)
        assert d_flag[1] == f_flag[1]
        n = f_flag[1][0]
        assert 0 < f_flag[1][0] - f_flag[2][0] <= n
        assert 0 < d_flag[1][0] - d_flag[2][0] <= n
        # The lossless entry stays bit-identical for the whole run.
        for (_, d_send, d_recv), (_, f_send, f_recv) in zip(discrete, fluid):
            assert d_send[1] == f_send[1] and d_recv[1] == f_recv[1]
        assert engine.lost > 0

    def test_loss_draws_deterministic_across_runs(self):
        a, _, _ = _run_fluid(0.5)
        b, _, _ = _run_fluid(0.5)
        assert a == b


# --------------------------------------------------------------------------
# hash-tree zooming over fluid background (the fig9a-quick analogue)
# --------------------------------------------------------------------------


TREE_ENTRIES = [f"10.1.{i}.0/24" for i in range(8)]
LOSSY = TREE_ENTRIES[3]


def _run_tree(mode, loss_rate=1.0, until=4.0):
    sim = Simulator()
    net = FabricNetwork(sim, ring(3), link_bandwidth_bps=None,
                        link_delay_s=0.010)
    for e in TREE_ENTRIES:
        net.add_entry(e, "s0", "s2")
    dep = FabricDeployment(net, config=FancyConfig(high_priority=[], seed=3),
                           links=[LINK])
    net.link("s0", "s2").loss_model = EntryLossFailure(
        {LOSSY}, loss_rate, start_time=0.5, seed=5)
    mon = dep.monitors[LINK]
    if mode == "discrete":
        net.host("s2")
        for i, e in enumerate(TREE_ENTRIES):
            UdpSource(sim, net.host("s0").send, e, flow_id=i,
                      rate_bps=400_000, packet_size=500, jitter=0.2,
                      seed=100 + i).start(delay=0.001 * i)
    else:
        engine = FluidTraffic(sim)
        flows = [FluidFlow(entry=e, flow_id=i, rate_bps=400_000,
                           packet_size=500, jitter=0.2, seed=100 + i,
                           start_s=0.001 * i)
                 for i, e in enumerate(TREE_ENTRIES)]
        for flow in flows:
            engine.add_flow(flow)
        engine.bind_monitor(mon, flows, legs=(net.access_delay_s,),
                            loss_model=net.link("s0", "s2").loss_model,
                            loss_seed=9)
    dep.start()
    sim.run(until=until)
    first = mon.log.reports[0].time if mon.log.reports else None
    return first, sim.events_processed


class TestTreeDetectionTolerance:
    @pytest.mark.parametrize("loss_rate", [1.0, 0.5])
    def test_detection_latency_within_tolerance(self, loss_rate):
        d_time, d_events = _run_tree("discrete", loss_rate)
        f_time, f_events = _run_tree("fluid", loss_rate)
        assert d_time is not None and f_time is not None
        # One tree session (200 ms) of slack on detection latency; in
        # practice the two planes flag at the exact same instant.
        assert abs(f_time - d_time) <= 0.2
        # The point of the exercise: the fluid run absorbs nearly all
        # background events.
        assert f_events < d_events / 20


# --------------------------------------------------------------------------
# validation failures
# --------------------------------------------------------------------------


class TestBindingValidation:
    def test_unsupported_loss_model_rejected_at_bind_time(self):
        sim = Simulator()
        net = FabricNetwork(sim, ring(3), link_bandwidth_bps=None)
        for e in ENTRIES:
            net.add_entry(e, "s0", "s2")
        dep = FabricDeployment(
            net, config=FancyConfig(high_priority=ENTRIES, tree_params=None),
            links=[LINK])
        engine = FluidTraffic(sim)
        flow = engine.add_flow(FluidFlow(entry=ENTRIES[0], flow_id=0,
                                         rate_bps=1e6))
        with pytest.raises(FluidModelError):
            engine.bind_monitor(
                dep.monitors[LINK], [flow], legs=(net.access_delay_s,),
                loss_model=PacketPropertyFailure(lambda p: True, 1.0))
