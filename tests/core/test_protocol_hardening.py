"""Tests for the §4.1 hardening layer of the counting-protocol FSMs.

The base FSM transitions are covered by ``test_protocol.py``; this module
exercises the hostile-channel defenses added for the chaos subsystem:

* payload checksums (``payload_checksum`` / ``verify_payload``: CRC-32
  over a canonical binary encoding, property-tested below) and the
  bounded re-request path for corrupted responses;
* capped exponential backoff on the retransmission timer;
* stale-session rejection and duplicate idempotence on both FSMs;
* switch-restart semantics (sender persists a session epoch, receiver is
  stateless) and the ``coerce_remote_snapshot`` garbage fence.
"""

from __future__ import annotations

import marshal
import zlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.perturbations import CorruptField
from repro.core.counters import coerce_remote_snapshot
from repro.core.protocol import (
    FancyReceiver,
    FancySender,
    ReceiverState,
    SenderState,
    payload_checksum,
    verify_payload,
)
from repro.simulator.packet import MIN_FRAME_BYTES, Packet, PacketKind
from repro.telemetry import Telemetry


class RecordingStrategy:
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
    """Bidirectional control channel logging (time, direction, kind)."""

    def __init__(self, sim, delay=0.010):
        self.sim = sim
        self.delay = delay
        self.sender: FancySender | None = None
        self.receiver: FancyReceiver | None = None
        self.drop_to_receiver = lambda kind: False
        self.drop_to_sender = lambda kind: False
        self.log = []

    def to_receiver(self, kind, payload, size):
        self.log.append((self.sim.now, "->", kind, dict(payload)))
        if self.drop_to_receiver(kind):
            return
        self.sim.schedule(self.delay, self.receiver.on_control, kind, payload)

    def to_sender(self, kind, payload, size):
        self.log.append((self.sim.now, "<-", kind, dict(payload)))
        if self.drop_to_sender(kind):
            return
        self.sim.schedule(self.delay, self.sender.on_control, kind, payload)


def make_pair(sim, session_duration=0.05, rtx=0.05, max_attempts=5,
              twait=0.001, **sender_kwargs):
    chan = Channel(sim)
    s_strat, r_strat = RecordingStrategy(), RecordingStrategy()
    failures = []
    sender = FancySender(sim, "fsm", chan.to_receiver, s_strat,
                         session_duration=session_duration, rtx_timeout=rtx,
                         max_attempts=max_attempts,
                         on_link_failure=lambda fid, t: failures.append((fid, t)),
                         **sender_kwargs)
    receiver = FancyReceiver(sim, "fsm", chan.to_sender, r_strat, twait=twait)
    chan.sender, chan.receiver = sender, receiver
    return sender, receiver, s_strat, r_strat, chan, failures


def signed(payload):
    """Attach a valid checksum to a hand-crafted payload."""
    payload = dict(payload)
    payload["csum"] = payload_checksum(payload)
    return payload


def emissions(chan, direction, kind):
    return [(t, p) for t, d, k, p in chan.log if d == direction and k is kind]


class TestPayloadChecksum:
    def test_deterministic_and_ignores_csum_key(self):
        payload = {"fsm": "d/1", "session": 7, "snapshot": [1, 2, 3]}
        a = payload_checksum(payload)
        assert a == payload_checksum(dict(payload))
        with_csum = dict(payload, csum=a)
        assert payload_checksum(with_csum) == a  # csum key is excluded

    def test_insensitive_to_dict_insertion_order(self):
        a = payload_checksum({"fsm": "x", "session": 1})
        b = payload_checksum({"session": 1, "fsm": "x"})
        assert a == b

    def test_covers_tuple_keyed_dicts(self):
        # Tree snapshots carry dicts keyed by hash paths (tuples).
        base = {"snapshot": {(0, 1): 4, (1, 0): 9}}
        tweaked = {"snapshot": {(0, 1): 4, (1, 0): 10}}
        assert payload_checksum(base) != payload_checksum(tweaked)
        # identical content, reversed insertion order
        reordered = {"snapshot": {(1, 0): 9, (0, 1): 4}}
        assert payload_checksum(base) == payload_checksum(reordered)

    def test_sensitive_to_value_changes(self):
        assert payload_checksum({"session": 1}) != payload_checksum({"session": 2})
        assert payload_checksum({"snapshot": [0, 1]}) != \
            payload_checksum({"snapshot": [1, 0]})

    def test_verify_payload(self):
        payload = signed({"fsm": "d/1", "session": 3, "snapshot": (5,)})
        assert verify_payload(payload)
        payload["snapshot"] = (6,)  # in-flight bit-rot
        assert not verify_payload(payload)
        # locally crafted payloads without a checksum are trusted
        assert verify_payload({"fsm": "d/1", "session": 3})


#: Counter cells as the wire carries them: one fixed-width field each.
CELLS = st.integers(min_value=0, max_value=2**31 - 1)
LIST_SNAPSHOTS = st.lists(CELLS, min_size=1, max_size=64)
NODE_PATHS = st.lists(st.integers(0, 7), max_size=3).map(tuple)
TREE_SNAPSHOTS = st.dictionaries(NODE_PATHS, st.lists(CELLS, min_size=1, max_size=16),
                                 min_size=1, max_size=5)


def report(snapshot, session=7):
    return {"fsm": "s1->s2/tree", "session": session, "snapshot": snapshot}


def reversed_dict(d):
    return dict(reversed(list(d.items())))


class Opaque:
    """An object no encoder knows: only ``repr`` covers it."""


class TestChecksumProperties:
    """CRC-32 over one canonical encoding: what it guarantees, asserted."""

    @settings(max_examples=50, deadline=None)
    @given(TREE_SNAPSHOTS, st.integers(0, 2**31 - 1))
    def test_insertion_order_never_matters(self, tree, session):
        payload = report(tree, session)
        shuffled = reversed_dict(report(reversed_dict(tree), session))
        assert list(shuffled) != list(payload)
        assert payload_checksum(shuffled) == payload_checksum(payload)

    @settings(max_examples=100, deadline=None)
    @given(LIST_SNAPSHOTS, st.data())
    def test_any_single_cell_change_in_a_list_snapshot_is_detected(
            self, cells, data):
        idx = data.draw(st.integers(0, len(cells) - 1))
        other = data.draw(CELLS.filter(lambda v: v != cells[idx]))
        changed = cells[:idx] + [other] + cells[idx + 1:]
        # a cell is one 32-bit field, so any change is a burst <= 32 bits:
        # always detected, not merely with probability 1 - 2**-32
        assert payload_checksum(report(changed)) != payload_checksum(report(cells))

    @settings(max_examples=100, deadline=None)
    @given(TREE_SNAPSHOTS, st.data())
    def test_any_single_bit_flip_in_a_tree_snapshot_is_detected(
            self, tree, data):
        path = data.draw(st.sampled_from(sorted(tree)))
        idx = data.draw(st.integers(0, len(tree[path]) - 1))
        bit = 1 << data.draw(st.integers(0, 30))
        flipped = {p: list(cells) for p, cells in tree.items()}
        flipped[path][idx] ^= bit
        assert payload_checksum(report(flipped)) != payload_checksum(report(tree))

    @settings(max_examples=50, deadline=None)
    @given(LIST_SNAPSHOTS, st.integers(0, 2**31 - 1), st.integers(0, 30))
    def test_any_single_bit_flip_of_the_session_is_detected(
            self, cells, session, bit):
        assert payload_checksum(report(cells, session ^ (1 << bit))) \
            != payload_checksum(report(cells, session))

    def test_scalar_types_stay_distinct(self):
        values = [1, True, 1.0, "1", b"1", None, [1], (1,)]
        sums = {payload_checksum({"snapshot": v}) for v in values}
        assert len(sums) == len(values)

    def test_dict_and_list_of_pairs_do_not_collide(self):
        assert payload_checksum({"snapshot": {(0,): [1]}}) \
            != payload_checksum({"snapshot": [((0,), [1])]})

    def test_a_nested_dict_is_not_its_item_list_either(self):
        # one level down, inside the dict-valued field
        assert payload_checksum({"snapshot": {(0,): {"a": 1}}}) \
            != payload_checksum({"snapshot": {(0,): [("a", 1)]}})
        # and the dict framing cannot be forged from a plain value
        items = [((0,), [1])]
        assert len({payload_checksum({"snapshot": v}) for v in (
            dict(items), items, (None, items), [None, items])}) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(LIST_SNAPSHOTS, TREE_SNAPSHOTS),
           st.integers(0, 2**31 - 1))
    def test_streamed_crc_is_the_crc_of_the_concatenated_fields(
            self, snapshot, session):
        """The running ``crc32(field, crc)`` is the CRC of the whole
        message, so the burst guarantee covers every bit of it."""
        payload = signed(report(snapshot, session))

        def encode(key, value):
            if type(value) is dict:
                return marshal.dumps((key, None, sorted(value.items())), 2)
            return marshal.dumps((key, value), 2)

        message = b"".join(encode(key, payload[key])
                           for key in sorted(payload) if key != "csum")
        assert payload_checksum(payload) == zlib.crc32(message)
        # ... whatever order the fields and the snapshot were built in
        if type(snapshot) is dict:
            payload["snapshot"] = reversed_dict(snapshot)
        assert payload_checksum(reversed_dict(payload)) == zlib.crc32(message)

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                  st.floats(allow_nan=True), st.builds(Opaque),
                  st.frozensets(st.integers(0, 9), max_size=3)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.one_of(st.integers(0, 9), st.text(max_size=2)),
                            inner, max_size=3)),
        max_leaves=8))
    def test_arbitrary_values_never_raise(self, value):
        payload = report(value)
        first = payload_checksum(payload)
        assert 0 <= first < 2**32
        assert verify_payload(signed(payload))

    def test_encoding_ignores_object_identity(self):
        # equal values, different objects: no refcount- or interning-
        # dependent byte may reach the CRC
        big = 10**12
        shared = report([big, big], session=big)
        fresh = report([10**12, int("1000000000000")], session=int("1" + "0" * 12))
        fresh["fsm"] = "".join(["s1->s2", "/tree"])
        assert fresh["fsm"] is not shared["fsm"]
        assert payload_checksum(shared) == payload_checksum(fresh)

    @pytest.mark.parametrize("value", [
        {3, 1, 2},
        Opaque(),
        [1, {"b": 2, "a": 1}],
        array("Q", [1, 2, 3]),
        {1: [0], "mixed": [1]},          # unsortable keys
        {(0,): [1, Opaque()]},
    ], ids=["set", "object", "dict-in-list", "array", "mixed-keys",
            "object-in-tree"])
    def test_refused_values_are_deterministic_and_never_raise(self, value):
        payload = report(value)
        first = payload_checksum(payload)
        assert 0 <= first < 2**32
        assert payload_checksum(dict(payload)) == first
        assert verify_payload(signed(payload))
        assert payload_checksum(report(value, session=8)) != first

    def test_refused_keys_are_still_order_insensitive(self):
        thing = Opaque()
        a = {"session": 1, 2: thing, "fsm": "x"}
        assert payload_checksum(a) == payload_checksum(reversed_dict(a))
        tree = {(0,): [thing], (1,): [2]}
        assert payload_checksum(report(tree)) \
            == payload_checksum(report(reversed_dict(tree)))

    def test_self_referential_payload_does_not_raise(self):
        loop: list = []
        loop.append(loop)
        assert verify_payload(signed(report(loop)))

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(LIST_SNAPSHOTS, TREE_SNAPSHOTS))
    def test_verify_round_trips_through_shallow_copies(self, snapshot):
        # chaos/perturbations.py forwards ``dict(payload)`` copies
        payload = signed(report(snapshot))
        assert verify_payload(dict(payload))
        assert verify_payload(reversed_dict(payload))


class TestCorruptResponses:
    def test_corrupt_ack_is_rerequested_and_consumes_an_attempt(self, sim):
        sender, receiver, _, _, chan, failures = make_pair(sim)
        chan.drop_to_receiver = lambda kind: True  # keep the FSM in WAIT_ACK
        sender.start()
        before = sender.attempts
        sender.on_control(PacketKind.FANCY_START_ACK,
                          {"fsm": "fsm", "session": 1, "csum": 0xBAD})
        assert sender.rejected_corrupt == 1
        assert sender.state is SenderState.WAIT_ACK  # never acted upon
        assert sender.attempts == before + 1  # re-request is budgeted
        # the re-request actually hit the wire
        assert len(emissions(chan, "->", PacketKind.FANCY_START)) == 2
        assert not failures

    def test_persistent_corruption_declares_link_failure(self, sim):
        sender, receiver, _, _, chan, failures = make_pair(sim, max_attempts=5)
        chan.drop_to_receiver = lambda kind: True
        sender.start()
        fed = 0
        while sender.state is SenderState.WAIT_ACK and fed < 20:
            sender.on_control(PacketKind.FANCY_START_ACK,
                              {"fsm": "fsm", "session": 1, "csum": 0xBAD})
            fed += 1
        # bounded: max_attempts re-requests, then FAILED — never a loop
        assert sender.state is SenderState.FAILED
        assert fed == 5
        assert sender.rejected_corrupt == 5
        assert len(failures) == 1

    def test_corrupt_report_rerequests_stop(self, sim):
        sender, receiver, _, _, chan, _ = make_pair(sim)
        chan.drop_to_sender = lambda kind: kind is PacketKind.FANCY_REPORT
        sender.start()
        sim.run(until=0.08)  # handshake + session close -> WAIT_REPORT
        assert sender.state is SenderState.WAIT_REPORT
        stops_before = len(emissions(chan, "->", PacketKind.FANCY_STOP))
        sender.on_control(PacketKind.FANCY_REPORT,
                          {"fsm": "fsm", "session": sender.session_id,
                           "snapshot": [1], "csum": 0xBAD})
        assert sender.rejected_corrupt == 1
        assert sender.state is SenderState.WAIT_REPORT
        assert len(emissions(chan, "->", PacketKind.FANCY_STOP)) \
            == stops_before + 1

    def test_receiver_drops_corrupt_start_silently(self, sim):
        sender, receiver, _, r_strat, chan, _ = make_pair(sim)
        receiver.on_control(PacketKind.FANCY_START,
                            {"fsm": "fsm", "session": 1, "csum": 0xBAD})
        assert receiver.rejected_corrupt == 1
        assert receiver.state is ReceiverState.IDLE
        assert r_strat.sessions_started == []
        assert emissions(chan, "<-", PacketKind.FANCY_START_ACK) == []


def corrupt_by_chaos(field):
    """Mangle a payload the way the chaos subsystem does on the wire."""
    fault = CorruptField(1.0, field=field, seed=1)

    def mangle(payload):
        pkt = Packet(PacketKind.FANCY_REPORT, None, MIN_FRAME_BYTES)
        pkt.payload = payload
        *_, corrupt = fault.evaluate(pkt, 0.0)
        assert corrupt(pkt) == "control"
        assert pkt.payload is not payload  # corrupted by copy
        return pkt.payload

    return mangle


def flip_cell(payload):
    copy = dict(payload)
    cells = list(copy["snapshot"])
    cells[1] ^= 1
    copy["snapshot"] = cells
    return copy


def flip_session(payload):
    return dict(payload, session=payload["session"] ^ 1)


def flip_csum(payload):
    return dict(payload, csum=payload["csum"] ^ 1)


class TestVerificationNotWeakened:
    """Every in-flight corruption of a Report is recomputed and caught."""

    @pytest.mark.parametrize("mangle", [
        corrupt_by_chaos("snapshot"), corrupt_by_chaos("session"),
        flip_cell, flip_session, flip_csum,
    ], ids=["chaos-snapshot", "chaos-session", "hand-cell", "hand-session",
            "hand-csum"])
    def test_corrupt_report_rerequested_until_attempts_exhaust(self, sim,
                                                               mangle):
        sender, receiver, s_strat, r_strat, chan, failures = make_pair(
            sim, max_attempts=5)
        r_strat.snapshot = lambda: [3, 5, 8]

        def corrupting(kind, payload, size):
            if kind is PacketKind.FANCY_REPORT:
                payload = mangle(payload)
            chan.to_sender(kind, payload, size)

        receiver.send_control = corrupting
        sender.start()
        sim.run(until=2.0)
        # corrupted by copy: the receiver's cached Report stayed clean, yet
        # every copy that reached the sender was caught and re-requested
        assert receiver._last_report == {"snapshot": [3, 5, 8]}
        assert sender.rejected_corrupt == 5
        assert sender.rejected_stale == 0  # corruption is judged first
        assert len(emissions(chan, "->", PacketKind.FANCY_STOP)) == 5
        assert sender.state is SenderState.FAILED
        assert len(failures) == 1
        assert sender.sessions_completed == 0
        assert s_strat.sessions_ended == []  # never acted upon


class TestGarbageSession:
    """A session id that is not an int is corrupt — never a TypeError."""

    GARBAGE = ["1", None, [1], 1.5, True, (2,)]

    @pytest.mark.parametrize("garbage", GARBAGE, ids=repr)
    def test_receiver_rejects_as_corrupt(self, sim, garbage):
        telemetry = Telemetry()
        sent = []
        receiver = FancyReceiver(
            sim, "fsm", lambda kind, payload, size: sent.append(kind),
            RecordingStrategy(), telemetry=telemetry)
        receiver.on_control(PacketKind.FANCY_START,
                            {"fsm": "fsm", "session": garbage})
        assert receiver.rejected_corrupt == 1
        assert receiver.rejected_stale == 0
        assert receiver.state is ReceiverState.IDLE
        assert receiver.session_id == 0
        assert sent == []
        assert telemetry.metrics.value(
            "fancy_rejected_messages_total", fsm="fsm", role="receiver",
            reason="corrupt") == 1
        # the FSM is not wedged: a well-formed Start still opens a session
        receiver.on_control(PacketKind.FANCY_START,
                            signed({"fsm": "fsm", "session": 1}))
        assert receiver.session_id == 1
        assert sent == [PacketKind.FANCY_START_ACK]

    @pytest.mark.parametrize("garbage", GARBAGE, ids=repr)
    def test_sender_rejects_as_corrupt_and_rerequests(self, sim, garbage):
        sender, _, _, _, chan, failures = make_pair(sim)
        chan.drop_to_receiver = lambda kind: True
        sender.start()
        sender.on_control(PacketKind.FANCY_START_ACK,
                          {"fsm": "fsm", "session": garbage})
        assert sender.rejected_corrupt == 1
        assert sender.rejected_stale == 0
        assert sender.state is SenderState.WAIT_ACK
        assert len(emissions(chan, "->", PacketKind.FANCY_START)) == 2
        assert not failures

    def test_missing_session_is_still_merely_stale(self, sim):
        sender, receiver, _, _, chan, _ = make_pair(sim)
        receiver.on_control(PacketKind.FANCY_START, signed({"fsm": "fsm",
                                                            "session": 2}))
        receiver.on_control(PacketKind.FANCY_STOP, {"fsm": "fsm"})
        assert (receiver.rejected_corrupt, receiver.rejected_stale) == (0, 1)


class TestCappedBackoff:
    def test_start_retransmission_gaps_double_then_fail(self, sim):
        sender, _, _, _, chan, failures = make_pair(sim, rtx=0.05,
                                                    max_attempts=5)
        chan.drop_to_receiver = lambda kind: True
        sender.start()
        sim.run(until=2.0)
        times = [t for t, _ in emissions(chan, "->", PacketKind.FANCY_START)]
        assert times == pytest.approx([0.0, 0.05, 0.15, 0.35, 0.75])
        # declaration at the documented 1.15 s worst case: the cap bites
        # on the fifth wait (2**4 = 16 > 8 -> 0.4 s, not 0.8 s)
        assert failures and failures[0][1] == pytest.approx(1.15)

    def test_backoff_factor_is_capped(self, sim):
        sender, _, _, _, chan, failures = make_pair(sim, rtx=0.05,
                                                    max_attempts=6,
                                                    backoff_cap=2)
        chan.drop_to_receiver = lambda kind: True
        sender.start()
        sim.run(until=2.0)
        times = [t for t, _ in emissions(chan, "->", PacketKind.FANCY_START)]
        # gaps: 1, 2, then capped at 2x the base for every later attempt
        assert times == pytest.approx([0.0, 0.05, 0.15, 0.25, 0.35, 0.45])
        assert failures and failures[0][1] == pytest.approx(0.55)

    def test_backoff_cap_validated(self, sim):
        with pytest.raises(ValueError):
            make_pair(sim, backoff_cap=0)


class TestStaleSessionRejection:
    def wait_report(self, sim, **kwargs):
        made = make_pair(sim, **kwargs)
        sender, receiver, s_strat, r_strat, chan, failures = made
        chan.drop_to_sender = lambda kind: kind is PacketKind.FANCY_REPORT
        sender.start()
        sim.run(until=0.08)
        assert sender.state is SenderState.WAIT_REPORT
        return made

    def test_stale_report_rejected_then_fresh_accepted(self, sim):
        sender, _, s_strat, _, _, _ = self.wait_report(sim)
        stale = signed({"fsm": "fsm", "session": sender.session_id - 1,
                        "snapshot": [9]})
        sender.on_control(PacketKind.FANCY_REPORT, stale)
        assert sender.rejected_stale == 1
        assert sender.state is SenderState.WAIT_REPORT  # unchanged
        assert sender.sessions_completed == 0
        fresh = signed({"fsm": "fsm", "session": sender.session_id,
                        "snapshot": [2]})
        sender.on_control(PacketKind.FANCY_REPORT, fresh)
        assert sender.sessions_completed == 1
        assert s_strat.sessions_ended == [(1, [2])]

    def test_regression_fixture_flag_acts_on_stale(self, sim):
        sender, *_ = self.wait_report(sim, accept_stale_responses=True)
        stale = signed({"fsm": "fsm", "session": sender.session_id - 1,
                        "snapshot": [9]})
        sender.on_control(PacketKind.FANCY_REPORT, stale)
        # still *counted* as stale (the soak harness asserts on this) ...
        assert sender.rejected_stale == 1
        # ... but the unhardened FSM acts on it: session closes on old data
        assert sender.sessions_completed == 1

    def test_duplicate_report_is_idempotent(self, sim):
        sender, _, s_strat, _, _, _ = self.wait_report(sim)
        report = signed({"fsm": "fsm", "session": sender.session_id,
                         "snapshot": [4]})
        sender.on_control(PacketKind.FANCY_REPORT, report)
        assert sender.sessions_completed == 1
        assert sender.session_id == 2  # next session already open
        sender.on_control(PacketKind.FANCY_REPORT, dict(report))
        # the duplicate is stale relative to the new session: no double close
        assert sender.sessions_completed == 1
        assert sender.rejected_stale == 1
        assert len(s_strat.sessions_ended) == 1

    def test_receiver_rejects_session_regression(self, sim):
        _, receiver, _, r_strat, _, _ = make_pair(sim)
        receiver.on_control(PacketKind.FANCY_START,
                            signed({"fsm": "fsm", "session": 3}))
        assert receiver.session_id == 3
        receiver.on_control(PacketKind.FANCY_START,
                            signed({"fsm": "fsm", "session": 1}))
        assert receiver.rejected_stale == 1
        assert receiver.session_id == 3  # never regresses
        assert r_strat.sessions_started == [3]

    def test_receiver_reacks_duplicate_start(self, sim):
        _, receiver, _, r_strat, chan, _ = make_pair(sim)
        start = signed({"fsm": "fsm", "session": 1})
        receiver.on_control(PacketKind.FANCY_START, start)
        receiver.on_control(PacketKind.FANCY_START, dict(start))
        # one session, two ACKs (the first ACK may have been lost)
        assert r_strat.sessions_started == [1]
        assert len(emissions(chan, "<-", PacketKind.FANCY_START_ACK)) == 2

    def test_lost_report_recovered_from_receiver_cache(self, sim):
        sender, receiver, _, _, chan, failures = make_pair(sim)
        dropped = []

        def drop_first_report(kind):
            if kind is PacketKind.FANCY_REPORT and not dropped:
                dropped.append(sim.now)
                return True
            return False

        chan.drop_to_sender = drop_first_report
        sender.start()
        sim.run(until=0.5)
        assert dropped  # the fault actually fired
        assert sender.sessions_completed >= 1  # cached Report resent on Stop
        assert not failures


class TestRestartSemantics:
    def test_sender_restart_keeps_session_monotone(self, sim):
        sender, _, s_strat, _, chan, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        assert sender.state is SenderState.COUNTING
        old = sender.session_id
        sender.restart()
        assert sender.restarts == 1
        assert sender.session_id == old + 1  # persisted epoch, never reused
        assert sender.state is SenderState.WAIT_ACK
        # a response from the pre-crash session is stale, not actionable
        sender.on_control(PacketKind.FANCY_START_ACK,
                          signed({"fsm": "fsm", "session": old}))
        assert sender.rejected_stale == 1
        assert sender.state is SenderState.WAIT_ACK

    def test_receiver_restart_wipes_all_state(self, sim):
        sender, receiver, _, _, chan, _ = make_pair(sim)
        sender.start()
        sim.run(until=0.2)  # at least one full session: cached Report exists
        assert receiver._last_report is not None
        assert receiver.session_id > 0
        receiver.restart()
        assert receiver.restarts == 1
        assert receiver.session_id == 0
        assert receiver._last_report is None
        assert receiver.state is ReceiverState.IDLE

    def test_receiver_restart_surfaces_as_link_failure(self, sim):
        """A Stop addressed to pre-crash state goes unanswered: the sender
        exhausts its attempts — downstream state loss is *reported*, not
        silently absorbed (§4.1 safety net)."""
        sender, receiver, _, _, chan, failures = make_pair(sim)
        sender.start()
        sim.run(until=0.03)
        assert sender.state is SenderState.COUNTING
        receiver.restart()
        # after the restart the receiver is IDLE with no cached Report, so
        # the sender's Stops die; ACKs for the *next* session would need a
        # fresh Start which the sender only sends after this session fails.
        sim.run(until=3.0)
        assert failures, "downstream amnesia must be declared a link failure"


class TestCoerceRemoteSnapshot:
    def test_non_sequences_become_empty(self):
        assert coerce_remote_snapshot(None) == ()
        assert coerce_remote_snapshot(42) == ()
        assert coerce_remote_snapshot("abc") == ()
        assert coerce_remote_snapshot(b"abc") == ()

    def test_non_int_cells_zeroed_individually(self):
        assert coerce_remote_snapshot([1, "x", 2]) == [1, 0, 2]
        assert coerce_remote_snapshot([None, 3.5]) == [0, 0]
        # bool is not int for counter purposes
        assert coerce_remote_snapshot([True, 2]) == [0, 2]

    def test_clean_snapshots_pass_through(self):
        snap = (1, 2, 3)
        assert coerce_remote_snapshot(snap) is snap
        # A list takes the fast path, and is still checked cell by cell.
        cells = [1, 2, 3]
        assert coerce_remote_snapshot(cells) is cells
        assert coerce_remote_snapshot([]) == []
        assert coerce_remote_snapshot([1, b"x", 2.0]) == [1, 0, 0]
