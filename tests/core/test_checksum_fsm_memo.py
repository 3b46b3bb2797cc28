"""``payload_checksum``'s memoised ``fsm`` field gives the loop's values.

Start, Stop and StartACK payloads are ``{fsm, session}``: the CRC of the
``("fsm", id)`` field, first in sorted key order, is memoised per FSM and
the running CRC goes on from it.  :func:`_loop_checksum` is the function
as it was before the memo, kept here as the oracle: every payload shape,
control or not, must check to the same value.
"""

from __future__ import annotations

import marshal
import zlib

from hypothesis import given, settings, strategies as st

from repro.core import protocol
from repro.core.protocol import _encode_refused, payload_checksum


def _loop_checksum(payload):
    crc = 0
    try:
        for key in sorted(payload):
            if key != "csum":
                value = payload[key]
                crc = zlib.crc32(marshal.dumps(
                    (key, None, sorted(value.items())) if type(value) is dict
                    else (key, value), 2), crc)
    except (TypeError, ValueError):
        return zlib.crc32(_encode_refused(payload))
    return crc


class StrSubclass(str):
    pass


SCALARS = st.one_of(
    st.integers(-2**40, 2**40), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.text(max_size=8),
    st.lists(st.integers(0, 2**31 - 1), max_size=4),
    st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(0, 9),
                    max_size=3),
    st.builds(object), st.builds(StrSubclass, st.text(max_size=4)),
)
FSM_IDS = st.one_of(
    st.sampled_from(["s0->s1:dedicated", "s0->s1:tree", "A->B", ""]),
    st.text(max_size=12), st.integers(0, 3), st.none(),
    st.builds(StrSubclass, st.sampled_from(["s0->s1:tree", "x"])),
)


@st.composite
def payloads(draw):
    payload = {}
    if draw(st.booleans()):
        payload["fsm"] = draw(FSM_IDS)
    if draw(st.booleans()):
        payload["session"] = draw(SCALARS)
    if draw(st.booleans()):
        payload["csum"] = draw(st.integers(0, 2**32 - 1))
    for key in draw(st.lists(st.sampled_from(
            ["snapshot", "attempt", "zz", 7]), max_size=2, unique=True)):
        payload[key] = draw(SCALARS)
    return payload


class TestFsmFieldMemo:
    @settings(max_examples=600, deadline=None)
    @given(payloads())
    def test_same_value_as_the_loop(self, payload):
        assert payload_checksum(payload) == _loop_checksum(payload)
        # Again, now that the memo holds this FSM id.
        assert payload_checksum(payload) == _loop_checksum(payload)

    @given(st.text(max_size=12), st.integers(0, 2**31 - 1))
    def test_control_shapes(self, fsm, session):
        start = {"fsm": fsm, "session": session}
        assert payload_checksum(start) == _loop_checksum(start)
        signed = dict(start, csum=payload_checksum(start))
        assert payload_checksum(signed) == _loop_checksum(start)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(protocol, "_FSM_FIELD_CRC", {})
        monkeypatch.setattr(protocol, "_FSM_FIELD_CRC_MAX", 4)
        for i in range(10):
            payload = {"fsm": f"fsm{i}", "session": i}
            assert payload_checksum(payload) == _loop_checksum(payload)
            assert len(protocol._FSM_FIELD_CRC) <= 4
