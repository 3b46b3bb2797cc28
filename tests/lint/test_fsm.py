"""FCY012: static FSM extraction, model checking, artifacts.

The toy FSM below exercises the extractor and each checker in isolation;
the acceptance tests at the bottom mutate a scratch copy of the real
``repro/core/protocol.py`` and prove the model checker catches a deleted
or retargeted transition arm.
"""

from __future__ import annotations

import ast
import json
import textwrap

import repro.core.protocol as protocol_mod
from repro.lint.fsm import (
    fsm_to_dot,
    fsm_to_json,
    run_fsm_pass,
    write_fsm_artifacts,
)

TOY = """
import enum


class ToyState(enum.Enum):
    IDLE = 0
    BUSY = 1
    DONE = 2


TOY_FSM_SPEC = {
    "role": "toy",
    "fsm_class": "Toy",
    "state_enum": "ToyState",
    "initial": "IDLE",
    "terminal": ("DONE",),
    "lifecycle_methods": ("reset",),
    "backoff_helper": None,
    "transitions": (
        ("IDLE", "BUSY", "start", "event"),
        ("BUSY", "DONE", "finish", "event"),
        ("*", "IDLE", "reset", "lifecycle"),
    ),
}


class Toy:
    def __init__(self):
        self.state = ToyState.IDLE

    def _set_state(self, new):
        self.state = new

    def start(self):
        if self.state is ToyState.IDLE:
            self._set_state(ToyState.BUSY)

    def finish(self):
        if self.state is ToyState.BUSY:
            self._set_state(ToyState.DONE)

    def reset(self):
        self._set_state(ToyState.IDLE)
"""


def check(source: str, path: str = "toy.py"):
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    return run_fsm_pass([(path, tree)])


class TestExtraction:
    def test_clean_toy_fsm(self):
        models, diags = check(TOY)
        assert diags == [], [d.render() for d in diags]
        assert len(models) == 1

    def test_extracted_protocol_edges(self):
        models, _ = check(TOY)
        keys = {e.key() for e in models[0].protocol_edges}
        assert keys == {("IDLE", "BUSY"), ("BUSY", "DONE")}

    def test_lifecycle_edges_split_out(self):
        models, _ = check(TOY)
        keys = {e.key() for e in models[0].lifecycle_edges}
        assert keys == {("*", "IDLE")}

    def test_witness_metadata(self):
        models, _ = check(TOY)
        by_key = {e.key(): e for e in models[0].protocol_edges}
        assert by_key[("IDLE", "BUSY")].method == "start"
        assert by_key[("IDLE", "BUSY")].lineno > 0


class TestDrift:
    def test_deleted_transition_arm_detected(self):
        # Removing finish's state change leaves the declared BUSY -> DONE
        # transition unimplemented.
        mutated = TOY.replace("self._set_state(ToyState.DONE)", "pass")
        _, diags = check(mutated)
        assert any("BUSY -> DONE" in d.message
                   and "no implementation" in d.message for d in diags)

    def test_undeclared_code_transition_detected(self):
        sneak = TOY + (
            "\n"
            "def _attach(cls):\n"
            "    cls.sneak = lambda self: None\n"
        )
        mutated = sneak.replace(
            "    def reset(self):",
            "    def sneak(self):\n"
            "        self._set_state(ToyState.DONE)\n"
            "\n"
            "    def reset(self):",
        )
        _, diags = check(mutated)
        drift = [d for d in diags if "not declared" in d.message]
        assert drift, [d.render() for d in diags]
        # reported at the witness line, not at the spec
        assert all(d.line > 0 for d in drift)

    def test_unreachable_state_detected(self):
        mutated = TOY.replace("    DONE = 2", "    DONE = 2\n    ORPHAN = 3")
        _, diags = check(mutated)
        assert any("ORPHAN" in d.message and "unreachable" in d.message
                   for d in diags)

    def test_terminal_exit_detected(self):
        mutated = TOY.replace(
            '("BUSY", "DONE", "finish", "event"),',
            '("BUSY", "DONE", "finish", "event"),\n'
            '        ("DONE", "BUSY", "zombie", "event"),',
        )
        _, diags = check(mutated)
        assert any("terminal" in d.message for d in diags)


class TestSpecHygiene:
    def test_missing_keys_reported(self):
        mutated = TOY.replace('    "terminal": ("DONE",),\n', "")
        _, diags = check(mutated)
        assert any("missing keys" in d.message and "terminal" in d.message
                   for d in diags)

    def test_unknown_class_reported(self):
        mutated = TOY.replace('"fsm_class": "Toy"', '"fsm_class": "Ghost"')
        _, diags = check(mutated)
        assert any("unknown" in d.message and "Ghost" in d.message
                   for d in diags)

    def test_unknown_state_name_reported(self):
        mutated = TOY.replace('"initial": "IDLE"', '"initial": "LIMBO"')
        _, diags = check(mutated)
        assert any("unknown state `LIMBO`" in d.message for d in diags)


BACKOFF = """
import enum


class RState(enum.Enum):
    WAIT = 0
    DEAD = 1


RETRY_FSM_SPEC = {
    "role": "retry",
    "fsm_class": "Retry",
    "state_enum": "RState",
    "initial": "WAIT",
    "terminal": ("DEAD",),
    "lifecycle_methods": (),
    "backoff_helper": "_arm_timer",
    "transitions": (
        ("WAIT", "DEAD", "give_up", "timeout"),
    ),
}


class Retry:
    def __init__(self, sim, cap):
        self.state = RState.WAIT
        self.sim = sim
        self.attempts = 0
        self.cap = cap

    def _set_state(self, new):
        self.state = new

    def open(self):
        self._arm_timer()

    def _arm_timer(self):
        factor = min(2 ** self.attempts, self.cap)
        self.sim.schedule(factor, self._on_timeout)

    def _on_timeout(self):
        self.attempts += 1
        if self.attempts > 3:
            self._give_up()
            return
        self._arm_timer()

    def _give_up(self):
        if self.state is RState.WAIT:
            self._set_state(RState.DEAD)
"""


class TestBackoff:
    def test_capped_backoff_accepted(self):
        _, diags = check(BACKOFF)
        assert diags == [], [d.render() for d in diags]

    def test_uncapped_backoff_rejected(self):
        mutated = BACKOFF.replace(
            "factor = min(2 ** self.attempts, self.cap)",
            "factor = 2 ** self.attempts",
        )
        _, diags = check(mutated)
        assert any("does not cap" in d.message for d in diags)

    def test_timeout_without_helper_rejected(self):
        mutated = BACKOFF.replace('"backoff_helper": "_arm_timer"',
                                  '"backoff_helper": None')
        _, diags = check(mutated)
        assert any("no backoff_helper" in d.message for d in diags)

    def test_retry_path_must_rearm(self):
        # _on_timeout stops re-arming the timer: the caller of the
        # give-up witness no longer goes through the capped backoff path.
        mutated = BACKOFF.replace(
            "        if self.attempts > 3:\n"
            "            self._give_up()\n"
            "            return\n"
            "        self._arm_timer()",
            "        self._give_up()",
        )
        assert mutated != BACKOFF
        _, diags = check(mutated)
        assert any("without arming backoff" in d.message for d in diags), \
            [d.render() for d in diags]


class TestArtifacts:
    def test_json_shape(self):
        models, _ = check(TOY)
        payload = fsm_to_json(models)
        assert payload["version"] == 1
        fsm = payload["fsms"][0]
        assert fsm["role"] == "toy"
        assert fsm["clean"] is True
        assert {"from": "IDLE", "to": "BUSY", "label": "start",
                "kind": "event"} in fsm["declared"]
        assert fsm["extracted"]["protocol"]

    def test_dot_output(self):
        models, _ = check(TOY)
        dot = fsm_to_dot(models[0])
        assert dot.startswith('digraph "Toy"')
        assert '"IDLE" -> "BUSY"' in dot
        assert "doublecircle" in dot        # terminal styling
        assert "style=dashed" in dot        # lifecycle styling
        assert "MISSING" not in dot

    def test_dot_marks_drifted_edges(self):
        mutated = TOY.replace("self._set_state(ToyState.DONE)", "pass")
        models, _ = check(mutated)
        assert "MISSING" in fsm_to_dot(models[0])

    def test_write_artifacts(self, tmp_path):
        models, _ = check(TOY)
        written = write_fsm_artifacts(models, tmp_path / "out")
        names = [p.name for p in written]
        assert names == ["fsm.json", "fsm-toy.dot"]
        payload = json.loads((tmp_path / "out" / "fsm.json").read_text())
        assert payload["fsms"][0]["class"] == "Toy"


# --------------------------------------------------------------------------
# acceptance: mutations of the real protocol module are caught
# --------------------------------------------------------------------------


def _protocol_source() -> str:
    with open(protocol_mod.__file__, encoding="utf-8") as fh:
        return fh.read()


def _check_source(source: str):
    tree = ast.parse(source)
    return run_fsm_pass([("scratch_protocol.py", tree)])


def test_real_protocol_is_clean():
    models, diags = _check_source(_protocol_source())
    assert diags == [], [d.render() for d in diags]
    assert sorted(m.spec.role for m in models) == ["receiver", "sender"]


def test_deleted_sender_arm_is_detected():
    # Drop the WAIT_ACK -> COUNTING arm (start_ack handling).
    source = _protocol_source()
    needle = "self._set_state(SenderState.COUNTING)"
    assert source.count(needle) == 1
    _, diags = _check_source(source.replace(needle, "pass"))
    assert any("WAIT_ACK -> COUNTING" in d.message
               and "no implementation" in d.message for d in diags), \
        [d.render() for d in diags]


def test_deleted_receiver_arm_is_detected():
    source = _protocol_source()
    needle = "self._set_state(ReceiverState.COUNTING)"
    assert source.count(needle) == 1
    _, diags = _check_source(source.replace(needle, "pass"))
    assert any("SEND_ACK -> COUNTING" in d.message
               and "no implementation" in d.message for d in diags), \
        [d.render() for d in diags]


def test_retargeted_sender_arm_is_detected():
    # COUNTING -> WAIT_REPORT retargeted to FAILED: an undeclared edge.
    source = _protocol_source()
    needle = "self._set_state(SenderState.WAIT_REPORT)"
    assert source.count(needle) == 1
    _, diags = _check_source(
        source.replace(needle, "self._set_state(SenderState.FAILED)"))
    assert any("not declared" in d.message or "no implementation" in d.message
               for d in diags), [d.render() for d in diags]
