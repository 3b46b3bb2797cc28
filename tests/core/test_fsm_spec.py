"""The declared protocol transition tables and their static proof.

``SENDER_FSM_SPEC`` / ``RECEIVER_FSM_SPEC`` are the protocol's source of
truth for reviewers and for the FCY012 model checker.  These tests pin
the contract between the tables and the classes: well-formed literals,
states drawn from the enums, and a clean whole-program FSM pass over the
shipped module.
"""

from __future__ import annotations

import ast

from repro.core.protocol import (
    RECEIVER_FSM_SPEC,
    SENDER_FSM_SPEC,
    FancyReceiver,
    FancySender,
    ReceiverState,
    SenderState,
)
import repro.core.protocol as protocol_mod
from repro.lint.fsm import run_fsm_pass

SPECS = {"sender": SENDER_FSM_SPEC, "receiver": RECEIVER_FSM_SPEC}
ENUMS = {"sender": SenderState, "receiver": ReceiverState}
CLASSES = {"sender": FancySender, "receiver": FancyReceiver}

REQUIRED_KEYS = {
    "role", "fsm_class", "state_enum", "initial", "terminal",
    "lifecycle_methods", "backoff_helper", "transitions",
}


def test_specs_have_required_keys():
    for spec in SPECS.values():
        assert REQUIRED_KEYS <= set(spec)


def test_spec_names_match_their_objects():
    for role, spec in SPECS.items():
        assert spec["role"] == role
        assert spec["fsm_class"] == CLASSES[role].__name__
        assert spec["state_enum"] == ENUMS[role].__name__


def test_spec_states_are_enum_members():
    for role, spec in SPECS.items():
        members = {m.name for m in ENUMS[role]}
        named = {spec["initial"], *spec["terminal"]}
        for src, dst, _label, _kind in spec["transitions"]:
            named.update({src, dst})
        assert named - {"*"} <= members


def test_lifecycle_methods_exist():
    for role, spec in SPECS.items():
        for method in spec["lifecycle_methods"]:
            assert callable(getattr(CLASSES[role], method))


def test_backoff_helper_exists_when_declared():
    for role, spec in SPECS.items():
        helper = spec["backoff_helper"]
        if helper is not None:
            assert callable(getattr(CLASSES[role], helper))


def test_transition_kinds_are_known():
    kinds = {"event", "timer", "timeout", "lifecycle"}
    for spec in SPECS.values():
        assert {t[3] for t in spec["transitions"]} <= kinds


def test_specs_are_pure_literals():
    # The model checker reads the tables with ast.literal_eval without
    # importing the module; enum references would break that.
    with open(protocol_mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = 0
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id.endswith("_FSM_SPEC")):
            assert node.value is not None
            ast.literal_eval(node.value)  # raises if not a literal
            found += 1
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id.endswith("_FSM_SPEC")
                for t in node.targets):
            ast.literal_eval(node.value)
            found += 1
    assert found == 2


def test_static_model_check_proves_both_fsms():
    """FCY012 acceptance: the shipped classes implement exactly the
    declared tables."""
    with open(protocol_mod.__file__, encoding="utf-8") as fh:
        source = fh.read()
    models, diags = run_fsm_pass([(protocol_mod.__file__, ast.parse(source))])
    assert diags == [], [d.render() for d in diags]
    by_role = {m.spec.role: m for m in models}
    assert set(by_role) == {"sender", "receiver"}

    # every declared non-wildcard protocol arm has a concrete witness
    for role, model in by_role.items():
        implemented = {e.key() for e in model.protocol_edges}
        for src, dst, _label, kind in model.spec.transitions:
            if kind == "lifecycle" or src == "*":
                continue
            assert (src, dst) in implemented, (role, src, dst)
