"""Shared fixtures for the FANcY reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.hashtree import HashTree, HashTreeParams
from repro.simulator.engine import Simulator
from repro.telemetry import Telemetry


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_params() -> HashTreeParams:
    """A small tree that keeps unit tests readable."""
    return HashTreeParams(width=8, depth=3, split=2, pipelined=True)


@pytest.fixture
def small_tree(small_params) -> HashTree:
    return HashTree(small_params, seed=42)


class CollectorlessTelemetry(Telemetry):
    """A session whose per-link forks carry no trace collector."""

    def fork(self, scope=None):
        child = super().fork(scope)
        child.traces = None
        return child


@pytest.fixture
def collectorless_telemetry() -> type[Telemetry]:
    """Patch it over a probe's ``Telemetry`` to run that probe untraced."""
    return CollectorlessTelemetry
