"""Shared fixtures for the FANcY reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.hashtree import HashTree, HashTreeParams
from repro.simulator.engine import Simulator


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

