"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (in the
reduced quick configuration — see DESIGN.md), asserts its shape, and
writes the rendered artifact to ``results/`` next to this file so the
reproduction output can be inspected after the run.

Speed is measured by the ledger under ``perf/`` (``BENCHMARK.json``),
not by these tests.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_artifact(results_dir):
    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save
