"""The names that code outside the package looks up stay where it looks.

The benchmark under ``bench/`` wraps the program's functions at the names
its callers use and builds agents and observations for its fake endpoint.
A refactor that drops or moves one of those names fails here, by name,
before the benchmark ever runs.
"""

import importlib
from pathlib import Path

import pytest

from roguewatch import core, harness
from roguewatch.intervention import TriggerBudget

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The bench's own modules, imported from ``bench/``; importing the fake
    endpoint looks up every package name it builds its replies from."""
    monkeypatch.syspath_prepend(str(BENCH))
    return {name: importlib.import_module(name) for name in ("spans", "workloads", "fake_endpoint")}


def test_the_bench_wraps_every_name_it_looks_up(bench):
    spans, workloads = bench["spans"], bench["workloads"]
    tracer = spans.Tracer()
    before = harness.run_whodunit_game
    try:
        workloads.install_spans(tracer)
        assert harness.run_whodunit_game is not before
    finally:
        tracer.uninstall()
    assert harness.run_whodunit_game is before


def test_the_bench_calls_keep_their_shapes():
    """The bench's trigger counter reads a plain bool, and its recount parses
    a log with one argument."""
    budget = TriggerBudget(cap_per_role=1)
    assert harness.evaluate_trigger(0.1, 0.5, budget, "accuser") is True
    assert harness.evaluate_trigger(0.1, 0.5, budget, "accuser") is False
    assert harness.evaluate_trigger(0.9, 0.5, budget, "intel") is False
    assert core.parse_trajectory_jsonl('{"outcome": "success", "length": 0}\n') == [
        {"turns": [], "outcome": "success", "length": 0}
    ]
