"""solve_scenario: the time limit covers the whole solve, not just the search."""

import types

import pytest

from scoutplan import SolveOptions, planner
from scoutplan.generate import random_tiny_scenario


def fake_clock(monkeypatch, *readings):
    """Make planner's clock return the readings in turn, then the last one."""
    readings = list(readings)

    def monotonic():
        return readings.pop(0) if len(readings) > 1 else readings[0]

    monkeypatch.setattr(planner, "time", types.SimpleNamespace(monotonic=monotonic))


def record_search_options(monkeypatch):
    seen = []
    search = planner.solve_milp

    def recorded(model, options=None, **kwargs):
        seen.append(options)
        return search(model, options, **kwargs)

    monkeypatch.setattr(planner, "solve_milp", recorded)
    return seen


def test_time_before_the_search_counts_against_the_limit(monkeypatch):
    fake_clock(monkeypatch, 100.0, 130.0)
    seen = record_search_options(monkeypatch)
    outcome = planner.solve_scenario(random_tiny_scenario(3),
                                     SolveOptions(time_limit=45.0))
    assert [options.time_limit for options in seen] == [pytest.approx(15.0)]
    assert outcome.result.status == "optimal"


def test_spent_limit_leaves_the_search_no_nodes(monkeypatch):
    fake_clock(monkeypatch, 100.0, 160.0)
    seen = record_search_options(monkeypatch)
    outcome = planner.solve_scenario(random_tiny_scenario(3),
                                     SolveOptions(time_limit=45.0))
    assert seen[0].time_limit == 0.0
    assert outcome.result.nodes == 0
    assert outcome.result.status in ("feasible", "unknown")


def test_no_limit_stays_unlimited(monkeypatch):
    fake_clock(monkeypatch, 100.0, 1e9)
    seen = record_search_options(monkeypatch)
    planner.solve_scenario(random_tiny_scenario(3), SolveOptions(node_limit=7))
    assert seen[0].time_limit is None and seen[0].node_limit == 7
