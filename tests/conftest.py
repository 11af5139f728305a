"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from votedyn.sbm_graph import Graph


@pytest.fixture
def count_in_calls(monkeypatch):
    # every Graph.count_in call's mask, in call order
    calls = []
    original = Graph.count_in

    def counting(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(Graph, "count_in", counting)
    return calls
