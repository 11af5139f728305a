"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from votedyn import sbm_graph


@pytest.fixture
def count_calls(monkeypatch):
    # every call of the one neighbour-count kernel, sbm_graph._count_ids, by
    # its mask, in call order: one per Graph.count_in on a graph of one
    # block, and one per table-key count of step_probabilities
    calls = []
    original = sbm_graph._count_ids

    def counting(mask, *args, **kwargs):
        calls.append(mask)
        return original(mask, *args, **kwargs)

    monkeypatch.setattr(sbm_graph, "_count_ids", counting)
    return calls
