"""Every PLL read goes through the frozen flat store.

``distance``, ``path``, ``label_of`` and ``total_label_entries`` freeze
the per-node build rows into a :class:`FlatLabelStore` on first use,
exactly as ``distances_from`` does.  Pinned here for the two states an
index can be read in while its rows are live:

* **never queried** — straight out of the build;
* **thawed** — frozen, then mutated (``add_node`` / ``insert_edge``
  thaw the store back into rows).

In each state the reads answer exactly like an index that never went
through that history, cost exactly one freeze, and two threads racing
the first reads at a 1 µs switch interval see identical answers.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.graph.adjacency import Graph
from repro.graph.pll import PrunedLandmarkLabeling
from repro.obs import global_registry


def _graph() -> Graph:
    """A connected 14-node graph with quarter-integer (exact) weights."""
    rng = random.Random(7)
    graph = Graph()
    for i in range(1, 14):
        graph.add_edge(i, rng.randrange(i), weight=0.25 * rng.randint(1, 8))
    for _ in range(10):
        u, v = rng.sample(range(14), 2)
        graph.add_edge(u, v, weight=0.25 * rng.randint(1, 8))
    graph.add_node("island")
    return graph


def _mutate(pll: PrunedLandmarkLabeling) -> None:
    pll.add_node("late")
    pll.insert_edge("late", "island", 0.5)
    pll.insert_edge("late", 3, 0.75)
    pll.insert_edge(0, 13, 0.25)


def _index(state: str) -> PrunedLandmarkLabeling:
    """The index under test, rows live, in ``state``."""
    pll = PrunedLandmarkLabeling(_graph())
    if state == "thawed":
        nodes = list(pll._order)
        pll.distances_from(nodes[0], nodes)  # freeze ...
        _mutate(pll)  # ... then thaw by mutating
    assert pll._flat is None and pll._rows() is not None
    return pll


def _reference(state: str) -> PrunedLandmarkLabeling:
    """The same labels reached without a freeze: a fresh build, mutated
    in place (never frozen before its mutations) for the thawed state."""
    pll = PrunedLandmarkLabeling(_graph())
    if state == "thawed":
        _mutate(pll)
    return pll


def _reads(pll: PrunedLandmarkLabeling, nodes: list) -> tuple:
    """Every point read over ``nodes``: labels, size, distances, paths."""
    labels = {node: pll.label_of(node) for node in nodes}
    total = pll.total_label_entries
    distances = {(u, v): pll.distance(u, v) for u in nodes for v in nodes}
    paths = {
        (u, v): pll.path(u, v)
        for u in nodes
        for v in nodes
        if distances[(u, v)] != float("inf")
    }
    return labels, total, distances, paths


def _freezes() -> int:
    return global_registry().snapshot()["counters"].get("pll_freezes", 0)


STATES = ["never-queried", "thawed"]


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("first", ["distance", "path", "label_of", "total"])
def test_first_read_freezes_once_and_answers_like_the_reference(state, first):
    pll = _index(state)
    reference = _reference(state)
    nodes = list(reference._order)
    expected = _reads(reference, nodes)

    before = _freezes()
    if first == "distance":
        pll.distance(nodes[0], nodes[-1])
    elif first == "path":
        pll.path(nodes[0], nodes[1])
    elif first == "label_of":
        pll.label_of(nodes[-1])
    else:
        pll.total_label_entries  # noqa: B018 - the read is the point
    assert pll._rows() is None and pll._flat is not None
    assert _reads(pll, nodes) == expected
    assert _freezes() - before == 1
    # Distances also equal a from-scratch build of the current graph.
    fresh = PrunedLandmarkLabeling(pll._graph.copy())
    for (u, v), d in expected[2].items():
        assert fresh.distance(u, v) == d


@pytest.mark.parametrize("state", STATES)
def test_racing_first_reads_agree(state):
    reference = _reference(state)
    nodes = list(reference._order)
    expected = _reads(reference, nodes)
    interval = sys.getswitchinterval()
    for _ in range(20):
        pll = _index(state)
        answers: list = [None, None]
        barrier = threading.Barrier(2)

        def read(slot: int) -> None:
            barrier.wait()
            answers[slot] = _reads(pll, nodes[slot:] + nodes[:slot])

        threads = [threading.Thread(target=read, args=(i,)) for i in (0, 1)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert answers == [expected, expected]
