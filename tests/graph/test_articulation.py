"""Unit + randomized tests for articulation points and bridges."""

import random

import networkx as nx
import pytest

from repro.graph import (
    Graph,
    articulation_points,
    assign_random_weights,
    bridges,
    erdos_renyi,
)


def test_path_graph_interior_points():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert articulation_points(g) == {"b", "c"}
    assert bridges(g) == {("a", "b"), ("b", "c"), ("c", "d")}


def test_cycle_has_none():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    assert articulation_points(g) == set()
    assert bridges(g) == set()


def test_two_triangles_sharing_a_node():
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")]
    )
    assert articulation_points(g) == {"c"}
    assert bridges(g) == set()


def test_star_center_is_articulation():
    g = Graph()
    for leaf in "bcde":
        g.add_edge("hub", leaf)
    assert articulation_points(g) == {"hub"}
    assert len(bridges(g)) == 4


def test_disconnected_components_handled():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("x", "y")])
    g.add_node("lonely")
    assert articulation_points(g) == {"b"}
    assert ("x", "y") in bridges(g)


def test_empty_and_singleton():
    assert articulation_points(Graph()) == set()
    single = Graph()
    single.add_node("a")
    assert articulation_points(single) == set()
    assert bridges(single) == set()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_networkx(seed):
    rng = random.Random(seed)
    g = assign_random_weights(erdos_renyi(25, 0.12, seed=rng), seed=rng)
    ng = nx.Graph()
    ng.add_nodes_from(g.nodes())
    for u, v, _ in g.edges():
        ng.add_edge(u, v)
    assert articulation_points(g) == set(nx.articulation_points(ng))
    expected_bridges = {
        (u, v) if repr(u) <= repr(v) else (v, u) for u, v in nx.bridges(ng)
    }
    assert bridges(g) == expected_bridges


@pytest.mark.parametrize("seed", range(6))
def test_trees_and_near_trees_match_networkx(seed):
    """Trees take the inner-node shortcut; one extra edge, or an extra
    isolated node, sends the same graph through the low-link pass."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    tree = Graph.from_edges((rng.randrange(i), i) for i in range(1, n))
    u, v = rng.sample(range(n), 2)
    cyclic = Graph.from_edges([*((a, b) for a, b, _ in tree.edges()), (u, v)])
    forest = Graph.from_edges((a, b) for a, b, _ in tree.edges())
    forest.add_node(n)
    for g in (tree, cyclic, forest):
        ng = nx.Graph()
        ng.add_nodes_from(g.nodes())
        ng.add_edges_from((a, b) for a, b, _ in g.edges())
        assert articulation_points(g) == set(nx.articulation_points(ng))


def test_deep_path_no_recursion_error():
    g = Graph.from_edges([(i, i + 1) for i in range(5000)])
    points = articulation_points(g)
    assert len(points) == 4999  # all interior nodes


def test_bridge_heavy_chain_of_blocks():
    """Triangle blocks joined by bridges: every joint and bridge found."""
    g = Graph()
    for b in range(5):
        a, mid, c = f"b{b}a", f"b{b}m", f"b{b}c"
        g.add_edge(a, mid)
        g.add_edge(mid, c)
        g.add_edge(a, c)
    for b in range(4):  # bridges between consecutive triangles
        g.add_edge(f"b{b}c", f"b{b + 1}a")
    expected_bridges = {
        tuple(sorted((f"b{b}c", f"b{b + 1}a"))) for b in range(4)
    }
    assert bridges(g) == expected_bridges
    # Every bridge endpoint of degree > 1 is an articulation point.
    expected_points = {f"b{b}c" for b in range(4)} | {
        f"b{b + 1}a" for b in range(4)
    }
    assert articulation_points(g) == expected_points


def test_single_node_components_are_inert():
    g = Graph.from_edges([("a", "b"), ("b", "c")])
    for i in range(3):
        g.add_node(f"iso{i}")
    assert articulation_points(g) == {"b"}
    assert bridges(g) == {("a", "b"), ("b", "c")}


_SUBPROCESS_POINTS = """
import json
from repro.graph import Graph, articulation_points, bridges

g = Graph()
for b in range(4):
    g.add_edge("b%da" % b, "b%dm" % b)
    g.add_edge("b%dm" % b, "b%dc" % b)
    g.add_edge("b%da" % b, "b%dc" % b)
for b in range(3):
    g.add_edge("b%dc" % b, "b%da" % (b + 1))
points = articulation_points(g)
# Canonical cross-process view: iterate the *graph* in insertion order
# and keep members -- exactly how the shard partitioner scans candidates.
ordered = [repr(n) for n in g.nodes() if n in points]
print(json.dumps({
    "ordered": ordered,
    "bridges": sorted(map(repr, bridges(g))),
}))
"""


@pytest.mark.parametrize("hashseed", ["0", "5", "99991"])
def test_candidate_scan_is_cross_process_deterministic(hashseed):
    """Insertion-order scans over the point set never depend on hashing.

    ``articulation_points`` returns a set (hash-ordered, seed
    dependent); deterministic consumers — the shard partitioner's
    best-cut scan — must iterate the graph and membership-test.  Pin
    that pattern's output across hash seeds so a refactor to direct set
    iteration fails loudly.
    """
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_POINTS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    doc = json.loads(out.stdout)
    assert doc["ordered"] == [
        "'b0c'",
        "'b1a'",
        "'b1c'",
        "'b2a'",
        "'b2c'",
        "'b3a'",
    ]
    assert doc["bridges"] == sorted(
        repr(tuple(sorted((f"b{b}c", f"b{b + 1}a")))) for b in range(3)
    )
