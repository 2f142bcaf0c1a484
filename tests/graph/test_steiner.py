"""Unit + randomized tests for MST, Steiner approximation and Dreyfus-Wagner."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.graph import (
    Graph,
    GraphError,
    MAX_DW_TERMINALS,
    assign_random_weights,
    dreyfus_wagner,
    erdos_renyi,
    is_connected,
    is_tree,
    largest_component,
    minimum_spanning_tree,
    mst_steiner_tree,
)


@pytest.fixture()
def grid_graph():
    """A 3x3 grid with unit weights."""
    g = Graph()
    for r in range(3):
        for c in range(3):
            if c < 2:
                g.add_edge((r, c), (r, c + 1), weight=1.0)
            if r < 2:
                g.add_edge((r, c), (r + 1, c), weight=1.0)
    return g


def test_mst_weight_matches_networkx():
    rng = random.Random(9)
    g = largest_component(
        assign_random_weights(erdos_renyi(25, 0.25, seed=rng), seed=rng)
    )
    ng = nx.Graph()
    for u, v, w in g.edges():
        ng.add_edge(u, v, weight=w)
    ours = minimum_spanning_tree(g).total_weight()
    theirs = sum(
        d["weight"] for _, _, d in nx.minimum_spanning_tree(ng).edges(data=True)
    )
    assert ours == pytest.approx(theirs)


def test_mst_of_disconnected_graph_is_forest():
    g = Graph.from_edges([("a", "b", 1.0), ("c", "d", 1.0)])
    forest = minimum_spanning_tree(g)
    assert forest.num_edges == 2
    assert not is_connected(forest)


def test_dw_single_terminal():
    g = Graph.from_edges([("a", "b", 1.0)])
    cost, tree = dreyfus_wagner(g, ["a"])
    assert cost == 0.0
    assert list(tree.nodes()) == ["a"]


def test_dw_two_terminals_is_shortest_path(grid_graph):
    cost, tree = dreyfus_wagner(grid_graph, [(0, 0), (2, 2)])
    assert cost == pytest.approx(4.0)
    assert is_tree(tree)


def test_dw_grid_three_corners(grid_graph):
    cost, tree = dreyfus_wagner(grid_graph, [(0, 0), (0, 2), (2, 0)])
    # Optimal Steiner tree: both arms share the (0,0) corner: cost 4.
    assert cost == pytest.approx(4.0)
    assert is_tree(tree)


def test_dw_rejects_too_many_terminals(grid_graph):
    terminals = list(grid_graph.nodes())[: MAX_DW_TERMINALS + 1]
    if len(terminals) <= MAX_DW_TERMINALS:
        pytest.skip("graph too small for the guard")
    with pytest.raises(GraphError):
        dreyfus_wagner(grid_graph, terminals)


def test_dw_disconnected_terminals():
    g = Graph.from_edges([("a", "b", 1.0), ("x", "y", 1.0)])
    with pytest.raises(GraphError):
        dreyfus_wagner(g, ["a", "x"])


def test_dw_missing_terminal():
    g = Graph.from_edges([("a", "b", 1.0)])
    with pytest.raises(GraphError):
        dreyfus_wagner(g, ["a", "ghost"])
    with pytest.raises(GraphError):
        dreyfus_wagner(g, [])


def test_mst_steiner_contains_terminals_and_prunes(grid_graph):
    terminals = [(0, 0), (0, 2), (2, 1)]
    tree = mst_steiner_tree(grid_graph, terminals)
    assert is_tree(tree)
    for t in terminals:
        assert tree.has_node(t)
    # every leaf is a terminal after pruning
    for node in tree.nodes():
        if tree.degree(node) == 1:
            assert node in terminals


def test_mst_steiner_single_terminal(grid_graph):
    tree = mst_steiner_tree(grid_graph, [(1, 1)])
    assert list(tree.nodes()) == [(1, 1)]
    assert tree.num_edges == 0


def test_mst_steiner_disconnected_terminals():
    g = Graph.from_edges([("a", "b", 1.0), ("x", "y", 1.0)])
    with pytest.raises(GraphError):
        mst_steiner_tree(g, ["a", "x"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dw_optimal_vs_subset_enumeration(seed):
    """DW must match brute-force over connected covering subsets."""
    rng = random.Random(seed)
    g = largest_component(
        assign_random_weights(erdos_renyi(9, 0.4, seed=rng), seed=rng)
    )
    nodes = sorted(g.nodes())
    if len(nodes) < 4:
        pytest.skip("degenerate component")
    terminals = rng.sample(nodes, 3)
    best = float("inf")
    extras = [n for n in nodes if n not in terminals]
    for r in range(len(extras) + 1):
        for combo in itertools.combinations(extras, r):
            subset = set(terminals) | set(combo)
            sub = g.subgraph(subset)
            if not is_connected(sub):
                continue
            tree = minimum_spanning_tree(sub)
            if tree.num_edges == len(subset) - 1:
                best = min(best, tree.total_weight())
    cost, tree = dreyfus_wagner(g, terminals)
    assert cost == pytest.approx(best)
    assert is_tree(tree)
    assert tree.total_weight() == pytest.approx(cost)


@pytest.mark.parametrize("seed", [10, 11])
def test_node_weighted_dw_vs_enumeration(seed):
    rng = random.Random(seed)
    g = largest_component(
        assign_random_weights(erdos_renyi(8, 0.45, seed=rng), seed=rng)
    )
    nodes = sorted(g.nodes())
    if len(nodes) < 4:
        pytest.skip("degenerate component")
    terminals = rng.sample(nodes, 3)
    costs = {n: rng.uniform(0.0, 2.0) for n in nodes}

    def node_cost(n):
        return costs[n]

    best = float("inf")
    extras = [n for n in nodes if n not in terminals]
    for r in range(len(extras) + 1):
        for combo in itertools.combinations(extras, r):
            subset = set(terminals) | set(combo)
            sub = g.subgraph(subset)
            if not is_connected(sub):
                continue
            tree = minimum_spanning_tree(sub)
            if tree.num_edges != len(subset) - 1:
                continue
            best = min(
                best, tree.total_weight() + sum(costs[x] for x in combo)
            )
    cost, tree = dreyfus_wagner(g, terminals, node_cost=node_cost)
    assert cost == pytest.approx(best)
    realized = tree.total_weight() + sum(
        costs[x] for x in tree.nodes() if x not in terminals
    )
    assert realized == pytest.approx(cost)


def test_approximation_never_beats_exact():
    rng = random.Random(4)
    g = largest_component(
        assign_random_weights(erdos_renyi(20, 0.25, seed=rng), seed=rng)
    )
    nodes = sorted(g.nodes())
    terminals = rng.sample(nodes, min(4, len(nodes)))
    exact_cost, _ = dreyfus_wagner(g, terminals)
    approx = mst_steiner_tree(g, terminals)
    assert exact_cost <= approx.total_weight() + 1e-9
    # And the classic guarantee: within 2x of optimal.
    assert approx.total_weight() <= 2.0 * exact_cost + 1e-9


_DW_ORDER_SCRIPT = """
import json, random
from repro.graph import Graph, dreyfus_wagner
rng = random.Random(5)
g = Graph()
names = [f"n{i:02d}" for i in range(30)]
for i in range(1, 30):
    g.add_edge(names[i], names[rng.randrange(i)], weight=rng.choice([0.5, 1.0, 1.5]))
for _ in range(40):
    u, v = rng.sample(names, 2)
    g.add_edge(u, v, weight=rng.choice([0.5, 1.0, 1.5]))
_, tree = dreyfus_wagner(g, ["n29", "n03", "n17", "n11", "n22"])
print(json.dumps([list(tree.nodes()), [list(e) for e in tree.edges()]]))
"""


def test_dw_tree_order_is_hash_seed_independent():
    """The tree's node and edge *order* (not just its sets) is the same in
    every process: a team's costs are summed in that order, so a set-order
    tree would make scores differ in the last bit between processes."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _DW_ORDER_SCRIPT],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(outputs) == 1
