"""Articulation points and bridges (Tarjan's low-link algorithm).

An articulation point is a node whose removal disconnects its component;
a bridge is an edge with the same property.  In a team subgraph these
are the *irreplaceable* elements: a connector that is an articulation
point of the team cannot simply leave — the replacement recommender must
re-route (see :mod:`repro.core.replacement` and
:func:`repro.core.explain.explain_team`, which flags such members).

Implemented iteratively (explicit stack) so deep team trees and large
networks don't hit the recursion limit.
"""

from __future__ import annotations

from .adjacency import Graph, Node
from .components import is_tree

__all__ = ["articulation_points", "bridges"]


def articulation_points(graph: Graph) -> set[Node]:
    """All articulation points, across every connected component.

    >>> g = Graph.from_edges([("a", "m"), ("m", "b")])
    >>> articulation_points(g)
    {'m'}
    """
    if is_tree(graph):
        # Team subgraphs are usually trees, whose cut vertices are
        # exactly their inner nodes; this skips the low-link pass.
        return {node for node in graph.nodes() if graph.degree(node) >= 2}
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    points: set[Node] = set()
    counter = 0

    for root in graph.nodes():
        if root in index:
            continue
        parent[root] = None
        root_children = 0
        # stack entries: (node, iterator over neighbors)
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, iter(graph.neighbors(root)))]
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor == parent[node]:
                    continue
                if neighbor in index:
                    low[node] = min(low[node], index[neighbor])
                    continue
                parent[neighbor] = node
                index[neighbor] = low[neighbor] = counter
                counter += 1
                if node == root:
                    root_children += 1
                stack.append((neighbor, iter(graph.neighbors(neighbor))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if stack:
                    above = stack[-1][0]
                    low[above] = min(low[above], low[node])
                    if above != root and low[node] >= index[above]:
                        points.add(above)
        if root_children >= 2:
            points.add(root)
    return points


def bridges(graph: Graph) -> set[tuple[Node, Node]]:
    """All bridge edges, as canonically ordered pairs.

    >>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    >>> bridges(g)
    {('c', 'd')}
    """
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    out: set[tuple[Node, Node]] = set()
    counter = 0

    for root in graph.nodes():
        if root in index:
            continue
        parent[root] = None
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, iter(graph.neighbors(root)))]
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor == parent[node]:
                    continue
                if neighbor in index:
                    low[node] = min(low[node], index[neighbor])
                    continue
                parent[neighbor] = node
                index[neighbor] = low[neighbor] = counter
                counter += 1
                stack.append((neighbor, iter(graph.neighbors(neighbor))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if stack:
                    above = stack[-1][0]
                    low[above] = min(low[above], low[node])
                    if low[node] > index[above]:
                        out.add(_ordered(above, node))
    return out


def _ordered(u: Node, v: Node) -> tuple[Node, Node]:
    return (u, v) if repr(u) <= repr(v) else (v, u)
