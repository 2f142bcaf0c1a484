"""Differential suite: the greedy root sweep against a literal Algorithm 1.

The production sweep (:class:`repro.core.greedy.GreedyTeamFinder`) reads
inverse authorities from the network's per-version column, precomputes
``gamma * a'`` and ``lam * a'`` once per holder, caches each root's best
score per skill in lazily filled columns and issues at most one
``distances_from`` call per root.  The reference below does none of
that: per root, per skill, per holder it asks the oracle for one point
distance and the evaluator for the node cost, and scores with the
formulas of Section 3.2 as written.  Both must pick the same roots and
holders, grow the same trees and serialize to the same canonical
``TeamResponse`` JSON, for every objective, gamma and lambda, and every
oracle: PLL with each kernel, Dijkstra, and a two-shard PLL.  The
finder's score columns must not change an answer: each is solved cold,
warm, and after another project sharing a skill.

Networks are drawn with dyadic edge weights and a handful of h-index
values, so distinct roots and holders often tie exactly; some are
disconnected, so roots with unreachable skills (``inf`` distances) and
unreachable holders occur.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.engine import TeamFormationEngine
from repro.api.messages import TeamRequest
from repro.core.greedy import OBJECTIVES, GreedyTeamFinder, search_graph_for
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll import PrunedLandmarkLabeling

_INF = float("inf")
SKILLS = ("a", "b", "c")
WEIGHTS = (0.25, 0.5, 0.75, 1.0, 1.5)
H_INDEXES = (0, 1, 2, 4, 8)
TRADEOFFS = (0.0, 0.6, 1.0)
#: (label, engine shards, PLL kernel injected into the finder or None)
ORACLES = (
    ("pll-flat", None, "flat"),
    ("pll-flat-py", None, "flat-py"),
    ("dijkstra", None, None),
    ("pll-shards-2", 2, None),
)


def reference_scalar_top_k(finder: GreedyTeamFinder, project, k: int):
    """Algorithm 1 by the letter: one point query and one ``node_cost``
    per (root, skill, holder); every feasible root is kept and the
    ``max(4k, k + 8)`` best by (cost, root order) are materialized."""
    network, oracle, evaluator = finder.network, finder.oracle, finder.evaluator
    skills = sorted(set(project))
    ranked = []
    for tie, root in enumerate(network.expert_ids()):
        total, assignment, feasible = 0.0, {}, True
        for skill in skills:
            if skill in network.skills_of(root):
                assignment[skill] = root
                continue
            best_expert, best_score = None, _INF
            for holder in sorted(network.experts_with_skill(skill)):
                dist = oracle.distance(root, holder)
                if dist == _INF:
                    continue
                if finder.objective == "cc":
                    score = dist
                else:
                    corrected = dist - evaluator.gamma * evaluator.node_cost(holder)
                    if finder.objective in ("ca", "ca-cc"):
                        score = corrected
                    else:
                        score = (1.0 - evaluator.lam) * corrected + (
                            evaluator.lam * evaluator.node_cost(holder)
                        )
                if score < best_score:
                    best_expert, best_score = holder, score
            if best_expert is None:
                feasible = False
                break
            assignment[skill] = best_expert
            total += best_score
        if feasible:
            insort(ranked, (total, tie, root, assignment), key=lambda e: e[:2])
    teams, seen = [], set()
    for _, _, root, assignment in ranked[: max(4 * k, k + 8)]:
        team = finder._materialize(root, assignment)
        if team.key() not in seen:
            seen.add(team.key())
            teams.append(team)
        if len(teams) == k:
            break
    return teams


@st.composite
def networks(draw):
    """Small networks: dyadic weights, few authority levels, sometimes two
    components; every skill has at least one holder."""
    n = draw(st.integers(4, 11))
    ids = [f"e{i:02d}" for i in range(n)]
    owned = [set() for _ in ids]
    for skill in SKILLS:
        owned[draw(st.integers(0, n - 1))].add(skill)
    for i in range(n):
        owned[i] |= draw(st.sets(st.sampled_from(SKILLS), max_size=2))
    experts = [
        Expert(e, skills=owned[i], h_index=draw(st.sampled_from(H_INDEXES)))
        for i, e in enumerate(ids)
    ]
    # Two components when `split` < n: nodes below it and nodes from it.
    split = draw(st.sampled_from([n, n, n // 2]))
    edges = {}
    for i in range(1, n):
        if i != split:
            j = draw(st.integers(split if i > split else 0, i - 1))
            edges[(ids[j], ids[i])] = draw(st.sampled_from(WEIGHTS))
    for _ in range(draw(st.integers(0, n))):
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(pair))
        if (i < split) == (j < split):
            edges[(ids[i], ids[j])] = draw(st.sampled_from(WEIGHTS))
    return ExpertNetwork(experts, [(u, v, w) for (u, v), w in edges.items()])


def _finder(engine, kernel, objective, gamma, lam, kind):
    """The finder under test: the engine's own, or one over an injected
    PLL index with a specific kernel."""
    if kernel is None:
        return engine.greedy_finder(
            objective=objective, gamma=gamma, lam=lam, oracle_kind=kind
        )
    graph = search_graph_for(engine.network, objective, gamma, engine.scales)
    return GreedyTeamFinder(
        engine.network,
        objective=objective,
        gamma=gamma,
        lam=lam,
        scales=engine.scales,
        oracle=PrunedLandmarkLabeling(graph, kernel=kernel),
        search_graph=graph,
    )


def _assert_same(fast, slow, respond, request):
    """Same roots, holders, trees and canonical response JSON."""
    assert [t.root for t in fast] == [t.root for t in slow]
    assert [t.assignments for t in fast] == [t.assignments for t in slow]
    assert [list(t.tree.edges()) for t in fast] == [
        list(t.tree.edges()) for t in slow
    ]
    want = respond(request, slow, started=0.0, builds_before=0)
    got = respond(request, fast, started=0.0, builds_before=0)
    assert got.canonical_json() == want.canonical_json()
    return want


@pytest.mark.parametrize("label,shards,kernel", ORACLES, ids=[o[0] for o in ORACLES])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    network=networks(),
    project=st.sets(st.sampled_from(SKILLS), min_size=1, max_size=3),
    extra=st.sets(st.sampled_from(SKILLS), max_size=2),
    k=st.sampled_from([1, 3]),
)
def test_greedy_matches_scalar_algorithm_1(
    label, shards, kernel, network, project, extra, k
):
    """Each finder answers cold (empty score columns), warm (the same
    project again) and after a second project sharing a skill has
    filled more cells; every answer matches the scalar reference."""
    engine = TeamFormationEngine(network, shards=shards)
    kind = "dijkstra" if label == "dijkstra" else "pll"
    respond = engine._adapter("greedy")._respond
    other = {min(project)} | extra
    for objective in OBJECTIVES:
        for gamma in TRADEOFFS:
            for lam in TRADEOFFS:
                requests = [
                    TeamRequest(
                        skills=tuple(sorted(skills)),
                        objective=objective,
                        gamma=gamma,
                        lam=lam,
                        oracle_kind=kind,
                        k=k,
                    )
                    for skills in (project, other)
                ]
                finder = _finder(engine, kernel, objective, gamma, lam, kind)
                slow = reference_scalar_top_k(finder, project, k)
                cold = finder.find_top_k(project, k=k)
                warm = finder.find_top_k(project, k=k)
                shared = finder.find_top_k(other, k=k)
                again = finder.find_top_k(project, k=k)
                want = _assert_same(cold, slow, respond, requests[0])
                _assert_same(warm, slow, respond, requests[0])
                _assert_same(again, slow, respond, requests[0])
                _assert_same(
                    shared,
                    reference_scalar_top_k(finder, other, k),
                    respond,
                    requests[1],
                )
                if kernel is None:
                    served = engine.solve(requests[0])
                    assert served.canonical_json() == want.canonical_json()


def test_reference_sees_disconnected_and_tied_inputs():
    """Pin the two regimes the strategy is meant to reach: an infeasible
    root (a skill unreachable from it) and an exact score tie broken
    toward the smallest holder id."""
    experts = [
        Expert("e0", skills={"a"}, h_index=2),
        Expert("e1", h_index=2),
        Expert("e2", skills={"b"}, h_index=2),
        Expert("e3", skills={"b"}, h_index=2),
        Expert("e4", skills={"a"}, h_index=1),
    ]
    # e0 - e1 - {e2, e3} with equal weights; e4 is isolated.
    edges = [("e0", "e1", 0.5), ("e1", "e2", 0.25), ("e1", "e3", 0.25)]
    network = ExpertNetwork(experts, edges)
    for objective in OBJECTIVES:
        for lam in TRADEOFFS:
            finder = GreedyTeamFinder(network, objective=objective, lam=lam)
            assert finder.team_from_root("e4", ["a", "b"]) is None
            fast = finder.find_top_k(["a", "b"], k=3)
            slow = reference_scalar_top_k(finder, ["a", "b"], 3)
            assert [(t.root, t.assignments) for t in fast] == [
                (t.root, t.assignments) for t in slow
            ]
            assert fast[0].assignments["b"] == "e2"
