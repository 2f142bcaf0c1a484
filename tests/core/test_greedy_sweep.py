"""The greedy sweep's work counts, its node-cost and score columns, and
its independence from the string-hash seed.

Deterministic counts, not timings: a solve rebuilds no inverse-authority
column; a cold finder's sweep issues at most one ``distances_from`` call
per root lacking a skill, a warm one re-asked skills it has seen issues
none, and each adds at most one per materialized root.  A network
mutation makes the next solve rebuild both columns and answer exactly as
a fresh finder or engine at that version would.  Answers must also be
byte-identical across interpreter processes with different
``PYTHONHASHSEED`` values, which is what lets a replica pool, a
reference checker and a restarted server agree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api.engine import TeamFormationEngine
from repro.api.messages import TeamPayload, TeamRequest
from repro.core.greedy import GreedyTeamFinder, search_graph_for
from repro.core.objectives import ObjectiveScales, TeamEvaluator
from repro.dblp import build_expert_network
from repro.eval.workload import benchmark_corpus, sample_projects
from repro.expertise.authority import inverse_authority
from repro.graph.pll import PrunedLandmarkLabeling
from repro.graph.pll_kernel import numpy_available
from repro.obs import global_registry


def _small_network():
    """A private (mutable) copy of the small benchmark network."""
    return build_expert_network(benchmark_corpus("small", seed=0))


def _record_sweep(monkeypatch) -> list:
    """Record ``("query", source)`` per ``distances_from`` call and
    ``("assign", root)`` per root the finder assigns holders to (the
    roots it materializes), in call order."""
    events: list = []
    query = PrunedLandmarkLabeling.distances_from
    assign = GreedyTeamFinder._assign

    def counted_query(self, source, targets):
        events.append(("query", source))
        return query(self, source, targets)

    def counted_assign(self, root, plan, targets):
        events.append(("assign", root))
        return assign(self, root, plan, targets)

    monkeypatch.setattr(PrunedLandmarkLabeling, "distances_from", counted_query)
    monkeypatch.setattr(GreedyTeamFinder, "_assign", counted_assign)
    return events


def _split(events: list) -> tuple[list[str], int, int]:
    """(sweep query sources, materialized roots, materialize queries)."""
    first = next(i for i, (what, _) in enumerate(events) if what == "assign")
    sweep = [source for what, source in events[:first] if what == "query"]
    tail = [what for what, _ in events[first:]]
    return sweep, tail.count("assign"), tail.count("query")


def test_warm_sweep_rebuilds_no_column_and_queries_once_per_root(monkeypatch):
    network = _small_network()
    engine = TeamFormationEngine(network)
    first, second = sample_projects(network, 4, 2, seed=3)
    engine.solve(TeamRequest(skills=tuple(first), k=3))  # warm index + column
    served = engine.greedy_finder()
    column = network.inverse_authorities()
    # A cold finder: the engine's warm index, but no score column yet.
    finder = GreedyTeamFinder(
        network,
        scales=engine.scales,
        oracle=served.oracle,
        search_graph=served.search_graph,
    )
    events = _record_sweep(monkeypatch)

    cold = finder.find_top_k(second, k=3)

    assert cold
    assert network.inverse_authorities() is column, "a warm solve rebuilt it"
    roots = list(network.expert_ids())
    lacking = [r for r in roots if not set(second) <= network.skills_of(r)]
    sweep, materialized, tail = _split(events)
    # At most one query per lacking root, in root order, never repeated.
    assert len(sweep) == len(set(sweep)) <= len(lacking) <= len(roots)
    assert sweep == [r for r in lacking if r in set(sweep)]
    assert 1 <= materialized and tail <= materialized

    # Re-asked the same skills, the finder reads its columns: no sweep
    # query at all, only the materialized roots'.
    events.clear()
    warm = finder.find_top_k(second, k=3)
    sweep, materialized, tail = _split(events)
    assert sweep == []
    assert 1 <= materialized and tail <= materialized
    assert [t.key() for t in warm] == [t.key() for t in cold]
    assert [t.assignments for t in warm] == [t.assignments for t in cold]


def _answer(teams) -> list[str]:
    return [json.dumps(TeamPayload.from_team(t).to_dict()) for t in teams]


def test_mutated_network_drops_a_direct_finders_columns():
    network = _small_network()
    finder = GreedyTeamFinder(network)
    project = sample_projects(network, 4, 1, seed=5)[0]
    before = finder.find_top_k(project, k=3)
    # Take a skill away from a winning holder (not the root) that shares
    # it with someone else: the graph, and so the finder's index, stay
    # valid, but the cached holders and best scores for it do not.
    team = before[0]
    skill, holder = next(
        (s, h)
        for s, h in sorted(team.assignments.items())
        if h != team.root and len(network.experts_with_skill(s)) > 1
    )
    network.update_skills(holder, network.skills_of(holder) - {skill})

    after = finder.find_top_k(project, k=3)

    assert finder._columns[0] == network.version
    fresh = GreedyTeamFinder(
        network,
        scales=finder.evaluator.scales,
        oracle=finder.oracle,
        search_graph=finder.search_graph,
    )
    assert _answer(after) == _answer(fresh.find_top_k(project, k=3))
    assert _answer(after) != _answer(before)
    assert all(t.assignments.get(skill) != holder for t in after)


def test_mutation_rebuilds_column_and_matches_a_fresh_engine():
    network = _small_network()
    engine = TeamFormationEngine(network)
    project = sample_projects(network, 4, 1, seed=5)[0]
    request = TeamRequest(skills=tuple(project), k=3)
    before = engine.solve(request)
    holder = dict(before.team.assignments)[project[0]]
    column = network.inverse_authorities()

    with engine.mutate() as net:
        net.update_h_index(holder, 0)
    after = engine.solve(request)

    # The solve itself rebuilt the column for the new version.
    version, rebuilt = network._inverse_column
    assert version == network.version and rebuilt is not column
    fresh_network = _small_network()
    fresh_network.update_h_index(holder, 0)
    fresh = TeamFormationEngine(fresh_network, scales=engine.scales)
    assert after.canonical_json() == fresh.solve(request).canonical_json()
    assert after.canonical_json() != before.canonical_json()


def test_threads_sharing_a_finder_answer_as_sequential_solves():
    network = _small_network()
    sequential = GreedyTeamFinder(network)
    # Few skills per project, many projects: their skills overlap.
    projects = sample_projects(network, 3, 16, seed=11)
    expected = [_answer(sequential.find_top_k(p, k=2)) for p in projects]
    shared = GreedyTeamFinder(
        network,
        scales=sequential.evaluator.scales,
        oracle=sequential.oracle,
        search_graph=sequential.search_graph,
    )
    start = threading.Barrier(2)
    answers: dict[int, list] = {}

    def solve(worker: int) -> None:
        order = list(range(len(projects)))
        if worker:
            order.reverse()
        start.wait()
        got = {i: _answer(shared.find_top_k(projects[i], k=2)) for i in order}
        answers[worker] = [got[i] for i in range(len(projects))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(w,)) for w in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers[0] == expected and answers[1] == expected
    # Cells both finders computed hold the same bits.
    mine, theirs = shared._columns[1], sequential._columns[1]
    assert set(mine) == set(theirs)
    for skill, (_, column) in mine.items():
        for a, b in zip(column, theirs[skill][1]):
            assert a != a or b != b or a.hex() == b.hex()


@pytest.mark.parametrize("kernel", ["flat-py", "flat"])
def test_kernel_counters_count_every_query_and_target(monkeypatch, kernel):
    network = _small_network()
    scales = ObjectiveScales.from_network(network)
    graph = search_graph_for(network, "sa-ca-cc", 0.6, scales)
    finder = GreedyTeamFinder(
        network,
        scales=scales,
        search_graph=graph,
        oracle=PrunedLandmarkLabeling(graph, kernel=kernel),
    )
    answered: list[int] = []
    query = PrunedLandmarkLabeling.distances_from

    def counted(self, source, targets):
        out = query(self, source, targets)
        answered.append(len(out))
        return out

    monkeypatch.setattr(PrunedLandmarkLabeling, "distances_from", counted)
    # "flat" reports under the kernel that actually ran: numpy if present.
    effective = "numpy" if kernel == "flat" and numpy_available() else kernel
    names = [f"kernel_{w}_{effective}" for w in ("queries", "targets", "seconds")]
    before = global_registry().snapshot()["counters"]
    for project in sample_projects(network, 4, 2, seed=9):
        finder.find_top_k(project, k=3)
    after = global_registry().snapshot()["counters"]
    queries, targets, seconds = (after[n] - before.get(n, 0) for n in names)
    assert answered and queries == len(answered)
    assert targets == sum(answered)
    assert seconds > 0


def test_node_cost_follows_the_network_version():
    network = _small_network()
    evaluator = TeamEvaluator(network)
    expert = next(iter(network.expert_ids()))
    old = evaluator.node_cost(expert)
    column = network.inverse_authorities()
    assert network.inverse_authorities() is column
    network.update_h_index(expert, network.authority(expert) + 7)
    new = evaluator.node_cost(expert)
    assert network.inverse_authorities() is not column
    expected = inverse_authority(
        network.authority(expert), floor=network.authority_floor
    )
    assert new == expected / evaluator.scales.authority_scale
    assert new != old
    with pytest.raises(KeyError, match="unknown expert id 'ghost'"):
        evaluator.node_cost("ghost")


_SOLVE_SCRIPT = """
from repro.api.engine import TeamFormationEngine
from repro.api.messages import TeamPayload, TeamRequest
from repro.core.greedy import GreedyTeamFinder
from repro.eval.workload import benchmark_network, sample_projects

network = benchmark_network("small")
engine = TeamFormationEngine(network)
for size in (3, 4, 5):
    for project in sample_projects(network, size, 4, seed=size):
        for objective in ("cc", "ca-cc", "sa-ca-cc"):
            request = TeamRequest(skills=tuple(project), objective=objective, k=2)
            print(engine.solve(request).canonical_json())
        request = TeamRequest(skills=tuple(project), solver="rarest_first")
        print(engine.solve(request).canonical_json())
"""


def _solve_under_hash_seed(seed: str) -> list[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", _SOLVE_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return out.stdout.splitlines()


def test_greedy_answers_do_not_depend_on_the_hash_seed():
    first, second = _solve_under_hash_seed("0"), _solve_under_hash_seed("1")
    assert len(first) == 48
    assert first == second
