"""The greedy sweep's work counts, its node-cost column, and its
independence from the string-hash seed.

Deterministic counts, not timings: a warm solve rebuilds no
inverse-authority column and issues at most one ``distances_from`` call
per root; a network mutation makes the next solve rebuild the column
and answer exactly as a fresh engine at that version would.  Answers must also be
byte-identical across interpreter processes with different
``PYTHONHASHSEED`` values, which is what lets a replica pool, a
reference checker and a restarted server agree.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.engine import TeamFormationEngine
from repro.api.messages import TeamRequest
from repro.core.objectives import TeamEvaluator
from repro.dblp import build_expert_network
from repro.eval.workload import benchmark_corpus, sample_projects
from repro.expertise.authority import inverse_authority
from repro.graph.pll import PrunedLandmarkLabeling


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name`` to record each call; returns the record."""
    calls: list = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _small_network():
    """A private (mutable) copy of the small benchmark network."""
    return build_expert_network(benchmark_corpus("small", seed=0))


def test_warm_sweep_rebuilds_no_column_and_queries_once_per_root(monkeypatch):
    network = _small_network()
    engine = TeamFormationEngine(network)
    first, second = sample_projects(network, 4, 2, seed=3)
    engine.solve(TeamRequest(skills=tuple(first), k=3))  # warm index + column
    finder = engine.greedy_finder()
    column = network.inverse_authorities()
    queries = _count_calls(monkeypatch, PrunedLandmarkLabeling, "distances_from")

    teams = finder.find_top_k(second, k=3)

    assert teams
    assert network.inverse_authorities() is column, "a warm solve rebuilt it"
    roots = list(network.expert_ids())
    lacking = [r for r in roots if not set(second) <= network.skills_of(r)]
    assert len(queries) == len(lacking) <= len(roots)
    assert [source for source, _ in queries] == lacking


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
from repro.api.messages import TeamRequest
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
