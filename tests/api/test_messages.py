"""JSON round-trip properties and unit behavior of the API messages."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    MemberContributionPayload,
    ScoreBreakdown,
    TeamPayload,
    TeamRequest,
    TeamResponse,
    TimingInfo,
)
from repro.core import ObjectiveScales, Team, TeamEvaluator
from repro.core.explain import explain_team, member_contributions
from repro.expertise import Expert, ExpertNetwork
from repro.graph import Graph

_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_score = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

requests = st.builds(
    TeamRequest,
    skills=st.lists(_ids, min_size=1, max_size=5, unique=True).map(tuple),
    solver=st.sampled_from(
        ("greedy", "rarest_first", "sa_optimal", "exact", "brute_force", "random", "pareto")
    ),
    objective=st.sampled_from(("cc", "ca", "ca-cc", "sa-ca-cc")),
    gamma=_unit,
    lam=_unit,
    sa_mode=st.sampled_from(("per_skill", "distinct")),
    oracle_kind=st.sampled_from(("pll", "dijkstra")),
    k=st.integers(1, 10),
    seed=st.none() | st.integers(-(2**31), 2**31),
    num_samples=st.none() | st.integers(1, 100_000),
)


@st.composite
def team_payloads(draw):
    members = tuple(sorted(draw(st.lists(_ids, min_size=1, max_size=6, unique=True))))
    skills = sorted(draw(st.lists(_ids, min_size=1, max_size=4, unique=True)))
    assignments = tuple(
        (skill, draw(st.sampled_from(members))) for skill in skills
    )
    pairs = [
        (u, v) for i, u in enumerate(members) for v in members[i + 1 :]
    ]
    chosen = draw(
        st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)
        if pairs
        else st.just([])
    )
    edges = tuple(
        sorted((u, v, draw(_score)) for u, v in chosen)
    )
    root = draw(st.none() | st.sampled_from(members))
    return TeamPayload(
        members=members, assignments=assignments, edges=edges, root=root
    )


contributions = st.builds(
    MemberContributionPayload,
    expert_id=_ids,
    role=st.sampled_from(("skill holder", "connector")),
    covered_skills=st.lists(_ids, max_size=3, unique=True).map(
        lambda s: tuple(sorted(s))
    ),
    authority=_score,
    sa_share=_score,
    ca_share=_score,
    cc_share=_score,
    critical=st.booleans(),
)

responses = st.builds(
    TeamResponse,
    request=requests,
    solver=_ids,
    found=st.booleans(),
    team=st.none() | team_payloads(),
    alternates=st.lists(team_payloads(), max_size=2).map(tuple),
    contributions=st.lists(contributions, max_size=3).map(tuple),
    scores=st.none()
    | st.builds(
        ScoreBreakdown, cc=_score, ca=_score, sa=_score, ca_cc=_score, sa_ca_cc=_score
    ),
    timing=st.none()
    | st.builds(TimingInfo, solve_seconds=_score, oracle_builds=st.integers(0, 5)),
    error=st.none() | st.text(max_size=40),
)


@given(requests)
@settings(max_examples=200)
def test_request_json_roundtrip(request):
    assert TeamRequest.from_json(request.to_json()) == request


@given(requests)
def test_request_dict_roundtrip_through_json_types(request):
    # Through an actual JSON encode/decode, so tuples become lists etc.
    rebuilt = TeamRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert rebuilt == request


@given(responses)
@settings(max_examples=200)
def test_response_json_roundtrip(response):
    assert TeamResponse.from_json(response.to_json()) == response


@given(team_payloads())
def test_payload_team_roundtrip(payload):
    # payload -> live Team -> payload is the identity on canonical payloads
    assert TeamPayload.from_team(payload.to_team()) == payload


def test_request_defaults_fill_missing_keys():
    request = TeamRequest.from_dict({"skills": ["a", "b"]})
    assert request.solver == "greedy"
    assert request.objective == "sa-ca-cc"
    assert request.k == 1


def test_request_validation():
    with pytest.raises(ValueError):
        TeamRequest(skills=())
    with pytest.raises(ValueError):
        TeamRequest(skills=("a",), gamma=1.5)
    with pytest.raises(ValueError):
        TeamRequest(skills=("a",), sa_mode="bogus")
    with pytest.raises(ValueError):
        TeamRequest(skills=("a",), oracle_kind="magic")
    with pytest.raises(ValueError):
        TeamRequest(skills=("a",), k=0)


def test_request_replace():
    request = TeamRequest(skills=("a",), lam=0.2)
    swept = request.replace(lam=0.8)
    assert swept.lam == 0.8
    assert swept.skills == request.skills
    assert request.lam == 0.2  # original untouched


def test_payload_from_team_is_canonical():
    tree = Graph()
    tree.add_edge("b", "a", weight=2.0)
    tree.add_edge("b", "c", weight=1.0)
    team = Team(tree=tree, assignments={"s2": "c", "s1": "a"}, root="b")
    payload = TeamPayload.from_team(team)
    assert payload.members == ("a", "b", "c")
    assert payload.assignments == (("s1", "a"), ("s2", "c"))
    assert payload.edges == (("a", "b", 2.0), ("b", "c", 1.0))
    rebuilt = payload.to_team()
    assert rebuilt.key() == team.key()
    assert rebuilt.root == "b"


def test_network_version_is_default_omitted():
    """Absent from the JSON payload unless set (byte-stability pin).

    Pre-replication suites (and old recorded JSON) compare serialized
    responses byte for byte; a new always-present key would break every
    one of them, so ``network_version`` only appears once a replicated
    backend stamps it.
    """
    request = TeamRequest(skills=("a",))
    plain = TeamResponse(request=request, solver="greedy", found=False)
    assert "network_version" not in plain.to_dict()
    assert "network_version" not in json.loads(plain.to_json())
    stamped = TeamResponse(
        request=request, solver="greedy", found=False, network_version=7
    )
    assert stamped.to_dict()["network_version"] == 7
    assert TeamResponse.from_json(stamped.to_json()) == stamped
    # Old JSON without the key still parses (defaults to None).
    assert TeamResponse.from_json(plain.to_json()).network_version is None


def test_canonical_json_ignores_network_version():
    """Identity compares *what* was answered, not *who* answered it.

    Two engines at the same network state must be byte-indistinguishable
    through ``canonical_json`` even when one is a replica stamping its
    version — that is the differential gate replication is held to.
    """
    from dataclasses import replace

    request = TeamRequest(skills=("a",))
    plain = TeamResponse(request=request, solver="greedy", found=False)
    stamped = replace(plain, network_version=7)
    assert plain.canonical_json() == stamped.canonical_json()
    assert "network_version" not in plain.canonical_json()


@st.composite
def scored_teams(draw):
    """A tree team over a matching network, with an evaluator for it."""
    n = draw(st.integers(1, 7))
    ids = [f"e{i}" for i in range(n)]
    weights = st.floats(min_value=0.01, max_value=10.0)
    edges = [
        (ids[draw(st.integers(0, i - 1))], ids[i], draw(weights))
        for i in range(1, n)
    ]
    skills = [f"s{j}" for j in range(draw(st.integers(1, 4)))]
    assignments = {skill: draw(st.sampled_from(ids)) for skill in skills}
    experts = [
        Expert(
            e,
            skills={s for s, holder in assignments.items() if holder == e},
            h_index=draw(st.integers(0, 40)),
        )
        for e in ids
    ]
    network = ExpertNetwork(experts, edges)
    tree = Graph.from_edges(edges)
    tree.add_node(ids[0])
    team = Team(tree=tree, assignments=assignments)
    tradeoff = st.sampled_from((0.0, 0.6, 1.0)) | _unit
    evaluator = TeamEvaluator(
        network,
        gamma=draw(tradeoff),
        lam=draw(tradeoff),
        sa_mode=draw(st.sampled_from(("per_skill", "distinct"))),
        scales=draw(
            st.none()
            | st.builds(ObjectiveScales, edge_scale=weights, authority_scale=weights)
        ),
    )
    return team, evaluator


@settings(max_examples=200, deadline=None)
@given(scored_teams())
def test_score_breakdown_is_bit_equal_to_the_evaluator(case):
    team, evaluator = case
    scores = ScoreBreakdown.from_team(evaluator, team)
    expected = {
        "cc": evaluator.cc(team),
        "ca": evaluator.ca(team),
        "sa": evaluator.sa(team),
        "ca_cc": evaluator.ca_cc(team),
        "sa_ca_cc": evaluator.sa_ca_cc(team),
    }
    got = scores.to_dict()
    assert {k: float(v).hex() for k, v in got.items()} == {
        k: float(v).hex() for k, v in expected.items()
    }
    assert all(type(v) is float for v in got.values())
    # The adapter's contributions are explain_team's, and survive JSON.
    contributions = member_contributions(team, evaluator)
    explained = explain_team(
        team,
        evaluator.network,
        gamma=evaluator.gamma,
        lam=evaluator.lam,
        scales=evaluator.scales,
        sa_mode=evaluator.sa_mode,
    )
    assert contributions == explained.contributions
    for c in contributions:
        wire = json.dumps(c.to_dict())
        back = MemberContributionPayload.from_dict(json.loads(wire))
        assert back == c and json.dumps(back.to_dict()) == wire
