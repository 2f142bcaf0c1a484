"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload end to end on the tiny network for
a couple of seconds; the negative tests show that the identity check
catches a tampered answer, that a typed ``overloaded`` answer is
counted as a failure and that the attribution check fails when a
layer's spans are missing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from loadgen import Op  # noqa: E402
from workloads import WORKLOADS, RequestStream  # noqa: E402

from repro.api import TeamFormationEngine, TeamRequest, TeamResponse  # noqa: E402
from repro.eval.workload import benchmark_network  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    result = _run(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.solve_p50_ms"] > 0
    if workload == "live-updates":
        assert metrics["replication.frame_bytes_per_write"] > 0
        assert metrics["pool.sync_p50_ms"] > 0
    else:
        assert metrics["engine.oracle_builds"] == 0


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    engine = TeamFormationEngine(benchmark_network("tiny", seed=0))
    engine.search_oracle("sa-ca-cc", 0.6)
    engine.raw_oracle()
    return engine.save_snapshot(tmp_path_factory.mktemp("snap") / "store")


def _session(snapshot, ops, counters):
    session = run.Session(WORKLOADS["warm-greedy"], None, None)
    session.ops = ops
    session.stats = {"counters": counters, "backend": {}}
    return session


def _answered(line: str, raw: str) -> Op:
    op = Op("solve", line, "closed", 0.0)
    op.raw = raw.encode()
    return op


SEEDS = run.hash_seeds(3)
LINE = json.dumps(
    {"skills": ["graphology", "indexing"], "solver": "greedy", "gamma": 0.6, "lam": 0.4}
)


def test_tampered_answer_is_caught(snapshot):
    engine = TeamFormationEngine.from_snapshot(snapshot)
    response = json.loads(engine.solve(TeamRequest.from_json(LINE)).to_json())
    response["scores"]["cc"] += 1e-12
    ops = [_answered(LINE, json.dumps(response))]
    counters = {"requests_received": 1, "answered_found": 1}
    with pytest.raises(run.Invalid, match=r"op 0 \(closed solve\)"):
        _session(snapshot, ops, counters).check(snapshot, SEEDS)


def test_overloaded_answer_counts_as_failed(snapshot):
    engine = TeamFormationEngine.from_snapshot(snapshot)
    good = engine.solve(TeamRequest.from_json(LINE)).to_json()
    overloaded = TeamResponse.for_error(
        TeamRequest.from_json(LINE), "overloaded", "pending queue full"
    ).to_json()
    ops = [_answered(LINE, good), _answered(LINE, overloaded)]
    counters = {"requests_received": 2, "answered_found": 1, "rejected_overloaded": 1}
    session = _session(snapshot, ops, counters)
    session.check(snapshot, SEEDS)
    attempted, failed = run.attempts(session.tally(), session)
    assert (attempted, failed) == (2, 1)
    assert 1.0 - failed / attempted < 1.0
    assert session.first_failure().startswith("op 1 (closed solve)")


def test_hash_seed_dependence_is_counted_not_hidden(snapshot, monkeypatch):
    engine = TeamFormationEngine.from_snapshot(snapshot)
    good = engine.solve(TeamRequest.from_json(LINE))
    other = json.loads(good.canonical_json())
    other["scores"]["cc"] += 1e-12
    answers = [[good.canonical_json(), 1]]
    monkeypatch.setattr(
        reference, "replay",
        lambda snap, jobs: [answers, [[json.dumps(other), 1]]],
    )
    session = _session(snapshot, [_answered(LINE, good.to_json())],
                       {"requests_received": 1, "answered_found": 1})
    session.check(snapshot, SEEDS)
    assert (session.hash_dependent, session.solves_checked) == (1, 1)
    assert f"PYTHONHASHSEED={SEEDS[1]}" in session.hash_report()


def test_requests_do_not_repeat():
    stream = RequestStream(benchmark_network("tiny", seed=0), 3)
    lines = [stream.line(i) for i in range(600)]
    projects = [tuple(json.loads(line)["skills"]) for line in lines]
    assert len(set(projects)) == len(projects)
    assert RequestStream(benchmark_network("tiny", seed=0), 3).line(599) == lines[599]


def _solve_spans(sweep_self, oracle_self, materialize_self, wire_s, solves=4):
    spans = {
        "solvers.solve": [solves, wire_s * solves, 0.0, 0.0],
        "solvers.greedy_sweep": [solves, 0.0, sweep_self * solves, 0.0],
        "solvers.materialize": [solves, 0.0, materialize_self * solves, 0.0],
        "oracle.distances_from": [solves * 100, 0.0, oracle_self * solves, 0.0],
    }
    samples = {"solvers.solve": [(wire_s, wire_s)] * solves}
    return {"spans": spans, "samples": samples, "counts": {}}


def test_attribution_accounts_for_the_solve():
    aggregates = _solve_spans(0.080, 0.018, 0.002, 0.101)
    text = run.check_attribution(WORKLOADS["warm-greedy"], aggregates)
    assert "0.990x" in text


def test_attribution_fails_when_a_layer_is_missing():
    aggregates = _solve_spans(0.080, 0.018, 0.002, 0.101)
    del aggregates["spans"]["oracle.distances_from"]
    with pytest.raises(run.Invalid, match="do not account"):
        run.check_attribution(WORKLOADS["warm-greedy"], aggregates)
