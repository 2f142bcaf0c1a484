"""The replica pool: placement planning and end-to-end identity.

The pool's contract: N worker processes each warm-start from one
snapshot (zero builds at load), responses come back in request order
and byte-identical (timing aside) to a sequential engine serving the
same snapshot, warm request groups spread across replicas, and cold
groups build their index at most once pool-wide.
"""

from __future__ import annotations

import threading
from concurrent.futures import process as futures_process

import pytest

from repro.api import TeamFormationEngine, TeamRequest
from repro.serving.batch import (
    plan_jobs,
    request_home_shard,
    request_index_key,
)
from repro.serving.pool import EngineReplicaPool
from repro.storage import SnapshotError

from ..api.conftest import PROJECT, build_figure1_network

GREEDY = TeamRequest(skills=PROJECT, solver="greedy")
SNAPSHOT_GAMMA = 0.6


def canonical(response) -> str:
    return response.canonical_json()


@pytest.fixture(scope="module")
def snapshot_store(tmp_path_factory):
    """A store holding one warm snapshot of the figure-1 engine."""
    store = tmp_path_factory.mktemp("pool-store")
    engine = TeamFormationEngine(build_figure1_network())
    engine.search_oracle("sa-ca-cc", SNAPSHOT_GAMMA)
    engine.raw_oracle()
    engine.save_snapshot(store)
    return store


# ----------------------------------------------------------------------
# placement planning
# ----------------------------------------------------------------------
def test_request_index_key_mirrors_engine_keying():
    assert request_index_key(GREEDY) == ("pll", "fold", 0.6)
    assert request_index_key(GREEDY.replace(objective="ca")) == (
        "pll",
        "fold",
        1.0,
    )
    assert request_index_key(GREEDY.replace(objective="cc")) == ("pll", "cc")
    assert request_index_key(GREEDY.replace(solver="rarest_first")) == (
        "pll",
        "raw",
    )
    assert request_index_key(GREEDY.replace(solver="pareto")) == (
        "pll",
        "pareto",
    )
    for solver in ("sa_optimal", "exact", "brute_force", "random"):
        assert request_index_key(GREEDY.replace(solver=solver)) is None
    assert request_index_key(GREEDY.replace(oracle_kind="dijkstra")) == (
        "dijkstra",
        "fold",
        0.6,
    )


def test_plan_jobs_splits_warm_and_pins_cold():
    warm = {("pll", "fold", 0.6)}
    requests = [GREEDY.replace(lam=lam) for lam in (0.1, 0.2, 0.3, 0.4)] + [
        GREEDY.replace(gamma=0.9, lam=lam) for lam in (0.1, 0.2, 0.3)
    ]
    jobs = plan_jobs(requests, replicas=4, warm_bases=warm)
    # Every request placed exactly once.
    placed = sorted(index for _, job in jobs for index in job)
    assert placed == list(range(len(requests)))
    cold = [(pin, job) for pin, job in jobs if set(job) & {4, 5, 6}]
    assert cold == [
        (("pll", "fold", 0.9), [4, 5, 6])
    ], "cold gamma group must stay whole and carry its pin key"
    warm_jobs = [job for pin, job in jobs if pin is None]
    assert len(warm_jobs) == 4, "warm group spreads across all replicas"


def test_plan_jobs_no_index_requests_always_spread():
    requests = [
        GREEDY.replace(solver="sa_optimal", lam=lam)
        for lam in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    ]
    jobs = plan_jobs(requests, replicas=3, warm_bases=())
    assert len(jobs) == 3
    assert all(pin is None for pin, _ in jobs)
    assert sorted(i for _, job in jobs for i in job) == list(range(6))


def test_plan_jobs_single_replica_is_one_job_per_group():
    requests = [GREEDY, GREEDY.replace(solver="rarest_first")]
    jobs = plan_jobs(requests, replicas=1, warm_bases=())
    assert sorted(i for _, job in jobs for i in job) == [0, 1]
    with pytest.raises(ValueError):
        plan_jobs(requests, replicas=0, warm_bases=())


# ----------------------------------------------------------------------
# shard-residency placement (PR-10)
# ----------------------------------------------------------------------
RESIDENCY = {"SN": 0, "TM": 0, "DB": 1}


def test_request_home_shard_majority_and_ties():
    assert request_home_shard(GREEDY, RESIDENCY) == 0  # SN+TM both vote 0
    assert request_home_shard(
        TeamRequest(skills=("DB",), solver="greedy"), RESIDENCY
    ) == 1
    # Tie between shard 0 (SN) and shard 1 (DB): lowest shard id wins.
    assert request_home_shard(
        TeamRequest(skills=("SN", "DB"), solver="greedy"), RESIDENCY
    ) == 0
    # No known skill: no affinity.
    assert request_home_shard(
        TeamRequest(skills=("ML",), solver="greedy"), RESIDENCY
    ) is None


def test_plan_jobs_pins_warm_groups_by_shard_residency():
    warm = {("pll", "fold", 0.6)}
    requests = [
        GREEDY.replace(lam=0.1),  # shard 0
        TeamRequest(skills=("DB",), solver="greedy"),  # shard 1
        GREEDY.replace(lam=0.2),  # shard 0
        TeamRequest(skills=("ML",), solver="greedy"),  # no affinity
    ]
    jobs = plan_jobs(requests, 3, warm, RESIDENCY)
    assert sorted(i for _, job in jobs for i in job) == [0, 1, 2, 3]
    by_pin = {pin: job for pin, job in jobs}
    assert by_pin[("shard", 0)] == [0, 2]
    assert by_pin[("shard", 1)] == [1]
    assert by_pin[None] == [3]


def test_plan_jobs_residency_ignores_no_index_groups():
    requests = [
        GREEDY.replace(solver="sa_optimal", lam=lam) for lam in (0.1, 0.2)
    ]
    jobs = plan_jobs(requests, 2, (), RESIDENCY)
    assert all(pin is None for pin, _ in jobs), (
        "no-index solvers never touch labels; balance beats affinity"
    )


def test_plan_jobs_residency_keeps_cold_groups_pinned_by_base():
    requests = [GREEDY.replace(gamma=0.9)]  # cold: not in warm_bases
    jobs = plan_jobs(requests, 2, (), RESIDENCY)
    assert jobs == [((("pll", "fold", 0.9)), [0])]


def test_plan_jobs_residency_noop_on_single_replica():
    requests = [GREEDY, GREEDY.replace(lam=0.9)]
    warm = {("pll", "fold", 0.6)}
    assert plan_jobs(requests, 1, warm, RESIDENCY) == plan_jobs(
        requests, 1, warm
    )


def test_plan_jobs_without_residency_unchanged():
    warm = {("pll", "fold", 0.6)}
    requests = [GREEDY.replace(lam=lam) for lam in (0.1, 0.2, 0.3, 0.4)]
    assert plan_jobs(requests, 2, warm) == plan_jobs(
        requests, 2, warm, None
    )


def test_sharded_snapshot_pool_answers_identical(tmp_path):
    """A pool over a sharded snapshot == the sharded engine == monolithic."""
    engine = TeamFormationEngine(build_figure1_network(), shards=2)
    engine.search_oracle("sa-ca-cc", SNAPSHOT_GAMMA)
    engine.raw_oracle()
    store = tmp_path / "sharded-store"
    engine.save_snapshot(store)
    requests = [
        GREEDY.replace(lam=lam) for lam in (0.2, 0.4, 0.6)
    ] + [GREEDY.replace(solver="rarest_first")]
    expected = [canonical(r) for r in engine.solve_many(requests)]
    mono = TeamFormationEngine(build_figure1_network())
    assert [
        canonical(r) for r in mono.solve_many(requests)
    ] == expected, "sharded engine must match monolithic before pooling"
    with EngineReplicaPool(store, replicas=2) as pool:
        assert pool._shard_residency is not None
        got = [canonical(r) for r in pool.solve_many(requests)]
    assert got == expected


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def batch() -> list[TeamRequest]:
    return [
        # Warm fold group (snapshot carries gamma=0.6): splits.
        *[GREEDY.replace(lam=lam) for lam in (0.2, 0.4, 0.6, 0.8)],
        # Warm raw group.
        TeamRequest(skills=("DB",), solver="rarest_first"),
        # No-index solver.
        GREEDY.replace(solver="sa_optimal", lam=0.5),
        # Cold fold group (gamma not in the snapshot): pinned.
        *[GREEDY.replace(gamma=0.25, lam=lam) for lam in (0.3, 0.7)],
        # Poisoned request: isolation must answer it in-band.
        GREEDY.replace(solver="no_such_solver"),
    ]


def test_pool_matches_sequential_engine(snapshot_store):
    requests = batch()
    sequential = TeamFormationEngine.from_snapshot(snapshot_store).solve_many(
        requests
    )
    with EngineReplicaPool(snapshot_store, replicas=2) as pool:
        pooled = pool.solve_many(requests)
    assert [canonical(r) for r in pooled] == [
        canonical(r) for r in sequential
    ]
    assert pooled[-1].error_kind == "unknown_solver"
    assert all(
        pooled[i].request == requests[i] for i in range(len(requests))
    ), "responses must come back in request order"


def test_pool_warm_requests_never_build(snapshot_store):
    """Zero builds per worker: warm-group responses report 0 builds."""
    warm_only = [GREEDY.replace(lam=lam) for lam in (0.2, 0.4, 0.6, 0.8)] + [
        TeamRequest(skills=("DB",), solver="rarest_first")
    ]
    with EngineReplicaPool(snapshot_store, replicas=2) as pool:
        responses = pool.solve_many(warm_only)
    assert all(r.timing is not None for r in responses)
    assert sum(r.timing.oracle_builds for r in responses) == 0


def test_pool_cold_group_builds_once_pool_wide(snapshot_store):
    """A cold gamma group pays exactly one build across the whole pool."""
    cold = [GREEDY.replace(gamma=0.33, lam=lam) for lam in (0.2, 0.5, 0.8)]
    with EngineReplicaPool(snapshot_store, replicas=2) as pool:
        responses = pool.solve_many(cold)
    assert sum(r.timing.oracle_builds for r in responses) == 1


def test_pool_cold_group_sticks_to_one_replica_across_batches(snapshot_store):
    """Pinning is sticky for the pool's lifetime, not per batch.

    Without worker affinity a second batch could land the same cold
    group on a replica that never built its index and pay a second
    build; sticky routing makes the follow-up batch report zero.
    """
    cold = [GREEDY.replace(gamma=0.41, lam=lam) for lam in (0.2, 0.5, 0.8)]
    with EngineReplicaPool(snapshot_store, replicas=2) as pool:
        first = pool.solve_many(cold)
        second = pool.solve_many(cold)
        third = pool.solve_many(list(reversed(cold)))
    assert sum(r.timing.oracle_builds for r in first) == 1
    assert sum(r.timing.oracle_builds for r in second) == 0
    assert sum(r.timing.oracle_builds for r in third) == 0


def test_pool_degrades_to_local_replica(snapshot_store):
    pool = EngineReplicaPool(snapshot_store, replicas=1)
    try:
        responses = pool.solve_many([GREEDY])
        assert responses[0].found
        assert pool.replicas == 1
    finally:
        pool.close()
    with pytest.raises(RuntimeError):
        pool.solve_many([GREEDY])


def _manager_threads() -> list[threading.Thread]:
    return [
        t
        for t in threading.enumerate()
        if isinstance(t, futures_process._ExecutorManagerThread) and t.is_alive()
    ]


def test_pool_close_joins_executor_manager_threads(snapshot_store):
    """``close()`` leaves no executor manager thread running into
    interpreter exit, where its teardown races ``concurrent.futures``'
    exit hook (``OSError: [Errno 9] Bad file descriptor``)."""
    before = set(_manager_threads())
    pool = EngineReplicaPool(snapshot_store, replicas=2)
    pool.solve_many([GREEDY, GREEDY])
    assert set(_manager_threads()) - before, "the pool runs manager threads"
    pool.close()
    assert set(_manager_threads()) - before == set()
    pool.close()  # idempotent


def test_pool_empty_batch_and_validation(snapshot_store, tmp_path):
    with EngineReplicaPool(snapshot_store, replicas=1) as pool:
        assert pool.solve_many([]) == []
    with pytest.raises(ValueError):
        EngineReplicaPool(snapshot_store, replicas=0)
    with pytest.raises(SnapshotError):
        EngineReplicaPool(tmp_path / "missing.snap", replicas=1)


def test_pool_worker_init_failure_raises_instead_of_hanging(
    snapshot_store, monkeypatch
):
    """A failing worker warm start surfaces as an error, not a hang.

    A worker process pool that silently respawns a crashing initializer
    would hang the first batch forever; the pool instead records the
    failure worker-side, probes every replica eagerly, and raises at
    construction.  Forked workers inherit the parent's monkeypatched
    ``from_snapshot``, simulating a snapshot that vanished between
    parent validation and worker start.
    """
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("failure injection relies on fork inheritance")

    def boom(cls, source, **kwargs):
        raise OSError("snapshot file vanished before the worker started")

    monkeypatch.setattr(
        TeamFormationEngine, "from_snapshot", classmethod(boom)
    )
    with pytest.raises(RuntimeError, match="replica warm start failed"):
        EngineReplicaPool(snapshot_store, replicas=2)


def test_pool_rejects_corrupt_snapshot_in_parent(snapshot_store, tmp_path):
    """Corruption fails fast with a typed error, not a worker crash."""
    from repro.storage import CorruptSnapshotError, resolve_snapshot_path

    source = resolve_snapshot_path(snapshot_store)
    data = bytearray(source.read_bytes())
    data[-3] ^= 0xFF  # flip a payload byte
    broken = tmp_path / "broken.snap"
    broken.write_bytes(bytes(data))
    with pytest.raises(CorruptSnapshotError):
        EngineReplicaPool(broken, replicas=2)


# ----------------------------------------------------------------------
# batch routing must not serialize callers (PR-8 bugfix)
# ----------------------------------------------------------------------
class _StubWorker:
    """A fake worker executor: records submissions, resolves on demand."""

    def __init__(self):
        import threading

        self.submissions = []
        self.submitted = threading.Event()

    def submit(self, fn, payload):
        from concurrent.futures import Future

        future = Future()
        self.submissions.append((payload, future))
        self.submitted.set()
        return future

    def shutdown(self, wait=False, cancel_futures=False):
        pass


def test_solve_many_does_not_hold_route_lock_across_submit(snapshot_store):
    """Routing takes the lock; submitting and awaiting must not.

    Regression pin: if ``solve_many`` held ``_route_lock`` while
    awaiting worker results, a second concurrent batch could not even
    *route* until the first completed — single-request batches through
    the server would serialize.  With stub workers whose futures only
    resolve when the test says so, the second thread must reach its
    submit while the first is still blocked awaiting its result.
    """
    import threading

    engine = TeamFormationEngine.from_snapshot(snapshot_store)
    pool = EngineReplicaPool(snapshot_store, replicas=1)
    stubs = [_StubWorker(), _StubWorker()]
    pool._workers = stubs  # degrade-mode pool, stub process executors
    pool._local = None
    requests = [GREEDY, GREEDY.replace(lam=0.3)]
    results: list = [None, None]

    def run(slot: int) -> None:
        results[slot] = pool.solve_many([requests[slot]])

    threads = [
        threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
    ]
    threads[0].start()
    assert stubs[0].submitted.wait(5), "first batch never reached submit"
    threads[1].start()
    # The proof: the second batch routes AND submits while the first
    # batch's future is still unresolved.
    assert stubs[1].submitted.wait(5), (
        "second batch blocked on _route_lock while the first awaited "
        "its worker result"
    )
    for stub in stubs:
        for payload, future in stub.submissions:
            future.set_result(
                [
                    (
                        index,
                        engine.solve_isolated(
                            TeamRequest.from_json(text)
                        ).to_json(),
                    )
                    for index, text in payload
                ]
            )
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    for slot in (0, 1):
        assert canonical(results[slot][0]) == canonical(
            engine.solve_isolated(requests[slot])
        )


# ----------------------------------------------------------------------
# replication: syncing the pool against a live primary
# ----------------------------------------------------------------------
RAREST = TeamRequest(skills=("DB",), solver="rarest_first")


def primary_with_log(snapshot_store, **log_kwargs):
    from repro.serving.replication import ReplicationLog

    primary = TeamFormationEngine.from_snapshot(snapshot_store)
    return primary, ReplicationLog(primary, **log_kwargs)


def test_pool_sync_advances_and_stamps_versions(snapshot_store):
    primary, log = primary_with_log(snapshot_store)
    with EngineReplicaPool(snapshot_store, replicas=1) as pool:
        pool.attach_primary(log)
        before = pool.solve_many([GREEDY])[0]
        assert before.network_version == 0
        with primary.mutate() as network:
            network.update_h_index("liu", 30)
            network.add_collaboration("liu", "golshan", weight=0.4)
        assert pool.sync() == primary.network.version
        after = pool.solve_many([GREEDY])[0]
        assert after.network_version == primary.network.version
        assert canonical(after) == canonical(primary.solve(GREEDY))
        assert pool.snapshot_fallbacks == 0
        # Syncing at the tip is a no-op.
        assert pool.sync() == pool.replica_version


def test_pool_sync_worker_mode_converges_all_replicas(snapshot_store):
    primary, log = primary_with_log(snapshot_store)
    with EngineReplicaPool(snapshot_store, replicas=2) as pool:
        pool.attach_primary(log)
        with primary.mutate() as network:
            network.update_skills("bridge", {"SN", "DB"})
            network.add_collaboration("ren", "kotzias", weight=0.7)
        version = pool.sync()
        assert version == primary.network.version
        # Enough requests that both replicas answer some of the batch.
        requests = [GREEDY.replace(lam=lam) for lam in (0.2, 0.4, 0.6, 0.8)]
        live = [primary.solve(r) for r in requests]
        pooled = pool.solve_many(requests)
        assert [canonical(r) for r in pooled] == [canonical(r) for r in live]
        assert all(r.network_version == version for r in pooled)


def test_pool_falls_back_past_the_journal_floor(snapshot_store):
    """Satellite pin: a shrunken journal bound under a live follower.

    The primary's log only retains 2 records; after 5 mutations the
    pool's catch-up delta is gone.  That must surface as one counted
    full-snapshot fallback that still converges — never a silent
    'rebuild from scratch' or a stale answer.
    """
    primary, log = primary_with_log(snapshot_store, capacity=2)
    with EngineReplicaPool(snapshot_store, replicas=1) as pool:
        pool.attach_primary(log)
        with primary.mutate() as network:
            for i in range(5):
                network.update_h_index("liu", 10 + i)
        assert pool.snapshot_fallbacks == 0
        version = pool.sync()
        assert version == primary.network.version
        assert pool.snapshot_fallbacks == 1
        assert canonical(pool.solve_many([GREEDY])[0]) == canonical(
            primary.solve(GREEDY)
        )


def test_pool_bounded_staleness_rejects_with_a_typed_error(snapshot_store):
    primary, log = primary_with_log(snapshot_store)
    with EngineReplicaPool(snapshot_store, replicas=1) as pool:
        pool.attach_primary(log, max_lag_ms=0.0)
        current = pool.solve_many([GREEDY])[0]
        assert current.error_kind is None  # in budget: answered
        with primary.mutate() as network:
            network.update_h_index("liu", 30)
        rejected = pool.solve_many([GREEDY, RAREST])
        assert [r.error_kind for r in rejected] == ["stale_replica"] * 2
        assert all(not r.found for r in rejected)
        assert all(
            r.network_version == pool.replica_version for r in rejected
        )
        pool.sync()
        healed = pool.solve_many([GREEDY])[0]
        assert healed.error_kind is None
        assert canonical(healed) == canonical(primary.solve(GREEDY))


def test_pool_replication_validation(snapshot_store):
    primary, log = primary_with_log(snapshot_store)
    with EngineReplicaPool(snapshot_store, replicas=1) as pool:
        with pytest.raises(RuntimeError, match="no replication log"):
            pool.sync()
        with pytest.raises(ValueError, match="non-negative"):
            pool.attach_primary(log, max_lag_ms=-1.0)
        pool.attach_primary(log)
        # Unreplicated pools never stamp; replicated ones always do —
        # which is why attaching is opt-in.
        assert pool.solve_many([GREEDY])[0].network_version == 0
