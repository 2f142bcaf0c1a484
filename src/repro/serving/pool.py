"""A pool of engine replicas, each warm-started from one snapshot.

:class:`EngineReplicaPool` is the multi-process tier of the serving
layer.  The parent resolves a PR-4 snapshot to one concrete file, then
spawns N worker processes whose initializer calls
:meth:`TeamFormationEngine.from_snapshot` on that file — a warm start,
so **zero** index builds happen per worker no matter how many replicas
the pool runs.  Request batches are planned by :mod:`repro.serving.batch`
(warm groups spread across replicas, cold groups pinned so the pool
builds each missing index at most once) and travel as JSON strings —
the same lossless encoding the wire API uses — so nothing about a
request or response needs to be picklable beyond text.

Workers answer through :meth:`TeamFormationEngine.solve_isolated`, so a
poisoned request inside a job yields one typed error response instead
of killing the job (or the worker).

In sandboxes where worker processes cannot be spawned (no fork/spawn,
restricted semaphores), the pool degrades to a single in-process
replica: same API, same responses, no parallelism — mirroring the PLL
builder's own fallback.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING

from .. import obs
from ..storage.codec import warm_bases_from_meta
from ..storage.format import read_container
from ..storage.store import resolve_snapshot_path
from .batch import plan_jobs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import TeamFormationEngine
    from ..api.messages import TeamRequest, TeamResponse
    from ..storage.store import SnapshotStore
    from .replication import ReplicationLog

__all__ = ["EngineReplicaPool", "usable_cores"]


def usable_cores() -> int:
    """Cores this process may schedule on (affinity-aware).

    The one shared answer to "how parallel can this host go": the
    pool's default replica count and the serving benchmark's gate-relax
    threshold both read it, so they can never disagree.
    """
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

#: The replica owned by this worker process (set by the initializer).
_WORKER_ENGINE: "TeamFormationEngine | None" = None
_WORKER_INIT_ERROR: str | None = None


def _init_replica(snapshot_path: str) -> None:
    """Worker initializer: warm-start this process's private replica.

    Never raises: ``multiprocessing.Pool`` responds to a crashing
    initializer by silently respawning the worker forever, which would
    turn a failed warm start (snapshot GC'd between parent validation
    and worker spawn, per-worker OOM) into a hang.  The failure is
    recorded instead, and the first job raises it cleanly through
    ``Pool.map`` back to the caller.
    """
    global _WORKER_ENGINE, _WORKER_INIT_ERROR
    from ..api.engine import TeamFormationEngine

    try:
        _WORKER_ENGINE = TeamFormationEngine.from_snapshot(snapshot_path)
    except Exception as exc:  # noqa: BLE001 - see docstring
        _WORKER_INIT_ERROR = f"{type(exc).__name__}: {exc}"


def _probe_replica(_: object = None) -> str | None:
    """First task on every worker: report the warm-start outcome."""
    return _WORKER_INIT_ERROR


def _serve_job(job: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Answer one job of ``(index, request_json)`` on this replica."""
    from ..api.messages import TeamRequest

    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError(
            "replica warm start failed: "
            + (_WORKER_INIT_ERROR or "initializer did not run")
        )
    out = []
    for index, text in job:
        response = engine.solve_isolated(TeamRequest.from_json(text))
        out.append((index, response.to_json()))
    return out


def _apply_delta_job(data: bytes) -> int:
    """Advance this worker's replica by one delta stream; return its version.

    Runs on the worker's single-job executor, so it is naturally
    serialized against solve jobs — a solve never observes a
    half-applied stream.  A snapshot frame rebinds the worker's engine
    to the freshly transferred one.
    """
    global _WORKER_ENGINE
    from .replication import ReplicaFollower

    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError(
            "replica warm start failed: "
            + (_WORKER_INIT_ERROR or "initializer did not run")
        )
    follower = ReplicaFollower(engine)
    follower.apply(data)
    _WORKER_ENGINE = follower.engine
    return follower.version


#: Upper bound on how long shutting the workers down waits for their
#: executors' manager threads, so a worker stuck in a job cannot hang it.
_SHUTDOWN_TIMEOUT_S = 10.0


def _shutdown(workers: list[ProcessPoolExecutor]) -> None:
    """Shut executors down and join their manager threads (bounded).

    ``shutdown(wait=False)`` alone leaves each manager thread tearing
    down its wakeup pipe while the interpreter may already be exiting;
    ``concurrent.futures``' exit hook then writes to that pipe as it
    closes and prints ``OSError: [Errno 9] Bad file descriptor``.  The
    threads are captured first: ``shutdown`` drops the executor's
    reference to its own.
    """
    managers = [w._executor_manager_thread for w in workers]
    for worker in workers:
        worker.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + _SHUTDOWN_TIMEOUT_S
    for thread in managers:
        if thread is not None:
            thread.join(max(0.0, deadline - time.monotonic()))


class EngineReplicaPool:
    """N process-local engine replicas serving one snapshot's state.

    Parameters
    ----------
    source:
        A :class:`SnapshotStore`, store directory, or ``*.snap`` file.
        Resolved to one concrete file up front, so every replica loads
        identical bytes (and therefore answers byte-identical
        responses) even if the store's LATEST pointer moves later.
    replicas:
        Worker process count; defaults to the usable core count.  The
        parent verifies the snapshot (full CRC pass) before spawning
        anything, so a corrupt file fails fast with the storage layer's
        typed error instead of a worker crash loop.

    >>> # with EngineReplicaPool("./snapshots", replicas=4) as pool:
    >>> #     responses = pool.solve_many(requests)
    """

    def __init__(
        self,
        source: "SnapshotStore | str | Path",
        *,
        replicas: int | None = None,
    ) -> None:
        self._path = resolve_snapshot_path(source)
        # Fail fast in the parent: decode errors here carry the typed
        # snapshot exceptions; a worker initializer crash would not.
        meta, _sections = read_container(self._path)
        self._warm_bases = frozenset(warm_bases_from_meta(meta))
        # Sharded snapshots carry a {skill: home shard} residency map;
        # the batch planner uses it to pin shard-local request groups
        # (see repro.serving.batch).  Absent on monolithic snapshots.
        residency = meta.get("shard_residency")
        self._shard_residency: dict[str, int] | None = (
            {str(k): int(v) for k, v in residency.items()}
            if isinstance(residency, dict)
            else None
        )
        # Replication state (attach_primary): which network version the
        # replicas currently serve, and the bounded-staleness budget.
        self._replica_version = int(meta.get("network_version", 0))
        self._log: "ReplicationLog | None" = None
        self._max_lag_ms: float | None = None
        self._snapshot_fallbacks = 0
        if replicas is None:
            replicas = max(1, usable_cores())
        if replicas < 1:
            raise ValueError("replicas must be positive")
        self._requested_replicas = replicas
        self._closed = False
        # One single-worker executor per replica (not one N-worker
        # pool): routing is what makes pinning mean something — a cold
        # group's jobs must land on the *same* worker process across
        # batches, so its index is built at most once for the pool's
        # whole lifetime.  ProcessPoolExecutor rather than
        # multiprocessing.Pool because a worker dying mid-job must
        # surface as BrokenProcessPool, not hang a silently-respawned
        # pool's never-completed result.
        self._workers: list[ProcessPoolExecutor] = []
        self._pinned_worker: dict[tuple, int] = {}
        self._next_worker = 0
        # Routing state mutates per job; the persistent server drives
        # one pool from several executor threads at once, so the
        # round-robin cursor and pin table need a lock.
        self._route_lock = threading.Lock()
        self._local: "TeamFormationEngine | None" = None
        if replicas > 1:
            workers: list[ProcessPoolExecutor] = []
            try:
                ctx = multiprocessing.get_context()
                for _ in range(replicas):
                    workers.append(
                        ProcessPoolExecutor(
                            max_workers=1,
                            mp_context=ctx,
                            initializer=_init_replica,
                            initargs=(str(self._path),),
                        )
                    )
                # Eager probe: spawn every worker now and surface a
                # failed warm start (e.g. the snapshot vanished between
                # parent validation and worker spawn) as a construction
                # error, not a first-batch surprise.  All probes are
                # submitted before any result is awaited so the N
                # snapshot loads overlap instead of serializing.
                probes = [w.submit(_probe_replica) for w in workers]
                for probe in probes:
                    error = probe.result()
                    if error is not None:
                        raise RuntimeError(
                            f"replica warm start failed: {error}"
                        )
                self._workers = workers
            except (OSError, ValueError, pickle.PickleError, BrokenProcessPool):
                # Constrained sandbox (no fork/spawn): degrade to
                # in-process serving.
                _shutdown(workers)
                self._workers = []
            except BaseException:
                # A failed warm start is an error, not a degrade — but
                # never leak spawned workers on the way out.
                _shutdown(workers)
                raise
        if not self._workers:
            from ..api.engine import TeamFormationEngine

            self._local = TeamFormationEngine.from_snapshot(self._path)

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        """How many replicas actually serve (1 in degraded mode)."""
        return len(self._workers) if self._workers else 1

    @property
    def snapshot_path(self) -> Path:
        """The one snapshot file every replica warm-started from."""
        return self._path

    @property
    def warm_bases(self) -> frozenset:
        """Index bases prebuilt in the snapshot (drives job splitting)."""
        return self._warm_bases

    # ------------------------------------------------------------------
    def solve_many(
        self, requests: "list[TeamRequest]"
    ) -> "list[TeamResponse]":
        """Answer a batch across the pool; responses in request order.

        Per-request error isolation always applies (the pool exists to
        serve, not to crash): a bad request comes back as a typed error
        response, exactly as :meth:`TeamFormationEngine.solve_many`
        returns in its default ``isolate`` mode.
        """
        from dataclasses import replace

        from ..api.messages import TeamResponse

        requests = list(requests)
        if not requests:
            return []
        if self._closed:
            raise RuntimeError("the replica pool has been closed")
        stale = self._stale_rejection()
        if stale is not None:
            # Bounded staleness is an *admission* check: a too-stale
            # replica set answers nothing, typed, rather than answering
            # from a world the primary has left behind.
            return [
                replace(
                    TeamResponse.for_error(request, "stale_replica", stale),
                    network_version=self._replica_version,
                )
                for request in requests
            ]
        stamp = self._replica_version if self._log is not None else None
        registry = obs.global_registry()
        registry.counter("pool_batches").inc()
        registry.counter("pool_requests").inc(len(requests))
        if not self._workers:
            assert self._local is not None
            # Round-trip through JSON even in-process, so degraded mode
            # returns the exact bytes worker mode would.
            with obs.span(
                "pool.solve_many", mode="degraded", requests=len(requests)
            ):
                return [
                    self._stamped(
                        TeamResponse.from_json(response.to_json()), stamp
                    )
                    for response in self._local.solve_many(requests)
                ]
        with obs.span(
            "pool.solve_many", mode="workers", requests=len(requests)
        ):
            with obs.span("pool.route"):
                jobs = plan_jobs(
                    requests,
                    len(self._workers),
                    self._warm_bases,
                    self._shard_residency,
                )
                # Route the whole batch under ONE lock acquisition, then
                # submit and await entirely outside it.  Routing is pure
                # bookkeeping (a cursor bump or a dict lookup); holding
                # `_route_lock` across submission — let alone across
                # `future.result()` — would serialize concurrent callers
                # of a pool that exists to overlap them (the PR-7
                # single-request server path did exactly that).
                with self._route_lock:
                    routed = [
                        (self._route_locked(pin), job) for pin, job in jobs
                    ]
            registry.counter("pool_jobs").inc(len(routed))
            with obs.span("pool.submit", jobs=len(routed)):
                pending = []
                for worker_index, job in routed:
                    payload = [
                        (index, requests[index].to_json()) for index in job
                    ]
                    registry.gauge(f"pool_depth_r{worker_index}").add(1)
                    pending.append(
                        (
                            worker_index,
                            self._workers[worker_index].submit(
                                _serve_job, payload
                            ),
                        )
                    )
            responses: "list[TeamResponse | None]" = [None] * len(requests)
            # future.result() raises BrokenProcessPool if a worker died
            # mid-job (OOM kill, segfault) — an error the caller sees,
            # never a silently-respawned worker and a hang.
            with obs.span("pool.await"):
                for worker_index, future in pending:
                    try:
                        answers = future.result()
                    finally:
                        registry.gauge(f"pool_depth_r{worker_index}").add(-1)
                    for index, text in answers:
                        responses[index] = self._stamped(
                            TeamResponse.from_json(text), stamp
                        )
        assert all(r is not None for r in responses)
        return responses  # type: ignore[return-value]

    @staticmethod
    def _stamped(
        response: "TeamResponse", stamp: int | None
    ) -> "TeamResponse":
        """Stamp the replica's network version onto a pooled answer.

        Only when replication is attached (``stamp`` is not ``None``):
        an un-replicated pool keeps the exact pre-replication payload
        bytes.
        """
        if stamp is None:
            return response
        from dataclasses import replace

        return replace(response, network_version=stamp)

    def _stale_rejection(self) -> str | None:
        """The typed rejection message when the staleness budget is blown."""
        if self._log is None or self._max_lag_ms is None:
            return None
        lag = self._log.lag_ms(self._replica_version)
        if lag <= self._max_lag_ms:
            return None
        return (
            f"replicas are {lag:.0f}ms behind the primary "
            f"(version {self._replica_version}, budget "
            f"{self._max_lag_ms:.0f}ms) — sync and retry"
        )

    def _route(self, pin: tuple | None) -> int:
        """Pick the worker for a job; pinned keys stick for pool life.

        Thread-safe: concurrent callers (the persistent server's solve
        workers) round-robin without ever double-assigning a pin.
        """
        with self._route_lock:
            return self._route_locked(pin)

    def _route_locked(self, pin: tuple | None) -> int:
        """:meth:`_route` body; caller holds ``_route_lock``."""
        if pin is None:
            worker = self._next_worker
            self._next_worker = (self._next_worker + 1) % len(self._workers)
            return worker
        worker = self._pinned_worker.get(pin)
        if worker is None:
            # First sight of this cold group: round-robin over the
            # pinned assignments so multiple cold groups spread out.
            worker = len(self._pinned_worker) % len(self._workers)
            self._pinned_worker[pin] = worker
        return worker

    # ------------------------------------------------------------------
    # replication (see repro.serving.replication)
    # ------------------------------------------------------------------
    @property
    def replica_version(self) -> int:
        """The network version every replica currently serves."""
        return self._replica_version

    @property
    def snapshot_fallbacks(self) -> int:
        """How many syncs had to fall back to a full snapshot transfer."""
        return self._snapshot_fallbacks

    def attach_primary(
        self,
        log: "ReplicationLog",
        *,
        max_lag_ms: float | None = None,
    ) -> None:
        """Subscribe this pool's replicas to a primary's replication log.

        After attaching, :meth:`sync` advances every replica from the
        log's delta stream, every answer is stamped with the replica
        ``network_version`` it was computed at, and — when
        ``max_lag_ms`` is set — :meth:`solve_many` rejects requests
        with a typed ``stale_replica`` error whenever the replicas lag
        the primary by more than the budget, instead of ever answering
        from too-stale state.
        """
        if max_lag_ms is not None and max_lag_ms < 0:
            raise ValueError("max_lag_ms must be non-negative")
        self._log = log
        self._max_lag_ms = max_lag_ms

    def sync(self, log: "ReplicationLog | None" = None) -> int:
        """Advance every replica to the primary's tip; returns the version.

        The delta path: fetch ``log.delta_since(replica_version)`` and
        broadcast the (identical) bytes to every worker, where they
        replay through the engine's incremental reconciliation — zero
        index rebuilds when the delta allows it.  When the pool has
        fallen past the log's floor (:class:`JournalTruncatedError`) or
        a replica reports an unreconcilable lineage
        (:class:`StaleSnapshotError`), it falls back to one full
        snapshot transfer — counted in :attr:`snapshot_fallbacks` —
        and continues.
        """
        from ..storage.errors import JournalTruncatedError, StaleSnapshotError

        log = log if log is not None else self._log
        if log is None:
            raise RuntimeError("no replication log attached (attach_primary)")
        if self._closed:
            raise RuntimeError("the replica pool has been closed")
        registry = obs.global_registry()
        registry.counter("pool_syncs").inc()
        start = time.perf_counter()
        try:
            try:
                data = log.delta_since(self._replica_version)
            except JournalTruncatedError:
                data = None
            if data is not None:
                if not data:
                    return self._replica_version  # already at the tip
                try:
                    return self.apply_delta(data)
                except StaleSnapshotError:
                    # A replica's state cannot absorb the delta (diverged
                    # lineage): repair it the same way a truncated journal
                    # is repaired — with the primary's full state.
                    pass
            self._snapshot_fallbacks += 1
            registry.counter("pool_sync_fallbacks").inc()
            return self.apply_delta(log.snapshot_frame())
        finally:
            registry.reservoir("pool_sync").observe(time.perf_counter() - start)
            registry.gauge("replication_lag_ms").set(
                log.lag_ms(self._replica_version)
            )

    def apply_delta(self, data: bytes) -> int:
        """Broadcast one delta stream to every replica; returns the version.

        All replicas receive identical bytes, so they advance in
        lockstep; a divergent outcome (two replicas reporting different
        versions afterwards) is a hard error, never a quietly
        inconsistent pool.
        """
        if self._closed:
            raise RuntimeError("the replica pool has been closed")
        if not self._workers:
            assert self._local is not None
            from .replication import ReplicaFollower

            with obs.span("pool.apply_delta", bytes=len(data)):
                follower = ReplicaFollower(self._local)
                follower.apply(data)
            self._local = follower.engine
            self._replica_version = follower.version
            return self._replica_version
        with obs.span("pool.apply_delta", bytes=len(data)):
            futures = [
                worker.submit(_apply_delta_job, data)
                for worker in self._workers
            ]
            versions = {future.result() for future in futures}
        if len(versions) != 1:
            raise RuntimeError(
                f"replicas diverged after delta apply: versions {sorted(versions)}"
            )
        self._replica_version = versions.pop()
        return self._replica_version

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        A closed pool refuses further batches; create a new pool to
        serve again.
        """
        self._closed = True
        workers, self._workers = self._workers, []
        _shutdown(workers)
        self._local = None

    def __enter__(self) -> "EngineReplicaPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineReplicaPool(snapshot={self._path.name!r}, "
            f"replicas={self.replicas}, warm={len(self._warm_bases)})"
        )
