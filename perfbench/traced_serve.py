"""Run the ``repro-teams`` CLI with benchmark-owned spans around its layers.

    python3 perfbench/traced_serve.py OUT_DIR serve --unix ... --snapshot ...

Before calling the same ``repro.cli.main`` entry point the installed
``repro-teams`` script calls, this launcher replaces the public
functions listed in :func:`install` with the timing wrappers of
:mod:`spans`.  The program's own code is untouched.

At exit, this process writes its aggregates to ``OUT_DIR/server.json``.
Replica pool workers are forked from this process, so they inherit the
wrappers; each starts with empty aggregates and writes
``OUT_DIR/worker-<pid>.json`` when it exits.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import util
from pathlib import Path

from spans import Recorder


def _request_key(elapsed, result, args):
    """Sample for ``*Backend.solve``: (request JSON, seconds, end time)."""
    return (args[1].to_json(), elapsed, time.perf_counter())


def _solve_many_sample(elapsed, result, args):
    """Sample for ``EngineReplicaPool.solve_many``: (seconds, IPC seconds)."""
    if not result:
        return None
    solved = sum(r.timing.solve_seconds for r in result if r.timing is not None)
    return (elapsed, elapsed - solved)


def _adapter_sample(elapsed, result, args):
    """Sample for a solver adapter: (seconds, wire ``solve_seconds``)."""
    if result is None or result.timing is None:
        return None
    return (elapsed, result.timing.solve_seconds)


def _elapsed(elapsed, result, args):
    return elapsed


def _delta_sample(elapsed, result, args):
    """Sample for ``ReplicationLog.delta_since``: (seconds, frame bytes)."""
    return (elapsed, len(result) if result is not None else 0)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points (see the table in README.md)."""
    from repro.api import engine as engine_module
    from repro.api import solvers as api_solvers
    from repro.core import greedy, rarest_first
    from repro.core.objectives import TeamEvaluator
    from repro.graph import distance
    from repro.graph.pll import PrunedLandmarkLabeling
    from repro.serving import pool, replication, server
    from repro.storage.store import SnapshotStore

    wrap = recorder.wrap
    for backend in (server.EngineBackend, server.PoolBackend, server.ReplicatedBackend):
        wrap(backend, "solve", "server.backend_solve", sample=_request_key)
    wrap(server.ReplicatedBackend, "mutate", "server.mutate")
    wrap(pool.EngineReplicaPool, "solve_many", "pool.solve_many", sample=_solve_many_sample)
    wrap(pool.EngineReplicaPool, "sync", "pool.sync", sample=_elapsed)
    wrap(
        replication.ReplicationLog, "delta_since", "replication.delta_since",
        sample=_delta_sample,
    )
    wrap(replication, "apply_network_op", "network.apply")
    wrap(engine_module.TeamFormationEngine, "solve", "engine.solve")
    wrap(
        engine_module.TeamFormationEngine, "from_snapshot", "engine.snapshot_load",
        sample=_elapsed,
    )
    wrap(api_solvers._BaseAdapter, "solve", "solvers.solve", sample=_adapter_sample)
    wrap(greedy.GreedyTeamFinder, "find_top_k", "solvers.greedy_sweep")
    wrap(greedy, "dijkstra", "solvers.materialize")
    recorder.wrap_count(TeamEvaluator, "node_cost", "solvers.node_cost")
    wrap(PrunedLandmarkLabeling, "distances_from", "oracle.distances_from")
    wrap(PrunedLandmarkLabeling, "insert_edge", "oracle.incremental")
    wrap(PrunedLandmarkLabeling, "add_node", "oracle.incremental")
    # build_oracle is imported by name into three modules: one wrapper
    # serves all of them, so a build is counted once whoever calls it.
    build = recorder.timed("oracle.build", distance.build_oracle, sample=_elapsed)
    for module in (distance, engine_module, greedy, rarest_first):
        setattr(module, "build_oracle", build)
    wrap(SnapshotStore, "save", "storage.save", sample=_elapsed)


def _write(recorder: Recorder, path: Path) -> None:
    path.write_text(json.dumps(recorder.snapshot()))


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    recorder = Recorder()
    install(recorder)

    def after_fork(rec: Recorder) -> None:
        rec.reset()
        util.Finalize(
            rec, _write, args=(rec, out_dir / f"worker-{os.getpid()}.json"),
            exitpriority=10,
        )

    util.register_after_fork(recorder, after_fork)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        _write(recorder, out_dir / "server.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
