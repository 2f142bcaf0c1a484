"""The in-process reference every served answer is compared against.

A reference engine loads the same snapshot the server loaded and
replays the exact operation sequence the server saw, in order: each
solve through ``engine.solve_isolated()``, each ``mutate`` through
``engine.mutate()``.  The work runs after the timed window closes, in a
worker process that runs this file, so that it can be given a chosen
string-hash seed:

    python3 perfbench/reference.py < job.json > answers.json
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def _mutate(engine, line: str) -> int:
    from repro.serving.replication import apply_network_op

    with engine.mutate() as network:
        for op in json.loads(line)["ops"]:
            apply_network_op(network, op)
        return network.version


def answer(job: dict) -> list:
    """Answer one job (run inside a worker process).

    ``{"snapshot", "ops"}``: answer ``ops`` — ``[kind, line]`` pairs —
    in order.  Returns one ``[canonical_json, network_version]`` per op;
    ``canonical_json`` is ``None`` for a write.
    """
    from repro.api import TeamFormationEngine, TeamRequest

    engine = TeamFormationEngine.from_snapshot(job["snapshot"])
    out = []
    for kind, line in job["ops"]:
        if kind == "mutate":
            out.append([None, _mutate(engine, line)])
        else:
            response = engine.solve_isolated(TeamRequest.from_json(line))
            out.append([response.canonical_json(), engine.network.version])
    return out


def replay(snapshot: str, jobs: list[tuple[list, dict]]) -> list[list]:
    """The :func:`answer` lists of ``jobs``, ``(ops, environment)`` pairs.

    One worker process per job, all side by side; each replays its
    operations in order.
    """
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        for _, env in jobs
    ]
    results = []
    try:
        # Hand every worker its job before reading any answer, so they
        # run side by side; each reads all of its input before working.
        for proc, (ops, _) in zip(procs, jobs):
            proc.stdin.write(json.dumps({"snapshot": snapshot, "ops": ops}))
            proc.stdin.close()
        for proc in procs:
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"reference worker exited with {proc.returncode}")
            results.append(json.loads(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


if __name__ == "__main__":
    json.dump(answer(json.load(sys.stdin)), sys.stdout)
