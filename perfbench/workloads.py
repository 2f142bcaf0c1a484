"""The benchmark's workloads: what the server runs and what the client sends.

Every input derives from the workload seed alone: the projects (through
the library's own ``sample_projects``), the order requests are sent in,
the open-loop arrival times and the live-updates write schedule.  The
program under test receives only the snapshot and the request lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: The snapshot's warm fold: greedy sa-ca-cc requests at this gamma pay
#: no index build.
GAMMA = 0.6
LAMBDAS = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration.

    ``open_rate`` is the fixed arrival rate, in requests per second, of
    the open loop a traced run measures: about 0.4 of the closed-loop
    capacity measured on the commit that introduced the benchmark (see
    README.md).  ``None`` means the workload has no open loop.
    """

    name: str
    serve_args: tuple[str, ...]
    connections: int
    open_rate: float | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="warm-greedy",
            serve_args=(),
            connections=2,
            open_rate=8.0,
        ),
        Workload(
            name="live-updates",
            serve_args=("--replicas", "2", "--replicate"),
            connections=1,
            open_rate=None,
        ),
    )
}

#: Solves per write in the live-updates closed loop.
SOLVES_PER_WRITE = 4
#: One block of the live-updates write mix: each block of 20 writes holds
#: exactly this many of each kind, shuffled, so every run carries the
#: same mix (5% authority changes is one per block).
WRITE_BLOCK = (
    ("add_collaboration",) * 12
    + ("add_expert",) * 4
    + ("update_skills",) * 3
    + ("update_h_index",) * 1
)


#: Projects drawn per ``sample_projects`` call while extending a stream.
PROJECT_CHUNK = 64


class RequestStream:
    """The solve requests of a session, generated on demand from the seed.

    Greedy ``sa-ca-cc`` requests at the warm gamma, rotating over 4/6/8
    skills and the lambdas.  No project (skill set) occurs twice, so no
    request repeats within a session: a cache of answers or of
    per-request state gains nothing here that real traffic would not
    give it.  Projects come from the library's ``sample_projects``, in
    chunks seeded from the workload seed, the project size and the
    chunk index.
    """

    SIZES = (4, 6, 8)

    def __init__(self, network, seed: int) -> None:
        self._network = network
        self._seed = seed
        self._chunks = {size: 0 for size in self.SIZES}
        self._pending: dict[int, list[list[str]]] = {size: [] for size in self.SIZES}
        self._seen: set[tuple[str, ...]] = set()
        self.lines: list[str] = []

    def line(self, index: int) -> str:
        """The ``index``-th request line (generated and remembered on first use)."""
        while len(self.lines) <= index:
            n = len(self.lines)
            size = self.SIZES[n % len(self.SIZES)]
            request = {
                "skills": self._project(size),
                "solver": "greedy",
                "objective": "sa-ca-cc",
                "gamma": GAMMA,
                "lam": LAMBDAS[n % len(LAMBDAS)],
            }
            self.lines.append(json.dumps(request, sort_keys=True))
        return self.lines[index]

    def _project(self, size: int) -> list[str]:
        from repro.eval.workload import sample_projects

        pending = self._pending[size]
        while True:
            if not pending:
                chunk = self._chunks[size]
                if chunk > 1000:
                    raise RuntimeError(f"ran out of distinct {size}-skill projects")
                self._chunks[size] += 1
                pending.extend(reversed(sample_projects(
                    self._network, size, PROJECT_CHUNK,
                    seed=(self._seed * 1009 + size) * 100003 + chunk,
                )))
            project = pending.pop()
            if tuple(project) not in self._seen:
                self._seen.add(tuple(project))
                return project


def arrivals(rate: float, duration: float, seed: int) -> list[float]:
    """Poisson arrival offsets (seconds) at ``rate`` over ``duration``.

    A Poisson process conditioned on its expected count: that many
    uniform times in ``[0, duration)``, sorted.  A fixed count keeps the
    latency sample size the same on every run.
    """
    rng = random.Random(seed * 7919 + 1)
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


class WriteSchedule:
    """The live-updates writes, generated on demand from the seed.

    Each write is one ``{"op": "mutate"}`` line.  A shadow of the
    network's experts, edges, skills and h-indexes keeps every write
    valid against the state the earlier writes produced:

    * ``add_collaboration`` joins two existing, non-adjacent experts
      with a weight drawn from the network's own edge weights (an
      incremental 2-hop-cover insert);
    * ``add_expert`` adds an expert with 1-3 existing skills and one
      collaboration (a node insert);
    * ``update_skills`` gives an existing expert one more existing skill
      (the index is reused);
    * ``update_h_index`` changes an authority (the folded graph is
      rebuilt on the next solve).
    """

    def __init__(self, network, seed: int) -> None:
        self._rng = random.Random(seed * 104729 + 3)
        self._seed = seed
        self._experts = sorted(network.expert_ids())
        self._edges = {
            frozenset((u, v)) for u, v, _ in network.graph.edges()
        }
        self._weights = sorted(w for _, _, w in network.graph.edges())
        self._skills_of = {e: set(network.skills_of(e)) for e in self._experts}
        self._all_skills = sorted(network.skill_index.skills())
        self._block: list[str] = []
        self._added = 0
        self.lines: list[str] = []

    def line(self, index: int) -> str:
        """The ``index``-th write (generated and remembered on first use)."""
        while len(self.lines) <= index:
            self.lines.append(json.dumps({"op": "mutate", "ops": self._next()}))
        return self.lines[index]

    def _pair(self) -> tuple[str, str]:
        rng = self._rng
        while True:
            u, v = rng.sample(self._experts, 2)
            if frozenset((u, v)) not in self._edges:
                return u, v

    def _next(self) -> list[dict]:
        rng = self._rng
        if not self._block:
            self._block = list(WRITE_BLOCK)
            rng.shuffle(self._block)
        kind = self._block.pop()
        weight = rng.choice(self._weights)
        if kind == "add_collaboration":
            u, v = self._pair()
            self._edges.add(frozenset((u, v)))
            return [{"op": kind, "u": u, "v": v, "weight": weight}]
        if kind == "add_expert":
            expert = f"bench-{self._seed}-{self._added}"
            self._added += 1
            peer = rng.choice(self._experts)
            skills = sorted(rng.sample(self._all_skills, rng.randint(1, 3)))
            self._experts.append(expert)
            self._skills_of[expert] = set(skills)
            self._edges.add(frozenset((expert, peer)))
            return [
                {"op": kind, "id": expert, "skills": skills,
                 "h_index": rng.randint(1, 40)},
                {"op": "add_collaboration", "u": expert, "v": peer,
                 "weight": weight},
            ]
        expert = rng.choice(self._experts)
        if kind == "update_skills":
            skills = self._skills_of[expert]
            skills.add(rng.choice(self._all_skills))
            return [{"op": kind, "id": expert, "skills": sorted(skills)}]
        return [{"op": kind, "id": expert, "h_index": rng.randint(1, 60)}]
