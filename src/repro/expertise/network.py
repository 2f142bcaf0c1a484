"""The expert network: graph + expert profiles + skill index.

This is the central runtime object of the library (the paper's ``G``).
It couples three views that must stay consistent:

* a weighted undirected :class:`repro.graph.Graph` whose nodes are expert
  ids and whose edge weights are communication costs;
* an id -> :class:`Expert` profile map carrying skills and authority;
* a :class:`SkillIndex` answering ``C(s)`` lookups.

Construction either takes explicit edges or derives them from paper
co-authorship (:meth:`ExpertNetwork.from_collaborations`) with Jaccard
weights, exactly as in Section 4 of the paper.

Dynamic networks
----------------

The network is *mutable after construction*: experts join and leave,
profiles change, collaborations appear and are reweighted.  Every
mutation goes through one of the ``add_expert`` / ``remove_expert`` /
``update_skills`` / ``update_h_index`` / ``add_collaboration`` /
``remove_collaboration`` methods, each of which

* keeps the three views (graph, profiles, skill index) consistent,
* bumps the monotonically increasing :attr:`ExpertNetwork.version`
  counter, and
* appends a :class:`NetworkMutation` record to a bounded journal so
  derived structures (the engine's distance-oracle cache) can replay
  exactly what changed since the version they were built at
  (:meth:`ExpertNetwork.mutations_since`).

Construction itself is version 0: the initial expert/edge population is
not journaled, only post-construction mutations are.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

from ..graph.adjacency import Graph, GraphError
from ..graph.components import connected_components
from .authority import AUTHORITY_FLOOR, inverse_authority
from .expert import Expert
from .jaccard import collaboration_weight
from .skills import SkillIndex

__all__ = ["ExpertNetwork", "NetworkMutation"]


@dataclass(frozen=True, slots=True)
class NetworkMutation:
    """One journaled network change (the state *after* applying it).

    ``version`` is the network version the mutation produced.  Exactly
    one of the id fields is populated per ``op``: profile mutations
    carry ``expert_id``, edge mutations carry ``u``/``v`` (plus the new
    ``weight`` and, for reweightings/removals, the ``old_weight``).
    Consumers use ``old_weight`` to decide whether a change is a pure
    insertion/decrease (incrementally applicable to a 2-hop cover) or
    requires an index rebuild.
    """

    version: int
    op: str  # add_expert | remove_expert | update_skills | update_h_index
    #        # | add_collaboration | remove_collaboration
    expert_id: str | None = None
    u: str | None = None
    v: str | None = None
    weight: float | None = None
    old_weight: float | None = None


class ExpertNetwork:
    """An expert social network ``G`` with authority node weights.

    >>> alice = Expert("alice", skills={"ml"}, h_index=10)
    >>> bob = Expert("bob", skills={"db"}, h_index=2)
    >>> net = ExpertNetwork([alice, bob], edges=[("alice", "bob", 0.3)])
    >>> net.authority("alice")
    10.0
    >>> sorted(net.experts_with_skill("db"))
    ['bob']
    >>> net.add_collaboration("alice", "bob", weight=0.1)
    >>> net.version
    1
    """

    #: Maximum journaled mutations retained.  Readers asking for history
    #: older than the journal's floor get ``None`` (= "rebuild, the
    #: delta is gone"), so the cap bounds memory without affecting
    #: correctness.
    JOURNAL_CAP = 4096

    def __init__(
        self,
        experts: Iterable[Expert],
        edges: Iterable[tuple[str, str] | tuple[str, str, float]] = (),
        *,
        authority_floor: float = AUTHORITY_FLOOR,
    ) -> None:
        # Guard and listeners before anything else: __init__ itself
        # calls add_collaboration, which consults both.
        self._mutation_guard: Callable[[], bool] | None = None
        self._mutation_listeners: list[Callable[[NetworkMutation], None]] = []
        self._experts: dict[str, Expert] = {}
        self._graph = Graph()
        self._skills = SkillIndex()
        self._floor = authority_floor
        self._version = 0
        # (version, {expert: a'(c)}); see `inverse_authorities`.  Reset
        # wherever `_version` is assigned other than by `_record`.
        self._inverse_column: tuple[int, dict[str, float]] = (-1, {})
        self._journal: deque[NetworkMutation] = deque()
        self._journal_floor = 0
        for expert in experts:
            if expert.id in self._experts:
                raise ValueError(f"duplicate expert id {expert.id!r}")
            self._experts[expert.id] = expert
            self._graph.add_node(expert.id)
            self._skills.add(expert)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = edge  # type: ignore[misc]
            self.add_collaboration(u, v, weight=w)
        self._reset_history()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_collaborations(
        cls,
        experts: Iterable[Expert],
        collaborations: Iterable[tuple[str, str]],
        *,
        authority_floor: float = AUTHORITY_FLOOR,
    ) -> "ExpertNetwork":
        """Build edges from co-authorship pairs with Jaccard weights.

        The weight of ``(u, v)`` is the Jaccard distance between the two
        experts' paper sets (Section 4's rule); the experts must therefore
        carry their ``papers``.
        """
        net = cls(experts, authority_floor=authority_floor)
        for u, v in collaborations:
            a, b = net.expert(u), net.expert(v)
            net.add_collaboration(
                u, v, weight=collaboration_weight(a.papers, b.papers)
            )
        net._reset_history()
        return net

    # ------------------------------------------------------------------
    # mutation API (each method bumps ``version`` and journals a record)
    # ------------------------------------------------------------------
    def _reset_history(self) -> None:
        """Declare the current state to be version 0 (construction)."""
        self._version = 0
        self._inverse_column = (-1, {})
        self._journal.clear()
        self._journal_floor = 0

    def _record(self, mutation_fields: dict) -> None:
        self._version += 1
        mutation = NetworkMutation(self._version, **mutation_fields)
        self._journal.append(mutation)
        while len(self._journal) > self.JOURNAL_CAP:
            dropped = self._journal.popleft()
            self._journal_floor = dropped.version
        # Synchronous, post-append: when a listener runs, the network
        # state *is* the state at ``mutation.version`` — which is what
        # lets a replication log capture the payload a bare journal
        # record omits (the added expert's profile, the new skill set)
        # exactly as of that version.
        for listener in tuple(self._mutation_listeners):
            listener(mutation)

    @property
    def version(self) -> int:
        """Monotone mutation counter (0 = as constructed)."""
        return self._version

    @property
    def journal_floor(self) -> int:
        """Oldest version whose delta is still replayable from the journal."""
        return self._journal_floor

    def journal_tail(self) -> tuple[NetworkMutation, ...]:
        """Every retained journal record, oldest first.

        This is what the persistence subsystem freezes into a snapshot:
        together with :attr:`version` and :attr:`journal_floor` it lets
        a restored network answer :meth:`mutations_since` exactly as the
        live one would, so index-cache entries loaded at an older
        version reconcile through the same incremental path.
        """
        return tuple(self._journal)

    def restore_history(
        self,
        *,
        version: int,
        journal: Iterable[NetworkMutation],
        journal_floor: int,
    ) -> None:
        """Adopt a persisted mutation history (persistence hook).

        The graph/profile/skill views must already reflect ``version``
        — the caller (``repro.storage``) restores them from the same
        snapshot.  Only the *bookkeeping* is adopted here; the records
        themselves are validated to be a contiguous, in-range tail so a
        tampered snapshot cannot smuggle in an inconsistent journal.
        """
        records = tuple(journal)
        if version < 0 or journal_floor < 0 or journal_floor > version:
            raise ValueError(
                f"inconsistent history: version={version}, "
                f"floor={journal_floor}"
            )
        # Checked arithmetically: a tampered version must not size an
        # allocation (a claimed version of 2**40 would).
        if len(records) != version - journal_floor or any(
            m.version != journal_floor + 1 + i for i, m in enumerate(records)
        ):
            raise ValueError(
                "journal records do not form the contiguous tail "
                f"({journal_floor}, {version}]"
            )
        self._version = version
        self._inverse_column = (-1, {})
        self._journal = deque(records)
        self._journal_floor = journal_floor

    def set_mutation_guard(self, guard: Callable[[], bool] | None) -> None:
        """Install (or clear) the sanctioned-mutation predicate.

        A :class:`~repro.api.engine.TeamFormationEngine` installs a
        guard returning whether the calling thread holds the engine's
        write lock.  While a guard is installed, every mutation method
        consults it *before touching any state*: an unsanctioned call —
        a direct mutation bypassing ``engine.mutate()``, the PR-5 known
        limit — emits a :class:`UserWarning`, or raises
        :class:`RuntimeError` when ``REPRO_STRICT=1`` is set in the
        environment.  Because the check precedes the mutation, a strict-
        mode raise leaves the network (and the engine's version-keyed
        caches) fully consistent.
        """
        self._mutation_guard = guard

    def add_mutation_listener(
        self, listener: Callable[[NetworkMutation], None]
    ) -> None:
        """Subscribe ``listener`` to every future journaled mutation.

        The listener runs *synchronously* at the end of ``_record``, when
        the network state exactly equals the state at the mutation's
        version — this is the hook :class:`repro.serving.replication.
        ReplicationLog` uses to capture the payload a bare
        :class:`NetworkMutation` omits (the added expert's full profile,
        the replaced skill set, the new h-index).  Listeners must not
        mutate the network (that would re-enter ``_record``) and should
        not raise: an exception propagates to the mutating caller.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(
        self, listener: Callable[[NetworkMutation], None]
    ) -> None:
        """Unsubscribe a listener; tolerates one already removed."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _check_mutation_sanctioned(self, op: str) -> None:
        guard = self._mutation_guard
        if guard is None or guard():
            return
        message = (
            f"direct ExpertNetwork.{op}() on an engine-attached network "
            "bypasses the engine's write lock; wrap the call in "
            "`with engine.mutate() as net:` so concurrent solves cannot "
            "observe a torn network"
        )
        if os.environ.get("REPRO_STRICT") == "1":
            raise RuntimeError(message)
        warnings.warn(message, UserWarning, stacklevel=3)

    def mutations_since(self, version: int) -> tuple[NetworkMutation, ...] | None:
        """Every journaled mutation after ``version``, oldest first.

        Returns ``None`` when ``version`` predates the journal's floor
        (the history was truncated by :data:`JOURNAL_CAP`): the caller
        can no longer replay the delta and must rebuild from scratch.
        """
        if version > self._version:
            raise ValueError(
                f"version {version} is ahead of the network ({self._version})"
            )
        if version < self._journal_floor:
            return None
        return tuple(m for m in self._journal if m.version > version)

    def add_expert(self, expert: Expert) -> None:
        """Add a new (possibly isolated) expert to the network."""
        self._check_mutation_sanctioned("add_expert")
        if expert.id in self._experts:
            raise ValueError(f"duplicate expert id {expert.id!r}")
        self._experts[expert.id] = expert
        self._graph.add_node(expert.id)
        self._skills.add(expert)
        self._record({"op": "add_expert", "expert_id": expert.id})

    def remove_expert(self, expert_id: str) -> Expert:
        """Remove an expert and every incident collaboration."""
        self._check_mutation_sanctioned("remove_expert")
        expert = self.expert(expert_id)
        self._graph.remove_node(expert_id)
        self._skills.remove(expert)
        del self._experts[expert_id]
        self._record({"op": "remove_expert", "expert_id": expert_id})
        return expert

    def update_skills(self, expert_id: str, skills: Iterable[str]) -> Expert:
        """Replace ``S(c)`` of one expert, keeping the skill index exact."""
        self._check_mutation_sanctioned("update_skills")
        old = self.expert(expert_id)
        new = replace(old, skills=frozenset(skills))
        self._skills.remove(old)
        self._skills.add(new)
        self._experts[expert_id] = new
        self._record({"op": "update_skills", "expert_id": expert_id})
        return new

    def update_h_index(self, expert_id: str, h_index: float) -> Expert:
        """Update one expert's authority signal ``a(c)``."""
        self._check_mutation_sanctioned("update_h_index")
        old = self.expert(expert_id)
        new = replace(old, h_index=h_index)  # Expert validates non-negative
        self._experts[expert_id] = new
        self._record({"op": "update_h_index", "expert_id": expert_id})
        return new

    def add_collaboration(self, u: str, v: str, *, weight: float = 1.0) -> None:
        """Add (or reweight) the edge between two known experts."""
        self._check_mutation_sanctioned("add_collaboration")
        for node in (u, v):
            if node not in self._experts:
                raise KeyError(f"unknown expert id {node!r}")
        old_weight = self._graph.weight(u, v) if self._graph.has_edge(u, v) else None
        self._graph.add_edge(u, v, weight=weight)
        self._record(
            {
                "op": "add_collaboration",
                "u": u,
                "v": v,
                "weight": float(weight),
                "old_weight": old_weight,
            }
        )

    def remove_collaboration(self, u: str, v: str) -> float:
        """Remove the edge between two experts; return its old weight."""
        self._check_mutation_sanctioned("remove_collaboration")
        for node in (u, v):
            if node not in self._experts:
                raise KeyError(f"unknown expert id {node!r}")
        old_weight = self._graph.weight(u, v)  # raises GraphError if absent
        self._graph.remove_edge(u, v)
        self._record(
            {
                "op": "remove_collaboration",
                "u": u,
                "v": v,
                "old_weight": old_weight,
            }
        )
        return old_weight

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def expert(self, expert_id: str) -> Expert:
        """The profile of one expert; KeyError for unknown ids."""
        try:
            return self._experts[expert_id]
        except KeyError:
            raise KeyError(f"unknown expert id {expert_id!r}") from None

    def __contains__(self, expert_id: str) -> bool:
        return expert_id in self._experts

    def __len__(self) -> int:
        return len(self._experts)

    def expert_ids(self) -> Iterator[str]:
        """Iterate over all expert ids."""
        return iter(self._experts)

    def experts(self) -> Iterator[Expert]:
        """Iterate over all expert profiles."""
        return iter(self._experts.values())

    def authority(self, expert_id: str) -> float:
        """``a(c)`` — the raw authority (h-index by default)."""
        return float(self.expert(expert_id).h_index)

    def inverse_authority(self, expert_id: str) -> float:
        """``a'(c) = 1 / a(c)`` with the configured floor."""
        try:
            return self.inverse_authorities()[expert_id]
        except KeyError:
            raise KeyError(f"unknown expert id {expert_id!r}") from None

    def inverse_authorities(self) -> dict[str, float]:
        """The column ``{expert: a'(c)}`` at the current version.

        Built lazily once per version and published in one assignment,
        so a concurrent reader sees a whole column, old or new; every
        evaluator and solver over this network shares it.  Treat the
        returned dict as read-only.
        """
        version, column = self._inverse_column
        current = self._version
        if version != current:
            column = {
                c: inverse_authority(float(e.h_index), floor=self._floor)
                for c, e in self._experts.items()
            }
            self._inverse_column = (current, column)
        return column

    def skills_of(self, expert_id: str) -> frozenset[str]:
        """``S(c)``: the expert's skill set."""
        return self.expert(expert_id).skills

    def experts_with_skill(self, skill: str) -> frozenset[str]:
        """``C(s)``: ids of experts holding ``skill``."""
        return self._skills.experts_with(skill)

    def communication_cost(self, u: str, v: str) -> float:
        """``w(c_i, c_j)`` — weight of a direct edge."""
        return self._graph.weight(u, v)

    @property
    def graph(self) -> Graph:
        """The underlying weighted graph (shared, treat as read-only)."""
        return self._graph

    @property
    def skill_index(self) -> SkillIndex:
        return self._skills

    @property
    def authority_floor(self) -> float:
        return self._floor

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    # ------------------------------------------------------------------
    # statistics / reductions
    # ------------------------------------------------------------------
    def max_inverse_authority(self) -> float:
        """Upper bound of ``a'`` over the network (used by normalizers)."""
        return max(self.inverse_authorities().values(), default=0.0)

    def max_edge_weight(self) -> float:
        """Largest communication cost in the network (0 when edgeless)."""
        return max((w for _, _, w in self._graph.edges()), default=0.0)

    def largest_connected_subnetwork(self) -> "ExpertNetwork":
        """Restrict to the largest connected component.

        Team discovery is only meaningful within one component; the DBLP
        pipeline applies this after building the raw graph.
        """
        if self._graph.num_nodes == 0:
            return ExpertNetwork([], authority_floor=self._floor)
        keep = connected_components(self._graph)[0]
        return self.subnetwork(keep)

    def subnetwork(self, expert_ids: Iterable[str]) -> "ExpertNetwork":
        """Induced sub-network on ``expert_ids``.

        Kept experts preserve this network's insertion order (never the
        iteration order of the ``expert_ids`` container): solver
        tie-breaks follow expert order, so an induced sub-network must
        not depend on whether the caller passed a list or a set — or on
        the process's hash seed.
        """
        keep = set(expert_ids)
        unknown = [e for e in keep if e not in self._experts]
        if unknown:
            raise KeyError(f"unknown expert ids: {sorted(unknown)!r}")
        net = ExpertNetwork(
            (e for e in self._experts.values() if e.id in keep),
            authority_floor=self._floor,
        )
        for u, v, w in self._graph.edges():
            if u in keep and v in keep:
                net.add_collaboration(u, v, weight=w)
        net._reset_history()
        return net

    def validate(self) -> None:
        """Check cross-view consistency; raise :class:`GraphError` if broken."""
        graph_nodes = set(self._graph.nodes())
        expert_ids = set(self._experts)
        if graph_nodes != expert_ids:
            raise GraphError(
                "graph nodes and expert profiles diverge: "
                f"{sorted(graph_nodes ^ expert_ids)[:5]!r} ..."
            )
        for skill in self._skills.skills():
            for holder in self._skills.experts_with(skill):
                if holder not in self._experts:
                    raise GraphError(
                        f"index lists unknown expert {holder!r} for {skill!r}"
                    )
                if skill not in self._experts[holder].skills:
                    raise GraphError(
                        f"index lists {holder!r} for {skill!r} but the "
                        "profile disagrees"
                    )
        for expert in self._experts.values():
            for skill in expert.skills:
                if expert.id not in self._skills.experts_with(skill):
                    raise GraphError(
                        f"profile of {expert.id!r} holds {skill!r} but the "
                        "index does not list it"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExpertNetwork(experts={len(self._experts)}, "
            f"edges={self._graph.num_edges}, "
            f"skills={self._skills.num_skills})"
        )
