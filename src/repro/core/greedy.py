"""Algorithm 1 and its authority-aware modifications (Section 3.2).

The search iterates every expert ``c_r`` as a potential root, picks for
each required skill the holder minimizing a mode-dependent distance score
from the root, and keeps the root(s) with the smallest score sum.  The
three modes differ only in the score and in which graph distances are
measured on:

``cc``        score = ``DIST_G(root, v)`` — Problem 1, prior art.
``ca-cc``     score = ``DIST_G'(root, v) - gamma * a'(v)`` — Problem 3;
              ``gamma = 1`` degenerates to Problem 2 (pure CA).
``sa-ca-cc``  score = ``(1-lam) * (DIST_G'(root, v) - gamma * a'(v))
              + lam * a'(v)`` — Problem 5.

In every authority-aware mode, a root that itself holds the skill is
assigned it at score zero (Section 3.2.2).  ``DIST`` queries go through a
pluggable distance oracle — the paper's 2-hop cover by default — as one
``distances_from(root, every holder of the project)`` call per root, at most.
Inverse authorities come from the network's per-version column
(:meth:`ExpertNetwork.inverse_authorities`), turned into ``gamma * a'``
and ``lam * a'`` once per holder, not once per (root, holder).

A root's best score for a skill depends only on (root, skill, gamma,
lam, network version), never on the project's other skills.  A finder
therefore keeps one lazily filled *score column* per skill: a float per
root, NaN until computed and ``inf`` when no holder is reachable.  A
warm solve over skills seen before reads one cell per (root, skill) and
queries the oracle not at all until it materializes its winners.

Final teams are *materialized* from a single Dijkstra tree rooted at the
winning root (all root-to-holder paths then share edges consistently, so
the team subgraph is a tree) and re-scored with the literal Definitions
2-6 by a :class:`TeamEvaluator`.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import insort
from collections.abc import Iterable, Sequence

from ..expertise.network import ExpertNetwork
from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra, reconstruct_path
from ..graph.distance import DistanceOracle, build_oracle
from .objectives import ObjectiveScales, SaMode, TeamEvaluator
from .team import Team
from .transform import authority_fold_transform

__all__ = ["GreedyTeamFinder", "OBJECTIVES", "search_graph_for"]

OBJECTIVES = ("cc", "ca", "ca-cc", "sa-ca-cc")

_INF = float("inf")
_NAN = float("nan")

#: One skill's sorted holders as ``(holder, gamma * a', lam * a')``.
_Holders = list[tuple[str, float, float]]
#: A solve's skills, sorted, each with its :data:`_Holders` and its
#: score column (one float per root; NaN until computed).
_Plan = list[tuple[str, _Holders, array]]


def _targets(plan: _Plan) -> list[str]:
    """Every holder of the project's skills, once each: the targets of a
    root's single ``distances_from`` call."""
    return list(dict.fromkeys(h for _, holders, _ in plan for h, _, _ in holders))


def search_graph_for(
    network: ExpertNetwork,
    objective: str,
    gamma: float,
    scales: ObjectiveScales,
) -> Graph:
    """The graph Algorithm 1 measures distances on for ``objective``.

    ``cc`` searches plain ``G`` with normalized weights (a monotone
    rescale, so teams are unchanged); every authority-aware mode searches
    the folded graph ``G'``.  Shared between :class:`GreedyTeamFinder`
    and the engine's oracle cache so an injected oracle is always built
    over the exact graph the finder would have built itself.
    """
    if objective == "cc":
        return network.graph.reweighted(lambda u, v, w: w / scales.edge_scale)
    if objective == "ca":
        gamma = 1.0
    return authority_fold_transform(network, gamma, scales=scales)


class GreedyTeamFinder:
    """The paper's greedy solver for Problems 1, 2, 3 and 5.

    Parameters
    ----------
    network:
        The expert network ``G``.
    objective:
        One of ``"cc"``, ``"ca"``, ``"ca-cc"``, ``"sa-ca-cc"``.  ``"ca"``
        is ``"ca-cc"`` with ``gamma`` forced to 1 (Problem 2).
    gamma, lam:
        Tradeoff parameters of Definitions 4 and 6.
    oracle_kind:
        ``"pll"`` (2-hop cover, the paper's choice) or ``"dijkstra"``.
    index_workers:
        Worker processes for PLL index construction (``None`` uses the
        module default, settable via the CLI's ``--parallel-index``).
    root_candidates:
        Optional restriction of the root loop (Algorithm 1 line 3); by
        default every expert is tried, as in the paper.
    scales:
        Normalization constants; derived from the network when omitted.
    """

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        objective: str = "sa-ca-cc",
        gamma: float = 0.6,
        lam: float = 0.6,
        oracle_kind: str = "pll",
        root_candidates: Iterable[str] | None = None,
        scales: ObjectiveScales | None = None,
        sa_mode: SaMode = "per_skill",
        oracle: DistanceOracle | None = None,
        search_graph: Graph | None = None,
        index_workers: int | None = None,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; expected {OBJECTIVES}")
        if objective == "ca":
            gamma = 1.0
        self.network = network
        self.objective = objective
        self.evaluator = TeamEvaluator(
            network, gamma=gamma, lam=lam, scales=scales, sa_mode=sa_mode
        )
        self.gamma = self.evaluator.gamma
        self.lam = self.evaluator.lam
        # The SA weight of the greedy score: only Problem 5 blends it in.
        self._blend = self.lam if objective == "sa-ca-cc" else 0.0
        # An injected search graph must come from `search_graph_for` with
        # this finder's (objective, gamma, scales) — the engine passes it
        # alongside the matching oracle so neither is built twice.
        self._search_graph = (
            search_graph if search_graph is not None else self._build_search_graph()
        )
        # An injected oracle lets a lambda sweep share one index: the
        # search graph depends only on (network, gamma, scales), never on
        # lambda, so `finder.oracle` can be handed to the next finder.
        self._oracle: DistanceOracle = (
            oracle
            if oracle is not None
            else build_oracle(
                self._search_graph, oracle_kind, workers=index_workers
            )
        )
        self._roots = (
            list(root_candidates)
            if root_candidates is not None
            else list(network.expert_ids())
        )
        unknown = [r for r in self._roots if r not in network]
        if unknown:
            raise KeyError(f"root candidates outside the network: {unknown[:5]!r}")
        # Per skill, its holders and score column, valid for one network
        # version; replaced whole (one assignment) when the version moves.
        self._columns: tuple[int, dict[str, tuple[_Holders, array]]] = (
            network.version,
            {},
        )

    @property
    def oracle(self) -> DistanceOracle:
        """The distance oracle over the search graph (shareable, see init)."""
        return self._oracle

    @property
    def search_graph(self) -> Graph:
        """The (possibly transformed) graph distances are measured on."""
        return self._search_graph

    # ------------------------------------------------------------------
    # search-graph construction
    # ------------------------------------------------------------------
    def _build_search_graph(self) -> Graph:
        return search_graph_for(
            self.network, self.objective, self.gamma, self.evaluator.scales
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _holders(self, skill: str) -> _Holders:
        """The skill's sorted holders with their per-holder constants.

        Every mode scores a holder ``v`` from a root as
        ``(1 - lam) * (DIST - gamma * a'(v)) + lam * a'(v)`` (Section
        3.2): ``sa-ca-cc`` as written, ``ca``/``ca-cc`` with ``lam = 0``
        and ``cc`` with ``gamma = lam = 0`` too.  Multiplying by 1 and
        adding or subtracting 0 are exact, so each mode's score is
        bit-identical to its own formula.  Each holder carries
        ``gamma * a'(v)`` and ``lam * a'(v)``, so the sweep pays for node
        costs once per holder instead of once per (root, holder).  Sorted
        holders make ties on score keep the lexicographically smallest.
        """
        gamma = 0.0 if self.objective == "cc" else self.gamma
        lam = self._blend
        node_cost = self.evaluator.node_cost
        holders: _Holders = []
        for holder in sorted(self.network.experts_with_skill(skill)):
            cost = node_cost(holder)
            holders.append((holder, gamma * cost, lam * cost))
        return holders

    def _plan(self, skills: Sequence[str]) -> _Plan:
        """Per skill, its holders and score column at the current version.

        Cell ``i`` of a skill's column is the best score of any holder
        from root ``self._roots[i]``: NaN until a sweep computes it,
        ``inf`` when no holder is reachable from that root.  The cells
        depend only on (root, skill, gamma, lam, version), so they are
        shared by every project naming the skill.  A version change
        drops every column at once.  Concurrent solves may fill the same
        cell; they write the same value.
        """
        version = self.network.version
        seen, columns = self._columns
        if seen != version:
            columns = {}
            self._columns = (version, columns)
        plan: _Plan = []
        for skill in skills:
            entry = columns.get(skill)
            if entry is None:
                column = array("d", [_NAN]) * len(self._roots)
                # setdefault: racing first touches share one column.
                entry = columns.setdefault(skill, (self._holders(skill), column))
            plan.append((skill, *entry))
        return plan

    def _assign(
        self, root: str, plan: _Plan, targets: list[str]
    ) -> dict[str, str] | None:
        """Algorithm 1's inner loop for one root: the best holder per skill.

        Returns ``{skill: holder}``, or ``None`` when a skill is
        unreachable from ``root``.  A root holding a skill takes it at
        score zero (Section 3.2.2); for the rest, one
        ``distances_from(root, targets)`` call fetches every holder
        distance the root needs.
        """
        root_skills = self.network.skills_of(root)
        keep = 1.0 - self._blend
        dists: dict[str, float] | None = None
        assignment: dict[str, str] = {}
        for skill, holders, _ in plan:
            if skill in root_skills:
                assignment[skill] = root
                continue
            if dists is None:
                dists = self._oracle.distances_from(root, targets)
            best_expert, best_score = None, _INF
            for holder, gamma_cost, lam_cost in holders:
                dist = dists[holder]
                if dist == _INF:
                    continue  # unreachable; never forms 0 * inf at lam = 1
                score = keep * (dist - gamma_cost) + lam_cost
                if score < best_score:
                    best_expert, best_score = holder, score
            if best_expert is None:
                return None
            assignment[skill] = best_expert
        return assignment

    # ------------------------------------------------------------------
    # the root loop (Algorithm 1)
    # ------------------------------------------------------------------
    def find_team(self, project: Iterable[str]) -> Team | None:
        """Best team for ``project``; ``None`` if no root covers it."""
        teams = self.find_top_k(project, k=1)
        return teams[0] if teams else None

    def find_top_k(self, project: Iterable[str], k: int = 5) -> list[Team]:
        """Top-``k`` distinct teams by greedy cost (Section 3.2.1).

        The bounded list ``L`` is kept over root iterations exactly as the
        paper describes; a few extra candidates are retained so that
        deduplication (several roots can induce the same team) still
        yields ``k`` distinct teams.  The sweep ranks roots by their
        score columns alone: a root makes its one ``distances_from``
        call only when it reaches a cell no earlier solve computed.
        Holders are assigned only for the roots actually materialized.
        """
        if k < 1:
            raise ValueError("k must be positive")
        skills = sorted(set(project))
        if not skills:
            raise ValueError("project must require at least one skill")
        self.network.skill_index.require_coverable(skills)
        plan = self._plan(skills)
        targets = _targets(plan)
        keep = 1.0 - self._blend
        skills_of = self.network.skills_of
        distances_from = self._oracle.distances_from

        capacity = max(4 * k, k + 8)
        # Entries: (greedy_cost, tie, root); ties are unique, so entries
        # order by (cost, root order).
        best: list[tuple[float, int, str]] = []
        bound = _INF
        for tie, root in enumerate(self._roots):
            root_skills = skills_of(root)
            dists = None
            total = 0.0
            for skill, holders, column in plan:
                if skill in root_skills:
                    continue  # the root takes the skill at score zero
                score = column[tie]
                if score != score:  # NaN: not computed yet
                    if dists is None:
                        dists = distances_from(root, targets)
                    # `_assign`'s scoring loop, keeping the score only.
                    score = _INF
                    for holder, gamma_cost, lam_cost in holders:
                        dist = dists[holder]
                        if dist == _INF:
                            continue
                        cell = keep * (dist - gamma_cost) + lam_cost
                        if cell < score:
                            score = cell
                    column[tie] = score
                total += score
                if total >= bound:
                    break  # unreachable (inf), or cannot enter the list
            else:
                insort(best, (total, tie, root))
                if len(best) > capacity:
                    best.pop()
                if len(best) >= capacity:
                    bound = best[-1][0]

        teams: list[Team] = []
        seen: set = set()
        for _, _, root in best:
            assignment = self._assign(root, plan, targets)
            assert assignment is not None, "a ranked root covers the project"
            team = self._materialize(root, assignment)
            if team.key() in seen:
                continue
            seen.add(team.key())
            teams.append(team)
            if len(teams) == k:
                break
        return teams

    def team_from_root(self, root: str, project: Iterable[str]) -> Team | None:
        """The team Algorithm 1 would grow from one specific root.

        Returns ``None`` when some skill is unreachable from ``root``.
        Exposed for tests and for the qualitative Figure 6 experiment.
        """
        plan = self._plan(sorted(set(project)))
        assignment = self._assign(root, plan, _targets(plan))
        if assignment is None:
            return None
        return self._materialize(root, assignment)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self, root: str, assignment: dict[str, str]) -> Team:
        """Union of root-to-holder paths from one Dijkstra tree of ``G'``.

        Using a single shortest-path tree keeps the union cycle-free and
        mirrors Algorithm 1's ``add`` (line 13: connect ``bestExpert``
        along its path from the root).  Edge weights in the returned team
        come from the *original* network, so evaluation sees real
        communication costs.
        """
        # Assignment order, not set order: the tree's edge order (and so
        # the order CC sums its costs in) must not follow the hash seed.
        holders = list(dict.fromkeys(assignment.values()))
        dist, parent = dijkstra(self._search_graph, root, targets=holders)
        tree = Graph()
        tree.add_node(root)
        for holder in holders:
            path = reconstruct_path(parent, holder)
            for u, v in itertools.pairwise(path):
                if not tree.has_edge(u, v):
                    tree.add_edge(u, v, weight=self.network.graph.weight(u, v))
        return Team(tree=tree, assignments=dict(assignment), root=root)
