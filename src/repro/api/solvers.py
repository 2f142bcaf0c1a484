"""Thin adapters lifting the core solver classes to the request API.

Each adapter binds one existing solver class to a
:class:`~repro.api.engine.TeamFormationEngine` and translates between the
wire-level :class:`TeamRequest` / :class:`TeamResponse` messages and the
class's native ``find_team`` / ``find_top_k`` calls.  Adapters construct
their underlying solvers exclusively through the engine's factory
methods, so every solver shares the engine's
:class:`~repro.core.objectives.ObjectiveScales` and its keyed distance-
oracle cache — and, by the same token, returns teams *identical* to a
directly constructed solver given the same parameters (asserted in
``tests/api/test_engine.py``).

The core classes themselves remain importable and unchanged; nothing in
:mod:`repro.core` knows this layer exists.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..core.exact import IntractableError
from ..core.explain import MemberContribution, member_contributions
from ..core.team import Team
from ..expertise.skills import SkillCoverageError
from ..graph.pll import pll_build_count
from .messages import (
    ScoreBreakdown,
    TeamPayload,
    TeamRequest,
    TeamResponse,
    TimingInfo,
)
from .registry import SolverRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import TeamFormationEngine

__all__ = [
    "DEFAULT_REGISTRY",
    "register_builtin_solvers",
    "GreedyAdapter",
    "RarestFirstAdapter",
    "SaOptimalAdapter",
    "ExactAdapter",
    "BruteForceAdapter",
    "RandomAdapter",
    "ParetoAdapter",
]


class _BaseAdapter:
    """Shared response assembly for every adapter."""

    name: str = ""

    def __init__(self, engine: "TeamFormationEngine") -> None:
        self._engine = engine

    # ------------------------------------------------------------------
    def solve(self, request: TeamRequest) -> TeamResponse:
        """Answer ``request``: find teams, score, decompose, and time."""
        started = time.perf_counter()
        builds_before = pll_build_count()
        error: str | None = None
        error_kind: str | None = None
        teams: list[Team] = []
        try:
            teams = [t for t in self._find(request) if t is not None]
        except SkillCoverageError as exc:
            # A legitimate negative answer for a serving API: "this
            # project cannot be staffed" — reported in-band, not as a 500.
            error = str(exc)
            error_kind = "uncoverable"
        except IntractableError as exc:
            # Likewise: "exact search over budget" is an answer.
            error = str(exc)
            error_kind = "intractable"
        return self._respond(
            request,
            teams,
            started=started,
            builds_before=builds_before,
            error=error,
            error_kind=error_kind,
        )

    def _find(self, request: TeamRequest) -> list[Team | None]:
        """Ranked teams for ``request`` (subclass hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _respond(
        self,
        request: TeamRequest,
        teams: list[Team],
        *,
        started: float,
        builds_before: int,
        error: str | None = None,
        error_kind: str | None = None,
    ) -> TeamResponse:
        engine = self._engine
        team = teams[0] if teams else None
        contributions: tuple[MemberContribution, ...] = ()
        scores: ScoreBreakdown | None = None
        if team is not None:
            evaluator = engine.evaluator(
                gamma=request.gamma, lam=request.lam, sa_mode=request.sa_mode
            )
            scores = ScoreBreakdown.from_team(evaluator, team)
            contributions = member_contributions(team, evaluator)
        timing = TimingInfo(
            solve_seconds=time.perf_counter() - started,
            oracle_builds=pll_build_count() - builds_before,
        )
        return TeamResponse(
            request=request,
            solver=self.name,
            found=team is not None,
            team=TeamPayload.from_team(team) if team is not None else None,
            alternates=tuple(TeamPayload.from_team(t) for t in teams[1:]),
            contributions=contributions,
            scores=scores,
            timing=timing,
            error=error,
            error_kind=error_kind,
        )


class GreedyAdapter(_BaseAdapter):
    """Algorithm 1 (Problems 1, 2, 3, 5) behind the request API."""

    name = "greedy"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        finder = self._engine.greedy_finder(
            objective=request.objective,
            gamma=request.gamma,
            lam=request.lam,
            sa_mode=request.sa_mode,
            oracle_kind=request.oracle_kind,
        )
        return list(finder.find_top_k(list(request.skills), k=request.k))


class RarestFirstAdapter(_BaseAdapter):
    """The KDD'09 RarestFirst baseline (communication cost only)."""

    name = "rarest_first"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        solver = self._engine.rarest_first_solver(oracle_kind=request.oracle_kind)
        return [solver.find_team(list(request.skills))]


class SaOptimalAdapter(_BaseAdapter):
    """Problem 4: the provably SA-optimal polynomial solver."""

    name = "sa_optimal"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        solver = self._engine.sa_optimal_solver(
            gamma=request.gamma, lam=request.lam, sa_mode=request.sa_mode
        )
        return [solver.find_team(list(request.skills))]


class ExactAdapter(_BaseAdapter):
    """The paper's exhaustive Exact baseline (may be intractable)."""

    name = "exact"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        solver = self._engine.exact_solver(
            gamma=request.gamma, lam=request.lam, sa_mode=request.sa_mode
        )
        return list(solver.find_top_k(list(request.skills), k=request.k))


class BruteForceAdapter(_BaseAdapter):
    """Full member-set enumeration; the test suite's trust anchor."""

    name = "brute_force"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        solver = self._engine.brute_force_solver(
            objective=request.objective,
            gamma=request.gamma,
            lam=request.lam,
            sa_mode=request.sa_mode,
        )
        return [solver.find_team(list(request.skills))]


class RandomAdapter(_BaseAdapter):
    """Best-of-N random teams (the paper's Random baseline)."""

    name = "random"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        solver = self._engine.random_solver(
            gamma=request.gamma,
            lam=request.lam,
            sa_mode=request.sa_mode,
            num_samples=request.num_samples,
            seed=request.seed,
        )
        return [solver.find_team(list(request.skills))]


class ParetoAdapter(_BaseAdapter):
    """Frontier mining: returns the frontier team best under the request's
    objective; the rest of the frontier (up to ``k - 1``) as alternates."""

    name = "pareto"

    def _find(self, request: TeamRequest) -> list[Team | None]:
        discovery = self._engine.pareto_discovery(
            oracle_kind=request.oracle_kind, sa_mode=request.sa_mode
        )
        frontier = discovery.discover(list(request.skills))
        if not frontier:
            return []
        evaluator = self._engine.evaluator(
            gamma=request.gamma, lam=request.lam, sa_mode=request.sa_mode
        )
        ranked = sorted(
            frontier,
            key=lambda p: (evaluator.score(p.team, request.objective), p.vector),
        )
        return [p.team for p in ranked[: request.k]]


def register_builtin_solvers(registry: SolverRegistry) -> SolverRegistry:
    """Register every built-in adapter on ``registry`` and return it."""
    for adapter in (
        GreedyAdapter,
        RarestFirstAdapter,
        SaOptimalAdapter,
        ExactAdapter,
        BruteForceAdapter,
        RandomAdapter,
        ParetoAdapter,
    ):
        registry.register(adapter.name, adapter)
    return registry


#: The registry engines use unless handed a custom one.
DEFAULT_REGISTRY = register_builtin_solvers(SolverRegistry())
