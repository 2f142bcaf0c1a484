"""Typed request/response messages for the team-formation serving API.

A :class:`TeamRequest` captures everything a solver needs to answer one
query — the required skills, which solver to route to, the objective and
its tradeoff parameters — and a :class:`TeamResponse` captures everything
a caller needs from the answer: the team itself, a per-member cost
decomposition, the full score breakdown and timing.  Both round-trip
losslessly through plain dicts and JSON (``to_json`` / ``from_json``), so
requests can arrive over a wire and responses can be logged, cached or
shipped back without touching pickle.

The team payload deliberately mirrors — but does not reference — the
live domain object: a :class:`TeamPayload` can be rebuilt into a
:class:`repro.core.team.Team` (``to_team``).  A member contribution
needs no twin: :class:`repro.core.explain.MemberContribution` is already
plain data and serves as :data:`MemberContributionPayload`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from ..core.explain import MemberContribution
from ..core.objectives import SaMode, TeamEvaluator
from ..core.team import Team
from ..graph.adjacency import Graph

__all__ = [
    "TeamRequest",
    "TeamPayload",
    "MemberContributionPayload",
    "ScoreBreakdown",
    "TimingInfo",
    "TeamResponse",
]

_SA_MODES = ("per_skill", "distinct")
_ORACLE_KINDS = ("pll", "dijkstra")


@dataclass(frozen=True, slots=True)
class TeamRequest:
    """One team-formation query, addressed to a registered solver.

    ``skills`` is the project (Definition 1); ``solver`` is a
    :class:`repro.api.registry.SolverRegistry` key.  ``seed`` and
    ``num_samples`` only matter to stochastic solvers (``random``);
    ``k`` asks for up to ``k`` ranked teams where the solver supports it
    (extras are returned as ``alternates``).

    ``deadline_ms`` is the caller's per-request latency budget in
    milliseconds, honored by the persistent server
    (:class:`repro.serving.server.TeamServer`): a request still queued
    when its budget runs out is answered with a ``deadline_exceeded``
    error response instead of occupying a worker.  ``0`` means "already
    expired" (useful for testing the rejection path); ``None`` defers
    to the server's configured default.  Solvers themselves ignore it —
    a solve that has *started* runs to completion.
    """

    skills: tuple[str, ...]
    solver: str = "greedy"
    objective: str = "sa-ca-cc"
    gamma: float = 0.6
    lam: float = 0.6
    sa_mode: SaMode = "per_skill"
    oracle_kind: str = "pll"
    k: int = 1
    seed: int | None = None
    num_samples: int | None = None
    deadline_ms: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "skills", tuple(self.skills))
        if not self.skills:
            raise ValueError("a request must name at least one skill")
        if not all(isinstance(s, str) and s for s in self.skills):
            raise ValueError("skills must be non-empty strings")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.sa_mode not in _SA_MODES:
            raise ValueError(f"unknown sa_mode {self.sa_mode!r}")
        if self.oracle_kind not in _ORACLE_KINDS:
            raise ValueError(f"unknown oracle_kind {self.oracle_kind!r}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.num_samples is not None and self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if self.deadline_ms is not None:
            if not isinstance(self.deadline_ms, int) or isinstance(
                self.deadline_ms, bool
            ):
                raise ValueError(
                    f"deadline_ms must be an integer millisecond count, "
                    f"got {self.deadline_ms!r}"
                )
            if self.deadline_ms < 0:
                raise ValueError("deadline_ms must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        """This message as a JSON-ready dict (inverse of ``from_dict``)."""
        return {
            "skills": list(self.skills),
            "solver": self.solver,
            "objective": self.objective,
            "gamma": self.gamma,
            "lam": self.lam,
            "sa_mode": self.sa_mode,
            "oracle_kind": self.oracle_kind,
            "k": self.k,
            "seed": self.seed,
            "num_samples": self.num_samples,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TeamRequest":
        """Build a request from a (possibly partial) dict."""
        known = {
            "solver",
            "objective",
            "gamma",
            "lam",
            "sa_mode",
            "oracle_kind",
            "k",
            "seed",
            "num_samples",
            "deadline_ms",
        }
        kwargs = {key: data[key] for key in known if key in data}
        return cls(skills=tuple(data["skills"]), **kwargs)

    def to_json(self) -> str:
        """Canonical (sorted-keys) JSON encoding."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TeamRequest":
        """Parse a request from its JSON encoding."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "TeamRequest":
        """A copy with the given fields changed (dataclasses.replace-like)."""
        merged = self.to_dict()
        merged.update(changes)
        return self.from_dict(merged)


@dataclass(frozen=True, slots=True)
class TeamPayload:
    """A serialized team: canonical member, assignment and edge views.

    ``assignments`` is sorted ``(skill, expert)`` pairs; ``edges`` is
    sorted ``(u, v, weight)`` triples with ``u <= v``.  Sorting makes the
    payload canonical, so two payloads are equal iff the teams have the
    same ``Team.key()`` and tree.
    """

    members: tuple[str, ...]
    assignments: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str, float], ...]
    root: str | None = None

    @classmethod
    def from_team(cls, team: Team) -> "TeamPayload":
        """Serialize a live :class:`Team` into its canonical payload.

        Weights are coerced to ``float`` so the payload is byte-stable
        under a JSON round-trip even when a graph was built with
        integer weights.
        """
        edges = tuple(
            sorted(
                (min(u, v), max(u, v), float(w))
                for u, v, w in team.tree.edges()
            )
        )
        return cls(
            members=tuple(sorted(team.members)),
            assignments=tuple(sorted(team.assignments.items())),
            edges=edges,
            root=team.root,
        )

    def to_team(self) -> Team:
        """Rebuild the live :class:`Team` (inverse of :meth:`from_team`)."""
        tree = Graph()
        for member in self.members:
            tree.add_node(member)
        for u, v, w in self.edges:
            tree.add_edge(u, v, weight=w)
        return Team(tree=tree, assignments=dict(self.assignments), root=self.root)

    def to_dict(self) -> dict[str, Any]:
        """This message as a JSON-ready dict (inverse of ``from_dict``)."""
        return {
            "members": list(self.members),
            "assignments": {skill: expert for skill, expert in self.assignments},
            "edges": [[u, v, w] for u, v, w in self.edges],
            "root": self.root,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TeamPayload":
        """Build a payload from its dict form (inverse of ``to_dict``)."""
        return cls(
            members=tuple(data["members"]),
            assignments=tuple(sorted(data["assignments"].items())),
            edges=tuple((u, v, float(w)) for u, v, w in data["edges"]),
            root=data.get("root"),
        )


#: The wire form of a member contribution is the live one: every field
#: is JSON-ready and every number a ``float`` (see
#: :func:`repro.core.explain.member_contributions`).
MemberContributionPayload = MemberContribution


@dataclass(frozen=True, slots=True)
class ScoreBreakdown:
    """The team's value under every objective (Definitions 2-6)."""

    cc: float
    ca: float
    sa: float
    ca_cc: float
    sa_ca_cc: float

    @classmethod
    def from_team(cls, evaluator: TeamEvaluator, team: Team) -> "ScoreBreakdown":
        """Score ``team`` under all five objectives via ``evaluator``.

        CC, CA and SA are each computed once; the two combinations are
        formed from them with the evaluator's own blends, so every field
        equals the matching evaluator method bit for bit.

        Scores are coerced to ``float``: an evaluator may legitimately
        return an exact ``int`` 0, but a payload holding one would stop
        being byte-identical to its own JSON round-trip (``0`` vs
        ``0.0``) — and replica-pool responses, which travel as JSON,
        must match in-process responses byte for byte.
        """
        cc, ca, sa = evaluator.cc(team), evaluator.ca(team), evaluator.sa(team)
        ca_cc = evaluator.blend_ca_cc(ca, cc)
        return cls(
            cc=float(cc),
            ca=float(ca),
            sa=float(sa),
            ca_cc=float(ca_cc),
            sa_ca_cc=float(evaluator.blend_sa_ca_cc(sa, ca_cc)),
        )

    def to_dict(self) -> dict[str, Any]:
        """This message as a JSON-ready dict (inverse of ``from_dict``)."""
        return {
            "cc": self.cc,
            "ca": self.ca,
            "sa": self.sa,
            "ca_cc": self.ca_cc,
            "sa_ca_cc": self.sa_ca_cc,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScoreBreakdown":
        """Build a breakdown from its dict form (inverse of ``to_dict``)."""
        return cls(**{k: float(data[k]) for k in ("cc", "ca", "sa", "ca_cc", "sa_ca_cc")})


@dataclass(frozen=True, slots=True)
class TimingInfo:
    """Wall-clock cost of one solve and how many indexes it paid for.

    ``oracle_builds`` counts PLL constructions during the solve: on the
    engine's multi-query hot path it should be 0 for every request after
    the first one that shares a cached oracle.

    ``trace`` optionally carries the finished span tree of the request
    (:meth:`repro.obs.Span.to_dict`) when the server was asked to trace.
    It rides here — and only here — because ``canonical_json()`` nulls
    the whole ``timing`` field: a traced response stays byte-identical
    to an untraced one under the serving identity contract.  Omitted
    from the dict/JSON forms when absent, so untraced payloads keep
    their exact pre-tracing byte form.
    """

    solve_seconds: float
    oracle_builds: int = 0
    trace: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """This message as a JSON-ready dict (inverse of ``from_dict``)."""
        out: dict[str, Any] = {
            "solve_seconds": self.solve_seconds,
            "oracle_builds": self.oracle_builds,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TimingInfo":
        """Build timing info from its dict form (inverse of ``to_dict``)."""
        return cls(
            solve_seconds=float(data["solve_seconds"]),
            oracle_builds=int(data["oracle_builds"]),
            trace=data.get("trace"),
        )


@dataclass(frozen=True, slots=True)
class TeamResponse:
    """One solver's answer to a :class:`TeamRequest`.

    ``found`` is false when the solver could not produce a team (project
    uncoverable holders disconnected, or an intractable exact search —
    in which case ``error`` says why).  ``alternates`` holds ranked
    runner-up teams when the request asked for ``k > 1``.

    ``error_kind`` types the failure so batch callers can branch
    without parsing prose: ``"uncoverable"`` / ``"intractable"`` are a
    solver's legitimate negative answers, while ``"unknown_solver"`` /
    ``"invalid_request"`` / ``"internal"`` mark requests the isolation
    layer (:meth:`repro.api.TeamFormationEngine.solve_isolated`) caught
    so one bad request cannot abort the rest of a batch.  The
    persistent server adds two admission-layer kinds that never reach a
    solver at all: ``"overloaded"`` (the bounded pending queue was
    full) and ``"deadline_exceeded"`` (the request's ``deadline_ms``
    budget ran out while it was still queued).  Replicated serving adds
    ``"stale_replica"``: the replica's bounded-staleness admission check
    found it lagging the primary by more than the configured budget, so
    the request was rejected rather than answered from stale state.

    ``network_version`` is the network mutation version the answer was
    computed at.  It is ``None`` (and **omitted from the dict/JSON
    forms**) outside replicated serving, so pre-replication payloads,
    logs and byte-identity fixtures are unchanged; the replica pool and
    the replicated server stamp it so callers can correlate answers
    with the mutation stream.
    """

    request: TeamRequest
    solver: str
    found: bool
    team: TeamPayload | None = None
    alternates: tuple[TeamPayload, ...] = ()
    contributions: tuple[MemberContributionPayload, ...] = ()
    scores: ScoreBreakdown | None = None
    timing: TimingInfo | None = None
    error: str | None = None
    error_kind: str | None = None
    network_version: int | None = None

    @classmethod
    def for_error(
        cls, request: TeamRequest, kind: str, message: str
    ) -> "TeamResponse":
        """A typed error answer for a request no solver could process."""
        return cls(
            request=request,
            solver=request.solver,
            found=False,
            error=message,
            error_kind=kind,
        )

    def with_trace(self, tree: dict[str, Any] | None) -> "TeamResponse":
        """A copy carrying ``tree`` in ``timing.trace`` (identity-safe).

        No-op (returns ``self``) when there is no tree or no timing to
        attach it to — admission-layer rejections never ran a solver
        and carry no :class:`TimingInfo`.
        """
        if tree is None or self.timing is None:
            return self
        timing = TimingInfo(
            solve_seconds=self.timing.solve_seconds,
            oracle_builds=self.timing.oracle_builds,
            trace=tree,
        )
        return dataclasses.replace(self, timing=timing)

    def to_dict(self) -> dict[str, Any]:
        """This message as a JSON-ready dict (inverse of ``from_dict``)."""
        out = {
            "request": self.request.to_dict(),
            "solver": self.solver,
            "found": self.found,
            "team": self.team.to_dict() if self.team is not None else None,
            "alternates": [t.to_dict() for t in self.alternates],
            "contributions": [c.to_dict() for c in self.contributions],
            "scores": self.scores.to_dict() if self.scores is not None else None,
            "timing": self.timing.to_dict() if self.timing is not None else None,
            "error": self.error,
            "error_kind": self.error_kind,
        }
        # Default-omitted (not emitted as null): un-replicated payloads
        # keep their exact pre-replication byte form.
        if self.network_version is not None:
            out["network_version"] = self.network_version
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TeamResponse":
        """Build a response from its dict form (inverse of ``to_dict``)."""
        return cls(
            request=TeamRequest.from_dict(data["request"]),
            solver=data["solver"],
            found=data["found"],
            team=(
                TeamPayload.from_dict(data["team"])
                if data.get("team") is not None
                else None
            ),
            alternates=tuple(
                TeamPayload.from_dict(t) for t in data.get("alternates", ())
            ),
            contributions=tuple(
                MemberContributionPayload.from_dict(c)
                for c in data.get("contributions", ())
            ),
            scores=(
                ScoreBreakdown.from_dict(data["scores"])
                if data.get("scores") is not None
                else None
            ),
            timing=(
                TimingInfo.from_dict(data["timing"])
                if data.get("timing") is not None
                else None
            ),
            error=data.get("error"),
            error_kind=data.get("error_kind"),
            network_version=data.get("network_version"),
        )

    def to_json(self) -> str:
        """Canonical (sorted-keys) JSON encoding."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TeamResponse":
        """Parse a response from its JSON encoding."""
        return cls.from_dict(json.loads(text))

    def canonical_json(self) -> str:
        """:meth:`to_json` with ``timing`` nulled and ``network_version``
        dropped.

        The identity contract of the serving layer — replica-pool,
        threaded and sequential answers must match **byte for byte** —
        can never hold for wall-clock timing, so identity checks (the
        serving/snapshot benchmarks, the concurrency regression tests)
        compare this form instead of ``to_json``.  ``network_version``
        is likewise excluded: it identifies *who answered* (a replicated
        backend stamps it, a plain engine does not), never *what the
        answer is*, so it must not break identity between the two.
        """
        payload = self.to_dict()
        payload["timing"] = None
        payload.pop("network_version", None)
        return json.dumps(payload, sort_keys=True)

    def format(self) -> str:
        """Human-readable answer for terminals (the CLI's default view)."""
        head = f"solver: {self.solver}  skills: {', '.join(self.request.skills)}"
        if self.timing is not None:
            head += (
                f"  ({self.timing.solve_seconds:.3f}s, "
                f"{self.timing.oracle_builds} index build"
                f"{'' if self.timing.oracle_builds == 1 else 's'})"
            )
        if not self.found or self.team is None:
            reason = f": {self.error}" if self.error else ""
            kind = f" [{self.error_kind}]" if self.error_kind else ""
            return f"{head}\nno team found{kind}{reason}"
        lines = [head]
        if self.team.root is not None:
            lines.append(f"root: {self.team.root}")
        for c in sorted(self.contributions, key=lambda c: -c.total):
            skills = f" covers {', '.join(c.covered_skills)}" if c.covered_skills else ""
            flag = " [critical]" if c.critical else ""
            lines.append(
                f"  {c.expert_id:<20} {c.role:<12} h={c.authority:<6.1f} "
                f"total={c.total:.4f}{flag}{skills}"
            )
        if self.scores is not None:
            s = self.scores
            lines.append(
                f"scores: cc={s.cc:.4f} ca={s.ca:.4f} sa={s.sa:.4f} "
                f"ca-cc={s.ca_cc:.4f} sa-ca-cc={s.sa_ca_cc:.4f}"
            )
        if self.alternates:
            lines.append(f"alternates: {len(self.alternates)} more ranked team(s)")
        return "\n".join(lines)

