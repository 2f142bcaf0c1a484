"""Team explanations: why each member is on the team and what they cost.

A staffing decision needs more than a score: which members drive the
communication cost, whose authority is carrying the team, and who is
structurally irreplaceable.  :func:`explain_team` decomposes the
SA-CA-CC objective member-by-member:

* a skill holder's contribution is its (normalized) inverse authority,
  weighted by lambda per covered skill;
* a connector's contribution is its inverse authority weighted by
  ``(1 - lambda) * gamma``;
* each member is also attributed half the weight of its incident team
  edges (``(1 - lambda) * (1 - gamma)`` weighted), so the per-member
  contributions sum exactly to the team's SA-CA-CC score;
* members that are articulation points of the team subgraph are flagged
  ``critical`` — removing them disconnects the team, so the replacement
  recommender can only re-route, not drop them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from ..expertise.network import ExpertNetwork
from ..graph.articulation import articulation_points
from .objectives import ObjectiveScales, SaMode, TeamEvaluator
from .team import Team

__all__ = [
    "MemberContribution",
    "TeamExplanation",
    "explain_team",
    "member_contributions",
]


class MemberContribution(NamedTuple):
    """One member's share of the team's SA-CA-CC score.

    Also the wire form of a contribution (``TeamResponse.contributions``):
    every number is a ``float``, so a contribution is byte-identical to
    its own JSON round-trip.  A named tuple, not a frozen dataclass: a
    served response builds one per member, and a tuple builds in about
    half the time.
    """

    expert_id: str
    role: str                      # "skill holder" | "connector"
    covered_skills: tuple[str, ...]
    authority: float               # raw h-index, for display
    sa_share: float
    ca_share: float
    cc_share: float
    critical: bool                 # articulation point of the team

    @property
    def total(self) -> float:
        return self.sa_share + self.ca_share + self.cc_share

    def to_dict(self) -> dict[str, Any]:
        """This contribution as a JSON-ready dict (inverse of ``from_dict``)."""
        return {**self._asdict(), "covered_skills": list(self.covered_skills)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MemberContribution":
        """Build a contribution from its dict form (inverse of ``to_dict``)."""
        values = {field: data[field] for field in cls._fields}
        values["covered_skills"] = tuple(values["covered_skills"])
        return cls(**values)


@dataclass(frozen=True, slots=True)
class TeamExplanation:
    """Full decomposition; contributions sum to the objective value."""

    score: float
    gamma: float
    lam: float
    contributions: tuple[MemberContribution, ...]

    def heaviest(self) -> MemberContribution:
        """The member contributing the most cost."""
        return max(self.contributions, key=lambda c: c.total)

    def critical_members(self) -> list[str]:
        """Ids of members whose removal disconnects the team."""
        return [c.expert_id for c in self.contributions if c.critical]

    def format(self) -> str:
        """Human-readable decomposition, heaviest members first."""
        lines = [
            f"SA-CA-CC = {self.score:.4f}  (gamma={self.gamma}, lambda={self.lam})"
        ]
        for c in sorted(self.contributions, key=lambda c: -c.total):
            flags = " [critical]" if c.critical else ""
            skills = (
                f" covers {', '.join(c.covered_skills)}" if c.covered_skills else ""
            )
            lines.append(
                f"  {c.expert_id:<20} {c.role:<12} h={c.authority:<6.1f} "
                f"sa={c.sa_share:.4f} ca={c.ca_share:.4f} cc={c.cc_share:.4f} "
                f"total={c.total:.4f}{flags}{skills}"
            )
        return "\n".join(lines)


def explain_team(
    team: Team,
    network: ExpertNetwork,
    *,
    gamma: float = 0.6,
    lam: float = 0.6,
    scales: ObjectiveScales | None = None,
    sa_mode: SaMode = "per_skill",
) -> TeamExplanation:
    """Decompose ``team``'s SA-CA-CC score by member (see module docstring)."""
    evaluator = TeamEvaluator(
        network, gamma=gamma, lam=lam, scales=scales, sa_mode=sa_mode
    )
    return TeamExplanation(
        score=evaluator.sa_ca_cc(team),
        gamma=gamma,
        lam=lam,
        contributions=member_contributions(team, evaluator),
    )


def member_contributions(
    team: Team, evaluator: TeamEvaluator
) -> tuple[MemberContribution, ...]:
    """Each member's share of ``team``'s SA-CA-CC score under
    ``evaluator``'s gamma, lambda, scales and ``sa_mode``, by member id."""
    gamma, lam = evaluator.gamma, evaluator.lam
    per_skill = evaluator.sa_mode == "per_skill"
    node_cost, edge_cost = evaluator.node_cost, evaluator.edge_cost
    authority, neighbors = evaluator.network.authority, team.tree.neighbors
    critical = articulation_points(team.tree)
    skills_by_member: dict[str, list[str]] = {}
    for skill, holder in sorted(team.assignments.items()):
        skills_by_member.setdefault(holder, []).append(skill)

    edge_weight_factor = (1.0 - lam) * (1.0 - gamma)
    contributions = []
    for member in sorted(team.members):
        covered = tuple(skills_by_member.get(member, ()))
        cost = node_cost(member)
        if covered:
            role = "skill holder"
            sa_share = lam * cost * (len(covered) if per_skill else 1)
            ca_share = 0.0
        else:
            role = "connector"
            sa_share = 0.0
            ca_share = (1.0 - lam) * gamma * cost
        # half of each incident edge, so edges are attributed exactly once
        incident = sum([edge_cost(w) / 2.0 for w in neighbors(member).values()])
        contributions.append(
            MemberContribution(
                expert_id=member,
                role=role,
                covered_skills=covered,
                authority=authority(member),
                sa_share=sa_share,
                ca_share=ca_share,
                cc_share=edge_weight_factor * incident,
                critical=member in critical,
            )
        )
    return tuple(contributions)
