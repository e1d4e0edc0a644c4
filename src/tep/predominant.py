"""Lexicographic preferences with a dominant component, and the two
top-trading-cycle mechanisms they support.

House-primary agents hold a strict total order over houses and break ties
with a weak order over tenants; tenant-primary agents do the reverse.  The
induced ordering over outcomes is lexicographic, so it is a weak order over
all n*n outcomes: an instance that lists its classes in order is an
ordinary market for the oracles of :mod:`tep.axioms`, which is how the
tests check the mechanisms below.

Both mechanisms are one walk: each remaining agent points at the agent
behind its best remaining primary item (a house's owner, or the tenant),
and a pointer cycle trades and leaves: in house mode each agent takes its
target's house, in tenant mode each target moves into the agent's house.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import Allocation, Market, Outcome, PreferenceOrder

HOUSE = "house"
TENANT = "tenant"


@dataclass(frozen=True)
class PredominantProfile(Market):
    """Strict primary order plus weak tie-break order, per agent.

    In house mode ``primary[i]`` is a strict ranking of all houses (best
    first) and ``tiebreak[i]`` partitions the agents into indifference
    classes; tenant mode swaps the two roles.  A report is a strict primary
    order.
    """

    mode: str
    primary: tuple[tuple[int, ...], ...]
    tiebreak: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self):
        if self.mode not in (HOUSE, TENANT):
            raise ValueError(f"mode must be {HOUSE!r} or {TENANT!r}")
        super().__post_init__()

    def _check_agents(self, agents) -> None:
        n = self.n
        if len(self.primary) != n or len(self.tiebreak) != n:
            raise ValueError("need one primary order and one tie-break per agent")
        items = set(range(n))
        for i in agents:
            order, classes = self.primary[i], self.tiebreak[i]
            # n entries forming the set of all n items hold each item once
            if len(order) != n or set(order) != items:
                raise ValueError(f"agent {i}: primary order must rank all {n} items strictly")
            if sum(map(len, classes)) != n or set().union(*classes) != items:
                raise ValueError(f"agent {i}: tie-break classes must partition all {n} items")

    @cached_property
    def _orders(self) -> tuple[tuple[PreferenceOrder, PreferenceOrder], ...]:
        """Per agent, the primary order (one item per class) and the tie-break order."""
        return tuple((PreferenceOrder(tuple(frozenset([x]) for x in order)),
                      PreferenceOrder(classes))
                     for order, classes in zip(self.primary, self.tiebreak))

    def outcome_key(self, agent: int, outcome: Outcome) -> tuple[int, int]:
        """Sort key (lower is better) of an outcome for one agent."""
        o = Outcome(*outcome)
        primary, tiebreak = self._orders[agent]
        if self.mode == HOUSE:
            return (primary.rank(o.house), tiebreak.rank(o.tenant))
        return (primary.rank(o.tenant), tiebreak.rank(o.house))

    def prefers(self, agent: int, a: Outcome, b: Outcome) -> bool:
        return lex_compare(self, agent, a, b) > 0

    def with_report(self, agent: int, report) -> PredominantProfile:
        """The agent's primary order replaced by ``report``.  Only the agent
        is checked, with the constructor's messages: the report must rank
        all n items strictly."""
        self.checked(agent)
        return self._with_entries(agent, primary=tuple(report))


def lex_compare(prof: PredominantProfile, agent: int, a: Outcome, b: Outcome) -> int:
    """+1 if a is lexicographically preferred (primary first), -1 or 0 otherwise."""
    a, b = prof.checked(agent, a, b)
    ka, kb = prof.outcome_key(agent, a), prof.outcome_key(agent, b)
    return (kb > ka) - (ka > kb)


def _strict_order(prof: PredominantProfile, expected_mode: str) -> None:
    if prof.mode != expected_mode:
        raise ValueError(f"mechanism needs a {expected_mode}-primary profile, got {prof.mode}")


def ttc(prof: PredominantProfile) -> Allocation:
    """Top trading cycles driven by the strict house orders.

    Each remaining agent points at the owner of its best remaining house;
    some pointer cycle always exists, each of its agents takes the house of
    the agent it points at, and the cycle leaves the market.  Cycles in this
    pointer graph are vertex-disjoint, so the result does not depend on
    removal order.
    """
    _strict_order(prof, HOUSE)
    return _trade_cycles(prof)


def tttc(prof: PredominantProfile) -> Allocation:
    """Top trading cycles driven by the owners' strict tenant orders.

    The same walk as :func:`ttc`, but each remaining agent points at its
    best remaining tenant, and within a removed cycle each agent's house is
    taken by the tenant it points at.
    """
    _strict_order(prof, TENANT)
    return _trade_cycles(prof)


def _trade_cycles(prof: PredominantProfile) -> Allocation:
    """The allocation the walk trades to; each walk starts at the lowest
    remaining agent."""
    n = prof.n
    house_mode = prof.mode == HOUSE
    # The agent behind each primary item: a house's owner, or the tenant itself.
    behind = prof.owner if house_mode else range(n)
    remaining_agents = set(range(n))
    remaining_items = set(range(n))
    assignment = [-1] * n
    while remaining_agents:
        cur = min(remaining_agents)
        seen: dict[int, int] = {}
        walk: list[int] = []
        while cur not in seen:
            seen[cur] = len(walk)
            walk.append(cur)
            cur = behind[next(filter(remaining_items.__contains__, prof.primary[cur]))]
        cycle = walk[seen[cur]:]
        for agent, target in zip(cycle, cycle[1:] + cycle[:1]):
            taker, giver = (agent, target) if house_mode else (target, agent)
            assignment[taker] = prof.endowment[giver]
            remaining_agents.remove(agent)
            remaining_items.remove(prof.endowment[agent] if house_mode else agent)
    return Allocation(tuple(assignment))
