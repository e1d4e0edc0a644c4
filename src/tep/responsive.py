"""Two-component preferences and the responsive set extension.

Agents rank houses and tenants separately; an outcome beats another only
when both components weakly agree (with one strict), which yields a partial
order over outcomes.  This module provides the comparison, the axiom
oracles under that partial order, the polynomial-time acceptability
matching (every agent gets an acceptable house and an acceptable tenant),
and the refinement algorithm that turns the matching subroutine into an
individually rational, Pareto-optimal allocation under the extension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

# all_allocations is unused here but stays a module attribute: perfbench/tracer.py wraps it.
from .axioms import DEFAULT_NODE_BUDGET, all_allocations  # noqa: F401
from .cycles import Budget, Options, find_exchange_cycle
from .matching import augment, max_bipartite_matching
from .model import (Allocation, Market, Outcome, PreferenceOrder, _unchecked, checked_items,
                    inverse_permutation, outcome_of)
from .rng import SplitMix64

ComponentClasses = tuple[tuple[frozenset[int], ...], ...]


class RsOrdering(enum.Enum):
    BETTER = "strictly-better"
    INDIFFERENT = "indifferent"
    WORSE = "strictly-worse"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ResponsiveProfile(Market):
    """Per-agent weak orders over houses and over tenants.

    ``house_classes[i]`` lists agent i's acceptable houses as indifference
    classes, best first, and must mention the agent's own house somewhere;
    ``tenant_classes[i]`` does the same for tenants and must mention the
    agent itself.  Unlisted items are unacceptable: mutually indifferent and
    below everything listed.  A report is a (house classes, tenant classes)
    pair.
    """

    house_classes: ComponentClasses
    tenant_classes: ComponentClasses

    def _check_agents(self, agents) -> None:
        self._check_own(agents, checked_items)

    def _check_own(self, agents, listed=None) -> None:
        """Each agent finds its own house and itself acceptable.  ``listed``
        gives a component's items: checked_items from the constructor, else
        their union, for classes a file reader has checked."""
        n = self.n
        for label, per_agent, required in (("house", self.house_classes, self.endowment),
                                           ("tenant", self.tenant_classes, range(n))):
            if len(per_agent) != n:
                raise ValueError(f"need one {label} order per agent")
            for i in agents:
                items = (listed(i, per_agent[i], n, label) if listed
                         else frozenset().union(*per_agent[i]))
                if required[i] not in items:
                    raise ValueError(f"agent {i} must find its own {label} acceptable")

    @cached_property
    def _house_orders(self) -> tuple[PreferenceOrder, ...]:
        return tuple(map(PreferenceOrder, self.house_classes))

    @cached_property
    def _tenant_orders(self) -> tuple[PreferenceOrder, ...]:
        return tuple(map(PreferenceOrder, self.tenant_classes))

    def house_rank(self, agent: int, house: int) -> int:
        return self._house_orders[agent].rank(house)

    def tenant_rank(self, agent: int, tenant: int) -> int:
        return self._tenant_orders[agent].rank(tenant)

    def prefers(self, agent: int, a: Outcome, b: Outcome) -> bool:
        return rs_compare(self, agent, a, b) is RsOrdering.BETTER

    def with_report(self, agent: int, report) -> ResponsiveProfile:
        """The agent's (house classes, tenant classes) replaced by ``report``.
        Only the report is checked, with the constructor's messages: both
        components' classes, the own house and the agent itself listed."""
        self.checked(agent)
        houses, tenants = report
        return self._with_entries(agent, house_classes=tuple(frozenset(c) for c in houses),
                                  tenant_classes=tuple(frozenset(c) for c in tenants))


def rs_compare(prof: ResponsiveProfile, agent: int, a: Outcome, b: Outcome) -> RsOrdering:
    """Compare two outcomes under the responsive set extension: one outcome
    strictly beats another only when it is weakly better on both the house
    and the tenant component and strictly better on at least one."""
    a, b = prof.checked(agent, a, b)
    hc = prof.house_rank(agent, b.house) - prof.house_rank(agent, a.house)
    tc = prof.tenant_rank(agent, b.tenant) - prof.tenant_rank(agent, a.tenant)
    if hc == 0 and tc == 0:
        return RsOrdering.INDIFFERENT
    if hc >= 0 and tc >= 0:
        return RsOrdering.BETTER
    if hc <= 0 and tc <= 0:
        return RsOrdering.WORSE
    return RsOrdering.INCOMPARABLE


def is_rs_ir(prof: ResponsiveProfile, alloc: Allocation) -> bool:
    """Every agent's outcome weakly dominates its endowment outcome on both
    components."""
    return all(rs_compare(prof, i, outcome_of(prof, alloc, i), Outcome(prof.endowment[i], i))
               in (RsOrdering.BETTER, RsOrdering.INDIFFERENT) for i in range(prof.n))


def is_rs_pareto_optimal(prof: ResponsiveProfile, alloc: Allocation) -> bool:
    """No allocation weakly dominates this one for all agents (both
    components, with one strict somewhere) under the set extension.

    Edge k -> j when k taking j's house weakly improves k's house rank and
    the house owner's tenant rank, strict if either improves strictly.
    Ranks depend only on who takes which house, so the allocation is
    dominated iff a strict edge k -> j has j reaching k along edges.
    """
    n, owner, house = prof.n, prof.owner, alloc.assignment
    house_now = [prof.house_rank(k, house[k]) for k in range(n)]
    tenant_now = [prof.tenant_rank(owner[house[j]], j) for j in range(n)]
    reach = [0] * n  # bit j of reach[k]: k reaches j along edges
    strict = []
    for k in range(n):
        for j in range(n):
            dh = house_now[k] - prof.house_rank(k, house[j])
            dt = tenant_now[j] - prof.tenant_rank(owner[house[j]], k)
            if dh >= 0 and dt >= 0:
                reach[k] |= 1 << j
                if dh or dt:
                    strict.append((k, j))
    for m in range(n):  # Warshall's closure, one bit row per agent
        for k in range(n):
            if reach[k] >> m & 1:
                reach[k] |= reach[m]
    return not any(reach[j] >> k & 1 for k, j in strict)


def is_rs_core_stable(prof: ResponsiveProfile, alloc: Allocation) -> bool:
    """No coalition can reallocate its own endowments so that every member
    strictly improves under the set extension."""
    options: Options = []
    for i in range(prof.n):
        cur = outcome_of(prof, alloc, i)
        steps = [
            (t, prof.owner[h])
            for h in range(prof.n)
            for t in range(prof.n)
            if rs_compare(prof, i, Outcome(h, t), cur) is RsOrdering.BETTER
        ]
        options.append(steps)
    return find_exchange_cycle(options, Budget(DEFAULT_NODE_BUDGET)) is None


def _symmetrized_graph(owner: list[int] | tuple[int, ...],
                       acceptable_houses: list[frozenset[int]] | list[set[int]],
                       acceptable_tenants: list[frozenset[int]] | list[set[int]]
                       ) -> list[list[int]]:
    """Agent-house adjacency: agent i may take house h only if h's owner
    also accepts i as a tenant."""
    return [
        sorted(h for h in acceptable_houses[i] if i in acceptable_tenants[owner[h]])
        for i in range(len(owner))
    ]


def rs_aa(n: int, endowment: tuple[int, ...],
          acceptable_houses: list[frozenset[int]] | list[set[int]] | None = None,
          acceptable_tenants: list[frozenset[int]] | list[set[int]] | None = None, *,
          start: Allocation | None = None,
          adj: list[set[int]] | None = None,
          suspect: int | None = None) -> Allocation | None:
    """An allocation giving every agent an acceptable house and every house
    an acceptable tenant, or None.

    Mutual acceptability is symmetrized first: agent i may take house h only
    if h's owner also accepts i as a tenant.  A perfect matching in the
    resulting agent-house graph is exactly such an allocation.  Given the
    two sets, the graph is built and Hopcroft-Karp runs on it.

    The maintained form takes ``adj``, ``start`` and ``suspect`` instead of
    the sets: ``adj`` is the symmetrized graph as one set of houses per
    agent, kept up to date by the caller, who vouches that every edge of
    ``start`` except perhaps the suspect agent's is in ``adj``.  An intact
    suspect edge returns ``start`` in O(1); a broken one costs one O(V + E)
    search from the suspect.  A repaired allocation is built from the two
    sides of the matching that the search leaves, so it carries its
    ``inverse`` and is not re-checked for a bijection.  Any other mix of
    arguments raises ValueError.
    """
    if adj is None:
        if start is not None or suspect is not None:
            raise ValueError("start and suspect need adj")
        if acceptable_houses is None or acceptable_tenants is None:
            raise ValueError("need the acceptable houses and tenants, or adj")
        graph = _symmetrized_graph(inverse_permutation(endowment),
                                   acceptable_houses, acceptable_tenants)
        size, match = max_bipartite_matching(n, n, graph)
        return Allocation(tuple(match)) if size == n else None
    if start is None or suspect is None:
        raise ValueError("adj needs start and suspect")
    if acceptable_houses is not None or acceptable_tenants is not None:
        raise ValueError("adj replaces the acceptable houses and tenants")
    if start.assignment[suspect] in adj[suspect]:
        return start
    match, taken = list(start.assignment), list(start.inverse)
    taken[match[suspect]] = -1
    match[suspect] = -1
    if not augment(adj, match, taken, suspect):
        return None
    return _unchecked(Allocation, assignment=tuple(match), inverse=tuple(taken))


def acceptable_component_classes(prof: ResponsiveProfile) -> tuple[ComponentClasses, ComponentClasses]:
    """The classes the refinement operates on: each component order truncated
    at the class holding the agent's own house (or itself), since an agent
    is never interested in trading down a component below what it starts
    with.  The class is found by scanning the classes."""
    houses = tuple(_through(prof.house_classes[i], own)
                   for i, own in enumerate(prof.endowment))
    tenants = tuple(_through(prof.tenant_classes[i], i) for i in range(prof.n))
    return houses, tenants


def _through(classes: tuple[frozenset[int], ...], item: int) -> tuple[frozenset[int], ...]:
    """``classes`` up to and including the first class that holds ``item``,
    as one always does: every way to build a profile refuses one whose
    agent does not list its own house and itself."""
    for k, cls in enumerate(classes):
        if item in cls:
            return classes[:k + 1]


@dataclass(frozen=True)
class PraResult:
    """Outcome of the preference-refinement run: the allocation, how many
    feasibility tests (:func:`rs_aa` calls, one per tentative drop) it made,
    and how many classes of each component order survive (counted against
    :func:`acceptable_component_classes`).  Most tests run no matching, and
    the final cold matching is not a test."""

    allocation: Allocation
    rs_aa_calls: int
    house_kept: tuple[int, ...]
    tenant_kept: tuple[int, ...]


# The order policies of pra_rs; the first is its default.
POLICIES = ("round-robin", "reverse", "random")


def _cut(adj: list[set[int]], tenant_drop: bool, agent: int, dropped: frozenset[int],
         own: int) -> list[tuple[int, int]]:
    """Remove from the symmetrized graph, and return, the edges that the
    agent's drop of class ``dropped`` ends: (agent, h) for each dropped house
    h, or, for a tenant drop, (t, own) for each dropped tenant t, ``own``
    being the agent's house."""
    if tenant_drop:
        cut = [(t, own) for t in dropped if own in adj[t]]
    else:
        cut = [(agent, h) for h in dropped if h in adj[agent]]
    for i, h in cut:
        adj[i].remove(h)
    return cut


def pra_rs(prof: ResponsiveProfile, *, order: str = POLICIES[0],
           seed: int | None = None) -> PraResult:
    """Refine dichotomous acceptability sets until no component can shrink.

    Starting from full indifference over the acceptable items of each
    component, repeatedly pick an agent and component (per the order
    policy), tentatively drop the worst remaining indifference class, and
    keep the drop only if an acceptability matching still exists; otherwise
    that component is saturated for good.  The final matching is
    individually rational and Pareto optimal with respect to the responsive
    set extension.

    The symmetrized agent-house graph is built once and is then the only
    record of the sets.  A drop removes the edges it ends, in O(|class|),
    and a failed drop puts them back.  Each feasibility test is the
    maintained form of :func:`rs_aa` on that graph, warm-started from the
    current allocation, which starts as the endowment.  A drop breaks at
    most one edge of the allocation: the agent's own for a house drop, the
    one into its house for a tenant drop.  So a test looks at that edge
    alone, in O(1), and when it broke runs one alternating-path search from
    the freed agent, which by Berge's theorem decides feasibility; the
    repaired allocation keeps the search's inverse, so the next tenant drop
    finds its suspect, the tenant of the agent's house, in O(1).  Failed
    drops are reverted, so the final sets are those of the last successful
    test; one cold Hopcroft-Karp run on them fixes the returned allocation,
    which therefore does not depend on the warm starts taken on the way.
    When no drop succeeds, everyone stays put.
    """
    if order not in POLICIES:
        raise ValueError(f"unknown order policy {order!r}; choose from {POLICIES}")
    n, endowment = prof.n, prof.endowment
    house_classes, tenant_classes = acceptable_component_classes(prof)
    # Pair 2i is agent i's house component, pair 2i + 1 its tenant component.
    classes = [c for i in range(n) for c in (house_classes[i], tenant_classes[i])]
    kept = list(map(len, classes))
    adj = [set(row) for row in _symmetrized_graph(
        prof.owner, [frozenset().union(*c) for c in house_classes],
        [frozenset().union(*c) for c in tenant_classes])]

    live = list(range(2 * n))  # the unsaturated pairs, in policy order
    if order == "reverse":
        live.reverse()
    rng = SplitMix64(seed if seed is not None else 0)

    # Staying put is always feasible at the start: every agent accepts its
    # own house and itself as tenant.
    allocation = Allocation(endowment)

    refined = False
    calls = 0
    cursor = 0
    while live:
        if order == "random":
            pair = rng.choice(live)
        else:
            cursor %= len(live)
            pair = live[cursor]
        agent, tenant_drop = divmod(pair, 2)
        remaining = kept[pair]
        dropped = classes[pair][remaining - 1]
        own = endowment[agent]
        cut = _cut(adj, tenant_drop, agent, dropped, own)
        calls += 1
        result = rs_aa(n, endowment, start=allocation, adj=adj,
                       suspect=allocation.inverse[own] if tenant_drop else agent)
        if result is None:
            for i, h in cut:
                adj[i].add(h)
            live.remove(pair)  # the round-robin cursor now points at its successor
        else:
            kept[pair] = remaining - 1
            allocation = result
            refined = True
            cursor += 1
    if refined:
        # This run only pins which allocation is printed: every perfect
        # matching of the final sets is RS-IR and RS-Pareto optimal (tested
        # in both directions in test_responsive), so the warm allocation
        # already is one.  It stays so that output does not depend on the
        # warm starts.  Called directly, not through rs_aa: this is no
        # feasibility test, and rs_aa_calls counts every rs_aa call.
        _, match = max_bipartite_matching(n, n, [sorted(row) for row in adj])
        allocation = Allocation(tuple(match))
    return PraResult(
        allocation=allocation,
        rs_aa_calls=calls,
        house_kept=tuple(kept[0::2]),
        tenant_kept=tuple(kept[1::2]),
    )
