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
from dataclasses import dataclass, replace
from functools import cached_property

# all_allocations is unused here but stays a module attribute: perfbench/tracer.py wraps it.
from .axioms import DEFAULT_MAX_N, DEFAULT_NODE_BUDGET, all_allocations  # noqa: F401
from .cycles import Budget, Options, find_exchange_cycle
from .matching import augment, max_bipartite_matching
from .model import Allocation, Market, Outcome, inverse_permutation, outcome_of
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

    def __post_init__(self):
        super().__post_init__()
        n = self.n
        for label, per_agent, required in (
            ("house", self.house_classes, lambda i: self.endowment[i]),
            ("tenant", self.tenant_classes, lambda i: i),
        ):
            if len(per_agent) != n:
                raise ValueError(f"need one {label} order per agent")
            for i, classes in enumerate(per_agent):
                seen: set[int] = set()
                for cls in classes:
                    if not cls:
                        raise ValueError(f"agent {i} has an empty {label} class")
                    for item in cls:
                        if not 0 <= item < n:
                            raise ValueError(f"agent {i} lists out-of-range {label} {item}")
                        if item in seen:
                            raise ValueError(f"agent {i} lists {label} {item} twice")
                        seen.add(item)
                if required(i) not in seen:
                    raise ValueError(f"agent {i} must find its own {label} acceptable")

    @cached_property
    def _house_ranks(self) -> tuple[dict[int, int], ...]:
        return tuple(
            {h: rank for rank, cls in enumerate(classes) for h in cls}
            for classes in self.house_classes
        )

    @cached_property
    def _tenant_ranks(self) -> tuple[dict[int, int], ...]:
        return tuple(
            {t: rank for rank, cls in enumerate(classes) for t in cls}
            for classes in self.tenant_classes
        )

    def house_rank(self, agent: int, house: int) -> int:
        return self._house_ranks[agent].get(house, len(self.house_classes[agent]))

    def tenant_rank(self, agent: int, tenant: int) -> int:
        return self._tenant_ranks[agent].get(tenant, len(self.tenant_classes[agent]))

    def acceptable_houses(self, agent: int) -> frozenset[int]:
        return frozenset(h for cls in self.house_classes[agent] for h in cls)

    def acceptable_tenants(self, agent: int) -> frozenset[int]:
        return frozenset(t for cls in self.tenant_classes[agent] for t in cls)

    def prefers(self, agent: int, a: Outcome, b: Outcome) -> bool:
        return rs_compare(self, agent, a, b) is RsOrdering.BETTER

    def with_report(self, agent: int, report) -> ResponsiveProfile:
        houses, tenants = report
        hc, tc = list(self.house_classes), list(self.tenant_classes)
        hc[agent] = tuple(frozenset(c) for c in houses)
        tc[agent] = tuple(frozenset(c) for c in tenants)
        return replace(self, house_classes=tuple(hc), tenant_classes=tuple(tc))


def rs_compare(prof: ResponsiveProfile, agent: int, a: Outcome, b: Outcome) -> RsOrdering:
    """Compare two outcomes under the responsive set extension: one outcome
    strictly beats another only when it is weakly better on both the house
    and the tenant component and strictly better on at least one."""
    a, b = Outcome(*a), Outcome(*b)
    for o in (a, b):
        if not (0 <= o.house < prof.n and 0 <= o.tenant < prof.n):
            raise ValueError(f"outcome {o.text()} out of range")
    hc = prof.house_rank(agent, b.house) - prof.house_rank(agent, a.house)
    tc = prof.tenant_rank(agent, b.tenant) - prof.tenant_rank(agent, a.tenant)
    if hc == 0 and tc == 0:
        return RsOrdering.INDIFFERENT
    if hc >= 0 and tc >= 0:
        return RsOrdering.BETTER
    if hc <= 0 and tc <= 0:
        return RsOrdering.WORSE
    return RsOrdering.INCOMPARABLE


def _weakly_better(prof: ResponsiveProfile, agent: int, a: Outcome, b: Outcome) -> bool:
    return rs_compare(prof, agent, a, b) in (RsOrdering.BETTER, RsOrdering.INDIFFERENT)


def is_rs_ir(prof: ResponsiveProfile, alloc: Allocation) -> bool:
    """Every agent's outcome weakly dominates its endowment outcome on both
    components."""
    return all(
        _weakly_better(prof, i, outcome_of(prof, alloc, i), Outcome(prof.endowment[i], i))
        for i in range(prof.n)
    )


def is_rs_pareto_optimal(prof: ResponsiveProfile, alloc: Allocation, *,
                         max_n: int = DEFAULT_MAX_N) -> bool:
    """No allocation weakly dominates this one for all agents (both
    components, with one strict somewhere) under the set extension.

    Edge k -> j when k taking j's house weakly improves k's house rank and
    the house owner's tenant rank, strict if either improves strictly.
    Ranks depend only on who takes which house, so the allocation is
    dominated iff a strict edge k -> j has j reaching k along edges.
    ``max_n`` is accepted for callers and bounds nothing.
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


def is_rs_core_stable(prof: ResponsiveProfile, alloc: Allocation, *,
                      node_budget: int | None = DEFAULT_NODE_BUDGET) -> bool:
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
    return find_exchange_cycle(options, Budget(node_budget)) is None


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
          acceptable_houses: list[frozenset[int]] | list[set[int]],
          acceptable_tenants: list[frozenset[int]] | list[set[int]], *,
          start: Allocation | None = None,
          adj: list[set[int]] | None = None) -> Allocation | None:
    """An allocation giving every agent an acceptable house and every house
    an acceptable tenant, or None.

    Mutual acceptability is symmetrized first: agent i may take house h only
    if h's owner also accepts i as a tenant.  A perfect matching in the
    resulting agent-house graph is exactly such an allocation.

    ``start`` is an allocation to reuse, typically one feasible for larger
    sets.  If every one of its agent-house edges is still in the
    symmetrized graph, ``start`` itself is returned; otherwise the edges
    that survive are repaired with one augmenting-path search per agent
    they leave unmatched, and no Hopcroft-Karp phases.  Whether an
    allocation exists does not depend on ``start``, but which one is
    returned may.

    ``adj``, which needs ``start``, is the symmetrized graph as one set of
    houses per agent, kept up to date by the caller, so nothing is built
    and the sets are not read: an intact ``start`` costs O(n), and each
    broken edge one O(E) search.
    """
    if adj is None:
        graph = _symmetrized_graph(inverse_permutation(endowment),
                                   acceptable_houses, acceptable_tenants)
        if start is None:
            size, match = max_bipartite_matching(n, n, graph)
            return Allocation(tuple(match)) if size == n else None
        adj = [set(row) for row in graph]
    if all(map(set.__contains__, adj, start.assignment)):
        return start
    match = [h if h in row else -1 for h, row in zip(start.assignment, adj)]
    taken = [-1] * n
    for i, h in enumerate(match):
        if h != -1:
            taken[h] = i
    free = [i for i in range(n) if match[i] == -1]
    return Allocation(tuple(match)) if all(augment(adj, match, taken, i) for i in free) else None


def acceptable_component_classes(prof: ResponsiveProfile) -> tuple[ComponentClasses, ComponentClasses]:
    """The classes the refinement operates on: each component order truncated
    at the class holding the agent's own house (or itself), since an agent
    is never interested in trading down a component below what it starts
    with."""
    houses = []
    tenants = []
    for i in range(prof.n):
        own = prof.house_rank(i, prof.endowment[i])
        houses.append(prof.house_classes[i][:own + 1])
        self_rank = prof.tenant_rank(i, i)
        tenants.append(prof.tenant_classes[i][:self_rank + 1])
    return tuple(houses), tuple(tenants)


@dataclass(frozen=True)
class PraResult:
    """Outcome of the preference-refinement run: the allocation, how many
    matching calls it used, and how many classes of each component order
    survive (counted against :func:`acceptable_component_classes`)."""

    allocation: Allocation
    rs_aa_calls: int
    house_kept: tuple[int, ...]
    tenant_kept: tuple[int, ...]


_POLICIES = ("round-robin", "reverse", "random")


def _cut(adj: list[set[int]], comp: str, agent: int, dropped: frozenset[int],
         own: int) -> list[tuple[int, int]]:
    """Remove from the symmetrized graph, and return, the edges that the
    agent's drop of class ``dropped`` ends: (agent, h) for each dropped house
    h, or (t, own) for each dropped tenant t, ``own`` being the agent's
    house."""
    if comp == "H":
        cut = [(agent, h) for h in dropped if h in adj[agent]]
    else:
        cut = [(t, own) for t in dropped if own in adj[t]]
    for i, h in cut:
        adj[i].remove(h)
    return cut


def pra_rs(prof: ResponsiveProfile, *, order: str = "round-robin",
           seed: int | None = None) -> PraResult:
    """Refine dichotomous acceptability sets until no component can shrink.

    Starting from full indifference over the acceptable items of each
    component, repeatedly pick an agent and component (per the order
    policy), tentatively drop the worst remaining indifference class, and
    keep the drop only if an acceptability matching still exists; otherwise
    that component is saturated for good.  The final matching is
    individually rational and Pareto optimal with respect to the responsive
    set extension.

    The symmetrized agent-house graph is built once.  A drop removes the
    edges it ends, in O(|class|), and a failed drop puts them back.  Each
    feasibility test is :func:`rs_aa` on that graph, warm-started from the
    current allocation.  A drop breaks at most one edge of the allocation:
    the agent's own for a house drop, the one into its house for a tenant
    drop.  So a test costs an O(n) check, plus, when that edge broke, one
    alternating-path search from the freed agent, which by Berge's theorem
    decides feasibility.  Failed drops are reverted, so the final sets are
    those of the last successful test; one cold Hopcroft-Karp run on them
    fixes the returned allocation, which therefore does not depend on the
    warm starts taken on the way.  When no drop succeeds, everyone stays
    put.
    """
    if order not in _POLICIES:
        raise ValueError(f"unknown order policy {order!r}; choose from {_POLICIES}")
    n = prof.n
    house_classes, tenant_classes = acceptable_component_classes(prof)
    kept = {("H", i): len(house_classes[i]) for i in range(n)}
    kept.update({("N", i): len(tenant_classes[i]) for i in range(n)})
    sets_h = [set().union(*house_classes[i]) for i in range(n)]
    sets_t = [set().union(*tenant_classes[i]) for i in range(n)]
    adj = [set(row) for row in _symmetrized_graph(prof.owner, sets_h, sets_t)]

    pairs = [(comp, i) for i in range(n) for comp in ("H", "N")]
    if order == "reverse":
        pairs = list(reversed(pairs))
    rng = SplitMix64(seed if seed is not None else 0)

    # Staying put is always feasible at the start: every agent accepts its
    # own house and itself as tenant.
    allocation = Allocation(tuple(range(n)))

    saturated: set[tuple[str, int]] = set()
    refined = False
    calls = 0
    cursor = 0
    while len(saturated) < 2 * n:
        if order == "random":
            pair = rng.choice([p for p in pairs if p not in saturated])
        else:
            while pairs[cursor % len(pairs)] in saturated:
                cursor += 1
            pair = pairs[cursor % len(pairs)]
            cursor += 1
        comp, agent = pair
        classes = house_classes[agent] if comp == "H" else tenant_classes[agent]
        remaining = kept[pair]
        dropped = classes[remaining - 1]
        cut = _cut(adj, comp, agent, dropped, prof.endowment[agent])
        target = sets_h if comp == "H" else sets_t
        target[agent] -= dropped
        calls += 1
        result = rs_aa(n, prof.endowment, sets_h, sets_t, start=allocation, adj=adj)
        if result is None:
            target[agent] |= dropped
            for i, h in cut:
                adj[i].add(h)
            saturated.add(pair)
        else:
            kept[pair] = remaining - 1
            allocation = result
            refined = True
    if refined:
        # Called directly, not through rs_aa: this is no feasibility test,
        # and rs_aa_calls counts every rs_aa call.
        _, match = max_bipartite_matching(n, n, [sorted(row) for row in adj])
        allocation = Allocation(tuple(match))
    return PraResult(
        allocation=allocation,
        rs_aa_calls=calls,
        house_kept=tuple(kept[("H", i)] for i in range(n)),
        tenant_kept=tuple(kept[("N", i)] for i in range(n)),
    )
