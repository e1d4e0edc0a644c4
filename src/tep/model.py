"""Core data model for temporary exchange markets.

A market has ``n`` agents and ``n`` houses; agent ``i`` starts out owning
house ``endowment[i]``.  Under an allocation each agent experiences an
:class:`Outcome`: the pair (house received, tenant who moved into the
agent's own house).  Preferences are weak orders over outcomes, stored as
indifference classes from best to worst.

Outcomes an agent does not list are treated as a single shared indifference
class strictly below everything listed, which makes every comparison total.
The agent's endowment outcome ``(endowment[i], i)`` is always listed (it is
appended as a final singleton class when a constructor input omits it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple


class Outcome(NamedTuple):
    house: int
    tenant: int

    def text(self) -> str:
        return f"({self.house},{self.tenant})"


PrefClasses = tuple[frozenset[Outcome], ...]


@dataclass(frozen=True)
class PreferenceOrder:
    """One agent's weak order as a rank lookup.

    Rank 0 is the best class; unlisted outcomes all share the sentinel rank
    ``len(classes)``, i.e. they are mutually indifferent and strictly worse
    than every listed outcome.
    """

    classes: PrefClasses

    @cached_property
    def _ranks(self) -> dict[Outcome, int]:
        table: dict[Outcome, int] = {}
        for rank, cls in enumerate(self.classes):
            for outcome in cls:
                table[outcome] = rank
        return table

    @property
    def unacceptable_rank(self) -> int:
        return len(self.classes)

    def rank(self, outcome: Outcome) -> int:
        return self._ranks.get(outcome, len(self.classes))

    def compare(self, a: Outcome, b: Outcome) -> int:
        """+1 if ``a`` is strictly preferred, -1 if ``b`` is, 0 on a tie."""
        ra, rb = self.rank(a), self.rank(b)
        return (rb > ra) - (ra > rb)


@dataclass(frozen=True)
class Instance:
    """A temporary exchange market.

    ``prefs[i]`` holds agent i's indifference classes best to worst.  The
    constructor validates the endowment bijection, index ranges, that no
    outcome repeats across one agent's classes, and that the endowment
    outcome appears exactly once.  Use :func:`make_instance` to build one
    from unnormalized inputs.
    """

    n: int
    endowment: tuple[int, ...]
    prefs: tuple[PrefClasses, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("need at least one agent")
        if len(self.endowment) != n or sorted(self.endowment) != list(range(n)):
            raise ValueError("endowment must be a bijection onto house indices")
        if len(self.prefs) != n:
            raise ValueError("need one preference list per agent")
        for i, classes in enumerate(self.prefs):
            seen: set[Outcome] = set()
            for cls in classes:
                if not cls:
                    raise ValueError(f"agent {i} has an empty indifference class")
                for o in cls:
                    if not (0 <= o.house < n and 0 <= o.tenant < n):
                        raise ValueError(f"agent {i} lists out-of-range outcome {o.text()}")
                    if o in seen:
                        raise ValueError(f"agent {i} lists outcome {o.text()} twice")
                    seen.add(o)
            if self.endowment_outcome(i) not in seen:
                raise ValueError(f"agent {i} does not list its endowment outcome")

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """owner[h] is the agent endowed with house h."""
        inverse = [0] * self.n
        for agent, house in enumerate(self.endowment):
            inverse[house] = agent
        return tuple(inverse)

    @cached_property
    def orders(self) -> tuple[PreferenceOrder, ...]:
        return tuple(PreferenceOrder(classes) for classes in self.prefs)

    @cached_property
    def rank_table(self) -> tuple[tuple[int, ...], ...]:
        """rank_table[i][h * n + t] is agent i's rank of outcome (h, t);
        unlisted outcomes hold the sentinel rank ``len(prefs[i])``."""
        n = self.n
        rows = []
        for classes in self.prefs:
            row = [len(classes)] * (n * n)
            for rank, cls in enumerate(classes):
                for o in cls:
                    row[o.house * n + o.tenant] = rank
            rows.append(tuple(row))
        return tuple(rows)

    def preference(self, agent: int) -> PreferenceOrder:
        return self.orders[agent]

    def endowment_outcome(self, agent: int) -> Outcome:
        return Outcome(self.endowment[agent], agent)

    def endowment_rank(self, agent: int) -> int:
        return self.orders[agent].rank(self.endowment_outcome(agent))

    def rank(self, agent: int, outcome: Outcome) -> int:
        return self.orders[agent].rank(outcome)

    def listed_outcomes(self, agent: int) -> tuple[Outcome, ...]:
        """The agent's listed outcomes, best class first, sorted within a class."""
        out: list[Outcome] = []
        for cls in self.prefs[agent]:
            out.extend(sorted(cls))
        return tuple(out)

    def is_canonical(self) -> bool:
        return all(self.endowment[i] == i for i in range(self.n))


@dataclass(frozen=True)
class Allocation:
    """A bijection from agents to houses; ``assignment[i]`` is agent i's house."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise ValueError("assignment must be a bijection onto house indices")

    def __getitem__(self, agent: int) -> int:
        return self.assignment[agent]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[h] is the agent receiving house h."""
        inv = [0] * len(self.assignment)
        for agent, house in enumerate(self.assignment):
            inv[house] = agent
        return tuple(inv)


def identity_allocation(n: int) -> Allocation:
    return Allocation(tuple(range(n)))


def _check_outcome(n: int, o: Outcome) -> None:
    if not (0 <= o.house < n and 0 <= o.tenant < n):
        raise ValueError(f"outcome {o.text()} out of range for {n} agents")


def compare(inst: Instance, agent: int, a: Outcome, b: Outcome) -> int:
    """Compare outcomes for one agent: +1 if a is strictly preferred to b,
    -1 for the reverse, 0 if the agent is indifferent.

    Two unlisted outcomes compare as indifferent; an unlisted outcome loses
    to every listed one.
    """
    if not 0 <= agent < inst.n:
        raise ValueError(f"no agent {agent}")
    a, b = Outcome(*a), Outcome(*b)
    _check_outcome(inst.n, a)
    _check_outcome(inst.n, b)
    return inst.orders[agent].compare(a, b)


def outcome_of(inst: Instance, alloc: Allocation, agent: int) -> Outcome:
    """The (house received, tenant of own house) pair for one agent."""
    return Outcome(alloc[agent], alloc.inverse[inst.endowment[agent]])


def make_instance(n: int, prefs: Iterable[Iterable[Iterable[Outcome]]],
                  endowment: Iterable[int] | None = None) -> Instance:
    """Build a validated :class:`Instance` from plain nested iterables.

    Appends the endowment outcome as a final singleton class for any agent
    whose listing omits it.
    """
    endow = tuple(endowment) if endowment is not None else tuple(range(n))
    normalized: list[PrefClasses] = []
    for i, classes in enumerate(prefs):
        frozen = [frozenset(Outcome(*o) for o in cls) for cls in classes]
        frozen = [cls for cls in frozen if cls]
        own = Outcome(endow[i] if i < len(endow) else i, i)
        if not any(own in cls for cls in frozen):
            frozen.append(frozenset([own]))
        normalized.append(tuple(frozen))
    return Instance(n=n, endowment=endow, prefs=tuple(normalized))


def canonicalize_endowment(inst: Instance) -> Instance:
    """Relabel houses so that every agent owns the house with its own index.

    Preference outcomes are rewritten through the same label map, which
    preserves all comparisons.  Canonical instances are returned unchanged,
    so the operation is idempotent.
    """
    if inst.is_canonical():
        return inst
    relabel = inst.owner  # house h becomes house owner[h]
    prefs = tuple(
        tuple(frozenset(Outcome(relabel[o.house], o.tenant) for o in cls) for cls in classes)
        for classes in inst.prefs
    )
    return Instance(n=inst.n, endowment=tuple(range(inst.n)), prefs=prefs)
