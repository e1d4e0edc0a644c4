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

The same weak order, :class:`PreferenceOrder`, also ranks the house and
tenant components of responsive profiles and the orders of predominant
ones.  Each class list is validated once: a file line by its reader in
:mod:`tep.files`, which hands the checked classes over through
:meth:`Market._from_reader`, and a library input (a constructor argument,
:func:`make_instance`, a report to ``with_report``) by :func:`checked_items`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import BudgetExceededError

# The most agents a rank table is built for, a memory bound: the n³ table
# that the permutation search reads already takes about 230 MB at n = 300.
MAX_N_CEILING = 300


class Outcome(NamedTuple):
    house: int
    tenant: int

    def text(self) -> str:
        return f"({self.house},{self.tenant})"


PrefClasses = tuple[frozenset[Outcome], ...]


@dataclass(frozen=True)
class PreferenceOrder:
    """One weak order as a rank lookup: over one agent's outcomes, or over
    the houses, tenants or tie-break items of a component order.

    ``classes`` lists indifference classes best first.  Rank 0 is the best
    class; unlisted items all share the sentinel rank ``len(classes)``, i.e.
    they are mutually indifferent and strictly worse than every listed item.
    """

    classes: tuple[frozenset, ...]

    @cached_property
    def ranks(self) -> dict:
        """Each listed item's rank; unlisted items are absent.  Outcomes are
        keyed as (house, tenant) tuples, so a plain tuple looks one up."""
        return {x: rank for rank, cls in enumerate(self.classes) for x in cls}

    @cached_property
    def _listing(self) -> tuple[tuple, list[int]]:
        """The listed items best class first, sorted within a class, and
        per rank r the number of items ranked r or better."""
        items: list = []
        ends = []
        for cls in self.classes:
            items.extend(sorted(cls))
            ends.append(len(items))
        return tuple(items), ends

    @property
    def unacceptable_rank(self) -> int:
        return len(self.classes)

    def rank(self, item) -> int:
        return self.ranks.get(item, len(self.classes))

    def compare(self, a, b) -> int:
        """+1 if ``a`` is strictly preferred, -1 if ``b`` is, 0 on a tie."""
        ra, rb = self.rank(a), self.rank(b)
        return (rb > ra) - (ra > rb)

    def listed(self, limit: int | None = None) -> tuple:
        """The listed items of rank at most ``limit`` (all by default), best
        class first, sorted within a class."""
        items, ends = self._listing
        if limit is None or limit >= len(ends) - 1:
            return items
        return items[:ends[limit]] if limit >= 0 else ()


def checked_items(agent: int, classes, n: int, item: str = "outcome") -> frozenset:
    """The items an agent's best-first classes list.  A ValueError names the
    first empty class, out-of-range item or repeated item.  ``item`` is
    ``"outcome"`` for (house, tenant) pairs, else what the integer items
    are (``"house"``, ``"tenant"``).  This checks library inputs; the file
    readers of :mod:`tep.files` refuse the same faults in a line themselves,
    and their markets skip it (:meth:`Market._from_reader`)."""
    pairs = item == "outcome"
    listed = frozenset().union(*classes)
    values = frozenset().union(*listed) if pairs else listed
    if (all(classes) and len(listed) == sum(map(len, classes)) and values
            and min(values) >= 0 and max(values) < n):
        return listed
    seen: set = set()
    for cls in classes:
        if not cls:
            raise ValueError(f"agent {agent} has an empty "
                             f"{'indifference' if pairs else item} class")
        for x in cls:
            name = f"{item} {x.text() if pairs else x}"
            if not all(0 <= v < n for v in (x if pairs else (x,))):
                raise ValueError(f"agent {agent} lists out-of-range {name}")
            if x in seen:
                raise ValueError(f"agent {agent} lists {name} twice")
            seen.add(x)
    return listed


def inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    """inverse[x] is the index at which ``perm`` holds x."""
    inverse = [0] * len(perm)
    for index, x in enumerate(perm):
        inverse[x] = index
    return tuple(inverse)


@dataclass(frozen=True)
class Market:
    """What every kind of market shares: ``n`` agents, agent i endowed with
    house ``endowment[i]``.

    Subclasses add preferences and implement :meth:`prefers` (strict
    preference between two outcomes), :meth:`with_report` (the market with
    one agent's preferences replaced by a report) and :meth:`_check_agents`
    (the constructor's per-agent validation, which ``with_report`` runs on
    the reporting agent alone).
    """

    n: int
    endowment: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.endowment) != n or sorted(self.endowment) != list(range(n)):
            raise ValueError("endowment must be a bijection onto house indices")
        self._check_agents(range(n))

    def _check_agents(self, agents) -> None:
        """Validate the preferences of the given agents; raises ValueError."""

    def _check_own(self, agents) -> None:
        """What of :meth:`_check_agents` a file reader leaves to the model:
        that each agent lists what it must.  Nothing for instances, whose
        reader appends a missing endowment outcome."""

    @classmethod
    def _from_reader(cls, *values) -> Market:
        """The market of ``values``, its fields in constructor order, from a
        file reader that has refused a non-bijective endowment and every
        empty, out-of-range or repeated class item.  As in
        :meth:`_with_entries`, only :meth:`_check_own` of the checks runs."""
        new = object.__new__(cls)
        new.__dict__.update(zip((f.name for f in fields(cls)), values))
        new._check_own(range(new.n))
        return new

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """owner[h] is the agent endowed with house h."""
        return inverse_permutation(self.endowment)

    def is_canonical(self) -> bool:
        return all(self.endowment[i] == i for i in range(self.n))

    def checked(self, agent: int, *outcomes) -> tuple[Outcome, ...]:
        """The ``outcomes`` as :class:`Outcome` values, once ``agent`` and
        every house and tenant they name are known to exist here; raises
        ValueError otherwise."""
        n = self.n
        if not 0 <= agent < n:
            raise ValueError(f"no agent {agent}")
        outcomes = tuple(Outcome(*o) for o in outcomes)
        for o in outcomes:
            if not (0 <= o.house < n and 0 <= o.tenant < n):
                raise ValueError(f"outcome {o.text()} out of range for {n} agents")
        return outcomes

    def prefers(self, agent: int, a: Outcome, b: Outcome) -> bool:
        """Whether the agent strictly prefers outcome ``a`` to ``b``."""
        raise NotImplementedError

    def with_report(self, agent: int, report) -> Market:
        """This market with the agent's preferences replaced by ``report``."""
        raise NotImplementedError

    def _with_entries(self, agent: int, **entries) -> Market:
        """This market with the agent's entry of each named per-agent field
        replaced.  Only the agent's new preferences are checked (by
        :meth:`_check_agents`, with the constructor's messages): the others
        were checked when this market was built, and markets are frozen.
        Of the cached values only ``owner`` carries over."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in entries.items():
            row = list(state[name])
            row[agent] = value
            state[name] = tuple(row)
        if "owner" in self.__dict__:
            state["owner"] = self.owner
        new = object.__new__(type(self))
        new.__dict__.update(state)
        new._check_agents((agent,))
        return new


@dataclass(frozen=True)
class Instance(Market):
    """A temporary exchange market.

    ``prefs[i]`` holds agent i's indifference classes best to worst.  The
    constructor validates the endowment bijection, index ranges, that no
    outcome repeats across one agent's classes, and that the endowment
    outcome appears exactly once.  Use :func:`make_instance` to build one
    from unnormalized inputs.
    """

    prefs: tuple[PrefClasses, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        super().__post_init__()

    def _check_agents(self, agents) -> None:
        n = self.n
        if len(self.prefs) != n:
            raise ValueError("need one preference list per agent")
        for i in agents:
            if self.endowment_outcome(i) not in checked_items(i, self.prefs[i], n):
                raise ValueError(f"agent {i} does not list its endowment outcome")

    @cached_property
    def orders(self) -> tuple[PreferenceOrder, ...]:
        return tuple(PreferenceOrder(classes) for classes in self.prefs)

    @cached_property
    def rank_table(self) -> tuple[tuple[int, ...], ...]:
        """rank_table[i][h * n + t] is agent i's rank of outcome (h, t);
        unlisted outcomes hold the sentinel rank ``len(prefs[i])``.  Above
        ``MAX_N_CEILING`` agents, BudgetExceededError before any row."""
        if self.n > MAX_N_CEILING:
            raise BudgetExceededError(f"permutation search needs n <= {MAX_N_CEILING}, "
                                      f"got n = {self.n}")
        return tuple(_rank_row(classes, self.n) for classes in self.prefs)

    def endowment_outcome(self, agent: int) -> Outcome:
        return Outcome(self.endowment[agent], agent)

    def endowment_rank(self, agent: int) -> int:
        return self.orders[agent].rank(self.endowment_outcome(agent))

    def rank(self, agent: int, outcome: Outcome) -> int:
        return self.orders[agent].rank(outcome)

    def listed_outcomes(self, agent: int, limit: int | None = None) -> tuple[Outcome, ...]:
        """The agent's listed outcomes of rank at most ``limit`` (all by
        default), best class first, sorted within a class."""
        return self.orders[agent].listed(limit)

    def prefers(self, agent: int, a: Outcome, b: Outcome) -> bool:
        return compare(self, agent, a, b) > 0

    def with_report(self, agent: int, report) -> Instance:
        """Agent's preference classes replaced by ``report`` (the endowment
        outcome is appended when the report omits it).

        Only the report is normalized and checked, with the messages the
        constructor gives (``checked_items``); the other agents keep their
        class tuples and, once this instance's :attr:`rank_table` is built,
        their rank rows, so the new instance builds only the reporting
        agent's row.
        """
        self.checked(agent)
        classes = _normalized_classes(report, self.endowment_outcome(agent))
        new = self._with_entries(agent, prefs=classes)
        if "rank_table" in self.__dict__:
            rows = list(self.rank_table)
            rows[agent] = _rank_row(classes, self.n)
            new.__dict__["rank_table"] = tuple(rows)
        return new


@dataclass(frozen=True)
class Allocation:
    """A bijection from agents to houses; ``assignment[i]`` is agent i's house."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise ValueError("assignment must be a bijection onto house indices")

    def __getitem__(self, agent: int) -> int:
        return self.assignment[agent]

    def text(self) -> str:
        return " ".join(str(h) for h in self.assignment)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[h] is the agent receiving house h."""
        return inverse_permutation(self.assignment)

    @classmethod
    def _with_inverse(cls, assignment: list[int], inverse: list[int]) -> Allocation:
        """The allocation of a perfect matching given by both of its sides,
        unchecked: the caller vouches that ``inverse`` inverts
        ``assignment``, as the two sides of a matching do.  Neither the
        bijection check nor the inverse is recomputed."""
        new = object.__new__(cls)
        new.__dict__.update(assignment=tuple(assignment), inverse=tuple(inverse))
        return new


def compare(inst: Instance, agent: int, a: Outcome, b: Outcome) -> int:
    """Compare outcomes for one agent: +1 if a is strictly preferred to b,
    -1 for the reverse, 0 if the agent is indifferent.

    Two unlisted outcomes compare as indifferent; an unlisted outcome loses
    to every listed one.
    """
    a, b = inst.checked(agent, a, b)
    return inst.orders[agent].compare(a, b)


def outcome_of(market: Market, alloc: Allocation, agent: int) -> Outcome:
    """The (house received, tenant of own house) pair for one agent."""
    return Outcome(alloc[agent], alloc.inverse[market.endowment[agent]])


def _normalized_classes(classes: Iterable[Iterable], own: Outcome) -> PrefClasses:
    """The non-empty classes as sets of Outcomes (Outcomes are not rebuilt),
    with ``own`` appended as a final singleton class when none lists it."""
    classes = list(map(tuple, classes))
    if not set(map(type, chain.from_iterable(classes))) <= {Outcome}:
        classes = [[Outcome(*o) for o in cls] for cls in classes]
    frozen = list(filter(None, map(frozenset, classes)))
    if own not in frozenset().union(*frozen):
        frozen.append(frozenset([own]))
    return tuple(frozen)


def _rank_row(classes: PrefClasses, n: int) -> tuple[int, ...]:
    """One agent's row of :attr:`Instance.rank_table`."""
    row = [len(classes)] * (n * n)
    for rank, cls in enumerate(classes):
        for o in cls:
            row[o.house * n + o.tenant] = rank
    return tuple(row)


def make_instance(n: int, prefs: Iterable[Iterable[Iterable[Outcome]]],
                  endowment: Iterable[int] | None = None) -> Instance:
    """Build a validated :class:`Instance` from plain nested iterables.

    Appends the endowment outcome as a final singleton class for any agent
    whose listing omits it.
    """
    endow = tuple(endowment) if endowment is not None else tuple(range(n))
    normalized = tuple(_normalized_classes(classes, Outcome(endow[i] if i < len(endow) else i, i))
                       for i, classes in enumerate(prefs))
    return Instance(n=n, endowment=endow, prefs=normalized)


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
