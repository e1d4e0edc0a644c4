"""Named instances, hardness gadgets, and seeded random families.

The two gadget families reduce exact cover by 3-sets to allocation
questions: one makes core existence track the cover question, the other
makes "everyone gets a top outcome" track it.  Both rely on a 5-agent ring
whose core is empty on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Outcome, make_instance
from .predominant import PredominantProfile
from .responsive import ResponsiveProfile
from .rng import SplitMix64


def _ring(base: int) -> list[list[set[Outcome]]]:
    """The preferences of five agents base, ..., base + 4 on a ring: each
    wants to swap with its successor, then its predecessor, then stay put."""
    prefs = []
    for r in range(5):
        i, nxt, prv = base + r, base + (r + 1) % 5, base + (r - 1) % 5
        prefs.append([{Outcome(nxt, nxt)}, {Outcome(prv, prv)}, {Outcome(i, i)}])
    return prefs


def empty_core_instance() -> Instance:
    """Five agents on a ring.  Every individually rational allocation is a
    set of disjoint adjacent swaps, and with five agents someone is always
    left out and forms a blocking pair, so no core-stable allocation exists.
    """
    return make_instance(5, _ring(0))


def sp_instance() -> Instance:
    """The 4-agent market with strict preferences used by the impossibility
    case analyses: exactly two allocations are both individually rational
    and Pareto optimal, and every mechanism choice opens a profitable
    misreport."""
    prefs = {
        0: [(1, 3), (1, 1), (3, 3), (3, 1), (0, 0)],
        1: [(2, 2), (2, 0), (0, 2), (0, 0), (1, 1)],
        2: [(3, 1), (3, 3), (1, 1), (1, 3), (2, 2)],
        3: [(0, 2), (0, 0), (2, 2), (2, 0), (3, 3)],
    }
    return make_instance(4, [[[Outcome(*o)] for o in prefs[i]] for i in range(4)])


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets input: a ground set of size 3m and a collection
    of 3-element subsets in which every ground element appears exactly three
    times (the collection may repeat a triple)."""

    m: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        size = 3 * self.m
        if self.m < 1:
            raise ValueError("need m >= 1")
        counts = [0] * size
        for tr in self.triples:
            if len(tr) != 3 or len(set(tr)) != 3:
                raise ValueError(f"not a 3-element set: {tr}")
            if tuple(sorted(tr)) != tr:
                raise ValueError(f"triples must be stored sorted: {tr}")
            for x in tr:
                if not 0 <= x < size:
                    raise ValueError(f"element {x} outside ground set of size {size}")
                counts[x] += 1
        bad = [x for x, c in enumerate(counts) if c != 3]
        if bad:
            raise ValueError(f"each element must appear exactly three times; {len(bad)} do "
                             f"not, the first {len(bad[:10])}: {bad[:10]}")

    @property
    def ground_size(self) -> int:
        return 3 * self.m


def make_x3c(m: int, triples) -> X3CInstance:
    return X3CInstance(m, tuple(tuple(sorted(tr)) for tr in triples))


def _trades(x: X3CInstance) -> list[list[tuple[int, int]]]:
    """Per ground element, the (successor, predecessor) trades of the
    triples containing it, in triple order.  One trading direction is fixed
    per triple: sorted (a, b, c) trade along the cycle a -> b -> c -> a."""
    trades: list[list[tuple[int, int]]] = [[] for _ in range(x.ground_size)]
    for a, b, c in x.triples:
        trades[a].append((b, c))
        trades[b].append((c, a))
        trades[c].append((a, b))
    return trades


def x3c_core_instance(x: X3CInstance) -> Instance:
    """Five agents per ground element: the ring gadget, with each gadget's
    agent 0 additionally offered (in a single top indifference class) the
    three-way trades among gadget-0 agents that realize the triples
    containing its element.  A core-stable allocation exists exactly when
    the chosen trades can cover every gadget, i.e. on cover instances.
    Every agent lists at most 6 outcomes.
    """
    prefs = []
    for e, trades in enumerate(_trades(x)):
        ring = _ring(5 * e)
        ring[0].insert(0, {Outcome(5 * succ, 5 * pred) for succ, pred in trades})
        prefs += ring
    return make_instance(5 * x.ground_size, prefs)


def x3c_top_instance(x: X3CInstance) -> Instance:
    """One agent per ground element; its top class holds the oriented
    three-way trades of the triples containing it, its second class is the
    endowment outcome.  An allocation giving everyone a top outcome exists
    exactly on cover instances; at most 4 outcomes are listed per agent.
    """
    prefs = [[{Outcome(succ, pred) for succ, pred in trades}, {Outcome(e, e)}]
             for e, trades in enumerate(_trades(x))]
    return make_instance(x.ground_size, prefs)


def _classes_from_pool(rng: SplitMix64, pool: list, density: float,
                       tie_rate: float) -> list[list]:
    """Filter a pool by density, shuffle, and group neighbours into
    indifference classes at the tie rate.  Consumes rng deterministically:
    one draw per pool item, then the shuffle, then one draw per kept item
    after the first."""
    kept = [item for item in pool if rng.random() < density]
    rng.shuffle(kept)
    classes: list[list] = []
    for item in kept:
        if classes and rng.random() < tie_rate:
            classes[-1].append(item)
        else:
            classes.append([item])
    return classes


def _check_params(n: int, density: float, tie_rate: float) -> None:
    if not 1 <= n <= 12:
        raise ValueError("n must be between 1 and 12")
    if not (0.0 <= density <= 1.0 and 0.0 <= tie_rate <= 1.0):
        raise ValueError("density and tie rate must lie in [0, 1]")


def random_instance(n: int, density: float, tie_rate: float, seed: int) -> Instance:
    """Seeded random market: every non-endowment outcome is listed with the
    given probability, listed outcomes are grouped into classes at the tie
    rate, and the endowment outcome is appended as the final class."""
    _check_params(n, density, tie_rate)
    rng = SplitMix64(seed)
    prefs = []
    for i in range(n):
        pool = [Outcome(h, t) for h in range(n) for t in range(n) if (h, t) != (i, i)]
        classes = _classes_from_pool(rng, pool, density, tie_rate)
        classes.append([Outcome(i, i)])
        prefs.append(classes)
    return make_instance(n, prefs)


def random_responsive_profile(n: int, density: float, tie_rate: float,
                              seed: int) -> ResponsiveProfile:
    """Seeded random two-component profile.  Each non-own item is acceptable
    with the given probability; the own house (or self) forms the final
    class of its component, so everything listed is weakly preferred to
    staying put."""
    _check_params(n, density, tie_rate)
    rng = SplitMix64(seed)
    houses = []
    tenants = []
    for i in range(n):
        for component in (houses, tenants):  # the house draw first, then the tenant draw
            classes = _classes_from_pool(rng, [x for x in range(n) if x != i], density, tie_rate)
            classes.append([i])
            component.append(tuple(frozenset(cls) for cls in classes))
    return ResponsiveProfile(n, tuple(range(n)), tuple(houses), tuple(tenants))


def random_predominant_profile(n: int, mode: str, tie_rate: float,
                               seed: int) -> PredominantProfile:
    """Seeded random profile with a strict primary order over all items and
    a weak tie-break order over the other dimension."""
    _check_params(n, 1.0, tie_rate)
    rng = SplitMix64(seed)
    primary = []
    tiebreak = []
    for _ in range(n):
        order = list(range(n))
        rng.shuffle(order)
        primary.append(tuple(order))
        classes = _classes_from_pool(rng, list(range(n)), 1.0, tie_rate)
        tiebreak.append(tuple(frozenset(cls) for cls in classes))
    return PredominantProfile(n, tuple(range(n)), mode, tuple(primary), tuple(tiebreak))
