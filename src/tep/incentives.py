"""Mechanisms, misreport search, and executable impossibility case analyses.

A mechanism is any deterministic callable from a market description (plain
instance, predominant profile, or responsive profile) to an allocation.
:func:`find_manipulation` replays a mechanism against a space of candidate
misreports for one agent and returns the first report that strictly
improves the agent under its true preferences.

The two ``verify_*`` functions re-derive, with the exact oracles, every
step of the case analyses showing that no mechanism combines
strategyproofness with individual rationality plus Pareto optimality, or
with core consistency, on the 4-agent witness market.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator

from .axioms import DEFAULT_NODE_BUDGET, enumerate_core_stable, enumerate_ir_pareto_optimal
from .errors import BudgetExceededError, ProofError
from .generators import sp_instance
from .model import Allocation, Instance, Market, Outcome, compare, outcome_of
from .responsive import ResponsiveProfile

Mechanism = Callable
DEFAULT_MAX_REPORTS = 100_000


@dataclass(frozen=True)
class ManipulationWitness:
    report: object
    outcome_before: Outcome
    outcome_after: Outcome


def find_manipulation(mechanism: Mechanism, truth: Market, agent: int,
                      reports: Iterable, *,
                      max_reports: int = DEFAULT_MAX_REPORTS) -> ManipulationWitness | None:
    """First report in enumeration order that strictly improves the agent
    under its true preferences, or None when the space is exhausted.

    ``truth`` may be an :class:`Instance` (reports are preference class
    lists), a :class:`PredominantProfile` (reports are strict primary
    orders), or a :class:`ResponsiveProfile` (reports are (house classes,
    tenant classes) pairs).

    Every report counts towards ``max_reports``, but the mechanism runs once
    per distinct market: a report whose market equals the truth or an
    earlier report's (say, a sub-list that ends in the endowment outcome
    and the same sub-list without it) is skipped.  The mechanism is
    deterministic, so that market's allocation is already known not to
    improve the agent.  The set of replayed markets holds the truth and at
    most one market per report tried, so it is bounded by ``max_reports``.
    """
    before = outcome_of(truth, mechanism(truth), agent)
    replayed = {truth}
    for count, report in enumerate(reports):
        if count >= max_reports:
            raise BudgetExceededError(f"misreport space cap {max_reports} exceeded")
        market = truth.with_report(agent, report)
        if market in replayed:
            continue
        replayed.add(market)
        after = outcome_of(truth, mechanism(market), agent)
        if truth.prefers(agent, after, before):
            return ManipulationWitness(report, before, after)
    return None


def strict_primary_reports(n: int) -> Iterator[tuple[int, ...]]:
    """All strict total orders over n items, lexicographically."""
    return permutations(range(n))


def sublist_reports(inst: Instance, agent: int) -> Iterator[list[list[Outcome]]]:
    """All order-preserving sub-lists of the agent's listed outcomes, as
    strict rankings, by increasing length.  The endowment outcome is
    restored automatically when a sub-list drops it."""
    outcomes = inst.listed_outcomes(agent)
    for size in range(1, len(outcomes) + 1):
        for keep in combinations(range(len(outcomes)), size):
            yield [[outcomes[k]] for k in keep]


def _ordered_partitions(items: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
    if not items:
        yield ()
        return
    rest = set(items)
    for size in range(1, len(items) + 1):
        for cls in combinations(sorted(rest), size):
            remainder = tuple(sorted(rest - set(cls)))
            for tail in _ordered_partitions(remainder):
                yield (frozenset(cls),) + tail


def component_order_reports(prof: ResponsiveProfile, agent: int) -> Iterator[tuple]:
    """Every pair of component weak orders for one agent: each component
    ranges over all ordered partitions of every subset that contains the
    agent's own house (respectively itself).  Sizable even for small n; pair
    with the report cap."""
    n = prof.n

    def component(required: int):
        others = [x for x in range(n) if x != required]
        for size in range(len(others) + 1):
            for extra in combinations(others, size):
                for part in _ordered_partitions(tuple(sorted(extra + (required,)))):
                    yield part

    for houses in component(prof.endowment[agent]):
        for tenants in component(agent):
            yield (houses, tenants)


@dataclass(frozen=True)
class ProofReport:
    """Record of an executable case analysis; construction succeeds only if
    every branch closed."""

    lines: tuple[str, ...]

    def __str__(self) -> str:
        return "\n".join(self.lines)


# The 4-agent witness market: its two IR + Pareto-optimal allocations, and
# the truncation reports used in the case analyses.
_P = Allocation((1, 2, 3, 0))      # the four-way trade
_Q = Allocation((3, 2, 1, 0))      # swaps {1,2} and {0,3}
_B = Allocation((1, 0, 3, 2))      # swaps {0,1} and {2,3}
_S = Allocation((0, 1, 3, 2))      # swap {2,3} only
_REPORT_2 = [[Outcome(3, 3)], [Outcome(2, 2)]]
_REPORT_1 = [[Outcome(2, 2)], [Outcome(1, 1)]]
_REPORT_3 = [[Outcome(0, 0)], [Outcome(3, 3)]]
_REPORT_0 = [[Outcome(1, 1)], [Outcome(0, 0)]]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProofError(message)


def _branch(oracle: Callable, market: Instance, agent: int, report: list[list[Outcome]],
            want: set[Allocation], pick: Allocation, current: Allocation) -> Instance:
    """The sub-market after ``agent`` reports ``report`` in ``market``, once
    ``oracle`` finds exactly ``want`` there and ``pick`` strictly improves the
    agent (under its true preferences) over its outcome under ``current``."""
    sub = market.with_report(agent, report)
    found = set(oracle(sub))
    _require(found == want, f"unexpected set after agent {agent}'s report: "
                            f"{sorted(a.text() for a in found)}")
    _require(compare(market, agent, outcome_of(market, pick, agent),
                     outcome_of(market, current, agent)) > 0, f"agent {agent} fails to improve")
    return sub


def verify_sp_impossibility_tree(*, node_budget: int = DEFAULT_NODE_BUDGET) -> ProofReport:
    """Exhaust every choice an individually rational, Pareto-optimal
    mechanism could make on the witness market and close each branch with a
    profitable misreport.  Every IR + Pareto enumeration runs under its own
    ``node_budget``.

    One branch goes beyond the published analysis: after agent 2's
    truncation the sub-instance has a second IR + Pareto-optimal allocation
    (the {0,3} swap), which the published argument overlooks; that branch
    closes via a further truncation by agent 0.  The report flags it.
    """
    ir_po = partial(enumerate_ir_pareto_optimal, node_budget=node_budget)
    inst = sp_instance()
    lines: list[str] = []

    root = set(ir_po(inst))
    _require(root == {_P, _Q}, f"root IR+PO set is {sorted(a.text() for a in root)}")
    lines.append(f"root: IR+PO choices are [{_P.text()}] and [{_Q.text()}]")

    # Choice Q: agent 2 truncates.
    extra = Allocation((3, 1, 2, 0))
    inst2 = _branch(ir_po, inst, 2, _REPORT_2, {_B, extra}, _B, _Q)
    lines.append(f"choice [{_Q.text()}]: agent 2 truncates; choice [{_B.text()}] improves 2: closed")
    lines.append(f"choice [{_Q.text()}]: sub-instance has 2 IR+PO allocations, published analysis expects 1")
    _require(compare(inst, 2, outcome_of(inst, extra, 2), outcome_of(inst, _Q, 2)) <= 0,
             "the overlooked allocation should not help agent 2")
    # Repair: in the truncated instance, agent 0 profits by truncating too.
    _branch(ir_po, inst2, 0, _REPORT_0, {_B}, _B, extra)
    lines.append(f"choice [{_Q.text()}] -> [{extra.text()}]: agent 0 truncates; unique choice [{_B.text()}] improves 0: closed")

    # Choice P: agent 1 truncates.
    inst1 = _branch(ir_po, inst, 1, _REPORT_1, {_Q, _S}, _Q, _P)
    lines.append(f"choice [{_P.text()}]: agent 1 truncates; choice [{_Q.text()}] improves 1: closed")
    _branch(ir_po, inst1, 3, _REPORT_3, {_Q}, _Q, _S)
    lines.append(f"choice [{_P.text()}] -> [{_S.text()}]: agent 3 truncates; unique choice [{_Q.text()}] improves 3: closed")

    lines.append("all branches closed: no IR + Pareto-optimal mechanism is strategyproof here")
    return ProofReport(tuple(lines))


def verify_core_consistency_impossibility(*, node_budget: int = DEFAULT_NODE_BUDGET
                                          ) -> ProofReport:
    """Same branch structure with core-stable sets at every node: a
    core-consistent mechanism must pick a core-stable allocation whenever
    one exists, and each pick opens a profitable misreport.  Every core
    enumeration, and each core-stability check in it, runs under its own
    ``node_budget``."""
    core = partial(enumerate_core_stable, node_budget=node_budget)
    inst = sp_instance()
    lines: list[str] = []

    root = set(core(inst))
    _require(root == {_P, _Q}, f"root core set is {sorted(a.text() for a in root)}")
    lines.append(f"root: core-stable choices are [{_P.text()}] and [{_Q.text()}]")

    _branch(core, inst, 2, _REPORT_2, {_B}, _B, _Q)
    lines.append(f"choice [{_Q.text()}]: agent 2 truncates; unique core choice [{_B.text()}] improves 2: closed")

    _branch(core, inst, 1, _REPORT_1, {_Q}, _Q, _P)
    lines.append(f"choice [{_P.text()}]: agent 1 truncates; unique core choice [{_Q.text()}] improves 1: closed")

    lines.append("all branches closed: no core-consistent mechanism is strategyproof here")
    return ProofReport(tuple(lines))
