"""The backtracking search over listed outcomes (`axioms._assignment_search`),
the improvement steps it prunes with and the per-agent listing both read,
cross-checked against the versions that sorted every class on each call
(kept in ``references``).

On seeded random instances (every second one with a permuted endowment) and
on exact-cover gadgets, under several rank limits and with pruning on and
off, both searches must give the same event log: every budget tick, every
``has_cycle_through`` call with its pivot, member set and answer, and every
leaf, in order.  So they yield the same leaves in the same order, leave the
same ``Budget.left``, and run out of budget at the same tick.  A search
without pruning on the m = 2 x3c-core gadget has more than ``NODES`` ticks;
there both must run out at the same point.

Two more families go through the same checks.  Instances with a permuted
endowment whose top classes list outcomes no allocation gives (the agent's
own house with another tenant, another agent's house with the agent as its
own tenant) exercise the clash tests a candidate passes before it writes.
The m = 3 and m = 8 x3c-core gadgets (45 and 120 agents) and random
instances of the sizes the benchmark's ``search`` workload uses run under
their IR limits.

The search charges the ticks of candidates it skips in bulk, so on the
small instances every budget from 0 to the full tick count is tried too:
wherever the budget ends, also inside a charge of several ticks, the log
must stop at the reference's tick.
"""

import random

import pytest
import references
from references import (assignment_search_reference, improvement_steps_reference,
                        listed_outcomes_reference, random_x3c)

from tep import axioms
from tep.axioms import _assignment_search, _improvement_steps, _ir_limits
from tep.cycles import Budget
from tep.errors import BudgetExceededError
from tep.generators import random_instance, x3c_core_instance, x3c_top_instance
from tep.model import Outcome, make_instance

NODES = 20_000
# The largest reference tick count swept budget by budget.
SWEEP_TICKS = 1_000


def search_family():
    """Seeded instances with n = 1..7, sparse and strict to dense with heavy
    ties, every second one with a permuted endowment, and the x3c-core and
    x3c-top gadgets of two random exact-cover inputs with m = 1 and 2."""
    rng = random.Random(10)
    out = []
    for n in range(1, 8):
        for density, ties in ((0.3, 0.0), (0.5, 0.4), (0.8, 0.8)):
            inst = random_instance(n, density, ties, rng.getrandbits(32))
            if len(out) % 2:
                endowment = list(range(n))
                rng.shuffle(endowment)
                inst = make_instance(n, inst.prefs, endowment=endowment)
            out.append(inst)
    for m in (1, 2):
        for seed in range(2):
            x = random_x3c(m, seed)
            out += [x3c_core_instance(x), x3c_top_instance(x)]
    return out


def with_impossible_tops(inst, rng):
    """``inst`` with two outcomes no allocation gives added to each agent's
    top class: its own house with another tenant, and another agent's house
    with itself as its own tenant.  Needs n >= 2."""
    n, endow = inst.n, inst.endowment
    prefs = []
    for i, classes in enumerate(inst.prefs):
        bad = {Outcome(endow[i], rng.choice([t for t in range(n) if t != i])),
               Outcome(rng.choice([h for h in range(n) if h != endow[i]]), i)}
        prefs.append([classes[0] | bad] + [cls - bad for cls in classes[1:]])
    return make_instance(n, prefs, endowment=endow)


def clash_family():
    """A hand-written n = 3 instance and seeded n = 2..6 instances, all with
    permuted endowments, whose top classes hold outcomes no allocation gives
    next to ones that some allocation does."""
    O = Outcome
    # Agent 0 owns house 1, agent 1 house 2, agent 2 house 0.
    out = [make_instance(3, [
        [[O(1, 2), O(2, 0), O(2, 2)], [O(0, 1)]],
        [[O(2, 0), O(0, 1), O(1, 0)], [O(0, 2)]],
        [[O(0, 1), O(1, 2)], [O(2, 1), O(1, 0)]],
    ], endowment=[1, 2, 0])]
    rng = random.Random(12)
    for n in range(2, 7):
        for density, ties in ((0.5, 0.3), (0.9, 0.6)):
            endowment = rng.sample(range(n), n)
            if endowment == sorted(endowment):
                endowment = endowment[1:] + endowment[:1]
            inst = random_instance(n, density, ties, rng.getrandbits(32))
            out.append(with_impossible_tops(make_instance(n, inst.prefs, endowment=endowment),
                                            rng))
    return out


def large_family():
    """The m = 3 and m = 8 x3c-core gadgets of random exact-cover inputs (45
    and 120 agents; the benchmark's ``search`` workload sends m = 8..14) and
    random instances with n = 10 and 11, density 0.2..0.3."""
    return [x3c_core_instance(random_x3c(3, 0)), x3c_core_instance(random_x3c(8, 0)),
            random_instance(10, 0.2, 0.3, 101), random_instance(11, 0.3, 0.3, 102)]


def limit_sets(inst, rng):
    """IR limits, top-class limits, every listed class, and random limits
    from -1 (no candidate) to past the last class."""
    yield "ir", _ir_limits(inst)
    yield "top", [0] * inst.n
    yield "all", [len(c) for c in inst.prefs]
    yield "random", [rng.randint(-1, len(c)) for c in inst.prefs]


class LoggedBudget(Budget):
    """A budget that writes each tick into an event log; a charge of k ticks
    is logged as k ticks, up to the one that runs out."""

    def __init__(self, nodes, log):
        super().__init__(nodes)
        self.log = log

    def tick(self, nodes=1):
        self.log += ["tick"] * min(nodes, self.left + 1)
        super().tick(nodes)


@pytest.fixture()
def logged_cycle_checks(monkeypatch):
    """Make both searches log each has_cycle_through call and its answer."""
    real = axioms.has_cycle_through

    def logged(options, pivot, allowed, budget):
        budget.log.append(("cycle", pivot, tuple(sorted(allowed))))
        found = real(options, pivot, allowed, budget)
        budget.log.append(found)
        return found

    monkeypatch.setattr(axioms, "has_cycle_through", logged)
    monkeypatch.setattr(references, "has_cycle_through", logged)


def run(search, inst, limits, prune, nodes):
    """The event log of one search and the budget left after it."""
    log = []
    budget = LoggedBudget(nodes, log)
    try:
        for alloc in search(inst, limits, prune, budget):
            log.append(alloc.assignment)
        log.append("end")
    except BudgetExceededError:
        log.append("exhausted")
    return log, budget.left


def cases():
    rng = random.Random(11)
    for family, instances in (("search", search_family()), ("clash", clash_family())):
        for index, inst in enumerate(instances):
            for name, limits in limit_sets(inst, rng):
                for prune in (False, True):
                    yield (family, index, name, prune), inst, limits, prune
    for index, inst in enumerate(large_family()):
        for prune in (False, True):
            yield ("large", index, "ir", prune), inst, _ir_limits(inst), prune


def test_the_search_matches_the_reference_event_for_event(logged_cycle_checks):
    """Besides the leaves and the families, ``seen`` counts the writes that
    take each way through the settling of the search, as the reference
    makes them: a swap (the agent takes o's house and o moves into its
    own), a write that fixes both o and t in full with t < o, and an
    own-house write under pruning.  A swap partner never has a fact fixed
    before the write: the search settles it without looking."""
    seen = {"leaves>1": 0, "cycle-found": 0, "no-leaf": 0, "permuted": 0, "gadget": 0,
            "impossible-top": 0, "large": 0, "swap": 0, "pair t<o": 0, "own pruned": 0}
    swap_fixed = 0
    for case, inst, limits, prune in cases():
        writes = []
        got = run(_assignment_search, inst, limits, prune, NODES)
        want = run(lambda *args: assignment_search_reference(*args, writes=writes),
                   inst, limits, prune, NODES)
        assert got == want, case
        for i, _, t, o, got_before, ten_before in writes:
            if o == i:
                seen["own pruned"] += prune
            elif t == o:
                seen["swap"] += 1
                swap_fixed += ten_before[o] >= 0 or got_before[o] >= 0
            else:
                seen["pair t<o"] += (t < o and ten_before[o] < 0 and got_before[o] >= 0
                                     and got_before[t] < 0 and ten_before[t] >= 0)
        leaves = sum(isinstance(e, tuple) and e[0] != "cycle" for e in want[0])
        seen["leaves>1"] += leaves > 1
        seen["no-leaf"] += leaves == 0
        seen["cycle-found"] += True in want[0]
        seen["permuted"] += not inst.is_canonical() and leaves > 0
        seen["gadget"] += inst.n >= 15 and leaves > 0
        seen["impossible-top"] += case[0] == "clash" and leaves > 0
        seen["large"] += case[0] == "large" and (leaves > 0 or want[0][-1] == "exhausted")
    assert min(seen.values()) > 0, seen
    assert swap_fixed == 0, swap_fixed


def test_the_search_runs_out_of_budget_at_the_same_tick(logged_cycle_checks):
    exhausted = 0
    for case, inst, limits, prune in cases():
        full, _ = run(assignment_search_reference, inst, limits, prune, NODES)
        ticks = full.count("tick")
        budgets = {0, 1, 2, ticks // 3, ticks // 2, ticks - 1}
        if full[-1] == "end":
            budgets.add(ticks)
        for nodes in sorted(b for b in budgets if 0 <= b <= ticks):
            got = run(_assignment_search, inst, limits, prune, nodes)
            want = run(assignment_search_reference, inst, limits, prune, nodes)
            assert got == want, (case, nodes)
            log, _ = got
            if nodes < ticks:
                assert log[-1] == "exhausted" and log.count("tick") == nodes + 1, (case, nodes)
                assert log[:-1] == full[:len(log) - 1], (case, nodes)
                exhausted += 1
            else:
                assert got == (full, 0), (case, nodes)
    assert exhausted > 100


class ChargeLog(LoggedBudget):
    """A logged budget that also keeps the size of each charge."""

    def __init__(self, nodes, log):
        super().__init__(nodes, log)
        self.charges = []

    def tick(self, nodes=1):
        self.charges.append(nodes)
        super().tick(nodes)


def test_every_budget_runs_out_at_the_reference_tick(logged_cycle_checks):
    """Every budget from 0 to the full tick count, on the search and clash
    instances with n <= 5 whose reference search ticks at most
    ``SWEEP_TICKS`` times (202 of their 208 cases).  The search charges the
    ticks of candidates that cannot fit or that clash in bulk, so most
    budgets here run out inside a charge of several ticks: the log must
    still stop at the reference's tick, with ``Budget.left`` at -1."""
    swept = inside = 0
    for case, inst, limits, prune in cases():
        if case[0] == "large" or inst.n > 5:
            continue
        full, _ = run(assignment_search_reference, inst, limits, prune, NODES)
        at = [k for k, event in enumerate(full) if event == "tick"]
        if len(at) > SWEEP_TICKS:
            continue
        for nodes in range(len(at)):
            assert (run(_assignment_search, inst, limits, prune, nodes)
                    == (full[:at[nodes] + 1] + ["exhausted"], -1)), (case, nodes)
        assert run(_assignment_search, inst, limits, prune, len(at)) == (full, 0), case
        budget = ChargeLog(NODES, [])
        assert [a.assignment for a in _assignment_search(inst, limits, prune, budget)] == [
            e for e in full if isinstance(e, tuple) and e[0] != "cycle"], case
        # A budget of b ends inside a charge (not at its last tick) for k - 1
        # of the budgets that reach a charge of k.
        swept += 1
        inside += sum(k - 1 for k in budget.charges)
    assert swept == 202 and inside > 1000, (swept, inside)


def test_the_clash_family_tops_list_outcomes_no_allocation_gives():
    for inst in clash_family():
        assert not inst.is_canonical()
        for i, classes in enumerate(inst.prefs):
            own = inst.endowment[i]
            assert any(o.house == own and o.tenant != i for o in classes[0]), (inst, i)
            assert any(o.house != own and o.tenant == i for o in classes[0]), (inst, i)


def test_the_listing_matches_the_reference_at_every_limit():
    for inst in search_family():
        for agent in range(inst.n):
            listing = listed_outcomes_reference(inst, agent)
            assert inst.listed_outcomes(agent) == listing
            for limit in range(-1, len(inst.prefs[agent]) + 1):
                want = tuple(o for o in listing if inst.rank(agent, o) <= limit)
                assert inst.listed_outcomes(agent, limit) == want, (agent, limit)
                assert (_improvement_steps(inst, agent, limit + 1)
                        == improvement_steps_reference(inst, agent, limit + 1)), (agent, limit)
