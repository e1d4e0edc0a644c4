"""The pruned permutation search behind the Pareto oracles, the IR + Pareto
and core enumerations and the exact optimizer, cross-checked against the n!
scans it replaced.

The ``*_reference`` functions are those scans (the IR + Pareto and core
ones live in ``references.py``): they walk every allocation in
lexicographic order and compare rank vectors or weights read through
``Instance.rank``.

The search runs under a node budget, charging n ticks at each internal
node.  On small seeded instances, under every kind of limits and bound its
callers use, every budget from 0 to the full tick count is tried against
``references.permutation_search_reference``: the charges and leaves must
come in the reference's order, and the search must run out at the
reference's charge.
"""

import gc
import math
import random
from functools import partial

import pytest

from tep import (
    Allocation,
    BudgetExceededError,
    Outcome,
    axioms,
    enumerate_core_stable,
    enumerate_ir_pareto_optimal,
    enumerate_pareto_optimal,
    is_individually_rational,
    is_pareto_optimal,
    is_weakly_pareto_optimal,
    make_instance,
    outcome_of,
)
from tep.axioms import all_allocations
from tep.cycles import Budget
from tep.generators import random_instance, sp_instance
from tep.programs import (
    BORDA,
    WEIGHT_SCHEMES,
    _by_outcome,
    solve_exact_max_weight,
    weights_from_ranks,
)

from references import (
    allocation_value,
    enumerate_core_stable_reference,
    enumerate_ir_pareto_optimal_reference,
    pareto_front_reference,
    permutation_search_reference,
)

# The largest reference tick count swept budget by budget.
SWEEP_TICKS = 800


def _rank_vector_reference(inst, alloc):
    return tuple(inst.rank(i, outcome_of(inst, alloc, i)) for i in range(inst.n))


def is_pareto_optimal_reference(inst, alloc):
    p_ranks = _rank_vector_reference(inst, alloc)
    for q in all_allocations(inst.n):
        q_ranks = _rank_vector_reference(inst, q)
        if q_ranks != p_ranks and all(a <= b for a, b in zip(q_ranks, p_ranks)):
            return False
    return True


def is_weakly_pareto_optimal_reference(inst, alloc):
    p_ranks = _rank_vector_reference(inst, alloc)
    for q in all_allocations(inst.n):
        q_ranks = _rank_vector_reference(inst, q)
        if all(a < b for a, b in zip(q_ranks, p_ranks)):
            return False
    return True


def enumerate_pareto_optimal_reference(inst):
    allocs = list(all_allocations(inst.n))
    vectors = [_rank_vector_reference(inst, a) for a in allocs]
    out = []
    for i, p_ranks in enumerate(vectors):
        dominated = any(
            q_ranks != p_ranks and all(a <= b for a, b in zip(q_ranks, p_ranks))
            for q_ranks in vectors
        )
        if not dominated:
            out.append(allocs[i])
    return out


def solve_exact_max_weight_reference(inst, weights):
    best_alloc = None
    best_value = 0
    for alloc in all_allocations(inst.n):
        value = allocation_value(weights, inst, alloc)
        if best_alloc is None or value > best_value:
            best_alloc, best_value = alloc, value
    return best_alloc, best_value


def weights_from_ranks_reference(inst, scheme=BORDA):
    """Per agent, its weight of every outcome (j, k) at ``j * n + k``."""
    n = inst.n
    rows = []
    for i in range(n):
        num_classes = len(inst.prefs[i])
        row = []
        for j in range(n):
            for k in range(n):
                rank = inst.rank(i, Outcome(j, k))
                if scheme == BORDA:
                    value = (num_classes - 1 - rank) if rank < num_classes else -n * num_classes
                else:
                    value = n ** (num_classes - rank)
                row.append(value)
        rows.append(row)
    return rows


def all_tied_instance(n):
    """Every agent lists every outcome in one class, so all allocations
    have equal rank vectors and equal weight."""
    everything = [Outcome(h, t) for h in range(n) for t in range(n)]
    return make_instance(n, [[everything] for _ in range(n)])


def family(max_n=7):
    """Seeded instances with n = 1..max_n: sparse and strict, medium, and
    dense with heavy ties; every second one with a permuted endowment; plus
    the all-tied instance and one listing only endowment outcomes."""
    rng = random.Random(4)
    out = []
    for n in range(1, max_n + 1):
        for density, ties in ((0.3, 0.0), (0.6, 0.3), (0.9, 0.9)):
            inst = random_instance(n, density, ties, rng.getrandbits(32))
            if len(out) % 2:
                endowment = list(range(n))
                rng.shuffle(endowment)
                inst = make_instance(n, inst.prefs, endowment=endowment)
            out.append(inst)
    small = min(max_n, 5)
    out.append(all_tied_instance(small))
    out.append(make_instance(small, [[] for _ in range(small)]))
    return out


def allocations_to_check(inst, rng):
    """The identity, a maximum-weight allocation (Pareto optimal) and two
    random ones (often not individually rational)."""
    best, _ = solve_exact_max_weight(inst, weights_from_ranks(inst))
    picks = [Allocation(tuple(range(inst.n))), best]
    for _ in range(2):
        perm = list(range(inst.n))
        rng.shuffle(perm)
        picks.append(Allocation(tuple(perm)))
    return picks


def test_family_covers_permuted_endowments_non_ir_and_unlisted_outcomes():
    rng = random.Random(5)
    kinds = set()
    for inst in family():
        kinds.add(("canonical", inst.is_canonical()))
        for alloc in allocations_to_check(inst, rng):
            ranks = _rank_vector_reference(inst, alloc)
            kinds.add(("ir", is_individually_rational(inst, alloc)))
            kinds.add(("unlisted", any(r == len(c) for r, c in zip(ranks, inst.prefs))))
    assert kinds == {(k, v) for k in ("canonical", "ir", "unlisted") for v in (True, False)}


def test_pareto_checks_match_the_full_scans():
    rng = random.Random(5)
    verdicts = set()
    for inst in family():
        for alloc in allocations_to_check(inst, rng):
            po = is_pareto_optimal(inst, alloc)
            wpo = is_weakly_pareto_optimal(inst, alloc)
            assert po == is_pareto_optimal_reference(inst, alloc), (inst, alloc)
            assert wpo == is_weakly_pareto_optimal_reference(inst, alloc), (inst, alloc)
            verdicts.add((po, wpo))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_pareto_enumeration_matches_the_full_scan_in_order():
    for inst in family(max_n=6):
        assert enumerate_pareto_optimal(inst) == enumerate_pareto_optimal_reference(inst), inst


def _skyline_cases(n, seeds):
    """Seeded instances at tie rate 0.3 and densities up to 1.0, every
    second one with a rotated endowment, each with the sentinel limits (all
    Pareto-optimal allocations) and the IR limits."""
    for k, (density, seed) in enumerate((d, s) for d in (0.3, 0.6, 1.0) for s in seeds):
        inst = random_instance(n, density, 0.3, 7_000 + 100 * n + seed)
        if k % 2:
            inst = make_instance(n, inst.prefs, [(i + 1) % n for i in range(n)])
        yield inst, [len(c) for c in inst.prefs]
        yield inst, [inst.endowment_rank(i) for i in range(n)]


@pytest.mark.parametrize("n, seeds", [(2, range(6)), (3, range(6)), (4, range(6)),
                                      (5, range(4)), (6, range(3)), (7, range(1))])
def test_mask_skyline_matches_the_pairwise_skyline(n, seeds):
    for inst, limits in _skyline_cases(n, seeds):
        assert (axioms._pareto_front(inst, limits, axioms.DEFAULT_NODE_BUDGET)
                == pareto_front_reference(inst, limits)), inst


def test_mask_skyline_matches_the_pairwise_skyline_at_n8():
    inst = random_instance(8, 0.3, 0.3, 3)
    limits = [len(c) for c in inst.prefs]
    front = axioms._pareto_front(inst, limits, axioms.DEFAULT_NODE_BUDGET)
    assert front == pareto_front_reference(inst, limits)
    assert len(front) > 100


def test_exact_optimizer_matches_the_full_scan_with_its_tie_break():
    for inst in family():
        for scheme in WEIGHT_SCHEMES:
            weights = weights_from_ranks(inst, scheme)
            got = solve_exact_max_weight(inst, weights)
            assert got == solve_exact_max_weight_reference(inst, weights), (inst, scheme)


def test_exact_optimizer_returns_the_identity_when_every_allocation_ties():
    for n in (3, 5):
        inst = all_tied_instance(n)
        for scheme in WEIGHT_SCHEMES:
            alloc, _ = solve_exact_max_weight(inst, weights_from_ranks(inst, scheme))
            assert alloc == Allocation(tuple(range(n)))


def test_weight_table_matches_the_per_outcome_loop():
    """Every outcome's weight, read through its rank in ``Instance.rank_table``
    as the exports and the exact optimizer read it, is the per-outcome
    loop's, with permuted endowments among the instances."""
    for inst in family():
        for scheme in WEIGHT_SCHEMES:
            reference = weights_from_ranks_reference(inst, scheme)
            assert _by_outcome(inst, weights_from_ranks(inst, scheme)) == reference, (inst, scheme)


def ir_family():
    """``family()`` plus, for n = 2..6, sparse and dense instances with and
    without ties, every second one with a permuted endowment."""
    rng = random.Random(6)
    out = family()
    for n in range(2, 7):
        for density, ties in ((0.4, 0.0), (0.5, 0.3), (0.8, 0.6), (0.7, 0.9)):
            inst = random_instance(n, density, ties, rng.getrandbits(32))
            if len(out) % 2:
                endowment = list(range(n))
                rng.shuffle(endowment)
                inst = make_instance(n, inst.prefs, endowment=endowment)
            out.append(inst)
    return out


def test_ir_pareto_enumeration_matches_the_full_scan_in_order():
    sizes = set()
    for inst in ir_family():
        got = enumerate_ir_pareto_optimal(inst)
        assert got == enumerate_ir_pareto_optimal_reference(inst), inst
        sizes.add(min(len(got), 2))
    assert sizes == {1, 2}


def test_core_enumeration_matches_the_full_scan_in_order():
    sizes = set()
    for inst in ir_family():
        got = enumerate_core_stable(inst)
        assert got == enumerate_core_stable_reference(inst), inst
        sizes.add(min(len(got), 2))
    assert sizes == {0, 1, 2}


def test_core_enumeration_checks_each_ir_allocation_once_in_order(monkeypatch):
    """Core-stable allocations are IR, so no other allocation is checked."""
    checked = []
    real = axioms.is_core_stable

    def spy(inst, alloc, *, node_budget):
        checked.append(alloc)
        return real(inst, alloc, node_budget=node_budget)

    monkeypatch.setattr(axioms, "is_core_stable", spy)
    for inst in family(max_n=6):
        checked.clear()
        enumerate_core_stable(inst)
        assert checked == [a for a in all_allocations(inst.n) if is_individually_rational(inst, a)]


def test_core_enumeration_passes_its_node_budget_to_each_check():
    inst = sp_instance()
    assert enumerate_core_stable(inst) == enumerate_core_stable_reference(inst)
    with pytest.raises(BudgetExceededError):
        enumerate_core_stable(inst, node_budget=1)


@pytest.mark.parametrize("leaves", [1, None], ids=["one-leaf-then-dropped", "exhausted"])
def test_a_search_leaves_no_cyclic_garbage(leaves):
    """A search that ends or is dropped after one leaf leaves nothing for
    the cyclic collector: refcounting frees the walk and its tables, as it
    must while requests run with the collector paused."""
    inst = sp_instance()
    table, limits = inst.rank_table, [len(order) for order in inst.prefs]
    gc.disable()
    try:
        gc.collect()
        search = axioms._permutation_search(inst, table, limits, axioms.DEFAULT_NODE_BUDGET)
        taken = [next(search)] if leaves else list(search)
        del search
        garbage = gc.collect()
    finally:
        gc.enable()
    assert len(taken) == (leaves or 24) and garbage == 0


def search_cases():
    """(kind, instance, costs, limits, bound, oracle) as the callers of the
    search make them, on ``family(max_n=6)``: the sentinel limits of the PO
    enumeration, the IR limits of the IR + PO one, the PO check's bound and
    the WPO check's limits at the allocations ``allocations_to_check``
    picks (the WPO ones only where no agent is at rank 0), and the exact
    optimizer's negated weights under both schemes.  ``oracle(budget)``
    runs the caller under a node budget."""
    rng = random.Random(12)
    for inst in family(max_n=6):
        ranks = inst.rank_table
        yield ("sentinel", inst, ranks, [len(c) for c in inst.prefs], None,
               partial(enumerate_pareto_optimal, inst))
        yield ("ir", inst, ranks, axioms._ir_limits(inst), None,
               partial(enumerate_ir_pareto_optimal, inst))
        for alloc in allocations_to_check(inst, rng):
            p_ranks = _rank_vector_reference(inst, alloc)
            yield "po", inst, ranks, p_ranks, sum(p_ranks), partial(is_pareto_optimal, inst, alloc)
            if min(p_ranks) > 0:
                yield ("wpo", inst, ranks, [r - 1 for r in p_ranks], None,
                       partial(is_weakly_pareto_optimal, inst, alloc))
        for scheme in WEIGHT_SCHEMES:
            cost = [[-w for w in row] for row in weights_from_ranks_reference(inst, scheme)]
            yield ("exact", inst, cost, [max(row) for row in cost], math.inf,
                   partial(solve_exact_max_weight, inst, weights_from_ranks(inst, scheme)))


class LoggedBudget(Budget):
    """A budget that appends each charge to ``LoggedBudget.events``."""

    events: list = []

    def tick(self, nodes=1):
        self.events.append(nodes)
        super().tick(nodes)


def budgeted_events(inst, cost, limits, bound, nodes):
    """The charges and leaves of one search under ``LoggedBudget``, in
    order, and how it ended."""
    events = LoggedBudget.events = []
    try:
        events.extend(axioms._permutation_search(inst, cost, limits, nodes, bound))
        events.append("end")
    except BudgetExceededError:
        events.append("exhausted")
    return events


def cut_at(reference, nodes):
    """The reference events a budget of ``nodes`` allows: up to the charge
    that exceeds it, then "exhausted"; or all of them, then "end"."""
    spent = 0
    for k, event in enumerate(reference):
        if isinstance(event, int):
            spent += event
            if spent > nodes:
                return reference[:k + 1] + ["exhausted"]
    return reference + ["end"]


def test_every_budget_runs_out_at_the_reference_charge(monkeypatch):
    """Every budget from 0 to the full tick count, on the cases whose
    reference search ticks at most ``SWEEP_TICKS`` times."""
    monkeypatch.setattr(axioms, "Budget", LoggedBudget)
    swept = dict.fromkeys(["sentinel", "ir", "po", "wpo", "exact"], 0)
    largest = 0
    for kind, inst, cost, limits, bound, _ in search_cases():
        reference = permutation_search_reference(inst, cost, limits, bound)
        total = sum(e for e in reference if isinstance(e, int))
        if total > SWEEP_TICKS:
            continue
        for nodes in range(total + 1):
            assert (budgeted_events(inst, cost, limits, bound, nodes)
                    == cut_at(reference, nodes)), (kind, inst, nodes)
        swept[kind] += 1
        largest = max(largest, inst.n)
    assert (swept, largest) == ({"sentinel": 12, "ir": 15, "po": 73, "wpo": 26, "exact": 35},
                                6)


def test_enough_budget_gives_the_default_answers():
    """With exactly the ticks its search needs, each caller answers as at
    the default budget (list order, and the argmax tie-broken to the first
    allocation); one tick fewer exits.  The checks need only the ticks up
    to the first leaf, which settles them."""
    for kind, inst, cost, limits, bound, oracle in search_cases():
        reference = permutation_search_reference(inst, cost, limits, bound)
        if kind in ("po", "wpo"):
            leaf = next((k for k, e in enumerate(reference) if isinstance(e, tuple)),
                        len(reference))
            reference = reference[:leaf]
        needed = sum(e for e in reference if isinstance(e, int))
        assert oracle(node_budget=needed) == oracle(), (kind, inst)
        with pytest.raises(BudgetExceededError):
            oracle(node_budget=needed - 1)
