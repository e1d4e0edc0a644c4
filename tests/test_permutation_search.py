"""The pruned permutation search behind the Pareto oracles, the IR + Pareto
and core enumerations and the exact optimizer, cross-checked against the n!
scans it replaced.

The ``*_reference`` functions are those scans (the IR + Pareto and core
ones live in ``references.py``): they walk every allocation in
lexicographic order and compare rank vectors or weights read through
``Instance.rank``.
"""

import random

import pytest

from tep import (
    Allocation,
    BudgetExceededError,
    Outcome,
    all_allocations,
    axioms,
    enumerate_core_stable,
    enumerate_ir_pareto_optimal,
    enumerate_pareto_optimal,
    identity_allocation,
    is_individually_rational,
    is_pareto_optimal,
    is_weakly_pareto_optimal,
    make_instance,
    outcome_of,
)
from tep.generators import random_instance, sp_instance
from tep.programs import (
    BORDA,
    WEIGHT_SCHEMES,
    WeightTable,
    solve_exact_max_weight,
    weights_from_ranks,
)

from references import enumerate_core_stable_reference, enumerate_ir_pareto_optimal_reference


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


def solve_exact_max_weight_reference(inst, table):
    best_alloc = None
    best_value = 0
    for alloc in all_allocations(inst.n):
        value = table.allocation_value(inst, alloc)
        if best_alloc is None or value > best_value:
            best_alloc, best_value = alloc, value
    return best_alloc, best_value


def weights_from_ranks_reference(inst, scheme=BORDA):
    n = inst.n
    flat = []
    for i in range(n):
        num_classes = len(inst.prefs[i])
        for j in range(n):
            for k in range(n):
                rank = inst.rank(i, Outcome(j, k))
                if scheme == BORDA:
                    value = (num_classes - 1 - rank) if rank < num_classes else -n * num_classes
                else:
                    value = n ** (num_classes - rank)
                flat.append(value)
    return WeightTable(n=n, scheme=scheme, weights=tuple(flat))


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
    picks = [identity_allocation(inst.n), best]
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


def test_exact_optimizer_matches_the_full_scan_with_its_tie_break():
    for inst in family():
        for scheme in WEIGHT_SCHEMES:
            table = weights_from_ranks(inst, scheme)
            got = solve_exact_max_weight(inst, table)
            assert got == solve_exact_max_weight_reference(inst, table), (inst, scheme)


def test_exact_optimizer_returns_the_identity_when_every_allocation_ties():
    for n in (3, 5):
        inst = all_tied_instance(n)
        for scheme in WEIGHT_SCHEMES:
            alloc, _ = solve_exact_max_weight(inst, weights_from_ranks(inst, scheme))
            assert alloc == identity_allocation(n)


def test_weight_table_matches_the_per_outcome_loop():
    for inst in family():
        for scheme in WEIGHT_SCHEMES:
            assert weights_from_ranks(inst, scheme) == weights_from_ranks_reference(inst, scheme)


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
    assert enumerate_core_stable(inst, node_budget=None) == enumerate_core_stable_reference(inst)
    with pytest.raises(BudgetExceededError):
        enumerate_core_stable(inst, node_budget=1)
