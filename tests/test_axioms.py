"""Axiom oracles, cross-checked against unpruned exhaustive searches."""

from itertools import combinations, permutations

import pytest

from tep import (
    Allocation,
    BlockingWitness,
    BudgetExceededError,
    Outcome,
    core_exists,
    enumerate_core_stable,
    enumerate_ir_allocations,
    enumerate_ir_pareto_optimal,
    find_blocking_coalition,
    find_top_allocation,
    is_core_stable,
    is_individually_rational,
    is_pareto_optimal,
    is_weakly_pareto_optimal,
    make_instance,
    outcome_of,
)
from tep.axioms import all_allocations
from tep.generators import (
    empty_core_instance,
    make_x3c,
    random_instance,
    sp_instance,
    x3c_core_instance,
    x3c_top_instance,
)

from references import pareto_dominates, witness_blocks

RING = empty_core_instance()
SP = sp_instance()


def unique_top_instance(n=4):
    """Every agent's single listed outcome is its endowment outcome."""
    return make_instance(n, [[] for _ in range(n)])


def exhaustive_blocking(inst, alloc):
    """Independent oracle: scan coalitions by size, then all internal
    bijections, no pruning.  Returns (coalition, size) of the first blocker."""
    current = [outcome_of(inst, alloc, i) for i in range(inst.n)]
    for size in range(1, inst.n + 1):
        for coalition in combinations(range(inst.n), size):
            houses = [inst.endowment[m] for m in coalition]
            for perm in permutations(houses):
                internal = dict(zip(coalition, perm))
                receiver = {h: m for m, h in internal.items()}
                if all(
                    inst.rank(m, Outcome(internal[m], receiver[inst.endowment[m]]))
                    < inst.rank(m, current[m])
                    for m in coalition
                ):
                    return coalition, size
    return None


# ---------------------------------------------------------------- IR


def test_ir_identity_always_holds():
    for inst in (RING, SP, random_instance(5, 0.5, 0.5, 3)):
        assert is_individually_rational(inst, Allocation(tuple(range(inst.n))))


def test_ir_ring_swaps():
    swap_02 = Allocation((2, 1, 0, 3, 4))
    assert not is_individually_rational(RING, swap_02)  # agent 0 gets unlisted (2,2)
    swap_01 = Allocation((1, 0, 2, 3, 4))
    assert is_individually_rational(RING, swap_01)


# ---------------------------------------------------------------- dominance


def test_dominance_is_irreflexive():
    assert not pareto_dominates(SP, Allocation((1, 2, 3, 0)), Allocation((1, 2, 3, 0)))


def test_sp_trade_dominates_identity():
    assert pareto_dominates(SP, Allocation((1, 2, 3, 0)), Allocation((0, 1, 2, 3)))


def test_dominance_matches_definition_on_random_instance():
    inst = random_instance(4, 0.7, 0.3, 9)

    def direct(q, p):
        better = [inst.rank(i, outcome_of(inst, q, i)) - inst.rank(i, outcome_of(inst, p, i))
                  for i in range(4)]
        return all(d <= 0 for d in better) and any(d < 0 for d in better)

    allocs = list(all_allocations(4))
    for q in allocs[::3]:
        for p in allocs[::4]:
            assert pareto_dominates(inst, q, p) == direct(q, p)


def test_dominance_transitive_on_samples():
    inst = random_instance(4, 0.8, 0.5, 17)
    allocs = list(all_allocations(4))
    for a in allocs[::4]:
        for b in allocs[::3]:
            for c in allocs[::5]:
                if pareto_dominates(inst, a, b) and pareto_dominates(inst, b, c):
                    assert pareto_dominates(inst, a, c)


# ---------------------------------------------------------------- PO / weak PO


def test_sp_trade_allocation_is_pareto_optimal():
    assert is_pareto_optimal(SP, Allocation((1, 2, 3, 0)))


def test_single_agent_identity_is_po():
    one = make_instance(1, [[]])
    assert is_pareto_optimal(one, Allocation((0,)))


def test_ring_identity_is_not_po():
    assert not is_pareto_optimal(RING, Allocation((0, 1, 2, 3, 4)))


def test_po_bound_is_enforced():
    """The node budget bounds the Pareto check: the 15-agent gadget answers
    within the default budget, and a budget of 0 stops it at its root."""
    inst = x3c_core_instance(make_x3c(1, [(0, 1, 2)] * 3))
    assert not is_pareto_optimal(inst, Allocation(tuple(range(inst.n))))
    with pytest.raises(BudgetExceededError):
        is_pareto_optimal(inst, Allocation(tuple(range(inst.n))), node_budget=0)


@pytest.mark.parametrize("enumerate_", [enumerate_ir_pareto_optimal, enumerate_core_stable,
                                        lambda inst: enumerate_ir_pareto_optimal(inst)[0]],
                         ids=["ir-pareto", "core", "first-ir-pareto-mechanism"])
def test_ir_pareto_and_core_enumerations_answer_above_n_8(enumerate_):
    """No agent count bounds these: at n = 9 the identity is the one IR
    allocation, found within the default node budget."""
    found = enumerate_(unique_top_instance(9))
    assert found in ([Allocation(tuple(range(9)))], Allocation(tuple(range(9))))


@pytest.mark.parametrize("enumerate_", [enumerate_ir_pareto_optimal, enumerate_core_stable],
                         ids=["ir-pareto", "core"])
def test_ir_pareto_and_core_enumerations_run_under_the_node_budget(enumerate_):
    """The search for the IR allocations charges n ticks at each internal
    node: at n = 9 it needs 14,337 in all, and one fewer stops it."""
    inst = unique_top_instance(9)
    with pytest.raises(BudgetExceededError):
        enumerate_(inst, node_budget=14_336)
    assert enumerate_(inst, node_budget=14_337) == [Allocation(tuple(range(9)))]


def test_po_implies_weak_po():
    inst = random_instance(4, 0.8, 0.4, 23)
    for alloc in all_allocations(4):
        if is_pareto_optimal(inst, alloc):
            assert is_weakly_pareto_optimal(inst, alloc)


def test_weak_po_on_cover_gadgets():
    yes = x3c_top_instance(make_x3c(1, [(0, 1, 2)] * 3))
    assert not is_weakly_pareto_optimal(yes, Allocation((0, 1, 2)))


# ---------------------------------------------------------------- blocking / core


def test_ring_identity_blocked_by_adjacent_pair():
    witness = find_blocking_coalition(RING, Allocation((0, 1, 2, 3, 4)))
    assert witness is not None
    assert witness.coalition == (0, 1)
    assert dict(witness.internal) == {0: 1, 1: 0}
    assert witness_blocks(RING, Allocation((0, 1, 2, 3, 4)), witness)


def test_a_tampered_witness_does_not_block():
    """witness_blocks re-checks a witness against the definitions: each way
    of spoiling the ring's adjacent-pair witness {0: 1, 1: 0} is refused."""
    identity = Allocation((0, 1, 2, 3, 4))
    assert witness_blocks(RING, identity, BlockingWitness((0, 1), ((0, 1), (1, 0))))
    tampered = [
        BlockingWitness((0, 1), ((0, 1), (2, 0))),  # internal names non-member 2
        BlockingWitness((0, 1), ((0, 1), (1, 2))),  # house 2 is no member's endowment
        BlockingWitness((0, 2), ((0, 2), (2, 0))),  # agent 0 gets (2,2), which it does not list
    ]
    for witness in tampered:
        assert not witness_blocks(RING, identity, witness), witness


def test_unique_top_instance_has_no_blocking():
    inst = unique_top_instance()
    assert find_blocking_coalition(inst, Allocation((0, 1, 2, 3))) is None
    assert is_core_stable(inst, Allocation((0, 1, 2, 3)))


def test_blocking_agrees_with_unpruned_search():
    for seed in range(12):
        inst = random_instance(5, 0.55, 0.3, 100 + seed)
        for alloc in (Allocation((0, 1, 2, 3, 4)), Allocation((1, 0, 3, 2, 4)),
                      Allocation((4, 2, 1, 3, 0))):
            expected = exhaustive_blocking(inst, alloc)
            witness = find_blocking_coalition(inst, alloc)
            if expected is None:
                assert witness is None
            else:
                coalition, size = expected
                assert witness is not None
                assert len(witness.coalition) == size
                assert witness.coalition == coalition
                assert witness_blocks(inst, alloc, witness)


def test_two_agent_mutual_swap_core_stable():
    inst = make_instance(2, [[[Outcome(1, 1)]], [[Outcome(0, 0)]]])
    swap = Allocation((1, 0))
    assert exhaustive_blocking(inst, swap) is None
    assert is_core_stable(inst, swap)


def test_every_ring_ir_allocation_is_blocked():
    for alloc in enumerate_ir_allocations(RING):
        assert not is_core_stable(RING, alloc)


# ---------------------------------------------------------------- IR enumeration


def test_ring_ir_allocations_structure():
    allocs = enumerate_ir_allocations(RING)
    assert len(allocs) == 11
    for alloc in allocs:
        moved = [i for i in range(5) if alloc[i] != i]
        # only fixed points and adjacent swaps
        for i in moved:
            j = alloc[i]
            assert alloc[j] == i
            assert (i - j) % 5 in (1, 4)


def test_ir_enumeration_matches_full_filter():
    for n, seed in ((5, 41), (6, 42), (7, 43)):
        inst = random_instance(n, 0.45, 0.3, seed)
        fast = {a.assignment for a in enumerate_ir_allocations(inst)}
        slow = {a.assignment for a in all_allocations(n)
                if is_individually_rational(inst, a)}
        assert fast == slow


def test_unique_top_ir_is_identity_only():
    inst = unique_top_instance(5)
    assert [a.assignment for a in enumerate_ir_allocations(inst)] == [(0, 1, 2, 3, 4)]


def test_ir_enumeration_budget():
    inst = random_instance(7, 0.9, 0.1, 8)
    with pytest.raises(BudgetExceededError):
        enumerate_ir_allocations(inst, node_budget=20)


# ---------------------------------------------------------------- core search


def test_ring_has_empty_core():
    assert core_exists(RING) is None


def test_unique_top_core_is_identity():
    inst = unique_top_instance(4)
    found = core_exists(inst)
    assert found == Allocation((0, 1, 2, 3))


def test_core_search_agrees_with_enumeration_on_small_instances():
    for seed in range(10):
        inst = random_instance(4, 0.6, 0.4, 300 + seed)
        stable = [a for a in all_allocations(4) if is_core_stable(inst, a)]
        found = core_exists(inst)
        assert (found is not None) == bool(stable)
        if found is not None:
            assert is_core_stable(inst, found)
            assert is_individually_rational(inst, found)


def test_cover_gadget_core_matches_cover_answer():
    yes = make_x3c(1, [(0, 1, 2)] * 3)
    inst = x3c_core_instance(yes)
    found = core_exists(inst)
    assert found is not None
    assert is_individually_rational(inst, found)
    assert is_core_stable(inst, found)


def test_core_stable_implies_ir():
    for alloc in all_allocations(4):
        if is_core_stable(SP, alloc):
            assert is_individually_rational(SP, alloc)


# ---------------------------------------------------------------- top allocations


def test_top_allocation_on_cover_instances():
    yes = x3c_top_instance(make_x3c(1, [(0, 1, 2)] * 3))
    found = find_top_allocation(yes)
    assert found is not None
    for i in range(yes.n):
        assert yes.rank(i, outcome_of(yes, found, i)) == 0


def test_top_allocation_none_when_tops_conflict():
    # both agents' only top outcome is taking the other's house while
    # keeping their own tenant slot for themselves: impossible together
    inst = make_instance(2, [[[Outcome(1, 0)]], [[Outcome(0, 1)]]])
    assert find_top_allocation(inst) is None


# ---------------------------------------------------------------- IR+PO sets


def test_sp_ir_pareto_set():
    irpo = {a.assignment for a in enumerate_ir_pareto_optimal(SP)}
    assert irpo == {(1, 2, 3, 0), (3, 2, 1, 0)}
