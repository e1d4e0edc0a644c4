"""Weight construction, 0/1 encodings, exporter, and the exact optimizer."""

import sys
import tracemalloc
from itertools import product

import pytest

from tep import (
    Allocation,
    Outcome,
    BudgetExceededError,
    compare,
    export_ilp,
    export_qp,
    is_pareto_optimal,
    make_instance,
    solve_exact_max_weight,
    weights_from_ranks,
)
from tep.axioms import all_allocations
from tep.generators import empty_core_instance, random_instance, sp_instance
from tep.programs import WEIGHT_SCHEMES, Constraint, MathProgram

from references import (
    allocation_value,
    export_ilp_reference,
    export_qp_reference,
    ilp_point,
    is_feasible,
    iter_candidate_points,
    objective_value,
    qp_point,
    to_lp_text_reference,
    weight,
    without_linking,
)

RING = empty_core_instance()
SP = sp_instance()


def ones(point):
    return frozenset(v for v, value in point.items() if value == 1)


# ---------------------------------------------------------------- weights


def test_borda_weights_by_class():
    inst = RING  # every agent has 3 classes
    weights = weights_from_ranks(inst, "borda")
    assert weights == ((2, 1, 0, -15),) * 5  # best class first, then unlisted
    agent = 1
    assert weight(weights, inst, agent, 2, 2) == 2
    assert weight(weights, inst, agent, 0, 0) == 1
    assert weight(weights, inst, agent, 1, 1) == 0  # endowment outcome in the last class
    assert weight(weights, inst, agent, 3, 0) == -15  # unlisted: -n * classes


def test_exponential_weights_by_class():
    weights = weights_from_ranks(RING, "exponential")
    assert weights == ((5 ** 3, 5 ** 2, 5, 1),) * 5
    assert weight(weights, RING, 1, 2, 2) == 5 ** 3
    assert weight(weights, RING, 1, 0, 0) == 5 ** 2
    assert weight(weights, RING, 1, 1, 1) == 5 ** 1
    assert weight(weights, RING, 1, 3, 0) == 1


def test_weights_are_order_consistent():
    outcomes = [Outcome(h, t) for h in range(5) for t in range(5)]
    for scheme in ("borda", "exponential"):
        for inst in (RING, SP):
            nn = inst.n
            pairs = [Outcome(h, t) for h in range(nn) for t in range(nn)]
            weights = weights_from_ranks(inst, scheme)
            for i in range(nn):
                for a in pairs:
                    for b in pairs:
                        c = compare(inst, i, a, b)
                        wa, wb = weight(weights, inst, i, *a), weight(weights, inst, i, *b)
                        if c > 0:
                            assert wa > wb
                        elif c == 0:
                            assert wa == wb


def test_the_exact_solve_builds_no_n3_table_but_its_costs():
    """Weights come per class, so weighing and solving build one n³ table:
    the cost rows, mapped from the prebuilt rank table.  The peak stays
    under 1.5x those rows, where a flat weight tuple beside them doubles
    it."""
    n = 40
    inst = make_instance(n, [[] for _ in range(n)])  # the identity leaf cuts the rest
    inst.rank_table  # built before the measurement
    rows = n * sys.getsizeof([0] * (n * n))
    for scheme in WEIGHT_SCHEMES:
        tracemalloc.start()
        try:
            solve_exact_max_weight(inst, weights_from_ranks(inst, scheme))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows, scheme


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        weights_from_ranks(RING, "plurality")


# ---------------------------------------------------------------- linear encoding


def test_ilp_two_agents_feasible_points_are_the_two_allocations():
    inst = make_instance(2, [[], []])
    weights = weights_from_ranks(inst, "borda")
    program = export_ilp(inst, weights)
    assert len(program.variables) == 8
    allowed = {ones(ilp_point(inst, Allocation((0, 1)))),
               ones(ilp_point(inst, Allocation((1, 0))))}
    feasible = set()
    for bits in product((0, 1), repeat=8):
        point = dict(zip(program.variables, bits))
        if is_feasible(program, point):
            feasible.add(ones(point))
    assert feasible == allowed


def test_ilp_single_agent():
    inst = make_instance(1, [[]])
    program = export_ilp(inst, weights_from_ranks(inst, "borda"))
    assert program.variables == ("x_0_0_0",)
    assert is_feasible(program, {"x_0_0_0": 1})
    assert not is_feasible(program, {"x_0_0_0": 0})
    assert not is_feasible(program, {"x_0_0_0": 2})  # not a 0/1 point


def test_ilp_feasible_points_biject_with_allocations_n3():
    inst = random_instance(3, 0.8, 0.3, 31)
    program = export_ilp(inst, weights_from_ranks(inst, "borda"))
    allocation_points = {ones(ilp_point(inst, a)) for a in all_allocations(3)}
    feasible = {ones(p) for p in iter_candidate_points(program, 3) if is_feasible(program, p)}
    assert feasible == allocation_points
    # a point failing the one-triple-per-agent family is infeasible outright
    zero = {v: 0 for v in program.variables}
    assert not is_feasible(program, zero)
    two = dict(zero)
    two["x_0_0_0"] = 1
    two["x_0_1_1"] = 1
    assert not is_feasible(program, two)


def test_ilp_objective_matches_allocation_value():
    inst = random_instance(4, 0.7, 0.4, 33)
    for scheme in ("borda", "exponential"):
        weights = weights_from_ranks(inst, scheme)
        program = export_ilp(inst, weights)
        for alloc in all_allocations(4):
            assert objective_value(program, ilp_point(inst, alloc)) == \
                allocation_value(weights, inst, alloc)


def test_sp_exponential_optimum_is_the_four_way_trade():
    weights = weights_from_ranks(SP, "exponential")
    program = export_ilp(SP, weights)
    best = max(all_allocations(4),
               key=lambda a: objective_value(program, ilp_point(SP, a)))
    assert best == Allocation((1, 2, 3, 0))
    alloc, value = solve_exact_max_weight(SP, weights)
    assert alloc == Allocation((1, 2, 3, 0))
    assert value == objective_value(program, ilp_point(SP, alloc))


def test_unlinked_variant_admits_a_non_allocation_point():
    # without the linking constraints the tenant indices can describe a
    # different permutation than the houses: exhibited at n=3 and rejected
    # by the repaired program
    inst = random_instance(3, 0.5, 0.2, 35)
    weights = weights_from_ranks(inst, "borda")
    repaired = export_ilp(inst, weights)
    unlinked = without_linking(repaired)
    allocation_points = {ones(ilp_point(inst, a)) for a in all_allocations(3)}
    ghosts = [p for p in iter_candidate_points(unlinked, 3)
              if is_feasible(unlinked, p) and ones(p) not in allocation_points]
    assert ghosts, "printed constraints should admit a non-allocation point"
    assert any(not is_feasible(repaired, p) for p in ghosts)
    assert all(not is_feasible(repaired, p) for p in ghosts)
    # the classic witness: houses follow one 3-cycle, tenants copy it instead
    # of its inverse
    witness = {v: 0 for v in unlinked.variables}
    for i in range(3):
        witness[f"x_{i}_{(i + 1) % 3}_{(i + 1) % 3}"] = 1
    assert is_feasible(unlinked, witness)
    assert ones(witness) not in allocation_points
    assert not is_feasible(repaired, witness)


# ---------------------------------------------------------------- quadratic encoding


def test_qp_single_agent_structure():
    inst = make_instance(1, [[]])
    program = export_qp(inst, weights_from_ranks(inst, "exponential"))
    assert program.variables == ("x_0_0",)
    assert program.objective == ((1, ("x_0_0", "x_0_0")),)


def test_qp_identity_objective_is_endowment_weight_sum():
    for scheme in ("borda", "exponential"):
        weights = weights_from_ranks(SP, scheme)
        program = export_qp(SP, weights)
        point = qp_point(SP, Allocation((0, 1, 2, 3)))
        assert objective_value(program, point) == \
            sum(weight(weights, SP, i, SP.endowment[i], i) for i in range(4))


def test_qp_and_ilp_optima_agree_with_exact_optimizer():
    for seed in (51, 52):
        for n in (2, 3, 4):
            inst = random_instance(n, 0.7, 0.4, seed)
            for scheme in ("borda", "exponential"):
                weights = weights_from_ranks(inst, scheme)
                ilp = export_ilp(inst, weights)
                qp = export_qp(inst, weights)
                _, exact = solve_exact_max_weight(inst, weights)
                ilp_best = max(objective_value(ilp, ilp_point(inst, a))
                               for a in all_allocations(n))
                qp_best = max(objective_value(qp, qp_point(inst, a))
                              for a in all_allocations(n))
                assert ilp_best == exact
                assert qp_best == exact


def test_qp_feasible_points_are_permutation_matrices():
    inst = random_instance(3, 0.6, 0.2, 53)
    program = export_qp(inst, weights_from_ranks(inst, "borda"))
    allocation_points = {ones(qp_point(inst, a)) for a in all_allocations(3)}
    feasible = {ones(p) for p in iter_candidate_points(program, 3) if is_feasible(program, p)}
    assert feasible == allocation_points


# ---------------------------------------------------------------- exact optimizer


def test_exact_single_agent():
    inst = make_instance(1, [[]])
    weights = weights_from_ranks(inst, "borda")
    assert solve_exact_max_weight(inst, weights) == (Allocation((0,)), 0)


def test_exact_on_ring_with_borda_weights():
    weights = weights_from_ranks(RING, "borda")
    alloc, value = solve_exact_max_weight(RING, weights)
    assert value == 6
    assert alloc == Allocation((0, 2, 1, 4, 3))  # smallest argmax: swaps {1,2}, {3,4}
    swaps = [(i, alloc[i]) for i in range(5) if alloc[i] > i]
    assert len(swaps) == 2
    for i, j in swaps:
        assert alloc[j] == i and (j - i) % 5 in (1, 4)


def test_max_weight_allocations_are_pareto_optimal():
    for seed in (61, 62, 63):
        n = 4 + seed % 3
        inst = random_instance(n, 0.6, 0.4, seed)
        for scheme in ("borda", "exponential"):
            weights = weights_from_ranks(inst, scheme)
            _, best = solve_exact_max_weight(inst, weights)
            for alloc in all_allocations(n):
                if allocation_value(weights, inst, alloc) == best:
                    assert is_pareto_optimal(inst, alloc)


def test_exact_bound():
    """The node budget bounds the exact optimizer, not an agent count.  At
    n = 10 with every allocation tied, the first leaf is the identity, and
    every other subtree is cut, so the search makes the 10 internal nodes
    of that path, 10 ticks each."""
    inst = make_instance(10, [[] for _ in range(10)])
    weights = weights_from_ranks(inst, "borda")
    with pytest.raises(BudgetExceededError):
        solve_exact_max_weight(inst, weights, node_budget=99)
    assert solve_exact_max_weight(inst, weights, node_budget=100) == (Allocation(tuple(range(10))), 0)


# ---------------------------------------------------------------- export text


def test_lp_text_is_deterministic_and_sectioned():
    weights = weights_from_ranks(SP, "borda")
    text1 = export_ilp(SP, weights).to_lp_text()
    text2 = export_ilp(SP, weights).to_lp_text()
    assert text1 == text2
    for section in ("maximize", "obj:", "subject to", "binary", "end"):
        assert section in text1
    qp_text = export_qp(SP, weights).to_lp_text()
    assert "x_0_1 * x_" in qp_text


def test_program_validates_variable_references():
    from tep.programs import Constraint, MathProgram

    with pytest.raises(ValueError):
        MathProgram("ilp", ("x_0_0_0",), ((1, ("ghost",)),), ())
    with pytest.raises(ValueError):
        MathProgram("ilp", ("x_0_0_0",), (),
                    (Constraint("c", ((1, "ghost"),), 1),))


# ------------------------------------------- name-table writer vs. reference


def _permuted_instance(n, seed):
    """A random instance with a non-identity endowment, so each agent's own
    house differs from its index."""
    from tep.rng import SplitMix64

    inst = random_instance(n, 0.5, 0.4, seed)
    endowment = list(range(n))
    SplitMix64(seed).shuffle(endowment)
    return make_instance(n, inst.prefs, endowment)


@pytest.mark.parametrize("n", range(1, 13))
def test_exports_match_the_reference_writer_byte_for_byte(n):
    for seed, scheme in product((n, 100 + n), ("borda", "exponential")):
        inst = _permuted_instance(n, seed)
        weights = weights_from_ranks(inst, scheme)
        pairs = [(export_qp(inst, weights), export_qp_reference(inst, weights)),
                 (export_ilp(inst, weights), export_ilp_reference(inst, weights)),
                 (without_linking(export_ilp(inst, weights)),
                  export_ilp_reference(inst, weights, linking=False))]
        for program, reference in pairs:
            assert program == reference
            assert program.to_lp_text() == to_lp_text_reference(reference)


@pytest.mark.parametrize("objective,terms", [
    ((), ()),
    (((5, ()), (1, ()), (-1, ()), (0, ("a",))), ((1, "a"), (-1, "b"), (0, "a"), (-7, "b"))),
    (((-1, ("a", "b")), (1, ("b",)), (3, ("a", "b"))), ((2, "b"),)),
    (((1, ("",)), (1, ()), (-1, ("", "a"))), ((1, ""), (-1, ""))),
], ids=["empty", "constants-and-zeros", "negative-first", "empty-names"])
def test_lp_text_of_odd_terms_matches_the_reference(objective, terms):
    program = MathProgram("qp", ("a", "b", ""), objective,
                          (Constraint("c", terms, 1), Constraint("d", (), 0)))
    assert program.to_lp_text() == to_lp_text_reference(program)
