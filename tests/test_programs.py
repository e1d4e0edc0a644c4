"""Weight construction, 0/1 encodings, exporter, and the exact optimizer."""

from itertools import product

import pytest

from tep import (
    Allocation,
    Outcome,
    OracleLimitError,
    all_allocations,
    compare,
    export_ilp,
    export_qp,
    identity_allocation,
    ilp_point,
    is_pareto_optimal,
    make_instance,
    qp_point,
    solve_exact_max_weight,
    weights_from_ranks,
)
from tep.generators import empty_core_instance, random_instance, sp_instance

from references import iter_candidate_points

RING = empty_core_instance()
SP = sp_instance()


def ones(point):
    return frozenset(v for v, value in point.items() if value == 1)


# ---------------------------------------------------------------- weights


def test_borda_weights_by_class():
    inst = RING  # every agent has 3 classes
    table = weights_from_ranks(inst, "borda")
    agent = 1
    assert table.weight(agent, 2, 2) == 2
    assert table.weight(agent, 0, 0) == 1
    assert table.weight(agent, 1, 1) == 0  # endowment outcome in the last class
    assert table.weight(agent, 3, 0) == -15  # unlisted: -n * classes


def test_exponential_weights_by_class():
    table = weights_from_ranks(RING, "exponential")
    assert table.weight(1, 2, 2) == 5 ** 3
    assert table.weight(1, 0, 0) == 5 ** 2
    assert table.weight(1, 1, 1) == 5 ** 1
    assert table.weight(1, 3, 0) == 1


def test_weights_are_order_consistent():
    outcomes = [Outcome(h, t) for h in range(5) for t in range(5)]
    for scheme in ("borda", "exponential"):
        for inst in (RING, SP):
            nn = inst.n
            pairs = [Outcome(h, t) for h in range(nn) for t in range(nn)]
            table = weights_from_ranks(inst, scheme)
            for i in range(nn):
                for a in pairs:
                    for b in pairs:
                        c = compare(inst, i, a, b)
                        wa, wb = table.weight(i, *a), table.weight(i, *b)
                        if c > 0:
                            assert wa > wb
                        elif c == 0:
                            assert wa == wb


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        weights_from_ranks(RING, "plurality")


# ---------------------------------------------------------------- linear encoding


def test_ilp_two_agents_feasible_points_are_the_two_allocations():
    inst = make_instance(2, [[], []])
    table = weights_from_ranks(inst, "borda")
    program = export_ilp(inst, table)
    assert len(program.variables) == 8
    allowed = {ones(ilp_point(inst, Allocation((0, 1)))),
               ones(ilp_point(inst, Allocation((1, 0))))}
    feasible = set()
    for bits in product((0, 1), repeat=8):
        point = dict(zip(program.variables, bits))
        if program.is_feasible(point):
            feasible.add(ones(point))
    assert feasible == allowed


def test_ilp_single_agent():
    inst = make_instance(1, [[]])
    program = export_ilp(inst, weights_from_ranks(inst, "borda"))
    assert program.variables == ("x_0_0_0",)
    assert program.is_feasible({"x_0_0_0": 1})
    assert not program.is_feasible({"x_0_0_0": 0})


def test_ilp_feasible_points_biject_with_allocations_n3():
    inst = random_instance(3, 0.8, 0.3, 31)
    program = export_ilp(inst, weights_from_ranks(inst, "borda"))
    allocation_points = {ones(ilp_point(inst, a)) for a in all_allocations(3)}
    feasible = {ones(p) for p in iter_candidate_points(program, 3) if program.is_feasible(p)}
    assert feasible == allocation_points
    # a point failing the one-triple-per-agent family is infeasible outright
    zero = {v: 0 for v in program.variables}
    assert not program.is_feasible(zero)
    two = dict(zero)
    two["x_0_0_0"] = 1
    two["x_0_1_1"] = 1
    assert not program.is_feasible(two)


def test_ilp_objective_matches_allocation_value():
    inst = random_instance(4, 0.7, 0.4, 33)
    for scheme in ("borda", "exponential"):
        table = weights_from_ranks(inst, scheme)
        program = export_ilp(inst, table)
        for alloc in all_allocations(4):
            assert program.objective_value(ilp_point(inst, alloc)) == \
                table.allocation_value(inst, alloc)


def test_sp_exponential_optimum_is_the_four_way_trade():
    table = weights_from_ranks(SP, "exponential")
    program = export_ilp(SP, table)
    best = max(all_allocations(4),
               key=lambda a: program.objective_value(ilp_point(SP, a)))
    assert best == Allocation((1, 2, 3, 0))
    alloc, value = solve_exact_max_weight(SP, table)
    assert alloc == Allocation((1, 2, 3, 0))
    assert value == program.objective_value(ilp_point(SP, alloc))


def test_unlinked_variant_admits_a_non_allocation_point():
    # without the linking constraints the tenant indices can describe a
    # different permutation than the houses: exhibited at n=3 and rejected
    # by the repaired program
    inst = random_instance(3, 0.5, 0.2, 35)
    table = weights_from_ranks(inst, "borda")
    unlinked = export_ilp(inst, table, linking=False)
    repaired = export_ilp(inst, table)
    allocation_points = {ones(ilp_point(inst, a)) for a in all_allocations(3)}
    ghosts = [p for p in iter_candidate_points(unlinked, 3)
              if unlinked.is_feasible(p) and ones(p) not in allocation_points]
    assert ghosts, "printed constraints should admit a non-allocation point"
    assert any(not repaired.is_feasible(p) for p in ghosts)
    assert all(not repaired.is_feasible(p) for p in ghosts)
    # the classic witness: houses follow one 3-cycle, tenants copy it instead
    # of its inverse
    witness = {v: 0 for v in unlinked.variables}
    for i in range(3):
        witness[f"x_{i}_{(i + 1) % 3}_{(i + 1) % 3}"] = 1
    assert unlinked.is_feasible(witness)
    assert ones(witness) not in allocation_points
    assert not repaired.is_feasible(witness)


# ---------------------------------------------------------------- quadratic encoding


def test_qp_single_agent_structure():
    inst = make_instance(1, [[]])
    program = export_qp(inst, weights_from_ranks(inst, "exponential"))
    assert program.variables == ("x_0_0",)
    assert program.objective == ((1, ("x_0_0", "x_0_0")),)


def test_qp_identity_objective_is_endowment_weight_sum():
    for scheme in ("borda", "exponential"):
        table = weights_from_ranks(SP, scheme)
        program = export_qp(SP, table)
        point = qp_point(SP, identity_allocation(4))
        assert program.objective_value(point) == \
            sum(table.weight(i, SP.endowment[i], i) for i in range(4))


def test_qp_and_ilp_optima_agree_with_exact_optimizer():
    for seed in (51, 52):
        for n in (2, 3, 4):
            inst = random_instance(n, 0.7, 0.4, seed)
            for scheme in ("borda", "exponential"):
                table = weights_from_ranks(inst, scheme)
                ilp = export_ilp(inst, table)
                qp = export_qp(inst, table)
                _, exact = solve_exact_max_weight(inst, table)
                ilp_best = max(ilp.objective_value(ilp_point(inst, a))
                               for a in all_allocations(n))
                qp_best = max(qp.objective_value(qp_point(inst, a))
                              for a in all_allocations(n))
                assert ilp_best == exact
                assert qp_best == exact


def test_qp_feasible_points_are_permutation_matrices():
    inst = random_instance(3, 0.6, 0.2, 53)
    program = export_qp(inst, weights_from_ranks(inst, "borda"))
    allocation_points = {ones(qp_point(inst, a)) for a in all_allocations(3)}
    feasible = {ones(p) for p in iter_candidate_points(program, 3) if program.is_feasible(p)}
    assert feasible == allocation_points


# ---------------------------------------------------------------- exact optimizer


def test_exact_single_agent():
    inst = make_instance(1, [[]])
    table = weights_from_ranks(inst, "borda")
    assert solve_exact_max_weight(inst, table) == (identity_allocation(1), 0)


def test_exact_on_ring_with_borda_weights():
    table = weights_from_ranks(RING, "borda")
    alloc, value = solve_exact_max_weight(RING, table)
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
            table = weights_from_ranks(inst, scheme)
            _, best = solve_exact_max_weight(inst, table)
            for alloc in all_allocations(n):
                if table.allocation_value(inst, alloc) == best:
                    assert is_pareto_optimal(inst, alloc)


def test_exact_bound():
    inst = make_instance(10, [[] for _ in range(10)])
    with pytest.raises(OracleLimitError):
        solve_exact_max_weight(inst, weights_from_ranks(inst, "borda"))


# ---------------------------------------------------------------- export text


def test_lp_text_is_deterministic_and_sectioned():
    table = weights_from_ranks(SP, "borda")
    text1 = export_ilp(SP, table).to_lp_text()
    text2 = export_ilp(SP, table).to_lp_text()
    assert text1 == text2
    for section in ("maximize", "obj:", "subject to", "binary", "end"):
        assert section in text1
    qp_text = export_qp(SP, table).to_lp_text()
    assert "x_0_1 * x_" in qp_text


def test_program_validates_variable_references():
    from tep.programs import Constraint, MathProgram

    with pytest.raises(ValueError):
        MathProgram("ilp", ("x_0_0_0",), ((1, ("ghost",)),), ())
    with pytest.raises(ValueError):
        MathProgram("ilp", ("x_0_0_0",), (),
                    (Constraint("c", ((1, "ghost"),), "=", 1),))
