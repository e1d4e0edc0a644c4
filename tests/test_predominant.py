"""Lexicographic predominant preferences and the trading-cycle mechanisms."""

import re

import pytest

from tep import (
    Allocation,
    HOUSE,
    TENANT,
    Outcome,
    PredominantProfile,
    compare,
    is_core_stable,
    is_individually_rational,
    is_pareto_optimal,
    lex_compare,
    ttc,
    tttc,
)
from tep.generators import random_predominant_profile
from tep.incentives import find_manipulation, strict_primary_reports
from tep.predominant import _trade_cycles
from tep.rng import SplitMix64

from references import lex_instance, trade_cycles_reference


def house_profile(primary, tiebreak=None):
    n = len(primary)
    tb = tiebreak or [[list(range(n))] for _ in range(n)]
    return PredominantProfile(
        n, tuple(range(n)), HOUSE,
        tuple(tuple(p) for p in primary),
        tuple(tuple(frozenset(c) for c in t) for t in tb),
    )


def tenant_profile(primary, tiebreak=None):
    n = len(primary)
    tb = tiebreak or [[list(range(n))] for _ in range(n)]
    return PredominantProfile(
        n, tuple(range(n)), TENANT,
        tuple(tuple(p) for p in primary),
        tuple(tuple(frozenset(c) for c in t) for t in tb),
    )


def test_profile_validation():
    with pytest.raises(ValueError):
        house_profile([[0, 0, 1], [0, 1, 2], [0, 1, 2]])  # not strict
    with pytest.raises(ValueError):
        PredominantProfile(2, (0, 1), "diagonal", ((0, 1), (0, 1)),
                           ((frozenset({0, 1}),), (frozenset({0, 1}),)))
    with pytest.raises(ValueError):
        house_profile([[0, 1], [1, 0]], tiebreak=[[[0]], [[0, 1]]])  # not a partition
    both = (frozenset({0, 1}),)
    for primary, tiebreak in ((((0, 1),), (both, both)), (((0, 1), (0, 1)), (both,))):
        with pytest.raises(ValueError, match="^need one primary order and one tie-break per"):
            PredominantProfile(2, (0, 1), HOUSE, primary, tiebreak)  # one list short


def test_lex_instance_orders_outcomes():
    prof = house_profile([[1, 0], [0, 1]], tiebreak=[[[1], [0]], [[0, 1]]])
    inst = lex_instance(prof)
    # primary decides regardless of the tie-break side
    for k in range(2):
        for kp in range(2):
            assert compare(inst, 0, Outcome(1, k), Outcome(0, kp)) > 0
    # equal primary: the tie-break decides
    assert compare(inst, 0, Outcome(1, 1), Outcome(1, 0)) > 0
    # all outcomes listed, endowment included
    assert len(inst.listed_outcomes(0)) == 4


def test_lex_instance_matches_direct_lexicographic_compare():
    for seed in range(8):
        n = 2 + seed % 4
        mode = HOUSE if seed % 2 == 0 else TENANT
        prof = random_predominant_profile(n, mode, 0.4, 600 + seed)
        inst = lex_instance(prof)
        outcomes = [Outcome(h, t) for h in range(n) for t in range(n)]
        for agent in range(n):
            for a in outcomes:
                for b in outcomes:
                    assert compare(inst, agent, a, b) == lex_compare(prof, agent, a, b)


def test_ttc_self_loving_agents_stay_home():
    prof = house_profile([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    assert ttc(prof) == Allocation((0, 1, 2))


def test_ttc_two_agent_swap():
    prof = house_profile([[1, 0], [0, 1]])
    assert ttc(prof) == Allocation((1, 0))


def test_ttc_requires_house_mode():
    prof = tenant_profile([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ttc(prof)
    with pytest.raises(ValueError):
        tttc(house_profile([[1, 0], [0, 1]]))


def test_tttc_self_loving_owners_stay_home():
    prof = tenant_profile([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    assert tttc(prof) == Allocation((0, 1, 2))


def test_tttc_two_agent_swap():
    prof = tenant_profile([[1, 0], [0, 1]])
    assert tttc(prof) == Allocation((1, 0))


def test_outputs_core_stable_and_po_under_lex_order():
    for seed in range(40):
        n = 2 + seed % 5
        hp = random_predominant_profile(n, HOUSE, 0.4, 700 + seed)
        alloc = ttc(hp)
        inst = lex_instance(hp)
        assert is_core_stable(inst, alloc)
        assert is_pareto_optimal(inst, alloc)
        tp = random_predominant_profile(n, TENANT, 0.4, 800 + seed)
        alloc = tttc(tp)
        inst = lex_instance(tp)
        assert is_core_stable(inst, alloc)
        assert is_pareto_optimal(inst, alloc)


def test_cycle_selection_order_does_not_matter():
    # the walk starts at the lowest remaining agent; the reference walk from
    # the highest one removes the cycles in another order
    for seed in range(25):
        n = 2 + seed % 5
        hp = random_predominant_profile(n, HOUSE, 0.4, 900 + seed)
        assert ttc(hp) == trade_cycles_reference(hp, "max", True)[0]
        tp = random_predominant_profile(n, TENANT, 0.4, 950 + seed)
        assert tttc(tp) == trade_cycles_reference(tp, "max", False)[0]


def check_round_structure(prof, alloc, rounds):
    """The rounds partition the agents, and an agent removed in round k gets
    a house it weakly prefers to every house removed in round k or later."""
    n = prof.n
    assert sorted(a for cycle in rounds for a in cycle) == list(range(n))
    rank = [{h: r for r, h in enumerate(prof.primary[i])} for i in range(n)]
    for k, cycle in enumerate(rounds):
        later_houses = [prof.endowment[a] for c in rounds[k:] for a in c]
        for agent in cycle:
            assert all(rank[agent][alloc[agent]] <= rank[agent][h] for h in later_houses)


def test_round_structure():
    # the rounds are the reference walk's, once its allocation is ttc's
    for seed in range(15):
        n = 3 + seed % 4
        prof = random_predominant_profile(n, HOUSE, 0.4, 1000 + seed)
        alloc, rounds = trade_cycles_reference(prof, "min", True)
        assert ttc(prof) == alloc
        check_round_structure(prof, alloc, rounds)


def test_tttc_is_relabeled_ttc_on_the_swapped_problem():
    for seed in range(20):
        n = 2 + seed % 5
        tp = random_predominant_profile(n, TENANT, 0.4, 1100 + seed)
        dual = PredominantProfile(n, tuple(range(n)), HOUSE, tp.primary, tp.tiebreak)
        d = ttc(dual)
        assert tttc(tp).assignment == d.inverse


def permuted_profiles():
    """Seeded profiles in both modes, n = 1..7 and a few at n = 30-60, each
    with its endowment shuffled (the generator always endows the identity).
    The generator stops at n = 12, so the large ones draw their primary
    orders here and break every tie with one class."""
    sizes = [n for n in range(1, 8) for _ in range(16)] + [30, 45, 60]
    for k, n in enumerate(sizes):
        rng = SplitMix64(1500 + k)
        endowment = list(range(n))
        rng.shuffle(endowment)
        for mode in (HOUSE, TENANT):
            if n <= 12:
                prof = random_predominant_profile(n, mode, 0.4, 1400 + k)
                primary, tiebreak = prof.primary, prof.tiebreak
            else:
                orders = [list(range(n)) for _ in range(n)]
                for order in orders:
                    rng.shuffle(order)
                primary = tuple(map(tuple, orders))
                tiebreak = ((frozenset(range(n)),),) * n
            yield PredominantProfile(n, tuple(endowment), mode, primary, tiebreak)


def test_one_walk_matches_the_two_branch_reference_on_permuted_endowments():
    profiles = list(permuted_profiles())
    assert sum(not p.is_canonical() for p in profiles) > len(profiles) // 2
    for prof in profiles:
        house_mode = prof.mode == HOUSE
        mechanism = ttc if house_mode else tttc
        alloc, rounds = trade_cycles_reference(prof, "min", house_mode)
        assert _trade_cycles(prof) == alloc
        assert mechanism(prof) == alloc
        assert trade_cycles_reference(prof, "max", house_mode)[0] == alloc
        if house_mode:
            check_round_structure(prof, alloc, rounds)


def test_outputs_ir_core_stable_and_po_on_permuted_endowments():
    for prof in permuted_profiles():
        if not 2 <= prof.n <= 6:
            continue
        alloc = (ttc if prof.mode == HOUSE else tttc)(prof)
        inst = lex_instance(prof)
        assert is_individually_rational(inst, alloc)
        assert is_core_stable(inst, alloc)
        assert is_pareto_optimal(inst, alloc)


def test_no_profitable_primary_misreport_small():
    for seed in range(10):
        n = 2 + seed % 2
        hp = random_predominant_profile(n, HOUSE, 0.5, 1200 + seed)
        tp = random_predominant_profile(n, TENANT, 0.5, 1300 + seed)
        for agent in range(n):
            assert find_manipulation(ttc, hp, agent, strict_primary_reports(n)) is None
            assert find_manipulation(tttc, tp, agent, strict_primary_reports(n)) is None


@pytest.mark.parametrize("agent, a, b, message", [
    (-1, (0, 0), (1, 1), "no agent -1"),
    (3, (0, 0), (1, 1), "no agent 3"),
    (0, (0, 5), (1, 1), "outcome (0,5) out of range for 3 agents"),
    (0, (0, 0), (-1, 1), "outcome (-1,1) out of range for 3 agents"),
])
def test_lex_compare_checks_the_agent_and_the_outcomes(agent, a, b, message):
    prof = random_predominant_profile(3, HOUSE, 0.3, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        lex_compare(prof, agent, a, b)
    with pytest.raises(ValueError, match=re.escape(message)):
        prof.prefers(agent, a, b)


def test_with_report_checks_the_agent_index():
    prof = random_predominant_profile(3, HOUSE, 0.3, 1)
    report = (2, 0, 1)
    for agent in (-1, 3, 4):
        with pytest.raises(ValueError, match=f"no agent {agent}"):
            prof.with_report(agent, report)
    got = prof.with_report(2, report)
    assert got.primary == prof.primary[:2] + (report,)
    assert (got.n, got.endowment, got.mode, got.tiebreak) == (
        prof.n, prof.endowment, prof.mode, prof.tiebreak)
