"""Misreport search and the impossibility replays."""

import pytest

from tep import (
    Allocation,
    BudgetExceededError,
    Outcome,
    ProofError,
    compare,
    enumerate_core_stable,
    enumerate_ir_pareto_optimal,
    find_manipulation,
    is_core_stable,
    sublist_reports,
    ttc,
    verify_core_consistency_impossibility,
    verify_sp_impossibility_tree,
)
from tep.generators import (
    random_predominant_profile,
    random_responsive_profile,
    sp_instance,
)
from tep.incentives import component_order_reports, strict_primary_reports
from tep.responsive import pra_rs

from references import find_manipulation_reference

SP = sp_instance()
P = Allocation((1, 2, 3, 0))
Q = Allocation((3, 2, 1, 0))


def first_ir_pareto_mechanism(inst):
    """The lexicographically first IR + Pareto-optimal allocation."""
    return enumerate_ir_pareto_optimal(inst)[0]


def q_pinning_mechanism(inst):
    """Q on the witness market, the first IR + Pareto-optimal allocation on
    every other market."""
    return Q if inst == SP else first_ir_pareto_mechanism(inst)


def test_single_agent_market_has_no_manipulation():
    from tep.model import make_instance

    inst = make_instance(1, [[]])
    mech = first_ir_pareto_mechanism
    assert find_manipulation(mech, inst, 0, sublist_reports(inst, 0)) is None


def test_replayed_truncation_beats_q_pinning_mechanism():
    mech = q_pinning_mechanism
    candidates = [[[Outcome(3, 3)], [Outcome(2, 2)]]]
    witness = find_manipulation(mech, SP, 2, candidates)
    assert witness is not None
    assert witness.outcome_before == Outcome(1, 1)
    assert witness.outcome_after == Outcome(3, 3)
    # the witness is checked against the true preferences
    assert compare(SP, 2, witness.outcome_after, witness.outcome_before) > 0


def test_manipulation_search_is_deterministic():
    mech = q_pinning_mechanism
    reports = list(sublist_reports(SP, 2))
    first = find_manipulation(mech, SP, 2, reports)
    second = find_manipulation(mech, SP, 2, reports)
    assert first == second
    assert first is not None


def test_ttc_has_no_manipulation_under_full_strict_space():
    for seed in (1, 2, 3):
        prof = random_predominant_profile(4, "house", 0.5, seed)
        for agent in range(4):
            assert find_manipulation(ttc, prof, agent, strict_primary_reports(4)) is None


def test_report_cap_is_enforced():
    # ttc admits no profitable misreport, so the search would scan all 24
    # strict orders; a smaller cap has to trip first
    prof = random_predominant_profile(4, "house", 0.5, 4)
    with pytest.raises(BudgetExceededError):
        find_manipulation(ttc, prof, 0, strict_primary_reports(4), max_reports=3)


def test_refinement_mechanism_search_runs_and_validates():
    # the refinement algorithm carries no strategyproofness claim either
    # way; the search must run deterministically and any witness must be a
    # genuine strict improvement
    prof = random_responsive_profile(3, 0.8, 0.3, 77)
    mech = lambda p: pra_rs(p).allocation
    reports = list(component_order_reports(prof, 0))
    w1 = find_manipulation(mech, prof, 0, reports, max_reports=10_000)
    w2 = find_manipulation(mech, prof, 0, reports, max_reports=10_000)
    assert w1 == w2
    if w1 is not None:
        from tep.responsive import RsOrdering, rs_compare

        assert rs_compare(prof, 0, w1.outcome_after, w1.outcome_before) is RsOrdering.BETTER


# ---------------------------------------------------------------- proof replays


def test_sp_tree_closes_and_flags_the_extra_branch():
    report = verify_sp_impossibility_tree()
    text = str(report)
    assert "all branches closed" in text
    assert "published analysis expects 1" in text
    # branch count: root line, q-branch close, discrepancy note, repair
    # close, p-branch close, s-branch close, final line
    assert len(report.lines) == 7


def test_core_consistency_tree_closes():
    report = verify_core_consistency_impossibility()
    assert "all branches closed" in str(report)


def test_sp_instance_root_sets():
    irpo = set(enumerate_ir_pareto_optimal(SP))
    assert irpo == {P, Q}
    core = set(enumerate_core_stable(SP))
    assert core == {P, Q}
    assert core <= irpo
    assert not is_core_stable(SP, Allocation((0, 1, 2, 3)))


def test_misreported_subinstances_match_the_replay():
    report_2 = [[Outcome(3, 3)], [Outcome(2, 2)]]
    inst2 = SP.with_report(2, report_2)
    irpo2 = {a.assignment for a in enumerate_ir_pareto_optimal(inst2)}
    # the published analysis expects only (1, 0, 3, 2) here; the {0,3} swap
    # is a second IR+PO allocation it overlooks
    assert irpo2 == {(1, 0, 3, 2), (3, 1, 2, 0)}
    assert {a.assignment for a in enumerate_core_stable(inst2)} == {(1, 0, 3, 2)}

    report_1 = [[Outcome(2, 2)], [Outcome(1, 1)]]
    inst1 = SP.with_report(1, report_1)
    assert {a.assignment for a in enumerate_ir_pareto_optimal(inst1)} == \
        {(3, 2, 1, 0), (0, 1, 3, 2)}
    assert {a.assignment for a in enumerate_core_stable(inst1)} == {(3, 2, 1, 0)}

    inst13 = inst1.with_report(3, [[Outcome(0, 0)], [Outcome(3, 3)]])
    assert [a.assignment for a in enumerate_ir_pareto_optimal(inst13)] == [(3, 2, 1, 0)]


def test_proof_error_propagates_on_wrong_expectations():
    # replaying on a tampered witness market must raise, not silently pass
    import tep.incentives as incentives

    tampered = SP.with_report(0, [[Outcome(0, 0)]])
    original = incentives.sp_instance
    incentives.sp_instance = lambda: tampered
    try:
        with pytest.raises(ProofError):
            verify_sp_impossibility_tree()
        with pytest.raises(ProofError, match=r"^root core set is \['0 1 3 2'\]$"):
            verify_core_consistency_impossibility()
    finally:
        incentives.sp_instance = original


def test_a_branch_needs_its_set_and_a_strict_improvement():
    """The step both replays take at each misreport: the oracle must find
    exactly the expected set on the sub-market, and the pick must strictly
    improve the reporting agent over the current choice."""
    from tep.incentives import _branch

    report_2 = [[Outcome(3, 3)], [Outcome(2, 2)]]
    B = Allocation((1, 0, 3, 2))
    assert _branch(enumerate_core_stable, SP, 2, report_2, {B}, B, Q) == \
        SP.with_report(2, report_2)
    for want in (set(), {B, Q}):
        with pytest.raises(ProofError,
                           match=r"^unexpected set after agent 2's report: \['1 0 3 2'\]$"):
            _branch(enumerate_core_stable, SP, 2, report_2, want, B, Q)
    with pytest.raises(ProofError, match="^agent 2 fails to improve$"):
        _branch(enumerate_core_stable, SP, 2, report_2, {B}, B, B)
    with pytest.raises(ProofError, match="^agent 2 fails to improve$"):
        _branch(enumerate_core_stable, SP, 2, report_2, {B}, Q, B)


# ------------------------------------------- one replay per distinct market


def _exact(inst):
    from tep.programs import solve_exact_max_weight, weights_from_ranks

    return solve_exact_max_weight(inst, weights_from_ranks(inst))[0]


def _answer(search, mechanism, truth, agent, reports, **cap):
    """The search's witness or None, or the cap it ran into."""
    try:
        return search(mechanism, truth, agent, reports, **cap)
    except BudgetExceededError as exc:
        return str(exc)


def _replay_cases():
    """(mechanism, truth, agent, report list, cap) on seeded markets: the
    exact mechanism over every sub-list, ttc and tttc over every strict
    order, and pra over component orders under a small cap."""
    from tep.generators import random_instance
    from tep.predominant import tttc

    for seed in range(6):
        for n, density in ((3, 0.7), (4, 0.4)):
            inst = random_instance(n, density, 0.3 * (seed % 3), 500 + seed)
            for agent in range(n):
                yield _exact, inst, agent, list(sublist_reports(inst, agent)), {}
    for seed in range(4):
        for mode, mechanism in (("house", ttc), ("tenant", tttc)):
            prof = random_predominant_profile(4, mode, 0.4, 600 + seed)
            for agent in range(4):
                yield mechanism, prof, agent, list(strict_primary_reports(4)), {}
    pra = lambda p: pra_rs(p).allocation
    for seed in range(6):
        prof = random_responsive_profile(3, 0.8, 0.3, 700 + seed)
        for agent in range(3):
            reports = list(component_order_reports(prof, agent))
            yield pra, prof, agent, reports, {"max_reports": 40}


def test_the_search_returns_what_a_replay_of_every_report_returns():
    """Skipping markets already replayed changes no answer: the same witness,
    the same None or the same cap, on every case."""
    answers = []
    for mechanism, truth, agent, reports, cap in _replay_cases():
        want = _answer(find_manipulation_reference, mechanism, truth, agent, reports, **cap)
        assert _answer(find_manipulation, mechanism, truth, agent, reports, **cap) == want
        answers.append(want)
    # witnesses, exhausted spaces and hit caps all occur
    assert any(a is None for a in answers)
    assert any(isinstance(a, str) for a in answers)
    assert sum(a is not None and not isinstance(a, str) for a in answers) >= 5


def _strict_truth():
    """Agent 0 lists five outcomes strictly, its endowment outcome last:
    L = 6 listed outcomes, 63 sub-lists, 2^(L-1) = 32 distinct markets."""
    from tep.model import make_instance

    listed = [(1, 1), (2, 0), (1, 2), (3, 3), (2, 2), (0, 0)]
    return make_instance(4, [[[o] for o in listed], [], [], []])


def _counting_identity(calls):
    """The mechanism that leaves everyone at home, recording its inputs;
    under it no report improves anyone."""

    def mechanism(market):
        calls.append(market)
        return Allocation(tuple(range(market.n)))

    return mechanism


def test_the_mechanism_runs_once_per_distinct_market():
    truth = _strict_truth()
    reports = list(sublist_reports(truth, 0))
    assert len(reports) == 2 ** 6 - 1
    calls = []
    assert find_manipulation(_counting_identity(calls), truth, 0, reports) is None
    assert len(calls) == 2 ** 5 and calls[0] is truth
    assert set(calls) == {truth} | {truth.with_report(0, r) for r in reports}
    reference_calls = []
    assert find_manipulation_reference(_counting_identity(reference_calls), truth, 0,
                                       reports) is None
    assert len(reference_calls) == 2 ** 6


@pytest.mark.parametrize("cap", [0, 1, 10, 17, 62])
def test_a_cap_that_is_hit_raises_at_the_same_report(cap):
    """Skipped reports count towards the cap: report 10 ([o1, e]) gives the
    market of report 0 ([o1]), and report 62, the full list, the truth."""
    truth = _strict_truth()
    taken = {}
    for name, search in (("skip", find_manipulation), ("replay", find_manipulation_reference)):
        reports = iter(sublist_reports(truth, 0))
        with pytest.raises(BudgetExceededError) as info:
            search(_counting_identity([]), truth, 0, reports, max_reports=cap)
        assert str(info.value) == f"misreport space cap {cap} exceeded"
        taken[name] = 2 ** 6 - 1 - sum(1 for _ in reports)
    assert taken == {"skip": cap + 1, "replay": cap + 1}
