"""Misreport search, mechanism stubs, and the impossibility replays."""

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
    first_ir_pareto_mechanism,
    identity_allocation,
    is_core_stable,
    replace_prefs,
    sublist_reports,
    table_mechanism,
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

SP = sp_instance()
P = Allocation((1, 2, 3, 0))
Q = Allocation((3, 2, 1, 0))


def q_pinning_mechanism():
    return table_mechanism({SP: Q}, first_ir_pareto_mechanism())


def test_single_agent_market_has_no_manipulation():
    from tep.model import make_instance

    inst = make_instance(1, [[]])
    mech = first_ir_pareto_mechanism()
    assert find_manipulation(mech, inst, 0, sublist_reports(inst, 0)) is None


def test_replayed_truncation_beats_q_pinning_mechanism():
    mech = q_pinning_mechanism()
    candidates = [[[Outcome(3, 3)], [Outcome(2, 2)]]]
    witness = find_manipulation(mech, SP, 2, candidates)
    assert witness is not None
    assert witness.outcome_before == Outcome(1, 1)
    assert witness.outcome_after == Outcome(3, 3)
    # the witness is checked against the true preferences
    assert compare(SP, 2, witness.outcome_after, witness.outcome_before) > 0


def test_manipulation_search_is_deterministic():
    mech = q_pinning_mechanism()
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


def test_table_mechanism_falls_back():
    mech = q_pinning_mechanism()
    assert mech(SP) == Q
    other = replace_prefs(SP, 2, [[Outcome(3, 3)], [Outcome(2, 2)]])
    assert mech(other) == enumerate_ir_pareto_optimal(other)[0]


# ---------------------------------------------------------------- proof replays


def test_sp_tree_closes_and_flags_the_extra_branch():
    report = verify_sp_impossibility_tree()
    text = str(report)
    assert "all branches closed" in text
    assert "published analysis expects 1" in text
    # branch count: root line, q-branch close, discrepancy note, repair
    # close, p-branch close, s-branch close, final line
    assert len(report.lines) == 7


def test_sp_tree_rejects_other_instances():
    from tep.generators import empty_core_instance

    with pytest.raises(ValueError):
        verify_sp_impossibility_tree(empty_core_instance())


def test_core_consistency_tree_closes():
    report = verify_core_consistency_impossibility()
    assert "all branches closed" in str(report)


def test_sp_instance_root_sets():
    irpo = set(enumerate_ir_pareto_optimal(SP))
    assert irpo == {P, Q}
    core = set(enumerate_core_stable(SP))
    assert core == {P, Q}
    assert core <= irpo
    assert not is_core_stable(SP, identity_allocation(4))


def test_misreported_subinstances_match_the_replay():
    report_2 = [[Outcome(3, 3)], [Outcome(2, 2)]]
    inst2 = replace_prefs(SP, 2, report_2)
    irpo2 = {a.assignment for a in enumerate_ir_pareto_optimal(inst2)}
    # the published analysis expects only (1, 0, 3, 2) here; the {0,3} swap
    # is a second IR+PO allocation it overlooks
    assert irpo2 == {(1, 0, 3, 2), (3, 1, 2, 0)}
    assert {a.assignment for a in enumerate_core_stable(inst2)} == {(1, 0, 3, 2)}

    report_1 = [[Outcome(2, 2)], [Outcome(1, 1)]]
    inst1 = replace_prefs(SP, 1, report_1)
    assert {a.assignment for a in enumerate_ir_pareto_optimal(inst1)} == \
        {(3, 2, 1, 0), (0, 1, 3, 2)}
    assert {a.assignment for a in enumerate_core_stable(inst1)} == {(3, 2, 1, 0)}

    inst13 = replace_prefs(inst1, 3, [[Outcome(0, 0)], [Outcome(3, 3)]])
    assert [a.assignment for a in enumerate_ir_pareto_optimal(inst13)] == [(3, 2, 1, 0)]


def test_proof_error_propagates_on_wrong_expectations():
    # feeding the verifier a tampered market must raise, not silently pass;
    # bypass the instance equality guard to exercise the internal checks
    import tep.incentives as incentives

    tampered = replace_prefs(SP, 0, [[Outcome(0, 0)]])
    original = incentives.sp_instance
    incentives.sp_instance = lambda: tampered
    try:
        with pytest.raises(ProofError):
            verify_sp_impossibility_tree(tampered)
    finally:
        incentives.sp_instance = original
