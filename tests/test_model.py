"""Data model: parsing, comparison, outcomes, canonical labeling."""

import pytest

import tep
from tep import (
    Allocation,
    Instance,
    Outcome,
    ParseError,
    PreferenceOrder,
    canonicalize_endowment,
    compare,
    make_instance,
    outcome_of,
    parse_instance,
    serialize_instance,
)
from tep import model, programs
from tep.generators import empty_core_instance, random_instance, sp_instance

RING_TEXT = """\
tep v1
agents 5
pref 1: [(2,2)] > [(0,0)] > [(1,1)]
pref 2: [(3,3)] > [(1,1)] > [(2,2)]
pref 3: [(4,4)] > [(2,2)] > [(3,3)]
pref 4: [(0,0)] > [(3,3)] > [(4,4)]
pref 0: [(1,1)] > [(4,4)] > [(0,0)]
"""


def test_parse_ring_listing():
    inst = parse_instance(RING_TEXT)
    assert inst.n == 5
    assert inst.prefs[1] == (
        frozenset({Outcome(2, 2)}),
        frozenset({Outcome(0, 0)}),
        frozenset({Outcome(1, 1)}),
    )
    assert inst == empty_core_instance()


def test_parse_bare_agent_gets_endowment_class():
    inst = parse_instance("tep v1\nagents 1\n")
    assert inst.prefs[0] == (frozenset({Outcome(0, 0)}),)


def test_parse_duplicate_outcome_without_separator():
    with pytest.raises(ParseError) as err:
        parse_instance("tep v1\nagents 2\npref 0: [(1,1)] [(1,1)]\n")
    assert err.value.code == "duplicate-outcome"


def test_parse_duplicate_outcome_within_class():
    with pytest.raises(ParseError) as err:
        parse_instance("tep v1\nagents 2\npref 0: [(1,1) (1,1)]\n")
    assert err.value.code == "duplicate-outcome"


def test_parse_syntax_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_instance("tep v1\nagents 2\npref 0: junk\n")
    assert err.value.code == "syntax"
    assert err.value.line == 3


def test_parse_non_bijective_endowment():
    with pytest.raises(ParseError) as err:
        parse_instance("tep v1\nagents 2\nendow 0 0\n")
    assert err.value.code == "endowment"


def test_parse_out_of_range_index():
    with pytest.raises(ParseError) as err:
        parse_instance("tep v1\nagents 2\npref 0: [(2,0)]\n")
    assert err.value.code == "index-range"


def test_parse_missing_header_and_unknown_directive():
    with pytest.raises(ParseError):
        parse_instance("agents 2\n")
    with pytest.raises(ParseError):
        parse_instance("tep v1\nagents 2\nfoo bar\n")


def test_compare_ring_examples():
    inst = empty_core_instance()
    assert compare(inst, 1, Outcome(2, 2), Outcome(0, 0)) > 0
    assert compare(inst, 1, Outcome(0, 0), Outcome(2, 2)) < 0
    # reflexivity and the shared bottom class of unlisted outcomes
    assert compare(inst, 1, Outcome(2, 2), Outcome(2, 2)) == 0
    assert compare(inst, 1, Outcome(3, 0), Outcome(4, 2)) == 0
    assert compare(inst, 1, Outcome(1, 1), Outcome(3, 0)) > 0


def test_compare_rejects_bad_indices():
    inst = empty_core_instance()
    with pytest.raises(ValueError):
        compare(inst, 9, Outcome(0, 0), Outcome(1, 1))
    with pytest.raises(ValueError):
        compare(inst, 0, Outcome(5, 0), Outcome(1, 1))


def test_compare_is_total_preorder_on_ring():
    inst = empty_core_instance()
    outcomes = [Outcome(h, t) for h in range(5) for t in range(5)]
    for agent in range(5):
        order = inst.orders[agent]
        ranks = {o: order.rank(o) for o in outcomes}
        # completeness + transitivity via the rank representation itself,
        # checked against compare on every pair
        for a in outcomes:
            for b in outcomes:
                expected = (ranks[b] > ranks[a]) - (ranks[a] > ranks[b])
                assert compare(inst, agent, a, b) == expected


def test_outcome_of_identity_and_swap():
    inst = empty_core_instance()
    ident = Allocation((0, 1, 2, 3, 4))
    for i in range(5):
        assert outcome_of(inst, ident, i) == Outcome(i, i)
    two = make_instance(2, [[], []])
    swap = Allocation((1, 0))
    assert outcome_of(two, swap, 0) == Outcome(1, 1)
    swap01 = Allocation((1, 0, 2, 3, 4))
    assert outcome_of(inst, swap01, 2) == Outcome(2, 2)


def test_outcome_self_consistency_invariant():
    inst = random_instance(4, 0.6, 0.3, 5)
    from tep.axioms import all_allocations

    for alloc in all_allocations(4):
        for i in range(4):
            o = outcome_of(inst, alloc, i)
            assert (o.house == inst.endowment[i]) == (o.tenant == i)


def test_canonicalize_is_idempotent():
    inst = empty_core_instance()
    assert canonicalize_endowment(inst) is inst


def test_canonicalize_two_agents():
    inst = make_instance(2, [[[Outcome(0, 1)]], []], endowment=(1, 0))
    canon = canonicalize_endowment(inst)
    assert canon.endowment == (0, 1)
    # house 0 (owned by agent 1) becomes house 1, and vice versa
    assert canon.prefs[0][0] == frozenset({Outcome(1, 1)})
    assert canonicalize_endowment(canon) == canon


def test_canonicalize_preserves_comparisons():
    # non-canonical 4-agent market; compare must agree through the label map
    rot = (1, 2, 3, 0)
    base = random_instance(4, 0.7, 0.4, 11)
    inst = make_instance(
        4,
        [[[Outcome(rot[o.house], o.tenant) for o in cls] for cls in base.prefs[i]]
         for i in range(4)],
        endowment=rot,
    )
    canon = canonicalize_endowment(inst)
    relabel = inst.owner  # old house -> new house label
    outcomes = [Outcome(h, t) for h in range(4) for t in range(4)]
    for agent in range(4):
        for a in outcomes:
            for b in outcomes:
                mapped_a = Outcome(relabel[a.house], a.tenant)
                mapped_b = Outcome(relabel[b.house], b.tenant)
                assert compare(inst, agent, a, b) == compare(canon, agent, mapped_a, mapped_b)


def test_serialize_parse_round_trip():
    for inst in (empty_core_instance(), sp_instance(),
                 random_instance(5, 0.5, 0.3, 1), random_instance(1, 0.0, 0.0, 2)):
        assert parse_instance(serialize_instance(inst)) == inst


def test_parse_keeps_the_files_house_labels():
    text = "tep v1\nagents 2\nendow 1 0\npref 0: [(0,1)]\n"
    inst = parse_instance(text)
    assert inst.endowment == (1, 0)
    # agent 0 wants house 0, which agent 1 owns, as the file says; only an
    # explicit relabel names it house 1
    assert inst.prefs[0][0] == frozenset({Outcome(0, 1)})
    assert canonicalize_endowment(inst).prefs[0][0] == frozenset({Outcome(1, 1)})


def test_instance_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Instance(2, (0, 0), ((frozenset({Outcome(0, 0)}),), (frozenset({Outcome(1, 1)}),)))
    with pytest.raises(ValueError):
        make_instance(2, [[[Outcome(0, 0)], [Outcome(0, 0)]], []])
    with pytest.raises(ValueError):
        make_instance(2, [[[Outcome(2, 0)]], []])
    with pytest.raises(ValueError):
        Allocation((0, 0))
    with pytest.raises(ValueError, match="^need at least one agent$"):
        Instance(0, (), ())
    with pytest.raises(ValueError, match="^need one preference list per agent$"):
        Instance(2, (0, 1), ((frozenset({Outcome(0, 0)}),),))


def test_unacceptable_rank_is_shared_bottom():
    inst = empty_core_instance()
    order = inst.orders[0]
    assert order.rank(Outcome(2, 3)) == order.unacceptable_rank
    assert order.rank(Outcome(3, 2)) == order.unacceptable_rank
    listed = [order.rank(o) for o in inst.listed_outcomes(0)]
    assert max(listed) < order.unacceptable_rank


def _classes(*lists):
    return tuple(frozenset(c) for c in lists)


O = Outcome


@pytest.mark.parametrize("build, message", [
    (lambda: Instance(2, (0, 1), (_classes([O(0, 0)], []), _classes([O(1, 1)]))),
     "agent 0 has an empty indifference class"),
    (lambda: Instance(2, (0, 1), (_classes([O(0, 0)]), _classes([O(1, 1), O(2, 0)]))),
     "agent 1 lists out-of-range outcome (2,0)"),
    (lambda: Instance(2, (0, 1), (_classes([O(0, 0)]), _classes([O(1, 1)], [O(0, -1)]))),
     "agent 1 lists out-of-range outcome (0,-1)"),
    (lambda: Instance(2, (0, 1), (_classes([O(0, 1)], [O(0, 0)], [O(0, 1)]),
                                  _classes([O(1, 1)]))),
     "agent 0 lists outcome (0,1) twice"),
    (lambda: Instance(2, (0, 1), (_classes([O(0, 1)]), _classes([O(1, 1)]))),
     "agent 0 does not list its endowment outcome"),
    (lambda: Instance(2, (0, 1), ((), _classes([O(1, 1)]))),
     "agent 0 does not list its endowment outcome"),
    (lambda: _profile(([[1], []], [[1]]), ([[0]], [[1]])),
     "agent 0 has an empty house class"),
    (lambda: _profile(([[0]], [[1], [2]]), ([[0]], [[1]])),
     "agent 1 lists out-of-range house 2"),
    (lambda: _profile(([[0]], [[1], [1]]), ([[0]], [[1]])),
     "agent 1 lists house 1 twice"),
    (lambda: _profile(([[1]], [[1]]), ([[0]], [[1]])),
     "agent 0 must find its own house acceptable"),
    (lambda: _profile(([[0]], [[1]]), ([[0]], [[1], []])),
     "agent 1 has an empty tenant class"),
    (lambda: _profile(([[0]], [[1]]), ([[0, -1]], [[1]])),
     "agent 0 lists out-of-range tenant -1"),
    (lambda: _profile(([[0]], [[1]]), ([[0], [1, 0]], [[1]])),
     "agent 0 lists tenant 0 twice"),
    (lambda: _profile(([[0]], [[1]]), ([[0]], [[0]])),
     "agent 1 must find its own tenant acceptable"),
    (lambda: _profile(([[0]],), ([[0]], [[1]])), "need one house order per agent"),
    (lambda: _profile(([[0]], [[1]]), ([[0]],)), "need one tenant order per agent"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_each_class_list_fault_has_its_own_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _profile(houses, tenants):
    from tep.responsive import ResponsiveProfile

    return ResponsiveProfile(2, (0, 1), tuple(_classes(*h) for h in houses),
                             tuple(_classes(*t) for t in tenants))


_GOOD_ORDER, _GOOD_CLASSES = (2, 0, 1), (frozenset({1}), frozenset({0, 2}))
_BAD_PRIMARY = "agent 1: primary order must rank all 3 items strictly"
_BAD_TIEBREAK = "agent 1: tie-break classes must partition all 3 items"


@pytest.mark.parametrize("order, classes, message", [
    ((0, 1, 1), _GOOD_CLASSES, _BAD_PRIMARY),                          # repeated item
    ((0, 1, 2, 1), _GOOD_CLASSES, _BAD_PRIMARY),                       # ... beside all items
    ((0, 2), _GOOD_CLASSES, _BAD_PRIMARY),                             # missing item
    ((0, 1, 3), _GOOD_CLASSES, _BAD_PRIMARY),                          # out-of-range item
    ((0, 1, -1), _GOOD_CLASSES, _BAD_PRIMARY),
    ((), _GOOD_CLASSES, _BAD_PRIMARY),                                 # wrong length
    ((0, 1, 2, 3), _GOOD_CLASSES, _BAD_PRIMARY),
    (_GOOD_ORDER, ({0, 1}, {1, 2}), _BAD_TIEBREAK),                    # repeated item
    (_GOOD_ORDER, ([0, 0, 1], [2]), _BAD_TIEBREAK),                    # ... within a class
    (_GOOD_ORDER, ({0}, {2}), _BAD_TIEBREAK),                          # missing item
    (_GOOD_ORDER, ({0, 1}, {3}), _BAD_TIEBREAK),                       # out-of-range item
    (_GOOD_ORDER, ({0, 1, 2}, {-1}), _BAD_TIEBREAK),
    ((), (), _BAD_PRIMARY),                                            # wrong length
    (_GOOD_ORDER, (), _BAD_TIEBREAK),
    (_GOOD_ORDER, ({0, 1, 2}, {3}), _BAD_TIEBREAK),
])
def test_each_predominant_fault_has_its_own_message(order, classes, message):
    """Agent 1's primary order or tie-break classes, in the constructor and,
    for a primary order, as a report."""
    from tep.predominant import PredominantProfile

    def build(order, classes):
        return PredominantProfile(3, (0, 1, 2), "house", (_GOOD_ORDER, order, _GOOD_ORDER),
                                  (_GOOD_CLASSES, tuple(classes), _GOOD_CLASSES))

    with pytest.raises(ValueError) as info:
        build(order, classes)
    assert str(info.value) == message
    if message == _BAD_PRIMARY:
        with pytest.raises(ValueError) as info:
            build(_GOOD_ORDER, _GOOD_CLASSES).with_report(1, order)
        assert str(info.value) == message


def test_component_ranks_and_outcome_keys_read_one_weak_order():
    """house_rank, tenant_rank and outcome_key give each listed item the
    index of its class and every unlisted item the count of classes."""
    from tep.generators import random_predominant_profile, random_responsive_profile

    def rank_of(classes, x):
        return next((r for r, cls in enumerate(classes) if x in cls), len(classes))

    for seed in range(6):
        prof = random_responsive_profile(6, 0.5, 0.5, seed)
        for i in range(6):
            for x in range(6):
                assert prof.house_rank(i, x) == rank_of(prof.house_classes[i], x)
                assert prof.tenant_rank(i, x) == rank_of(prof.tenant_classes[i], x)
        pprof = random_predominant_profile(5, "house" if seed % 2 else "tenant", 0.5, seed)
        for i in range(5):
            for h in range(5):
                for t in range(5):
                    lead, tie = (h, t) if pprof.mode == "house" else (t, h)
                    assert pprof.outcome_key(i, (h, t)) == (
                        pprof.primary[i].index(lead), rank_of(pprof.tiebreak[i], tie))


def test_a_preference_order_over_any_items():
    order = PreferenceOrder(_classes([3, 1], [0], [5, 2, 4]))
    assert [order.rank(x) for x in range(7)] == [1, 0, 2, 0, 2, 2, 3]
    assert order.unacceptable_rank == 3
    assert (order.compare(1, 0), order.compare(0, 1), order.compare(2, 5)) == (1, -1, 0)
    assert order.compare(6, 5) == -1 and order.compare(6, 7) == 0
    assert [order.listed(limit) for limit in (-1, 0, 1, 2, 3, None)] == [
        (), (1, 3), (1, 3, 0), (1, 3, 0, 2, 4, 5), (1, 3, 0, 2, 4, 5), (1, 3, 0, 2, 4, 5)]
    assert PreferenceOrder(()).listed() == () and PreferenceOrder(()).listed(-1) == ()


def _full_rebuild(inst, agent, report):
    """What ``Instance.with_report`` built before it kept the other agents:
    every agent's classes normalized again by ``make_instance``."""
    prefs = [[set(c) for c in (report if i == agent else inst.prefs[i])] for i in range(inst.n)]
    return make_instance(inst.n, prefs, inst.endowment)


def _full_rebuild_responsive(prof, agent, report):
    """The responsive profile with the agent's components replaced, built
    and checked in full by the public constructor."""
    from tep.responsive import ResponsiveProfile

    houses, tenants = list(prof.house_classes), list(prof.tenant_classes)
    houses[agent] = tuple(frozenset(c) for c in report[0])
    tenants[agent] = tuple(frozenset(c) for c in report[1])
    return ResponsiveProfile(prof.n, prof.endowment, tuple(houses), tuple(tenants))


def _full_rebuild_predominant(prof, agent, report):
    """The predominant profile with the agent's primary order replaced,
    built and checked in full by the public constructor."""
    from tep.predominant import PredominantProfile

    primary = list(prof.primary)
    primary[agent] = tuple(report)
    return PredominantProfile(prof.n, prof.endowment, prof.mode, tuple(primary), prof.tiebreak)


def _rotated(inst):
    """The instance's classes under the endowment i -> house i + 1."""
    n = inst.n
    return make_instance(n, inst.prefs, [(i + 1) % n for i in range(n)])


def _rotated_responsive(prof):
    """The profile with house h renamed h + 1, so agent i owns house i + 1."""
    from tep.responsive import ResponsiveProfile

    n = prof.n
    houses = tuple(tuple(frozenset((h + 1) % n for h in c) for c in classes)
                   for classes in prof.house_classes)
    return ResponsiveProfile(n, tuple((i + 1) % n for i in range(n)), houses,
                             prof.tenant_classes)


def _rotated_predominant(prof):
    """The profile under the endowment i -> house i + 1."""
    from tep.predominant import PredominantProfile

    n = prof.n
    return PredominantProfile(n, tuple((i + 1) % n for i in range(n)), prof.mode,
                              prof.primary, prof.tiebreak)


def _assert_one_agent_replaced(got, want, market, agent, per_agent_fields):
    """``got`` equals the full rebuild ``want``; the other agents keep this
    market's class objects, and a cached ``owner`` is handed on."""
    assert got == want and type(got) is type(want)
    assert got.owner == want.owner
    if "owner" in market.__dict__:
        assert got.owner is market.owner
    for name in per_agent_fields:
        assert getattr(got, name) == getattr(want, name)
        assert all(getattr(got, name)[i] is getattr(market, name)[i]
                   for i in range(market.n) if i != agent)


@pytest.mark.parametrize("seed", range(5))
def test_with_report_equals_a_full_rebuild(seed):
    """Every report of the subsets space, for every agent: on the canonical
    instance before its rank rows are computed (every row built fresh), and
    on a rotated endowment with its rank rows computed (handed on).  Every
    component-order report of a 3-agent responsive profile and every strict
    order of 4-agent predominant profiles, canonical and rotated, against a
    rebuild by the public constructor.  The rotated markets have every cache
    filled, so a stale one handed on shows in the reporting agent's ranks."""
    from tep.generators import random_predominant_profile, random_responsive_profile
    from tep.incentives import component_order_reports, strict_primary_reports, sublist_reports

    for n, density in ((3, 0.6), (4, 0.35)):
        base = random_instance(n, density, 0.3, 300 + seed)
        rotated = _rotated(base)
        rotated.rank_table, rotated.owner
        [rotated.listed_outcomes(i) for i in range(n)]
        for inst in (base, rotated):
            for agent in range(n):
                for report in sublist_reports(inst, agent):
                    got, want = inst.with_report(agent, report), _full_rebuild(inst, agent, report)
                    _assert_one_agent_replaced(got, want, inst, agent, ["prefs"])
                    assert got.rank_table == want.rank_table
                    for i in range(n):
                        assert got.listed_outcomes(i) == want.listed_outcomes(i)
                        assert got.endowment_rank(i) == want.endowment_rank(i)

    base = random_responsive_profile(3, 0.7, 0.3, 310 + seed)
    rotated = _rotated_responsive(base)
    rotated.owner
    [rotated.house_rank(i, 0) + rotated.tenant_rank(i, 0) for i in range(3)]
    for prof in (base, rotated):
        for agent in range(3):
            for report in component_order_reports(prof, agent):
                got = prof.with_report(agent, report)
                want = _full_rebuild_responsive(prof, agent, report)
                _assert_one_agent_replaced(got, want, prof, agent,
                                           ["house_classes", "tenant_classes"])
                for rank in ("house_rank", "tenant_rank"):
                    assert [[getattr(got, rank)(i, x) for x in range(3)] for i in range(3)] == \
                        [[getattr(want, rank)(i, x) for x in range(3)] for i in range(3)]

    for mode in ("house", "tenant"):
        base = random_predominant_profile(4, mode, 0.4, 320 + seed)
        rotated = _rotated_predominant(base)
        rotated.owner
        [rotated.outcome_key(i, (0, 0)) for i in range(4)]
        for prof in (base, rotated):
            for agent in range(4):
                for report in strict_primary_reports(4):
                    got = prof.with_report(agent, report)
                    want = _full_rebuild_predominant(prof, agent, report)
                    _assert_one_agent_replaced(got, want, prof, agent, ["primary", "tiebreak"])
                    assert [got.outcome_key(agent, (h, t)) for h in range(4) for t in range(4)] == \
                        [want.outcome_key(agent, (h, t)) for h in range(4) for t in range(4)]


def test_with_report_drops_an_empty_class_and_keeps_the_other_agents():
    inst = sp_instance()
    inst.rank_table
    got = inst.with_report(2, [[(3, 3)], [], [O(2, 2)]])
    assert got.prefs[2] == _classes([O(3, 3)], [O(2, 2)])
    assert all(got.prefs[i] is inst.prefs[i] for i in (0, 1, 3))
    assert all(got.rank_table[i] is inst.rank_table[i] for i in (0, 1, 3))
    assert got.rank_table == _full_rebuild(inst, 2, [[(3, 3)], [O(2, 2)]]).rank_table
    with pytest.raises(ValueError, match="no agent 4"):
        inst.with_report(4, [[O(0, 0)]])


def _bad_report_truth(report):
    """The 4-agent market a bad report for agent 2 is made in, and its full
    rebuild: the witness market for a list of outcome classes, a responsive
    profile for a (houses, tenants) pair, a house-primary profile for a
    tuple of items."""
    from tep.generators import random_predominant_profile, random_responsive_profile

    if isinstance(report, list):
        return sp_instance(), _full_rebuild
    if isinstance(report[0], int):
        return random_predominant_profile(4, "house", 0.4, 2), _full_rebuild_predominant
    return random_responsive_profile(4, 0.6, 0.3, 2), _full_rebuild_responsive


@pytest.mark.parametrize("report, message", [
    ([[O(3, 3)], [O(4, 2)]], "agent 2 lists out-of-range outcome (4,2)"),
    ([[O(3, -1)]], "agent 2 lists out-of-range outcome (3,-1)"),
    ([[O(3, 3)], [O(2, 2), O(1, 1)], [O(3, 3)]], "agent 2 lists outcome (3,3) twice"),
    (([[2], []], [[2]]), "agent 2 has an empty house class"),
    (([[2], [4]], [[2]]), "agent 2 lists out-of-range house 4"),
    (([[2, 1], [1]], [[2]]), "agent 2 lists house 1 twice"),
    (([[1]], [[2]]), "agent 2 must find its own house acceptable"),
    (([[2]], [[2], []]), "agent 2 has an empty tenant class"),
    (([[2]], [[2, -1]]), "agent 2 lists out-of-range tenant -1"),
    (([[2]], [[0]]), "agent 2 must find its own tenant acceptable"),
    ((0, 1, 2), "agent 2: primary order must rank all 4 items strictly"),
    ((0, 1, 2, 2), "agent 2: primary order must rank all 4 items strictly"),
    ((0, 1, 2, 4), "agent 2: primary order must rank all 4 items strictly"),
])
def test_a_bad_report_raises_the_message_a_full_rebuild_raises(report, message):
    market, rebuild = _bad_report_truth(report)
    for build in (market.with_report, lambda a, r: rebuild(market, a, r)):
        with pytest.raises(ValueError) as info:
            build(2, report)
        assert str(info.value) == message


@pytest.mark.parametrize("line, message", [
    ("pref 2: [(3,3)] > [(4,2)]", "index-range: house 4 out of range 0..3 (line 1)"),
    ("pref 2: [(3,3)] > [(2,9)]", "index-range: tenant 9 out of range 0..3 (line 1)"),
    ("pref 2: [(3,3)] > [(2,2) (3,3)]", "duplicate-outcome: agent 2 lists (3,3) twice (line 1)"),
    ("pref 2: [(3,3) (3,3)]", "duplicate-outcome: agent 2 lists (3,3) twice (line 1)"),
    ("pref 2: [(3,3)] > [] > [(2,2)]", "syntax: empty indifference class (line 1)"),
])
def test_a_bad_candidate_line_keeps_its_parse_error(line, message):
    from tep.files import parse_candidates

    with pytest.raises(ParseError) as info:
        parse_candidates(line + "\n", "pref", sp_instance(), 2)
    assert str(info.value) == message


def test_the_rank_table_refuses_n_above_the_ceiling_before_any_row(monkeypatch):
    """Every n³ table the permutation search reads is built from
    ``Instance.rank_table``, so library callers meet the CLI's refusal too,
    before any row exists.  Weights come per class, so weighing alone
    answers without a row."""
    def rank_row(*args):
        raise AssertionError("a row of the n³ rank table was built")

    monkeypatch.setattr(model, "_rank_row", rank_row)
    inst = make_instance(301, [[] for _ in range(301)])
    identity = Allocation(tuple(range(301)))
    for call in (lambda: inst.rank_table, lambda: tep.is_pareto_optimal(inst, identity),
                 lambda: tep.enumerate_pareto_optimal(inst),
                 lambda: programs.solve_exact_max_weight(inst, programs.weights_from_ranks(inst))):
        with pytest.raises(tep.BudgetExceededError) as refused:
            call()
        assert str(refused.value) == "permutation search needs n <= 300, got n = 301"
    assert programs.weights_from_ranks(inst) == ((0, -301),) * 301
    assert "rank_table" not in inst.__dict__
