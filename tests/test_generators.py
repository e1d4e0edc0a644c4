"""Named instances, reduction gadgets, and seeded families."""

import pytest

from tep import (
    Allocation,
    Outcome,
    core_exists,
    find_top_allocation,
    is_weakly_pareto_optimal,
    make_instance,
    outcome_of,
)
from tep.generators import (
    X3CInstance,
    empty_core_instance,
    make_x3c,
    random_instance,
    random_predominant_profile,
    random_responsive_profile,
    sp_instance,
    x3c_core_instance,
    x3c_top_instance,
)
from tep.rng import SplitMix64

import references
from references import random_x3c, x3c_has_cover

YES1 = make_x3c(1, [(0, 1, 2)] * 3)


def test_ring_instance_shape():
    inst = empty_core_instance()
    assert inst.n == 5
    assert inst.prefs[1][0] == frozenset({Outcome(2, 2)})
    for i in range(5):
        assert inst.prefs[i] == (
            frozenset({Outcome((i + 1) % 5, (i + 1) % 5)}),
            frozenset({Outcome((i - 1) % 5, (i - 1) % 5)}),
            frozenset({Outcome(i, i)}),
        )


def test_sp_instance_shape():
    inst = sp_instance()
    assert inst.n == 4
    assert inst.prefs[0][0] == frozenset({Outcome(1, 3)})
    assert inst.prefs[1][0] == frozenset({Outcome(2, 2)})
    # the four-way trade hands agent 2 house 3 with agent 1 in its own house
    assert outcome_of(inst, Allocation((1, 2, 3, 0)), 2) == Outcome(3, 1)


def test_x3c_validation(monkeypatch):
    with pytest.raises(ValueError):
        make_x3c(1, [(0, 1, 2)] * 2)  # occurrences != 3
    with pytest.raises(ValueError):
        make_x3c(1, [(0, 1, 1)] * 3)  # repeated element
    with pytest.raises(ValueError):
        make_x3c(1, [(0, 1, 3)] * 3)  # out of range
    with pytest.raises(ValueError):
        X3CInstance(1, ((2, 1, 0),) * 3)  # unsorted storage
    with pytest.raises(ValueError, match="^need m >= 1$"):
        X3CInstance(0, ())
    with pytest.raises(ValueError, match="^need m >= 1$"):
        random_x3c(0, 5)
    monkeypatch.setattr(references, "X3C_MAX_TRIES", 0)
    with pytest.raises(ValueError, match=r"^no valid draw after 0 tries \(m=2, seed=5\)$"):
        random_x3c(2, 5)


def test_core_gadget_preferences():
    inst = x3c_core_instance(YES1)
    assert inst.n == 15
    # every agent lists at most 6 outcomes
    assert max(len(inst.listed_outcomes(i)) for i in range(inst.n)) <= 6
    # gadget 0's agent 0 can trade across: takes gadget 1's hub house while
    # gadget 2's hub becomes its tenant
    assert inst.prefs[0][0] == frozenset({Outcome(5, 10)})
    # remaining classes follow the ring gadget
    assert inst.prefs[0][1:] == (
        frozenset({Outcome(1, 1)}),
        frozenset({Outcome(4, 4)}),
        frozenset({Outcome(0, 0)}),
    )


def test_core_gadget_restriction_is_ring():
    inst = x3c_core_instance(YES1)
    ring = empty_core_instance()
    for gadget in range(3):
        base = 5 * gadget
        local = []
        for role in range(5):
            classes = []
            for cls in inst.prefs[base + role]:
                kept = [Outcome(o.house - base, o.tenant - base) for o in cls
                        if base <= o.house < base + 5]
                if kept:
                    classes.append(kept)
            local.append(classes)
        assert make_instance(5, local) == ring


def test_top_gadget_preferences():
    inst = x3c_top_instance(YES1)
    assert inst.n == 3
    assert max(len(inst.listed_outcomes(i)) for i in range(inst.n)) <= 4
    assert inst.prefs[0] == (frozenset({Outcome(1, 2)}), frozenset({Outcome(0, 0)}))


def test_reduction_equivalence_curated_mix():
    cases = [YES1]
    yes_seen, no_seen = 0, 0
    seed = 0
    while yes_seen < 3 or no_seen < 3:
        x = random_x3c(2, seed)
        seed += 1
        if x3c_has_cover(x) and yes_seen < 3:
            cases.append(x)
            yes_seen += 1
        elif not x3c_has_cover(x) and no_seen < 3:
            cases.append(x)
            no_seen += 1
    for x in cases:
        expected = x3c_has_cover(x)
        assert (core_exists(x3c_core_instance(x)) is not None) == expected
        top = x3c_top_instance(x)
        assert (find_top_allocation(top) is not None) == expected
        if not expected:
            assert is_weakly_pareto_optimal(top, Allocation(tuple(range(top.n))))


def test_random_instance_determinism_and_extremes():
    assert random_instance(5, 0.5, 0.3, 7) == random_instance(5, 0.5, 0.3, 7)
    assert random_instance(5, 0.5, 0.3, 7) != random_instance(5, 0.5, 0.3, 8)
    sparse = random_instance(4, 0.0, 0.0, 1)
    assert all(sparse.prefs[i] == (frozenset({Outcome(i, i)}),) for i in range(4))
    dense = random_instance(4, 1.0, 0.0, 1)
    for i in range(4):
        assert all(len(cls) == 1 for cls in dense.prefs[i])
        assert len(dense.listed_outcomes(i)) == 16


def test_random_instance_parameter_validation():
    with pytest.raises(ValueError):
        random_instance(0, 0.5, 0.5, 1)
    with pytest.raises(ValueError):
        random_instance(13, 0.5, 0.5, 1)
    with pytest.raises(ValueError):
        random_instance(4, 1.5, 0.5, 1)


def test_random_profiles_deterministic_and_valid():
    p1 = random_responsive_profile(6, 0.6, 0.4, 21)
    p2 = random_responsive_profile(6, 0.6, 0.4, 21)
    assert p1 == p2
    for i in range(6):
        # own house and self close out their component orders
        assert p1.house_classes[i][-1] == frozenset({i})
        assert p1.tenant_classes[i][-1] == frozenset({i})
    q1 = random_predominant_profile(6, "house", 0.4, 22)
    q2 = random_predominant_profile(6, "house", 0.4, 22)
    assert q1 == q2
    assert sorted(q1.primary[0]) == list(range(6))
    # the profile's constructor is the one mode check
    with pytest.raises(ValueError, match="^mode must be 'house' or 'tenant'$"):
        random_predominant_profile(6, "diagonal", 0.4, 22)


def test_the_seeded_generator_refuses_an_empty_range():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
        rng.below(0)
    with pytest.raises(ValueError, match=r"^choice\(\) from an empty sequence$"):
        rng.choice([])


def test_random_x3c_deterministic_and_valid():
    x1 = random_x3c(2, 5)
    x2 = random_x3c(2, 5)
    assert x1 == x2
    assert x1.ground_size == 6
    assert len(x1.triples) == 6
