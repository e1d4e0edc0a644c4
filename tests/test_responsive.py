"""Responsive set extension: comparison, oracles, matching, refinement."""

import re
from itertools import permutations, product

import pytest

from tep import (
    Allocation,
    Outcome,
    PraResult,
    ResponsiveProfile,
    RsOrdering,
    is_rs_core_stable,
    is_rs_ir,
    is_rs_pareto_optimal,
    outcome_of,
    pra_rs,
    rs_aa,
    rs_compare,
)
from tep import responsive
from tep.generators import random_responsive_profile
from tep.matching import augment, max_bipartite_matching
from tep.model import inverse_permutation
from tep.responsive import _symmetrized_graph, acceptable_component_classes
from tep.rng import SplitMix64

from references import (acceptable_component_classes_reference, augment_reference,
                        is_rs_pareto_optimal_reference, max_bipartite_matching_reference)
from test_acceptance import _big_responsive_profile


def profile(n, houses, tenants, endowment=None):
    endow = tuple(endowment) if endowment else tuple(range(n))
    return ResponsiveProfile(
        n, endow,
        tuple(tuple(frozenset(c) for c in houses[i]) for i in range(n)),
        tuple(tuple(frozenset(c) for c in tenants[i]) for i in range(n)),
    )


def everyone_top(n):
    """Own house and self are everyone's unique favourites."""
    houses = [[[i]] + [[h] for h in range(n) if h != i] for i in range(n)]
    tenants = [[[i]] + [[t] for t in range(n) if t != i] for i in range(n)]
    return profile(n, houses, tenants)


def mutual_improvement_2():
    """Both agents prefer the other's house and the other as tenant."""
    houses = [[[1], [0]], [[0], [1]]]
    tenants = [[[1], [0]], [[0], [1]]]
    return profile(2, houses, tenants)


# ---------------------------------------------------------------- comparison


def test_rs_compare_componentwise():
    prof = profile(3, [[[2], [0], [1]], [[1]], [[2]]],
                   [[[2], [0], [1]], [[1]], [[2]]])
    assert rs_compare(prof, 0, Outcome(2, 2), Outcome(0, 0)) is RsOrdering.BETTER
    assert rs_compare(prof, 0, Outcome(2, 0), Outcome(0, 2)) is RsOrdering.INCOMPARABLE
    assert rs_compare(prof, 0, Outcome(2, 0), Outcome(2, 0)) is RsOrdering.INDIFFERENT
    assert rs_compare(prof, 0, Outcome(0, 0), Outcome(2, 2)) is RsOrdering.WORSE
    with pytest.raises(ValueError):
        rs_compare(prof, 0, Outcome(5, 0), Outcome(0, 0))


@pytest.mark.parametrize("agent, a, b, message", [
    (-1, (0, 0), (1, 1), "no agent -1"),
    (3, (0, 0), (1, 1), "no agent 3"),
    (0, (0, 0), (1, 3), "outcome (1,3) out of range for 3 agents"),
    (0, (-1, 0), (1, 1), "outcome (-1,0) out of range for 3 agents"),
])
def test_rs_compare_checks_the_agent_and_the_outcomes(agent, a, b, message):
    prof = random_responsive_profile(3, 0.6, 0.3, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        rs_compare(prof, agent, a, b)
    with pytest.raises(ValueError, match=re.escape(message)):
        prof.prefers(agent, a, b)


def test_rs_compare_is_a_partial_order():
    prof = random_responsive_profile(4, 0.7, 0.4, 3)
    outcomes = [Outcome(h, t) for h in range(4) for t in range(4)]
    for agent in range(4):
        for a in outcomes:
            for b in outcomes:
                ab = rs_compare(prof, agent, a, b)
                ba = rs_compare(prof, agent, b, a)
                flips = {RsOrdering.BETTER: RsOrdering.WORSE,
                         RsOrdering.WORSE: RsOrdering.BETTER,
                         RsOrdering.INDIFFERENT: RsOrdering.INDIFFERENT,
                         RsOrdering.INCOMPARABLE: RsOrdering.INCOMPARABLE}
                assert ba is flips[ab]
                for c in outcomes[::3]:
                    if (ab is RsOrdering.BETTER
                            and rs_compare(prof, agent, b, c) is RsOrdering.BETTER):
                        assert rs_compare(prof, agent, a, c) is RsOrdering.BETTER


def test_strict_dominance_survives_lexicographic_completion():
    # with a strict house order, the house-primary lexicographic order is a
    # completion of the set extension: strict RS dominance must persist
    from tep.generators import random_predominant_profile
    from tep.predominant import lex_compare

    outcomes = [Outcome(h, t) for h in range(4) for t in range(4)]
    for seed in range(6):
        pred = random_predominant_profile(4, "house", 0.5, 50 + seed)
        prof = ResponsiveProfile(
            4, tuple(range(4)),
            tuple(tuple(frozenset([h]) for h in pred.primary[i]) for i in range(4)),
            pred.tiebreak,
        )
        for agent in range(4):
            for a in outcomes:
                for b in outcomes:
                    if rs_compare(prof, agent, a, b) is RsOrdering.BETTER:
                        assert lex_compare(pred, agent, a, b) > 0
    # and dually for strict tenant orders under the tenant-primary completion
    for seed in range(6):
        pred = random_predominant_profile(4, "tenant", 0.5, 70 + seed)
        prof = ResponsiveProfile(
            4, tuple(range(4)),
            pred.tiebreak,
            tuple(tuple(frozenset([t]) for t in pred.primary[i]) for i in range(4)),
        )
        for agent in range(4):
            for a in outcomes:
                for b in outcomes:
                    if rs_compare(prof, agent, a, b) is RsOrdering.BETTER:
                        assert lex_compare(pred, agent, a, b) > 0


# ---------------------------------------------------------------- RS axioms


def test_rs_ir_basics():
    prof = mutual_improvement_2()
    assert is_rs_ir(prof, Allocation((0, 1)))
    assert is_rs_ir(prof, Allocation((1, 0)))
    # a profile where agent 0 finds house 1 unacceptable
    prof2 = profile(2, [[[0]], [[1], [0]]], [[[0], [1]], [[1]]])
    assert not is_rs_ir(prof2, Allocation((1, 0)))


def test_rs_po_basics():
    assert is_rs_pareto_optimal(everyone_top(3), Allocation((0, 1, 2)))
    assert not is_rs_pareto_optimal(mutual_improvement_2(), Allocation((0, 1)))
    assert is_rs_pareto_optimal(mutual_improvement_2(), Allocation((1, 0)))


def _rs_po_cases():
    """Seeded profiles with n = 1..7, densities 0.3-0.9 and tie rates 0-0.9,
    half of them with a permuted endowment, each with its pra_rs outcome,
    the identity and three random allocations."""
    rng = SplitMix64(93)
    for seed in range(126):
        n = 1 + seed % 7
        prof = random_responsive_profile(n, (0.3, 0.6, 0.9)[seed % 3],
                                         (0.0, 0.35, 0.9)[seed // 7 % 3], 90_000 + seed)
        if seed // 3 % 2:
            prof = _permuted_endowment(prof, rng)
        allocs = [pra_rs(prof).allocation, Allocation(tuple(range(n)))]
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            allocs.append(Allocation(tuple(perm)))
        for alloc in allocs:
            yield prof, alloc


def test_rs_po_matches_the_full_scan():
    kinds = set()
    for prof, alloc in _rs_po_cases():
        got = is_rs_pareto_optimal(prof, alloc)
        assert got == is_rs_pareto_optimal_reference(prof, alloc), (prof, alloc)
        kinds.add((got, is_rs_ir(prof, alloc), prof.is_canonical()))
    # optimal and not, IR and not, with either kind of endowment
    assert {k[0] for k in kinds} == {k[1] for k in kinds} == {k[2] for k in kinds} == {True, False}
    assert (True, False, False) in kinds and (False, True, False) in kinds


def test_rs_po_ignores_a_cycle_of_indifferent_swaps():
    """Both agents are indifferent between the two houses and the two
    tenants, so swapping changes nothing and the identity stays optimal."""
    prof = profile(2, [[[0, 1]], [[0, 1]]], [[[0, 1]], [[0, 1]]])
    assert is_rs_pareto_optimal(prof, Allocation((0, 1)))
    assert is_rs_pareto_optimal(prof, Allocation((1, 0)))


def test_rs_po_sees_a_three_way_trade():
    """Only the rotation 0 -> 1 -> 2 -> 0 improves on the identity, strictly
    for agent 0's house and indifferently for everything else."""
    prof = profile(3, [[[1], [0]], [[1, 2]], [[2, 0]]], [[[0, 2]], [[1, 0]], [[2, 1]]])
    assert not is_rs_pareto_optimal(prof, Allocation((0, 1, 2)))
    assert is_rs_pareto_optimal(prof, Allocation((1, 2, 0)))


def test_rs_core_basics():
    assert not is_rs_core_stable(mutual_improvement_2(), Allocation((0, 1)))
    assert is_rs_core_stable(mutual_improvement_2(), Allocation((1, 0)))
    assert is_rs_core_stable(everyone_top(3), Allocation((0, 1, 2)))


# ---------------------------------------------------------------- matching


def test_rs_aa_universal_sets():
    n = 4
    full = [set(range(n)) for _ in range(n)]
    alloc = rs_aa(n, tuple(range(n)), full, full)
    assert alloc is not None


def test_rs_aa_isolates_vertex_after_symmetrization():
    # agent 0 accepts only house 1, but house 1's owner rejects tenant 0
    alloc = rs_aa(2, (0, 1), [{1}, {0, 1}], [{0, 1}, {1}])
    assert alloc is None
    # brute force agrees
    for p in permutations(range(2)):
        inv = {h: a for a, h in enumerate(p)}
        assert not (p[0] in {1} and p[1] in {0, 1}
                    and inv[0] in {0, 1} and inv[1] in {1})


def test_rs_aa_unique_swap():
    alloc = rs_aa(2, (0, 1), [{1}, {0}], [{1}, {0}])
    assert alloc == Allocation((1, 0))


def test_rs_aa_matches_exhaustive_search():
    for seed in range(60):
        n = 1 + seed % 7
        rng = SplitMix64(900 + seed)
        houses = [set(h for h in range(n) if rng.random() < 0.5) for _ in range(n)]
        tenants = [set(t for t in range(n) if rng.random() < 0.5) for _ in range(n)]
        got = rs_aa(n, tuple(range(n)), houses, tenants)
        brute = None
        for p in permutations(range(n)):
            inv = [0] * n
            for a, h in enumerate(p):
                inv[h] = a
            if all(p[i] in houses[i] and inv[i] in tenants[i] for i in range(n)):
                brute = p
                break
        assert (got is None) == (brute is None)
        if got is not None:
            inv = got.inverse
            assert all(got[i] in houses[i] and inv[i] in tenants[i] for i in range(n))


def _random_graph(rng, n_left, n_right, density):
    return [[v for v in range(n_right) if rng.random() < density] for _ in range(n_left)]


def _check_matching(adj, n_right, size, match):
    used = [v for v in match if v != -1]
    assert size == len(used)
    assert len(set(used)) == len(used) and all(0 <= v < n_right for v in used)
    assert all(v == -1 or v in adj[u] for u, v in enumerate(match))


def _augmenting_path_exists(adj, n_right, match_left, root):
    """Reference: a path exists iff the graph cut down to the matched left
    vertices and ``root`` has a matching one larger than the current one."""
    rows = [row if u == root or match_left[u] != -1 else [] for u, row in enumerate(adj)]
    size, _ = max_bipartite_matching(len(adj), n_right, rows)
    return size > len(match_left) - match_left.count(-1)


def _right_side(match_left, n_right):
    return [match_left.index(v) if v in match_left else -1 for v in range(n_right)]


def test_warm_started_matching_grows_to_the_cold_size():
    """augment from each free left vertex of a valid partial matching in
    turn: True exactly when an augmenting path exists, the matching stays
    valid, and it ends at the Hopcroft-Karp size."""
    with_perfect = without_perfect = found = missing = 0
    for seed in range(300):
        rng = SplitMix64(3_000 + seed)
        n_left = 1 + seed % 9
        n_right = n_left if seed % 3 else 1 + (seed // 3) % 9
        adj = _random_graph(rng, n_left, n_right, (0.15, 0.35, 0.7)[seed % 3])
        cold_size, cold = max_bipartite_matching(n_left, n_right, adj)
        _check_matching(adj, n_right, cold_size, cold)
        if n_left == n_right:
            if cold_size == n_left:
                with_perfect += 1
            else:
                without_perfect += 1
        # three valid partial matchings: a greedy one in random order, the
        # cold maximum matching with random pairs removed, and all of it
        order = list(range(n_left))
        rng.shuffle(order)
        greedy, taken = [-1] * n_left, set()
        for u in order:
            free = [v for v in adj[u] if v not in taken]
            if free and rng.random() < 0.7:
                greedy[u] = rng.choice(free)
                taken.add(greedy[u])
        thinned = [v if rng.random() < 0.6 else -1 for v in cold]
        for start in (greedy, thinned, cold):
            match_left = list(start)
            match_right = _right_side(match_left, n_right)
            for root in order:
                if match_left[root] != -1:
                    continue
                before = list(match_left)
                expected = _augmenting_path_exists(adj, n_right, match_left, root)
                assert augment(adj, match_left, match_right, root) is expected
                if expected:
                    found += 1
                    assert match_left[root] != -1
                else:
                    missing += 1
                    assert match_left == before
                # augmenting paths never unmatch a left vertex
                assert all(match_left[u] != -1 for u in range(n_left) if before[u] != -1)
                _check_matching(adj, n_right, n_left - match_left.count(-1), match_left)
                assert match_right == _right_side(match_left, n_right)
            assert n_left - match_left.count(-1) == cold_size
    assert with_perfect and without_perfect
    assert found > 100 and missing > 100


def test_augment_matches_the_dict_and_deque_reference():
    """The list-backed search visits the same vertices in the same order as
    the reference, so it finds the same path: equal answers and equal
    matchings after every call, on rows given as sorted lists and as sets,
    from greedy partial matchings."""
    found = missing = 0
    for seed in range(400):
        rng = SplitMix64(4_000 + seed)
        n_left = 1 + seed % 12
        n_right = n_left if seed % 3 else 1 + (seed // 3) % 12
        adj = _random_graph(rng, n_left, n_right, (0.15, 0.35, 0.7)[seed % 3])
        if seed % 2:
            adj = [set(row) for row in adj]
        order = list(range(n_left))
        rng.shuffle(order)
        match_left, taken = [-1] * n_left, set()
        for u in order:
            free = [v for v in adj[u] if v not in taken]
            if free and rng.random() < 0.5:
                match_left[u] = rng.choice(free)
                taken.add(match_left[u])
        match_right = _right_side(match_left, n_right)
        want_left, want_right = list(match_left), list(match_right)
        for root in order:
            if match_left[root] != -1:
                continue
            got = augment(adj, match_left, match_right, root)
            assert got is augment_reference(adj, want_left, want_right, root)
            assert (match_left, match_right) == (want_left, want_right)
            found += got
            missing += not got
    assert found > 200 and missing > 200


def _shift_chain(m):
    """Left u < m - 1 lists right u + 1, then u; the last lists only m - 1.
    The first phase matches u to u + 1 and leaves the last vertex free, and
    the second augments along all m vertices."""
    return [[u + 1, u] for u in range(m - 1)] + [[m - 1]]


def test_hopcroft_karp_matches_the_recursive_reference():
    """The explicit-stack search tries the same edges in the same order as
    the recursive one, so both give the same matching, not only the same
    size: on seeded random graphs with rows sorted and shuffled, and on a
    chain whose augmenting path is 500 vertices long."""
    rng = SplitMix64(20261019)
    graphs = [(500, _shift_chain(500))]
    for seed in range(1500):
        n_left, n_right = 1 + seed % 12, 1 + (seed // 12) % 12
        adj = _random_graph(rng, n_left, n_right, (0.1, 0.25, 0.5, 0.8)[seed % 4])
        shuffled = [list(row) for row in adj]
        for row in shuffled:
            rng.shuffle(row)
        graphs += [(n_right, adj), (n_right, shuffled)]
    perfect = 0
    for n_right, adj in graphs:
        n_left = len(adj)
        got = max_bipartite_matching(n_left, n_right, adj)
        assert got == max_bipartite_matching_reference(n_left, n_right, adj), adj
        _check_matching(adj, n_right, *got)
        perfect += got[0] == n_left
    assert 100 < perfect < len(graphs) - 100


def test_hopcroft_karp_augments_along_a_path_longer_than_the_recursion_limit():
    size, match = max_bipartite_matching(3000, 3000, _shift_chain(3000))
    assert (size, match) == (3000, list(range(3000)))


def _random_sets(rng, n, density):
    return [set(x for x in range(n) if rng.random() < density) for _ in range(n)]


def test_rs_aa_suspect_path_agrees_with_a_cold_run():
    """Cut edges of one agent (a house drop) or edges into one agent's house
    (a tenant drop) under a perfect matching, as pra_rs does, and test with
    only the suspect edge checked."""
    intact = repaired = infeasible = 0
    for seed in range(400):
        n = 1 + seed % 9
        rng = SplitMix64(9_000 + seed)
        endowment = list(range(n))
        if seed % 2:
            rng.shuffle(endowment)
        endowment = tuple(endowment)
        owner = inverse_permutation(endowment)
        houses, tenants = _random_sets(rng, n, (0.4, 0.6, 0.8)[seed % 3]), _random_sets(rng, n, 0.7)
        start = rs_aa(n, endowment, houses, tenants)
        if start is None:
            continue
        agent = rng.below(n)
        if seed // 2 % 2:
            own = endowment[agent]
            tenants[agent] = {t for t in tenants[agent] if rng.random() < 0.4}
            suspect = start.inverse[own]
        else:
            houses[agent] = {h for h in houses[agent] if rng.random() < 0.4}
            suspect = agent
        adj = [set(row) for row in _symmetrized_graph(owner, houses, tenants)]
        assert all(start[i] in adj[i] for i in range(n) if i != suspect)
        cold = rs_aa(n, endowment, houses, tenants)
        warm = rs_aa(n, endowment, start=start, adj=adj, suspect=suspect)
        assert (warm is None) == (cold is None)
        if warm is None:
            infeasible += 1
            continue
        assert all(warm[i] in adj[i] for i in range(n))
        if start[suspect] in adj[suspect]:
            assert warm is start
            intact += 1
        else:
            # the repair hands back augment's two sides unchecked
            assert sorted(warm.assignment) == list(range(n))
            assert warm.inverse == inverse_permutation(warm.assignment)
            repaired += 1
    assert intact > 30 and repaired > 30 and infeasible > 30


def test_rs_aa_graph_needs_a_start_and_a_suspect():
    """rs_aa has two forms: the cold one takes both sets and nothing else,
    the maintained one takes adj, start and suspect and neither set."""
    full = [set(range(3)) for _ in range(3)]
    start = Allocation((0, 1, 2))
    sets = ((), (full,), (full, full), (None, full))
    graph = ({}, {"adj": full})
    warm = ({}, {"start": start}, {"suspect": 0}, {"start": start, "suspect": 0})
    valid = [((full, full), {}), ((), {"adj": full, "start": start, "suspect": 0})]
    for args, g, w in product(sets, graph, warm):
        kwargs = {**g, **w}
        if (args, kwargs) in valid:
            assert rs_aa(3, (0, 1, 2), *args, **kwargs) is not None
            continue
        with pytest.raises(ValueError):
            rs_aa(3, (0, 1, 2), *args, **kwargs)


# ---------------------------------------------------------------- refinement


def test_pra_everyone_top_returns_identity():
    result = pra_rs(everyone_top(4))
    assert result.allocation == Allocation((0, 1, 2, 3))


def test_pra_mutual_improvement_returns_swap():
    result = pra_rs(mutual_improvement_2())
    assert result.allocation == Allocation((1, 0))
    # the swap is the unique RS-IR + RS-PO allocation here
    prof = mutual_improvement_2()
    winners = [a for a in (Allocation((0, 1)), Allocation((1, 0)))
               if is_rs_ir(prof, a) and is_rs_pareto_optimal(prof, a)]
    assert winners == [Allocation((1, 0))]


def test_pra_stays_put_under_a_permuted_endowment():
    # each agent accepts only its own house and itself, and owns the other's
    # house number: no drop succeeds, and everyone keeps the house it owns
    prof = profile(2, [[[1]], [[0]]], [[[0]], [[1]]], endowment=(1, 0))
    for order, s in (("round-robin", None), ("reverse", None), ("random", 3)):
        result = pra_rs(prof, order=order, seed=s)
        assert (result.allocation, result.rs_aa_calls) == (Allocation((1, 0)), 4)
        assert is_rs_ir(prof, result.allocation)


def test_pra_rejects_unknown_policy():
    with pytest.raises(ValueError):
        pra_rs(everyone_top(2), order="sideways")


def test_pra_outputs_rs_ir_and_rs_po_under_all_policies():
    for seed in range(30):
        n = 1 + seed % 7
        prof = random_responsive_profile(n, 0.6, 0.3, 400 + seed)
        for order, s in (("round-robin", None), ("reverse", None), ("random", seed)):
            result = pra_rs(prof, order=order, seed=s)
            assert is_rs_ir(prof, result.allocation)
            assert is_rs_pareto_optimal(prof, result.allocation)


def test_pra_call_count_and_saturation_permanence():
    for seed in range(12):
        n = 2 + seed % 6
        prof = random_responsive_profile(n, 0.7, 0.3, 500 + seed)
        hcls, tcls = acceptable_component_classes(prof)
        total = sum(map(len, hcls)) + sum(map(len, tcls))
        result = pra_rs(prof)
        assert result.rs_aa_calls <= total
        sets_h = [set().union(*hcls[i][:result.house_kept[i]]) for i in range(n)]
        sets_t = [set().union(*tcls[i][:result.tenant_kept[i]]) for i in range(n)]
        # every pair ended saturated: re-dropping its worst class must stay
        # infeasible at termination
        for i in range(n):
            trial = [set(s) for s in sets_h]
            trial[i] = trial[i] - hcls[i][result.house_kept[i] - 1]
            assert rs_aa(n, prof.endowment, trial, sets_t) is None
            trial_t = [set(s) for s in sets_t]
            trial_t[i] = trial_t[i] - tcls[i][result.tenant_kept[i] - 1]
            assert rs_aa(n, prof.endowment, sets_h, trial_t) is None


def test_pra_prunes_items_below_own_class():
    # a listed house strictly below the own house never survives refinement
    prof = profile(3,
                   [[[1], [0], [2]], [[1]], [[2]]],
                   [[[0, 1, 2]], [[1]], [[2]]])
    hcls, _ = acceptable_component_classes(prof)
    assert hcls[0] == (frozenset({1}), frozenset({0}))
    result = pra_rs(prof)
    assert is_rs_ir(prof, result.allocation)


def _shuffled_classes(rng, n, required, density, ties):
    """Random classes over a random share of the items, ``required`` among
    them at a random place, so that truncation may cut anywhere."""
    items = [x for x in range(n) if x == required or rng.random() < density]
    rng.shuffle(items)
    classes = []
    for x in items:
        if classes and rng.random() < ties:
            classes[-1].add(x)
        else:
            classes.append({x})
    return tuple(map(frozenset, classes))


def test_truncated_classes_match_the_rank_dict_reference():
    """The class scan cuts each order where the rank dicts did, on seeded
    profiles with ties up to 0.9, half of them with permuted endowments."""
    rng = SplitMix64(31)
    cut = 0
    for seed in range(300):
        n = 1 + seed % 10
        density, ties = (0.3, 0.6, 0.9)[seed % 3], (0.0, 0.35, 0.9)[seed // 3 % 3]
        endowment = list(range(n))
        if seed % 2:
            rng.shuffle(endowment)
        prof = ResponsiveProfile(
            n, tuple(endowment),
            tuple(_shuffled_classes(rng, n, endowment[i], density, ties) for i in range(n)),
            tuple(_shuffled_classes(rng, n, i, density, ties) for i in range(n)))
        got = acceptable_component_classes(prof)
        assert got == acceptable_component_classes_reference(prof)
        cut += got != (prof.house_classes, prof.tenant_classes)
    assert cut > 100


def test_profile_validation():
    with pytest.raises(ValueError):
        profile(2, [[[1]], [[1], [0]]], [[[0], [1]], [[1]]])  # own house missing
    with pytest.raises(ValueError):
        profile(2, [[[0], [0]], [[1]]], [[[0]], [[1]]])  # duplicate item
    with pytest.raises(ValueError):
        profile(2, [[[0]], [[1]]], [[[0]], [[0]]])  # self missing


# ---------------------------------------------------------------- reference


def _pra_reference(prof, *, order="round-robin", seed=None):
    """The refinement loop without warm starts: a cold rs_aa per tentative
    drop, the allocation taken from the last successful call."""
    n = prof.n
    house_classes, tenant_classes = acceptable_component_classes(prof)
    kept = {("H", i): len(house_classes[i]) for i in range(n)}
    kept.update({("N", i): len(tenant_classes[i]) for i in range(n)})
    sets_h = [set().union(*house_classes[i]) for i in range(n)]
    sets_t = [set().union(*tenant_classes[i]) for i in range(n)]
    pairs = [(comp, i) for i in range(n) for comp in ("H", "N")]
    if order == "reverse":
        pairs = list(reversed(pairs))
    rng = SplitMix64(seed if seed is not None else 0)
    allocation = Allocation(prof.endowment)
    saturated = set()
    calls = cursor = 0
    while len(saturated) < 2 * n:
        if order == "random":
            pair = rng.choice([p for p in pairs if p not in saturated])
        else:
            while pairs[cursor % len(pairs)] in saturated:
                cursor += 1
            pair = pairs[cursor % len(pairs)]
            cursor += 1
        comp, agent = pair
        classes = house_classes[agent] if comp == "H" else tenant_classes[agent]
        dropped = classes[kept[pair] - 1]
        target = sets_h if comp == "H" else sets_t
        target[agent] = target[agent] - dropped
        calls += 1
        result = rs_aa(n, prof.endowment, sets_h, sets_t)
        if result is None:
            target[agent] = target[agent] | dropped
            saturated.add(pair)
        else:
            kept[pair] -= 1
            allocation = result
    return PraResult(allocation, calls,
                     tuple(kept[("H", i)] for i in range(n)),
                     tuple(kept[("N", i)] for i in range(n)))


def _permuted_endowment(prof, rng):
    """The same market with houses renamed so that agent i owns perm[i]."""
    perm = list(range(prof.n))
    rng.shuffle(perm)
    houses = tuple(tuple(frozenset(perm[h] for h in cls) for cls in classes)
                   for classes in prof.house_classes)
    return ResponsiveProfile(prof.n, tuple(perm), houses, prof.tenant_classes)


def _differential_profiles():
    # heavy ties leave several perfect matchings on the final sets, where
    # the warm-started searches and the cold one can part ways
    for seed in range(240):
        yield random_responsive_profile(1 + seed % 8, (0.3, 0.6, 0.9)[seed % 3],
                                        (0.35, 0.9)[seed // 3 % 2], 60_000 + seed)
    for seed in range(120):
        base = random_responsive_profile(1 + seed % 12, 0.7, 0.3, 61_000 + seed)
        yield _permuted_endowment(base, SplitMix64(seed))
    for seed in range(3):
        yield _big_responsive_profile(20 + 10 * seed, 0.8, 0.3, seed)


def test_pra_matches_the_cold_reference():
    for prof in _differential_profiles():
        for order, s in (("round-robin", None), ("reverse", None), ("random", 7)):
            assert pra_rs(prof, order=order, seed=s) == _pra_reference(prof, order=order, seed=s)


def test_maintained_graph_equals_the_symmetrized_sets(monkeypatch):
    """pra_rs edits its agent-house graph per drop instead of rebuilding it.
    A spy replays every drop on its own copy of the sets and compares the
    graph with a fresh build of them: before each drop (so after the last
    one was kept or reverted), at each feasibility test, and on return.  At
    each test it also checks the suspect: the dropping agent for a house
    drop, the tenant of its house for a tenant drop, and the only agent
    whose edge of the start may be missing from the graph."""
    real_cut, real_rs_aa = responsive._cut, responsive.rs_aa
    state = {}

    def fresh(owner):
        return [set(row) for row in _symmetrized_graph(owner, state["h"], state["t"])]

    def cut(adj, tenant_drop, agent, dropped, own):
        assert adj == fresh(state["owner"])
        state["adj"], state["drop"] = adj, (tenant_drop, agent, dropped, own)
        (state["t"] if tenant_drop else state["h"])[agent] -= dropped
        return real_cut(adj, tenant_drop, agent, dropped, own)

    def rs_aa(n, endowment, *, start, adj, suspect):
        assert adj is state["adj"] and adj == fresh(state["owner"])
        tenant_drop, agent, dropped, own = state["drop"]
        assert suspect == (start.inverse[own] if tenant_drop else agent)
        assert all(start[i] in adj[i] for i in range(n) if i != suspect)
        result = real_rs_aa(n, endowment, start=start, adj=adj, suspect=suspect)
        if result is None:
            (state["t"] if tenant_drop else state["h"])[agent] |= dropped
            state["reverted"] += 1
        else:
            state["kept"] += 1
        return result

    monkeypatch.setattr(responsive, "_cut", cut)
    monkeypatch.setattr(responsive, "rs_aa", rs_aa)
    state["kept"] = state["reverted"] = 0
    rng = SplitMix64(17)
    for seed in range(150):
        prof = random_responsive_profile(1 + seed % 12, (0.3, 0.6, 0.9)[seed % 3],
                                         (0.0, 0.35, 0.9)[seed // 3 % 3], 80_000 + seed)
        if seed % 2:
            prof = _permuted_endowment(prof, rng)
        for order, s in (("round-robin", None), ("reverse", None), ("random", seed)):
            hcls, tcls = acceptable_component_classes(prof)
            state.update(owner=prof.owner, adj=None,
                         h=[set().union(*c) for c in hcls], t=[set().union(*c) for c in tcls])
            pra_rs(prof, order=order, seed=s)
            assert state["adj"] == fresh(prof.owner)
    assert state["kept"] > 1_000 and state["reverted"] > 1_000


def _drop_states(prof):
    """Every drop state reachable from full acceptability, and the terminal
    ones among them.  A state keeps, per (component, agent), a number of the
    agent's acceptable classes; a drop removes the worst kept class and is
    feasible when ``rs_aa`` still finds an allocation.  A terminal state is
    one where every next drop is infeasible: refinement stops there under
    any drop order that reaches it."""
    n = prof.n
    classes = acceptable_component_classes(prof)  # houses, then tenants

    def sets(kept):
        return [[set().union(*classes[c][i][:kept[c * n + i]]) for i in range(n)]
                for c in (0, 1)]

    start = tuple(len(classes[c][i]) for c in (0, 1) for i in range(n))
    seen, terminal, stack = {start}, [], [start]
    while stack:
        kept = stack.pop()
        moves = []
        for k in range(2 * n):
            child = kept[:k] + (kept[k] - 1,) + kept[k + 1:]
            if child[k] and rs_aa(n, prof.endowment, *sets(child)) is not None:
                moves.append(child)
        if not moves:
            terminal.append(sets(kept))
        for child in moves:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen, terminal


def _perfect_matchings(prof, houses, tenants):
    graph = _symmetrized_graph(prof.owner, houses, tenants)
    return [Allocation(p) for p in permutations(range(prof.n))
            if all(h in row for h, row in zip(p, graph))]


def test_refinement_reaches_exactly_the_rs_ir_and_rs_po_allocations():
    """The abstract's claim in both directions, with "the class" read as
    every drop order plus any perfect matching of the sets where it stops:
    each RS-IR + RS-Pareto-optimal allocation is reached, up to
    RS-indifference for every agent, and each perfect matching of each
    terminal state is RS-IR and RS-Pareto optimal.  No seed here breaks
    either direction; a seed that did would be recorded as the
    counterexample it gives, never by asserting the claim."""
    states = several = 0
    for seed in range(48):
        prof = random_responsive_profile(2 + seed % 3, (0.6, 0.8)[seed // 3 % 2], 0.35,
                                         50_000 + seed)
        n = prof.n
        seen, terminal = _drop_states(prof)
        states += len(seen)
        reached = [a for sets in terminal for a in _perfect_matchings(prof, *sets)]
        assert pra_rs(prof).allocation in reached
        for alloc in reached:
            assert is_rs_ir(prof, alloc) and is_rs_pareto_optimal(prof, alloc), (seed, alloc)
        optimal = [Allocation(p) for p in permutations(range(n))
                   if is_rs_ir(prof, Allocation(p)) and is_rs_pareto_optimal(prof, Allocation(p))]
        several += len(optimal) > 1
        for alloc in optimal:
            assert any(all(rs_compare(prof, i, outcome_of(prof, a, i), outcome_of(prof, alloc, i))
                           is RsOrdering.INDIFFERENT for i in range(n))
                       for a in reached), (seed, alloc)
    assert states > 5_000 and several >= 5


def test_with_report_checks_the_agent_index():
    prof = random_responsive_profile(3, 0.6, 0.3, 1)
    report = ([frozenset({0, 1, 2})], [frozenset({0, 1, 2})])  # valid for every agent
    for agent in (-1, 3, 4):
        with pytest.raises(ValueError, match=f"no agent {agent}"):
            prof.with_report(agent, report)
    got = prof.with_report(0, report)
    assert got.house_classes == ((frozenset({0, 1, 2}),),) + prof.house_classes[1:]
    assert got.tenant_classes == ((frozenset({0, 1, 2}),),) + prof.tenant_classes[1:]
    assert (got.n, got.endowment) == (prof.n, prof.endowment)
