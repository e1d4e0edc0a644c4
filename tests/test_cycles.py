"""The one depth-first cycle search behind `iter_exchange_cycles` and
`has_cycle_through`, cross-checked against the two routines it replaced.

``iter_exchange_cycles_reference`` and ``has_cycle_through_reference`` are
those routines, kept verbatim apart from their names and a budget that is
always given, as a budget is always a count.  On seeded random option
lists under several budgets (the pivot search also within member subsets),
the new search must give the same cycles in the same order, the same
answers, the same ``Budget.left`` after each call, and run out of budget
at the same point.  Rings and chains of 30-60 members with a few
chords are compared the same way, since the search keeps its path on a
stack of its own; the references still fit Python's call stack at that
size, and rings of thousands of members are checked for their answer.

Pivots with no options and pivots whose options all leave the member set
are compared under every budget, an enumeration taken one cycle at a time
must resume inside a frame, and ``Budget.tick`` must charge several ticks
at once exactly as single ticks would run out.
"""

import random
from typing import Iterator

from tep.cycles import Budget, find_exchange_cycle, has_cycle_through, iter_exchange_cycles
from tep.errors import BudgetExceededError


def iter_exchange_cycles_reference(options, budget, members=None) -> Iterator[list[int]]:
    allowed = members if members is not None else set(range(len(options)))

    def extend(start: int, closing_prev: int, cur: int, prev: int,
               path: list[int], on_path: set[int]) -> Iterator[list[int]]:
        for p, nxt in options[cur]:
            if p != prev:
                continue
            budget.tick()
            if nxt == start:
                if cur == closing_prev:
                    yield path.copy()
            elif nxt > start and nxt in allowed and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                yield from extend(start, closing_prev, nxt, cur, path, on_path)
                on_path.remove(nxt)
                path.pop()

    for start in sorted(allowed):
        for p0, n0 in options[start]:
            budget.tick()
            if n0 == start:
                if p0 == start:
                    yield [start]
                continue
            if n0 <= start or p0 <= start or n0 not in allowed or p0 not in allowed:
                continue
            yield from extend(start, p0, n0, start, [start, n0], {start, n0})


def has_cycle_through_reference(options, pivot, allowed, budget) -> bool:

    def extend(cur: int, prev: int, closing_prev: int, on_path: set[int]) -> bool:
        for p, nxt in options[cur]:
            if p != prev:
                continue
            budget.tick()
            if nxt == pivot:
                if cur == closing_prev:
                    return True
            elif nxt in allowed and nxt not in on_path:
                on_path.add(nxt)
                if extend(nxt, cur, closing_prev, on_path):
                    return True
                on_path.remove(nxt)
        return False

    for p0, n0 in options[pivot]:
        budget.tick()
        if n0 == pivot:
            if p0 == pivot:
                return True
            continue
        if n0 in allowed and p0 in allowed and extend(n0, pivot, p0, {pivot, n0}):
            return True
    return False


def _random_options(rng: random.Random, n: int) -> list[list[tuple[int, int]]]:
    """Per agent, a random list of (predecessor, successor) pairs; denser
    lists make longer cycles, and a few self-loops (i, i) occur."""
    density = rng.choice([0.1, 0.3, 0.6])
    return [[(p, s) for p in range(n) for s in range(n) if rng.random() < density]
            for _ in range(n)]


def _outcome(fn):
    """(result or the exhaustion marker, cycles yielded before it)."""
    seen = []
    try:
        return fn(seen), seen
    except BudgetExceededError:
        return "exhausted", seen


def _ring_or_chain(rng: random.Random) -> list[list[tuple[int, int]]]:
    """A ring of 30-60 members in shuffled order, or the same ring cut open
    into a chain, plus up to three chords that skip part of it and a few
    random options: one long cycle, or none, beside a few shorter ones."""
    m = rng.randint(30, 60)
    ring = rng.sample(range(m), m)
    options = [[] for _ in range(m)]
    cut = rng.randrange(m) if rng.random() < 0.5 else None
    for k, member in enumerate(ring):
        if k != cut:
            options[member].append((ring[k - 1], ring[(k + 1) % m]))
    for _ in range(rng.randint(0, 3)):
        a, b = sorted(rng.sample(range(m), 2))
        options[ring[a]].append((ring[a - 1], ring[b]))
        options[ring[b]].append((ring[a], ring[(b + 1) % m]))
    for _ in range(rng.randint(0, 3)):
        options[rng.randrange(m)].append((rng.randrange(m), rng.randrange(m)))
    for row in options:
        rng.shuffle(row)
    return options


def _family():
    rng = random.Random(20261018)
    for case in range(3000):
        n = rng.randint(1, 7)
        options = _random_options(rng, n)
        members = None if case % 2 else set(rng.sample(range(n), rng.randint(1, n)))
        yield case, options, members, rng.choice([10 ** 9, 5, 50, 500])


def _long_family():
    rng = random.Random(20261019)
    for case in range(300):
        options = _ring_or_chain(rng)
        n = len(options)
        members = None if case % 2 else set(range(n)) - set(rng.sample(range(n), rng.randint(0, 2)))
        yield case, options, members, rng.choice([10 ** 9, 5, 50, 500])


def _compare_enumerations(family) -> tuple[int, int]:
    """Both enumerations on each case: (cases exhausted, longest cycle)."""
    exhausted = longest = 0
    for case, options, _, nodes in family:
        runs = []
        for enumerate_ in (iter_exchange_cycles_reference, iter_exchange_cycles):
            budget = Budget(nodes)
            result, seen = _outcome(lambda seen: seen.extend(enumerate_(options, budget)))
            runs.append((result, seen, budget.left))
        assert runs[0] == runs[1], (case, options, nodes)
        exhausted += runs[0][0] == "exhausted"
        longest = max([longest] + [len(cycle) for cycle in runs[0][1]])
    return exhausted, longest


def _compare_pivot_searches(family) -> dict:
    """Both pivot searches on each case and pivot: the count of each answer."""
    answers = {True: 0, False: 0, "exhausted": 0}
    for case, options, members, nodes in family:
        n = len(options)
        allowed = members if members is not None else set(range(n))
        for pivot in range(n):
            runs = []
            for has_cycle in (has_cycle_through_reference, has_cycle_through):
                budget = Budget(nodes)
                result, _ = _outcome(lambda seen: has_cycle(options, pivot, allowed, budget))
                runs.append((result, budget.left))
            assert runs[0] == runs[1], (case, options, pivot, allowed, nodes)
            answers[runs[0][0]] += 1
    return answers


def test_cycle_enumeration_matches_the_reference():
    exhausted, longest = _compare_enumerations(_family())
    assert exhausted > 0 and longest >= 5


def test_cycle_through_a_pivot_matches_the_reference():
    answers = _compare_pivot_searches(_family())
    assert min(answers.values()) > 0, answers


def test_ring_and_chain_enumeration_matches_the_reference():
    exhausted, longest = _compare_enumerations(_long_family())
    assert exhausted > 0 and longest >= 30


def test_ring_and_chain_pivot_search_matches_the_reference():
    answers = _compare_pivot_searches(_long_family())
    assert min(answers.values()) > 0, answers


def test_a_ring_longer_than_the_recursion_limit_is_found_whole():
    n = 3000
    ring = [[((i - 1) % n, (i + 1) % n)] for i in range(n)]
    budget = Budget(10_000)
    assert find_exchange_cycle(ring, budget) == list(range(n))
    assert budget.left == 10_000 - n  # one tick per member
    assert has_cycle_through(ring, n // 2, set(range(n)), Budget(10_000))


def _pivot_family():
    """Random option lists in which some pivots have no options and others
    have only options with an end outside ``allowed``, beside ordinary
    ones: (case, options, pivot, allowed, kind)."""
    rng = random.Random(20261020)
    for case in range(400):
        n = rng.randint(2, 7)
        options = _random_options(rng, n)
        pivot = rng.randrange(n)
        outside = rng.sample([v for v in range(n) if v != pivot], rng.randint(1, n - 1))
        allowed = set(range(n)) - set(outside)
        kind = ("no-options", "all-leave", "any")[case % 3]
        if kind == "no-options":
            options[pivot] = []
        elif kind == "all-leave":
            options[pivot] = [(p, rng.choice(outside)) if rng.random() < 0.5
                              else (rng.choice(outside), s)
                              for p, s in options[pivot] or [(pivot, pivot)]]
        yield case, options, pivot, allowed, kind


def test_pivot_checks_match_the_reference_under_every_budget():
    """A pivot with no options ticks nothing, and one whose options all
    leave ``allowed`` ticks once per option and answers False; under every
    budget from 0 to the full tick count, the answer and ``Budget.left``
    are the reference's."""
    seen = {"no-options": 0, "all-leave": 0, "any": 0, "exhausted": 0, "found": 0}
    for case, options, pivot, allowed, kind in _pivot_family():
        full = Budget(10_000)
        answer = has_cycle_through_reference(options, pivot, allowed, full)
        ticks = 10_000 - full.left
        if kind == "no-options":
            assert (answer, ticks) == (False, 0), case
        elif kind == "all-leave":
            assert (answer, ticks) == (False, len(options[pivot])), case
        for nodes in range(ticks + 1):
            runs = []
            for has_cycle in (has_cycle_through_reference, has_cycle_through):
                budget = Budget(nodes)
                result, _ = _outcome(lambda seen: has_cycle(options, pivot, allowed, budget))
                runs.append((result, budget.left))
            assert runs[0] == runs[1], (case, options, pivot, allowed, nodes)
            seen["exhausted"] += runs[0][0] == "exhausted"
        seen[kind] += 1
        seen["found"] += answer
    assert min(seen.values()) > 0, seen


def test_a_partly_consumed_enumeration_resumes_mid_walk():
    """0 -> 1 -> 2 -> 4 -> 0 and 0 -> 1 -> 3 -> 4 -> 0 share the first
    option (4, 1) of agent 0: the second cycle is found by resuming the walk
    inside agent 1's frame.  Taken one cycle at a time, the enumeration
    leaves the reference's ``Budget.left`` after each cycle, and under every
    budget it yields the cycles found before the budget ran out."""
    ring = [[(4, 1)], [(0, 2), (0, 3)], [(1, 4)], [(1, 4)], [(2, 0), (3, 0)]]
    want = [[0, 1, 2, 4], [0, 1, 3, 4]]
    steps = []
    for enumerate_ in (iter_exchange_cycles_reference, iter_exchange_cycles):
        budget = Budget(1_000)
        cycles = enumerate_(ring, budget)
        steps.append([(next(cycles), budget.left), (next(cycles), budget.left),
                      (next(cycles, None), budget.left)])
    assert steps[0] == steps[1]
    assert [cycle for cycle, _ in steps[1]] == want + [None]
    ticks = 1_000 - steps[1][-1][1]
    yielded = set()
    for nodes in range(ticks + 1):
        runs = []
        for enumerate_ in (iter_exchange_cycles_reference, iter_exchange_cycles):
            budget = Budget(nodes)
            result, seen = _outcome(lambda seen: seen.extend(enumerate_(ring, budget)))
            runs.append((result, seen, budget.left))
        assert runs[0] == runs[1], nodes
        yielded.add(len(runs[1][1]))
        assert runs[1][0] == "exhausted" or nodes == ticks
    assert yielded == {0, 1, 2}


def test_a_charge_of_several_ticks_runs_out_as_single_ticks_would():
    """``tick(k)`` raises where the k-th of k single ticks would, and leaves
    ``left`` at -1 whatever it overshot by, and ``tick(0)`` charges
    nothing."""
    for nodes in range(5):
        for charge in range(8):
            single, bulk = Budget(nodes), Budget(nodes)
            single_result, _ = _outcome(lambda seen: [single.tick() for _ in range(charge)])
            bulk_result, _ = _outcome(lambda seen: bulk.tick(charge))
            assert ((single_result == "exhausted", single.left)
                    == (bulk_result == "exhausted", bulk.left)), (nodes, charge)
            assert bulk.left == (-1 if charge > nodes else nodes - charge)
    empty = Budget(0)
    empty.tick(0)
    assert empty.left == 0
    empty.tick(0)
    assert empty.left == 0
