"""Slow references the tests compare the library against.

Each walks every allocation (or every one-per-agent 0/1 point) and applies
the definition directly, so it is obviously right and only usable at desk
scale.
"""

from typing import Iterator

from tep import all_allocations, is_core_stable, is_individually_rational, outcome_of
from tep.programs import MathProgram, _x2, _x3
from tep.responsive import RsOrdering, rs_compare


def iter_candidate_points(program: MathProgram, n: int) -> Iterator[dict[str, int]]:
    """All 0/1 points satisfying the one-per-agent constraint family of the
    given encoding (each agent picks exactly one triple, or one house);
    points outside this family violate that constraint by construction.
    Used by exhaustive feasibility scans where 2**V is out of reach."""
    if program.kind == "ilp":
        choices = [[(i, j, k) for j in range(n) for k in range(n)] for i in range(n)]

        def fill(point: dict[str, int], picks) -> dict[str, int]:
            for (i, j, k) in picks:
                point[_x3(i, j, k)] = 1
            return point

        base = {v: 0 for v in program.variables}
        stack = [(0, [])]
        while stack:
            i, picks = stack.pop()
            if i == n:
                yield fill(dict(base), picks)
                continue
            for choice in reversed(choices[i]):
                stack.append((i + 1, picks + [choice]))
    else:
        base = {v: 0 for v in program.variables}

        def rec(i: int, point: dict[str, int]) -> Iterator[dict[str, int]]:
            if i == n:
                yield dict(point)
                return
            for j in range(n):
                point[_x2(i, j)] = 1
                yield from rec(i + 1, point)
                point[_x2(i, j)] = 0

        yield from rec(0, dict(base))


def rank_vector(inst, alloc):
    return tuple(inst.rank(i, outcome_of(inst, alloc, i)) for i in range(inst.n))


def enumerate_ir_pareto_optimal_reference(inst):
    """The IR allocations that no allocation at all Pareto-dominates, in
    lexicographic order."""
    allocs = list(all_allocations(inst.n))
    vectors = set(rank_vector(inst, a) for a in allocs)
    out = []
    for alloc in allocs:
        if not is_individually_rational(inst, alloc):
            continue
        p = rank_vector(inst, alloc)
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in vectors):
            out.append(alloc)
    return out


def enumerate_core_stable_reference(inst, node_budget=None):
    """Every allocation that passes ``is_core_stable``, in lexicographic
    order."""
    return [a for a in all_allocations(inst.n) if is_core_stable(inst, a, node_budget=node_budget)]


def is_rs_pareto_optimal_reference(prof, alloc):
    """No allocation is weakly better for every agent under the set
    extension and strictly better for one."""
    current = [outcome_of(prof, alloc, i) for i in range(prof.n)]
    for q in all_allocations(prof.n):
        strict = False
        for i in range(prof.n):
            ordering = rs_compare(prof, i, outcome_of(prof, q, i), current[i])
            if ordering in (RsOrdering.WORSE, RsOrdering.INCOMPARABLE):
                strict = False
                break
            if ordering is RsOrdering.BETTER:
                strict = True
        if strict:
            return False
    return True
