"""Exact, desk-scale oracles for allocation axioms.

Everything here is exponential-time by nature (the underlying existence
questions are NP-hard), so each oracle is exact within a node budget: a
search that would need more nodes raises ``BudgetExceededError``.

The Pareto oracles and ``programs.solve_exact_max_weight`` share one
branch and bound over partial assignments (:func:`_permutation_search`):
agents take free houses in index order, so complete assignments come out in
lexicographic order, and an agent's rank (or weight) is checked against its
limit as soon as the receiver of its own house is known.  With a bound on
the sum, a subtree is cut unless it can still beat the best leaf found so
far *strictly*; ties are cut too, so of equally good allocations the
lexicographically first one is kept.  With the endowment ranks as limits
it yields exactly the IR allocations, which the IR + Pareto and core
enumerations take.  The Pareto enumerations keep the leaves whose rank
vectors form the skyline: the distinct vectors are taken by rank sum, and
each is tested against the front kept so far with one AND of per-agent
rank bitmasks, not member by member.  Each internal node of this search
charges its budget one tick per house its loop looks at, n in all.

The backtracking search over listed outcomes (:func:`_assignment_search`)
stays a separate engine: it tries listed outcomes in listed order under a
node budget, which suits sparse large-n gadgets, and ``core_exists`` (its
first leaf) and the exit-3 points depend on that order and that budget.
Each candidate costs one budget tick.  An agent tries the candidates that
match its house or tenant if one is already fixed, from one table of
groups by the fixed fact; an agent's groups by house, or by tenant, are
built the first time it needs them.  A group keeps only the candidates
that can fit, with their positions, and its full length, so the ticks of
the candidates passed over are charged in one ``Budget.tick`` before the
next one is written or when the group runs out: every exit-3 point and
``Budget.left`` stay those of one tick per candidate.  A write settles
the agents it fixes in full inline, in index order: the writer at the
rank its candidate carries, the others at a rank dict lookup and a limit
test; steps are built once per agent, rank and search.  Both searches are generators
that walk stacks of their own, so only the node budget bounds how many
agents they reach; ``Instance.rank_table``, from which every n³ table the
permutation search reads is built, refuses n above
``model.MAX_N_CEILING``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from operator import and_
from typing import Iterator, Sequence

from .cycles import Budget, Options, find_exchange_cycle, has_cycle_through, iter_exchange_cycles
from .model import Allocation, Instance, outcome_of

DEFAULT_NODE_BUDGET = 10_000_000


def all_allocations(n: int) -> Iterator[Allocation]:
    """All n! allocations in lexicographic assignment order."""
    for perm in permutations(range(n)):
        yield Allocation(perm)


def _ir_limits(inst: Instance) -> list[int]:
    """Per agent, the rank of its endowment outcome: the limit of IR."""
    return [inst.endowment_rank(i) for i in range(inst.n)]


def _rank_vector(inst: Instance, alloc: Allocation) -> tuple[int, ...]:
    n, table, tenant = inst.n, inst.rank_table, alloc.inverse
    return tuple(table[i][alloc[i] * n + tenant[inst.endowment[i]]] for i in range(n))


def _permutation_search(inst: Instance, cost: Sequence[Sequence[int]], limits: Sequence[int],
                        node_budget: int, bound: float | None = None
                        ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Depth-first search over partial assignments, yielding (assignment,
    per-agent costs) leaves in lexicographic assignment order.

    ``cost[i][h * n + t]`` is agent i's cost of outcome (h, t).  Agent k
    takes a free house h at depth k; that fixes k's outcome when k's own
    house already has a receiver, and the outcome of ``owner[h]`` when that
    agent already holds a house.  A fixed cost above the agent's limit cuts
    the branch.  Without ``bound`` every leaf within the limits is yielded.
    With it, only leaves whose total is strictly below ``bound`` and below
    every leaf yielded before are yielded, and a subtree is cut as soon as
    its fixed costs plus each undetermined agent's least cost reach the
    lowest of these totals.  Each internal node charges ``node_budget`` one
    tick per house its loop looks at, n at once, whether the house is free
    and fits or not.

    The walk keeps a stack of its own, one frame per agent before the one
    it is placing: that agent, the houses it has yet to try, the cost sums
    before it, and its cost row, limit and own house.  The last agent yields
    its leaves from its own loop; an agent out of houses pops a frame.
    """
    n = inst.n
    endow, owner = inst.endowment, inst.owner
    low = [min(row) for row in cost]
    got = [-1] * n    # house taken by each agent
    taker = [-1] * n  # agent that took each house
    val = [0] * n     # cost of each agent's fixed outcome
    best = bound
    tick = Budget(node_budget).tick
    last = n - 1      # the agent whose placements are leaves
    stack: list[tuple] = []
    k, acc, rest = 0, 0, sum(low)
    tick(n)
    houses, row, limit, own = iter(range(n)), cost[0], limits[0], endow[0]
    while True:
        for h in houses:
            if taker[h] >= 0:
                continue
            a, r = acc, rest
            tenant = k if h == own else taker[own]
            if tenant >= 0:
                c = row[h * n + tenant]
                if c > limit:
                    continue
                a += c
                r -= low[k]
                val[k] = c
            o = owner[h]
            if o < k:
                c = cost[o][got[o] * n + k]
                if c > limits[o]:
                    continue
                a += c
                r -= low[o]
                val[o] = c
            if best is not None and a + r >= best:
                continue
            got[k] = h
            if k == last:
                if best is not None:
                    best = a
                yield tuple(got), tuple(val)
                continue
            taker[h] = k
            stack.append((k, houses, acc, rest, row, limit, own))
            k, acc, rest = k + 1, a, r
            tick(n)
            houses, row, limit, own = iter(range(n)), cost[k], limits[k], endow[k]
            break
        else:
            if not stack:
                return
            k, houses, acc, rest, row, limit, own = stack.pop()
            taker[got[k]] = -1


def is_individually_rational(inst: Instance, alloc: Allocation) -> bool:
    """Every agent weakly prefers its outcome to keeping its own house."""
    return all(inst.rank(i, outcome_of(inst, alloc, i)) <= limit
               for i, limit in enumerate(_ir_limits(inst)))


def is_pareto_optimal(inst: Instance, alloc: Allocation, *,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """No other allocation weakly improves every agent and strictly one.

    Searches the allocations ranked at most p's rank vector for one with a
    smaller rank sum; one with the same sum would have p's rank vector.
    """
    p_ranks = _rank_vector(inst, alloc)
    leaves = _permutation_search(inst, inst.rank_table, p_ranks, node_budget, sum(p_ranks))
    return next(leaves, None) is None


def is_weakly_pareto_optimal(inst: Instance, alloc: Allocation, *,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """No other allocation strictly improves every agent at once."""
    limits = [r - 1 for r in _rank_vector(inst, alloc)]
    if min(limits) < 0:  # an agent at rank 0 cannot improve
        return True
    return next(_permutation_search(inst, inst.rank_table, limits, node_budget), None) is None


@dataclass(frozen=True)
class BlockingWitness:
    """A coalition that can strictly improve all of its members by
    reallocating its own endowments as ``internal`` says."""

    coalition: tuple[int, ...]          # sorted members
    internal: tuple[tuple[int, int], ...]  # (member, house) pairs, sorted by member


def _witness_from_cycle(inst: Instance, cycle: list[int]) -> BlockingWitness:
    """The witness of a trading cycle: cycle[t] takes cycle[t+1]'s house."""
    k = len(cycle)
    internal = {cycle[t]: inst.endowment[cycle[(t + 1) % k]] for t in range(k)}
    return BlockingWitness(
        coalition=tuple(sorted(cycle)),
        internal=tuple(sorted(internal.items())),
    )


def _improvement_steps(inst: Instance, agent: int, cur: int) -> list[tuple[int, int]]:
    """The (predecessor, successor) exchange steps to the outcomes the agent
    ranks strictly above rank ``cur``.  A listed outcome (h, t) means taking
    the house of h's owner while t becomes the agent's own tenant."""
    owner = inst.owner
    return [(o.tenant, owner[o.house]) for o in inst.listed_outcomes(agent, cur - 1)]


def improvement_options(inst: Instance, alloc: Allocation) -> Options:
    """Per agent, the exchange steps it strictly prefers to its current
    outcome."""
    return [_improvement_steps(inst, i, inst.rank(i, outcome_of(inst, alloc, i)))
            for i in range(inst.n)]


def find_blocking_coalition(inst: Instance, alloc: Allocation) -> BlockingWitness | None:
    """A minimal-cardinality blocking coalition, or None.

    Minimal blocking coalitions are single trading cycles (any blocking
    coalition's internal allocation decomposes into cycles, each of which
    blocks on its own), so the search enumerates improvement cycles and
    keeps the smallest; ties break on the sorted member list, then on the
    internal house vector.
    """
    options = improvement_options(inst, alloc)
    cycles = iter_exchange_cycles(options, Budget(DEFAULT_NODE_BUDGET))
    return min((_witness_from_cycle(inst, cycle) for cycle in cycles), default=None,
               key=lambda w: (len(w.coalition), w.coalition, w.internal))


def is_core_stable(inst: Instance, alloc: Allocation, *,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """No coalition can strictly improve all members with an internal exchange."""
    options = improvement_options(inst, alloc)
    return find_exchange_cycle(options, Budget(node_budget)) is None


def _fitting(cands: list[tuple[int, int, int, int]], agent: int) -> tuple[tuple, int]:
    """The candidates an allocation can give ``agent``, each as (position,
    house, tenant, owner of the house, rank), and how many candidates there
    are in all.  An outcome fits only if the house is the agent's own exactly
    when the agent is its own tenant."""
    return (tuple((p, h, t, o, r) for p, (h, t, o, r) in enumerate(cands)
                  if (o == agent) == (t == agent)), len(cands))


def _fitting_by(cands: list[tuple[int, int, int, int]], agent: int,
                part: int) -> dict[int, tuple[tuple, int]]:
    """The candidates grouped by house (``part`` 0) or by tenant (1), each
    group as :func:`_fitting` gives it."""
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for cand in cands:
        groups.setdefault(cand[part], []).append(cand)
    return {key: _fitting(group, agent) for key, group in groups.items()}


_NO_CANDIDATE: tuple[tuple, int] = ((), 0)


def _assignment_search(inst: Instance, rank_limits: list[int],
                       prune_blocking: bool, budget: Budget) -> Iterator[Allocation]:
    """Backtracking over agents in index order, assigning each a listed
    outcome of rank <= its limit, with bijection and tenant-consistency
    propagation.  With ``prune_blocking`` any partial assignment already
    containing an improvement cycle among fully-determined agents is cut,
    so every yielded leaf is core stable.
    """
    n = inst.n
    owner = inst.owner
    endow = inst.endowment
    got = [-1] * n  # house received
    ten = [-1] * n  # tenant of own house
    ranks = [order.ranks for order in inst.orders]
    # Each agent's candidates as (house, tenant, owner of the house, rank), in listed order.
    listed = [[(h, t, owner[h], ranks[i][h, t])
               for h, t in inst.listed_outcomes(i, rank_limits[i])] for i in range(n)]
    every = [_fitting(cands, i) for i, cands in enumerate(listed)]
    # by_fact[part][i]: agent i's groups by house (part 0) or by tenant (1).
    by_fact: list[list[dict[int, tuple[tuple, int]] | None]] = [[None] * n, [None] * n]
    unlisted = [order.unacceptable_rank for order in inst.orders]
    steps: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n)]
    # The fully fixed agents.  has_cycle_through reads the options of these
    # alone, so an agent that leaves the set keeps its stale entry.
    determined: set[int] = set()
    imp_options: Options = [[] for _ in range(n)]
    tick = budget.tick

    # One frame per written candidate that settled: its agent, the
    # agent's two facts before the write, the rest of its group, the
    # ticks charged so far, what the write replaced and the agents it
    # settled.  A leaf and an exhausted group both pop the last frame,
    # undo its write and go on with the next candidate of its group.
    stack: list[tuple] = []
    i, resume = 0, False
    while True:
        if resume:
            if not stack:
                return
            i, gi, ti, cands, size, charged, o, t, ten_o, got_t, fixed = stack.pop()
            determined.difference_update(fixed)
            ten[o], got[t] = ten_o, got_t
            got[i], ten[i] = gi, ti
        else:
            while i < n and got[i] >= 0 and ten[i] >= 0:
                i += 1
            if i == n:
                yield Allocation(tuple(got))
                resume = True
                continue
            gi, ti = got[i], ten[i]
            if gi < 0 and ti < 0:
                fits, size = every[i]
            else:
                # One fact is fixed: the house if gi is, else the tenant.
                part, fact = (0, gi) if gi >= 0 else (1, ti)
                groups = by_fact[part][i]
                if groups is None:
                    groups = by_fact[part][i] = _fitting_by(listed[i], i, part)
                fits, size = groups.get(fact, _NO_CANDIDATE)
            cands, charged = iter(fits), 0
        own = endow[i]
        resume = True
        # Every candidate in the group costs one tick, in order, whether
        # it fits or not; the ticks up to a candidate are charged just
        # before it is written, and the rest when the group runs out.
        for p, h, t, o, rank in cands:
            # The candidate fixes got[i] = h, ten[i] = t, ten[o] = i and
            # got[t] = own; a clash with a fact already fixed ends it
            # unwritten.  With o == i, t is i too and nothing can clash.
            ten_o, got_t = ten[o], got[t]
            if (ten_o >= 0 and ten_o != i) or (got_t >= 0 and got_t != own):
                continue
            tick(p + 1 - charged)
            charged = p + 1
            got[i], ten[i], ten[o], got[t] = h, t, i, own
            # Now fixed in full: i, and o and t if the write set their last
            # fact.  Agents below i are determined, so a fact it found set
            # was set by that agent's own write, which fixed the agent whole
            # (a swap partner, t == o, so fixed would have fixed i too).
            # Every new agent is above i.
            if o == i:  # h is i's own house, and i its own tenant
                fixed: tuple[int, ...] = (i,)
            elif t == o:
                fixed = (i, o)
            elif ten_o < 0 and got[o] >= 0:
                if got_t < 0 and ten[t] >= 0:
                    fixed = (i, o, t) if o < t else (i, t, o)
                else:
                    fixed = (i, o)
            else:
                fixed = (i, t) if got_t < 0 and ten[t] >= 0 else (i,)
            # Settle in order: i at its candidate's rank, within its limit,
            # the others at their looked-up ranks, against theirs.
            for x in fixed:
                if x != i:
                    rank = ranks[x].get((got[x], ten[x]), unlisted[x])
                    if rank > rank_limits[x]:
                        break
                determined.add(x)
                if prune_blocking:
                    known = steps[x]
                    imp = known.get(rank)
                    if imp is None:
                        imp = known[rank] = _improvement_steps(inst, x, rank)
                    imp_options[x] = imp
                    if has_cycle_through(imp_options, x, determined, budget):
                        break
            else:
                stack.append((i, gi, ti, cands, size, charged, o, t, ten_o, got_t, fixed))
                i, resume = i + 1, False
                break
            determined.difference_update(fixed)
            ten[o], got[t] = ten_o, got_t
            got[i], ten[i] = gi, ti
        else:
            if charged < size:
                tick(size - charged)


def enumerate_ir_allocations(inst: Instance, *,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> list[Allocation]:
    """Exactly the allocations giving every agent an outcome weakly above
    its endowment outcome, found by backtracking over listed outcomes."""
    return list(_assignment_search(inst, _ir_limits(inst), False, Budget(node_budget)))


def core_exists(inst: Instance, *,
                node_budget: int = DEFAULT_NODE_BUDGET) -> Allocation | None:
    """A core-stable allocation if one exists, else None.

    Core-stable allocations are individually rational (a singleton coalition
    blocks anything below the endowment outcome), so the search runs over
    IR assignments only, pruning branches that already contain a blocking
    cycle.  Leaves are re-checked before being returned.
    """
    budget = Budget(node_budget)
    for alloc in _assignment_search(inst, _ir_limits(inst), True, budget):
        options = improvement_options(inst, alloc)
        if find_exchange_cycle(options, budget) is None:
            return alloc
    return None


def find_top_allocation(inst: Instance) -> Allocation | None:
    """An allocation giving every agent a top-class outcome, or None."""
    limits = [0] * inst.n
    budget = Budget(DEFAULT_NODE_BUDGET)
    return next(_assignment_search(inst, limits, False, budget), None)


def _pareto_front(inst: Instance, limits: Sequence[int], node_budget: int) -> list[Allocation]:
    """The allocations within ``limits`` that none of them dominates, lexicographically."""
    leaves = list(_permutation_search(inst, inst.rank_table, limits, node_budget))
    # Skyline of the distinct rank vectors: taken by rank sum, a vector is
    # dominated iff an undominated vector of smaller sum lies below it.  Bit j
    # of masks[i][r] is set when front member j ranks agent i at r or better,
    # so the members below a vector are the AND of its agents' masks.
    masks = [[0] * (len(classes) + 1) for classes in inst.prefs]
    optimal = set()
    for vec in sorted(set(ranks for _, ranks in leaves), key=sum):
        if not reduce(and_, map(list.__getitem__, masks, vec)):
            bit = 1 << len(optimal)
            optimal.add(vec)
            for row, r in zip(masks, vec):
                row[r:] = [m | bit for m in row[r:]]
    return [Allocation(assignment) for assignment, ranks in leaves if ranks in optimal]


def enumerate_pareto_optimal(inst: Instance, *,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> list[Allocation]:
    """All Pareto-optimal allocations, in lexicographic assignment order."""
    return _pareto_front(inst, [len(c) for c in inst.prefs], node_budget)


def enumerate_ir_pareto_optimal(inst: Instance, *,
                                node_budget: int = DEFAULT_NODE_BUDGET) -> list[Allocation]:
    """The IR Pareto-optimal allocations, in lexicographic assignment order:
    the front of the IR allocations, since what dominates an IR one is IR."""
    return _pareto_front(inst, _ir_limits(inst), node_budget)


def enumerate_core_stable(inst: Instance, *,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> list[Allocation]:
    """The core-stable allocations, in lexicographic assignment order.  They
    are IR, so only IR ones are checked; the search for them and each check
    run under a node budget of their own."""
    leaves = _permutation_search(inst, inst.rank_table, _ir_limits(inst), node_budget)
    return [a for a in (Allocation(assignment) for assignment, _ in leaves)
            if is_core_stable(inst, a, node_budget=node_budget)]
