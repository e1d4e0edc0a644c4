"""Exact, desk-scale oracles for allocation axioms.

Everything here is exponential-time by nature (the underlying existence
questions are NP-hard), so each oracle carries an explicit bound and is
exact within it.

The Pareto oracles and ``programs.solve_exact_max_weight`` share one
branch and bound over partial assignments (:func:`_permutation_search`):
agents take free houses in index order, so complete assignments come out in
lexicographic order, and an agent's rank (or weight) is checked against its
limit as soon as the receiver of its own house is known.  With a bound on
the sum, a subtree is cut unless it can still beat the best leaf found so
far *strictly*; ties are cut too, so of equally good allocations the
lexicographically first one is kept.  With the endowment ranks as limits
it yields exactly the IR allocations, which the IR + Pareto and core
enumerations take.  These oracles refuse to run above ``max_n``.

The backtracking search over listed outcomes (:func:`_assignment_search`)
stays a separate engine: it tries listed outcomes in listed order under a
node budget, which suits sparse large-n gadgets, and ``core_exists`` (its
first leaf) and the exit-3 points depend on that order and that budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

from .cycles import Budget, Options, find_exchange_cycle, has_cycle_through, iter_exchange_cycles
from .errors import OracleLimitError
from .model import Allocation, Instance, Market, Outcome, outcome_of

DEFAULT_MAX_N = 8
DEFAULT_NODE_BUDGET = 10_000_000


def all_allocations(n: int) -> Iterator[Allocation]:
    """All n! allocations in lexicographic assignment order."""
    for perm in permutations(range(n)):
        yield Allocation(perm)


def _check_max_n(market: Market, max_n: int, what: str = "exact scan") -> None:
    if market.n > max_n:
        raise OracleLimitError(
            f"{what} needs n <= {max_n}, got n = {market.n}; raise the bound explicitly"
        )


def _ir_limits(inst: Instance) -> list[int]:
    """Per agent, the rank of its endowment outcome: the limit of IR."""
    return [inst.endowment_rank(i) for i in range(inst.n)]


def _rank_vector(inst: Instance, alloc: Allocation) -> tuple[int, ...]:
    n, table, tenant = inst.n, inst.rank_table, alloc.inverse
    return tuple(table[i][alloc[i] * n + tenant[inst.endowment[i]]] for i in range(n))


def _permutation_search(inst: Instance, cost: Sequence[Sequence[int]], limits: Sequence[int],
                        bound: float | None = None
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
    lowest of these totals.
    """
    n = inst.n
    endow, owner = inst.endowment, inst.owner
    low = [min(row) for row in cost]
    got = [-1] * n    # house taken by each agent
    taker = [-1] * n  # agent that took each house
    val = [0] * n     # cost of each agent's fixed outcome
    best = bound

    def place(k: int, acc, rest) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        nonlocal best
        if k == n:
            if best is not None:
                best = acc
            yield tuple(got), tuple(val)
            return
        row, limit, own = cost[k], limits[k], endow[k]
        for h in range(n):
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
            got[k], taker[h] = h, k
            yield from place(k + 1, a, r)
            taker[h] = -1

    return place(0, 0, sum(low))


def is_individually_rational(inst: Instance, alloc: Allocation) -> bool:
    """Every agent weakly prefers its outcome to keeping its own house."""
    return all(inst.rank(i, outcome_of(inst, alloc, i)) <= limit
               for i, limit in enumerate(_ir_limits(inst)))


def pareto_dominates(inst: Instance, q: Allocation, p: Allocation) -> bool:
    """True when q weakly improves every agent and strictly improves one."""
    strict = False
    for i in range(inst.n):
        rq = inst.rank(i, outcome_of(inst, q, i))
        rp = inst.rank(i, outcome_of(inst, p, i))
        if rq > rp:
            return False
        if rq < rp:
            strict = True
    return strict


def is_pareto_optimal(inst: Instance, alloc: Allocation, *,
                      max_n: int = DEFAULT_MAX_N) -> bool:
    """No other allocation weakly improves every agent and strictly one.

    Searches the allocations ranked at most p's rank vector for one with a
    smaller rank sum; one with the same sum would have p's rank vector.
    """
    _check_max_n(inst, max_n)
    p_ranks = _rank_vector(inst, alloc)
    leaves = _permutation_search(inst, inst.rank_table, p_ranks, sum(p_ranks))
    return next(leaves, None) is None


def is_weakly_pareto_optimal(inst: Instance, alloc: Allocation, *,
                             max_n: int = DEFAULT_MAX_N) -> bool:
    """No other allocation strictly improves every agent at once."""
    _check_max_n(inst, max_n)
    limits = [r - 1 for r in _rank_vector(inst, alloc)]
    if min(limits) < 0:  # an agent at rank 0 cannot improve
        return True
    return next(_permutation_search(inst, inst.rank_table, limits), None) is None


@dataclass(frozen=True)
class BlockingWitness:
    """A coalition that can strictly improve all of its members by
    reallocating its own endowments along ``cycle``."""

    coalition: tuple[int, ...]          # sorted members
    internal: tuple[tuple[int, int], ...]  # (member, house) pairs, sorted by member
    cycle: tuple[int, ...]              # trading order: cycle[t] takes cycle[t+1]'s house

    def internal_map(self) -> dict[int, int]:
        return dict(self.internal)


def _witness_from_cycle(inst: Instance, cycle: list[int]) -> BlockingWitness:
    k = len(cycle)
    internal = {cycle[t]: inst.endowment[cycle[(t + 1) % k]] for t in range(k)}
    return BlockingWitness(
        coalition=tuple(sorted(cycle)),
        internal=tuple(sorted(internal.items())),
        cycle=tuple(cycle),
    )


def witness_blocks(inst: Instance, alloc: Allocation, witness: BlockingWitness) -> bool:
    """Re-check a witness against the definitions (used by tests and callers
    that do not trust the search)."""
    members = set(witness.coalition)
    internal = witness.internal_map()
    if set(internal) != members:
        return False
    houses = sorted(internal.values())
    if houses != sorted(inst.endowment[m] for m in members):
        return False
    receiver = {house: member for member, house in internal.items()}
    for m in members:
        new = Outcome(internal[m], receiver[inst.endowment[m]])
        old = outcome_of(inst, alloc, m)
        if inst.rank(m, new) >= inst.rank(m, old):
            return False
    return True


def _improvement_steps(inst: Instance, agent: int, cur: int) -> list[tuple[int, int]]:
    """The (predecessor, successor) exchange steps to the outcomes the agent
    ranks strictly above rank ``cur``.  A listed outcome (h, t) means taking
    the house of h's owner while t becomes the agent's own tenant."""
    owner = inst.owner
    steps: list[tuple[int, int]] = []
    for rank, cls in enumerate(inst.prefs[agent]):
        if rank >= cur:
            break
        for o in sorted(cls):
            steps.append((o.tenant, owner[o.house]))
    return steps


def improvement_options(inst: Instance, alloc: Allocation) -> Options:
    """Per agent, the exchange steps it strictly prefers to its current
    outcome."""
    return [_improvement_steps(inst, i, inst.rank(i, outcome_of(inst, alloc, i)))
            for i in range(inst.n)]


def find_blocking_coalition(inst: Instance, alloc: Allocation, *,
                            node_budget: int | None = DEFAULT_NODE_BUDGET
                            ) -> BlockingWitness | None:
    """A minimal-cardinality blocking coalition, or None.

    Minimal blocking coalitions are single trading cycles (any blocking
    coalition's internal allocation decomposes into cycles, each of which
    blocks on its own), so the search enumerates improvement cycles and
    keeps the smallest; ties break on the sorted member list, then on the
    internal house vector.
    """
    options = improvement_options(inst, alloc)
    budget = Budget(node_budget)
    best: tuple | None = None
    best_cycle: list[int] | None = None
    for cycle in iter_exchange_cycles(options, budget):
        witness = _witness_from_cycle(inst, cycle)
        key = (len(cycle), witness.coalition, witness.internal)
        if best is None or key < best:
            best, best_cycle = key, cycle
    return _witness_from_cycle(inst, best_cycle) if best_cycle is not None else None


def is_core_stable(inst: Instance, alloc: Allocation, *,
                   node_budget: int | None = DEFAULT_NODE_BUDGET) -> bool:
    """No coalition can strictly improve all members with an internal exchange."""
    options = improvement_options(inst, alloc)
    return find_exchange_cycle(options, Budget(node_budget)) is None


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
    candidates: list[list[Outcome]] = []
    for i in range(n):
        opts: list[Outcome] = []
        for rank, cls in enumerate(inst.prefs[i]):
            if rank > rank_limits[i]:
                break
            opts.extend(sorted(cls))
        candidates.append(opts)

    determined: set[int] = set()
    imp_options: Options = [[] for _ in range(n)]

    def settle(trail_agents: list[int]) -> list[int] | None:
        """Validate agents that just became fully determined; returns the
        list added to ``determined`` or None when one fails its rank limit
        or completes an improvement cycle."""
        added: list[int] = []
        for x in sorted(set(trail_agents)):
            if x in determined or got[x] < 0 or ten[x] < 0:
                continue
            rank = inst.rank(x, Outcome(got[x], ten[x]))
            if rank > rank_limits[x]:
                for y in added:
                    determined.remove(y)
                    imp_options[y] = []
                return None
            determined.add(x)
            added.append(x)
            if prune_blocking:
                imp_options[x] = _improvement_steps(inst, x, rank)
                if has_cycle_through(imp_options, x, determined, budget):
                    for y in added:
                        determined.remove(y)
                        imp_options[y] = []
                    return None
        return added

    def assign(i: int) -> Iterator[Allocation]:
        if i == n:
            yield Allocation(tuple(got))
            return
        if got[i] >= 0 and ten[i] >= 0:
            yield from assign(i + 1)
            return
        for o in candidates[i]:
            if (got[i] >= 0 and got[i] != o.house) or (ten[i] >= 0 and ten[i] != o.tenant):
                continue
            budget.tick()
            trail: list[tuple[str, int]] = []

            def put(kind: str, x: int, value: int) -> bool:
                arr = got if kind == "g" else ten
                if arr[x] < 0:
                    arr[x] = value
                    trail.append((kind, x))
                    return True
                return arr[x] == value

            ok = (put("g", i, o.house) and put("t", i, o.tenant)
                  and put("t", owner[o.house], i) and put("g", o.tenant, endow[i]))
            added = settle([x for _, x in trail]) if ok else None
            if ok and added is not None:
                yield from assign(i + 1)
                for y in added:
                    determined.remove(y)
                    imp_options[y] = []
            for kind, x in reversed(trail):
                (got if kind == "g" else ten)[x] = -1

    return assign(0)


def enumerate_ir_allocations(inst: Instance, *,
                             node_budget: int | None = DEFAULT_NODE_BUDGET
                             ) -> list[Allocation]:
    """Exactly the allocations giving every agent an outcome weakly above
    its endowment outcome, found by backtracking over listed outcomes."""
    return list(_assignment_search(inst, _ir_limits(inst), False, Budget(node_budget)))


def core_exists(inst: Instance, *,
                node_budget: int | None = DEFAULT_NODE_BUDGET) -> Allocation | None:
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


def find_top_allocation(inst: Instance, *,
                        node_budget: int | None = DEFAULT_NODE_BUDGET
                        ) -> Allocation | None:
    """An allocation giving every agent a top-class outcome, or None."""
    limits = [0] * inst.n
    budget = Budget(node_budget)
    return next(_assignment_search(inst, limits, False, budget), None)


def _pareto_front(inst: Instance, limits: Sequence[int]) -> list[Allocation]:
    """The allocations within ``limits`` that none of them dominates, lexicographically."""
    leaves = list(_permutation_search(inst, inst.rank_table, limits))
    # Skyline of the distinct rank vectors: taken by rank sum, a vector is
    # dominated iff an undominated vector of smaller sum lies below it.
    front: list[tuple[int, ...]] = []
    for vec in sorted(set(ranks for _, ranks in leaves), key=sum):
        if not any(all(a <= b for a, b in zip(u, vec)) for u in front):
            front.append(vec)
    optimal = set(front)
    return [Allocation(assignment) for assignment, ranks in leaves if ranks in optimal]


def enumerate_pareto_optimal(inst: Instance, *,
                             max_n: int = DEFAULT_MAX_N) -> list[Allocation]:
    """All Pareto-optimal allocations, in lexicographic assignment order."""
    _check_max_n(inst, max_n)
    return _pareto_front(inst, [len(c) for c in inst.prefs])


def enumerate_ir_pareto_optimal(inst: Instance, *,
                                max_n: int = DEFAULT_MAX_N) -> list[Allocation]:
    """The IR Pareto-optimal allocations, in lexicographic assignment order:
    the front of the IR allocations, since what dominates an IR one is IR."""
    _check_max_n(inst, max_n)
    return _pareto_front(inst, _ir_limits(inst))


def enumerate_core_stable(inst: Instance, *, max_n: int = DEFAULT_MAX_N,
                          node_budget: int | None = DEFAULT_NODE_BUDGET
                          ) -> list[Allocation]:
    """The core-stable allocations, in lexicographic assignment order.  They
    are IR, so only IR ones are checked, each under its own node budget."""
    _check_max_n(inst, max_n)
    leaves = _permutation_search(inst, inst.rank_table, _ir_limits(inst))
    return [a for a in (Allocation(assignment) for assignment, _ in leaves)
            if is_core_stable(inst, a, node_budget=node_budget)]
