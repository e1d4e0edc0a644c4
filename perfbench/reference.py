"""Reference answers that do not use the code under test.

Every function here works on plain Python data (lists of ranks, tuples of
indices) built by the benchmark while it generates its inputs.  The output
checks compare `tep` reports against these answers, so a defect in `tep`
cannot vouch for itself.

Instances are canonical: agent i owns house i, and an allocation ``p`` gives
agent i the outcome ``(p[i], q[i])`` where ``q[i]`` is the agent holding
house i.  ``ranks[i]`` maps a listed outcome ``(h, t)`` to its class index;
unlisted outcomes share the rank ``len(classes[i])``.
"""

from __future__ import annotations

from itertools import combinations, permutations


def rank_tables(prefs: list[list[list[tuple[int, int]]]]) -> list[dict[tuple[int, int], int]]:
    return [{o: r for r, cls in enumerate(classes) for o in cls} for classes in prefs]


def inverse(p) -> list[int]:
    q = [0] * len(p)
    for agent, house in enumerate(p):
        q[house] = agent
    return q


def rank_vector(prefs, ranks, p) -> tuple[int, ...]:
    q = inverse(p)
    return tuple(ranks[i].get((p[i], q[i]), len(prefs[i])) for i in range(len(p)))


def is_ir(prefs, ranks, p) -> bool:
    return all(r <= ranks[i][(i, i)] for i, r in enumerate(rank_vector(prefs, ranks, p)))


def exact_cover_exists(m: int, triples: list[tuple[int, int, int]]) -> bool:
    """Algorithm X on 3m elements: branch on the element with fewest triples."""
    by_elem: list[list[int]] = [[] for _ in range(3 * m)]
    for k, tr in enumerate(triples):
        for e in tr:
            by_elem[e].append(k)
    covered = [False] * (3 * m)

    def solve(left: int) -> bool:
        if left == 0:
            return True
        best = None
        for e in range(3 * m):
            if covered[e]:
                continue
            opts = [k for k in by_elem[e] if not any(covered[x] for x in triples[k])]
            if not opts:
                return False
            if best is None or len(opts) < len(best):
                best = opts
        for k in best:
            for x in triples[k]:
                covered[x] = True
            if solve(left - 3):
                return True
            for x in triples[k]:
                covered[x] = False
        return False

    return solve(3 * m)


def ir_allocations(prefs, ranks, limit: int | None = None) -> list[tuple[int, ...]]:
    """IR allocations by backtracking over listed outcomes (agent order),
    stopping after ``limit`` when given."""
    n = len(prefs)
    cand = [[o for cls in prefs[i][:ranks[i][(i, i)] + 1] for o in cls] for i in range(n)]
    p = [-1] * n  # house received
    q = [-1] * n  # agent receiving each house
    out: list[tuple[int, ...]] = []

    def put(arr, x, v, trail) -> bool:
        if arr[x] < 0:
            arr[x] = v
            trail.append((arr, x))
            return True
        return arr[x] == v

    def acceptable(x: int) -> bool:
        return p[x] < 0 or q[x] < 0 or ranks[x].get((p[x], q[x]), len(prefs[x])) <= ranks[x][(x, x)]

    def dfs(i: int) -> bool:
        if limit is not None and len(out) >= limit:
            return True
        if i == n:
            out.append(tuple(p))
            return False
        if p[i] >= 0 and q[i] >= 0:
            return dfs(i + 1)
        for h, t in cand[i]:
            trail: list = []
            # Agent i takes house h (so i is h's tenant) and t moves into i's
            # house; agents h and t may now be fully determined.
            ok = (put(p, i, h, trail) and put(q, h, i, trail) and put(p, t, i, trail)
                  and put(q, i, t, trail) and acceptable(h) and acceptable(t))
            stop = ok and dfs(i + 1)
            for arr, x in trail:
                arr[x] = -1
            if stop:
                return True
        return False

    dfs(0)
    return out


def has_blocking_cycle(prefs, ranks, p) -> bool:
    """Whether some coalition trades its own houses along a cycle so that
    every member strictly improves on its outcome under ``p``."""
    n = len(p)
    cur = rank_vector(prefs, ranks, p)
    # steps[i]: (predecessor, successor) pairs i strictly prefers; taking
    # house h from its owner h while t moves into i's house.
    steps = [[(t, h) for r, cls in enumerate(prefs[i]) if r < cur[i] for h, t in cls]
             for i in range(n)]

    def reach(start, closing, node, prev, seen) -> bool:
        for pred, succ in steps[node]:
            if pred != prev:
                continue
            if succ == start:
                if node == closing:
                    return True
            elif succ > start and succ not in seen:
                seen.add(succ)
                if reach(start, closing, succ, node, seen):
                    return True
                seen.discard(succ)
        return False

    for a in range(n):
        for pred, succ in steps[a]:
            if succ == a:
                if pred == a:
                    return True
            elif succ > a and pred > a and reach(a, pred, succ, a, {a, succ}):
                return True
    return False


def borda_weights(prefs) -> list[dict[tuple[int, int], int]]:
    """Listed outcomes weigh C-1-class; unlisted ones weigh -n*C."""
    return [{o: len(classes) - 1 - r for r, cls in enumerate(classes) for o in cls}
            for classes in prefs]


def max_weight(prefs, weights=None) -> tuple[tuple[int, ...], int]:
    """Lexicographically first allocation of maximum borda weight, by
    branch and bound over houses in agent order."""
    n = len(prefs)
    weights = borda_weights(prefs) if weights is None else weights
    floor = [-n * len(prefs[i]) for i in range(n)]
    best_w = [max([floor[i], *weights[i].values()]) for i in range(n)]
    p = [-1] * n
    q = [-1] * n
    best: list = [None, 0]

    def w(i: int) -> int:
        return weights[i].get((p[i], q[i]), floor[i])

    def dfs(i: int, done: int, open_bound: int) -> None:
        # ``done`` sums agents whose house and tenant are both fixed;
        # ``open_bound`` bounds the others from above.  Only a strictly
        # larger total replaces the incumbent, so ties keep the
        # lexicographically first assignment.
        if best[0] is not None and done + open_bound <= best[1]:
            return
        if i == n:
            best[0], best[1] = tuple(p), done
            return
        for h in range(n):
            if q[h] >= 0:
                continue
            p[i], q[h] = h, i
            completed = {i} if q[i] >= 0 else set()
            if p[h] >= 0:
                completed.add(h)
            gain = sum(w(j) for j in completed)
            dfs(i + 1, done + gain, open_bound - sum(best_w[j] for j in completed))
            p[i], q[h] = -1, -1

    dfs(0, 0, sum(best_w))
    return best[0], best[1]


def pareto_front(prefs, ranks) -> list[tuple[int, ...]]:
    """Allocations whose rank vector no other allocation dominates."""
    vecs = [(sum(v), v, p) for p in permutations(range(len(prefs)))
            for v in [rank_vector(prefs, ranks, p)]]
    vecs.sort(key=lambda x: x[0])
    front: list[tuple[int, ...]] = []
    kept: list[tuple[int, ...]] = []
    for _, v, p in vecs:
        if not any(k != v and all(a <= b for a, b in zip(k, v)) for k in kept):
            kept.append(v)
            front.append(p)
    return sorted(front)


def first_manipulation(prefs, agent: int):
    """First sub-list report (by length, then position) under which the
    max-weight mechanism gives ``agent`` a strictly better outcome, as
    (before, after, report) with outcomes as (house, tenant), or None."""
    ranks = rank_tables(prefs)
    n = len(prefs)
    weights = borda_weights(prefs)

    def outcome(p):
        return (p[agent], inverse(p)[agent])

    def truth_rank(o):
        return ranks[agent].get(o, len(prefs[agent]))

    before = outcome(max_weight(prefs, weights)[0])
    listed = [o for cls in prefs[agent] for o in sorted(cls)]
    own = (agent, agent)
    for size in range(1, len(listed) + 1):
        for keep in combinations(range(len(listed)), size):
            report = [[listed[k]] for k in keep]
            classes = report + ([] if own in [c[0] for c in report] else [[own]])
            w = list(weights)
            w[agent] = {o: len(classes) - 1 - r for r, cls in enumerate(classes) for o in cls}
            trial = [classes if i == agent else prefs[i] for i in range(n)]
            after = outcome(max_weight(trial, w)[0])
            if truth_rank(after) < truth_rank(before):
                return before, after, report
    return None


def top_trading_cycles(primary: list[list[int]], house_driven: bool) -> tuple[int, ...]:
    """TTC on strict primary orders (canonical endowment).  House-driven:
    agents point at their best remaining house.  Tenant-driven: each owner
    points at its best remaining tenant, who takes the owner's house."""
    n = len(primary)
    left = set(range(n))
    assignment = [-1] * n
    while left:
        def nxt(a):
            return next(x for x in primary[a] if x in left)
        walk, seen, cur = [], {}, min(left)
        while cur not in seen:
            seen[cur] = len(walk)
            walk.append(cur)
            cur = nxt(cur)
        cycle = walk[seen[cur]:]
        for a in cycle:
            if house_driven:
                assignment[a] = nxt(a)
            else:
                assignment[nxt(a)] = a
        left -= set(cycle)
    return tuple(assignment)
