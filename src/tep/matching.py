"""Maximum bipartite matching via Hopcroft-Karp.

Vertices are integer-indexed on both sides.  Runs in O(E * sqrt(V)), which
keeps the acceptability-matching subroutine polynomial and fast at scale.

A search may be warm-started from a partial matching.  Augmenting along a
path keeps every matched vertex matched, so the search only adds to the
matching it starts from: one edge short of a perfect matching costs a single
augmenting phase instead of the O(sqrt(V)) phases a cold start needs.
"""

from collections import deque

_INF = -1


def max_bipartite_matching(n_left: int, n_right: int, adj: list[list[int]],
                           start: list[int] | None = None) -> tuple[int, list[int]]:
    """Return (matching size, match) where match[u] is u's right partner or -1.

    ``adj[u]`` lists the right vertices adjacent to left vertex ``u``.
    ``start``, if given, is the matching to grow, in the same form as the
    result; it must be valid: every pair ``(u, start[u])`` an edge of ``adj``
    and no right vertex used twice.  The result is a maximum matching either
    way, but which one may depend on ``start``.
    """
    match_left = [_INF] * n_left if start is None else list(start)
    match_right = [_INF] * n_right
    for u, v in enumerate(match_left):
        if v != _INF:
            match_right[v] = u
    dist = [0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == _INF:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w == _INF:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_right[v]
            if w == _INF or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = _INF
        return False

    size = n_left - match_left.count(_INF)
    while bfs():
        for u in range(n_left):
            if match_left[u] == _INF and dfs(u):
                size += 1
    return size, match_left
