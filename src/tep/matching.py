"""Maximum bipartite matching via Hopcroft-Karp.

Vertices are integer-indexed on both sides.  Runs in O(E * sqrt(V)), which
keeps the acceptability-matching subroutine polynomial and fast at scale.

:func:`augment` grows a given matching by a single augmenting path instead:
one edge short of a perfect matching, that is one O(E) search where a cold
start needs O(sqrt(V)) phases.
"""

from collections import deque
from collections.abc import Iterable, Sequence

_INF = -1


def max_bipartite_matching(n_left: int, n_right: int,
                           adj: list[list[int]]) -> tuple[int, list[int]]:
    """Return (matching size, match) where match[u] is u's right partner or -1.

    ``adj[u]`` lists the right vertices adjacent to left vertex ``u``.
    """
    match_left = [_INF] * n_left
    match_right = [_INF] * n_right
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

    def dfs(root: int) -> bool:
        # Depth-first along the BFS layers from the free vertex ``root``: a
        # frame is a left vertex and its edges not yet tried, ``via[k]`` the
        # right vertex through which frame k reached frame k + 1.
        stack = [(root, iter(adj[root]))]
        via: list[int] = []
        while stack:
            u, untried = stack[-1]
            for v in untried:
                w = match_right[v]
                if w == _INF:  # flip the path: each frame takes its edge
                    via.append(v)
                    for (left, _), right in zip(stack, via):
                        match_left[left] = right
                        match_right[right] = left
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = _INF
                stack.pop()
                if via:
                    via.pop()
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_left[u] == _INF and dfs(u):
                size += 1
    return size, match_left


def augment(adj: Sequence[Iterable[int]], match_left: list[int], match_right: list[int],
            root: int) -> bool:
    """Grow the matching by one augmenting path from the free left vertex
    ``root``, in place; False, with the matching untouched, if there is none.

    ``match_left`` and ``match_right`` are the two sides of a valid
    matching, -1 for unmatched.  Breadth-first search over alternating paths
    from ``root``, stopping at the first free right vertex, so the cost is
    at most O(E).  By Berge's theorem a matching with ``root`` as its only
    free left vertex is maximum exactly when this returns False; and a root
    without an augmenting path keeps none after other roots augment, so one
    call per free left vertex yields a maximum matching.
    """
    via: dict[int, int] = {}  # right vertex -> the left vertex that reached it
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in via:
                continue
            via[v] = u
            w = match_right[v]
            if w == _INF:
                while v != _INF:  # flip the path back to the root
                    u = via[v]
                    match_right[v] = u
                    v, match_left[u] = match_left[u], v
                return True
            queue.append(w)
    return False
