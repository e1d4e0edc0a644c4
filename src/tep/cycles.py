"""Search for exchange cycles subject to per-agent (predecessor, successor) options.

An exchange among agents c0 -> c1 -> ... -> ck-1 -> c0 hands each agent the
house of its successor and makes its predecessor the tenant of its own
house.  Callers describe, per agent, which (predecessor, successor) pairs
the agent would accept; a simple cycle consistent with those options is
exactly a coalition that can reallocate its own endowments to the stated
effect.  Blocking-coalition searches build options from strict-improvement
sets, so any cycle found here is a blocking witness.

The depth-first search keeps its path on an explicit stack of (member,
predecessor, untried options) frames, not on Python's call stack, so the
length of a cycle it can follow is bounded by the node budget alone.  The
members other than the start are restricted one way, to those in
``allowed``: the enumeration passes the range above the start, so each
cycle is found once, and ``has_cycle_through`` the set it is given.  One
step, ``_close``, walks that stack to the next cycle and can be resumed
after it: the enumeration loops it inside its generator, so a partly
consumed enumeration still yields the cycles found before the budget runs
out, and ``has_cycle_through`` calls it once per first option, as a plain
function.  Every option tried ticks the budget once.
"""

from __future__ import annotations

from typing import Callable, Container, Iterator

from .errors import BudgetExceededError

Options = list[list[tuple[int, int]]]


class Budget:
    """Decrementing node counter; raises once exhausted."""

    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def tick(self, nodes: int = 1) -> None:
        """Charge ``nodes`` ticks at once.  A charge that runs out leaves
        ``left`` at -1, as the same ticks charged one at a time would."""
        self.left -= nodes
        if self.left < 0:
            self.left = -1
            raise BudgetExceededError("search node budget exhausted")


def _close(options: Options, start: int, closing_prev: int, allowed: Container[int],
           path: dict[int, None], stack: list[tuple[int, int, Iterator[tuple[int, int]]]],
           tick: Callable[[], None]) -> bool:
    """Continue the depth-first walk held in ``path`` and ``stack`` to the
    next cycle back to ``start`` whose other members lie in ``allowed``.

    ``path`` holds the members in trading order (dicts keep insertion order,
    and members leave it last in, first out, as their frames) and ``stack``
    their (member, predecessor, untried options) frames.  Returns True with
    ``path`` holding a cycle whose last member is ``closing_prev``, and the
    state left so that the next call resumes after it; False once the walk
    is done.  One tick per option tried."""
    while stack:
        cur, prev, untried = stack[-1]
        for p, nxt in untried:
            if p != prev:
                continue
            tick()
            if nxt == start:
                if cur == closing_prev:
                    return True
            elif nxt in allowed and nxt not in path:
                path[nxt] = None
                stack.append((nxt, cur, iter(options[nxt])))
                break
        else:
            stack.pop()
            path.popitem()
    return False


def iter_exchange_cycles(options: Options, budget: Budget) -> Iterator[list[int]]:
    """Yield every simple exchange cycle, smallest member first.

    ``options[i]`` lists the (predecessor, successor) pairs agent i accepts.
    Cycles are canonical: position 0 holds the smallest member, so each
    cycle appears exactly once.  Cycles through one start come in
    depth-first order; one budget tick per option tried.
    """
    tick = budget.tick
    n = len(options)
    for start in range(n):
        allowed = range(start + 1, n)
        for closing_prev, first in options[start]:
            tick()
            if first == start:
                if closing_prev == start:
                    yield [start]
                continue
            if not (first in allowed and closing_prev in allowed):
                continue
            path = {start: None, first: None}
            stack = [(first, start, iter(options[first]))]
            while _close(options, start, closing_prev, allowed, path, stack, tick):
                yield list(path)


def find_exchange_cycle(options: Options, budget: Budget) -> list[int] | None:
    """First exchange cycle in canonical enumeration order, or None."""
    return next(iter_exchange_cycles(options, budget), None)


def has_cycle_through(options: Options, pivot: int, allowed: set[int],
                      budget: Budget) -> bool:
    """Whether a simple exchange cycle containing ``pivot`` exists in ``allowed``.

    Used for incremental pruning: after one more agent's exchange options
    become known, any newly completed cycle must pass through that agent.
    The first cycle found ends the search, so it ticks the budget as far
    as ``iter_exchange_cycles`` would before yielding that cycle.
    """
    tick = budget.tick
    for closing_prev, first in options[pivot]:
        tick()
        if first == pivot:
            if closing_prev == pivot:
                return True
            continue
        if (first in allowed and closing_prev in allowed
                and _close(options, pivot, closing_prev, allowed, {pivot: None, first: None},
                           [(first, pivot, iter(options[first]))], tick)):
            return True
    return False
