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
length of a cycle it can follow is bounded by the node budget alone.
"""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceededError

Options = list[list[tuple[int, int]]]


class Budget:
    """Decrementing node counter; raises once exhausted.  ``Budget(None)``
    is the one way to say "unlimited"."""

    __slots__ = ("left",)

    def __init__(self, nodes: int | None):
        self.left = nodes

    def tick(self) -> None:
        if self.left is not None:
            self.left -= 1
            if self.left < 0:
                raise BudgetExceededError("search node budget exhausted")


def _cycles_through(options: Options, start: int, low: int, allowed: set[int],
                    budget: Budget) -> Iterator[list[int]]:
    """Yield each simple exchange cycle through ``start`` whose other
    members lie in ``allowed`` and above ``low``, as a list from ``start``
    in trading order, in depth-first order.  One budget tick per option
    tried; pass ``Budget(None)`` for no limit."""
    tick = budget.tick
    for closing_prev, first in options[start]:
        tick()
        if first == start:
            if closing_prev == start:
                yield [start]
            continue
        if not (first > low and closing_prev > low
                and first in allowed and closing_prev in allowed):
            continue
        # ``path`` holds the members in trading order (dicts keep insertion
        # order, and members leave it last in, first out, as their frames).
        path = {start: None, first: None}
        stack = [(first, start, iter(options[first]))]
        while stack:
            cur, prev, untried = stack[-1]
            for p, nxt in untried:
                if p != prev:
                    continue
                tick()
                if nxt == start:
                    if cur == closing_prev:
                        yield list(path)
                elif nxt > low and nxt in allowed and nxt not in path:
                    path[nxt] = None
                    stack.append((nxt, cur, iter(options[nxt])))
                    break
            else:
                stack.pop()
                path.popitem()


def iter_exchange_cycles(options: Options, budget: Budget) -> Iterator[list[int]]:
    """Yield every simple exchange cycle, smallest member first.

    ``options[i]`` lists the (predecessor, successor) pairs agent i accepts.
    Cycles are canonical: position 0 holds the smallest member, so each
    cycle appears exactly once.
    """
    allowed = set(range(len(options)))
    for start in range(len(options)):
        yield from _cycles_through(options, start, start, allowed, budget)


def find_exchange_cycle(options: Options, budget: Budget) -> list[int] | None:
    """First exchange cycle in canonical enumeration order, or None."""
    return next(iter_exchange_cycles(options, budget), None)


def has_cycle_through(options: Options, pivot: int, allowed: set[int],
                      budget: Budget) -> bool:
    """Whether a simple exchange cycle containing ``pivot`` exists in ``allowed``.

    Used for incremental pruning: after one more agent's exchange options
    become known, any newly completed cycle must pass through that agent.
    """
    return next(_cycles_through(options, pivot, -1, allowed, budget), None) is not None
