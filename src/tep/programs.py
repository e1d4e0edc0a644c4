"""0/1 programs for maximum-weight allocation, plus an exact optimizer.

Ordinal preferences are turned into integer weights first, one per
indifference class (two schemes, both order-consistent: strictly preferred
outcomes get strictly larger weights and indifferent outcomes equal
weights); the programs and the optimizer read an outcome's weight through
its rank in ``Instance.rank_table``.  The linear encoding uses
one binary per (agent, house, tenant) triple; the quadratic encoding uses
one binary per (agent, house) pair with a bilinear objective.  Programs are
symbolic and serialize to LP-style text with a deterministic layout, so
exports are byte-stable and usable as golden files.

The triple encoding needs link constraints ("agent k is the tenant of
agent i's house" must mean "agent k receives that house"); without them the
three sum families plus the diagonal exclusions admit 0/1 points that match
no allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, filterfalse, repeat
from operator import add, itemgetter, neg
from typing import Sequence

# all_allocations is unused here but stays a module attribute: perfbench/tracer.py wraps it.
from .axioms import DEFAULT_NODE_BUDGET, _permutation_search, all_allocations  # noqa: F401
from .errors import BudgetExceededError
from .model import Allocation, Instance

BORDA = "borda"
EXPONENTIAL = "exponential"
WEIGHT_SCHEMES = (BORDA, EXPONENTIAL)

# The CLI refuses to export above this: the program grows as n³ (n = 50
# writes about 11 MB).
EXPORT_MAX_N = 50

# Exponential weights are refused when n ** (C + 1), C the most classes an
# agent lists, reaches this: every total lies below it, and Python prints no
# int of more digits (its default int-to-str limit).
EXPONENTIAL_MAX_TOTAL = 10 ** 4300


def weights_from_ranks(inst: Instance, scheme: str = BORDA) -> tuple[tuple[int, ...], ...]:
    """Order-consistent weights from the preference classes: per agent, the
    weight of each class, best first, then that of an unlisted outcome, so
    ``weights[i][inst.rank_table[i][h * n + t]]`` is agent i's weight of
    outcome (h, t).

    borda: an outcome in class c of an agent with C classes weighs C-1-c;
    unlisted outcomes uniformly weigh -n*C, below every class.
    exponential: class c weighs n**(C-c) and unlisted outcomes weigh 1
    (= n**0, the sentinel class), so improving any one agent by a class
    outweighs rearranging everything below; past ``EXPONENTIAL_MAX_TOTAL``
    it raises BudgetExceededError.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {WEIGHT_SCHEMES}")
    n = inst.n
    top = max(map(len, inst.prefs)) + 1
    # n ** top >= 2 ** (top * (bits of n - 1)): the first test needs no power.
    if scheme == EXPONENTIAL and (top * (n.bit_length() - 1) >= EXPONENTIAL_MAX_TOTAL.bit_length()
                                  or n ** top >= EXPONENTIAL_MAX_TOTAL):
        raise BudgetExceededError(f"exponential weights need n ** (C + 1) < 10 ** 4300, C the "
                                  f"most classes an agent lists, got n = {n}, C = {top - 1}")

    def by_class(num_classes: int) -> tuple[int, ...]:
        if scheme == BORDA:
            return (*range(num_classes - 1, -1, -1), -n * num_classes)
        return tuple(n ** (num_classes - rank) for rank in range(num_classes + 1))

    return tuple(map(by_class, map(len, inst.prefs)))


def _by_outcome(inst: Instance, weights: Sequence[Sequence[int]]) -> list[list[int]]:
    """Per agent, its weight of outcome (h, t) at ``h * n + t``: its rank row
    mapped through its class weights."""
    return [list(map(row.__getitem__, ranks)) for row, ranks in zip(weights, inst.rank_table)]


@dataclass(frozen=True)
class Constraint:
    """The equality ``sum(coeff * var for coeff, var in terms) == rhs``."""

    name: str
    terms: tuple[tuple[int, str], ...]
    rhs: int


@dataclass(frozen=True)
class MathProgram:
    """A symbolic 0/1 maximization: linear or bilinear objective terms over
    declared binary variables, plus linear equality constraints."""

    kind: str  # "ilp" | "qp"
    variables: tuple[str, ...]
    objective: tuple[tuple[int, tuple[str, ...]], ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        undeclared = partial(filterfalse, set(self.variables).__contains__)
        for v in undeclared(chain.from_iterable(map(itemgetter(1), self.objective))):
            raise ValueError(f"objective references undeclared variable {v}")
        for con in self.constraints:
            for v in undeclared(map(itemgetter(1), con.terms)):
                raise ValueError(f"constraint {con.name} references undeclared variable {v}")

    def to_lp_text(self) -> str:
        """LP-style text: objective, subject-to, binary, end sections."""
        names = list(map(itemgetter(1), self.objective))
        bodies = list(map(" * ".join, names))
        if not all(names):  # a term without a variable shows a coefficient of 1
            bodies = [body if v else ("1 " if abs(c) == 1 else "")
                      for (c, v), body in zip(self.objective, bodies)]
        objective = _lp_sum(map(itemgetter(0), self.objective), bodies)
        out = ["maximize", " obj: " + (objective if self.objective else "0"), "subject to"]
        for con in self.constraints:
            lhs = _lp_sum(map(itemgetter(0), con.terms), map(itemgetter(1), con.terms))
            out.append(f" {con.name}: {lhs} = {con.rhs}")
        out.append("binary")
        out.extend(map(" ".__add__, self.variables))
        out.append("end")
        return "\n".join(out) + "\n"


def _lp_sum(coefficients, bodies) -> str:
    """Signed terms 'a + 2 b - c' from integer coefficients and term texts: a
    coefficient of 1 is left out, and the first term has no '+'."""
    coefficients = tuple(coefficients)
    heads = {c: ("- " if c < 0 else "+ ") + ("" if abs(c) == 1 else f"{abs(c)} ")
             for c in set(coefficients)}
    text = " ".join(map(add, map(heads.__getitem__, coefficients), bodies))
    return text[2:] if text.startswith("+ ") else text


def _x3(i: int, j: int, k: int) -> str:
    return f"x_{i}_{j}_{k}"


def _x2(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def export_ilp(inst: Instance, weights: Sequence[Sequence[int]]) -> MathProgram:
    """Linear encoding over binaries x_i_j_k (agent i receives house j and
    agent k is the tenant of i's own house).

    Constraints: one triple per agent, each house received once, each agent
    a tenant once, the two self-consistency exclusion families (keeping your
    house means you are your own tenant, and conversely), and last the link
    equalities ``link_i_k`` that tie "k is tenant of i's house" to "k
    receives i's house".
    """
    n = inst.n
    names = [_x3(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    ones, minus_ones = repeat(1), repeat(-1)
    flat = list(chain.from_iterable(_by_outcome(inst, weights)))
    objective = tuple(compress(zip(flat, zip(names)), flat))
    cons: list[Constraint] = []
    for i in range(n):
        terms = tuple(zip(ones, names[i * n * n:(i + 1) * n * n]))
        cons.append(Constraint(f"agent_{i}", terms, 1))
    for j in range(n):
        terms = tuple(zip(ones, chain.from_iterable(
            names[(i * n + j) * n:(i * n + j + 1) * n] for i in range(n))))
        cons.append(Constraint(f"house_{j}", terms, 1))
    for k in range(n):
        cons.append(Constraint(f"tenant_{k}", tuple(zip(ones, names[k::n])), 1))
    for i in range(n):
        own = inst.endowment[i]
        for k in range(n):
            if k == i:
                continue
            cons.append(Constraint(f"own_house_own_tenant_{i}_{k}",
                                   ((1, names[(i * n + own) * n + k]),), 0))
        for j in range(n):
            if j == own:
                continue
            cons.append(Constraint(f"own_tenant_own_house_{i}_{j}",
                                   ((1, names[(i * n + j) * n + i]),), 0))
    for i in range(n):
        own = inst.endowment[i]
        for k in range(n):
            if k == i:
                continue
            terms = (*zip(ones, names[i * n * n + k:(i + 1) * n * n:n]),
                     *zip(minus_ones, names[(k * n + own) * n:(k * n + own + 1) * n]))
            cons.append(Constraint(f"link_{i}_{k}", terms, 0))
    return MathProgram("ilp", tuple(names), objective, tuple(cons))


def export_qp(inst: Instance, weights: Sequence[Sequence[int]]) -> MathProgram:
    """Quadratic encoding over binaries x_i_j (agent i receives house j):
    assignment row and column constraints, objective summing
    w(i, j, k) * x_i_j * x_k_e(i) so the second factor says agent k moved
    into i's own house."""
    n = inst.n
    names = [_x2(i, j) for i in range(n) for j in range(n)]
    objective = []
    for i, outcomes in enumerate(_by_outcome(inst, weights)):
        movers = names[inst.endowment[i]::n]  # x_k_e(i) for every k
        for j in range(n):
            row = outcomes[j * n:(j + 1) * n]
            objective.extend(compress(zip(row, zip(repeat(names[i * n + j]), movers)), row))
    cons: list[Constraint] = []
    for i in range(n):
        cons.append(Constraint(f"row_{i}", tuple(zip(repeat(1), names[i * n:(i + 1) * n])), 1))
    for j in range(n):
        cons.append(Constraint(f"col_{j}", tuple(zip(repeat(1), names[j::n])), 1))
    return MathProgram("qp", tuple(names), tuple(objective), tuple(cons))


def solve_exact_max_weight(inst: Instance, weights: Sequence[Sequence[int]], *,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Allocation, int]:
    """Argmax of total weight over all allocations, returning the
    lexicographically smallest assignment among ties.

    Branch and bound over partial assignments in lexicographic order, under
    ``node_budget``: a subtree is cut unless its fixed weights plus each
    undetermined agent's best weight strictly beat the best allocation found
    so far, so a later allocation of equal weight never replaces an earlier
    one.
    """
    # Each agent's few class costs are negated once, and the n³ cost entries
    # share them.
    negated = [list(map(neg, row)) for row in weights]
    cost = _by_outcome(inst, negated)
    limits = list(map(max, negated))
    *_, (assignment, costs) = _permutation_search(inst, cost, limits, node_budget, math.inf)
    return Allocation(assignment), -sum(costs)

