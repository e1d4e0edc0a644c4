"""0/1 programs for maximum-weight allocation, plus an exact optimizer.

Ordinal preferences are turned into integer weights first (two schemes,
both order-consistent: strictly preferred outcomes get strictly larger
weights and indifferent outcomes equal weights).  The linear encoding uses
one binary per (agent, house, tenant) triple; the quadratic encoding uses
one binary per (agent, house) pair with a bilinear objective.  Programs are
symbolic and serialize to LP-style text with a deterministic layout, so
exports are byte-stable and usable as golden files.

The triple encoding needs linking constraints ("agent k is the tenant of
agent i's house" must mean "agent k receives that house"); without them the
three sum families plus the diagonal exclusions admit 0/1 points that match
no allocation.  ``export_ilp(..., linking=False)`` reproduces that weaker
variant for regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

# all_allocations is unused here but stays a module attribute: perfbench/tracer.py wraps it.
from .axioms import _check_max_n, _permutation_search, all_allocations  # noqa: F401
from .model import Allocation, Instance, outcome_of

BORDA = "borda"
EXPONENTIAL = "exponential"
WEIGHT_SCHEMES = (BORDA, EXPONENTIAL)

DEFAULT_EXACT_MAX_N = 9
EXACT_OPTIMIZER = "exact optimizer"  # how the max_n refusal names it


@dataclass(frozen=True)
class WeightTable:
    """Integer weight for every (agent, house received, tenant) triple."""

    n: int
    scheme: str
    weights: tuple[int, ...]  # flat, index = (i * n + j) * n + k

    def weight(self, agent: int, house: int, tenant: int) -> int:
        return self.weights[(agent * self.n + house) * self.n + tenant]

    def allocation_value(self, inst: Instance, alloc: Allocation) -> int:
        return sum(
            self.weight(i, *outcome_of(inst, alloc, i)) for i in range(self.n)
        )


def weights_from_ranks(inst: Instance, scheme: str = BORDA) -> WeightTable:
    """Order-consistent weights from the preference classes.

    borda: an outcome in class c of an agent with C classes weighs C-1-c;
    unlisted outcomes uniformly weigh -n*C, below every class.
    exponential: class c weighs n**(C-c) and unlisted outcomes weigh 1
    (= n**0, the sentinel class), so improving any one agent by a class
    outweighs rearranging everything below.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {WEIGHT_SCHEMES}")
    n = inst.n
    flat: list[int] = []
    for classes, ranks in zip(inst.prefs, inst.rank_table):
        num_classes = len(classes)
        if scheme == BORDA:
            by_rank = [num_classes - 1 - rank for rank in range(num_classes)]
            by_rank.append(-n * num_classes)
        else:
            by_rank = [n ** (num_classes - rank) for rank in range(num_classes + 1)]
        flat.extend(by_rank[rank] for rank in ranks)
    return WeightTable(n=n, scheme=scheme, weights=tuple(flat))


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str  # "=", "<=", ">="
    rhs: int


@dataclass(frozen=True)
class MathProgram:
    """A symbolic 0/1 maximization: linear or bilinear objective terms over
    declared binary variables, plus linear constraints."""

    kind: str  # "ilp" | "qp"
    variables: tuple[str, ...]
    objective: tuple[tuple[int, tuple[str, ...]], ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        declared = set(self.variables)
        for _, names in self.objective:
            for v in names:
                if v not in declared:
                    raise ValueError(f"objective references undeclared variable {v}")
        for con in self.constraints:
            for _, v in con.terms:
                if v not in declared:
                    raise ValueError(f"constraint {con.name} references undeclared variable {v}")

    def objective_value(self, point: Mapping[str, int]) -> int:
        total = 0
        for coeff, names in self.objective:
            term = coeff
            for v in names:
                term *= point[v]
            total += term
        return total

    def is_feasible(self, point: Mapping[str, int]) -> bool:
        if any(point[v] not in (0, 1) for v in self.variables):
            return False
        for con in self.constraints:
            value = sum(coeff * point[v] for coeff, v in con.terms)
            if con.sense == "=" and value != con.rhs:
                return False
            if con.sense == "<=" and value > con.rhs:
                return False
            if con.sense == ">=" and value < con.rhs:
                return False
        return True

    def to_lp_text(self) -> str:
        """LP-style text: objective, subject-to, binary, end sections."""

        def term_text(coeff: int, names: tuple[str, ...], first: bool) -> str:
            sign = "-" if coeff < 0 else ("" if first else "+")
            magnitude = abs(coeff)
            body = " * ".join(names)
            coeff_part = f"{magnitude} " if magnitude != 1 or not names else ""
            lead = f"{sign} " if sign else ""
            return f"{lead}{coeff_part}{body}"

        out = ["maximize"]
        parts = [term_text(c, names, i == 0) for i, (c, names) in enumerate(self.objective)]
        out.append(" obj: " + (" ".join(parts) if parts else "0"))
        out.append("subject to")
        for con in self.constraints:
            lhs = " ".join(
                term_text(c, (v,), i == 0) for i, (c, v) in enumerate(con.terms)
            )
            out.append(f" {con.name}: {lhs} {con.sense} {con.rhs}")
        out.append("binary")
        for v in self.variables:
            out.append(f" {v}")
        out.append("end")
        return "\n".join(out) + "\n"


def _x3(i: int, j: int, k: int) -> str:
    return f"x_{i}_{j}_{k}"


def _x2(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def export_ilp(inst: Instance, table: WeightTable, *, linking: bool = True) -> MathProgram:
    """Linear encoding over binaries x_i_j_k (agent i receives house j and
    agent k is the tenant of i's own house).

    Constraints: one triple per agent, each house received once, each agent
    a tenant once, the two self-consistency exclusion families (keeping your
    house means you are your own tenant, and conversely), and, unless
    ``linking`` is disabled, the linking equalities that tie "k is tenant of
    i's house" to "k receives i's house".
    """
    n = inst.n
    variables = tuple(_x3(i, j, k) for i in range(n) for j in range(n) for k in range(n))
    objective = tuple(
        (table.weight(i, j, k), (_x3(i, j, k),))
        for i in range(n) for j in range(n) for k in range(n)
        if table.weight(i, j, k) != 0
    )
    cons: list[Constraint] = []
    for i in range(n):
        terms = tuple((1, _x3(i, j, k)) for j in range(n) for k in range(n))
        cons.append(Constraint(f"agent_{i}", terms, "=", 1))
    for j in range(n):
        terms = tuple((1, _x3(i, j, k)) for i in range(n) for k in range(n))
        cons.append(Constraint(f"house_{j}", terms, "=", 1))
    for k in range(n):
        terms = tuple((1, _x3(i, j, k)) for i in range(n) for j in range(n))
        cons.append(Constraint(f"tenant_{k}", terms, "=", 1))
    for i in range(n):
        own = inst.endowment[i]
        for k in range(n):
            if k == i:
                continue
            cons.append(Constraint(f"own_house_own_tenant_{i}_{k}",
                                   ((1, _x3(i, own, k)),), "=", 0))
        for j in range(n):
            if j == own:
                continue
            cons.append(Constraint(f"own_tenant_own_house_{i}_{j}",
                                   ((1, _x3(i, j, i)),), "=", 0))
    if linking:
        for i in range(n):
            own = inst.endowment[i]
            for k in range(n):
                if k == i:
                    continue
                terms = tuple((1, _x3(i, j, k)) for j in range(n))
                terms += tuple((-1, _x3(k, own, kk)) for kk in range(n))
                cons.append(Constraint(f"link_{i}_{k}", terms, "=", 0))
    return MathProgram("ilp", variables, objective, tuple(cons))


def export_qp(inst: Instance, table: WeightTable) -> MathProgram:
    """Quadratic encoding over binaries x_i_j (agent i receives house j):
    assignment row and column constraints, objective summing
    w(i, j, k) * x_i_j * x_k_e(i) so the second factor says agent k moved
    into i's own house."""
    n = inst.n
    variables = tuple(_x2(i, j) for i in range(n) for j in range(n))
    objective = []
    for i in range(n):
        own = inst.endowment[i]
        for j in range(n):
            for k in range(n):
                w = table.weight(i, j, k)
                if w != 0:
                    objective.append((w, (_x2(i, j), _x2(k, own))))
    cons: list[Constraint] = []
    for i in range(n):
        cons.append(Constraint(f"row_{i}", tuple((1, _x2(i, j)) for j in range(n)), "=", 1))
    for j in range(n):
        cons.append(Constraint(f"col_{j}", tuple((1, _x2(i, j)) for i in range(n)), "=", 1))
    return MathProgram("qp", variables, tuple(objective), tuple(cons))


def ilp_point(inst: Instance, alloc: Allocation) -> dict[str, int]:
    """The 0/1 point of the triple encoding describing an allocation."""
    n = inst.n
    point = {_x3(i, j, k): 0 for i in range(n) for j in range(n) for k in range(n)}
    for i in range(n):
        o = outcome_of(inst, alloc, i)
        point[_x3(i, o.house, o.tenant)] = 1
    return point


def qp_point(inst: Instance, alloc: Allocation) -> dict[str, int]:
    """The 0/1 point of the pair encoding describing an allocation."""
    n = inst.n
    point = {_x2(i, j): 0 for i in range(n) for j in range(n)}
    for i in range(n):
        point[_x2(i, alloc[i])] = 1
    return point


def solve_exact_max_weight(inst: Instance, table: WeightTable, *,
                           max_n: int = DEFAULT_EXACT_MAX_N) -> tuple[Allocation, int]:
    """Argmax of total weight over all allocations, returning the
    lexicographically smallest assignment among ties.

    Branch and bound over partial assignments in lexicographic order: a
    subtree is cut unless its fixed weights plus each undetermined agent's
    best weight strictly beat the best allocation found so far, so a later
    allocation of equal weight never replaces an earlier one.
    """
    _check_max_n(inst, max_n, EXACT_OPTIMIZER)
    size = inst.n * inst.n
    cost = [[-w for w in table.weights[i * size:(i + 1) * size]] for i in range(inst.n)]
    limits = [max(row) for row in cost]
    *_, (assignment, costs) = _permutation_search(inst, cost, limits, math.inf)
    return Allocation(assignment), -sum(costs)

