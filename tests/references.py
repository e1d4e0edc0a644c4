"""Slow references the tests compare the library against.

Each walks every allocation (or every one-per-agent 0/1 point) and applies
the definition directly, so it is obviously right and only usable at desk
scale.  ``pareto_front_reference`` is the pairwise skyline that the rank
masks of ``axioms._pareto_front`` replaced, over the same walk.  The
outcome listing and the backtracking search over listed outcomes
(``listed_outcomes_reference``, ``improvement_steps_reference``,
``assignment_search_reference``) are the versions that sorted every class
on each call.  The text-format reader (``parse_*_reference``) and the LP
writer (``export_*_reference``, ``to_lp_text_reference``) are the
token-by-token and term-by-term versions the library's fast paths
replaced.  ``find_manipulation_reference`` is the misreport search that
ran the mechanism on every report.  ``trade_cycles_reference`` is the
top-trading-cycles walk with one branch per mode that ``ttc`` and ``tttc``
shared before they became one walk steered by the profile's mode.
``max_bipartite_matching_reference`` is Hopcroft-Karp with the recursive
augmenting-path search that ``max_bipartite_matching`` ran before it walked
an explicit stack, and ``augment_reference`` the single augmenting-path
search as it was before it kept its state in lists.
``acceptable_component_classes_reference`` truncates each component order
through the profile's rank dicts, as the refinement's setup did.  All are
kept as they were, except that
``parse_allocation_reference`` refuses a house assigned twice at the line
of its second assignment, and that the reference reader quotes what it
refuses through ``tep.files.quote``, which cuts a long quote to a prefix
and its length, and lists missing agents through ``tep.files._agent_list``,
which keeps the first ten and their count, as the reader does.
``permutation_search_reference`` is ``axioms._permutation_search`` with
no budget, recomputing every fixed cost of a partial assignment from
scratch at each step; it logs the n ticks each internal node charges
between the leaves, so a budgeted run can be checked tick by tick.
``without_linking`` gives the weaker
triple encoding, which the exporter no longer writes, from the linked
one.

The last group are evaluators that nothing in the library calls, so they
live here: Pareto dominance, a blocking witness re-checked against the
definitions, the materialized lexicographic instance of a predominant
profile, the brute-force exact-cover decision and a seeded exact-cover
draw, the 0/1 point of an allocation in either encoding, a program's
objective and feasibility at a point, and a weight table's entry and
allocation value.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import replace
from itertools import combinations
from typing import Iterator, Mapping

from tep import is_core_stable, is_individually_rational, outcome_of
from tep.axioms import DEFAULT_NODE_BUDGET, BlockingWitness, _permutation_search, all_allocations
from tep.cycles import Budget, Options, has_cycle_through
from tep.errors import BudgetExceededError, ParseError
from tep.files import _agent_list, quote
from tep.generators import X3CInstance
from tep.incentives import ManipulationWitness
from tep.model import Allocation, Instance, Market, Outcome, make_instance
from tep.predominant import HOUSE, TENANT, PredominantProfile
from tep.programs import Constraint, MathProgram, WeightTable, _x2, _x3
from tep.responsive import ResponsiveProfile, RsOrdering, rs_compare
from tep.rng import SplitMix64


def without_linking(program: MathProgram) -> MathProgram:
    """The triple encoding minus its linking equalities (the ``link_*``
    constraints, which the exporter writes last): it admits 0/1 points that
    describe no allocation."""
    cons = program.constraints
    first = next((k for k, con in enumerate(cons) if con.name.startswith("link_")), len(cons))
    assert all(con.name.startswith("link_") for con in cons[first:]), "link_* must come last"
    return replace(program, constraints=cons[:first])


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


def pareto_front_reference(inst, limits):
    """``axioms._pareto_front`` with the pairwise skyline it had before the
    rank masks: the same walk, each rank vector taken by rank sum and
    compared with every undominated vector kept before it."""
    leaves = list(_permutation_search(inst, inst.rank_table, limits, DEFAULT_NODE_BUDGET))
    front: list[tuple[int, ...]] = []
    for vec in sorted(set(ranks for _, ranks in leaves), key=sum):
        if not any(all(a <= b for a, b in zip(u, vec)) for u in front):
            front.append(vec)
    optimal = set(front)
    return [Allocation(assignment) for assignment, ranks in leaves if ranks in optimal]


def permutation_search_reference(inst: Instance, cost, limits, bound=None) -> list:
    """The events of ``axioms._permutation_search`` run without a budget, in
    order: an int for the ticks an internal node charges (n, one per house
    its loop looks at) and an (assignment, per-agent costs) pair per leaf.

    An agent's cost is fixed once it holds a house and its own house has a
    receiver.  A child is cut when a fixed cost exceeds its agent's limit,
    or, with ``bound``, when its fixed costs plus every other agent's least
    cost reach the total of the last leaf (``bound`` before the first).
    """
    n = inst.n
    low = [min(row) for row in cost]
    events: list = []
    best = bound

    def fixed(got: list[int]) -> list[int | None]:
        taker = {h: a for a, h in enumerate(got)}
        return [cost[a][got[a] * n + taker[inst.endowment[a]]]
                if a < len(got) and inst.endowment[a] in taker else None for a in range(n)]

    def visit(got: list[int]) -> None:
        nonlocal best
        if len(got) == n:
            costs = tuple(fixed(got))
            events.append((tuple(got), costs))
            if best is not None:
                best = sum(costs)
            return
        events.append(n)
        for h in range(n):
            if h in got:
                continue
            costs = fixed(got + [h])
            if any(c is not None and c > limit for c, limit in zip(costs, limits)):
                continue
            if best is not None and sum(low[a] if c is None else c
                                        for a, c in enumerate(costs)) >= best:
                continue
            visit(got + [h])

    visit([])
    return events


def enumerate_core_stable_reference(inst):
    """Every allocation that passes ``is_core_stable``, in lexicographic
    order."""
    return [a for a in all_allocations(inst.n) if is_core_stable(inst, a)]


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


# -- the outcome search --------------------------------------------------
# The listing and the backtracking search over listed outcomes as they were
# before they read one cached listing per agent, kept verbatim apart from
# their names (``listed_outcomes`` was an ``Instance`` method).

def listed_outcomes_reference(inst: Instance, agent: int) -> tuple[Outcome, ...]:
    """The agent's listed outcomes, best class first, sorted within a class."""
    out: list[Outcome] = []
    for cls in inst.prefs[agent]:
        out.extend(sorted(cls))
    return tuple(out)


def improvement_steps_reference(inst: Instance, agent: int, cur: int) -> list[tuple[int, int]]:
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


def assignment_search_reference(inst: Instance, rank_limits: list[int],
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
                imp_options[x] = improvement_steps_reference(inst, x, rank)
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


# -- the text-format reader ----------------------------------------------

_HEADER = "tep v1"
# Files declaring more agents are refused before anything is allocated.
MAX_AGENTS = 10_000
_OUTCOME_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_CLASS_RE = re.compile(r"\[([^\[\]]*)\]")
# Agent-line keyword -> what its files are called and the shape of its body.
_FORMATS = {"pref": ("instance", "[..] > [..]"),
            "rpref": ("responsive profile", "H ... ; N ..."),
            "ppref": ("predominant profile", "P ... ; T ...")}


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _syntax(message: str, lineno: int, column: int | None = None) -> ParseError:
    return ParseError("syntax", message, lineno, column)


def _parse_int(token: str, lineno: int, what: str) -> int:
    if token.lstrip("-").isdigit():
        try:
            return int(token)
        except ValueError:  # '--5', '²', or more digits than int() converts
            pass
    raise _syntax(f"expected an integer {what}, got {quote(token)}", lineno)


def _check_index(value: int, n: int, lineno: int, what: str) -> int:
    if not 0 <= value < n:
        raise ParseError("index-range", f"{what} {value} out of range 0..{n - 1}", lineno)
    return value


def _items(tokens: list[str], n: int, lineno: int, what: str = "item") -> tuple[int, ...]:
    return tuple(_check_index(_parse_int(tok, lineno, what), n, lineno, what) for tok in tokens)


def _build(make, *args):
    """A constructor's ValueError as a ParseError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError("syntax", str(exc), None) from exc


def _split_classes(body: str, lineno: int, line: str) -> list[str]:
    """Split 'class > class > ...' into bracket bodies, rejecting stray text.
    The '>' separator may be omitted between adjacent bracket groups."""
    chunks = []
    rest = body
    while True:
        rest_stripped = rest.strip()
        if not rest_stripped:
            raise _syntax("empty indifference class list", lineno)
        match = _CLASS_RE.match(rest_stripped)
        if not match:
            col = line.find(rest_stripped) + 1
            raise _syntax(f"expected a bracketed class, got {rest_stripped[:20]!r}", lineno, col)
        chunks.append(match.group(1))
        tail = rest_stripped[match.end():].strip()
        if not tail:
            return chunks
        rest = tail[1:] if tail.startswith(">") else tail


def _pref_body(body: str, n: int, lineno: int, line: str, agent: int) -> list[list[Outcome]]:
    """Outcome classes in file order, each non-empty, no outcome twice."""
    classes = []
    seen: set[Outcome] = set()
    for chunk in _split_classes(body, lineno, line):
        stripped = _OUTCOME_RE.sub("", chunk).strip()
        if stripped:
            raise _syntax(f"unexpected text {stripped[:20]!r} inside a class", lineno)
        outcomes = [Outcome(int(h), int(t)) for h, t in _OUTCOME_RE.findall(chunk)]
        if not outcomes:
            raise _syntax("empty indifference class", lineno)
        for o in outcomes:
            _check_index(o.house, n, lineno, "house")
            _check_index(o.tenant, n, lineno, "tenant")
            if o in seen:
                raise ParseError("duplicate-outcome",
                                 f"agent {agent} lists {o.text()} twice", lineno)
            seen.add(o)
        classes.append(outcomes)
    return classes


def _index_classes(body: str, n: int, lineno: int, line: str, agent: int,
                   what: str) -> tuple[frozenset[int], ...]:
    classes = []
    seen: set[int] = set()
    for chunk in _split_classes(body, lineno, line):
        items = _items(chunk.split(), n, lineno, what)
        if not items:
            raise _syntax(f"empty {what} class", lineno)
        for item in items:
            if item in seen:
                raise ParseError("duplicate-item", f"agent {agent} lists {what} {item} twice",
                                 lineno)
            seen.add(item)
        classes.append(frozenset(items))
    return tuple(classes)


def _rpref_body(body: str, n: int, lineno: int, line: str, agent: int):
    house_part, sep, tenant_part = (part.strip() for part in body.partition(";"))
    if not sep or not house_part.startswith("H") or not tenant_part.startswith("N"):
        raise _syntax("rpref body must look like 'H [..] > [..] ; N [..]'", lineno)
    return (_index_classes(house_part[1:], n, lineno, line, agent, "house"),
            _index_classes(tenant_part[1:], n, lineno, line, agent, "tenant"))


def _primary_order(body: str, n: int, lineno: int, line: str, agent: int) -> tuple[int, ...]:
    return _items(body.split(), n, lineno)


def _ppref_body(body: str, n: int, lineno: int, line: str, agent: int):
    p_part, sep, t_part = (part.strip() for part in body.partition(";"))
    if not sep or not p_part.startswith("P") or not t_part.startswith("T"):
        raise _syntax("ppref body must look like 'P 2 0 1 ; T [..] > [..]'", lineno)
    return (_primary_order(p_part[1:], n, lineno, line, agent),
            _index_classes(t_part[1:], n, lineno, line, agent, "item"))


# Candidate keyword -> the reader of one report.
_REPORTS = {"pref": _pref_body, "rpref": _rpref_body, "porder": _primary_order}


def _agent_line(line: str, lineno: int, keyword: str, n: int) -> tuple[int, str]:
    """The agent and the body of a '<keyword> <agent>: <body>' line."""
    head, _, body = line.partition(":")
    parts = head.split()
    if len(parts) != 2 or parts[0] != keyword or not body:
        raise _syntax(f"expected '{keyword} <agent>: {_FORMATS[keyword][1]}', "
                      f"got {quote(line)}", lineno)
    return _check_index(_parse_int(parts[1], lineno, "agent"), n, lineno, "agent"), body


def _parse_endow(line: str, n: int, lineno: int) -> tuple[int, ...]:
    parts = line.split()
    if len(parts) != n + 1:
        raise ParseError("endowment", f"endow line needs {n} houses", lineno)
    houses = _items(parts[1:], n, lineno, "house")
    if sorted(houses) != list(range(n)):
        raise ParseError("endowment", "endow line is not a bijection", lineno)
    return houses


def _parse_mode(line: str, n: int, lineno: int) -> str:
    parts = line.split()
    if len(parts) != 2 or parts[1] not in (HOUSE, TENANT):
        raise _syntax(f"expected 'mode {HOUSE}|{TENANT}', got {quote(line)}", lineno)
    return parts[1]


def _read_agent_lines(text: str, keyword: str, parse_body, directives: dict | None = None,
                      complete: bool = True):
    """The steps every per-agent format shares: the header and the
    ``agents`` line, then ``endow`` and the given directives, each at most
    once and before the first agent line, then one ``<keyword> <agent>:``
    line per agent, whose body ``parse_body(body, n, lineno, line, agent)``
    reads.  Returns n, the directive values by name (``endow`` defaults to
    the identity) and the bodies in agent order, ``[]`` for an agent without
    a line; ``complete`` refuses a missing line."""
    kind = _FORMATS[keyword][0]
    lines = _meaningful_lines(text)
    lineno, line = next(lines, (1, None))
    if line is None:
        raise _syntax(f"empty {kind} file", 1)
    if line != _HEADER:
        raise _syntax(f"{kind} file must start with {_HEADER!r}", lineno)
    lineno, line = next(lines, (1, None))
    if line is None:
        raise _syntax("missing 'agents <n>' line", 1)
    parts = line.split()
    if len(parts) != 2 or parts[0] != "agents":
        raise _syntax(f"expected 'agents <n>', got {quote(line)}", lineno)
    n = _parse_int(parts[1], lineno, "agent count")
    if n < 1:
        raise _syntax("need at least one agent", lineno)
    if n > MAX_AGENTS:
        raise ParseError("index-range", f"agent count {n} above the limit {MAX_AGENTS}", lineno)
    readers = {"endow": _parse_endow, **(directives or {})}
    found: dict = {}
    bodies: dict = {}
    for lineno, line in lines:
        word = line.split(None, 1)[0]
        if word in readers:
            if bodies or word in found:
                raise _syntax(f"{word} must appear once, before {keyword} lines", lineno)
            found[word] = readers[word](line, n, lineno)
        elif word == keyword:
            agent, body = _agent_line(line, lineno, keyword, n)
            if agent in bodies:
                raise _syntax(f"duplicate {keyword} line for agent {agent}", lineno)
            bodies[agent] = parse_body(body, n, lineno, line, agent)
        else:
            raise _syntax(f"unknown directive {quote(word)}", lineno)
    missing = [i for i in range(n) if i not in bodies]
    if complete and missing:
        raise _syntax(f"missing {keyword} line for agents {_agent_list(missing)}", 1)
    found.setdefault("endow", tuple(range(n)))
    return n, found, [bodies.get(i, []) for i in range(n)]


def parse_instance_reference(text: str) -> Instance:
    """Parse and validate an instance file in the file's own labels."""
    n, found, prefs = _read_agent_lines(text, "pref", _pref_body, complete=False)
    return make_instance(n, prefs, found["endow"])


def parse_allocation_reference(text: str, n: int) -> Allocation:
    assignment: dict[int, int] = {}
    holder: dict[int, int] = {}  # house -> the agent assigned it
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "assign":
            raise _syntax(f"expected 'assign <agent> <house>', got {quote(line)}", lineno)
        agent = _check_index(_parse_int(parts[1], lineno, "agent"), n, lineno, "agent")
        house = _check_index(_parse_int(parts[2], lineno, "house"), n, lineno, "house")
        if agent in assignment:
            raise _syntax(f"duplicate assignment for agent {agent}", lineno)
        if house in holder:
            raise ParseError("duplicate-item", f"house {house} is assigned to agents "
                             f"{holder[house]} and {agent}", lineno)
        assignment[agent] = house
        holder[house] = agent
    # n distinct houses in range for n distinct agents: a bijection, once
    # no agent is missing.
    missing = [i for i in range(n) if i not in assignment]
    if missing:
        raise _syntax(f"missing assignment for agents {_agent_list(missing)}", 1)
    return Allocation(tuple(assignment[i] for i in range(n)))


def parse_responsive_profile_reference(text: str) -> ResponsiveProfile:
    n, found, bodies = _read_agent_lines(text, "rpref", _rpref_body)
    houses, tenants = zip(*bodies)
    return _build(ResponsiveProfile, n, found["endow"], houses, tenants)


def parse_predominant_profile_reference(text: str) -> PredominantProfile:
    n, found, bodies = _read_agent_lines(text, "ppref", _ppref_body, {"mode": _parse_mode})
    if "mode" not in found:
        raise _syntax("missing 'mode' line", 1)
    primary, tiebreak = zip(*bodies)
    return _build(PredominantProfile, n, found["endow"], found["mode"], primary, tiebreak)


def parse_candidates_reference(text: str, keyword: str, truth: Market, agent: int) -> list:
    """The misreports in a candidate file, one per line: ``pref`` or
    ``rpref`` lines, read as in their file formats, or ``porder <agent>
    <item>...`` strict primary orders.  Each must give a valid market in
    place of the agent's preferences in ``truth``, so an ``rpref`` candidate
    must list the house the endowment gives the agent.  A fault is reported
    at the candidate's own line."""
    reports = []
    for lineno, line in _meaningful_lines(text):
        if keyword == "porder":  # no ':' after the agent
            parts = line.split()
            if parts[0] != keyword or len(parts) < 2:
                raise _syntax("expected 'porder <agent> <item>...'", lineno)
            who, body = _parse_int(parts[1], lineno, "agent"), " ".join(parts[2:])
        else:
            who, body = _agent_line(line, lineno, keyword, truth.n)
        if who != agent:
            raise _syntax(f"candidate line is for agent {who}", lineno)
        report = _REPORTS[keyword](body, truth.n, lineno, line, agent)
        try:
            truth.with_report(agent, report)
        except ValueError as exc:
            raise ParseError("syntax", str(exc), lineno) from exc
        reports.append(report)
    return reports


def parse_x3c_reference(text: str, agents_per_m: int) -> X3CInstance:
    """An exact-cover file: ``m``, then one triple per line.  An ``m`` whose
    gadget would have more than MAX_AGENTS agents, ``agents_per_m`` for each
    unit of m, is refused before anything is allocated."""
    rows = [(lineno, line.split()) for lineno, line in _meaningful_lines(text)]
    if not rows or len(rows[0][1]) != 1:
        raise _syntax("exact-cover file: first line must be m", 1)
    lineno, (token,) = rows[0]
    m = _parse_int(token, lineno, "m")
    if agents_per_m * m > MAX_AGENTS:
        raise ParseError("index-range", f"m = {m} makes {agents_per_m * m} agents, above the "
                         f"limit {MAX_AGENTS}", lineno)
    triples = []
    for lineno, r in rows[1:]:
        if len(r) != 3:
            raise _syntax(f"expected 3 elements per triple, got {quote(r)}", lineno)
        triples.append(tuple(sorted(_parse_int(x, lineno, "element") for x in r)))
    return _build(X3CInstance, m, tuple(triples))


# -- the LP writer --------------------------------------------------------

def to_lp_text_reference(program: MathProgram) -> str:
    """LP-style text: objective, subject-to, binary, end sections."""

    def term_text(coeff: int, names: tuple[str, ...], first: bool) -> str:
        sign = "-" if coeff < 0 else ("" if first else "+")
        magnitude = abs(coeff)
        body = " * ".join(names)
        coeff_part = f"{magnitude} " if magnitude != 1 or not names else ""
        lead = f"{sign} " if sign else ""
        return f"{lead}{coeff_part}{body}"

    out = ["maximize"]
    parts = [term_text(c, names, i == 0) for i, (c, names) in enumerate(program.objective)]
    out.append(" obj: " + (" ".join(parts) if parts else "0"))
    out.append("subject to")
    for con in program.constraints:
        lhs = " ".join(
            term_text(c, (v,), i == 0) for i, (c, v) in enumerate(con.terms)
        )
        out.append(f" {con.name}: {lhs} = {con.rhs}")
    out.append("binary")
    for v in program.variables:
        out.append(f" {v}")
    out.append("end")
    return "\n".join(out) + "\n"


def export_ilp_reference(inst: Instance, table: WeightTable, *,
                         linking: bool = True) -> MathProgram:
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
        (weight(table, i, j, k), (_x3(i, j, k),))
        for i in range(n) for j in range(n) for k in range(n)
        if weight(table, i, j, k) != 0
    )
    cons: list[Constraint] = []
    for i in range(n):
        terms = tuple((1, _x3(i, j, k)) for j in range(n) for k in range(n))
        cons.append(Constraint(f"agent_{i}", terms, 1))
    for j in range(n):
        terms = tuple((1, _x3(i, j, k)) for i in range(n) for k in range(n))
        cons.append(Constraint(f"house_{j}", terms, 1))
    for k in range(n):
        terms = tuple((1, _x3(i, j, k)) for i in range(n) for j in range(n))
        cons.append(Constraint(f"tenant_{k}", terms, 1))
    for i in range(n):
        own = inst.endowment[i]
        for k in range(n):
            if k == i:
                continue
            cons.append(Constraint(f"own_house_own_tenant_{i}_{k}",
                                   ((1, _x3(i, own, k)),), 0))
        for j in range(n):
            if j == own:
                continue
            cons.append(Constraint(f"own_tenant_own_house_{i}_{j}",
                                   ((1, _x3(i, j, i)),), 0))
    if linking:
        for i in range(n):
            own = inst.endowment[i]
            for k in range(n):
                if k == i:
                    continue
                terms = tuple((1, _x3(i, j, k)) for j in range(n))
                terms += tuple((-1, _x3(k, own, kk)) for kk in range(n))
                cons.append(Constraint(f"link_{i}_{k}", terms, 0))
    return MathProgram("ilp", variables, objective, tuple(cons))


def export_qp_reference(inst: Instance, table: WeightTable) -> MathProgram:
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
                w = weight(table, i, j, k)
                if w != 0:
                    objective.append((w, (_x2(i, j), _x2(k, own))))
    cons: list[Constraint] = []
    for i in range(n):
        cons.append(Constraint(f"row_{i}", tuple((1, _x2(i, j)) for j in range(n)), 1))
    for j in range(n):
        cons.append(Constraint(f"col_{j}", tuple((1, _x2(i, j)) for i in range(n)), 1))
    return MathProgram("qp", variables, tuple(objective), tuple(cons))


def find_manipulation_reference(mechanism, truth: Market, agent: int, reports, *,
                                max_reports: int = 100_000) -> ManipulationWitness | None:
    """The first report whose replay strictly improves the agent, the
    mechanism run on every report, equal markets included."""
    before = outcome_of(truth, mechanism(truth), agent)
    for count, report in enumerate(reports):
        if count >= max_reports:
            raise BudgetExceededError(f"misreport space cap {max_reports} exceeded")
        after = outcome_of(truth, mechanism(truth.with_report(agent, report)), agent)
        if truth.prefers(agent, after, before):
            return ManipulationWitness(report, before, after)
    return None


def trade_cycles_reference(prof: PredominantProfile, start: str,
                           house_driven: bool) -> tuple[Allocation, list[list[int]]]:
    """Top trading cycles as two near-copies, ``house_driven`` choosing
    between them: the allocation and the removed cycles in removal order."""
    if start not in ("min", "max"):
        raise ValueError("start must be 'min' or 'max'")
    n = prof.n
    remaining_agents = set(range(n))
    remaining_houses = set(range(n))
    assignment = [-1] * n
    rounds: list[list[int]] = []

    def best_house(agent: int) -> int:
        for h in prof.primary[agent]:
            if h in remaining_houses:
                return h
        raise AssertionError("no remaining house")

    def best_tenant(agent: int) -> int:
        for t in prof.primary[agent]:
            if t in remaining_agents:
                return t
        raise AssertionError("no remaining agent")

    # House-driven, the walk goes agent -> favourite remaining house -> its
    # owner; tenant-driven it goes agent -> own house -> owner's favourite
    # remaining tenant (the agent who will take that house).
    while remaining_agents:
        pivot = min(remaining_agents) if start == "min" else max(remaining_agents)
        seen: dict[int, int] = {}
        walk: list[int] = []
        cur = pivot
        while cur not in seen:
            seen[cur] = len(walk)
            walk.append(cur)
            cur = prof.owner[best_house(cur)] if house_driven else best_tenant(cur)
        cycle = walk[seen[cur]:]
        rounds.append(cycle)
        for agent in cycle:
            if house_driven:
                assignment[agent] = best_house(agent)
            else:
                assignment[best_tenant(agent)] = prof.endowment[agent]
        for agent in cycle:
            remaining_agents.remove(agent)
            remaining_houses.remove(prof.endowment[agent])
    return Allocation(tuple(assignment)), rounds


def max_bipartite_matching_reference(n_left: int, n_right: int,
                                     adj: list[list[int]]) -> tuple[int, list[int]]:
    """Hopcroft-Karp whose ``dfs`` recurses once per vertex of an
    augmenting path: (matching size, each left vertex's partner or -1)."""
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = -1
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = -1
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_left[u] == -1 and dfs(u):
                size += 1
    return size, match_left


def augment_reference(adj, match_left: list[int], match_right: list[int], root: int) -> bool:
    """``tep.matching.augment`` as it kept the search state: the right
    vertices reached in a dict, the breadth-first queue in a deque."""
    via: dict[int, int] = {}  # right vertex -> the left vertex that reached it
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in via:
                continue
            via[v] = u
            w = match_right[v]
            if w == -1:
                while v != -1:  # flip the path back to the root
                    u = via[v]
                    match_right[v] = u
                    v, match_left[u] = match_left[u], v
                return True
            queue.append(w)
    return False


def acceptable_component_classes_reference(prof: ResponsiveProfile):
    """Each component order cut after the class of the agent's own house (or
    itself as tenant), the class found through the profile's rank dicts."""
    houses, tenants = [], []
    for i in range(prof.n):
        houses.append(prof.house_classes[i][:prof.house_rank(i, prof.endowment[i]) + 1])
        tenants.append(prof.tenant_classes[i][:prof.tenant_rank(i, i) + 1])
    return tuple(houses), tuple(tenants)


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


def witness_blocks(inst: Instance, alloc: Allocation, witness: BlockingWitness) -> bool:
    """Re-check a witness against the definitions: the coalition trades its
    own houses among its members, and each member strictly improves."""
    members = set(witness.coalition)
    internal = dict(witness.internal)
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


def lex_instance(prof: PredominantProfile) -> Instance:
    """Materialize the full weak order over outcomes as an ordinary instance.

    Every outcome is listed (the order is total), grouped into classes by
    (primary rank, tie-break rank).
    """
    n = prof.n
    prefs = []
    for i in range(n):
        buckets: dict[tuple[int, int], set[Outcome]] = {}
        for h in range(n):
            for t in range(n):
                o = Outcome(h, t)
                buckets.setdefault(prof.outcome_key(i, o), set()).add(o)
        prefs.append([buckets[key] for key in sorted(buckets)])
    return make_instance(n, prefs, prof.endowment)


def x3c_has_cover(x: X3CInstance) -> bool:
    """Brute-force decision: does some sub-collection partition the ground set?"""
    ground = frozenset(range(x.ground_size))
    for chosen in combinations(range(len(x.triples)), x.m):
        if frozenset(e for i in chosen for e in x.triples[i]) == ground:
            return True
    return False


X3C_MAX_TRIES = 10_000


def random_x3c(m: int, seed: int) -> X3CInstance:
    """Seeded random exact-cover input: chop three copies of every ground
    element into triples, rejecting draws that repeat an element inside a
    triple, up to ``X3C_MAX_TRIES`` draws."""
    if m < 1:
        raise ValueError("need m >= 1")
    rng = SplitMix64(seed)
    slots = [e for e in range(3 * m) for _ in range(3)]
    for _ in range(X3C_MAX_TRIES):
        rng.shuffle(slots)
        triples = [tuple(sorted(slots[k:k + 3])) for k in range(0, len(slots), 3)]
        if all(len(set(tr)) == 3 for tr in triples):
            return X3CInstance(m, tuple(sorted(triples)))
    raise ValueError(f"no valid draw after {X3C_MAX_TRIES} tries (m={m}, seed={seed})")


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


def objective_value(program: MathProgram, point: Mapping[str, int]) -> int:
    total = 0
    for coeff, names in program.objective:
        term = coeff
        for v in names:
            term *= point[v]
        total += term
    return total


def is_feasible(program: MathProgram, point: Mapping[str, int]) -> bool:
    if any(point[v] not in (0, 1) for v in program.variables):
        return False
    return all(sum(coeff * point[v] for coeff, v in con.terms) == con.rhs
               for con in program.constraints)


def weight(table: WeightTable, agent: int, house: int, tenant: int) -> int:
    return table.weights[(agent * table.n + house) * table.n + tenant]


def allocation_value(table: WeightTable, inst: Instance, alloc: Allocation) -> int:
    return sum(weight(table, i, *outcome_of(inst, alloc, i)) for i in range(table.n))
