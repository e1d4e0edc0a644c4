"""Line-oriented text formats for instances, allocations, and profiles.

All files are UTF-8 with ``#`` comments and begin with the header line
``tep v1``.  Instance preference lines give bracketed indifference classes,
best to worst::

    tep v1
    agents 5
    endow 0 1 2 3 4            # optional, identity when missing
    pref 0: [(1,1)] > [(4,4)] > [(0,0)]

Allocation files pair agents with houses, one ``assign <agent> <house>``
line per agent.  Responsive profiles use ``rpref`` lines with an ``H`` and
an ``N`` component; predominant profiles use a ``mode`` line plus ``ppref``
lines with a strict ``P`` list and bracketed ``T`` classes.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .model import Allocation, Instance, Market, Outcome, canonicalize_endowment, make_instance
from .predominant import HOUSE, TENANT, PredominantProfile
from .responsive import ResponsiveProfile

_HEADER = "tep v1"
# Files declaring more agents are refused before anything is allocated.
MAX_AGENTS = 10_000
_OUTCOME_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_CLASS_RE = re.compile(r"\[([^\[\]]*)\]")


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _syntax(message: str, lineno: int, column: int | None = None) -> ParseError:
    return ParseError("syntax", message, lineno, column)


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not token.lstrip("-").isdigit():
        raise _syntax(f"expected an integer {what}, got {token!r}", lineno)
    return int(token)


def _check_index(value: int, n: int, lineno: int, what: str) -> int:
    if not 0 <= value < n:
        raise ParseError("index-range", f"{what} {value} out of range 0..{n - 1}", lineno)
    return value


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


def _parse_outcomes(chunk: str, lineno: int) -> list[Outcome]:
    stripped = _OUTCOME_RE.sub("", chunk).strip()
    if stripped:
        raise _syntax(f"unexpected text {stripped[:20]!r} inside a class", lineno)
    return [Outcome(int(h), int(t)) for h, t in _OUTCOME_RE.findall(chunk)]


def _parse_header_and_agents(lines, kind: str):
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise _syntax(f"empty {kind} file", 1)
    if line != _HEADER:
        raise _syntax(f"{kind} file must start with {_HEADER!r}", lineno)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise _syntax("missing 'agents <n>' line", 1)
    parts = line.split()
    if len(parts) != 2 or parts[0] != "agents":
        raise _syntax(f"expected 'agents <n>', got {line!r}", lineno)
    n = _parse_int(parts[1], lineno, "agent count")
    if n < 1:
        raise _syntax("need at least one agent", lineno)
    if n > MAX_AGENTS:
        raise ParseError("index-range", f"agent count {n} above the limit {MAX_AGENTS}", lineno)
    return n


def _parse_endow(parts: list[str], n: int, lineno: int) -> tuple[int, ...]:
    if len(parts) != n + 1:
        raise ParseError("endowment", f"endow line needs {n} houses", lineno)
    houses = [_check_index(_parse_int(p, lineno, "house"), n, lineno, "house")
              for p in parts[1:]]
    if sorted(houses) != list(range(n)):
        raise ParseError("endowment", "endow line is not a bijection", lineno)
    return tuple(houses)


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance file, returning it in canonical
    labeling (agent i owns house i); preference outcomes are relabeled
    alongside the houses when the endow line is not the identity."""
    lines = _meaningful_lines(text)
    n = _parse_header_and_agents(lines, "instance")
    endow: tuple[int, ...] | None = None
    prefs: dict[int, list[list[Outcome]]] = {}
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "endow":
            if prefs or endow is not None:
                raise _syntax("endow must appear once, before pref lines", lineno)
            endow = _parse_endow(parts, n, lineno)
        elif parts[0] == "pref":
            head, _, body = line.partition(":")
            if not body:
                raise _syntax("pref line needs ':'", lineno)
            head_parts = head.split()
            if len(head_parts) != 2:
                raise _syntax(f"expected 'pref <agent>:', got {head!r}", lineno)
            agent = _check_index(_parse_int(head_parts[1], lineno, "agent"), n, lineno, "agent")
            if agent in prefs:
                raise _syntax(f"duplicate pref line for agent {agent}", lineno)
            classes = []
            seen: set[Outcome] = set()
            for chunk in _split_classes(body, lineno, line):
                outcomes = _parse_outcomes(chunk, lineno)
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
            prefs[agent] = classes
        else:
            raise _syntax(f"unknown directive {parts[0]!r}", lineno)
    endow = endow if endow is not None else tuple(range(n))
    inst = make_instance(n, [prefs.get(i, []) for i in range(n)], endow)
    return canonicalize_endowment(inst)


def format_classes(classes, item=str) -> str:
    """Indifference classes as '[a b] > [c]', each class sorted."""
    return " > ".join("[" + " ".join(map(item, sorted(c))) + "]" for c in classes)


def _preamble(market: Market, *directives: str) -> list[str]:
    """Header, agent count, the given directives, and the endow line when
    the endowment is not the identity."""
    out = [_HEADER, f"agents {market.n}", *directives]
    if not market.is_canonical():
        out.append("endow " + " ".join(str(h) for h in market.endowment))
    return out


def serialize_instance(inst: Instance) -> str:
    out = _preamble(inst)
    for i in range(inst.n):
        out.append(f"pref {i}: {format_classes(inst.prefs[i], Outcome.text)}")
    return "\n".join(out) + "\n"


def parse_allocation(text: str, n: int) -> Allocation:
    assignment: dict[int, int] = {}
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "assign":
            raise _syntax(f"expected 'assign <agent> <house>', got {line!r}", lineno)
        agent = _check_index(_parse_int(parts[1], lineno, "agent"), n, lineno, "agent")
        house = _check_index(_parse_int(parts[2], lineno, "house"), n, lineno, "house")
        if agent in assignment:
            raise _syntax(f"duplicate assignment for agent {agent}", lineno)
        assignment[agent] = house
    missing = [i for i in range(n) if i not in assignment]
    if missing:
        raise _syntax(f"missing assignment for agents {missing}", 1)
    houses = [assignment[i] for i in range(n)]
    if sorted(houses) != list(range(n)):
        raise _syntax("assignment is not a bijection", 1)
    return Allocation(tuple(houses))


def serialize_allocation(alloc: Allocation) -> str:
    return "".join(f"assign {i} {h}\n" for i, h in enumerate(alloc.assignment))


def _parse_index_classes(chunk_list: list[str], n: int, lineno: int, agent: int,
                         what: str) -> list[frozenset[int]]:
    classes = []
    seen: set[int] = set()
    for chunk in chunk_list:
        items = [_check_index(_parse_int(tok, lineno, what), n, lineno, what)
                 for tok in chunk.split()]
        if not items:
            raise _syntax(f"empty {what} class", lineno)
        for item in items:
            if item in seen:
                raise ParseError("duplicate-item", f"agent {agent} lists {what} {item} twice",
                                 lineno)
            seen.add(item)
        classes.append(frozenset(items))
    return classes


def parse_responsive_profile(text: str) -> ResponsiveProfile:
    lines = _meaningful_lines(text)
    n = _parse_header_and_agents(lines, "responsive profile")
    endow: tuple[int, ...] | None = None
    houses: dict[int, tuple] = {}
    tenants: dict[int, tuple] = {}
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "endow":
            endow = _parse_endow(parts, n, lineno)
            continue
        if parts[0] != "rpref":
            raise _syntax(f"unknown directive {parts[0]!r}", lineno)
        head, _, body = line.partition(":")
        head_parts = head.split()
        if len(head_parts) != 2 or not body:
            raise _syntax(f"expected 'rpref <agent>: H ... ; N ...', got {line!r}", lineno)
        agent = _check_index(_parse_int(head_parts[1], lineno, "agent"), n, lineno, "agent")
        if agent in houses:
            raise _syntax(f"duplicate rpref line for agent {agent}", lineno)
        house_part, sep, tenant_part = body.partition(";")
        house_part, tenant_part = house_part.strip(), tenant_part.strip()
        if not sep or not house_part.startswith("H") or not tenant_part.startswith("N"):
            raise _syntax("rpref body must look like 'H [..] > [..] ; N [..]'", lineno)
        houses[agent] = tuple(_parse_index_classes(
            _split_classes(house_part[1:], lineno, line), n, lineno, agent, "house"))
        tenants[agent] = tuple(_parse_index_classes(
            _split_classes(tenant_part[1:], lineno, line), n, lineno, agent, "tenant"))
    endow = endow if endow is not None else tuple(range(n))
    missing = [i for i in range(n) if i not in houses]
    if missing:
        raise _syntax(f"missing rpref line for agents {missing}", 1)
    try:
        return ResponsiveProfile(n, endow,
                                 tuple(houses[i] for i in range(n)),
                                 tuple(tenants[i] for i in range(n)))
    except ValueError as exc:
        raise ParseError("syntax", str(exc), None) from exc


def serialize_responsive_profile(prof: ResponsiveProfile) -> str:
    out = _preamble(prof)
    for i in range(prof.n):
        h, t = format_classes(prof.house_classes[i]), format_classes(prof.tenant_classes[i])
        out.append(f"rpref {i}: H {h} ; N {t}")
    return "\n".join(out) + "\n"


def parse_predominant_profile(text: str) -> PredominantProfile:
    lines = _meaningful_lines(text)
    n = _parse_header_and_agents(lines, "predominant profile")
    endow: tuple[int, ...] | None = None
    mode: str | None = None
    primary: dict[int, tuple[int, ...]] = {}
    tiebreak: dict[int, tuple] = {}
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "endow":
            endow = _parse_endow(parts, n, lineno)
            continue
        if parts[0] == "mode":
            if len(parts) != 2 or parts[1] not in (HOUSE, TENANT):
                raise _syntax(f"expected 'mode {HOUSE}|{TENANT}', got {line!r}", lineno)
            mode = parts[1]
            continue
        if parts[0] != "ppref":
            raise _syntax(f"unknown directive {parts[0]!r}", lineno)
        head, _, body = line.partition(":")
        head_parts = head.split()
        if len(head_parts) != 2 or not body:
            raise _syntax(f"expected 'ppref <agent>: P ... ; T ...', got {line!r}", lineno)
        agent = _check_index(_parse_int(head_parts[1], lineno, "agent"), n, lineno, "agent")
        if agent in primary:
            raise _syntax(f"duplicate ppref line for agent {agent}", lineno)
        p_part, sep, t_part = body.partition(";")
        p_part, t_part = p_part.strip(), t_part.strip()
        if not sep or not p_part.startswith("P") or not t_part.startswith("T"):
            raise _syntax("ppref body must look like 'P 2 0 1 ; T [..] > [..]'", lineno)
        order = [_check_index(_parse_int(tok, lineno, "item"), n, lineno, "item")
                 for tok in p_part[1:].split()]
        primary[agent] = tuple(order)
        tiebreak[agent] = tuple(_parse_index_classes(
            _split_classes(t_part[1:], lineno, line), n, lineno, agent, "item"))
    if mode is None:
        raise _syntax("missing 'mode' line", 1)
    endow = endow if endow is not None else tuple(range(n))
    missing = [i for i in range(n) if i not in primary]
    if missing:
        raise _syntax(f"missing ppref line for agents {missing}", 1)
    try:
        return PredominantProfile(n, endow, mode,
                                  tuple(primary[i] for i in range(n)),
                                  tuple(tiebreak[i] for i in range(n)))
    except ValueError as exc:
        raise ParseError("syntax", str(exc), None) from exc


def serialize_predominant_profile(prof: PredominantProfile) -> str:
    out = _preamble(prof, f"mode {prof.mode}")
    for i in range(prof.n):
        p = " ".join(str(x) for x in prof.primary[i])
        out.append(f"ppref {i}: P {p} ; T {format_classes(prof.tiebreak[i])}")
    return "\n".join(out) + "\n"
