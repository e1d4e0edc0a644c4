"""Line-oriented text formats for instances, allocations, and profiles.

All files are UTF-8 with ``#`` comments.  Instance and profile files begin
with the header line ``tep v1`` and an ``agents`` line, then their
directives, each at most once, then one line per agent.  Instance
preference lines give bracketed indifference classes, best to worst::

    tep v1
    agents 5
    endow 0 1 2 3 4            # optional, identity when missing
    pref 0: [(1,1)] > [(4,4)] > [(0,0)]

Allocation files pair agents with houses, one ``assign <agent> <house>``
line per agent.  Responsive profiles use ``rpref`` lines with an ``H`` and
an ``N`` component; predominant profiles use a ``mode`` line plus ``ppref``
lines with a strict ``P`` list and bracketed ``T`` classes.  Candidate files
hold one misreport per line, and exact-cover files give ``m`` and then one
triple per line.

``_FORMATS`` holds one row per agent-line keyword: what its files are
called, the shape of its body, and the body's two readers.  The fast reader
checks a body in the spelling the serializers write against one compiled
grammar and reads it with a few string operations; only a body that fails
that check, or whose indices are out of range or repeated, goes to the token
walk, which raises every ParseError.  The bracketed index classes of
``rpref`` and ``ppref`` bodies repeat across agents and components, and so
do the outcomes of ``pref`` bodies (each of the n² outcomes an instance may
list for every agent), so one parse call (a market file, or a candidate
file) builds each distinct class or outcome text once and looks it up after
that; nothing of it outlives the call.  ``pref`` classes are built from
their outcomes, not looked up by their own text: outcome classes rarely
repeat in a file, and looking them up measured slower.
``_write_agent_lines`` writes every format, the mirror of
``_read_agent_lines``.

The readers are the only check of a file's classes: they refuse an empty
class, an out-of-range item or a repeat with its line, and build instances,
responsive profiles and allocations with ``model._unchecked``, which skips
the constructor and so ``checked_items``, the check of library inputs.  Of
the constructor's checks, only that each agent of a responsive profile
lists its own house and itself is left to the model.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import responsive
from .errors import ParseError
from .generators import X3CInstance
from .model import Allocation, Instance, Market, Outcome, _unchecked, _with_own
# Unused here, but module attributes that perfbench/tracer.py wraps.
from .model import canonicalize_endowment, make_instance  # noqa: F401
from .predominant import HOUSE, TENANT, PredominantProfile
# The tracer replaces files.ResponsiveProfile with a plain function, so the
# reader takes the class from tep.responsive; here the name only annotates.
from .responsive import ResponsiveProfile

_HEADER = "tep v1"
# Files declaring more agents are refused before anything is allocated.
MAX_AGENTS = 10_000
_OUTCOME_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_CLASS_RE = re.compile(r"\[([^\[\]]*)\]")
# The spelling the serializers write (ASCII digits, single spaces, ' > '
# between classes), checked with one fullmatch per body.
_IDS = r"[0-9]+(?: [0-9]+)*"
_OC = r"\([0-9]+,[0-9]+\)"
_CLASSES = rf"\[{_IDS}\](?: > \[{_IDS}\])*"
_FAST_PREF = re.compile(rf" ?\[{_OC}(?: {_OC})*\](?: > \[{_OC}(?: {_OC})*\])*")
_FAST_RPREF = re.compile(rf" ?H ({_CLASSES}) ; N ({_CLASSES})")
_FAST_PPREF = re.compile(rf" ?P ({_IDS}) ; T ({_CLASSES})")


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _syntax(message: str, lineno: int, column: int | None = None) -> ParseError:
    return ParseError("syntax", message, lineno, column)


def quote(value: str | int | list[str]) -> str:
    """``repr(value)``, cut to its first 80 characters and its length when
    longer, so that a refusal never echoes a megabyte line (or a 4,000-digit
    integer) back whole."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def _agent_list(agents: list[int]) -> str:
    """The agents of a refusal: all of them up to ten, else the first ten
    and how many there are, so that a refusal stays one short line."""
    if len(agents) <= 10:
        return str(agents)
    return f"{str(agents[:10])[:-1]}, ...] ({len(agents)} agents)"


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
    values = _indices(tokens, n)
    if values is not None:
        return values
    return tuple(_check_index(_parse_int(tok, lineno, what), n, lineno, what) for tok in tokens)


@lru_cache(maxsize=4)
def _index_table(n: int) -> dict[str, int]:
    # Every caller gets the same dict from the cache; callers only read it.
    return {str(i): i for i in range(n)}


def _indices(tokens, n: int) -> tuple[int, ...] | None:
    """The tokens as indices below n, or None if one is not written as
    ``str(i)`` for such an index: one lookup per token reads and
    range-checks it."""
    try:
        return tuple(map(_index_table(n).__getitem__, tokens))
    except KeyError:
        return None


class _ClassTexts(dict):
    """Class text ('3 7') -> its class of indices below n, and outcome text
    ('(3,7)') -> its Outcome of such indices, built on the first lookup of
    the text, which raises KeyError, and stores nothing, if a number is not
    such an index in the serializers' spelling.  Each parse call keeps its
    own, so that a class repeated across agents and components, or an
    outcome listed by several agents, is built once per file."""
    __slots__ = ("index",)

    def __init__(self, n: int):
        super().__init__()
        self.index = _index_table(n).__getitem__

    def __missing__(self, text: str) -> frozenset[int] | Outcome:
        if text[0] == "(":  # class texts start with a digit
            # '(3,7)' -> Outcome(3, 7), with no Python call for the tuple
            value = tuple.__new__(Outcome, map(self.index, text[1:-1].split(",")))
        else:
            value = frozenset(map(self.index, text.split()))
        self[text] = value
        return value


def _fast_index_classes(text: str, known: _ClassTexts) -> tuple[frozenset[int], ...] | None:
    """'[1 2] > [0]' as index classes; the text matched _CLASSES.  No item
    may repeat, counting the tokens, since a class merges a repeat ('[1 1]')."""
    texts = text[1:-1].split("] > [")
    try:
        classes = tuple(map(known.__getitem__, texts))
    except KeyError:  # not an index below n in the serializers' spelling
        return None
    # a class text has one token more than spaces, and each ' > ' two spaces
    tokens = text.count(" ") - len(texts) + 2
    return classes if len(frozenset().union(*classes)) == tokens else None


def _fast_pref(body: str, n: int, known: _ClassTexts) -> list[frozenset[Outcome]] | None:
    """'[(1,2) (0,0)] > [(2,1)]' as outcome classes, each outcome text read
    through ``known``.  No outcome may repeat, counting the '(' of the body,
    since a class merges a repeat."""
    if not _FAST_PREF.fullmatch(body):
        return None
    texts = body.lstrip(" ")[1:-1].split("] > [")
    get = known.__getitem__
    try:
        classes = [frozenset(map(get, text.split())) for text in texts]
    except KeyError:  # not an index below n in the serializers' spelling
        return None
    return classes if len(frozenset().union(*classes)) == body.count("(") else None


def _fast_rpref(body: str, n: int, known: _ClassTexts):
    match = _FAST_RPREF.fullmatch(body)
    if not match:
        return None
    houses, tenants = (_fast_index_classes(part, known) for part in match.groups())
    return None if houses is None or tenants is None else (houses, tenants)


def _fast_ppref(body: str, n: int, known: _ClassTexts):
    match = _FAST_PPREF.fullmatch(body)
    if not match:
        return None
    primary = _indices(match[1].split(), n)
    tiebreak = _fast_index_classes(match[2], known)
    return None if primary is None or tiebreak is None else (primary, tiebreak)


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
        outcomes = [Outcome(_parse_int(h, lineno, "house"), _parse_int(t, lineno, "tenant"))
                    for h, t in _OUTCOME_RE.findall(chunk)]
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


def _ppref_body(body: str, n: int, lineno: int, line: str, agent: int):
    p_part, sep, t_part = (part.strip() for part in body.partition(";"))
    if not sep or not p_part.startswith("P") or not t_part.startswith("T"):
        raise _syntax("ppref body must look like 'P 2 0 1 ; T [..] > [..]'", lineno)
    return (_items(p_part[1:].split(), n, lineno),
            _index_classes(t_part[1:], n, lineno, line, agent, "item"))


# Agent-line keyword -> what its files are called, the shape of its body,
# the fast reader of a body in the serializers' spelling (None for any
# other body) and the token walk that reads every body.
_FORMATS = {"pref": ("instance", "[..] > [..]", _fast_pref, _pref_body),
            "rpref": ("responsive profile", "H ... ; N ...", _fast_rpref, _rpref_body),
            "ppref": ("predominant profile", "P ... ; T ...", _fast_ppref, _ppref_body)}


def _read_body(keyword: str, body: str, n: int, lineno: int, line: str, agent: int,
               known: _ClassTexts):
    """The value of a ``keyword`` body: the fast reader's, with ``known``
    the _ClassTexts of the parse call, else the token walk's.  For ``pref``
    the two agree as sets only: the fast reader gives frozensets, the walk
    lists in file order."""
    _, _, fast, walk = _FORMATS[keyword]
    value = fast(body, n, known)
    return walk(body, n, lineno, line, agent) if value is None else value


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


def _read_agent_lines(text: str, keyword: str, directives: dict | None = None,
                      complete: bool = True):
    """The steps every per-agent format shares: the header and the
    ``agents`` line, then ``endow`` and the given directives, each at most
    once and before the first agent line, then one ``<keyword> <agent>:``
    line per agent, its body read by _read_body with one _ClassTexts for
    the whole file.  Returns n, the directive values by name (``endow``
    defaults to the identity) and the bodies in agent order, ``[]`` for an
    agent without a line; ``complete`` refuses a missing line."""
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
    known = _ClassTexts(n)
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
            bodies[agent] = _read_body(keyword, body, n, lineno, line, agent, known)
        else:
            raise _syntax(f"unknown directive {quote(word)}", lineno)
    missing = [i for i in range(n) if i not in bodies]
    if complete and missing:
        raise _syntax(f"missing {keyword} line for agents {_agent_list(missing)}", 1)
    found.setdefault("endow", tuple(range(n)))
    return n, found, [bodies.get(i, []) for i in range(n)]


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance file in the file's own labels: agent
    i owns the house its endow line gives it (house i without one), and
    every answer about the instance names houses as the file does."""
    n, found, bodies = _read_agent_lines(text, "pref", complete=False)
    endow = found["endow"]
    prefs = tuple(_with_own(map(frozenset, classes), Outcome(endow[i], i))
                  for i, classes in enumerate(bodies))
    return _unchecked(Instance, n=n, endowment=endow, prefs=prefs)


def format_classes(classes, item=str) -> str:
    """Indifference classes as '[a b] > [c]', each class sorted."""
    return " > ".join("[" + " ".join(map(item, sorted(c))) + "]" for c in classes)


def _write_agent_lines(market: Market, keyword: str, bodies, *directives: str) -> str:
    """The mirror of _read_agent_lines: the header, the agent count, the
    given directives, the endow line when the endowment is not the identity,
    then one ``<keyword> <agent>: <body>`` line per agent."""
    out = [_HEADER, f"agents {market.n}", *directives]
    if not market.is_canonical():
        out.append("endow " + " ".join(map(str, market.endowment)))
    out += (f"{keyword} {i}: {body}" for i, body in enumerate(bodies))
    return "\n".join(out) + "\n"


def serialize_instance(inst: Instance) -> str:
    return _write_agent_lines(inst, "pref", (format_classes(c, Outcome.text) for c in inst.prefs))


def parse_allocation(text: str, n: int) -> Allocation:
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
    return _unchecked(Allocation, assignment=tuple(assignment[i] for i in range(n)))


def serialize_allocation(alloc: Allocation) -> str:
    return "".join(f"assign {i} {h}\n" for i, h in enumerate(alloc.assignment))


def parse_responsive_profile(text: str) -> ResponsiveProfile:
    n, found, bodies = _read_agent_lines(text, "rpref")
    houses, tenants = zip(*bodies)
    prof = _unchecked(responsive.ResponsiveProfile, n=n, endowment=found["endow"],
                      house_classes=houses, tenant_classes=tenants)
    _build(prof._check_own, range(n))
    return prof


def serialize_responsive_profile(prof: ResponsiveProfile) -> str:
    return _write_agent_lines(prof, "rpref", (
        f"H {format_classes(h)} ; N {format_classes(t)}"
        for h, t in zip(prof.house_classes, prof.tenant_classes)))


def parse_predominant_profile(text: str) -> PredominantProfile:
    n, found, bodies = _read_agent_lines(text, "ppref", {"mode": _parse_mode})
    if "mode" not in found:
        raise _syntax("missing 'mode' line", 1)
    primary, tiebreak = zip(*bodies)
    return _build(PredominantProfile, n, found["endow"], found["mode"], primary, tiebreak)


def serialize_predominant_profile(prof: PredominantProfile) -> str:
    return _write_agent_lines(prof, "ppref", (
        f"P {' '.join(map(str, p))} ; T {format_classes(t)}"
        for p, t in zip(prof.primary, prof.tiebreak)), f"mode {prof.mode}")


def parse_candidates(text: str, keyword: str, truth: Market, agent: int) -> list:
    """The misreports in a candidate file, one per line: ``pref`` or
    ``rpref`` lines, read as in their file formats, or ``porder <agent>
    <item>...`` strict primary orders.  Each must give a valid market in
    place of the agent's preferences in ``truth``, so an ``rpref`` candidate
    must list the house the endowment gives the agent.  A fault is reported
    at the candidate's own line.  The ``rpref`` lines share one
    _ClassTexts; ``pref`` lines go to the token walk alone, which keeps
    each class a list in file order, the order ``manipulate`` prints."""
    n, known = truth.n, _ClassTexts(truth.n)
    reports = []
    for lineno, line in _meaningful_lines(text):
        if keyword == "porder":  # no ':' after the agent; the body is the items
            parts = line.split()
            if parts[0] != keyword or len(parts) < 2:
                raise _syntax("expected 'porder <agent> <item>...'", lineno)
            who, body = _parse_int(parts[1], lineno, "agent"), parts[2:]
        else:
            who, body = _agent_line(line, lineno, keyword, n)
        if who != agent:
            raise _syntax(f"candidate line is for agent {who}", lineno)
        if keyword == "porder":
            report = _items(body, n, lineno)
        elif keyword == "pref":
            report = _pref_body(body, n, lineno, line, agent)
        else:
            report = _read_body(keyword, body, n, lineno, line, agent, known)
        try:
            truth.with_report(agent, report)
        except ValueError as exc:
            raise ParseError("syntax", str(exc), lineno) from exc
        reports.append(report)
    return reports


def parse_x3c(text: str, agents_per_m: int) -> X3CInstance:
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
