"""Profile and allocation file formats."""

import re
from dataclasses import fields, replace

import pytest

from tep import (
    Allocation,
    Market,
    Outcome,
    ParseError,
    parse_allocation,
    parse_predominant_profile,
    parse_responsive_profile,
    serialize_allocation,
    serialize_instance,
    serialize_predominant_profile,
    serialize_responsive_profile,
)
from tep.generators import random_predominant_profile, random_responsive_profile

RPROF_TEXT = """\
tep v1
agents 3
# houses best to worst, then tenants
rpref 0: H [1 2] > [0] ; N [0 1 2]
rpref 1: H [1] ; N [0] > [1]
rpref 2: H [0 2] ; N [2]
"""

PPROF_TEXT = """\
tep v1
agents 3
mode house
ppref 0: P 2 1 0 ; T [1] > [0 2]
ppref 1: P 1 0 2 ; T [0 1 2]
ppref 2: P 0 1 2 ; T [2] > [0] > [1]
"""


def test_parse_responsive_profile():
    prof = parse_responsive_profile(RPROF_TEXT)
    assert prof.n == 3
    assert prof.house_classes[0] == (frozenset({1, 2}), frozenset({0}))
    assert prof.tenant_classes[1] == (frozenset({0}), frozenset({1}))
    assert prof.house_classes[2] == (frozenset({0, 2}),)


def test_parse_predominant_profile():
    prof = parse_predominant_profile(PPROF_TEXT)
    assert prof.mode == "house"
    assert prof.primary[0] == (2, 1, 0)
    assert prof.tiebreak[2] == (frozenset({2}), frozenset({0}), frozenset({1}))


def test_responsive_round_trip():
    for seed in (1, 2, 3):
        prof = random_responsive_profile(5, 0.6, 0.4, seed)
        assert parse_responsive_profile(serialize_responsive_profile(prof)) == prof


def test_predominant_round_trip():
    for seed, mode in ((1, "house"), (2, "tenant")):
        prof = random_predominant_profile(5, mode, 0.4, seed)
        assert parse_predominant_profile(serialize_predominant_profile(prof)) == prof


def test_responsive_profile_errors():
    with pytest.raises(ParseError):
        parse_responsive_profile("tep v1\nagents 2\nrpref 0: H [1] [0]\n")  # no N part
    with pytest.raises(ParseError):  # own house missing: semantic failure
        parse_responsive_profile(
            "tep v1\nagents 2\nrpref 0: H [1] ; N [0]\nrpref 1: H [1] ; N [1]\n")
    with pytest.raises(ParseError):  # missing agent line
        parse_responsive_profile("tep v1\nagents 2\nrpref 0: H [0] ; N [0]\n")


def test_predominant_profile_errors():
    with pytest.raises(ParseError):  # missing mode
        parse_predominant_profile(
            "tep v1\nagents 1\nppref 0: P 0 ; T [0]\n")
    with pytest.raises(ParseError):  # non-strict primary
        parse_predominant_profile(
            "tep v1\nagents 2\nmode house\nppref 0: P 0 0 ; T [0 1]\nppref 1: P 0 1 ; T [0 1]\n")


def test_allocation_round_trip_and_errors():
    alloc = Allocation((2, 0, 1))
    assert parse_allocation(serialize_allocation(alloc), 3) == alloc
    with pytest.raises(ParseError):
        parse_allocation("assign 0 1\n", 2)  # agent 1 missing
    with pytest.raises(ParseError) as twice:
        parse_allocation("assign 0 1\n# comment\nassign 1 1\n", 2)
    assert str(twice.value) == "duplicate-item: house 1 is assigned to agents 0 and 1 (line 3)"
    with pytest.raises(ParseError) as missing:
        parse_allocation("assign 0 1\nassign 2 0\n", 3)
    assert str(missing.value) == "syntax: missing assignment for agents [1] (line 1)"
    with pytest.raises(ParseError):
        parse_allocation("assign 0 5\nassign 1 0\n", 2)  # house out of range


def test_integer_tokens_are_read_as_before():
    """Decimal digits of any script, with at most one leading '-', as int()
    reads them; '+', '_' and non-decimal digits are refused."""
    assert parse_allocation("assign ٠ -0\n", 1) == Allocation((0,))
    for token in ("+0", "0_0", "²", "--0", "-"):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_allocation(f"assign 0 {token}\n", 1)


def test_x3c_m_is_bounded_by_the_gadget_size():
    from tep.files import MAX_AGENTS, parse_x3c

    def cover(m):
        return f"{m}\n" + "".join(f"{3 * j} {3 * j + 1} {3 * j + 2}\n" for j in range(m)) * 3

    assert parse_x3c(cover(666), 15).m == 666
    assert parse_x3c(cover(3333), 3).m == 3333
    for m, per_m in ((667, 15), (3334, 3)):
        with pytest.raises(ParseError, match=f"above the limit {MAX_AGENTS}"):
            parse_x3c(cover(m), per_m)


# -- the line-at-a-time reader against the token walk it replaced ------------

def _read(parse, *args):
    """A reader's value, or its error as (type, code, message, line, column)."""
    try:
        return parse(*args)
    except ParseError as exc:
        return ParseError, exc.code, exc.message, exc.line, exc.column
    except ValueError as exc:
        return ValueError, str(exc)


def _spot(rng, text, pattern):
    """One match of ``pattern`` in ``text``, picked by ``rng``, or None."""
    found = list(re.finditer(pattern, text))
    return found[rng.below(len(found))] if found else None


def _swap(rng, text, pattern, new):
    """``text`` with one match of ``pattern`` replaced by ``new(match)``."""
    m = _spot(rng, text, pattern)
    return None if m is None else text[:m.start()] + new(m) + text[m.end():]


def _repeat_line(rng, text):
    lines = text.splitlines()
    k = rng.below(len(lines))
    return "\n".join(lines[:k + 1] + lines[k:]) + "\n"


def _repeat_across_classes(rng, text):
    """The first item of one class copied into a later class of its line."""
    lines = text.splitlines()
    spots = [k for k, line in enumerate(lines) if line.count("[") >= 2]
    if not spots:
        return None
    k = spots[rng.below(len(spots))]
    first, later = list(re.finditer(r"\[([^\[\]]*)\]", lines[k]))[:2]
    item = first[1].split()[0]
    lines[k] = lines[k][:later.start(1)] + item + " " + lines[k][later.start(1):]
    return "\n".join(lines) + "\n"


def _without(classes, token):
    """Bracketed classes without ``token``, a class left empty dropped."""
    bodies = re.findall(r"\[([^\[\]]*)\]", classes)
    kept = [[t for t in body.split() if t != token] for body in bodies]
    return " > ".join(f"[{' '.join(c)}]" for c in kept if c)


def _drop_own(rng, text):
    """One agent line without its own item: a pref line's endowment outcome,
    or an rpref line's own house or the agent itself as a tenant.  The
    endowment is the endow line's, else the identity."""
    lines = text.splitlines()
    endow = next((line.split()[1:] for line in lines if line.startswith("endow ")), None)
    spots = []
    for k, line in enumerate(lines):
        m = re.fullmatch(r"(r?pref) ([0-9]+):(.*)", line)
        if not m:
            continue
        agent, body = m[2], m[3]
        house = endow[int(agent)] if endow else agent
        if m[1] == "pref":
            own = f"({house},{agent})"
            if own in re.findall(r"\([0-9]+,[0-9]+\)", body):
                spots.append((k, f"pref {agent}: {_without(body, own)}"))
        else:
            h, sep, t = body.partition(" ; ")
            if sep:
                spots.append((k, f"rpref {agent}: H {_without(h, house)} ; {t.strip()}"))
                spots.append((k, f"rpref {agent}: {h.strip()} ; N {_without(t, agent)}"))
    if not spots:
        return None
    k, line = spots[rng.below(len(spots))]
    return "\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n"


_MUTATIONS = {
    "digit-letter": lambda rng, t: _swap(rng, t, r"[0-9]", lambda m: "x"),
    "drop-bracket": lambda rng, t: _swap(rng, t, r"[\[\]]", lambda m: ""),
    "repeat-line": _repeat_line,
    "5000-digits": lambda rng, t: _swap(rng, t, r"[0-9]+", lambda m: "1" * 5000),
    "superscript": lambda rng, t: _swap(rng, t, r"[0-9]+", lambda m: "²"),
    "arabic-indic": lambda rng, t: _swap(rng, t, r"[0-9]",
                                         lambda m: chr(0x660 + int(m[0]))),
    "plus": lambda rng, t: _swap(rng, t, r"[0-9]+", lambda m: "+5"),
    "minus": lambda rng, t: _swap(rng, t, r"[0-9]+", lambda m: "-3"),
    "minus-zero": lambda rng, t: _swap(rng, t, r"\b0\b", lambda m: "-0"),
    "leading-zero": lambda rng, t: _swap(rng, t, r"[0-9]+", lambda m: "0" + m[0]),
    "out-of-range": lambda rng, t: _swap(rng, t, r"[0-9]+", lambda m: str(int(m[0]) + 6)),
    "tab": lambda rng, t: _swap(rng, t, r" ", lambda m: "\t"),
    "two-spaces": lambda rng, t: _swap(rng, t, r" ", lambda m: "  "),
    "spaced-outcome": lambda rng, t: _swap(rng, t, r"\(([0-9]+),([0-9]+)\)",
                                           lambda m: f"( {m[1]} , {m[2]} )"),
    "missing-gt": lambda rng, t: _swap(rng, t, r" > ", lambda m: " "),
    "adjacent-classes": lambda rng, t: _swap(rng, t, r" > ", lambda m: ""),
    "empty-class": lambda rng, t: _swap(rng, t, r"\[[^\[\]]*\]", lambda m: "[]"),
    "repeat-in-class": lambda rng, t: _swap(rng, t, r"\[(\([0-9]+,[0-9]+\)|[0-9]+)",
                                            lambda m: f"[{m[1]} {m[1]}"),
    "repeat-across-classes": _repeat_across_classes,
    "drop-own": _drop_own,
    "drop-line": lambda rng, t: _swap(rng, t, r"(?m)^(?:r?pref|ppref) .*\n", lambda m: ""),
}


def _endow_line(text, perm):
    head, agents, rest = text.split("\n", 2)
    return f"{head}\n{agents}\nendow {' '.join(map(str, perm))}\n{rest}"


def _agent_text(line, agent):
    """A serialized agent line rewritten for another agent."""
    keyword, _, body = line.partition(":")
    return f"{keyword.split()[0]} {agent}:{body}"


def _reader_cases(seed):
    """(name, new reader, reference reader, text, extra args) for seeded
    files of every format, candidate files and exact-cover files.  A
    candidate file of several lines repeats class texts across its lines,
    which one parse reads through one shared table."""
    import references as ref
    from tep.files import parse_candidates, parse_instance, parse_x3c
    from tep.generators import random_instance
    from tep.rng import SplitMix64

    rng = SplitMix64(seed)
    n = 1 + rng.below(6)
    perm = list(range(n))
    rng.shuffle(perm)
    inst_text = serialize_instance(random_instance(n, 0.6, 0.4, seed))
    rprof = random_responsive_profile(n, 0.7, 0.4, seed)
    pprof = random_predominant_profile(n, "house" if seed % 2 else "tenant", 0.4, seed)
    x3c = ref.random_x3c(1 + rng.below(3), seed)
    agent = rng.below(n)
    other = serialize_instance(random_instance(n, 0.6, 0.4, seed + 99)).splitlines()[2 + agent]
    rother = serialize_responsive_profile(rprof).splitlines()[2 + (agent + 1) % n]
    porder = list(range(n))
    rng.shuffle(porder)
    truth_line = inst_text.splitlines()[2 + agent]
    rown = serialize_responsive_profile(rprof).splitlines()[2 + agent]
    rseeded = serialize_responsive_profile(
        random_responsive_profile(n, 0.7, 0.4, seed + 99)).splitlines()[2 + agent]
    porders = [porder, porder[::-1], porder]
    files = [
        ("instance", parse_instance, ref.parse_instance_reference, inst_text, ()),
        ("instance-endow", parse_instance, ref.parse_instance_reference,
         _endow_line(inst_text, perm), ()),
        ("allocation", parse_allocation, ref.parse_allocation_reference,
         serialize_allocation(Allocation(tuple(perm))), (n,)),
        ("rpref", parse_responsive_profile, ref.parse_responsive_profile_reference,
         _endow_line(serialize_responsive_profile(rprof), perm), ()),
        ("ppref", parse_predominant_profile, ref.parse_predominant_profile_reference,
         serialize_predominant_profile(pprof), ()),
        ("x3c", parse_x3c, ref.parse_x3c_reference,
         f"{x3c.m}\n" + "".join(" ".join(map(str, t)) + "\n" for t in x3c.triples), (3,)),
        ("pref-candidates", parse_candidates, ref.parse_candidates_reference,
         _agent_text(other, agent) + "\n", ("pref", parse_instance(inst_text), agent)),
        ("rpref-candidates", parse_candidates, ref.parse_candidates_reference,
         _agent_text(rother, agent) + "\n", ("rpref", rprof, agent)),
        ("porder-candidates", parse_candidates, ref.parse_candidates_reference,
         f"porder {agent} {' '.join(map(str, porder))}\n", ("porder", pprof, agent)),
        ("pref-candidate-lines", parse_candidates, ref.parse_candidates_reference,
         "".join(f"{line}\n" for line in (_agent_text(other, agent), truth_line,
                                          _agent_text(other, agent), truth_line)),
         ("pref", parse_instance(inst_text), agent)),
        ("rpref-candidate-lines", parse_candidates, ref.parse_candidates_reference,
         "".join(f"{line}\n" for line in (rown, rseeded, rown, rseeded)),
         ("rpref", rprof, agent)),
        ("porder-candidate-lines", parse_candidates, ref.parse_candidates_reference,
         "".join(f"porder {agent} {' '.join(map(str, p))}\n" for p in porders),
         ("porder", pprof, agent)),
    ]
    for name, new, old, text, args in files:
        yield name, new, old, text, args
        for kind, mutate in _MUTATIONS.items():
            mutated = mutate(rng, text)
            if mutated is not None:
                yield f"{name}/{kind}", new, old, mutated, args


@pytest.mark.parametrize("seed", range(8))
def test_the_reader_agrees_with_the_token_walk(seed):
    """Every value, and every ParseError's code, message, line and column, is
    the reference reader's.  The one difference: a token past int()'s digit
    limit inside a pref outcome escaped the reference as a ValueError, and
    is now a syntax error."""
    for name, new, old, text, args in _reader_cases(seed):
        got, want = _read(new, text, *args), _read(old, text, *args)
        if isinstance(want, tuple) and want[0] is ValueError:
            assert "digits" in want[1], name
            assert got[:2] == (ParseError, "syntax") and "expected an integer" in got[2], name
        else:
            assert got == want, (name, text)
            assert type(got) is type(want), name


@pytest.mark.parametrize("seed", range(8))
def test_market_files_are_checked_by_their_readers_alone(seed, monkeypatch):
    """The readers refuse every bad class themselves, so a market file of
    any format, mutated or not, reads to the same value or ParseError with
    the model's class checks made to fail on any call."""
    from tep import model, responsive

    def forbidden(*args):
        raise AssertionError("a file reader called a model class check")

    cases = [(name, new, text, args) for name, new, _, text, args in _reader_cases(seed)
             if "candidate" not in name]
    before = [_read(new, text, *args) for _, new, text, args in cases]
    for module, name in ((model, "checked_items"), (responsive, "checked_items"),
                         (model, "_normalized_classes")):
        monkeypatch.setattr(module, name, forbidden)
    for (name, new, text, args), want in zip(cases, before):
        assert _read(new, text, *args) == want, name


def test_library_inputs_keep_the_class_checks():
    """make_instance, the ResponsiveProfile constructor and with_report
    still refuse each bad class with the checked_items messages."""
    from tep.model import make_instance
    from tep.responsive import ResponsiveProfile

    def profile(houses):
        return ResponsiveProfile(2, (0, 1), ((frozenset({0}),), houses),
                                 ((frozenset({0}),), (frozenset({1}),)))

    inst = make_instance(2, [[[(0, 0)]], [[(1, 1)]]])
    prof = profile((frozenset({1}),))
    one, empty = frozenset({1}), frozenset()
    for build, message in [
            (lambda: make_instance(2, [[[(0, 2)]], []]), "agent 0 lists out-of-range outcome (0,2)"),
            (lambda: make_instance(2, [[[(0, 1)], [(0, 1)]], []]), "agent 0 lists outcome (0,1) twice"),
            (lambda: inst.with_report(1, [[(1, 2)]]), "agent 1 lists out-of-range outcome (1,2)"),
            (lambda: inst.with_report(1, [[(0, 0)], [(1, 1), (0, 0)]]),
             "agent 1 lists outcome (0,0) twice"),
            (lambda: profile((one, empty)), "agent 1 has an empty house class"),
            (lambda: profile((one, frozenset({2}))), "agent 1 lists out-of-range house 2"),
            (lambda: profile((one, one)), "agent 1 lists house 1 twice"),
            (lambda: prof.with_report(1, ((one, empty), (one,))), "agent 1 has an empty house class"),
            (lambda: prof.with_report(1, ((one,), (one, frozenset({-1})))),
             "agent 1 lists out-of-range tenant -1"),
            (lambda: prof.with_report(1, ((one,), (one, one))), "agent 1 lists tenant 1 twice")]:
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


def _typed(value):
    """``value`` with the type of every tuple, frozenset and int in it, and
    a market as its type and fields: two readers agree in value and type
    when their results map to equal values."""
    if isinstance(value, Market):
        return type(value), tuple(_typed(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list, frozenset)):
        return type(value), type(value)(map(_typed, value))
    return type(value), value


def _grouped(rng, items, tie_rate):
    """``items`` shuffled and cut into classes, each item joining the class
    before it at ``tie_rate``."""
    items = list(items)
    rng.shuffle(items)
    classes = []
    for item in items:
        if classes and rng.random() < tie_rate:
            classes[-1].append(item)
        else:
            classes.append([item])
    return tuple(map(frozenset, classes))


def _wide_markets(n, tie_rate, seed):
    """Seeded markets of any size (the generators stop at 12 agents): an
    instance listing up to 30 outcomes per agent, a responsive profile on a
    permuted endowment, and a predominant profile of each mode."""
    import random

    from tep.model import make_instance
    from tep.predominant import PredominantProfile
    from tep.responsive import ResponsiveProfile

    rng = random.Random(seed)
    endow = list(range(n))
    rng.shuffle(endow)
    prefs = [_grouped(rng, {Outcome(rng.randrange(n), rng.randrange(n)) for _ in range(30)},
                      tie_rate) for _ in range(n)]
    # every other house (tenant) acceptable at 0.7, the own one last
    houses, tenants = ([_grouped(rng, [x for x in range(n) if x != own and rng.random() < 0.7],
                                 tie_rate) + (frozenset({own}),) for own in owns]
                       for owns in (endow, range(n)))
    yield make_instance(n, prefs, endow)
    yield ResponsiveProfile(n, tuple(endow), tuple(houses), tuple(tenants))
    for mode in ("house", "tenant"):
        yield PredominantProfile(n, tuple(range(n)), mode,
                                 tuple(tuple(rng.sample(range(n), n)) for _ in range(n)),
                                 tuple(_grouped(rng, range(n), tie_rate) for _ in range(n)))


def _class_reads(n, tie_rate, seed):
    """(reader, reference reader, text) for the seeded profiles of
    _wide_markets."""
    import references as ref

    _, rprof, *pprofs = _wide_markets(n, tie_rate, seed)
    yield (parse_responsive_profile, ref.parse_responsive_profile_reference,
           serialize_responsive_profile(rprof))
    for pprof in pprofs:
        yield (parse_predominant_profile, ref.parse_predominant_profile_reference,
               serialize_predominant_profile(pprof))


@pytest.mark.parametrize("tie_rate", [0, 0.9])
def test_profiles_read_each_class_as_the_token_walk_does(tie_rate):
    """Seeded profile files with up to 40 agents give the reference reader's
    value and types.  With tie rate 0 every class is one item, so each
    class text repeats across agents and components and is read from the
    texts the parse already built."""
    for n in (1, 2, 5, 13, 27, 40):
        for seed in range(3):
            for parse, reference, text in _class_reads(n, tie_rate, seed):
                got = _read(parse, text)
                assert _typed(got) == _typed(_read(reference, text)), text
                assert not isinstance(got, tuple), text


@pytest.mark.parametrize("text", [
    # a class repeated across agents and components, then within a line
    "rpref 0: H [0 1] > [2] ; N [0 1] > [2]\nrpref 1: H [0 1] ; N [2] > [0 1]\n"
    "rpref 2: H [2] > [0 1] ; N [2] > [0 1]\n",
    "rpref 0: H [0 1] ; N [0]\nrpref 1: H [1] ; N [1]\nrpref 2: H [2] > [0 1] > [1] ; N [2]\n",
    "rpref 0: H [0 1] ; N [0]\nrpref 1: H [1] ; N [1]\nrpref 2: H [2] > [0 1 2] ; N [2]\n",
    # a class with a repeated item, read before and after the same class
    "rpref 0: H [1 1] > [0] ; N [0]\nrpref 1: H [1] ; N [1]\nrpref 2: H [2] ; N [2]\n",
    "rpref 0: H [0] ; N [0] > [1]\nrpref 1: H [1] ; N [1 1]\nrpref 2: H [2] ; N [2]\n",
    "rpref 0: H [0] ; N [0]\nrpref 1: H [1] ; N [1]\nrpref 2: H [2] > [0 0] ; N [2]\n",
    "rpref 0: H [0] ; N [0]\nrpref 1: H [1] ; N [1]\nrpref 2: H [2] > [00] ; N [2]\n",
    "mode house\nppref 0: P 0 1 2 ; T [0 1 2]\nppref 1: P 0 1 2 ; T [0 1 2]\n"
    "ppref 2: P 0 1 2 ; T [0 1 2]\n",
    "mode house\nppref 0: P 0 1 2 ; T [0 1] > [2]\nppref 1: P 0 1 2 ; T [2] > [0 1]\n"
    "ppref 2: P 0 1 2 ; T [0 1] > [1 2]\n",
    "mode tenant\nppref 0: P 0 1 2 ; T [0 1] > [2]\nppref 1: P 0 1 2 ; T [1 1] > [0 2]\n"
    "ppref 2: P 0 1 2 ; T [0 1 2]\n",
])
def test_a_repeated_class_text_reads_as_the_token_walk_reads_it(text):
    import references as ref

    text = "tep v1\nagents 3\n" + text
    if "ppref" in text:
        parse, reference = parse_predominant_profile, ref.parse_predominant_profile_reference
    else:
        parse, reference = parse_responsive_profile, ref.parse_responsive_profile_reference
    assert _typed(_read(parse, text)) == _typed(_read(reference, text))


def test_a_class_read_in_one_file_is_checked_again_in_the_next():
    """A file with 6 agents that lists [5], read first, does not let [5]
    through a file with 4 agents: the classes a parse builds are the parse's
    own.  The same holds for two candidate files."""
    from tep.files import parse_candidates

    six = ("tep v1\nagents 6\n" + "".join(f"rpref {i}: H [5] > [{i}] ; N [{i}]\n"
                                          for i in range(5)) + "rpref 5: H [5] ; N [5]\n")
    four = ("tep v1\nagents 4\nrpref 0: H [0] ; N [0]\nrpref 1: H [5] > [1] ; N [1]\n"
            "rpref 2: H [2] ; N [2]\nrpref 3: H [3] ; N [3]\n")
    assert parse_responsive_profile(six).house_classes[0] == (frozenset({5}), frozenset({0}))
    refused = _read(parse_responsive_profile, four)
    assert refused == (ParseError, "index-range", "house 5 out of range 0..3", 4, None)

    wide, narrow = (random_responsive_profile(n, 0.7, 0.4, 1) for n in (6, 4))
    assert parse_candidates("rpref 0: H [5] > [0] ; N [0]\n", "rpref", wide, 0)
    refused = _read(parse_candidates, "# one report\nrpref 0: H [5] > [0] ; N [0]\n", "rpref",
                    narrow, 0)
    assert refused == (ParseError, "index-range", "house 5 out of range 0..3", 2, None)


def test_the_serializers_spelling_takes_the_fast_path():
    """Each body the serializers write is read without the token walk, at 6
    and at 40 agents."""
    from tep import files

    for n in (6, 40):
        for seed in range(4):
            inst, rprof, pprof, _ = _wide_markets(n, 0.4, seed)
            texts = {"pref": serialize_instance(inst),
                     "rpref": serialize_responsive_profile(rprof),
                     "ppref": serialize_predominant_profile(pprof)}
            for keyword, text in texts.items():
                _, _, read, _ = files._FORMATS[keyword]
                known = files._ClassTexts(n)
                for line in text.splitlines()[2:]:
                    if line.startswith(keyword):
                        assert read(line.partition(":")[2], n, known) is not None, line


def _cli_argvs(name, text, args, tmp_path):
    """The tep.cli.run argument lists that read a case's file: the file
    written to ``tmp_path``, next to the valid market a candidate or
    allocation file needs."""
    from tep.generators import random_instance

    def write(label, content):
        path = tmp_path / label
        path.write_text(content, encoding="utf-8")
        return str(path)

    out = str(tmp_path / "out")
    kind = name.split("/")[0]
    case = write("case", text)
    if kind.startswith("instance"):
        return [["oracle", "--instance", case, "--enumerate", "ir", "--node-budget", "20000"],
                ["oracle", "--instance", case, "--enumerate", "core", "--node-budget", "20000"]]
    if kind == "allocation":
        inst = write("inst", serialize_instance(random_instance(args[0], 0.6, 0.4, 0)))
        return [["verify", "--instance", inst, "--allocation", case, "--check", "ir"]]
    if kind == "rpref":
        return [["solve", "--instance", case, "--method", "pra"]]
    if kind == "ppref":
        return [["solve", "--instance", case, "--method", method] for method in ("ttc", "tttc")]
    if kind == "x3c":
        return [["gen", "--family", family, "--x3c", case, "--out", out]
                for family in ("x3c-core", "x3c-top")]
    keyword, truth, agent = args
    if keyword == "pref":
        market, method = serialize_instance(truth), "exact"
    elif keyword == "rpref":
        market, method = serialize_responsive_profile(truth), "pra"
    else:
        market = serialize_predominant_profile(truth)
        method = "ttc" if truth.mode == "house" else "tttc"
    return [["manipulate", "--instance", write("truth", market), "--method", method,
             "--agent", str(agent), "--space", f"file:{case}"]]


@pytest.mark.parametrize("seed", range(8))
def test_the_mutations_exit_through_the_cli_with_a_contract_code(seed, tmp_path, capsys):
    """Every file of the reader cases, sent through tep.cli.run, exits 0, 1,
    2 or 3 without an exception escaping; a file the reader refuses exits 2
    with an input error."""
    from tep.cli import run

    codes = set()
    for name, parse, _, text, args in _reader_cases(seed):
        refused = isinstance(_read(parse, text, *args), tuple)
        for argv in _cli_argvs(name, text, args, tmp_path):
            code = run(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (name, argv, code, err)
            if refused:
                assert code == 2 and err.startswith("input error: "), (name, text, err)
            codes.add(code)
    assert {0, 2} <= codes


def test_every_serializer_is_a_fixed_point_of_its_reader():
    """serialize(parse(text)) == text, byte for byte, on seeded random
    instances, allocations and profiles, with and without a permuted
    endowment: a file is read in its own labels."""
    import random

    from tep.files import parse_instance
    from tep.generators import random_instance
    from tep.model import make_instance

    rng = random.Random(12)
    for seed in range(40):
        n = 1 + seed % 8
        perm = list(range(n))
        rng.shuffle(perm)
        inst = random_instance(n, rng.choice([0.2, 0.5, 0.9]), rng.choice([0, 0.4, 0.9]), seed)
        permuted = serialize_instance(make_instance(n, inst.prefs, endowment=perm))
        prof = random_predominant_profile(n, rng.choice(["house", "tenant"]), 0.4, seed)
        texts = [
            (parse_instance, serialize_instance, serialize_instance(inst), ()),
            (parse_instance, serialize_instance, permuted, ()),
            (parse_allocation, serialize_allocation, serialize_allocation(Allocation(tuple(perm))),
             (n,)),
            (parse_responsive_profile, serialize_responsive_profile,
             serialize_responsive_profile(random_responsive_profile(n, 0.7, 0.4, seed)), ()),
            (parse_predominant_profile, serialize_predominant_profile,
             serialize_predominant_profile(prof), ()),
            (parse_predominant_profile, serialize_predominant_profile,
             serialize_predominant_profile(replace(prof, endowment=tuple(perm))), ()),
        ]
        for parse, serialize, text, args in texts:
            assert serialize(parse(text, *args)) == text, text
