"""The CLI's exit-code contract under a seeded fuzzer.

Every request ends in exit 0 (holds or found), 1 (fails or none), 2 (bad
input) or 3 (a bound or budget exceeded).  On exits 2 and 3 stdout is
empty and stderr is one line that starts ``input error:`` or ``budget
exceeded:``.  The requests mutate generated markets in ways that mostly
still parse:
- ``endow`` lines that permute the houses (now and then not a bijection);
- agent lines dropped, shuffled or repeated;
- indifference classes split, merged, reordered or dropped, and items
  moved between them;
- allocations that are not permutations;
- n = 1 and the agent index n.

Each request runs twice, each run within BOUND_S seconds.  The second run
must repeat the first byte for byte, written files included, and leave
nothing for the collector.  On an instance file with n <= 5 that exits 0
or 1, the answers of ``verify --check ir|po|wpo|core``, ``oracle
--enumerate ir|po|core`` and ``solve --method exact`` must be those of
``references.brute_force_answers``.  Every ``solve --method ttc|tttc``
request that exits 0 must print the allocation of
``references.trade_cycles_reference`` on its profile; at SEED that checks
17 ``ttc`` and 10 ``tttc`` requests, and at least 8 of each must reach the
check.  Every ``solve --method pra`` request on at most 5 agents that exits
0, with ``--order random`` or without, must print an RS-IR and
RS-Pareto-optimal allocation; at SEED that checks 5 requests, one of them
with ``--order random``.

A second seeded stream asks questions on 8 to 40 agents, where the brute
force cannot follow, on files it writes itself with permuted endowments,
and checks each answer without the engine under test: ``verify --check
ir`` by reading the classes, ``oracle --enumerate ir`` by checking each
listed allocation, ``oracle --enumerate core`` for IR and no blocking
pair, ``solve --method pra`` for RS-IR and ``solve --method ttc|tttc``
against ``references.trade_cycles_reference``.
"""

import gc
import io
import random
import re
import signal
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import references as ref
from tep import cli
from tep.cli import parse_report
from tep.files import (serialize_instance, serialize_predominant_profile,
                       serialize_responsive_profile)
from tep.generators import random_instance, random_predominant_profile, random_responsive_profile
from tep.model import Allocation
from tep.predominant import HOUSE
from tep.programs import WEIGHT_SCHEMES
from tep.responsive import POLICIES

SEED = 1
REQUESTS = 500
CLASS = re.compile(r"\[[^\]]*\]")
COMMANDS = [("verify", "--check", c) for c in ("ir", "po", "wpo", "core")] + \
    [("oracle", "--enumerate", e) for e in ("ir", "po", "core")] + \
    [("solve", "--method", m) for m in ("exact", "pra", "ttc", "tttc")] + \
    [("export", "--form", f) for f in ("ilp", "qp")] + \
    [("manipulate", "--method", m) for m in ("exact", "pra", "ttc", "tttc")]
SPACES = {"exact": "subsets", "pra": "strict", "ttc": "strict", "tttc": "strict"}
# The questions references.brute_force_answers answers, as (command, value).
BRUTE_FORCE = [("verify", c) for c in ("ir", "po", "wpo", "core")] + \
    [("oracle", e) for e in ("ir", "po", "core")] + [("solve", "exact")]
# Each run of a request must end within this many seconds, or the test
# fails and names the request.  The slowest of the 1,000 runs at SEED took
# 21 ms on a 2-vCPU Xeon VM (Python 3.11), so the bound is about 95 times
# that: a slow host does not trip it, while a hang does.
BOUND_S = 2.0


class Overran(BaseException):
    """A run past BOUND_S.  cli.run catches OSError, so not TimeoutError."""


def overran(signum, frame):
    raise Overran


def mutate_classes(rng, text):
    """A class list '[a b] > [c]' with one class split, two merged, all of
    them reordered, one dropped or one item moved to another class."""
    classes = [c[1:-1].split() for c in CLASS.findall(text)]
    move = rng.randrange(5)
    wide = [i for i, c in enumerate(classes) if len(c) > 1]
    if move == 0 and wide:
        i = rng.choice(wide)
        cut = rng.randrange(1, len(classes[i]))
        classes[i:i + 1] = [classes[i][:cut], classes[i][cut:]]
    elif move == 1 and len(classes) > 1:
        i = rng.randrange(len(classes) - 1)
        classes[i:i + 2] = [classes[i] + classes[i + 1]]
    elif move == 2:
        rng.shuffle(classes)
    elif move == 3 and classes:
        del classes[rng.randrange(len(classes))]
    elif move == 4 and wide and len(classes) > 1:
        source = classes[rng.choice(wide)]
        rng.choice([c for c in classes if c is not source]).append(source.pop())
    return " > ".join("[" + " ".join(c) + "]" for c in classes)


def mutate_line(rng, line):
    """An agent line with the class lists of its body mutated; a ppref
    line's primary order may be permuted."""
    head, _, body = line.partition(": ")
    parts = []
    for part in body.split(" ; "):
        tag, rest = (part[0], part[2:]) if part[0].isalpha() else ("", part)
        if tag == "P":
            items = rest.split()
            rng.shuffle(items)
            rest = " ".join(items)
        else:
            rest = mutate_classes(rng, rest)
        parts.append(f"{tag} {rest}" if tag else rest)
    return f"{head}: {' ; '.join(parts)}"


def mutate_market(rng, text):
    """The file with its agent lines mutated, dropped, shuffled or repeated,
    and now and then an ``endow`` line.  A profile file needs a line for
    every agent, where instance lines are optional, so a profile loses or
    repeats a line less often."""
    header, agents, *rest = text.splitlines()
    n = int(agents.split()[1])
    directives = [line for line in rest if line.startswith("mode")]
    lines = [mutate_line(rng, line) if rng.random() < 0.5 else line
             for line in rest if not line.startswith("mode")]
    instance = any(line.startswith("pref") for line in lines)
    if lines and rng.random() < (0.25 if instance else 0.06):
        del lines[rng.randrange(len(lines))]
    if rng.random() < 0.25:
        rng.shuffle(lines)
    if lines and rng.random() < (0.05 if instance else 0.02):
        lines.append(rng.choice(lines))
    if rng.random() < 0.4:
        endow = list(range(n))
        rng.shuffle(endow)
        if rng.random() < 0.1:
            endow[0] = endow[-1]
        directives.append("endow " + " ".join(map(str, endow)))
    return "\n".join([header, agents, *directives, *lines]) + "\n"


def allocation(rng, n):
    houses = list(range(n))
    rng.shuffle(houses)
    lines = [f"assign {i} {h}" for i, h in enumerate(houses)]
    move = rng.random()
    if move < 0.1:
        lines[0] = f"assign 0 {houses[-1]}"  # a house twice when n > 1
    elif move < 0.2:
        del lines[rng.randrange(n)]
    elif move < 0.25:
        lines.append(f"assign {n} 0")
    elif move < 0.3:
        lines[-1] = f"assign {n - 1} {n}"
    return "\n".join(lines) + "\n"


def market(rng, n, method):
    """A generated market of the kind ``method`` reads, now and then of
    another kind."""
    if rng.random() < 0.05:
        method = rng.choice(("exact", "pra", "ttc", "tttc"))
    seed, density, ties = rng.randrange(10**6), rng.choice((0.3, 0.6, 1.0)), rng.choice((0, 0.3))
    if method == "pra":
        return serialize_responsive_profile(random_responsive_profile(n, density, ties, seed))
    if method in ("ttc", "tttc"):
        mode = ("house", "tenant")[(method == "tttc") != (rng.random() < 0.1)]
        return serialize_predominant_profile(random_predominant_profile(n, mode, ties, seed))
    return serialize_instance(random_instance(n, density, ties, seed))


def requests(rng, d):
    """(argv, the file it writes or None), REQUESTS of them."""
    for k in range(REQUESTS):
        command, option, value = rng.choice(COMMANDS)
        method = value if option == "--method" else "exact"
        # manipulate exact replays the optimizer once per report
        n = 1 if rng.random() < 0.1 else rng.randint(2, 4 if command == "manipulate" else 6)
        path = d / f"{k}.txt"
        path.write_text(mutate_market(rng, market(rng, n, method)))
        argv = [command, "--instance", str(path), option, value]
        out = None
        if command == "verify":
            alloc = d / f"{k}.alloc"
            alloc.write_text(allocation(rng, n))
            argv += ["--allocation", str(alloc)]
        elif command == "export":
            out = d / f"{k}.lp"
            argv += ["--out", str(out)]
        elif command == "manipulate":
            space = SPACES[method] if rng.random() < 0.9 else rng.choice(("strict", "subsets"))
            argv += ["--agent", str(rng.randint(0, n)), "--space", space,
                     "--cap", str(rng.randint(0, 300))]
        if method == "pra" and rng.random() < 0.5:
            argv += ["--order", "random", "--seed", str(rng.randrange(100))]
        if method == "exact" and option == "--method":
            argv += ["--weights", rng.choice(WEIGHT_SCHEMES)]
        if rng.random() < 0.2:
            argv += ["--node-budget", str(rng.choice((0, 10, 100, 1000)))]
        yield argv, out


def check_answer(argv, code, stdout):
    """Checks a request that exited 0 or 1 against the brute force, when it
    asks one of the questions the brute force answers on at most 5 agents.
    Returns None for any other request, else the command, the question and
    one bit of the answer: whether the property holds, whether more than
    one allocation is listed, or whether the optimum (or the core-stable
    allocation of the find-first ``--enumerate core``) moves anyone."""
    command, _, path, _, value = argv[:5]
    if (command, value) not in BRUTE_FORCE:
        return None
    text = Path(path).read_text()
    n = int(text.splitlines()[1].split()[1])
    if n > 5:
        return None
    want, report = ref.brute_force_answers(text), parse_report(stdout)
    if command == "verify":
        alloc = Path(argv[argv.index("--allocation") + 1]).read_text()
        holds = ref.parse_allocation_reference(alloc, n).assignment in want[value]
        assert (code, report["holds"]) == (1 - holds, str(holds).lower()), argv
        return command, value, holds
    if command == "oracle":
        listed = [tuple(map(int, line.split(":")[1].split()))
                  for line in stdout.splitlines() if line.startswith("allocation:")]
        if value == "core":  # one core-stable allocation, or none
            assert (code, len(listed)) == ((0, 1) if want[value] else (1, 0)), argv
            assert set(listed) <= want[value], argv
            return command, value, listed not in ([], [tuple(range(n))])
        assert (code, listed) == (0 if want[value] else 1, sorted(want[value])), argv
        return command, value, len(listed) > 1
    values = want[argv[argv.index("--weights") + 1]]
    top = max(values.values())
    best = min(p for p, v in values.items() if v == top)
    assert (code, report["allocation"], int(report["value"])) == \
        (0, " ".join(map(str, best)), top), argv
    return command, value, best != tuple(range(n))


def check_trade(argv, stdout):
    """Checks the allocation a ``solve --method ttc|tttc`` request that
    exited 0 printed against the reference's top trading cycles on the
    profile as the reference reader reads it; returns the method."""
    prof = ref.parse_predominant_profile_reference(Path(argv[2]).read_text())
    want, _ = ref.trade_cycles_reference(prof, "max", prof.mode == HOUSE)
    assert parse_report(stdout)["allocation"] == " ".join(map(str, want.assignment)), argv
    return argv[4]


def _rank(classes, item):
    """The index of the class listing ``item``, past the last when none does."""
    return next((k for k, cls in enumerate(classes) if item in cls), len(classes))


def assert_rs_ir(prof, argv, stdout):
    """Asserts that the allocation a ``solve --method pra`` request printed
    is RS-IR on ``prof``, read off the component classes: each agent's
    house ranks no worse than its own house, and its own house's tenant no
    worse than itself.  Returns the allocation."""
    got = tuple(map(int, parse_report(stdout)["allocation"].split()))
    assert sorted(got) == list(range(prof.n)), argv
    for i, own in enumerate(prof.endowment):
        houses, tenants = prof.house_classes[i], prof.tenant_classes[i]
        assert _rank(houses, got[i]) <= _rank(houses, own), argv
        assert _rank(tenants, got.index(own)) <= _rank(tenants, i), argv
    return got


def check_pra(argv, stdout):
    """Checks the allocation a ``solve --method pra`` request that exited 0
    printed, on the profile as ``references.parse_responsive_profile_reference``
    reads it, when it has at most 5 agents; returns whether it did.  It must
    be RS-IR (assert_rs_ir) and RS-PO by
    ``references.is_rs_pareto_optimal_reference``, a walk over every
    allocation."""
    prof = ref.parse_responsive_profile_reference(Path(argv[2]).read_text())
    if prof.n > 5:
        return False
    got = assert_rs_ir(prof, argv, stdout)
    assert ref.is_rs_pareto_optimal_reference(prof, Allocation(got)), argv
    return True


def run(argv, out):
    """Exit code, stdout, stderr and the bytes written to ``out``, if any."""
    if out:
        out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, BOUND_S)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.run(argv)
    except Overran:
        pytest.fail(f"request ran past {BOUND_S} s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    written = out.read_bytes() if out and out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def test_every_request_keeps_the_exit_contract(tmp_path):
    """The collector stays off throughout, so a cycle that the second run
    makes is still young at the generation-0 collection after it; the
    first run's garbage (first-use caches) is cleared before it.  Some
    profiles still lose or repeat a ``ppref`` line, so those refusals are
    fuzzed too: at SEED 7 requests are refused for a missing line and 2 for
    a repeated one."""
    exits, answered, traded, refused = Counter(), set(), Counter(), Counter()
    rs_checked = 0
    collecting = gc.isenabled()
    gc.disable()
    alarm = signal.signal(signal.SIGALRM, overran)
    try:
        gc.collect()
        for argv, out in requests(random.Random(SEED), tmp_path):
            first = run(argv, out)
            gc.collect(0)
            second = run(argv, out)
            garbage = gc.collect(0)
            code, stdout, stderr, _ = first
            exits[code] += 1
            assert code in (0, 1, 2, 3), argv
            if code < 2:
                assert stderr == "", (argv, stderr)
            else:
                prefix = "input error: " if code == 2 else "budget exceeded: "
                assert stdout == "", argv
                assert stderr.startswith(prefix) and stderr.count("\n") == 1, (argv, stderr)
                refused.update(m[0] for m in re.finditer(r"(missing|duplicate) ppref", stderr))
            assert second == first, argv
            assert garbage == 0, argv
            if code < 2:
                answered.add(check_answer(argv, code, stdout))
            if code == 0 and argv[0] == "solve" and argv[4] in ("ttc", "tttc"):
                traded[check_trade(argv, stdout)] += 1
            if code == 0 and argv[0] == "solve" and argv[4] == "pra":
                rs_checked += check_pra(argv, stdout)
    finally:
        signal.signal(signal.SIGALRM, alarm)
        if collecting:
            gc.enable()
    assert sorted(exits) == [0, 1, 2, 3], exits
    # every question the brute force answers was asked, with either bit
    assert answered - {None} == {(*q, a) for q in BRUTE_FORCE for a in (True, False)}, answered
    assert min(traded["ttc"], traded["tttc"]) >= 8, traded
    assert min(refused["missing ppref"], refused["duplicate ppref"]) > 0, refused
    assert rs_checked > 0


# The answer stream on wider markets than the generators build (they stop
# at 12 agents): its seed, its length and the agent counts it draws from.
WIDE_SEED = 1
WIDE_REQUESTS = 120
WIDE_N = (8, 40)
WIDE_KINDS = ("verify", "oracle", "core", "pra", "ttc", "tttc")


def in_classes(rng, items, tie_rate):
    """``items`` in their order cut into classes, each item joining the
    class before it at ``tie_rate``."""
    classes = []
    for item in items:
        if classes and rng.random() < tie_rate:
            classes[-1].append(item)
        else:
            classes.append([item])
    return classes


def body(classes, item=str):
    return " > ".join("[" + " ".join(map(item, cls)) + "]" for cls in classes)


def wide_instance(rng, n, tie_rate, swaps=False):
    """An instance file on a permuted endowment and an allocation file.
    Each agent lists at most three outcomes above its endowment outcome and
    at most eight below it.  In three files of four each agent also lists
    its outcome under the allocation above its endowment outcome, but half
    the time one agent leaves it out: so the allocation is IR about three
    times in eight.  With ``swaps`` the agents are paired off, and each
    also lists the swap with its partner (the partner's house, the partner
    as tenant) above its endowment outcome, so that a pair can block."""
    endow, sigma = rng.sample(range(n), n), rng.sample(range(n), n)
    holder = {h: i for i, h in enumerate(sigma)}
    plant, spoil = rng.random() < 0.75, rng.randrange(n) if rng.random() < 0.5 else None
    partner = {}
    if swaps:
        order = rng.sample(range(n), n)
        for a, b in zip(order[::2], order[1::2]):
            partner[a], partner[b] = b, a
    lines = ["tep v1", f"agents {n}", "endow " + " ".join(map(str, endow))]
    for i in range(n):
        own, mine = (endow[i], i), (sigma[i], holder[endow[i]])
        swap = [(endow[partner[i]], partner[i])] if i in partner else []
        others = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(11)}
                        - {own, mine, *swap})
        rng.shuffle(others)
        k = rng.randrange(4)
        above = others[:k] + swap + ([mine] if plant and i != spoil and mine not in (own, *swap)
                                     else [])
        rng.shuffle(above)
        order = above + [own] + others[k:k + 8]
        classes = in_classes(rng, order, tie_rate)
        lines.append(f"pref {i}: {body(classes, lambda o: f'({o[0]},{o[1]})')}")
    return "\n".join(lines) + "\n", "".join(f"assign {i} {h}\n" for i, h in enumerate(sigma))


def wide_responsive(rng, n, tie_rate):
    """A responsive profile file on a permuted endowment: each agent finds
    each other house and tenant acceptable at one density, and its own
    house (itself) at a random place among them."""
    endow, density = rng.sample(range(n), n), rng.choice((0.2, 0.5))
    lines = ["tep v1", f"agents {n}", "endow " + " ".join(map(str, endow))]
    for i in range(n):
        parts = []
        for label, own in (("H", endow[i]), ("N", i)):
            items = [x for x in range(n) if x == own or rng.random() < density]
            rng.shuffle(items)
            parts.append(f"{label} {body(in_classes(rng, items, tie_rate))}")
        lines.append(f"rpref {i}: {parts[0]} ; {parts[1]}")
    return "\n".join(lines) + "\n"


def wide_predominant(rng, n, tie_rate, mode):
    """A predominant profile file of the given mode on a permuted endowment."""
    lines = ["tep v1", f"agents {n}", f"mode {mode}",
             "endow " + " ".join(map(str, rng.sample(range(n), n)))]
    for i in range(n):
        tiebreak = in_classes(rng, rng.sample(range(n), n), tie_rate)
        lines.append(f"ppref {i}: P {' '.join(map(str, rng.sample(range(n), n)))} ; "
                     f"T {body(tiebreak)}")
    return "\n".join(lines) + "\n"


def wide_requests(rng, d):
    """(kind, argv), WIDE_REQUESTS of them, each on n agents, n in WIDE_N.
    ``oracle`` (``--enumerate ir``) and ``core`` (``oracle --enumerate
    core``) requests run under a node budget of 10**3 or 10**5."""
    for k in range(WIDE_REQUESTS):
        kind, n, tie_rate = rng.choice(WIDE_KINDS), rng.randint(*WIDE_N), rng.choice((0, 0.3))
        path = d / f"wide{k}.txt"
        command = {"verify": "verify", "oracle": "oracle", "core": "oracle"}.get(kind, "solve")
        argv = [command, "--instance", str(path)]
        if kind in ("verify", "oracle", "core"):
            text, alloc = wide_instance(rng, n, tie_rate, swaps=kind == "core")
        elif kind == "pra":
            text = wide_responsive(rng, n, tie_rate)
        else:
            text = wide_predominant(rng, n, tie_rate, "house" if kind == "ttc" else "tenant")
        path.write_text(text)
        if kind == "verify":
            (d / f"wide{k}.alloc").write_text(alloc)
            argv += ["--check", "ir", "--allocation", str(d / f"wide{k}.alloc")]
        elif kind in ("oracle", "core"):
            argv += ["--enumerate", "ir" if kind == "oracle" else "core",
                     "--node-budget", str(rng.choice((10**3, 10**5)))]
        else:
            argv += ["--method", kind]
        if kind == "pra" and rng.random() < 0.5:
            argv += ["--order", rng.choice(POLICIES), "--seed", str(rng.randrange(100))]
        yield kind, argv


def is_ir(inst, got):
    """Whether each agent ranks its outcome under the allocation ``got`` no
    worse than its endowment outcome, read off its classes."""
    holder = {h: i for i, h in enumerate(got)}
    return all(_rank(classes, (got[i], holder[own])) <= _rank(classes, (own, i))
               for i, (classes, own) in enumerate(zip(inst.prefs, inst.endowment)))


def blocking_pair(inst, got):
    """Two agents who would both be strictly better off than under the
    allocation ``got`` by trading their own houses, each moving into the
    other's and so each the other's tenant, or None."""
    holder = {h: i for i, h in enumerate(got)}
    now = [_rank(classes, (got[i], holder[own]))
           for i, (classes, own) in enumerate(zip(inst.prefs, inst.endowment))]
    endow = inst.endowment
    for i, j in combinations(range(inst.n), 2):
        if (_rank(inst.prefs[i], (endow[j], j)) < now[i]
                and _rank(inst.prefs[j], (endow[i], i)) < now[j]):
            return i, j
    return None


def check_wide(kind, argv, code, stdout):
    """Checks a wide request's exit code and answer without the engine:
    ``verify --check ir`` against is_ir; ``oracle --enumerate ir``, unless
    its budget ran out, lists distinct IR allocations in order, the
    endowment among them; ``oracle --enumerate core``, on exit 0, prints
    an IR allocation that no pair blocks (blocking_pair), and on exit 1 goes
    unchecked, since above n = 5 no brute force can show that no core
    allocation exists; ``pra`` prints an RS-IR allocation (assert_rs_ir);
    ``ttc`` and ``tttc`` print the allocation of
    ``references.trade_cycles_reference`` (check_trade)."""
    text = Path(argv[2]).read_text()
    if kind == "verify":
        inst = ref.parse_instance_reference(text)
        alloc = ref.parse_allocation_reference(Path(argv[-1]).read_text(), inst.n)
        holds = is_ir(inst, alloc.assignment)
        assert (code, parse_report(stdout)["holds"]) == (1 - holds, str(holds).lower()), argv
    elif kind == "oracle":
        assert code in (0, 3), argv
        if code == 0:
            inst = ref.parse_instance_reference(text)
            listed = [tuple(map(int, line.split(":")[1].split()))
                      for line in stdout.splitlines() if line.startswith("allocation:")]
            assert int(parse_report(stdout)["count"]) == len(listed), argv
            assert listed == sorted(set(listed)) and inst.endowment in listed, argv
            for got in listed:
                assert sorted(got) == list(range(inst.n)) and is_ir(inst, got), (argv, got)
    elif kind == "core":
        assert code in (0, 1, 3), argv
        if code == 0:
            inst = ref.parse_instance_reference(text)
            got = tuple(map(int, parse_report(stdout)["allocation"].split()))
            assert sorted(got) == list(range(inst.n)) and is_ir(inst, got), argv
            assert blocking_pair(inst, got) is None, argv
    else:
        assert code == 0, argv
        if kind == "pra":
            assert_rs_ir(ref.parse_responsive_profile_reference(text), argv, stdout)
        else:
            check_trade(argv, stdout)


def test_answers_on_wide_markets_are_right(tmp_path):
    """Requests on 8 to 40 agents keep the exit contract, each run within
    BOUND_S seconds, and every answer passes check_wide.  At WIDE_SEED the
    stream makes, by kind and exit code: ``verify`` 7 exit 0 and 6 exit 1;
    ``oracle`` 10 exit 0 (listing 1 to 8 allocations) and 8 exit 3;
    ``core`` 10 exit 0 and 5 exit 3, none exit 1; ``pra`` 24, ``ttc`` 30
    and ``tttc`` 20, all exit 0.  Every run took at most 0.11 s on a 2-vCPU
    Xeon VM (Python 3.11)."""
    exits = Counter()
    alarm = signal.signal(signal.SIGALRM, overran)
    try:
        for kind, argv in wide_requests(random.Random(WIDE_SEED), tmp_path):
            code, stdout, stderr, _ = run(argv, None)
            exits[kind, code] += 1
            if code == 3:
                assert stdout == "" and stderr.startswith("budget exceeded: "), (argv, stderr)
            else:
                assert stderr == "", (argv, stderr)
            check_wide(kind, argv, code, stdout)
    finally:
        signal.signal(signal.SIGALRM, alarm)
    assert set(exits) == {("verify", 0), ("verify", 1), ("oracle", 0), ("oracle", 3),
                          ("core", 0), ("core", 3), ("pra", 0), ("ttc", 0), ("tttc", 0)}, exits
