"""The four workloads: inputs, argument lists and output checks.

Each ``build_*`` function writes its input files under the current
directory and returns the pool of requests.  A run sends the pool's
requests in order, cycling, so the sizes and kinds in a pool are spread
evenly along it: any stretch of a run sees the same mix.  The seed fixes
every input; the mix and sizes are the same for every seed.

Checks compare each report with answers from :mod:`reference`, which does
not call `tep`.  They run after the timed loop.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

EXIT_OK, EXIT_NO, EXIT_INPUT, EXIT_BUDGET = 0, 1, 2, 3

# One node budget for every search request, chosen so that a minority of
# the search workload's requests exhaust it (exit 3).
SEARCH_NODE_BUDGET = 60_000
VCORE_PER_INSTANCE = 3
# Gadgets of each size m in the search pool.
SEARCH_REPS = 6


@dataclass
class Case:
    key: str
    argv: list[str]
    expect: tuple[int, ...]
    check: Callable[[int, str], str | None] | None = None
    outputs: tuple[str, ...] = ()  # files the request writes
    rs_aa_calls: bool = False      # the report carries an rs-aa-calls line


@dataclass
class Workload:
    cases: list[Case]
    # Requests that must exit 2 but escaped `cli.run` with a traceback at the
    # seed commit.  They run once per run, untimed, and are reported apart.
    probes: list[Case] = field(default_factory=list)


def fields(report: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, []).append(value)
    return out


def _one(report: str, key: str) -> str:
    return fields(report)[key][0]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _write(path: str, text: str | bytes) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8") if isinstance(text, str) else text)


def _instance_text(prefs) -> str:
    lines = ["tep v1", f"agents {len(prefs)}"]
    for i, classes in enumerate(prefs):
        body = " > ".join("[" + " ".join(f"({h},{t})" for h, t in cls) + "]" for cls in classes)
        lines.append(f"pref {i}: {body}")
    return "\n".join(lines) + "\n"


def _alloc_text(p) -> str:
    return "".join(f"assign {i} {h}\n" for i, h in enumerate(p))


def _prefs_of(inst) -> list[list[list[tuple[int, int]]]]:
    return [[sorted(tuple(o) for o in cls) for cls in classes] for classes in inst.prefs]


def _classes(rng: random.Random, pool: list, density: float, tie_rate: float) -> list[list]:
    kept = [x for x in pool if rng.random() < density]
    rng.shuffle(kept)
    classes: list[list] = []
    for x in kept:
        if classes and rng.random() < tie_rate:
            classes[-1].append(x)
        else:
            classes.append([x])
    return classes


def _interleave(groups: list[list[Case]]) -> list[Case]:
    """Spread each group evenly along the pool, so every stretch of the
    pool has the same mix."""
    slots = [((j + 0.5) / len(g), gi, case) for gi, g in enumerate(groups)
             for j, case in enumerate(g)]
    return [case for _, _, case in sorted(slots, key=lambda s: s[:2])]


# -- refine ---------------------------------------------------------------

def _responsive_classes(rng, n: int, density: float, tie_rate: float, required: int):
    """The shape of the acceptance tests' large responsive profiles: every
    other item acceptable with probability ``density``, neighbours tied at
    ``tie_rate``, the agent's own item last."""
    classes: list[list[int]] = []
    for x in range(n):
        if x == required or rng.random() >= density:
            continue
        if classes and rng.random() < tie_rate:
            classes[-1].append(x)
        else:
            classes.append([x])
    classes.append([required])
    return classes


def _check_pra(house, tenant):
    n = len(house)
    hrank = [{x: r for r, c in enumerate(cl) for x in c} for cl in house]
    trank = [{x: r for r, c in enumerate(cl) for x in c} for cl in tenant]
    class_total = sum(hrank[i][i] + 1 + trank[i][i] + 1 for i in range(n))

    def check(code: int, out: str) -> str | None:
        p = _ints(_one(out, "allocation"))
        if sorted(p) != list(range(n)):
            return "allocation is not a bijection"
        q = ref.inverse(p)
        for i in range(n):
            if hrank[i].get(p[i], n) > hrank[i][i] or trank[i].get(q[i], n) > trank[i][i]:
                return f"agent {i} is worse off than at its endowment"
        calls = int(_one(out, "rs-aa-calls"))
        if calls > class_total:
            return f"rs-aa-calls {calls} exceeds the class total {class_total}"
        return None

    return check


def build_refine(seed: int, smoke: bool) -> Workload:
    from tep import files
    from tep.responsive import ResponsiveProfile
    from tep.rng import SplitMix64

    rng = SplitMix64(seed)
    # n = 38 is a fifth of the pool, so latency_p90_ms falls among requests
    # of one size rather than between two.  The order policy cycles with
    # every request, so any stretch of the pool has all three in equal shares.
    sizes = [8, 9, 10] if smoke else list(range(20, 35)) + [38] * 4
    count = 3 if smoke else 6 * len(sizes)
    orders = ("round-robin", "reverse", "random")
    cases = []
    for k in range(count):
        n = sizes[k % len(sizes)]
        order = orders[k % len(orders)]
        gen = SplitMix64(rng.next_u64())
        house = [_responsive_classes(gen, n, 0.8, 0.3, i) for i in range(n)]
        tenant = [_responsive_classes(gen, n, 0.8, 0.3, i) for i in range(n)]
        prof = ResponsiveProfile(n, tuple(range(n)),
                                 tuple(tuple(frozenset(c) for c in cl) for cl in house),
                                 tuple(tuple(frozenset(c) for c in cl) for cl in tenant))
        path = f"refine/{k}.rtep"
        _write(path, files.serialize_responsive_profile(prof))
        cases.append(Case(f"pra-{k}", ["solve", "--instance", path, "--method", "pra",
                                        "--order", order, "--seed", str(rng.below(1000))],
                          (EXIT_OK,), _check_pra(house, tenant), rs_aa_calls=True))
    return Workload(cases)


# -- search ---------------------------------------------------------------

def _x3c(rng: random.Random, m: int, planted: bool) -> list[tuple[int, int, int]]:
    """3m elements, each in exactly three triples.  A planted draw starts
    from a random partition into m triples, so a cover exists."""
    ground = list(range(3 * m))
    fixed: list[tuple[int, int, int]] = []
    copies = 3
    if planted:
        rng.shuffle(ground)
        fixed = [tuple(sorted(ground[k:k + 3])) for k in range(0, 3 * m, 3)]
        copies = 2
    slots = [e for e in range(3 * m) for _ in range(copies)]
    while True:
        rng.shuffle(slots)
        triples = [tuple(sorted(slots[k:k + 3])) for k in range(0, len(slots), 3)]
        if all(len(set(tr)) == 3 for tr in triples):
            return sorted(fixed + triples)


def _check_core(prefs, has_cover: bool):
    ranks = ref.rank_tables(prefs)

    def check(code: int, out: str) -> str | None:
        if code == EXIT_BUDGET:
            return None
        if (code == EXIT_OK) != has_cover:
            return f"exit {code}, but an exact cover {'exists' if has_cover else 'does not exist'}"
        if code == EXIT_OK:
            p = _ints(_one(out, "allocation"))
            if sorted(p) != list(range(len(p))) or not ref.is_ir(prefs, ranks, p):
                return "core allocation is not an IR bijection"
            if ref.has_blocking_cycle(prefs, ranks, p):
                return "core allocation is blocked"
        return None

    return check


def _check_ir_list(prefs):
    def check(code: int, out: str) -> str | None:
        if code == EXIT_BUDGET:
            return None
        want = sorted(ref.ir_allocations(prefs, ref.rank_tables(prefs)))
        got = [tuple(_ints(a)) for a in fields(out).get("allocation", [])]
        if int(_one(out, "count")) != len(want) or got != want:
            return f"IR enumeration differs: {len(got)} listed, {len(want)} expected"
        return None

    return check


def _check_verify(expected: bool):
    def check(code: int, out: str) -> str | None:
        if code == EXIT_BUDGET:
            return None
        if code != (EXIT_OK if expected else EXIT_NO):
            return f"exit {code}, expected {'holds' if expected else 'fails'}"
        return None

    return check


def build_search(seed: int, smoke: bool) -> Workload:
    from tep import files, generators

    rng = random.Random(seed)
    budget = ["--node-budget", str(SEARCH_NODE_BUDGET)]
    allowed = (EXIT_OK, EXIT_NO, EXIT_BUDGET)
    core, ir, vcore = [], [], []
    core_sizes = [3, 4] if smoke else [8, 9, 10, 11, 12, 13, 14]
    ir_shapes = [(7, 0.3)] if smoke else [(10, 0.2), (10, 0.25), (10, 0.3), (11, 0.2), (11, 0.25)]
    reps = 1 if smoke else SEARCH_REPS
    for k in range(reps * len(core_sizes)):
        m = core_sizes[k % len(core_sizes)]
        triples = _x3c(rng, m, planted=k % 2 == 0)
        inst = generators.x3c_core_instance(generators.make_x3c(m, triples))
        path = f"search/core-{k}.tep"
        _write(path, files.serialize_instance(inst))
        core.append(Case(f"core-{k}", ["oracle", "--instance", path, "--enumerate", "core", *budget],
                         allowed, _check_core(_prefs_of(inst), ref.exact_cover_exists(m, triples))))
    for k in range(len(core)):
        n, density = ir_shapes[k % len(ir_shapes)]
        inst = generators.random_instance(n, density, 0.3, rng.getrandbits(32))
        prefs = _prefs_of(inst)
        path = f"search/ir-{k}.tep"
        _write(path, files.serialize_instance(inst))
        ir.append(Case(f"ir-{k}", ["oracle", "--instance", path, "--enumerate", "ir", *budget],
                       allowed, _check_ir_list(prefs)))
        # IR allocations from the reference enumeration, some way in.  Three
        # per instance: `verify --check core` is then 60% of the pool, and
        # latency_p50_ms falls among these short requests rather than among
        # the core and IR searches, whose times vary widely with the seed.
        ranks = ref.rank_tables(prefs)
        found = ref.ir_allocations(prefs, ranks, limit=1 + VCORE_PER_INSTANCE * 4)
        for j in range(VCORE_PER_INSTANCE):
            p = found[min(len(found) - 1, j * 4 + rng.randrange(4))]
            alloc = f"search/ir-{k}-{j}.alloc"
            _write(alloc, _alloc_text(p))
            blocked = ref.has_blocking_cycle(prefs, ranks, p)
            vcore.append(Case(f"vcore-{k}-{j}", ["verify", "--instance", path, "--allocation",
                                                 alloc, "--check", "core", *budget],
                              allowed, _check_verify(not blocked)))
    return Workload(_interleave([core, ir, vcore]))


# -- scan -----------------------------------------------------------------

def _check_exact(best, value):
    def check(code: int, out: str) -> str | None:
        if tuple(_ints(_one(out, "allocation"))) != best or int(_one(out, "value")) != value:
            return f"expected allocation {best} of value {value}"
        return None

    return check


def _check_front(prefs):
    def check(code: int, out: str) -> str | None:
        want = ref.pareto_front(prefs, ref.rank_tables(prefs))
        got = [tuple(_ints(a)) for a in fields(out).get("allocation", [])]
        return None if got == want else f"{len(got)} PO allocations listed, {len(want)} expected"

    return check


def _check_manipulation(prefs, agent):
    def text(o):
        return f"({o[0]},{o[1]})"

    def check(code: int, out: str) -> str | None:
        want = ref.first_manipulation(prefs, agent)
        if want is None:
            return None if code == EXIT_NO else f"exit {code}, but no manipulation exists"
        if code != EXIT_OK:
            return f"exit {code}, but a manipulation exists"
        before, after, report = want
        expected = (text(before), text(after), " > ".join(f"[{text(c[0])}]" for c in report))
        got = tuple(_one(out, k) for k in ("outcome-before", "outcome-after", "report"))
        return None if got == expected else f"manipulation {got}, expected {expected}"

    return check


def _check_proof(code: int, out: str) -> str | None:
    return None if fields(out).get("closed") == ["true"] else "proof did not close"


def build_scan(seed: int, smoke: bool) -> Workload:
    from tep import files, generators

    rng = random.Random(seed)
    scans: dict[int, list[Case]] = {}
    pareto, manip, proofs = [], [], []
    # Shares of the pool: n = 7 scans about 40% (latency_p50_ms falls among
    # them) and n = 8 scans about 18% (latency_p90_ms falls among them), so
    # neither percentile sits between two kinds of request.  Every scan
    # request has an instance of its own, and the n = 8 instances share one
    # density, which keeps the scan times of a pool close for every seed.
    shapes = ([(4, 0.3), (5, 0.5)] * 3 if smoke else
              [(7, 0.3), (7, 0.5)] * 24 + [(8, 0.3)] * 21)
    reps = 1 if smoke else 5
    for k, (n, density) in enumerate(shapes):
        kind = ("exact", "po", "wpo")[k % 3]
        inst = generators.random_instance(n, density, 0.3, rng.getrandbits(32))
        prefs = _prefs_of(inst)
        best, value = ref.max_weight(prefs)
        path = f"scan/scan-{k}.tep"
        _write(path, files.serialize_instance(inst))
        if kind == "exact":
            argv, check = ["solve", "--instance", path, "--method", "exact"], _check_exact(best, value)
        else:
            # A maximum-weight allocation is Pareto optimal (weights are
            # order consistent), so the scan runs to the end and holds.
            alloc = f"scan/scan-{k}.alloc"
            _write(alloc, _alloc_text(best))
            argv = ["verify", "--instance", path, "--allocation", alloc, "--check", kind]
            check = None
        scans.setdefault(n, []).append(Case(f"{kind}-{k}", argv, (EXIT_OK,), check))
    for k in range(4 if smoke else 16):
        n = 4 if smoke else 6
        inst = generators.random_instance(n, (0.3, 0.5)[k % 2], 0.3, rng.getrandbits(32))
        path = f"scan/po-{k}.tep"
        _write(path, files.serialize_instance(inst))
        pareto.append(Case(f"opo-{k}", ["oracle", "--instance", path, "--enumerate", "po"],
                           (EXIT_OK,), _check_front(_prefs_of(inst))))
    for k in range(4 * reps):
        # The report space doubles with each listed outcome, so the count
        # listed is fixed rather than drawn.
        n, listed = (3, 3) if smoke else [(4, 6), (5, 4)][k % 2]
        prefs = _big_prefs(rng, n, listed)
        agent = rng.randrange(n)
        path = f"scan/manip-{k}.tep"
        _write(path, _instance_text(prefs))
        manip.append(Case(f"manip-{k}", ["manipulate", "--instance", path, "--method", "exact",
                                         "--agent", str(agent), "--space", "subsets"],
                          (EXIT_OK, EXIT_NO), _check_manipulation(prefs, agent)))
    for k in range(reps):
        for which in ("sp", "core-consistency"):
            proofs.append(Case(f"prove-{which}-{k}", ["prove", "--which", which], (EXIT_OK,),
                               _check_proof))
    return Workload(_interleave([*scans.values(), pareto, manip, proofs]))


# -- io -------------------------------------------------------------------

def _big_prefs(rng: random.Random, n: int, listed: int) -> list[list[list[tuple[int, int]]]]:
    prefs = []
    for i in range(n):
        pool = [(h, t) for h in range(n) for t in range(n) if (h, t) != (i, i)]
        classes = _classes(rng, rng.sample(pool, min(listed, len(pool))), 1.0, 0.3)
        classes.append([(i, i)])
        prefs.append(classes)
    return prefs


def _primary_profile(rng: random.Random, n: int, mode: str) -> tuple[str, list[list[int]]]:
    lines = ["tep v1", f"agents {n}", f"mode {mode}"]
    primary = []
    for i in range(n):
        order = list(range(n))
        rng.shuffle(order)
        primary.append(order)
        tie = " > ".join("[" + " ".join(map(str, sorted(c))) + "]"
                         for c in _classes(rng, list(range(n)), 1.0, 0.3))
        lines.append(f"ppref {i}: P {' '.join(map(str, order))} ; T {tie}")
    return "\n".join(lines) + "\n", primary


def _check_ir(prefs, p):
    return _check_verify(ref.is_ir(prefs, ref.rank_tables(prefs), p))


def _check_export(n: int, form: str, out_path: str):
    variables = n * n if form == "qp" else n ** 3
    constraints = 2 * n if form == "qp" else 3 * n + 3 * n * (n - 1)

    def check(code: int, out: str) -> str | None:
        got = (int(_one(out, "variables")), int(_one(out, "constraints")))
        if got != (variables, constraints):
            return f"program has {got} variables/constraints, expected {(variables, constraints)}"
        with open(out_path, "rb") as fh:
            text = fh.read()
        if not (text.startswith(b"maximize\n") and text.endswith(b"\nend\n")):
            return "LP text is not framed by maximize ... end"
        return None

    return check


def _check_ttc(primary, house_driven: bool):
    want = ref.top_trading_cycles(primary, house_driven)

    def check(code: int, out: str) -> str | None:
        got = tuple(_ints(_one(out, "allocation")))
        return None if got == want else f"allocation {got}, expected {want}"

    return check


def _check_round_trip(path: str, family: str):
    def check(code: int, out: str) -> str | None:
        from tep import files

        parse, serialize = {
            "random-responsive": (files.parse_responsive_profile, files.serialize_responsive_profile),
            "random-predominant": (files.parse_predominant_profile, files.serialize_predominant_profile),
        }.get(family, (files.parse_instance, files.serialize_instance))
        with open(path, "rb") as fh:
            data = fh.read()
        again = serialize(parse(data.decode("utf-8"))).encode("utf-8")
        return None if again == data else "generated file does not round-trip byte for byte"

    return check


def _corrupt(rng: random.Random, text: str, kind: str, n: int) -> str:
    """One edit that the parser must reject with exit 2."""
    lines = text.split("\n")
    body = [k for k, line in enumerate(lines) if line.startswith(("pref", "ppref"))]
    # The middle line: the parser reads half the file before it rejects it.
    k = body[len(body) // 2]
    line = lines[k]
    if kind == "digit-letter":
        spots = [j for j, ch in enumerate(line) if ch.isdigit()]
        j = rng.choice(spots)
        lines[k] = line[:j] + "x" + line[j + 1:]
    elif kind == "drop-bracket":
        spots = [j for j, ch in enumerate(line) if ch in "[]"]
        j = rng.choice(spots)
        lines[k] = line[:j] + line[j + 1:]
    elif kind == "dup-pref":
        lines.insert(k + 1, line)
    elif kind == "out-of-range":
        head, _, rest = line.partition(":")
        lines[k] = f"{head.split()[0]} {n + rng.randrange(1, 9)}:{rest}"
    return "\n".join(lines)


CORRUPTIONS = ("digit-letter", "drop-bracket", "dup-pref", "out-of-range")


def build_io(seed: int, smoke: bool) -> Workload:
    """Request times here are set by file size, so each kind and size is a
    cluster of near-equal times.  Shares are chosen so that latency_p50_ms
    falls inside the cluster of `verify` requests on non-IR allocations
    (about 42% to 67% of the pool) and latency_p90_ms inside the cluster of
    the largest `export` (the top 17%), not between two clusters."""
    rng = random.Random(seed)
    verify, export, export_big, ttc, gen, bad = [], [], [], [], [], []
    n_big, listed = (8, 20) if smoke else (35, 350)
    files_big = 1 if smoke else 8
    for k in range(files_big):
        prefs = _big_prefs(rng, n_big, listed)
        path = f"io/big-{k}.tep"
        text = _instance_text(prefs)
        _write(path, text)
        allocs = []
        for j in range(2):
            perm = list(range(n_big))
            rng.shuffle(perm)
            # Half the files are also checked on the identity, which is IR.
            allocs.append(tuple(range(n_big)) if j == 0 and 2 * k < files_big else tuple(perm))
        for j, p in enumerate(allocs):
            alloc = f"io/big-{k}-{j}.alloc"
            _write(alloc, _alloc_text(p))
            verify.append(Case(f"verify-{k}-{j}", ["verify", "--instance", path, "--allocation",
                                                    alloc, "--check", "ir"],
                               (EXIT_OK, EXIT_NO), _check_ir(prefs, p)))
        if k < 3:
            kind = CORRUPTIONS[k % len(CORRUPTIONS)]
            bad_path = f"io/big-{k}-{kind}.tep"
            _write(bad_path, _corrupt(rng, text, kind, n_big))
            bad.append(Case(f"bad-{k}", ["verify", "--instance", bad_path, "--allocation",
                                         f"io/big-{k}-0.alloc", "--check", "ir"], (EXIT_INPUT,)))
    export_shapes = [(6, "qp"), (4, "ilp")] if smoke else [
        (25, "qp"), (30, "qp"), (15, "ilp"), (18, "ilp"), (20, "ilp")] + [(35, "qp")] * 8
    for k, (n, form) in enumerate(export_shapes):
        path = f"io/export-{k}.tep"
        _write(path, _instance_text(_big_prefs(rng, n, 10 * n)))
        out = f"io/export-{k}.lp"
        group = export_big if n == 35 else export
        group.append(Case(f"export-{k}", ["export", "--instance", path, "--form", form,
                                          "--out", out],
                          (EXIT_OK,), _check_export(n, form, out), outputs=(out,)))
    ttc_sizes = [6, 7] if smoke else [150, 200, 250]
    for k, n in enumerate(ttc_sizes):
        for mode, method in (("house", "ttc"), ("tenant", "tttc")):
            text, primary = _primary_profile(rng, n, mode)
            path = f"io/{method}-{k}.ptep"
            _write(path, text)
            ttc.append(Case(f"{method}-{k}", ["solve", "--instance", path, "--method", method],
                            (EXIT_OK,), _check_ttc(primary, mode == "house")))
            if mode == "house":
                kind = CORRUPTIONS[(k + 3) % len(CORRUPTIONS)]
                bad_path = f"io/{method}-{k}-{kind}.ptep"
                _write(bad_path, _corrupt(rng, text, kind, n))
                bad.append(Case(f"bad-{method}-{k}", ["solve", "--instance", bad_path,
                                                      "--method", method], (EXIT_INPUT,)))
    families = [("random", "--density", "0.5"), ("random-responsive", "--density", "0.7"),
                ("random-predominant", "--mode", "house"), ("random", "--density", "0.3"),
                ("random-predominant", "--mode", "tenant"), ("empty-core",), ("sp",)]
    # Each family once: `gen` takes milliseconds, and more of them would put
    # the median between them and the file requests.
    for k in range(2 if smoke else len(families)):
        family, *extra = families[k % len(families)]
        out = f"io/gen-{k}.out"
        gen.append(Case(f"gen-{k}", ["gen", "--family", family, *extra,
                                     "--n", str(rng.randrange(8, 13)), "--ties", "0.3",
                                     "--seed", str(rng.getrandbits(31)), "--out", out],
                        (EXIT_OK,), _check_round_trip(out, family), outputs=(out,)))

    os.makedirs("io/a-directory", exist_ok=True)
    raw = _instance_text(_big_prefs(rng, 6, 20)).encode("utf-8")
    cut = raw.index(b"pref 3")
    _write("io/non-utf8.tep", raw[:cut] + b"\xff" + raw[cut:])
    _write("io/id6.alloc", _alloc_text(range(6)))
    probes = [
        Case("probe-non-utf8", ["verify", "--instance", "io/non-utf8.tep", "--allocation",
                                "io/id6.alloc", "--check", "ir"], (EXIT_INPUT,)),
        Case("probe-directory", ["verify", "--instance", "io/a-directory", "--allocation",
                                 "io/id6.alloc", "--check", "ir"], (EXIT_INPUT,)),
        Case("probe-gen-n", ["gen", "--family", "random", "--n", "50", "--out", "io/x.tep"],
             (EXIT_INPUT,)),
        Case("probe-gen-density", ["gen", "--family", "random", "--density", "1.5",
                                   "--out", "io/x.tep"], (EXIT_INPUT,)),
    ]
    return Workload(_interleave([verify, export, export_big, ttc, gen, bad]), probes)


WORKLOADS = {"refine": build_refine, "search": build_search, "scan": build_scan, "io": build_io}
