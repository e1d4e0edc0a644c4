"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

Criterion 8 is split: the replayed case analyses and their runtime bound
pass in one test, and 8* checks the published uniqueness claim for the first
misreported sub-instance as a claim shown false.  It derives that
sub-instance's IR + Pareto-optimal allocations twice, with the library and by
an inline brute force over all permutations, and requires both to give the
published allocation plus the {0,3} swap the published analysis overlooks
(see also test_incentives.test_misreported_subinstances_match_the_replay;
the executable proof closes the overlooked branch with a further truncation
by agent 0 and reports the discrepancy on its own line).
"""

import io
import time
from contextlib import redirect_stdout
from itertools import permutations

from tep import (
    Allocation,
    HOUSE,
    Instance,
    Outcome,
    ResponsiveProfile,
    TENANT,
    core_exists,
    enumerate_ir_allocations,
    enumerate_ir_pareto_optimal,
    export_ilp,
    export_qp,
    find_manipulation,
    find_top_allocation,
    is_core_stable,
    is_individually_rational,
    is_pareto_optimal,
    is_rs_core_stable,
    is_rs_ir,
    is_rs_pareto_optimal,
    is_weakly_pareto_optimal,
    parse_instance,
    pra_rs,
    rs_aa,
    serialize_instance,
    solve_exact_max_weight,
    ttc,
    tttc,
    weights_from_ranks,
)
from tep.axioms import all_allocations
from tep.cli import parse_report, run
from tep.generators import (
    empty_core_instance,
    make_x3c,
    random_instance,
    random_predominant_profile,
    random_responsive_profile,
    sp_instance,
    x3c_core_instance,
    x3c_top_instance,
)
from tep.incentives import strict_primary_reports
from tep.responsive import acceptable_component_classes
from tep.rng import SplitMix64

from references import (
    allocation_value,
    ilp_point,
    is_feasible,
    iter_candidate_points,
    lex_instance,
    objective_value,
    qp_point,
    random_x3c,
    trade_cycles_reference,
    without_linking,
    x3c_has_cover,
)

# test_criterion_8_published_uniqueness_claim stays as written, in this spelling.
replace_prefs = Instance.with_report


def _line(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


def _curated_x3c_cases():
    """Ten exact-cover inputs with m <= 2 and |S| <= 6, mixed answers."""
    cases = [make_x3c(1, [(0, 1, 2)] * 3)]
    cases += [random_x3c(2, seed) for seed in (0, 1, 2, 3, 4)]       # covers exist
    cases += [random_x3c(2, seed) for seed in (40, 41, 44, 45)]      # no cover
    return cases


def test_criterion_1_empty_core():
    ok = False
    try:
        started = time.monotonic()
        ring = empty_core_instance()
        assert core_exists(ring) is None
        fast = {a.assignment for a in enumerate_ir_allocations(ring)}
        slow = {a.assignment for a in all_allocations(5)
                if is_individually_rational(ring, a)}
        assert fast == slow
        assert len(fast) == 11
        assert time.monotonic() - started < 1.0
        ok = True
    finally:
        _line(1, "empty core", ok)


def test_criterion_2_core_reduction_equivalence():
    ok = False
    try:
        cases = _curated_x3c_cases()
        answers = [x3c_has_cover(x) for x in cases]
        assert len(cases) >= 10
        assert any(answers) and not all(answers)  # mixed yes/no
        for x, expected in zip(cases, answers):
            assert len(x.triples) <= 6 and x.m <= 2
            inst = x3c_core_instance(x)
            assert max(len(inst.listed_outcomes(i)) for i in range(inst.n)) <= 6
            started = time.monotonic()
            found = core_exists(inst)
            assert time.monotonic() - started < 60.0
            assert (found is not None) == expected
            if found is not None:
                assert is_core_stable(inst, found)
        ok = True
    finally:
        _line(2, "core reduction equivalence", ok)


def test_criterion_3_top_allocation_reduction():
    ok = False
    try:
        for x in _curated_x3c_cases():
            expected = x3c_has_cover(x)
            inst = x3c_top_instance(x)
            assert max(len(inst.listed_outcomes(i)) for i in range(inst.n)) <= 4
            started = time.monotonic()
            found = find_top_allocation(inst)
            endowment_weakly_po = is_weakly_pareto_optimal(
                inst, Allocation(tuple(range(inst.n))))
            assert time.monotonic() - started < 60.0
            assert (found is not None) == expected
            if found is not None:
                assert all(inst.rank(i, Outcome(found[i], found.inverse[i])) == 0
                           for i in range(inst.n))
            assert endowment_weakly_po == (not expected)
        ok = True
    finally:
        _line(3, "top-allocation reduction", ok)


def test_criterion_4_acceptability_matching():
    ok = False
    try:
        for seed in range(200):
            n = 1 + seed % 7
            rng = SplitMix64(10_000 + seed)
            houses = [set(h for h in range(n) if rng.random() < 0.55) for _ in range(n)]
            tenants = [set(t for t in range(n) if rng.random() < 0.55) for _ in range(n)]
            got = rs_aa(n, tuple(range(n)), houses, tenants)
            brute = None
            for p in permutations(range(n)):
                inv = [0] * n
                for a, h in enumerate(p):
                    inv[h] = a
                if all(p[i] in houses[i] and inv[i] in tenants[i] for i in range(n)):
                    brute = p
                    break
            assert (got is None) == (brute is None)
            if got is not None:
                inv = got.inverse
                assert all(got[i] in houses[i] and inv[i] in tenants[i]
                           for i in range(n))
        # polynomial-time claim exercised at scale: dense input with n = 200
        n = 200
        rng = SplitMix64(77)
        houses = [set(h for h in range(n) if h == i or rng.random() < 0.9)
                  for i in range(n)]
        tenants = [set(t for t in range(n) if t == i or rng.random() < 0.9)
                   for i in range(n)]
        started = time.monotonic()
        alloc = rs_aa(n, tuple(range(n)), houses, tenants)
        assert time.monotonic() - started < 1.0
        assert alloc is not None
        ok = True
    finally:
        _line(4, "acceptability matching", ok)


def test_criterion_5_preference_refinement():
    ok = False
    try:
        policies = (("round-robin", None), ("reverse", None), ("random", 13))
        for seed in range(200):
            n = 1 + seed % 7
            prof = random_responsive_profile(n, 0.6, 0.35, 20_000 + seed)
            hcls, tcls = acceptable_component_classes(prof)
            class_total = sum(map(len, hcls)) + sum(map(len, tcls))
            for order, order_seed in policies:
                result = pra_rs(prof, order=order, seed=order_seed)
                assert is_rs_ir(prof, result.allocation)
                assert is_rs_pareto_optimal(prof, result.allocation)
                assert result.rs_aa_calls <= class_total
        # scale: profiles with 50 agents finish fast
        for seed in range(3):
            prof = _big_responsive_profile(50, 0.8, 0.3, seed)
            started = time.monotonic()
            result = pra_rs(prof)
            assert time.monotonic() - started < 5.0
            assert is_rs_pareto_optimal(prof, result.allocation)
        # polynomial at scale: 100 and 200 agents in seconds as well
        for n in (100, 200):
            prof = _big_responsive_profile(n, 0.8, 0.3, 0)
            started = time.monotonic()
            result = pra_rs(prof)
            assert time.monotonic() - started < 5.0
            assert is_rs_ir(prof, result.allocation)
            assert is_rs_pareto_optimal(prof, result.allocation)
        ok = True
    finally:
        _line(5, "preference refinement", ok)


def _big_responsive_profile(n, density, tie_rate, seed):
    rng = SplitMix64(seed)

    def component(required):
        classes = []
        for x in range(n):
            if x == required or rng.random() >= density:
                continue
            if classes and rng.random() < tie_rate:
                classes[-1].append(x)
            else:
                classes.append([x])
        classes.append([required])
        return tuple(frozenset(c) for c in classes)

    return ResponsiveProfile(n, tuple(range(n)),
                             tuple(component(i) for i in range(n)),
                             tuple(component(i) for i in range(n)))


def test_criterion_6_trading_cycles():
    ok = False
    try:
        manipulation_checked = 0
        for seed in range(500):
            n = 2 + seed % 5
            mode = HOUSE if seed % 2 == 0 else TENANT
            prof = random_predominant_profile(n, mode, 0.4, 30_000 + seed)
            mechanism = ttc if mode == HOUSE else tttc
            alloc = mechanism(prof)
            # cycle-order invariance: the reference walk from the highest agent
            assert trade_cycles_reference(prof, "max", mode == HOUSE)[0] == alloc
            inst = lex_instance(prof)
            assert is_core_stable(inst, alloc)
            assert is_pareto_optimal(inst, alloc)
            if n <= 4:
                for agent in range(n):
                    assert find_manipulation(
                        mechanism, prof, agent, strict_primary_reports(n)) is None
                    manipulation_checked += 1
        assert manipulation_checked > 100
        ok = True
    finally:
        _line(6, "trading cycles", ok)


def test_criterion_7_trading_cycles_rs_core():
    ok = False
    try:
        for seed in range(200):
            n = 2 + seed % 5
            hp = random_predominant_profile(n, HOUSE, 0.4, 40_000 + seed)
            rs_house = ResponsiveProfile(
                n, tuple(range(n)),
                tuple(tuple(frozenset([h]) for h in hp.primary[i]) for i in range(n)),
                hp.tiebreak,
            )
            assert is_rs_core_stable(rs_house, ttc(hp))
            tp = random_predominant_profile(n, TENANT, 0.4, 50_000 + seed)
            rs_tenant = ResponsiveProfile(
                n, tuple(range(n)),
                tp.tiebreak,
                tuple(tuple(frozenset([t]) for t in tp.primary[i]) for i in range(n)),
            )
            assert is_rs_core_stable(rs_tenant, tttc(tp))
        ok = True
    finally:
        _line(7, "trading-cycle rs-core stability", ok)


def _invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run(argv)
    return code, buffer.getvalue()


def test_criterion_8_impossibility_trees():
    ok = False
    try:
        started = time.monotonic()
        code, out = _invoke(["prove", "--which", "sp"])
        assert code == 0
        assert parse_report(out)["closed"] == "true"
        code, out = _invoke(["prove", "--which", "core-consistency"])
        assert code == 0
        assert parse_report(out)["closed"] == "true"
        assert time.monotonic() - started < 1.0

        sp = sp_instance()
        assert {a.assignment for a in enumerate_ir_pareto_optimal(sp)} == \
            {(1, 2, 3, 0), (3, 2, 1, 0)}
        # the second-level sub-instance of the p-branch is decisive as published
        inst1 = sp.with_report(1, [[Outcome(2, 2)], [Outcome(1, 1)]])
        inst13 = inst1.with_report(3, [[Outcome(0, 0)], [Outcome(3, 3)]])
        assert [a.assignment for a in enumerate_ir_pareto_optimal(inst13)] == \
            [(3, 2, 1, 0)]
        ok = True
    finally:
        _line(8, "impossibility trees", ok)


def test_criterion_8_published_uniqueness_claim():
    """The published analysis claims that agent 2's truncation leaves a
    unique IR + Pareto-optimal allocation, (1, 0, 3, 2).  The claim is
    false: the {0,3} swap (3, 1, 2, 0) is a second one.  Both the library
    enumeration and a brute force that reads ranks straight from the raw
    preference lists must find exactly these two, and the proof replay must
    keep reporting the overlooked branch."""
    ok = False
    try:
        sp = sp_instance()
        inst2 = replace_prefs(sp, 2, [[Outcome(3, 3)], [Outcome(2, 2)]])
        library = {a.assignment for a in enumerate_ir_pareto_optimal(inst2)}

        n = inst2.n

        def ranks(p):
            inv = [0] * n
            for a, h in enumerate(p):
                inv[h] = a
            vector = []
            for i in range(n):
                got = Outcome(p[i], inv[inst2.endowment[i]])
                classes = inst2.prefs[i]
                vector.append(next((r for r, c in enumerate(classes) if got in c),
                                   len(classes)))  # unlisted: worst
            return tuple(vector)

        endowment_ranks = ranks(tuple(inst2.endowment))
        vectors = {p: ranks(p) for p in permutations(range(n))}
        ir = {p for p, v in vectors.items()
              if all(v[i] <= endowment_ranks[i] for i in range(n))}
        brute = {p for p in ir
                 if not any(all(w[i] <= vectors[p][i] for i in range(n))
                            and w != vectors[p] for w in vectors.values())}

        published = (1, 0, 3, 2)
        swap = tuple({0: 3, 3: 0}.get(i, i) for i in range(n))  # 1 and 2 stay home
        assert brute == {published, swap}, f"brute force found {sorted(brute)}"
        assert library == brute, f"library found {sorted(library)}"

        code, out = _invoke(["prove", "--which", "sp"])
        assert code == 0
        assert ("branch: choice [3 2 1 0]: sub-instance has 2 IR+PO allocations, "
                "published analysis expects 1") in out.splitlines()
        ok = True
    finally:
        _line("8*", "published uniqueness claim refuted by the {0,3} swap", ok)


def test_criterion_9_math_programs():
    ok = False
    try:
        # feasible points <-> allocations, exhaustively for n <= 3
        from itertools import product

        for n, seed in ((1, 71), (2, 72), (3, 73)):
            inst = random_instance(n, 0.7, 0.3, seed)
            program = export_ilp(inst, weights_from_ranks(inst, "borda"))
            allocation_points = {
                frozenset(k for k, v in ilp_point(inst, a).items() if v)
                for a in all_allocations(n)
            }
            if n <= 2:
                feasible = set()
                for bits in product((0, 1), repeat=len(program.variables)):
                    point = dict(zip(program.variables, bits))
                    if is_feasible(program, point):
                        feasible.add(frozenset(k for k, v in point.items() if v))
            else:
                feasible = {
                    frozenset(k for k, v in p.items() if v)
                    for p in iter_candidate_points(program, n)
                    if is_feasible(program, p)
                }
            assert feasible == allocation_points

        # optima agree across encodings and the exact optimizer, n <= 4
        for n in (2, 3, 4):
            inst = random_instance(n, 0.6, 0.4, 80 + n)
            for scheme in ("borda", "exponential"):
                weights = weights_from_ranks(inst, scheme)
                ilp = export_ilp(inst, weights)
                qp = export_qp(inst, weights)
                _, exact = solve_exact_max_weight(inst, weights)
                assert exact == max(objective_value(ilp, ilp_point(inst, a))
                                    for a in all_allocations(n))
                assert exact == max(objective_value(qp, qp_point(inst, a))
                                    for a in all_allocations(n))

        # every max-weight allocation is Pareto optimal, n <= 6
        for n, seed in ((4, 91), (5, 92), (6, 93)):
            inst = random_instance(n, 0.5, 0.4, seed)
            for scheme in ("borda", "exponential"):
                weights = weights_from_ranks(inst, scheme)
                _, best = solve_exact_max_weight(inst, weights)
                for alloc in all_allocations(n):
                    if allocation_value(weights, inst, alloc) == best:
                        assert is_pareto_optimal(inst, alloc)

        # regression: without linking constraints a 0/1 point can satisfy
        # everything printed yet describe no allocation
        inst = random_instance(3, 0.5, 0.2, 94)
        repaired = export_ilp(inst, weights_from_ranks(inst, "borda"))
        unlinked = without_linking(repaired)
        witness = {v: 0 for v in unlinked.variables}
        for i in range(3):
            witness[f"x_{i}_{(i + 1) % 3}_{(i + 1) % 3}"] = 1
        allocation_points = {
            frozenset(k for k, v in ilp_point(inst, a).items() if v)
            for a in all_allocations(3)
        }
        assert is_feasible(unlinked, witness)
        assert frozenset(k for k, v in witness.items() if v) not in allocation_points
        assert not is_feasible(repaired, witness)
        ok = True
    finally:
        _line(9, "math programs", ok)


def test_criterion_10_determinism_and_round_trips():
    ok = False
    try:
        golden = [
            empty_core_instance(),
            sp_instance(),
            x3c_core_instance(make_x3c(1, [(0, 1, 2)] * 3)),
            x3c_top_instance(random_x3c(2, 3)),
            random_instance(6, 0.5, 0.4, 17),
            random_instance(1, 0.0, 0.0, 0),
        ]
        for inst in golden:
            assert parse_instance(serialize_instance(inst)) == inst

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "a.tep", Path(tmp) / "b.tep"]
            reports = []
            for path in paths:
                code, out = _invoke(["gen", "--family", "random", "--n", "7",
                                     "--density", "0.6", "--ties", "0.3",
                                     "--seed", "23", "--out", str(path)])
                assert code == 0
                reports.append(out.replace(str(path), "OUT"))
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert reports[0] == reports[1]
            oracle_runs = [
                _invoke(["oracle", "--instance", str(paths[0]), "--enumerate", "ir"])
                for _ in range(2)
            ]
            assert oracle_runs[0] == oracle_runs[1]
            solve_runs = [
                _invoke(["solve", "--instance", str(paths[0]), "--method", "exact"])
                for _ in range(2)
            ]
            assert solve_runs[0] == solve_runs[1]
        assert random_x3c(2, 9) == random_x3c(2, 9)
        assert random_responsive_profile(6, 0.5, 0.5, 3) == \
            random_responsive_profile(6, 0.5, 0.5, 3)
        assert random_predominant_profile(6, HOUSE, 0.5, 3) == \
            random_predominant_profile(6, HOUSE, 0.5, 3)
        ok = True
    finally:
        _line(10, "determinism and round trips", ok)
