"""Command-line interface.

Subcommands: gen, solve, verify, oracle, export, manipulate, prove.  Every
run prints a small structured report (stable field order, deterministic for
fixed inputs and seeds; wall-clock timing only appears under ``--timing``).
Exit codes: 0 the property holds or an object was found, 1 it fails or none
exists, 2 bad input, 3 an oracle bound or search budget was exceeded.

``TEP_ORACLE_MAX_N`` overrides the default bound on full-scan oracles.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

from . import axioms, files, generators, incentives, programs
from .errors import BudgetExceededError, OracleLimitError, ParseError, ProofError, TepError
from .predominant import HOUSE, TENANT, ttc, tttc
from .responsive import pra_rs

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _Report:
    def __init__(self, command: str, options: dict):
        self.command = command
        self.options = options
        self.inputs: list[str] = []
        self.payload: list[str] = []

    def digest(self, label: str, data: bytes) -> None:
        self.inputs.append(f"{label}-sha256: {hashlib.sha256(data).hexdigest()}")

    def add(self, key: str, value) -> None:
        self.payload.append(f"{key}: {value}")

    def text(self, quiet: bool, elapsed_ms: float | None) -> str:
        lines: list[str] = []
        if not quiet:
            lines.append("tep-report v1")
            lines.append(f"command: {self.command}")
            opts = " ".join(f"{k}={v}" for k, v in sorted(self.options.items())
                            if v is not None)
            lines.append(f"args: {opts}")
            lines.extend(self.inputs)
        lines.extend(self.payload)
        if elapsed_ms is not None and not quiet:
            lines.append(f"time-ms: {elapsed_ms:.1f}")
        return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict[str, str | list[str]]:
    """Parse a report back into a mapping; repeated keys collect in a list."""
    out: dict[str, str | list[str]] = {}
    for line in text.splitlines():
        if line == "tep-report v1" or not line.strip():
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key in out:
            prev = out[key]
            if isinstance(prev, list):
                prev.append(value)
            else:
                out[key] = [prev, value]
        else:
            out[key] = value
    return out


def _read(path: str, report: _Report, label: str = "instance") -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    report.digest(label, data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("syntax", f"{label} file is not UTF-8 (byte {exc.start})") from exc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _oracle_max_n(args) -> int:
    env = os.environ.get("TEP_ORACLE_MAX_N")
    if args.max_n is not None:
        return args.max_n
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError("syntax", f"TEP_ORACLE_MAX_N must be an integer, got {env!r}")
    return axioms.DEFAULT_MAX_N


def _parse_x3c_file(text: str) -> generators.X3CInstance:
    rows = [(lineno, line.split()) for lineno, line in files._meaningful_lines(text)]
    if not rows or len(rows[0][1]) != 1:
        raise ParseError("syntax", "exact-cover file: first line must be m", 1)
    m = files._parse_int(rows[0][1][0], rows[0][0], "m")
    triples = []
    for lineno, r in rows[1:]:
        if len(r) != 3:
            raise ParseError("syntax", f"expected 3 elements per triple, got {r}")
        triples.append(tuple(sorted(files._parse_int(x, lineno, "element") for x in r)))
    try:
        return generators.X3CInstance(m, tuple(triples))
    except ValueError as exc:
        raise ParseError("syntax", str(exc)) from exc


def _cmd_gen(args, report: _Report) -> int:
    family = args.family
    if family in ("x3c-core", "x3c-top"):
        if not args.x3c:
            raise ParseError("syntax", f"--family {family} needs --x3c FILE")
        x = _parse_x3c_file(_read(args.x3c, report, "x3c"))
        inst = (generators.x3c_core_instance if family == "x3c-core" else
                generators.x3c_top_instance)(x)
        text = files.serialize_instance(inst)
    elif family == "empty-core":
        text = files.serialize_instance(generators.empty_core_instance())
    elif family == "sp":
        text = files.serialize_instance(generators.sp_instance())
    elif family in ("random", "random-responsive", "random-predominant"):
        try:
            if family == "random":
                inst = generators.random_instance(args.n, args.density, args.ties, args.seed)
                text = files.serialize_instance(inst)
            elif family == "random-responsive":
                prof = generators.random_responsive_profile(args.n, args.density, args.ties,
                                                            args.seed)
                text = files.serialize_responsive_profile(prof)
            else:
                prof = generators.random_predominant_profile(args.n, args.mode, args.ties,
                                                             args.seed)
                text = files.serialize_predominant_profile(prof)
        except ValueError as exc:  # --n, --density or --ties out of range
            raise ParseError("syntax", str(exc)) from exc
    else:
        raise ParseError("syntax", f"unknown family {family!r}")
    _write(args.out, text)
    report.add("family", family)
    report.add("wrote", args.out)
    return EXIT_OK


def _solve_exact(inst, weights: str):
    # The bound first: the weight table has n³ entries.
    axioms._check_max_n(inst, programs.DEFAULT_EXACT_MAX_N, programs.EXACT_OPTIMIZER)
    return programs.solve_exact_max_weight(inst, programs.weights_from_ranks(inst, weights))


def _cmd_solve(args, report: _Report) -> int:
    text = _read(args.instance, report)
    if args.method in ("ttc", "tttc"):
        prof = files.parse_predominant_profile(text)
        alloc = ttc(prof) if args.method == "ttc" else tttc(prof)
        report.add("allocation", alloc.text())
    elif args.method == "pra":
        prof = files.parse_responsive_profile(text)
        result = pra_rs(prof, order=args.order, seed=args.seed)
        report.add("allocation", result.allocation.text())
        report.add("rs-aa-calls", result.rs_aa_calls)
    elif args.method == "exact":
        alloc, value = _solve_exact(files.parse_instance(text), args.weights)
        report.add("allocation", alloc.text())
        report.add("value", value)
    else:
        raise ParseError("syntax", f"unknown method {args.method!r}")
    return EXIT_OK


def _cmd_verify(args, report: _Report) -> int:
    inst = files.parse_instance(_read(args.instance, report))
    alloc = files.parse_allocation(_read(args.allocation, report, "allocation"), inst.n)
    max_n = _oracle_max_n(args)
    if args.check == "ir":
        holds = axioms.is_individually_rational(inst, alloc)
    elif args.check == "po":
        holds = axioms.is_pareto_optimal(inst, alloc, max_n=max_n)
    elif args.check == "wpo":
        holds = axioms.is_weakly_pareto_optimal(inst, alloc, max_n=max_n)
    elif args.check == "core":
        holds = axioms.is_core_stable(inst, alloc, node_budget=args.node_budget)
    else:
        raise ParseError("syntax", f"unknown check {args.check!r}")
    report.add("check", args.check)
    report.add("holds", "true" if holds else "false")
    return EXIT_OK if holds else EXIT_NO


def _cmd_oracle(args, report: _Report) -> int:
    inst = files.parse_instance(_read(args.instance, report))
    report.add("enumerate", args.enumerate)
    if args.enumerate == "ir":
        allocs = axioms.enumerate_ir_allocations(inst, node_budget=args.node_budget)
    elif args.enumerate == "po":
        allocs = axioms.enumerate_pareto_optimal(inst, max_n=_oracle_max_n(args))
    elif args.enumerate == "core":
        found = axioms.core_exists(inst, node_budget=args.node_budget)
        if found is None:
            report.add("result", "none")
            return EXIT_NO
        report.add("allocation", found.text())
        return EXIT_OK
    else:
        raise ParseError("syntax", f"unknown enumeration {args.enumerate!r}")
    report.add("count", len(allocs))
    for alloc in sorted(allocs, key=lambda a: a.assignment):
        report.add("allocation", alloc.text())
    return EXIT_OK


def _cmd_export(args, report: _Report) -> int:
    inst = files.parse_instance(_read(args.instance, report))
    table = programs.weights_from_ranks(inst, args.weights)
    program = (programs.export_ilp(inst, table) if args.form == "ilp"
               else programs.export_qp(inst, table))
    _write(args.out, program.to_lp_text())
    report.add("form", args.form)
    report.add("variables", len(program.variables))
    report.add("constraints", len(program.constraints))
    report.add("wrote", args.out)
    return EXIT_OK


def _porder_candidates(text: str, truth, agent: int) -> list[tuple[int, ...]]:
    reports = []
    for lineno, line in files._meaningful_lines(text):
        parts = line.split()
        if parts[0] != "porder" or len(parts) < 2:
            raise ParseError("syntax", "expected 'porder <agent> <item>...'", lineno)
        if files._parse_int(parts[1], lineno, "agent") != agent:
            raise ParseError("syntax", f"candidate line is for agent {parts[1]}", lineno)
        order = tuple(files._parse_int(x, lineno, "item") for x in parts[2:])
        if sorted(order) != list(range(truth.n)):
            raise ParseError("syntax", f"porder must rank all {truth.n} items strictly", lineno)
        reports.append(order)
    return reports


def _rpref_candidates(text: str, truth, agent: int) -> list[tuple]:
    """Each candidate line replaces the agent's line in the serialized truth,
    which keeps the endowment and the other agents' orders; a fault is
    reported at the candidate's own line."""
    lines = files.serialize_responsive_profile(truth).splitlines()
    at = len(lines) - truth.n + agent
    reports = []
    for lineno, line in files._meaningful_lines(text):
        head = line.partition(":")[0].split()
        if len(head) == 2 and head[0] == "rpref" and files._parse_int(
                head[1], lineno, "agent") != agent:
            raise ParseError("syntax", f"candidate line is for agent {head[1]}", lineno)
        lines[at] = line
        try:
            prof = files.parse_responsive_profile("\n".join(lines) + "\n")
        except ParseError as exc:
            raise ParseError(exc.code, exc.message, lineno, exc.column) from exc
        reports.append((prof.house_classes[agent], prof.tenant_classes[agent]))
    return reports


def _pref_candidates(text: str, truth, agent: int) -> list[list[list]]:
    reports = []
    for lineno, line in files._meaningful_lines(text):
        head, _, body = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "pref" or not body:
            raise ParseError("syntax", "expected 'pref <agent>: [..] > [..]'", lineno)
        if files._parse_int(parts[1], lineno, "agent") != agent:
            raise ParseError("syntax", f"candidate line is for agent {parts[1]}", lineno)
        chunks = files._split_classes(body, lineno, line)
        classes = [files._parse_outcomes(c, lineno) for c in chunks]
        try:
            truth.with_report(agent, classes)
        except ValueError as exc:  # an outcome out of range or listed twice
            raise ParseError("syntax", str(exc), lineno) from exc
        reports.append(classes)
    return reports


def _cmd_manipulate(args, report: _Report) -> int:
    # Per method: the truth, the mechanism, the one built-in report space
    # (with the hint shown when another is asked for), the candidate-file
    # parser and the witness formatter.
    text = _read(args.instance, report)
    agent = args.agent
    if args.method in ("ttc", "tttc"):
        truth = files.parse_predominant_profile(text)
        mechanism = ttc if args.method == "ttc" else tttc
        space, hint = "strict", "predominant mechanisms support --space strict or file:"
        built_in = lambda: incentives.strict_primary_reports(truth.n)
        parse_candidates, fmt = _porder_candidates, lambda rep: " ".join(map(str, rep))
    elif args.method == "pra":
        truth = files.parse_responsive_profile(text)
        mechanism = lambda prof: pra_rs(prof, order=args.order, seed=args.seed).allocation
        space, hint = "strict", "pra supports --space strict (component orders) or file:"
        built_in = lambda: incentives.component_order_reports(truth, agent)
        parse_candidates = _rpref_candidates
        fmt = lambda rep: f"H {files.format_classes(rep[0])} ; N {files.format_classes(rep[1])}"
    elif args.method == "exact":
        truth = files.parse_instance(text)
        mechanism = lambda inst: _solve_exact(inst, args.weights)[0]
        space, hint = "subsets", "instance mechanisms support --space subsets or file:"
        built_in = lambda: incentives.sublist_reports(truth, agent)
        parse_candidates = _pref_candidates
        fmt = lambda rep: " > ".join("[" + " ".join(o.text() for o in cls) + "]" for cls in rep)
    else:
        raise ParseError("syntax", f"unknown method {args.method!r}")
    if not 0 <= agent < truth.n:
        raise ParseError("index-range", f"agent {agent} out of range 0..{truth.n - 1}")
    if args.space.startswith("file:"):
        with open(args.space[5:], "r", encoding="utf-8") as fh:
            reports = parse_candidates(fh.read(), truth, agent)
    elif args.space == space:
        reports = built_in()
    else:
        raise ParseError("syntax", hint)
    witness = incentives.find_manipulation(mechanism, truth, agent, reports,
                                           max_reports=args.cap)
    report.add("agent", agent)
    if witness is None:
        report.add("result", "none")
        return EXIT_NO
    report.add("outcome-before", witness.outcome_before.text())
    report.add("outcome-after", witness.outcome_after.text())
    report.add("report", fmt(witness.report))
    return EXIT_OK


def _cmd_prove(args, report: _Report) -> int:
    which = args.which
    try:
        if which == "sp":
            proof = incentives.verify_sp_impossibility_tree()
        elif which == "core-consistency":
            proof = incentives.verify_core_consistency_impossibility()
        else:
            raise ParseError("syntax", f"unknown proof {which!r}")
    except ProofError as exc:
        report.add("proof", which)
        report.add("error", str(exc))
        report.add("closed", "false")
        return EXIT_NO
    report.add("proof", which)
    for line in proof.lines:
        report.add("branch", line)
    report.add("closed", "true")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiet", action="store_true", help="print only the payload")
        p.add_argument("--timing", action="store_true", help="append a wall-clock line")
        p.add_argument("--max-n", type=int, default=None,
                       help="bound for full-scan oracles (default 8, env TEP_ORACLE_MAX_N)")
        p.add_argument("--node-budget", type=int, default=axioms.DEFAULT_NODE_BUDGET,
                       help="node budget for backtracking searches")

    p = sub.add_parser("gen", help="write a named or random instance/profile")
    p.add_argument("--family", required=True,
                   choices=["empty-core", "x3c-core", "x3c-top", "sp", "random",
                            "random-responsive", "random-predominant"])
    p.add_argument("--x3c", help="exact-cover input file (m, then one triple per line)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--ties", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[HOUSE, TENANT], default=HOUSE)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("solve", help="run a mechanism on an instance/profile file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=["ttc", "tttc", "pra", "exact"])
    p.add_argument("--order", choices=["round-robin", "reverse", "random"],
                   default="round-robin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", choices=list(programs.WEIGHT_SCHEMES), default=programs.BORDA)
    common(p)

    p = sub.add_parser("verify", help="check one axiom for a given allocation")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--check", required=True, choices=["ir", "po", "wpo", "core"])
    common(p)

    p = sub.add_parser("oracle", help="enumerate IR/PO allocations or search the core")
    p.add_argument("--instance", required=True)
    p.add_argument("--enumerate", required=True, choices=["ir", "po", "core"])
    common(p)

    p = sub.add_parser("export", help="write an LP-style 0/1 program")
    p.add_argument("--instance", required=True)
    p.add_argument("--form", required=True, choices=["ilp", "qp"])
    p.add_argument("--weights", choices=list(programs.WEIGHT_SCHEMES), default=programs.BORDA)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("manipulate", help="search misreports for one agent")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=["ttc", "tttc", "pra", "exact"])
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--space", required=True,
                   help="strict | subsets | file:CANDIDATES")
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--order", choices=["round-robin", "reverse", "random"],
                   default="round-robin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", choices=list(programs.WEIGHT_SCHEMES), default=programs.BORDA)
    common(p)

    p = sub.add_parser("prove", help="replay an impossibility case analysis")
    p.add_argument("--which", required=True, choices=["sp", "core-consistency"])
    common(p)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "export": _cmd_export,
    "manipulate": _cmd_manipulate,
    "prove": _cmd_prove,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "quiet", "timing") and v is not None}
    report = _Report(args.command, options)
    started = time.monotonic()
    try:
        code = _HANDLERS[args.command](args, report)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OracleLimitError, BudgetExceededError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:  # the searches recurse once per agent or cycle member
        print("budget exceeded: search deeper than the interpreter's recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_BUDGET
    except TepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed_ms = (time.monotonic() - started) * 1000.0
    sys.stdout.write(report.text(args.quiet, elapsed_ms if args.timing else None))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
