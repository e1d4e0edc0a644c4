"""Command-line interface.

The top-level help names the subcommands and the exit codes.  Every run
prints a small structured report (stable field order, deterministic for
fixed inputs and seeds; wall-clock timing only appears under ``--timing``).
A request runs with Python's cyclic collector paused: it builds many
short-lived acyclic containers and leaves no cycles, so refcounting frees it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time

from . import axioms, files, generators, incentives, programs
from .errors import BudgetExceededError, ParseError, ProofError
from .predominant import HOUSE, TENANT, ttc, tttc
from .responsive import POLICIES, pra_rs

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


def _read(path: str, report: _Report | None, label: str = "instance") -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if report is not None:  # candidate files are read without a digest line
        report.digest(label, data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("syntax", f"{label} file is not UTF-8 (byte {exc.start})") from exc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_gen(args, report: _Report) -> int:
    family = args.family
    if family in ("x3c-core", "x3c-top"):
        if not args.x3c:
            raise ParseError("syntax", f"--family {family} needs --x3c FILE")
        # x3c-core has five agents per ground element, x3c-top one; 3m elements.
        make, per_m = ((generators.x3c_core_instance, 15) if family == "x3c-core" else
                       (generators.x3c_top_instance, 3))
        text = files.serialize_instance(make(files.parse_x3c(_read(args.x3c, report, "x3c"),
                                                             per_m)))
    elif family == "empty-core":
        text = files.serialize_instance(generators.empty_core_instance())
    elif family == "sp":
        text = files.serialize_instance(generators.sp_instance())
    else:  # random, random-responsive or random-predominant
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
    _write(args.out, text)
    report.add("family", family)
    report.add("wrote", args.out)
    return EXIT_OK


def _market(args, text: str):
    """The market in ``text`` that ``--method`` reads, and its mechanism: a
    function from a market to (allocation, the (key, value) report lines
    after it).  ttc needs a house-primary profile, tttc a tenant-primary one.
    Mechanisms are looked up as they run, where a tracer may wrap them."""
    method = args.method
    if method in ("ttc", "tttc"):
        market, mode = files.parse_predominant_profile(text), HOUSE if method == "ttc" else TENANT
        if market.mode != mode:
            raise ParseError("syntax", f"--method {method} needs a profile with 'mode {mode}', "
                             f"got 'mode {market.mode}'")
        return market, lambda prof: ((ttc if method == "ttc" else tttc)(prof), ())
    if method == "pra":
        def mechanism(prof):
            result = pra_rs(prof, order=args.order, seed=args.seed)
            return result.allocation, (("rs-aa-calls", result.rs_aa_calls),)
        return files.parse_responsive_profile(text), mechanism

    def mechanism(inst):
        alloc, value = programs.solve_exact_max_weight(
            inst, programs.weights_from_ranks(inst, args.weights), node_budget=args.node_budget)
        return alloc, (("value", value),)
    return files.parse_instance(text), mechanism


def _cmd_solve(args, report: _Report) -> int:
    market, mechanism = _market(args, _read(args.instance, report))
    alloc, lines = mechanism(market)
    for key, value in (("allocation", alloc.text()), *lines):
        report.add(key, value)
    return EXIT_OK


def _cmd_verify(args, report: _Report) -> int:
    inst = files.parse_instance(_read(args.instance, report))
    alloc = files.parse_allocation(_read(args.allocation, report, "allocation"), inst.n)
    if args.check == "ir":
        holds = axioms.is_individually_rational(inst, alloc)
    elif args.check == "po":
        holds = axioms.is_pareto_optimal(inst, alloc, node_budget=args.node_budget)
    elif args.check == "wpo":
        holds = axioms.is_weakly_pareto_optimal(inst, alloc, node_budget=args.node_budget)
    else:
        holds = axioms.is_core_stable(inst, alloc, node_budget=args.node_budget)
    report.add("check", args.check)
    report.add("holds", "true" if holds else "false")
    return EXIT_OK if holds else EXIT_NO


def _cmd_oracle(args, report: _Report) -> int:
    inst = files.parse_instance(_read(args.instance, report))
    report.add("enumerate", args.enumerate)
    if args.enumerate == "ir":
        allocs = axioms.enumerate_ir_allocations(inst, node_budget=args.node_budget)
    elif args.enumerate == "po":
        allocs = axioms.enumerate_pareto_optimal(inst, node_budget=args.node_budget)
    else:
        # Find-first: the first core-stable allocation the backtracking
        # reaches, with no count line, or 'result: none' and exit 1.
        found = axioms.core_exists(inst, node_budget=args.node_budget)
        if found is None:
            report.add("result", "none")
            return EXIT_NO
        report.add("allocation", found.text())
        return EXIT_OK
    report.add("count", len(allocs))
    for alloc in sorted(allocs, key=lambda a: a.assignment):
        report.add("allocation", alloc.text())
    return EXIT_OK


def _cmd_export(args, report: _Report) -> int:
    inst = files.parse_instance(_read(args.instance, report))
    # The bound first: the program has n³ terms, read through the n³ rank table.
    if inst.n > programs.EXPORT_MAX_N:
        raise BudgetExceededError(f"export needs n <= {programs.EXPORT_MAX_N}, got n = {inst.n}")
    weights = programs.weights_from_ranks(inst, args.weights)
    program = (programs.export_ilp(inst, weights) if args.form == "ilp"
               else programs.export_qp(inst, weights))
    _write(args.out, program.to_lp_text())
    report.add("form", args.form)
    report.add("variables", len(program.variables))
    report.add("constraints", len(program.constraints))
    report.add("wrote", args.out)
    return EXIT_OK


def _cmd_manipulate(args, report: _Report) -> int:
    # Per method: the one built-in report space (with the hint shown when
    # another is asked for), the candidate-line keyword and the witness
    # formatter.
    truth, mechanism = _market(args, _read(args.instance, report))
    agent = args.agent
    if args.method in ("ttc", "tttc"):
        space, hint = "strict", "predominant mechanisms support --space strict or file:"
        built_in = lambda: incentives.strict_primary_reports(truth.n)
        keyword, fmt = "porder", lambda rep: " ".join(map(str, rep))
    elif args.method == "pra":
        space, hint = "strict", "pra supports --space strict (component orders) or file:"
        built_in = lambda: incentives.component_order_reports(truth, agent)
        keyword = "rpref"
        fmt = lambda rep: f"H {files.format_classes(rep[0])} ; N {files.format_classes(rep[1])}"
    else:
        space, hint = "subsets", "instance mechanisms support --space subsets or file:"
        built_in = lambda: incentives.sublist_reports(truth, agent)
        keyword = "pref"
        fmt = lambda rep: " > ".join("[" + " ".join(o.text() for o in cls) + "]" for cls in rep)
    if not 0 <= agent < truth.n:
        raise ParseError("index-range", f"agent {agent} out of range 0..{truth.n - 1}")
    if args.space.startswith("file:"):
        reports = files.parse_candidates(_read(args.space[5:], None, "candidate"), keyword,
                                         truth, agent)
    elif args.space == space:
        reports = built_in()
    else:
        raise ParseError("syntax", hint)
    witness = incentives.find_manipulation(lambda market: mechanism(market)[0], truth, agent,
                                           reports, max_reports=args.cap)
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
            proof = incentives.verify_sp_impossibility_tree(node_budget=args.node_budget)
        else:
            proof = incentives.verify_core_consistency_impossibility(node_budget=args.node_budget)
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


def _limit(text: str) -> int:
    """A --cap or --node-budget value: 0 or more (0 allows no work, so any
    search that needs some exits 3)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {files.quote(text)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {files.quote(value)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tep", description=(
        "Exact oracles and mechanisms for temporary exchange markets. Subcommands: gen, "
        "solve, verify, oracle, export, manipulate, prove. Exit codes: 0 the property holds "
        "or an object was found, 1 it fails or none exists, 2 bad input, 3 a size bound, "
        "the node budget or the report cap was exceeded."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiet", action="store_true", help="print only the payload")
        p.add_argument("--timing", action="store_true", help="append a wall-clock line")
        p.add_argument("--node-budget", type=_limit, default=axioms.DEFAULT_NODE_BUDGET,
                       help="node budget for the exact searches")

    def mechanism_options(p):  # what pra and exact read beside --method
        p.add_argument("--order", choices=POLICIES, default=POLICIES[0])
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--weights", choices=list(programs.WEIGHT_SCHEMES),
                       default=programs.BORDA)

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
    mechanism_options(p)
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
    p.add_argument("--cap", type=_limit, default=incentives.DEFAULT_MAX_REPORTS)
    mechanism_options(p)
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


# Built once: building the tree costs far more than parsing one argv with it.
_PARSER = build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "quiet", "timing") and v is not None}
    report = _Report(args.command, options)
    started = time.monotonic()
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = _HANDLERS[args.command](args, report)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: io: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        # A size bound, the node budget or the report cap: every search keeps
        # its path on a stack of its own, so the call stack bounds nothing.
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if collecting:
            gc.enable()
    elapsed_ms = (time.monotonic() - started) * 1000.0
    sys.stdout.write(report.text(args.quiet, elapsed_ms if args.timing else None))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
