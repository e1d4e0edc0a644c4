"""Spans and counters around the calls into each `tep` layer.

The library is not edited.  :func:`install` replaces, for the life of a
traced pass, each function at the module attribute its caller resolves
(``tep.cli.pra_rs``, ``tep.axioms.find_exchange_cycle``, ``tep.files.
make_instance``, ...) with a wrapper that opens a span, calls through and
closes the span.  :meth:`Tracer.uninstall` puts the originals back.

A span holds name, start, end, parent span and request id.  Self time is
the span's busy time minus the busy time of the spans opened while it was
the innermost one.  A generator function's span covers the time spent
inside the generator while it produces items (consumption), not the
creation of the generator object, and its parent is whichever span is
innermost when it resumes.  Self times and counters are aggregated as spans
close; the span records themselves are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 200_000


class Span:
    __slots__ = ("name", "sid", "parent", "request", "start", "end", "busy", "child")

    def __init__(self, name: str, sid: int, parent: "Span | None", request):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.request = request
        self.start = None
        self.end = None
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[Span] = []
        self.records: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.request = None
        self.budgets: list = []
        self.pra_prev: tuple | None = None
        self._sid = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _new(self, name: str) -> Span:
        self._sid += 1
        return Span(name, self._sid, self.stack[-1] if self.stack else None, self.request)

    def _resume(self, span: Span) -> float:
        if span.start is None:
            span.parent = self.stack[-1] if self.stack else None
        self.stack.append(span)
        t0 = perf_counter()
        if span.start is None:
            span.start = t0
        return t0

    def _suspend(self, span: Span, t0: float) -> None:
        t1 = perf_counter()
        if self.stack[-1] is span:
            self.stack.pop()
        else:
            self.stack.remove(span)
        span.busy += t1 - t0
        span.end = t1
        if self.stack:
            self.stack[-1].child += t1 - t0

    def _finish(self, span: Span) -> None:
        if span.start is None:
            return
        self.self_s[span.name] += span.busy - span.child
        self.counts[span.name + ":calls"] += 1
        if len(self.records) < SPAN_CAP:
            self.records.append((span.name, span.start, span.end,
                                 span.parent.sid if span.parent else None,
                                 span.request, span.sid))
        else:
            self.dropped += 1

    def call(self, name: str, fn, *args, **kwargs):
        span = self._new(name)
        t0 = self._resume(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._suspend(span, t0)
            self._finish(span)

    def consume(self, name: str, it, counter: str | None = None):
        span = self._new(name)
        try:
            while True:
                t0 = self._resume(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._suspend(span, t0)
                if counter:
                    self.counts[counter] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()
            self._finish(span)

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name: str, *, after=None, before=None,
              items: str | None = None) -> None:
        """Wrap ``owner.attr``.  ``before(args)`` may return replacement
        args; ``after(args, result)`` sees each result; ``items`` names the
        counter a generator's yielded items add to."""
        original = getattr(owner, attr)
        tracer = self
        if items is not None or inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.consume(name, original(*args, **kwargs), items)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    args = before(args)
                result = tracer.call(name, original, *args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per request -----------------------------------------------------
    def end_request(self) -> None:
        for budget in self.budgets:
            self.counts["cycles.nodes"] += budget.initial - budget.left
            if budget.left < 0:
                self.counts["cycles.budget_exhausted"] += 1
        self.budgets.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "id"],
                       "dropped": self.dropped, "spans": self.records}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI crosses."""
    from tep import axioms, cli, files, generators, incentives, programs, responsive
    from tep.errors import ParseError

    t = tracer

    def count(key, amount=1):
        t.counts[key] += amount

    # cli and the mechanisms it calls by bare name
    t.patch(cli, "run", "cli.run")

    def pra_start(args):
        # rs_aa results are compared with the allocation before the call;
        # pra_rs starts from the identity.
        t.pra_prev = tuple(range(args[0].n))
        return args

    t.patch(cli, "pra_rs", "cli.pra_rs", before=pra_start)
    t.patch(cli, "ttc", "cli.ttc")
    t.patch(cli, "tttc", "cli.tttc")

    def rs_aa_after(args, result):
        count("responsive.rs_aa_calls")
        if result is not None:
            count("responsive.drops_kept")
            if result.assignment == t.pra_prev:
                count("responsive.rs_aa_unchanged")
            t.pra_prev = result.assignment

    t.patch(responsive, "rs_aa", "responsive.rs_aa", after=rs_aa_after)
    t.patch(responsive, "max_bipartite_matching", "matching.max_bipartite_matching",
            after=lambda a, r: count("matching.edges", sum(len(row) for row in a[2])))

    # search engines and budgets
    for attr in ("has_cycle_through", "find_exchange_cycle"):
        t.patch(axioms, attr, "cycles." + attr)
    t.patch(axioms, "iter_exchange_cycles", "cycles.iter_exchange_cycles")
    for attr in ("core_exists", "enumerate_ir_allocations", "find_top_allocation",
                 "is_core_stable"):
        t.patch(axioms, attr, "axioms." + attr)
    t.patch(axioms, "_assignment_search", "axioms._assignment_search", items="axioms.leaves")
    base_budget = axioms.Budget

    class CountingBudget(base_budget):
        __slots__ = ("initial",)

        def __init__(self, nodes):
            super().__init__(nodes)
            self.initial = nodes
            if nodes is not None:
                t.budgets.append(self)

    for owner in (axioms, responsive):
        t._patches.append((owner, "Budget", owner.Budget))
        owner.Budget = CountingBudget

    # full scans
    for owner, label in ((axioms, "axioms"), (programs, "programs"), (responsive, "responsive")):
        t.patch(owner, "all_allocations", label + ".all_allocations",
                items="axioms.allocations_scanned")
    for attr in ("is_pareto_optimal", "is_weakly_pareto_optimal", "enumerate_pareto_optimal",
                 "enumerate_ir_pareto_optimal", "enumerate_core_stable"):
        t.patch(axioms, attr, "axioms." + attr)
    t.patch(axioms, "is_individually_rational", "axioms.is_individually_rational")
    for attr in ("enumerate_ir_pareto_optimal", "enumerate_core_stable"):
        t.patch(incentives, attr, "incentives." + attr)

    # programs
    for attr in ("weights_from_ranks", "solve_exact_max_weight", "export_ilp", "export_qp"):
        t.patch(programs, attr, "programs." + attr)
    t.patch(programs.MathProgram, "to_lp_text", "programs.to_lp_text",
            after=lambda a, r: count("programs.lp_bytes", len(r.encode("utf-8"))))

    # incentives: count the reports the mechanism is replayed on
    def counted_reports(args):
        args = list(args)
        args[3] = t.consume("incentives.reports", iter(args[3]), "incentives.reports_tried")
        return tuple(args)

    t.patch(incentives, "find_manipulation", "incentives.find_manipulation", before=counted_reports)
    for attr in ("sublist_reports", "strict_primary_reports", "component_order_reports",
                 "verify_sp_impossibility_tree", "verify_core_consistency_impossibility"):
        t.patch(incentives, attr, "incentives." + attr)

    # text formats and model construction
    def parse_wrapper(name):
        original = getattr(files, name)

        @functools.wraps(original)
        def wrapper(text, *rest):
            count("files.bytes_in", len(text.encode("utf-8")))
            try:
                return t.call("files." + name, original, text, *rest)
            except ParseError:
                count("files.parse_errors")
                raise

        t._patches.append((files, name, original))
        setattr(files, name, wrapper)

    for name in ("parse_instance", "parse_allocation", "parse_responsive_profile",
                 "parse_predominant_profile"):
        parse_wrapper(name)
    for name in ("serialize_instance", "serialize_allocation", "serialize_responsive_profile",
                 "serialize_predominant_profile"):
        t.patch(files, name, "files." + name)
    for name in ("make_instance", "canonicalize_endowment", "ResponsiveProfile",
                 "PredominantProfile"):
        t.patch(files, name, "model." + name)
    for name in ("random_instance", "random_responsive_profile", "random_predominant_profile",
                 "empty_core_instance", "sp_instance", "x3c_core_instance", "x3c_top_instance"):
        t.patch(generators, name, "generators." + name)


# Span name -> the per-layer metric its self time adds to.
def _layer_of(name: str) -> str:
    if name == "cli.run":
        return "cli.self_ms"
    if name == "cli.pra_rs":
        return "responsive.pra_self_ms"
    if name == "responsive.rs_aa":
        return "responsive.rs_aa_self_ms"
    if name in ("cli.ttc", "cli.tttc"):
        return "predominant.ms"
    if name.endswith(".all_allocations") or name.split(".")[1] in (
            "is_pareto_optimal", "is_weakly_pareto_optimal", "enumerate_pareto_optimal",
            "enumerate_ir_pareto_optimal", "enumerate_core_stable"):
        return "axioms.scan_self_ms"
    if name == "axioms.is_individually_rational":
        return "axioms.ir_ms"
    if name == "programs.weights_from_ranks":
        return "programs.weights_ms"
    if name == "programs.solve_exact_max_weight":
        return "programs.exact_ms"
    head = name.split(".")[0]
    if head == "programs":
        return "programs.export_ms"
    if head == "axioms":
        return "axioms.search_self_ms"
    return {"matching": "matching.ms", "cycles": "cycles.ms", "incentives": "incentives.self_ms",
            "files": "files.parse_ms" if ".parse_" in name else "files.serialize_ms",
            "model": "model.build_ms", "generators": "generators.ms"}[head]


LAYER_METRICS = [
    ("matching.ms", "ms"), ("matching.calls", "count"), ("matching.edges", "count"),
    ("responsive.pra_self_ms", "ms"), ("responsive.rs_aa_self_ms", "ms"),
    ("responsive.rs_aa_calls", "count"), ("responsive.rs_aa_unchanged_ratio", "ratio"),
    ("responsive.drop_kept_ratio", "ratio"),
    ("cycles.ms", "ms"), ("cycles.calls", "count"), ("cycles.nodes", "count"),
    ("cycles.budget_exhausted", "count"),
    ("axioms.search_self_ms", "ms"), ("axioms.leaves", "count"), ("axioms.scan_self_ms", "ms"),
    ("axioms.allocations_scanned", "count"), ("axioms.ir_ms", "ms"),
    ("programs.weights_ms", "ms"), ("programs.exact_ms", "ms"), ("programs.export_ms", "ms"),
    ("programs.lp_bytes", "bytes"),
    ("incentives.self_ms", "ms"), ("incentives.reports_tried", "count"),
    ("predominant.ms", "ms"),
    ("files.parse_ms", "ms"), ("files.serialize_ms", "ms"), ("files.bytes_in", "bytes"),
    ("files.parse_errors", "count"),
    ("model.build_ms", "ms"), ("generators.ms", "ms"),
    ("cli.self_ms", "ms"), ("cli.report_bytes", "bytes"),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate self times and counters into the per-layer metrics."""
    out = {name: 0.0 if unit in ("ms", "ratio") else 0 for name, unit in LAYER_METRICS}
    for name, seconds in tracer.self_s.items():
        out[_layer_of(name)] += seconds * 1000.0
    c = tracer.counts
    out["matching.calls"] = c["matching.max_bipartite_matching:calls"]
    out["matching.edges"] = c["matching.edges"]
    calls = c["responsive.rs_aa_calls"]
    out["responsive.rs_aa_calls"] = calls
    out["responsive.rs_aa_unchanged_ratio"] = c["responsive.rs_aa_unchanged"] / calls if calls else 0.0
    out["responsive.drop_kept_ratio"] = c["responsive.drops_kept"] / calls if calls else 0.0
    out["cycles.calls"] = sum(c[f"cycles.{n}:calls"] for n in (
        "has_cycle_through", "find_exchange_cycle", "iter_exchange_cycles"))
    for key in ("cycles.nodes", "cycles.budget_exhausted", "axioms.leaves",
                "axioms.allocations_scanned", "programs.lp_bytes", "incentives.reports_tried",
                "files.bytes_in", "files.parse_errors", "cli.report_bytes"):
        out[key] = c[key]
    return out
