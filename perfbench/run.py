"""End-to-end and per-layer benchmark of the `tep` command line.

Run from the repository root::

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload refine --seed 1 --trace 1
    python3 perfbench/run.py --smoke

Every request is ``tep.cli.run(argv)`` on real files, called in this process
with stdout and stderr captured: one client in a closed loop, the next
request sent when the previous one returns.  Inputs are generated from the
seed before timing.  ``--trace 0`` cycles through the workload's request
pool for ``--seconds`` and reports the end-to-end metrics.  ``--trace 1``
makes exactly one untraced and one traced pass over the pool (so its
counters repeat exactly for a seed) and reports the per-layer metrics and
the tracing overhead.  End-to-end times are scaled to a reference host
speed by a fixed piece of pure-Python work timed between requests (see
``spin``), since the speed of a shared host drifts during and between
runs.  ``--smoke`` runs a few small requests per workload through every
wrapper, twice traced, and prints every metric name with its unit.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer as tr
from workloads import WORKLOADS, fields

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# p90 needs ten samples beyond it; a slow machine runs past --seconds.
MIN_REQUESTS = 100
# Untimed requests before the clock starts.
WARMUP_REQUESTS = 2
# Host speed.  The benchmark gets a few cores of a shared host whose speed
# drifts by 10-30% over seconds and minutes, for identical work.  Between
# requests, at most every SPIN_EVERY_S, the timed loop times a fixed piece
# of pure-Python work (`spin`); each request's time is scaled by SPIN_REF_S
# over the median spin time within SPIN_WINDOW_S of its start.  Times are
# therefore reported in seconds of a machine on which `spin` takes
# SPIN_REF_S (about the speed of a 2-vCPU Xeon VM), and the raw wall-clock
# figures are printed beside them.
SPIN_EVERY_S = 0.2
SPIN_WINDOW_S = 1.0
SPIN_REF_S = 0.001
GOLDEN = HERE / "golden_seed1.json"

END_TO_END = [
    ("setup_s", "s"), ("throughput_rps", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("ok_frac", "ratio"), ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
TRACE_EXTRA = [("trace.overhead_ratio", "ratio"), ("trace.untraced_rps", "1/s"),
               ("trace.traced_rps", "1/s"), ("cli.escapes", "count")]
_HEADER_KEYS = ("tep-report v1", "command: ", "args: ")


def _load_tep():
    """Import `tep` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tep sources under {src}")
    sys.path.insert(0, str(src))
    import tep

    if Path(tep.__file__).resolve().parent != (src / "tep").resolve():
        raise SystemExit(f"perfbench: imported tep from {tep.__file__}, not from {src}")


def payload_digest(report: str) -> str:
    """sha256 of the report without its header lines (command, args, input
    digests), which name paths rather than answers."""
    lines = [line for line in report.splitlines(keepends=True)
             if not line.startswith(_HEADER_KEYS) and "-sha256: " not in line]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Result:
    __slots__ = ("code", "out", "error", "seconds")

    def __init__(self, code, out, error, seconds):
        self.code, self.out, self.error, self.seconds = code, out, error, seconds


def execute(argv: list[str]) -> Result:
    import tep.cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = tep.cli.run(argv)
        except Exception as exc:  # an escape from cli.run is a measured failure
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    return Result(code, out.getvalue(), error, seconds)


class Ledger:
    """Per-request outcomes; judges each distinct request once."""

    def __init__(self, golden: dict[str, list[str]] | None):
        self.golden = golden
        self.first: dict[str, Result] = {}
        self.runs: dict[str, int] = {}
        self.drift: dict[str, int] = {}
        self.verdict: dict[str, str | None] = {}

    def add(self, case, result: Result) -> None:
        first = self.first.setdefault(case.key, result)
        self.runs[case.key] = self.runs.get(case.key, 0) + 1
        if result is not first and (result.code, result.out) != (first.code, first.out):
            self.drift[case.key] = self.drift.get(case.key, 0) + 1

    def judge(self, case) -> str | None:
        """Why the first response to ``case`` is wrong, or None.  Output
        files are checked now, so call it after the request's last run."""
        if case.key in self.verdict:
            return self.verdict[case.key]
        r = self.first[case.key]
        if r.error is not None:
            why = f"escaped cli.run: {r.error}"
        elif r.code not in case.expect:
            why = f"unexpected exit {r.code}"
        else:
            why = case.check(r.code, r.out) if case.check else None
        if why is None and self.golden is not None:
            digests = [payload_digest(r.out)] + [file_digest(p) for p in case.outputs]
            if self.golden.get(case.key) != digests:
                why = "report differs from the one recorded at the default seed"
        self.verdict[case.key] = why
        return why

    def failed(self, cases) -> tuple[int, list[str]]:
        """Failed request count: every run of a wrongly answered request,
        and every run whose output drifted from the first one."""
        count, notes = 0, []
        for case in cases:
            if case.key not in self.first:
                continue
            why = self.judge(case)
            if why is not None:
                count += self.runs[case.key]
                notes.append(f"{case.key}: {why}")
            elif case.key in self.drift:
                count += self.drift[case.key]
                notes.append(f"{case.key}: output changed between runs")
        return count, notes


def _spin_once() -> int:
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i & 255, i % 13)
        seen[key] = seen.get(key, 0) + 1
        acc += len(seen) & 7
    return acc


def spin() -> float:
    """Seconds a fixed piece of pure-Python work (dict, tuple and integer
    operations, like the library's) takes now: the median of three."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _spin_once()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(starts: list[float], seconds: list[float], spins: list[tuple[float, float]]) -> list[float]:
    """Each duration in seconds of the reference machine: scaled by the
    median spin time within SPIN_WINDOW_S of its start (the nearest spin
    if none is that close)."""
    at = [t for t, _ in spins]
    out = []
    for t, dt in zip(starts, seconds):
        lo = bisect.bisect_left(at, t - SPIN_WINDOW_S)
        hi = bisect.bisect_right(at, t + SPIN_WINDOW_S)
        if lo == hi:
            lo = min(lo, len(at) - 1)
            hi = lo + 1
        out.append(dt * SPIN_REF_S / statistics.median(s for _, s in spins[lo:hi]))
    return out


def setup(build, seed: int, smoke: bool):
    """Builds the workload SETUP_REPEATS times; returns it and the median
    set-up time, raw and scaled to the reference machine."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = spin()
        t0 = perf_counter()
        workload = build(seed, smoke)
        dt = perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * SPIN_REF_S / ((before + spin()) / 2))
    return workload, statistics.median(raw), statistics.median(scaled)


def run_probes(workload) -> tuple[int, list[str]]:
    escapes, notes = 0, []
    for case in workload.probes:
        r = execute(case.argv)
        if r.error is not None:
            escapes += 1
            notes.append(f"{case.key}: escaped cli.run: {r.error}")
        elif r.code not in case.expect:
            notes.append(f"{case.key}: exit {r.code}")
    return escapes, notes


def timed(workload, seconds: float, ledger: Ledger) -> dict:
    cases = workload.cases
    for case in cases[:WARMUP_REQUESTS]:
        execute(case.argv)
    latencies, starts, spins, undecided = [], [], [], 0
    start = perf_counter()
    last_spin = start - SPIN_EVERY_S
    k = 0
    while perf_counter() - start < seconds or len(latencies) < MIN_REQUESTS:
        now = perf_counter()
        if now - last_spin >= SPIN_EVERY_S:
            spins.append((now, spin()))
            last_spin = now
        case = cases[k % len(cases)]
        k += 1
        starts.append(perf_counter())
        r = execute(case.argv)
        latencies.append(r.seconds)
        undecided += r.code == 3
        ledger.add(case, r)
    wall = perf_counter() - start
    return {"latencies": latencies, "scaled": scale(starts, latencies, spins),
            "spins": [s for _, s in spins], "undecided": undecided, "wall": wall}


def _traced_once(t, idx: int, case) -> tuple[Result, int]:
    """Run one request under tracer ``t``; returns the result and the
    rs_aa calls it made."""
    t.request = idx
    calls_before = t.counts["responsive.rs_aa_calls"]
    tr.install(t)
    try:
        r = execute(case.argv)
    finally:
        t.uninstall()
    t.end_request()
    t.counts["cli.report_bytes"] += len(r.out.encode("utf-8"))
    return r, t.counts["responsive.rs_aa_calls"] - calls_before


def traced(workload, ledger: Ledger, tracers: int = 1):
    """One pass over the pool; each request runs untraced and once under
    each of ``tracers`` fresh tracers, back to back, alternating which side
    goes first, so neither slow stretches of the machine nor warm caches
    favour one side of the overhead ratio.  Returns the first tracer's
    per-layer metrics and the tracer, every tracer's counters, and the
    problems found."""
    problems: list[str] = []
    runs = [tr.Tracer() for _ in range(tracers)]
    plain_s = traced_s = 0.0
    for idx, case in enumerate(workload.cases):
        if idx % 2:
            results = [_traced_once(t, idx, case) for t in runs]
            plain = execute(case.argv)
        else:
            plain = execute(case.argv)
            results = [_traced_once(t, idx, case) for t in runs]
        ledger.add(case, plain)
        plain_s += plain.seconds
        traced_s += results[0][0].seconds
        for r, seen in results:
            if (r.code, r.out, r.error) != (plain.code, plain.out, plain.error):
                problems.append(f"{case.key}: tracing changed the output")
            if case.rs_aa_calls and r.code == 0:
                printed = int(fields(r.out)["rs-aa-calls"][0])
                if printed != seen:
                    problems.append(f"{case.key}: report says rs-aa-calls {printed}, traced {seen}")
    counters = [{k: v for k, v in tr.layer_metrics(t).items() if not k.endswith(("_ms", ".ms"))}
                for t in runs]
    if any(c != counters[0] for c in counters):
        problems.append("traced runs of the same requests gave different counters")
    first = tr.layer_metrics(runs[0])
    first["trace.overhead_ratio"] = traced_s / plain_s
    first["trace.untraced_rps"] = len(workload.cases) / plain_s
    first["trace.traced_rps"] = len(workload.cases) / traced_s
    return first, runs[0], counters, problems


def context() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    sources = sorted((ROOT / "src" / "tep").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit, "src_tep_lines": lines, "src_tep_sha256": digest.hexdigest()[:16]}


def report(metrics: dict, units: dict, samples: dict, correct: bool, attempted: int,
           failed: int, notes: list[str], ctx: dict) -> None:
    print("context: " + json.dumps(ctx, sort_keys=True))
    for note in notes:
        print("note: " + note)
    for name, value in metrics.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:34s} {value:>14.6g} {units[name]}{extra}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool = False) -> int:
    golden = None
    if seed == DEFAULT_SEED and not record:
        golden = json.loads(GOLDEN.read_text()).get(name)
    workload, setup_raw_s, setup_s = setup(WORKLOADS[name], seed, smoke=False)
    ledger = Ledger(golden)
    if record:
        for case in workload.cases:
            ledger.add(case, execute(case.argv))
        failed, why = ledger.failed(workload.cases)
        if failed:
            raise SystemExit("perfbench: not recording wrong answers:\n" + "\n".join(why))
        record_golden(name, workload, ledger)
        return 0
    escapes, notes = run_probes(workload)
    if trace:
        first, tracer, _, problems = traced(workload, ledger)
        attempted = len(workload.cases)
        failed, why = ledger.failed(workload.cases)
        failed += len(problems)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"trace-{name}-seed{seed}.json"))
        units = dict(tr.LAYER_METRICS + TRACE_EXTRA)
        metrics = {k: first.get(k, 0) for k in units}
        metrics["cli.escapes"] = escapes
        samples = {}
    else:
        stats = timed(workload, seconds, ledger)
        lat, raw = stats["scaled"], stats["latencies"]
        attempted = len(lat)
        failed, why = ledger.failed(workload.cases)
        problems = []
        units = dict(END_TO_END)
        notes.append(
            f"host speed: spin median {statistics.median(stats['spins']) * 1e3:.4f} ms over "
            f"{len(stats['spins'])} samples (reference {SPIN_REF_S * 1e3:g} ms); raw wall clock: "
            f"setup_s {setup_raw_s:.4f}, throughput_rps {attempted / stats['wall']:.4f}, "
            f"latency_p50_ms {statistics.median(raw) * 1e3:.4f}, "
            f"latency_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.4f}")
        metrics = {
            "setup_s": setup_s,
            "throughput_rps": attempted / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000.0,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0,
            "ok_frac": (attempted - failed) / attempted,
            "decided_frac": (attempted - stats["undecided"]) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_s": SETUP_REPEATS, "throughput_rps": attempted,
                   "latency_p50_ms": attempted, "latency_p90_ms": attempted,
                   "ok_frac": attempted, "decided_frac": attempted}
    notes += why + problems
    if escapes:
        notes.append(f"{escapes} of {len(workload.probes)} malformed inputs escaped cli.run "
                     "instead of exiting 2 (reported as cli.escapes, not in failed)")
    report(metrics, units, samples, failed == 0, attempted, failed, notes, context())
    return 0


def record_golden(name: str, workload, ledger: Ledger) -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    data[name] = {}
    for case in workload.cases:
        r = ledger.first[case.key]
        data[name][case.key] = [payload_digest(r.out)] + [file_digest(p) for p in case.outputs]
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def smoke() -> int:
    """A few small requests per workload through every wrapper; checks
    answers, that tracing changes no output, and that two tracers give the
    same counters.  Prints every metric name with its unit."""
    ok = True
    for name, build in WORKLOADS.items():
        workload = build(DEFAULT_SEED, True)
        ledger = Ledger(None)
        _, _, counters, problems = traced(workload, ledger, tracers=2)
        failed, why = ledger.failed(workload.cases)
        for line in why + problems:
            print(f"{name}: {line}")
        ok = ok and failed == 0 and not problems
        print(f"{name}: {len(workload.cases)} requests, failed {failed}, "
              f"counters repeat: {counters[0] == counters[1]}")
    print("end-to-end metrics (--trace 0):")
    for metric, unit in END_TO_END:
        print(f"  {metric} [{unit}]")
    print("per-layer metrics (--trace 1):")
    for metric, unit in tr.LAYER_METRICS + TRACE_EXTRA:
        print(f"  {metric} [{unit}]")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true",
                        help="write the default seed's report digests for --workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    _load_tep()
    work = ROOT / ".perfbench_work" / f"{args.workload or 'smoke'}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    try:
        if args.smoke:
            return smoke()
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.record_golden)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
