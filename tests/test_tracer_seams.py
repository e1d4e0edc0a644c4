"""The benchmark tracer's seams into the library.

``perfbench/tracer.py`` wraps library functions by module attribute name,
so a renamed or moved function breaks every traced benchmark run.  One
test installs the tracer and takes it out again: install must find every
name it wraps, and uninstall must put back the very objects it replaced.
The other checks that requests pass through the wrapped names: a caller
that bound a function before the tracer was installed would bypass it.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from tep import cli
from tep.cli import parse_report
from tep.files import (serialize_instance, serialize_predominant_profile,
                       serialize_responsive_profile)
from tep.generators import random_predominant_profile, random_responsive_profile, sp_instance

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_seam_and_uninstall_restores_it():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        # The first patch of an attribute recorded the library's own object.
        originals = {}
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
        unwrapped = [attr for (owner, attr), original in originals.items()
                     if getattr(owner, attr) is original]
    finally:
        tracer.uninstall()
    assert originals and not unwrapped
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert not tracer._patches


def test_solve_requests_pass_through_the_wrapped_mechanisms(tmp_path):
    """Each solve opens exactly one span of its mechanism's wrapper, and the
    rs-aa-calls that pra prints counts the traced rs_aa calls."""
    profiles = {
        "pra": serialize_responsive_profile(random_responsive_profile(6, 0.7, 0.3, 3)),
        "ttc": serialize_predominant_profile(random_predominant_profile(5, "house", 0.3, 3)),
        "tttc": serialize_predominant_profile(random_predominant_profile(5, "tenant", 0.3, 3)),
    }
    span = {"pra": "cli.pra_rs:calls", "ttc": "cli.ttc:calls", "tttc": "cli.tttc:calls"}
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    opened, reports = {}, {}
    try:
        tracer_module.install(tracer)
        for method, text in profiles.items():
            path = tmp_path / f"{method}.txt"
            path.write_text(text)
            before = tracer.counts.copy()
            out = io.StringIO()
            with redirect_stdout(out):
                # through the module attribute, which the tracer wrapped
                assert cli.run(["solve", "--instance", str(path), "--method", method]) == 0
            opened[method] = tracer.counts - before
            reports[method] = parse_report(out.getvalue())
    finally:
        tracer.uninstall()
    for method, counts in opened.items():
        assert {name: counts[name] for name in span.values() if counts[name]} == \
            {span[method]: 1}, method
    assert opened["pra"]["responsive.rs_aa:calls"] == int(reports["pra"]["rs-aa-calls"]) == 34


def test_manipulate_requests_pass_through_the_wrapped_mechanisms(tmp_path):
    """Each manipulate replays its mechanism through the wrapper of that
    mechanism alone: the truth's run opens a span before any report, so a
    small cap still shows one."""
    markets = {
        "pra": serialize_responsive_profile(random_responsive_profile(5, 0.7, 0.3, 3)),
        "ttc": serialize_predominant_profile(random_predominant_profile(4, "house", 0.3, 3)),
        "tttc": serialize_predominant_profile(random_predominant_profile(4, "tenant", 0.3, 3)),
        "exact": serialize_instance(sp_instance()),
    }
    span = {"pra": "cli.pra_rs:calls", "ttc": "cli.ttc:calls", "tttc": "cli.tttc:calls",
            "exact": "programs.solve_exact_max_weight:calls"}
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    opened = {}
    try:
        tracer_module.install(tracer)
        for method, text in markets.items():
            path = tmp_path / f"{method}.txt"
            path.write_text(text)
            before = tracer.counts.copy()
            space = "subsets" if method == "exact" else "strict"
            with redirect_stdout(io.StringIO()):
                assert cli.run(["manipulate", "--instance", str(path), "--method", method,
                                "--agent", "0", "--space", space, "--cap", "3"]) in (0, 1, 3)
            opened[method] = tracer.counts - before
    finally:
        tracer.uninstall()
    for method, counts in opened.items():
        assert {name for name in span.values() if counts[name]} == {span[method]}, method
