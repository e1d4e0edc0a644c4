"""Requests run with Python's cyclic collector paused.

``tep.cli.run`` disables the collector around the subcommand handler and
restores it on every exit path; refcounting alone frees a request's objects
only if the request builds no reference cycle.  These tests pin both halves:
the collector comes back as the caller left it, and after a warm-up (which
fills first-use caches, not garbage) no request that reaches a handler
leaves anything for ``gc.collect()`` to find.
"""

import gc
import io
from contextlib import redirect_stdout

import pytest

from tep import cli
from tep.files import serialize_allocation
from tep.model import Allocation


def invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.run(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files the requests read, made by ``tep gen`` where it can."""
    d = tmp_path_factory.mktemp("collector")
    for argv in (["gen", "--family", "empty-core", "--out", str(d / "ring.tep")],
                 ["gen", "--family", "sp", "--out", str(d / "sp.tep")],
                 ["gen", "--family", "random-responsive", "--n", "3", "--density", "0.8",
                  "--ties", "0.4", "--seed", "2", "--out", str(d / "r.rtep")],
                 ["gen", "--family", "random-predominant", "--n", "3", "--seed", "3",
                  "--out", str(d / "p.ptep")],
                 ["gen", "--family", "random-predominant", "--n", "4", "--mode", "tenant",
                  "--ties", "0.3", "--seed", "6", "--out", str(d / "t.ptep")]):
        assert invoke(argv)[0] == 0
    (d / "id.alloc").write_text(serialize_allocation(Allocation((0, 1, 2, 3))))
    (d / "non-ir.alloc").write_text(serialize_allocation(Allocation((0, 2, 3, 1))))
    (d / "cycle.alloc").write_text(serialize_allocation(Allocation((1, 2, 3, 0))))
    (d / "pref.txt").write_text("pref 1: [(2,2)] > [(1,1)]\n")
    (d / "porder.txt").write_text("porder 0 0 1 2\n")
    (d / "rpref.txt").write_text("rpref 0: H [0] ; N [0]\n")
    (d / "cover.x3c").write_text("1\n0 1 2\n0 1 2\n0 1 2\n")
    (d / "bad.tep").write_text("garbage\n")
    (d / "n51.tep").write_text("tep v1\nagents 51\n")
    return d


REQUESTS = {  # id: (exit code, argv with @-named inputs)
    **{f"gen-{family}": (0, ("gen", "--family", family, "--out", "@out.tep"))
       for family in ("empty-core", "sp", "random", "random-responsive", "random-predominant")},
    **{f"gen-{family}": (0, ("gen", "--family", family, "--x3c", "@cover.x3c",
                             "--out", "@out.tep")) for family in ("x3c-core", "x3c-top")},
    "solve-ttc": (0, ("solve", "--instance", "@p.ptep", "--method", "ttc")),
    "solve-tttc": (0, ("solve", "--instance", "@t.ptep", "--method", "tttc")),
    "solve-pra": (0, ("solve", "--instance", "@r.rtep", "--method", "pra")),
    "solve-exact": (0, ("solve", "--instance", "@sp.tep", "--method", "exact")),
    **{f"verify-{check}-{alloc}": (code, ("verify", "--instance", "@sp.tep", "--allocation",
                                          f"@{alloc}.alloc", "--check", check))
       for check in ("ir", "po", "wpo", "core")
       for alloc, code in (("cycle", 0), ("non-ir" if check == "ir" else "id", 1))},
    "oracle-ir": (0, ("oracle", "--instance", "@ring.tep", "--enumerate", "ir")),
    "oracle-po": (0, ("oracle", "--instance", "@ring.tep", "--enumerate", "po")),
    "oracle-core": (1, ("oracle", "--instance", "@ring.tep", "--enumerate", "core")),
    "export-ilp": (0, ("export", "--instance", "@sp.tep", "--form", "ilp", "--out", "@o.lp")),
    "export-qp": (0, ("export", "--instance", "@sp.tep", "--form", "qp", "--out", "@o.lp")),
    "manipulate-exact-subsets": (1, ("manipulate", "--instance", "@sp.tep", "--method", "exact",
                                     "--agent", "2", "--space", "subsets")),
    "manipulate-exact-file": (0, ("manipulate", "--instance", "@sp.tep", "--method", "exact",
                                  "--agent", "1", "--space", "file:@pref.txt")),
    "manipulate-ttc-strict": (1, ("manipulate", "--instance", "@p.ptep", "--method", "ttc",
                                  "--agent", "0", "--space", "strict")),
    "manipulate-ttc-file": (1, ("manipulate", "--instance", "@p.ptep", "--method", "ttc",
                                "--agent", "0", "--space", "file:@porder.txt")),
    "manipulate-tttc-strict": (1, ("manipulate", "--instance", "@t.ptep", "--method", "tttc",
                                   "--agent", "0", "--space", "strict")),
    "manipulate-pra-strict": (1, ("manipulate", "--instance", "@r.rtep", "--method", "pra",
                                  "--agent", "0", "--space", "strict")),
    "manipulate-pra-file": (1, ("manipulate", "--instance", "@r.rtep", "--method", "pra",
                                "--agent", "0", "--space", "file:@rpref.txt")),
    "prove-sp": (0, ("prove", "--which", "sp")),
    "prove-core-consistency": (0, ("prove", "--which", "core-consistency")),
    "parse-error": (2, ("verify", "--instance", "@bad.tep", "--allocation", "@id.alloc",
                        "--check", "po")),
    "os-error": (2, ("solve", "--instance", "@missing.tep", "--method", "exact")),
    "unsupported-space": (2, ("manipulate", "--instance", "@sp.tep", "--method", "exact",
                              "--agent", "0", "--space", "strict")),
    "node-budget": (3, ("oracle", "--instance", "@ring.tep", "--enumerate", "core",
                        "--node-budget", "0")),
    "size-bound": (3, ("export", "--instance", "@n51.tep", "--form", "ilp", "--out", "@o.lp")),
    "report-cap": (3, ("manipulate", "--instance", "@sp.tep", "--method", "exact",
                       "--agent", "2", "--space", "subsets", "--cap", "0")),
}


def _request(d, key):
    """The exit code and argv of a request, each ``@name`` in its arguments
    replaced by the path of input file ``name``."""
    code, args = REQUESTS[key]
    return code, [a.replace("@", f"{d}/") for a in args]


@pytest.mark.parametrize("key", list(REQUESTS))
def test_a_request_leaves_no_cyclic_garbage(inputs, capsys, key):
    """Run with the collector off from start to end, so that a cycle the
    request makes survives to the ``gc.collect()`` after it, whatever the
    allocation counts."""
    expected, argv = _request(inputs, key)
    assert invoke(argv)[0] == expected  # warm-up
    gc.disable()
    try:
        gc.collect()
        code = invoke(argv)[0]
        garbage = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, garbage) == (expected, 0)


EXITS = {  # id: request, or an argv the argument parser refuses
    "exit-0": "solve-exact",
    "exit-1": "oracle-core",
    "exit-2-parse-error": "parse-error",
    "exit-2-os-error": "os-error",
    "exit-2-argparse": ["oracle", "--enumerate", "everything"],
    "exit-3-node-budget": "node-budget",
    "exit-3-size-bound": "size-bound",
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("key", list(EXITS))
def test_run_leaves_the_collector_as_it_found_it(inputs, capsys, key, enabled):
    request = EXITS[key]
    expected, argv = (2, request) if isinstance(request, list) else _request(inputs, request)
    if not enabled:
        gc.disable()
    try:
        code = invoke(argv)[0]
        assert (code, gc.isenabled()) == (expected, enabled)
    finally:
        gc.enable()
    capsys.readouterr()


def test_the_handler_runs_with_the_collector_paused(monkeypatch):
    seen = []

    def handler(args, report):
        seen.append(gc.isenabled())
        raise RuntimeError("escapes run")

    monkeypatch.setitem(cli._HANDLERS, "prove", handler)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="escapes run"):
        invoke(["prove", "--which", "sp"])
    assert (seen, gc.isenabled()) == ([False], True)
