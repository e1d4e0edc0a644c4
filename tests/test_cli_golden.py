"""Byte-for-byte CLI reports for `manipulate` and `prove`.

``cli_golden.json`` holds the exit code, stdout and stderr of every case below,
recorded before the market types shared one interface.  Each case runs in
its own directory with relative paths, so the ``args:`` and ``*-sha256:``
lines are stable too.  The cases cover every report space of every
`manipulate` method (and one space a method refuses), a `file:` candidate
per candidate format, a witness (``report:`` line) of the class-list and
the component-pair report shapes, and both `prove` replays.

TTC and TTTC are strategyproof on predominant profiles, so no case can
show a witness of the strict-order shape; ``test_order_report_format``
pins that formatter directly.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tep.cli import run
from tep.files import (serialize_instance, serialize_predominant_profile,
                       serialize_responsive_profile)
from tep.generators import random_predominant_profile, random_responsive_profile, sp_instance

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _inputs():
    return {
        "sp.tep": serialize_instance(sp_instance()),
        "house.ptep": serialize_predominant_profile(
            random_predominant_profile(3, "house", 0.5, 3)),
        "tenant.ptep": serialize_predominant_profile(
            random_predominant_profile(4, "tenant", 0.3, 6)),
        "r.rtep": serialize_responsive_profile(random_responsive_profile(3, 0.8, 0.4, 2)),
        "exact.cands": "pref 1: [(1,1)]\npref 1: [(2,2) (1,1)]\npref 1: [(2,2)] > [(3,3) (1,1)]\n",
        "house.cands": "porder 0 2 1 0\nporder 0 0 1 2\n",
        "tenant.cands": "porder 1 3 2 1 0\n",
        "r.cands": "rpref 1: H [1] ; N [1]\nrpref 1: H [0] > [1] ; N [0] > [1]\n",
    }


def _manipulate(instance, method, agent, space, *extra):
    return ["manipulate", "--instance", instance, "--method", method, "--agent", str(agent),
            "--space", space, *extra]


CASES = {
    "ttc-strict": _manipulate("house.ptep", "ttc", 0, "strict"),
    "ttc-file": _manipulate("house.ptep", "ttc", 0, "file:house.cands"),
    "ttc-subsets-refused": _manipulate("house.ptep", "ttc", 0, "subsets"),
    "tttc-strict": _manipulate("tenant.ptep", "tttc", 1, "strict"),
    "tttc-file": _manipulate("tenant.ptep", "tttc", 1, "file:tenant.cands"),
    "pra-strict-witness": _manipulate("r.rtep", "pra", 1, "strict", "--cap", "3000"),
    "pra-strict-none": _manipulate("r.rtep", "pra", 0, "strict", "--cap", "3000"),
    "pra-strict-cap": _manipulate("r.rtep", "pra", 0, "strict", "--cap", "5"),
    "pra-file-witness": _manipulate("r.rtep", "pra", 1, "file:r.cands"),
    "pra-subsets-refused": _manipulate("r.rtep", "pra", 1, "subsets"),
    "exact-subsets": _manipulate("sp.tep", "exact", 1, "subsets"),
    "exact-subsets-exponential": _manipulate("sp.tep", "exact", 0, "subsets", "--weights",
                                             "exponential"),
    "exact-file-witness": _manipulate("sp.tep", "exact", 1, "file:exact.cands"),
    "exact-strict-refused": _manipulate("sp.tep", "exact", 1, "strict"),
    "prove-sp": ["prove", "--which", "sp"],
    "prove-core-consistency": ["prove", "--which", "core-consistency"],
}


def run_case(name, directory, monkeypatch):
    """(exit code, stdout, stderr) of one case, run in ``directory``."""
    for filename, text in _inputs().items():
        (directory / filename).write_text(text)
    monkeypatch.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(CASES[name])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path, monkeypatch) == (
        expected["exit"], expected["stdout"], expected["stderr"])


def test_golden_cases_show_each_witness_shape():
    golden = json.loads(GOLDEN.read_text())
    reports = [line for case in golden.values() for line in case["stdout"].splitlines()
               if line.startswith("report: ")]
    assert any(line.startswith("report: H ") for line in reports)
    assert any(line.startswith("report: [(") for line in reports)


def test_order_report_format(tmp_path, monkeypatch):
    """A strict-order witness prints as the order's items, seen through a
    stand-in for TTC that gives agent 0 house 1 only for the report 0 1 2."""
    from tep import cli
    from tep.model import Allocation

    def mechanism(prof):
        return Allocation((1, 0, 2) if prof.primary[0] == (0, 1, 2) else (0, 1, 2))

    (tmp_path / "p.ptep").write_text(
        "tep v1\nagents 3\nmode house\n"
        "ppref 0: P 1 0 2 ; T [0 1 2]\nppref 1: P 0 1 2 ; T [0 1 2]\n"
        "ppref 2: P 2 0 1 ; T [0 1 2]\n")
    (tmp_path / "c.cands").write_text("porder 0 2 1 0\nporder 0 0 1 2\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ttc", mechanism)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run(_manipulate("p.ptep", "ttc", 0, "file:c.cands", "--quiet"))
    assert code == 0
    assert buffer.getvalue() == ("agent: 0\noutcome-before: (0,0)\noutcome-after: (1,1)\n"
                                 "report: 0 1 2\n")
