"""CLI end-to-end: subcommand behavior, exit codes, report determinism."""

import io
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import references as ref
import tep
from tep import cli, model
from tep.cli import parse_report, run
from tep.files import (parse_instance, parse_responsive_profile, serialize_allocation,
                       serialize_instance, serialize_predominant_profile)
from tep.generators import random_instance, sp_instance
from tep.model import Allocation, Outcome, make_instance
from tep.rng import SplitMix64


def invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run(argv)
    return code, buffer.getvalue()


@pytest.fixture()
def ring_file(tmp_path):
    path = tmp_path / "ring.tep"
    code, _ = invoke(["gen", "--family", "empty-core", "--out", str(path)])
    assert code == 0
    return path


def test_gen_then_core_oracle_reports_empty_core(ring_file):
    code, out = invoke(["oracle", "--instance", str(ring_file), "--enumerate", "core"])
    assert code == 1
    report = parse_report(out)
    assert report["result"] == "none"
    assert report["command"] == "oracle"
    assert "instance-sha256" in report


def test_ir_enumeration_lists_eleven(ring_file):
    code, out = invoke(["oracle", "--instance", str(ring_file), "--enumerate", "ir"])
    assert code == 0
    report = parse_report(out)
    assert report["count"] == "11"
    assert len(report["allocation"]) == 11


def test_solve_ttc_swap(tmp_path):
    from tep.predominant import HOUSE, PredominantProfile

    prof = PredominantProfile(2, (0, 1), HOUSE, ((1, 0), (0, 1)),
                              ((frozenset({0, 1}),), (frozenset({0, 1}),)))
    path = tmp_path / "swap2.ptep"
    path.write_text(serialize_predominant_profile(prof))
    code, out = invoke(["solve", "--instance", str(path), "--method", "ttc"])
    assert code == 0
    assert parse_report(out)["allocation"] == "1 0"


def test_verify_identity_is_ir(ring_file, tmp_path):
    alloc_path = tmp_path / "id.alloc"
    alloc_path.write_text(serialize_allocation(Allocation((0, 1, 2, 3, 4))))
    code, out = invoke(["verify", "--instance", str(ring_file),
                        "--allocation", str(alloc_path), "--check", "ir"])
    assert code == 0
    assert parse_report(out)["holds"] == "true"
    code, out = invoke(["verify", "--instance", str(ring_file),
                        "--allocation", str(alloc_path), "--check", "core"])
    assert code == 1
    assert parse_report(out)["holds"] == "false"


def test_solve_exact_and_pra(tmp_path, ring_file):
    code, out = invoke(["solve", "--instance", str(ring_file),
                        "--method", "exact", "--weights", "borda"])
    assert code == 0
    report = parse_report(out)
    assert report["allocation"] == "0 2 1 4 3"
    assert report["value"] == "6"

    rpath = tmp_path / "r.rtep"
    code, _ = invoke(["gen", "--family", "random-responsive", "--n", "5",
                      "--density", "0.7", "--ties", "0.3", "--seed", "9",
                      "--out", str(rpath)])
    assert code == 0
    code, out = invoke(["solve", "--instance", str(rpath), "--method", "pra",
                        "--order", "random", "--seed", "4"])
    assert code == 0
    assert "rs-aa-calls" in parse_report(out)


def test_solve_pra_keeps_a_permuted_endowment(tmp_path):
    """Agent 0 owns house 1 and agent 1 house 0; each accepts only its own
    house, so the allocation is the endowment."""
    rpath = tmp_path / "swap.rtep"
    rpath.write_text("tep v1\nagents 2\nendow 1 0\n"
                     "rpref 0: H [1] ; N [0]\nrpref 1: H [0] ; N [1]\n")
    code, out = invoke(["solve", "--instance", str(rpath), "--method", "pra"])
    assert code == 0
    report = parse_report(out)
    assert (report["allocation"], report["rs-aa-calls"]) == ("1 0", "4")
    prof = parse_responsive_profile(rpath.read_text())
    assert tep.is_rs_ir(prof, tep.Allocation(tuple(map(int, report["allocation"].split()))))


def test_an_instance_file_is_answered_in_its_own_labels(tmp_path):
    """Agent 0 owns house 1 and agent 1 house 2, and each ranks the swap of
    those two houses first; agent 2 lists only its own outcome.  The exact
    solve gives the swap, and the swap written in the file's labels is IR."""
    path = tmp_path / "endow.tep"
    path.write_text("tep v1\nagents 3\nendow 1 2 0\n"
                    "pref 0: [(2,1)]\npref 1: [(1,0)]\npref 2: [(0,2)]\n")
    code, out = invoke(["solve", "--instance", str(path), "--method", "exact"])
    assert (code, parse_report(out)["allocation"]) == (0, "2 1 0")
    alloc = tmp_path / "swap.alloc"
    alloc.write_text("assign 0 2\nassign 1 1\nassign 2 0\n")
    code, out = invoke(["verify", "--instance", str(path), "--allocation", str(alloc),
                        "--check", "ir"])
    assert (code, parse_report(out)["holds"]) == (0, "true")


def test_permuted_endowment_answers_agree_with_a_brute_force(tmp_path):
    """Seeded instance files with a permuted endow line (n <= 5): verify
    ir|po|wpo, oracle --enumerate ir|po, and the value of solve --method
    exact, which the printed allocation attains, are the brute force's in
    the file's own labels."""
    rng = SplitMix64(20261020)
    path, alloc = tmp_path / "inst.tep", tmp_path / "inst.alloc"
    verdicts = set()
    for seed in range(40):
        n = 2 + seed % 4
        endow = list(range(n))
        while endow == sorted(endow):
            rng.shuffle(endow)
        head, agents, rest = serialize_instance(
            random_instance(n, (0.3, 0.6, 0.9)[seed % 3], (0.0, 0.4)[seed // 3 % 2],
                            70_000 + seed)).split("\n", 2)
        text = f"{head}\n{agents}\nendow {' '.join(map(str, endow))}\n{rest}"
        path.write_text(text)
        want = ref.brute_force_answers(text)
        for check in ("ir", "po"):
            code, out = invoke(["oracle", "--instance", str(path), "--enumerate", check])
            listed = {tuple(map(int, line.split(":")[1].split()))
                      for line in out.splitlines() if line.startswith("allocation:")}
            assert (code, listed) == (0 if want[check] else 1, want[check]), (text, check)
        code, out = invoke(["solve", "--instance", str(path), "--method", "exact"])
        report = parse_report(out)
        best = tuple(map(int, report["allocation"].split()))
        assert code == 0 and int(report["value"]) == want["borda"][best], text
        assert want["borda"][best] == max(want["borda"].values()), text
        candidates = sorted(want["borda"])
        for p in (best, rng.choice(sorted(want["ir"])), rng.choice(candidates)):
            alloc.write_text("".join(f"assign {i} {h}\n" for i, h in enumerate(p)))
            for check in ("ir", "po", "wpo"):
                code, out = invoke(["verify", "--instance", str(path),
                                    "--allocation", str(alloc), "--check", check])
                holds = p in want[check]
                assert (code, parse_report(out)["holds"]) == (1 - holds, str(holds).lower()), \
                    (text, p, check)
                verdicts.add((check, holds))
    assert verdicts == {(c, h) for c in ("ir", "po", "wpo") for h in (True, False)}


def test_the_readme_cli_block_runs_as_written(tmp_path, monkeypatch):
    """The README's CLI lines, run in order in an empty directory: each exits
    as its '# exit N' comment says (0 without one), and the one marked
    '# N allocations' lists that many.  Lines that do not start with 'tep'
    run in sh."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    counted = 0
    for line in block.splitlines():
        if line.startswith("#"):
            continue
        comment = line.partition("  #")[2]
        exits = re.search(r"exit (\d)", comment)
        if line.startswith("tep "):
            code, out = invoke(shlex.split(line, comments=True)[1:])
        else:
            code = subprocess.run(["sh", "-c", line]).returncode
        assert code == (int(exits.group(1)) if exits else 0), line
        listed = re.search(r"(\d+) allocations", comment)
        if listed:
            assert parse_report(out)["count"] == listed.group(1), line
            counted += 1
    assert counted == 1


def test_export_writes_program(tmp_path, ring_file):
    out_path = tmp_path / "ring.lp"
    code, out = invoke(["export", "--instance", str(ring_file), "--form", "ilp",
                        "--weights", "exponential", "--out", str(out_path)])
    assert code == 0
    report = parse_report(out)
    assert report["wrote"] == str(out_path)
    text = out_path.read_text()
    assert text.startswith("maximize")
    assert int(report["variables"]) == 125


def test_prove_subcommands(tmp_path):
    code, out = invoke(["prove", "--which", "sp"])
    assert code == 0
    report = parse_report(out)
    assert report["closed"] == "true"
    code, out = invoke(["prove", "--which", "core-consistency"])
    assert code == 0
    assert parse_report(out)["closed"] == "true"


def test_prove_core_consistency_runs_under_the_node_budget(capsys):
    """Each enumeration of either replay, and each core-stability check in
    the core-consistency one, gets --node-budget; the largest search for
    the IR allocations needs 108 nodes, more than any core check."""
    for which in ("sp", "core-consistency"):
        for budget in ("0", "1", "5", "107"):
            code, out = invoke(["prove", "--which", which, "--node-budget", budget])
            assert (code, out) == (3, ""), (which, budget)
            assert capsys.readouterr().err == "budget exceeded: search node budget exhausted\n"
        code, out = invoke(["prove", "--which", which, "--node-budget", "108"])
        assert code == 0, which
        assert parse_report(out)["closed"] == "true"


def test_prove_reports_an_open_branch(monkeypatch):
    """A replay that fails a check prints the error and exits 1."""
    tampered = sp_instance().with_report(0, [[Outcome(0, 0)]])
    monkeypatch.setattr(tep.incentives, "sp_instance", lambda: tampered)
    code, out = invoke(["prove", "--which", "core-consistency"])
    assert code == 1
    report = parse_report(out)
    assert report["error"] == "root core set is ['0 1 3 2']"
    assert report["closed"] == "false"


def test_manipulate_with_candidate_file(tmp_path):
    inst_path = tmp_path / "sp.tep"
    inst_path.write_text(serialize_instance(sp_instance()))
    cand_path = tmp_path / "cands.txt"
    cand_path.write_text("pref 1: [(3,3) (1,1)] > [(2,2)]\npref 1: [(2,2)] > [(1,1)]\n")
    code, out = invoke(["manipulate", "--instance", str(inst_path), "--method", "exact",
                        "--agent", "1", "--space", f"file:{cand_path}"])
    report = parse_report(out)
    # the exact mechanism picks the four-way trade on this market; the
    # first candidate already forces the two-swap allocation, improving
    # agent 1, and is printed with its class in file order, not sorted
    assert code == 0
    assert report["outcome-before"] == "(2,0)"
    assert report["outcome-after"] == "(2,2)"
    assert report["report"] == "[(3,3) (1,1)] > [(2,2)]"
    assert "candidate-sha256" not in report  # only the instance is digested


def test_manipulate_strict_space_none_for_ttc(tmp_path):
    ppath = tmp_path / "p.ptep"
    code, _ = invoke(["gen", "--family", "random-predominant", "--n", "3",
                      "--ties", "0.5", "--seed", "3", "--out", str(ppath)])
    assert code == 0
    code, out = invoke(["manipulate", "--instance", str(ppath), "--method", "ttc",
                        "--agent", "0", "--space", "strict"])
    assert code == 1
    assert parse_report(out)["result"] == "none"


def test_solve_tttc_and_manipulate_pra(tmp_path):
    ppath = tmp_path / "t.ptep"
    code, _ = invoke(["gen", "--family", "random-predominant", "--n", "4",
                      "--mode", "tenant", "--ties", "0.3", "--seed", "6",
                      "--out", str(ppath)])
    assert code == 0
    code, out = invoke(["solve", "--instance", str(ppath), "--method", "tttc"])
    assert code == 0
    assert len(parse_report(out)["allocation"].split()) == 4

    rpath = tmp_path / "r.rtep"
    code, _ = invoke(["gen", "--family", "random-responsive", "--n", "3",
                      "--density", "0.8", "--ties", "0.4", "--seed", "2",
                      "--out", str(rpath)])
    assert code == 0
    code, out = invoke(["manipulate", "--instance", str(rpath), "--method", "pra",
                        "--agent", "0", "--space", "strict", "--cap", "2000"])
    assert code in (0, 1)  # no claim either way; the search must just run
    report = parse_report(out)
    assert report["agent"] == "0"


def test_export_qp_via_cli(tmp_path, ring_file):
    out_path = tmp_path / "ring_qp.lp"
    code, out = invoke(["export", "--instance", str(ring_file), "--form", "qp",
                        "--out", str(out_path)])
    assert code == 0
    assert int(parse_report(out)["variables"]) == 25
    assert "*" in out_path.read_text()


def test_quiet_mode_prints_payload_only(ring_file):
    code, out = invoke(["oracle", "--instance", str(ring_file), "--enumerate", "core",
                        "--quiet"])
    assert code == 1
    assert out == "enumerate: core\nresult: none\n"


def test_timing_appends_one_last_line_and_changes_nothing_else(ring_file):
    argv = ["oracle", "--instance", str(ring_file), "--enumerate", "ir"]
    plain = invoke(argv)
    code, out = invoke(argv + ["--timing"])
    *report, last = out.splitlines(keepends=True)
    assert code == plain[0]
    assert re.fullmatch(r"time-ms: \d+\.\d\n", last)
    assert "".join(report) == plain[1]
    # --quiet prints the payload only, so no time line either
    assert invoke(argv + ["--quiet", "--timing"]) == invoke(argv + ["--quiet"])


def test_gen_sp_writes_the_witness_market(tmp_path):
    path = tmp_path / "sp.tep"
    assert invoke(["gen", "--family", "sp", "--out", str(path)])[0] == 0
    assert parse_instance(path.read_text()) == sp_instance()


def test_reports_are_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.tep", tmp_path / "b.tep"]
    outs = []
    for path in paths:
        code, out = invoke(["gen", "--family", "random", "--n", "6", "--density", "0.5",
                            "--ties", "0.4", "--seed", "11", "--out", str(path)])
        assert code == 0
        outs.append(out.replace(str(path), "OUT"))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert outs[0] == outs[1]
    runs = [invoke(["oracle", "--instance", str(paths[0]), "--enumerate", "ir"])
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_exit_codes_for_bad_inputs(tmp_path, ring_file):
    bad = tmp_path / "bad.tep"
    bad.write_text("tep v1\nagents 2\npref 0: [(9,9)]\n")
    code, _ = invoke(["oracle", "--instance", str(bad), "--enumerate", "ir"])
    assert code == 2
    code, _ = invoke(["oracle", "--instance", str(tmp_path / "missing.tep"),
                      "--enumerate", "ir"])
    assert code == 2
    code, _ = invoke(["nonsense"])
    assert code == 2
    # search budget exceeded: a node budget of 0 stops the Pareto check at once
    alloc_path = tmp_path / "id.alloc"
    alloc_path.write_text(serialize_allocation(Allocation((0, 1, 2, 3, 4))))
    code, _ = invoke(["verify", "--instance", str(ring_file),
                      "--allocation", str(alloc_path), "--check", "po", "--node-budget", "0"])
    assert code == 3


def _identity_file(tmp_path):
    path = tmp_path / "id4.alloc"
    path.write_text(serialize_allocation(Allocation((0, 1, 2, 3))))
    return str(path)


def _non_utf8_instance(tmp_path):
    path = tmp_path / "latin1.tep"
    path.write_bytes(serialize_instance(sp_instance()).encode("utf-8") + b"# caf\xe9\n")
    return ["verify", "--instance", str(path), "--allocation", _identity_file(tmp_path),
            "--check", "ir"]


def _directory_instance(tmp_path):
    return ["verify", "--instance", str(tmp_path), "--allocation", _identity_file(tmp_path),
            "--check", "ir"]


def _missing_instance(tmp_path):
    return ["verify", "--instance", str(tmp_path / "missing.tep"), "--allocation",
            _identity_file(tmp_path), "--check", "ir"]


def _x3c(tmp_path, text):
    """gen argv for an x3c-core gadget from an exact-cover file holding ``text``."""
    path = tmp_path / "cover.x3c"
    path.write_text(text)
    return ["gen", "--family", "x3c-core", "--x3c", str(path), "--out", str(tmp_path / "o.tep")]


def _allocation(tmp_path, text):
    """verify argv checking the allocation file ``text`` on the witness market."""
    inst, alloc = tmp_path / "sp.tep", tmp_path / "a.alloc"
    inst.write_text(serialize_instance(sp_instance()))
    alloc.write_text(text)
    return ["verify", "--instance", str(inst), "--allocation", str(alloc), "--check", "ir"]


def _candidates(tmp_path, line, method="exact"):
    """manipulate argv for agent 0 with a one-line candidate file."""
    if method == "exact":
        inst = tmp_path / "sp.tep"
        inst.write_text(serialize_instance(sp_instance()))
    else:
        inst = tmp_path / "p.ptep"
        code, _ = invoke(["gen", "--family", "random-predominant", "--n", "3",
                          "--seed", "3", "--out", str(inst)])
        assert code == 0
    cands = tmp_path / "cands.txt"
    cands.write_text(line + "\n")
    return ["manipulate", "--instance", str(inst), "--method", method, "--agent", "0",
            "--space", f"file:{cands}"]


def _non_utf8_candidates(tmp_path):
    argv = _candidates(tmp_path, "pref 0: [(0,0)]")
    (tmp_path / "cands.txt").write_bytes(b"pref 0: [(0,0)]  # caf\xe9\n")
    return argv


def _profile_with(tmp_path, suffix, text, method):
    """argv solving a one-file profile with the given method."""
    path = tmp_path / f"p.{suffix}"
    path.write_text(text)
    return ["solve", "--instance", str(path), "--method", method]


@pytest.mark.parametrize("make_argv,message", [
    (_non_utf8_instance, "syntax: instance file is not UTF-8 (byte 245)"),
    (_directory_instance, "input error: io: [Errno 21] Is a directory: "),
    (_missing_instance, "input error: io: [Errno 2] No such file or directory: "),
    (lambda tmp: ["gen", "--family", "random", "--n", "50", "--out", str(tmp / "x.tep")],
     "syntax: n must be between 1 and 12"),
    (lambda tmp: ["gen", "--family", "random", "--density", "1.5", "--out", str(tmp / "x.tep")],
     "syntax: density and tie rate must lie in [0, 1]"),
    (lambda tmp: _x3c(tmp, "1\n0 1 x\n0 1 2\n0 1 2\n"),
     "syntax: expected an integer element, got 'x' (line 2)"),
    (lambda tmp: _candidates(tmp, "pref x: [(1,1)]"),
     "syntax: expected an integer agent, got 'x' (line 1)"),
    (lambda tmp: _candidates(tmp, "pref 0: [(9,9)]"),
     "index-range: house 9 out of range 0..3 (line 1)"),
    (lambda tmp: _candidates(tmp, "porder x 0 1 2", "ttc"),
     "syntax: expected an integer agent, got 'x' (line 1)"),
    (lambda tmp: _candidates(tmp, "porder 0 1 x 2", "ttc"),
     "syntax: expected an integer item, got 'x' (line 1)"),
    (lambda tmp: _candidates(tmp, "porder 0 1 9 2", "ttc"),
     "index-range: item 9 out of range 0..2 (line 1)"),
    (lambda tmp: _profile_with(tmp, "rtep", "tep v1\nagents 1\nrpref 0: H [0 0] ; N [0]\n", "pra"),
     "duplicate-item: agent 0 lists house 0 twice (line 3)"),
    (lambda tmp: _profile_with(tmp, "rtep", "tep v1\nagents 1\nrpref 0: H [0] ; N [0 0]\n", "pra"),
     "duplicate-item: agent 0 lists tenant 0 twice (line 3)"),
    (lambda tmp: _profile_with(tmp, "ptep", "tep v1\nagents 2\nmode house\n"
                               "ppref 0: P 0 1 ; T [0 0 1]\nppref 1: P 1 0 ; T [1] > [0]\n",
                               "ttc"),
     "duplicate-item: agent 0 lists item 0 twice (line 4)"),
    (lambda tmp: _candidates(tmp, "pref 0: [(1,1) (1,1)] > [(0,0)]"),
     "duplicate-outcome: agent 0 lists (1,1) twice (line 1)"),
    (lambda tmp: _candidates(tmp, "pref 0: [] > [(0,0)]"),
     "syntax: empty indifference class (line 1)"),
    (_non_utf8_candidates, "syntax: candidate file is not UTF-8 (byte 22)"),
    (lambda tmp: _profile_with(tmp, "tep", "tep v1\nagents 1\npref 0: [(0,0)] >\n", "exact"),
     "syntax: empty indifference class list (line 3)"),
    (lambda tmp: _profile_with(tmp, "ptep", "tep v1\nagents 1\nmode house\n"
                               "ppref 0: P 0 1 T [0 1]\n", "ttc"),
     "syntax: ppref body must look like 'P 2 0 1 ; T [..] > [..]' (line 4)"),
    (lambda tmp: _profile_with(tmp, "tep", "tep v1\nagents 1\npref 0 [(0,0)]\n", "exact"),
     "syntax: expected 'pref <agent>: [..] > [..]', got 'pref 0 [(0,0)]' (line 3)"),
    (lambda tmp: _profile_with(tmp, "ptep", "tep v1\nagents 1\nmode both\n"
                               "ppref 0: P 0 ; T [0]\n", "ttc"),
     "syntax: expected 'mode house|tenant', got 'mode both' (line 3)"),
    (lambda tmp: _profile_with(tmp, "tep", "# nothing but a comment\n", "exact"),
     "syntax: empty instance file (line 1)"),
    (lambda tmp: _profile_with(tmp, "tep", "tep v1\n", "exact"),
     "syntax: missing 'agents <n>' line (line 1)"),
    (lambda tmp: _allocation(tmp, "assign 0\n"),
     "syntax: expected 'assign <agent> <house>', got 'assign 0' (line 1)"),
    (lambda tmp: _allocation(tmp, "assign 0 1\nassign 1 1\n"),
     "duplicate-item: house 1 is assigned to agents 0 and 1 (line 2)"),
    (lambda tmp: _candidates(tmp, "porder", "ttc"),
     "syntax: expected 'porder <agent> <item>...' (line 1)"),
    (lambda tmp: _x3c(tmp, "1 2\n0 1 2\n"),
     "syntax: exact-cover file: first line must be m (line 1)"),
    (lambda tmp: _x3c(tmp, "0\n"), "input error: syntax: need m >= 1\n"),
    (lambda tmp: ["gen", "--family", "x3c-core", "--out", str(tmp / "o.tep")],
     "syntax: --family x3c-core needs --x3c FILE"),
    (lambda tmp: ["manipulate", "--instance", _profile_with(tmp, "tep", "tep v1\nagents 2\n",
                                                            "exact")[2],
                  "--method", "exact", "--agent", "5", "--space", "subsets"],
     "index-range: agent 5 out of range 0..1"),
], ids=["non-utf8-instance", "directory-instance", "missing-instance", "gen-n-50", "gen-density-1.5",
        "x3c-non-integer", "pref-non-integer-agent", "pref-out-of-range-outcome",
        "porder-non-integer-agent", "porder-non-integer-item", "porder-out-of-range-item",
        "rpref-house-twice", "rpref-tenant-twice", "ppref-item-twice",
        "pref-candidate-outcome-twice", "pref-candidate-empty-class", "non-utf8-candidates",
        "pref-trailing-separator", "ppref-without-semicolon", "pref-without-colon",
        "mode-both", "comment-only-file", "header-only-file", "assign-without-house",
        "house-assigned-twice",
        "porder-without-agent", "x3c-first-line-not-m", "x3c-m-0", "x3c-core-without-file",
        "manipulate-agent-out-of-range"])
def test_malformed_input_exits_2_with_an_input_error(tmp_path, capsys, make_argv, message):
    code, out = invoke(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("suffix,body,method,message", [
    ("rtep", "rpref 0: H [0 0] ; N [0]", "pra", "agent 0 lists house 0 twice"),
    ("rtep", "rpref 0: H [0] ; N [0] > [0]", "pra", "agent 0 lists tenant 0 twice"),
    ("ptep", "mode house\nppref 0: P 0 ; T [0 0]", "ttc", "agent 0 lists item 0 twice"),
], ids=["rpref-house", "rpref-tenant", "ppref-tiebreak"])
def test_an_item_listed_twice_is_refused_at_its_line(tmp_path, capsys, suffix, body, method,
                                                     message):
    code, out = invoke(_profile_with(tmp_path, suffix, f"tep v1\nagents 1\n{body}\n", method))
    line = 3 + body.count("\n")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"input error: duplicate-item: {message} (line {line})\n"


@pytest.mark.parametrize("suffix,body,method,message", [
    ("rtep", "endow 0\nendow 0\nrpref 0: H [0] ; N [0]", "pra",
     "endow must appear once, before rpref lines (line 4)"),
    ("rtep", "rpref 0: H [0] ; N [0]\nendow 0", "pra",
     "endow must appear once, before rpref lines (line 4)"),
    ("ptep", "mode tenant\nmode house\nppref 0: P 0 ; T [0]", "ttc",
     "mode must appear once, before ppref lines (line 4)"),
    ("ptep", "endow 0\nppref 0: P 0 ; T [0]\nmode house", "ttc",
     "mode must appear once, before ppref lines (line 5)"),
    ("tep", "pref 0: [(0,0)]\nendow 0", "exact",
     "endow must appear once, before pref lines (line 4)"),
], ids=["rpref-endow-twice", "rpref-endow-late", "ppref-mode-twice", "ppref-mode-late",
        "pref-endow-late"])
def test_a_directive_appears_once_before_the_agent_lines(tmp_path, capsys, suffix, body, method,
                                                        message):
    code, out = invoke(_profile_with(tmp_path, suffix, f"tep v1\nagents 1\n{body}\n", method))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"input error: syntax: {message}\n"


def _token_in(tmp_path, where, token):
    """argv that reads ``token`` where a file format expects an integer."""
    profiles = {
        "instance": ("tep", f"tep v1\nagents {token}\n", "exact"),
        "rpref": ("rtep", f"tep v1\nagents 1\nrpref {token}: H [0] ; N [0]\n", "pra"),
        "ppref": ("ptep", f"tep v1\nagents 1\nmode house\nppref 0: P {token} ; T [0]\n", "ttc"),
    }
    if where in profiles:
        return _profile_with(tmp_path, *profiles[where])
    if where == "pref-candidate":
        return _candidates(tmp_path, f"pref {token}: [(1,1)]")
    if where == "porder-candidate":
        return _candidates(tmp_path, f"porder {token} 0 1 2", "ttc")
    other = tmp_path / "other.txt"
    if where == "x3c":
        other.write_text(f"1\n0 1 2\n0 {token} 2\n0 1 2\n")
        return ["gen", "--family", "x3c-top", "--x3c", str(other), "--out", str(tmp_path / "o.tep")]
    if where == "allocation":
        other.write_text(f"assign 0 {token}\n")
        inst = _profile_with(tmp_path, "tep", "tep v1\nagents 1\n", "exact")[2]
        return ["verify", "--instance", inst, "--allocation", str(other), "--check", "ir"]
    other.write_text(f"rpref 0: H [0] ; N [{token}]\n")
    inst = _profile_with(tmp_path, "rtep", "tep v1\nagents 1\nrpref 0: H [0] ; N [0]\n", "pra")[2]
    return ["manipulate", "--instance", inst, "--method", "pra", "--agent", "0",
            "--space", f"file:{other}"]


@pytest.mark.parametrize("token", ["--5", "\u00b2", "1" * 5000],
                         ids=["double-minus", "superscript-two", "5000-digits"])
@pytest.mark.parametrize("where", ["instance", "allocation", "rpref", "ppref", "x3c",
                                   "pref-candidate", "porder-candidate", "rpref-candidate"])
def test_a_token_int_cannot_read_exits_2(tmp_path, capsys, where, token):
    code, out = invoke(_token_in(tmp_path, where, token))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("input error: syntax: expected an integer ")
    quoted = repr(token)
    if len(quoted) > 80:  # a long quote keeps 80 characters and states its length
        quoted = f"{quoted[:80]}... ({len(quoted)} characters)"
    assert f"got {quoted} (line " in err


_MB = 1_000_000


@pytest.mark.parametrize("make_argv", [
    lambda tmp: _profile_with(tmp, "tep", "tep v1\nagents " + "1" * _MB + "\n", "exact"),
    lambda tmp: _profile_with(tmp, "tep", "tep v1\nagents 1\npref 0 " + "[(0,0)] " * (_MB // 8)
                              + "\n", "exact"),
    lambda tmp: _profile_with(tmp, "ptep", "tep v1\nagents 1\nmode " + "h" * _MB + "\n", "ttc"),
    lambda tmp: _profile_with(tmp, "tep", "tep v1\nagents 1 " + "1 " * (_MB // 2) + "\n",
                              "exact"),
    lambda tmp: _profile_with(tmp, "tep", "tep v1\nagents 1\n" + "x" * _MB + "\n", "exact"),
    lambda tmp: _allocation(tmp, "assign 0 " + "1 " * (_MB // 2) + "\n"),
    lambda tmp: _x3c(tmp, "1\n" + "0 " * (_MB // 2) + "\n"),
], ids=["integer", "agent-line", "mode", "agents", "unknown-directive", "assign", "x3c-triple"])
def test_a_megabyte_line_is_refused_with_a_short_message(tmp_path, capsys, make_argv):
    """Each refusal that quotes a line or a token quotes at most 80
    characters of it, and states the length of the whole quote."""
    code, out = invoke(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("input error: syntax: ") and len(err) < 250, err[:250]
    assert re.search(r"\.\.\. \([0-9]{6,} characters\) \(line [0-9]\)\n$", err), err


@pytest.mark.parametrize("family,text,agents", [
    ("x3c-core", "1000000\n", 15_000_000),
    ("x3c-core", "667\n", 10_005),
    ("x3c-core", "700\n" + "".join(f"{3 * j} {3 * j + 1} {3 * j + 2}\n" for j in range(700)) * 3,
     10_500),
    ("x3c-top", "3334\n", 10_002),
], ids=["m-1000000", "core-m-667", "core-cover-m-700", "top-m-3334"])
def test_an_x3c_gadget_above_the_agent_limit_is_refused_at_once(tmp_path, capsys, family, text,
                                                               agents):
    path = tmp_path / "c.x3c"
    path.write_text(text)
    m = text.split()[0]
    started = time.monotonic()
    code, out = invoke(["gen", "--family", family, "--x3c", str(path),
                        "--out", str(tmp_path / "o.tep")])
    assert time.monotonic() - started < 1.0
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (f"input error: index-range: m = {m} makes {agents} agents, "
                                       "above the limit 10000 (line 1)\n")
    assert not (tmp_path / "o.tep").exists()


def _unlisted_instance_argv(tmp_path, n, command):
    """An argv whose instance lists only each agent's own outcome.  The wpo
    check gets the rotation, under which every agent could improve (at the
    identity it would need no search), the po check the identity."""
    inst = tmp_path / f"n{n}.tep"
    inst.write_text(f"tep v1\nagents {n}\n")
    alloc = tmp_path / f"id{n}.alloc"
    alloc.write_text(serialize_allocation(Allocation(tuple(range(n)))))
    rotation = tmp_path / f"rot{n}.alloc"
    rotation.write_text(serialize_allocation(Allocation(tuple((i + 1) % n for i in range(n)))))
    return {
        "po": ["verify", "--instance", str(inst), "--allocation", str(alloc), "--check", "po"],
        "wpo": ["verify", "--instance", str(inst), "--allocation", str(rotation),
                "--check", "wpo"],
        "enumerate-po": ["oracle", "--instance", str(inst), "--enumerate", "po"],
        "exact": ["solve", "--instance", str(inst), "--method", "exact"],
    }[command]


@pytest.mark.parametrize("command,n", [("po", 9), ("wpo", 9), ("enumerate-po", 9), ("exact", 10)])
def test_default_oracle_bounds_exit_3(tmp_path, capsys, command, n):
    """The node budget and the ceiling are the bounds of these searches, not
    an agent count: past the sizes they used to refuse (n = 9 for the Pareto
    oracles, 10 for the exact optimizer) a budget too small exits 3, and so
    does n above MAX_N_CEILING at the default budget, before any n³ table is
    built.  The checks and the exact optimizer answer at the default budget;
    the PO enumeration is a full walk of 9! leaves, not run here."""
    argv = _unlisted_instance_argv(tmp_path, n, command)
    code, out = invoke(argv + ["--node-budget", str(n - 1)])  # less than the root's n ticks
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "budget exceeded: search node budget exhausted\n"
    if command != "enumerate-po":
        assert invoke(argv)[0] == {"po": 0, "wpo": 1, "exact": 0}[command]
    code, out = invoke(_unlisted_instance_argv(tmp_path, 301, command))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "budget exceeded: permutation search needs n <= 300, got n = 301\n")


def _limit_argv(tmp_path, option, value):
    """An argv in which ``option`` at 0 is hit: the subsets space of the
    witness market has reports, and the ring's core search nodes."""
    sp = tmp_path / "sp.tep"
    sp.write_text(serialize_instance(sp_instance()))
    ring = tmp_path / "ring.tep"
    ring.write_text(serialize_instance(make_instance(5, [[] for _ in range(5)])))
    return {
        "--cap": ["manipulate", "--instance", str(sp), "--method", "exact", "--agent", "2",
                  "--space", "subsets"],
        "--node-budget": ["oracle", "--instance", str(ring), "--enumerate", "core"],
    }[option] + [option, value]


@pytest.mark.parametrize("option", ["--cap", "--node-budget"])
def test_a_negative_limit_is_bad_input(tmp_path, capsys, option):
    """A negative cap or node budget is refused by the argument parser
    (exit 2); 0 allows no work, so the search exits 3.  A value that is no
    integer is quoted as the file readers quote a token: at most 80
    characters, as is an integer out of range."""
    code, out = invoke(_limit_argv(tmp_path, option, "-1"))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: must be 0 or more, got -1\n")
    code, out = invoke(_limit_argv(tmp_path, option, "-" + "1" * 4000))
    err = capsys.readouterr().err
    assert (code, out) == (2, "") and len(err) < 600, err[:600]
    assert err.endswith(f"error: argument {option}: must be 0 or more, "
                        f"got -{'1' * 79}... (4001 characters)\n")
    code, out = invoke(_limit_argv(tmp_path, option, "0"))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    code, out = invoke(_limit_argv(tmp_path, option, "x"))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.endswith(f"error: argument {option}: invalid int value: 'x'\n")
    code, out = invoke(_limit_argv(tmp_path, option, "x" * 100_000))
    err = capsys.readouterr().err
    assert (code, out) == (2, "") and len(err) < 600, err[:600]
    assert err.endswith(f"error: argument {option}: invalid int value: "
                        f"'{'x' * 79}... (100002 characters)\n")


def _permutation_search_argvs(tmp_path):
    """Per path that runs the permutation search, a valid argv that needs
    some of its work: the witness market, with the identity (under which an
    agent could improve) to check."""
    sp = tmp_path / "sp.tep"
    sp.write_text(serialize_instance(sp_instance()))
    alloc = tmp_path / "a.alloc"
    alloc.write_text(serialize_allocation(Allocation((0, 1, 2, 3))))
    return {
        "verify-po": ["verify", "--instance", str(sp), "--allocation", str(alloc),
                      "--check", "po"],
        "verify-wpo": ["verify", "--instance", str(sp), "--allocation", str(alloc),
                       "--check", "wpo"],
        "oracle-po": ["oracle", "--instance", str(sp), "--enumerate", "po"],
        "solve-exact": ["solve", "--instance", str(sp), "--method", "exact"],
        "manipulate-exact": ["manipulate", "--instance", str(sp), "--method", "exact",
                             "--agent", "2", "--space", "subsets"],
        "prove-sp": ["prove", "--which", "sp"],
        "prove-core-consistency": ["prove", "--which", "core-consistency"],
    }


def test_max_n_is_an_unrecognized_argument(tmp_path, capsys):
    """The node budget bounds the permutation search, and no agent count
    does: every subcommand refuses --max-n (exit 2)."""
    argvs = _permutation_search_argvs(tmp_path)
    argvs = {
        "gen": ["gen", "--family", "empty-core", "--out", str(tmp_path / "ring.tep")],
        "solve": argvs["solve-exact"],
        "verify": argvs["verify-po"],
        "oracle": argvs["oracle-po"],
        "export": ["export", "--instance", str(tmp_path / "sp.tep"), "--form", "qp",
                   "--out", str(tmp_path / "sp.lp")],
        "manipulate": argvs["manipulate-exact"],
        "prove": argvs["prove-sp"],
    }
    assert sorted(argvs) == sorted(cli._HANDLERS)
    for command, argv in argvs.items():
        assert invoke(argv)[0] in (0, 1), command  # the argv is valid without --max-n
        capsys.readouterr()
        assert invoke(argv + ["--max-n", "9"]) == (2, ""), command
        assert "unrecognized arguments: --max-n 9" in capsys.readouterr().err, command


def test_a_zero_node_budget_stops_every_permutation_search(tmp_path, capsys):
    """Every path that runs the permutation search reads --node-budget: at 0
    it exits 3 with nothing on stdout, and at the default it answers."""
    for path, argv in _permutation_search_argvs(tmp_path).items():
        assert invoke(argv)[0] in (0, 1), path
        capsys.readouterr()
        assert invoke(argv + ["--node-budget", "0"]) == (3, ""), path
        assert capsys.readouterr().err == "budget exceeded: search node budget exhausted\n", path


def test_report_round_trip_structure(ring_file):
    code, out = invoke(["oracle", "--instance", str(ring_file), "--enumerate", "ir"])
    report = parse_report(out)
    assert report["command"] == "oracle"
    assert isinstance(report["allocation"], list)
    allocs = [tuple(int(x) for x in line.split()) for line in report["allocation"]]
    assert (0, 1, 2, 3, 4) in allocs


def test_pra_file_candidates_use_the_profile_endowment(tmp_path, capsys):
    """Agent 0 owns house 1 here, so its candidate must accept house 1, not 0."""
    prof = tmp_path / "e.rtep"
    prof.write_text("tep v1\nagents 3\nendow 1 2 0\n"
                    "rpref 0: H [1] ; N [0]\nrpref 1: H [2] ; N [1]\nrpref 2: H [0] ; N [2]\n")
    cands = tmp_path / "c.txt"
    argv = ["manipulate", "--instance", str(prof), "--method", "pra", "--agent", "0",
            "--space", f"file:{cands}", "--quiet"]
    cands.write_text("rpref 0: H [1] ; N [0]\n")
    code, out = invoke(argv)
    assert (code, out, capsys.readouterr().err) == (1, "agent: 0\nresult: none\n", "")
    cands.write_text("rpref 0: H [0] ; N [0]\n")
    code, out = invoke(argv)
    assert (code, out) == (2, "")
    assert "agent 0 must find its own house acceptable" in capsys.readouterr().err


@pytest.mark.parametrize("candidates,message", [
    ("rpref 2: H [7] ; N [2]\n", "index-range: house 7 out of range 0..2 (line 1)"),
    ("# agent 2 owns house 0\nrpref 2: H [0] ; N [2]\nrpref 2: H [7] ; N [2]\n",
     "index-range: house 7 out of range 0..2 (line 3)"),
    ("rpref 2: H [0] ; N [2]\nrpref 1: H [2] ; N [1]\n",
     "syntax: candidate line is for agent 1 (line 2)"),
], ids=["first-line", "third-line", "other-agent"])
def test_faulty_rpref_candidate_reports_its_own_line(tmp_path, capsys, candidates, message):
    prof = tmp_path / "e.rtep"
    prof.write_text("tep v1\nagents 3\nendow 1 2 0\n"
                    "rpref 0: H [1] ; N [0]\nrpref 1: H [2] ; N [1]\nrpref 2: H [0] ; N [2]\n")
    cands = tmp_path / "c.txt"
    cands.write_text(candidates)
    code, out = invoke(["manipulate", "--instance", str(prof), "--method", "pra", "--agent", "2",
                        "--space", f"file:{cands}"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("argv,bound", [
    (["solve", "--method", "exact"], "permutation search needs n <= 300"),
    (["manipulate", "--method", "exact", "--agent", "0", "--space", "subsets"],
     "permutation search needs n <= 300"),
    (["export", "--form", "ilp", "--out", "n301.lp"], "export needs n <= 50"),
], ids=["solve", "manipulate", "export"])
def test_exact_bound_is_checked_before_the_weight_table(tmp_path, capsys, monkeypatch, argv,
                                                        bound):
    def rank_row(*args):
        raise AssertionError("a row of the n³ rank table was built")

    monkeypatch.setattr(model, "_rank_row", rank_row)
    monkeypatch.chdir(tmp_path)
    inst = tmp_path / "n301.tep"
    inst.write_text("tep v1\nagents 301\n")
    code, out = invoke(argv + ["--instance", str(inst)])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"budget exceeded: {bound}, got n = 301\n"
    assert not (tmp_path / "n301.lp").exists()


def _one_dense_agent(tmp_path, n):
    """An instance file in which agent 0 lists all n² outcomes, (0,0) first,
    each in a class of its own, and the other agents list nothing."""
    outcomes = [(0, 0)] + [(h, t) for h in range(n) for t in range(n) if (h, t) != (0, 0)]
    path = tmp_path / f"dense{n}.tep"
    path.write_text(f"tep v1\nagents {n}\npref 0: "
                    + " > ".join(f"[({h},{t})]" for h, t in outcomes) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "exact"],
    ["manipulate", "--method", "exact", "--agent", "0", "--space", "subsets"],
], ids=["solve", "manipulate"])
def test_exponential_weights_past_the_printable_bound_exit_3(tmp_path, capsys, argv):
    """With 51 agents and 2,601 classes every exponential total is bounded
    only by 51 ** 2602, which may have more digits than Python prints, so
    the weights are refused before any row; Borda weights still answer."""
    inst = _one_dense_agent(tmp_path, 51)
    code, out = invoke(argv + ["--instance", inst, "--weights", "exponential"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "budget exceeded: exponential weights need n ** (C + 1) < 10 ** 4300, C the most "
        "classes an agent lists, got n = 51, C = 2601\n")
    if argv[0] == "solve":
        code, out = invoke(argv + ["--instance", inst, "--quiet"])
        assert (code, parse_report(out)["value"]) == (0, "2600")


def test_exponential_weights_below_the_bound_print_every_digit(tmp_path):
    """At n = 50 the bound is 50 ** 2501, below 10 ** 4300: the dense agent
    keeps (0,0), worth 50 ** 2500, and each other agent keeps its endowment
    outcome, the one class it lists, worth 50."""
    code, out = invoke(["solve", "--method", "exact", "--instance", _one_dense_agent(tmp_path, 50),
                        "--weights", "exponential", "--quiet"])
    value = parse_report(out)["value"]
    assert code == 0 and value == str(50 ** 2500 + 49 * 50) and len(value) == 4248


def test_top_level_help_describes_the_commands_and_exit_codes(capsys):
    """The top-level help is written for users: it names the subcommands and
    the exit codes and carries no reST markup.  Only the description is
    pinned, since argparse lays the rest out differently across versions."""
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert ("Exact oracles and mechanisms for temporary exchange markets. Subcommands: gen, "
            "solve, verify, oracle, export, manipulate, prove. Exit codes: 0 the property holds "
            "or an object was found, 1 it fails or none exists, 2 bad input, 3 a size bound, "
            "the node budget or the report cap was exceeded.") in " ".join(out.split())
    assert "``" not in out


def test_a_blocking_ring_longer_than_the_recursion_limit_is_found(tmp_path, capsys):
    """Every agent of a 1,500-agent ring prefers its successor's house with
    its predecessor as tenant, so the whole ring blocks the identity; the
    cycle search walks it on its own stack."""
    n = 1500
    inst, alloc = tmp_path / "ring.tep", tmp_path / "id.alloc"
    inst.write_text(f"tep v1\nagents {n}\n" + "".join(
        f"pref {i}: [({(i + 1) % n},{(i - 1) % n})] > [({i},{i})]\n" for i in range(n)))
    alloc.write_text(serialize_allocation(Allocation(tuple(range(n)))))
    code, out = invoke(["verify", "--instance", str(inst), "--allocation", str(alloc),
                        "--check", "core"])
    assert capsys.readouterr().err == ""
    assert (code, parse_report(out)["holds"]) == (1, "false")


def test_pra_on_a_chain_longer_than_the_recursion_limit_answers(tmp_path, capsys):
    """Agents u < 1,200 own house 1,199 - u and accept their own house or
    the next agent's, and their own tenancy or the previous agent's; agents
    1,200 and 1,201 strictly prefer to swap.  The final matching augments
    along the whole chain, which Hopcroft-Karp walks on its own stack."""
    m = 1200
    lines = ["tep v1", f"agents {m + 2}",
             "endow " + " ".join(str(h) for h in [m - 1 - u for u in range(m)] + [m, m + 1])]
    for u in range(m):
        houses = [m - 1 - u] + ([m - 2 - u] if u + 1 < m else [])
        tenants = [u] + ([u - 1] if u > 0 else [])
        lines.append(f"rpref {u}: H [{' '.join(map(str, houses))}] ; "
                     f"N [{' '.join(map(str, tenants))}]")
    lines += [f"rpref {m}: H [{m + 1}] > [{m}] ; N [{m + 1}] > [{m}]",
              f"rpref {m + 1}: H [{m}] > [{m + 1}] ; N [{m}] > [{m + 1}]"]
    rpath = tmp_path / "chain.rtep"
    rpath.write_text("\n".join(lines) + "\n")
    code, out = invoke(["solve", "--instance", str(rpath), "--method", "pra"])
    assert capsys.readouterr().err == ""
    report = parse_report(out)
    assert (code, report["rs-aa-calls"]) == (0, "2408")
    prof = parse_responsive_profile(rpath.read_text())
    assert tep.is_rs_ir(prof, tep.Allocation(tuple(map(int, report["allocation"].split()))))


@pytest.mark.parametrize("enumerate_", ["ir", "core"])
def test_search_deeper_than_the_recursion_limit_answers(tmp_path, capsys, enumerate_):
    """Each of 1,500 agents lists only its own outcome, so the outcome
    backtracking makes a choice at every agent; it keeps them on its own
    stack and finds the one allocation."""
    inst = tmp_path / "n1500.tep"
    inst.write_text("tep v1\nagents 1500\n")
    code, out = invoke(["oracle", "--instance", str(inst), "--enumerate", enumerate_])
    assert capsys.readouterr().err == ""
    report = parse_report(out)
    assert code == 0
    if enumerate_ == "ir":
        assert report["count"] == "1"
    assert report["allocation"] == Allocation(tuple(range(1500))).text()


def _under_frames(depth, call):
    """``call()``, run ``depth`` frames further down the stack."""
    return call() if depth == 0 else _under_frames(depth - 1, call)


def _stack_depth():
    """How many frames the calling frame stands on, itself included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_an_answer_does_not_depend_on_the_callers_stack(tmp_path, capsys):
    """The same runs give the same exit codes and bytes at the top of the
    stack and with about 100 frames left below the recursion limit: no
    search recurses once per agent, so no recursion limit is a hidden
    bound."""
    runs = []
    for n in (120, 500, 900, 1500):
        inst = tmp_path / f"n{n}.tep"
        inst.write_text(f"tep v1\nagents {n}\n")
        if n == 120:  # the permutation search, under its 300-agent ceiling
            runs.append(["solve", "--instance", str(inst), "--method", "exact"])
        else:
            runs += [["oracle", "--instance", str(inst), "--enumerate", e] for e in ("ir", "core")]
    for argv in runs:
        top = invoke(argv)
        assert top[0] == 0, argv
        deep = sys.getrecursionlimit() - _stack_depth() - 100
        assert _under_frames(deep, lambda: invoke(argv)) == top, argv
    assert capsys.readouterr().err == ""


def _missing_assignments(tmp_path):
    """verify argv whose allocation file assigns only agent 0 of 10,000."""
    inst, alloc = tmp_path / "n10000.tep", tmp_path / "a.alloc"
    inst.write_text("tep v1\nagents 10000\n")
    alloc.write_text("assign 0 0\n")
    return ["verify", "--instance", str(inst), "--allocation", str(alloc), "--check", "ir"]


@pytest.mark.parametrize("make_argv,what", [
    (lambda tmp: _profile_with(tmp, "rtep", "tep v1\nagents 10000\nrpref 0: H [0] ; N [0]\n",
                               "pra"), "rpref line"),
    (_missing_assignments, "assignment"),
], ids=["rpref-lines", "assignments"])
def test_many_missing_agents_are_refused_with_a_short_message(tmp_path, capsys, make_argv, what):
    """A refusal lists at most ten missing agents, then how many there are."""
    code, out = invoke(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert (code, out) == (2, "") and len(err) < 300, err[:300]
    assert err == (f"input error: syntax: missing {what} for agents "
                   "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (9999 agents) (line 1)\n")


@pytest.mark.parametrize("suffix,argv", [
    ("tep", ["oracle", "--enumerate", "ir"]),
    ("ptep", ["solve", "--method", "ttc"]),
    ("rtep", ["solve", "--method", "pra"]),
], ids=["instance", "predominant", "responsive"])
def test_oversized_agent_count_is_refused_at_once(tmp_path, capsys, suffix, argv):
    path = tmp_path / f"huge.{suffix}"
    path.write_text("tep v1\nagents 99999999\n" + ("mode house\n" if suffix == "ptep" else ""))
    started = time.monotonic()
    code, out = invoke(argv + ["--instance", str(path)])
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == "input error: index-range: agent count 99999999 above the limit 10000 (line 2)\n"


@pytest.mark.parametrize("command", ["solve", "manipulate"])
@pytest.mark.parametrize("method,mode", [("ttc", "tenant"), ("tttc", "house")])
def test_a_mechanism_on_a_profile_of_the_other_mode_exits_2(tmp_path, capsys, command, method,
                                                           mode):
    path = tmp_path / "p.ptep"
    code, _ = invoke(["gen", "--family", "random-predominant", "--mode", mode, "--n", "4",
                      "--seed", "5", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    argv = [command, "--instance", str(path), "--method", method]
    if command == "manipulate":
        argv += ["--agent", "0", "--space", "strict"]
    code, out = invoke(argv)
    other = "house" if mode == "tenant" else "tenant"
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (f"input error: syntax: --method {method} needs a profile "
                                       f"with 'mode {other}', got 'mode {mode}'\n")


def test_an_x3c_refusal_names_at_most_ten_elements(tmp_path, capsys):
    path = tmp_path / "c.x3c"
    path.write_text("3333\n")
    code, out = invoke(["gen", "--family", "x3c-top", "--x3c", str(path),
                        "--out", str(tmp_path / "o.tep")])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert len(err.encode()) < 300 and err.count("\n") == 1
    assert err == ("input error: syntax: each element must appear exactly three times; 9999 do "
                   "not, the first 10: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n")


def test_the_shared_parser_answers_as_a_fresh_one(ring_file, capsys, monkeypatch):
    """run keeps one argument parser for the process; a good argv, one
    argparse refuses, --help and the good argv again each give the stdout,
    stderr and exit code a freshly built parser gives."""
    from tep import cli

    good = ["oracle", "--instance", str(ring_file), "--enumerate", "ir"]
    argvs = [good, ["oracle", "--instance", str(ring_file), "--enumerate", "all"],
             ["--help"], ["verify", "--help"], good]
    shared = []
    for argv in argvs:
        code = run(argv)
        shared.append((code, *capsys.readouterr()))
    for argv, answer in zip(argvs, shared):
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        code = run(argv)
        assert answer == (code, *capsys.readouterr()), argv
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0]
    assert shared[0] == shared[-1] and "invalid choice" in shared[1][2]


def _module_cli(*argv, cwd):
    """``python -m tep.cli`` in a fresh interpreter, with this tep first on its path."""
    env = dict(os.environ)
    src = str(Path(tep.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tep.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_tep_cli_runs_the_command_line(tmp_path):
    done = _module_cli("gen", "--family", "random", "--n", "5", "--seed", "1", "--out", "f.tep",
                       cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "f.tep").read_text().startswith("tep v1")
    assert parse_report(done.stdout)["wrote"] == "f.tep"
    bad = _module_cli("gen", "--no-such-flag", cwd=tmp_path)
    assert bad.returncode == 2
    assert bad.stdout == ""
