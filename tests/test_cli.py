"""CLI end-to-end: subcommand behavior, exit codes, report determinism."""

import io
import time
from contextlib import redirect_stdout

import pytest

from tep import programs
from tep.cli import parse_report, run
from tep.files import serialize_allocation, serialize_instance, serialize_predominant_profile
from tep.generators import sp_instance
from tep.model import identity_allocation, make_instance


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
    alloc_path.write_text(serialize_allocation(identity_allocation(5)))
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


def test_manipulate_with_candidate_file(tmp_path):
    inst_path = tmp_path / "sp.tep"
    inst_path.write_text(serialize_instance(sp_instance()))
    cand_path = tmp_path / "cands.txt"
    cand_path.write_text("pref 1: [(2,2)] > [(1,1)]\n")
    code, out = invoke(["manipulate", "--instance", str(inst_path), "--method", "exact",
                        "--agent", "1", "--space", f"file:{cand_path}"])
    report = parse_report(out)
    # the exact mechanism picks the four-way trade on this market; the
    # truncation forces the two-swap allocation, improving agent 1
    assert code == 0
    assert report["outcome-before"] == "(2,0)"
    assert report["outcome-after"] == "(2,2)"


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


def test_exit_codes_for_bad_inputs(tmp_path, ring_file, monkeypatch):
    bad = tmp_path / "bad.tep"
    bad.write_text("tep v1\nagents 2\npref 0: [(9,9)]\n")
    code, _ = invoke(["oracle", "--instance", str(bad), "--enumerate", "ir"])
    assert code == 2
    code, _ = invoke(["oracle", "--instance", str(tmp_path / "missing.tep"),
                      "--enumerate", "ir"])
    assert code == 2
    code, _ = invoke(["nonsense"])
    assert code == 2
    # oracle bound exceeded: env override forces a tiny scan limit
    alloc_path = tmp_path / "id.alloc"
    alloc_path.write_text(serialize_allocation(identity_allocation(5)))
    monkeypatch.setenv("TEP_ORACLE_MAX_N", "2")
    code, _ = invoke(["verify", "--instance", str(ring_file),
                      "--allocation", str(alloc_path), "--check", "po"])
    assert code == 3


def _identity_file(tmp_path):
    path = tmp_path / "id4.alloc"
    path.write_text(serialize_allocation(identity_allocation(4)))
    return str(path)


def _non_utf8_instance(tmp_path):
    path = tmp_path / "latin1.tep"
    path.write_bytes(serialize_instance(sp_instance()).encode("utf-8") + b"# caf\xe9\n")
    return ["verify", "--instance", str(path), "--allocation", _identity_file(tmp_path),
            "--check", "ir"]


def _directory_instance(tmp_path):
    return ["verify", "--instance", str(tmp_path), "--allocation", _identity_file(tmp_path),
            "--check", "ir"]


def _x3c_with_a_non_integer(tmp_path):
    path = tmp_path / "cover.x3c"
    path.write_text("1\n0 1 x\n0 1 2\n0 1 2\n")
    return ["gen", "--family", "x3c-core", "--x3c", str(path), "--out", str(tmp_path / "o.tep")]


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


def _profile_with(tmp_path, suffix, text, method):
    """argv solving a one-file profile with the given method."""
    path = tmp_path / f"p.{suffix}"
    path.write_text(text)
    return ["solve", "--instance", str(path), "--method", method]


@pytest.mark.parametrize("make_argv", [
    _non_utf8_instance,
    _directory_instance,
    lambda tmp: ["gen", "--family", "random", "--n", "50", "--out", str(tmp / "x.tep")],
    lambda tmp: ["gen", "--family", "random", "--density", "1.5", "--out", str(tmp / "x.tep")],
    _x3c_with_a_non_integer,
    lambda tmp: _candidates(tmp, "pref x: [(1,1)]"),
    lambda tmp: _candidates(tmp, "pref 0: [(9,9)]"),
    lambda tmp: _candidates(tmp, "porder x 0 1 2", "ttc"),
    lambda tmp: _candidates(tmp, "porder 0 1 x 2", "ttc"),
    lambda tmp: _candidates(tmp, "porder 0 1 9 2", "ttc"),
    lambda tmp: _profile_with(tmp, "rtep", "tep v1\nagents 1\nrpref 0: H [0 0] ; N [0]\n", "pra"),
    lambda tmp: _profile_with(tmp, "rtep", "tep v1\nagents 1\nrpref 0: H [0] ; N [0 0]\n", "pra"),
    lambda tmp: _profile_with(tmp, "ptep", "tep v1\nagents 2\nmode house\n"
                              "ppref 0: P 0 1 ; T [0 0 1]\nppref 1: P 1 0 ; T [1] > [0]\n", "ttc"),
], ids=["non-utf8-instance", "directory-instance", "gen-n-50", "gen-density-1.5",
        "x3c-non-integer", "pref-non-integer-agent", "pref-out-of-range-outcome",
        "porder-non-integer-agent", "porder-non-integer-item", "porder-out-of-range-item",
        "rpref-house-twice", "rpref-tenant-twice", "ppref-item-twice"])
def test_malformed_input_exits_2_with_an_input_error(tmp_path, capsys, make_argv):
    code, out = invoke(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and "Traceback" not in err


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


def _unlisted_instance_argv(tmp_path, n, command):
    inst = tmp_path / f"n{n}.tep"
    inst.write_text(serialize_instance(make_instance(n, [[] for _ in range(n)])))
    alloc = tmp_path / f"id{n}.alloc"
    alloc.write_text(serialize_allocation(identity_allocation(n)))
    return {
        "po": ["verify", "--instance", str(inst), "--allocation", str(alloc), "--check", "po"],
        "wpo": ["verify", "--instance", str(inst), "--allocation", str(alloc), "--check", "wpo"],
        "enumerate-po": ["oracle", "--instance", str(inst), "--enumerate", "po"],
        "exact": ["solve", "--instance", str(inst), "--method", "exact"],
    }[command]


@pytest.mark.parametrize("command,n", [("po", 9), ("wpo", 9), ("enumerate-po", 9), ("exact", 10)])
def test_default_oracle_bounds_exit_3(tmp_path, capsys, monkeypatch, command, n):
    """The pruned searches still refuse instances above the default bounds
    (max_n 8 for the Pareto oracles, 9 for the exact optimizer)."""
    monkeypatch.delenv("TEP_ORACLE_MAX_N", raising=False)
    code, out = invoke(_unlisted_instance_argv(tmp_path, n, command))
    err = capsys.readouterr().err
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ")


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


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "exact"],
    ["manipulate", "--method", "exact", "--agent", "0", "--space", "subsets"],
], ids=["solve", "manipulate"])
def test_exact_bound_is_checked_before_the_weight_table(tmp_path, capsys, monkeypatch, argv):
    def weights_from_ranks(*args):
        raise AssertionError("the n³ weight table was built")

    monkeypatch.setattr(programs, "weights_from_ranks", weights_from_ranks)
    inst = tmp_path / "n150.tep"
    inst.write_text("tep v1\nagents 150\n")
    code, out = invoke(argv + ["--instance", str(inst)])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == ("budget exceeded: exact optimizer needs n <= 9, "
                                       "got n = 150; raise the bound explicitly\n")


@pytest.mark.parametrize("enumerate_", ["ir", "core"])
def test_search_deeper_than_the_recursion_limit_exits_3(tmp_path, capsys, enumerate_):
    inst = tmp_path / "n1500.tep"
    inst.write_text("tep v1\nagents 1500\n")
    code, out = invoke(["oracle", "--instance", str(inst), "--enumerate", enumerate_])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ") and "recursion limit" in err


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
