"""Profile and allocation file formats."""

import pytest

from tep import (
    Allocation,
    ParseError,
    parse_allocation,
    parse_predominant_profile,
    parse_responsive_profile,
    serialize_allocation,
    serialize_predominant_profile,
    serialize_responsive_profile,
)
from tep.generators import random_predominant_profile, random_responsive_profile

RPROF_TEXT = """\
tep v1
agents 3
# houses best to worst, then tenants
rpref 0: H [1 2] > [0] ; N [0 1 2]
rpref 1: H [1] ; N [0] > [1]
rpref 2: H [0 2] ; N [2]
"""

PPROF_TEXT = """\
tep v1
agents 3
mode house
ppref 0: P 2 1 0 ; T [1] > [0 2]
ppref 1: P 1 0 2 ; T [0 1 2]
ppref 2: P 0 1 2 ; T [2] > [0] > [1]
"""


def test_parse_responsive_profile():
    prof = parse_responsive_profile(RPROF_TEXT)
    assert prof.n == 3
    assert prof.house_classes[0] == (frozenset({1, 2}), frozenset({0}))
    assert prof.tenant_classes[1] == (frozenset({0}), frozenset({1}))
    assert prof.acceptable_houses(2) == frozenset({0, 2})


def test_parse_predominant_profile():
    prof = parse_predominant_profile(PPROF_TEXT)
    assert prof.mode == "house"
    assert prof.primary[0] == (2, 1, 0)
    assert prof.tiebreak[2] == (frozenset({2}), frozenset({0}), frozenset({1}))


def test_responsive_round_trip():
    for seed in (1, 2, 3):
        prof = random_responsive_profile(5, 0.6, 0.4, seed)
        assert parse_responsive_profile(serialize_responsive_profile(prof)) == prof


def test_predominant_round_trip():
    for seed, mode in ((1, "house"), (2, "tenant")):
        prof = random_predominant_profile(5, mode, 0.4, seed)
        assert parse_predominant_profile(serialize_predominant_profile(prof)) == prof


def test_responsive_profile_errors():
    with pytest.raises(ParseError):
        parse_responsive_profile("tep v1\nagents 2\nrpref 0: H [1] [0]\n")  # no N part
    with pytest.raises(ParseError):  # own house missing: semantic failure
        parse_responsive_profile(
            "tep v1\nagents 2\nrpref 0: H [1] ; N [0]\nrpref 1: H [1] ; N [1]\n")
    with pytest.raises(ParseError):  # missing agent line
        parse_responsive_profile("tep v1\nagents 2\nrpref 0: H [0] ; N [0]\n")


def test_predominant_profile_errors():
    with pytest.raises(ParseError):  # missing mode
        parse_predominant_profile(
            "tep v1\nagents 1\nppref 0: P 0 ; T [0]\n")
    with pytest.raises(ParseError):  # non-strict primary
        parse_predominant_profile(
            "tep v1\nagents 2\nmode house\nppref 0: P 0 0 ; T [0 1]\nppref 1: P 0 1 ; T [0 1]\n")


def test_allocation_round_trip_and_errors():
    alloc = Allocation((2, 0, 1))
    assert parse_allocation(serialize_allocation(alloc), 3) == alloc
    with pytest.raises(ParseError):
        parse_allocation("assign 0 1\n", 2)  # agent 1 missing
    with pytest.raises(ParseError):
        parse_allocation("assign 0 1\nassign 1 1\n", 2)  # not a bijection
    with pytest.raises(ParseError):
        parse_allocation("assign 0 5\nassign 1 0\n", 2)  # house out of range


def test_integer_tokens_are_read_as_before():
    """Decimal digits of any script, with at most one leading '-', as int()
    reads them; '+', '_' and non-decimal digits are refused."""
    assert parse_allocation("assign ٠ -0\n", 1) == Allocation((0,))
    for token in ("+0", "0_0", "²", "--0", "-"):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_allocation(f"assign 0 {token}\n", 1)


def test_x3c_m_is_bounded_by_the_gadget_size():
    from tep.files import MAX_AGENTS, parse_x3c

    def cover(m):
        return f"{m}\n" + "".join(f"{3 * j} {3 * j + 1} {3 * j + 2}\n" for j in range(m)) * 3

    assert parse_x3c(cover(666), 15).m == 666
    assert parse_x3c(cover(3333), 3).m == 3333
    for m, per_m in ((667, 15), (3334, 3)):
        with pytest.raises(ParseError, match=f"above the limit {MAX_AGENTS}"):
            parse_x3c(cover(m), per_m)
