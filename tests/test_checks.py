import inspect
import itertools
import json
import re

import pytest

from steenrod_transfer import checks, criteria, transfer
from steenrod_transfer.bv import is_D_annihilated_rank1
from steenrod_transfer.checks import CRITERIA, SUITES
from steenrod_transfer.cli import main
from steenrod_transfer.criteria import read_terms, spike_pairs
from steenrod_transfer.transfer import transfer_class


def test_suites_reference_known_criteria():
    for names in SUITES.values():
        for n in names:
            assert n in CRITERIA


def test_all_suite_is_complete():
    assert set(SUITES["all"]) == set(CRITERIA)


def test_criteria_resolve_to_bodies_in_criteria():
    # each entry is named after the body it imports and runs when called,
    # so a misspelt name fails here, not in a run of verify; and every
    # body is registered, once
    bodies = [entry.__name__ for entry in CRITERIA.values()]
    for body in bodies:
        fn = getattr(criteria, body, None)
        assert inspect.isfunction(fn) and fn.__module__ == criteria.__name__, body
    defined = [n for n, fn in vars(criteria).items() if n.startswith("crit_") and inspect.isfunction(fn)]
    assert sorted(bodies) == sorted(defined)


def test_expected_suite_names_exist():
    for suite in (
        "thm1.1-g",
        "thm1.1-d0",
        "thm1.1-e0",
        "lemmas",
        "props",
        "remark3.5",
        "example5.11",
        "all",
    ):
        assert suite in SUITES


def test_verify_text_emits_one_line_per_criterion(capsys):
    rc = main(["verify", "lemmas"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    verdicts = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(verdicts) == len(SUITES["lemmas"])


def test_verify_json_report_shape(capsys):
    main(["verify", "thm1.1-d0", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["suite"] == "thm1.1-d0"
    assert rep["passed"] is True
    crit = rep["criteria"][0]
    assert crit["name"] == "rank4-degree14-fixture"
    assert all(c["passed"] for c in crit["checks"])


def test_d0_representative_has_36_terms(monkeypatch):
    seen = []

    def spy(z, profile):
        seen.append(z)
        return transfer_class(z, profile)

    # the criterion imports transfer_class where it runs, so it meets the spy
    monkeypatch.setattr(transfer, "transfer_class", spy)
    assert all(c.passed for c in criteria.crit_degree14_fixture())
    assert [(z.rank, z.degree, len(z.terms)) for z in seen] == [(4, 14, 36)]


def test_e0_candidate_report():
    report = {c.name: c for c in criteria.crit_degree17_existence()}["candidate-fixture-report"]
    assert report.detail == "44 terms, annihilated: True, class = h_{2,1}^3 h_{2,0}"


def test_unreadable_candidate_is_an_error(monkeypatch):
    # a criterion that cannot read its own element fails; it does not pass
    monkeypatch.setattr(criteria, "E0_CANDIDATE", "2555+x")
    with pytest.raises(ValueError, match="cannot read 'x'"):
        checks.run_criterion("rank4-degree17-existence")


@pytest.mark.parametrize("a", range(2, 7))
def test_spike_pairs(a):
    pairs = spike_pairs(a)
    assert len(set(pairs)) == a - 1
    assert all(is_D_annihilated_rank1(k) and is_D_annihilated_rank1(el) for k, el in pairs)
    assert {k + el for k, el in pairs} == {(1 << (2 * a + 1)) - (1 << a) - 2}


class TestReadTerms:
    """read_terms, the reader of the paper's notation in the checks."""

    def test_plain_digits(self):
        assert read_terms("4433") == frozenset({(4, 4, 3, 3)})

    def test_sum_with_cancellation(self):
        assert read_terms("4433+4433") == frozenset()

    def test_trailing_group(self):
        assert read_terms("18(53)") == frozenset({(1, 8, 5, 3), (1, 8, 3, 5)})

    def test_group_with_repeats(self):
        got = read_terms("4(355)")
        assert got == frozenset({(4, 3, 5, 5), (4, 5, 3, 5), (4, 5, 5, 3)})

    def test_bracket_whole_permutations(self):
        got = read_terms("[(4422)]")
        assert got == frozenset(itertools.permutations((4, 4, 2, 2)))
        assert len(got) == 6

    def test_one_exponent_per_digit_unless_commas(self):
        assert read_terms("1,1,10,5") == frozenset({(1, 1, 10, 5)})
        assert read_terms("11,10,5") == frozenset({(11, 10, 5)})
        assert read_terms("1169") == frozenset({(1, 1, 6, 9)})
        # each part of a group token is read by the rule on its own
        assert read_terms("12(11,3)") == frozenset({(1, 2, 11, 3), (1, 2, 3, 11)})

    def test_unfittable_raises(self):
        with pytest.raises(ValueError, match="bad term"):  # no rank or degree to fit
            criteria._hel("99", 4, 17)
        with pytest.raises(ValueError, match="'x'"):
            read_terms("x+y")
        with pytest.raises(ValueError, match=re.escape("'(2,3)2255'")):  # no transposition prefix
            read_terms("(2,3)2255")

    def test_empty_tokens_tolerated(self):
        assert read_terms("2555++1655") == read_terms("2555+1655")

    def test_e0_candidate_reading(self):
        # the 44 terms the checked element has, pinned
        want = {
            (1, 1, 1, 14), (1, 1, 2, 13), (1, 1, 4, 11), (1, 1, 6, 9), (1, 1, 8, 7),
            (1, 1, 10, 5), (1, 1, 12, 3), (1, 2, 3, 11), (1, 2, 5, 9), (1, 2, 9, 5),
            (1, 2, 11, 3), (1, 4, 3, 9), (1, 4, 5, 7), (1, 4, 7, 5), (1, 4, 9, 3),
            (1, 6, 5, 5), (1, 7, 6, 3), (1, 8, 3, 5), (1, 8, 5, 3), (1, 10, 3, 3),
            (2, 1, 7, 7), (2, 3, 3, 9), (2, 3, 5, 7), (2, 3, 7, 5), (2, 3, 9, 3),
            (2, 5, 5, 5), (2, 7, 3, 5), (2, 9, 3, 3), (3, 3, 5, 6), (3, 5, 6, 3),
            (3, 6, 3, 5), (4, 3, 5, 5), (4, 5, 3, 5), (4, 5, 5, 3), (5, 3, 3, 6),
            (5, 3, 6, 3), (5, 6, 3, 3), (6, 3, 3, 5), (6, 3, 5, 3), (6, 5, 3, 3),
            (7, 1, 6, 3), (7, 2, 5, 3), (7, 4, 3, 3), (8, 3, 3, 3),
        }
        assert read_terms(criteria.E0_CANDIDATE) == frozenset(want)
