import json

import pytest

from steenrod_transfer import checks
from steenrod_transfer.bv import is_D_annihilated_rank1
from steenrod_transfer.checks import CRITERIA, SUITES, spike_pairs
from steenrod_transfer.cli import main
from steenrod_transfer.transfer import transfer_class


def test_suites_reference_known_criteria():
    for names in SUITES.values():
        for n in names:
            assert n in CRITERIA


def test_all_suite_is_complete():
    assert set(SUITES["all"]) == set(CRITERIA)


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

    monkeypatch.setattr(checks, "transfer_class", spy)
    assert all(c.passed for c in checks.crit_degree14_fixture())
    assert [(z.rank, z.degree, len(z.terms)) for z in seen] == [(4, 14, 36)]


def test_e0_candidate_report():
    report = {c.name: c for c in checks.crit_degree17_existence()}["candidate-fixture-report"]
    assert report.detail == "44 terms, annihilated: True, class = h_{2,1}^3 h_{2,0}"


@pytest.mark.parametrize("a", range(2, 7))
def test_spike_pairs(a):
    pairs = spike_pairs(a)
    assert len(set(pairs)) == a - 1
    assert all(is_D_annihilated_rank1(k) and is_D_annihilated_rank1(el) for k, el in pairs)
    assert {k + el for k, el in pairs} == {(1 << (2 * a + 1)) - (1 << a) - 2}
