"""End-to-end acceptance run: every bundled criterion, one verdict line each.

Each test executes one criterion exactly as `steenrod-transfer verify`
would, prints its PASS/FAIL line together with any failing subchecks,
and asserts the verdict `verify` promises.  Ten criteria pass with no
failed subcheck.  Two report FAIL because their computations refute
values they were given to check, and those refutations are settled:

- `rank2-degree11-witness`: the displayed shear identity for b9b2 leaves
  out tau(b9b2) = b2b9, and the stated triviality of [b] in the meets
  E(2) ^ E(1) and E(2) ^ E(3) rests on it.  With the corrected identity
  [b] = [b9b2], which is nonzero in both meets (coinvariant dims 1, 2).
- `rank4-degree17-existence`: (2,2,5,8) is slotwise alive for E(2)
  beside (2,5,5,5), since f_star(8, E2) = xi_2^3.  What does hold is
  that no annihilated element has a (2,2,5,8)-type term.

The test pins these counterexamples: each red criterion must fail in
exactly the listed subchecks, with exactly the listed details, and every
other subcheck, including the ones that record the settled facts, must
pass.  A regression in the program and a criterion weakened into passing
both turn the test red.  tests/test_counterexamples.py derives the
pinned values by routes that share no action, GL or f_star code with the
program.

REPORT pins the whole report beside them: every criterion's subchecks,
in order, with their verdicts and details, as `verify all` prints them
apart from the times.  A rewrite of a criterion's loops can then change
neither what it checks nor what it prints.
"""

import pytest

from steenrod_transfer.checks import CRITERIA, run_criterion

# criterion -> {failed subcheck: its detail}
REFUTED = {
    "rank2-degree11-witness": {
        "witness-class-zero-in-meet-with-E1": "coinvariant dim = 1, [b] reduces to b(9)(2)",
        "witness-class-zero-in-meet-with-E3": "coinvariant dim = 2, [b] reduces to b(9)(2)",
        "shear-identity-b9b2-as-displayed": (
            "difference = b(2)(9); identity holds after adding tau(b9b2)"
        ),
    },
    "rank4-degree17-existence": {
        "only-nontrivial-type-is-2555": "computed types: [(2, 2, 5, 8), (2, 5, 5, 5)]",
    },
}

# passing subchecks that record the settled facts beside the red ones
SETTLED = {
    "rank2-degree11-witness": {
        "witness-class-equals-b9b2-nonzero-in-meet-with-E1",
        "witness-class-equals-b9b2-nonzero-in-meet-with-E3",
        "shear-identity-b9b2-corrected",
    },
    "rank4-degree17-existence": {
        "no-annihilated-element-has-2258-term",
        "class-depends-only-on-2555-terms",
    },
}


# criterion -> its (subcheck, passed, detail), in the order they print
REPORT = {
    "rank1-action-binomial-oracle": (
        ("coaction-route-equals-binomial", True, "checked s<=4, t<=5, k<=256; mismatches: []"),
        ("forward-rule-equals-binomial", True, "checked s<=4, t<=5, k<=256; mismatches: []"),
    ),
    "rank1-annihilation-predicates": (
        ("vanishing-predicate", True, "b_k P_t^s = 0 iff k < 2^(s+t) or bit s of k; mismatches: []"),
        ("image-predicate-corrected", True, "b_k hit by P_t^s iff bit s of k; mismatches: []"),
        ("em-predicate", True, "kappa >= m or rho <= 2^(m-1), m <= 5, k <= 256; mismatches: []"),
        ("diagonal-predicate", True, "rho <= 2^kappa, k <= 256; mismatches: []"),
    ),
    "transfer-image-windows": (
        ("nontrivial-iff-presentable", True, "partition oracle, m <= 3, k <= 200; mismatches: []"),
        ("e1-range-is-h10-polynomials", True, "ranks <= 3, degrees <= 12; offenders: []"),
        ("b(2^s(2^m-1)-1)-maps-to-xi_m^2^s", True, "s < m <= 4; offenders: []"),
    ),
    "rank2-degree11-witness": (
        ("annihilated-dim-4-with-listed-basis", True, "dim = 4; listed elements span: True"),
        ("witness-class-nonzero", True, "coinvariant dim = 1"),
        ("witness-class-zero-in-meet-with-E1", False, "coinvariant dim = 1, [b] reduces to b(9)(2)"),
        (
            "witness-class-equals-b9b2-nonzero-in-meet-with-E1",
            True,
            "coinvariant dim = 1, [b9b2] reduces to b(9)(2)",
        ),
        ("witness-class-zero-in-meet-with-E3", False, "coinvariant dim = 2, [b] reduces to b(9)(2)"),
        (
            "witness-class-equals-b9b2-nonzero-in-meet-with-E3",
            True,
            "coinvariant dim = 2, [b9b2] reduces to b(9)(2)",
        ),
        ("shear-identity-b11b0", True, "b11b0 + g(b11b0) = b + tau(b) + b0b11 for g = [[1,1],[1,0]]"),
        (
            "shear-identity-b9b2-as-displayed",
            False,
            "difference = b(2)(9); identity holds after adding tau(b9b2)",
        ),
        ("shear-identity-b9b2-corrected", True, "b9b2 + g(b9b2) = b + b11b0 + b2b9, where b2b9 = tau(b9b2)"),
        ("witness-transfer-class", True, "class = h_{3,0} h_{2,1}"),
    ),
    "rank4-degree20-kernel": (
        ("5555-is-hit", True, "x1^5 x2^5 x3^5 x4^5 lies in the span of the Sq^(2^j) images"),
        ("chi-sq8-on-1111", True, "chi(Sq^8)(1111) has 18 terms; peterson_wood((10,4,3,3)) = True"),
        (
            "no-h21^4-coefficient-in-degree-20",
            True,
            "dim H_20(BV_4) = 1771, kernel dim = 55, offending basis vectors: 0",
        ),
    ),
    "rank4-degree14-fixture": (
        ("fixture-annihilated", True, "dim H_14(BV_4) = 680, kernel dim = 50"),
        ("sq1-x", True, "got b(3)(4)(3)(3) + b(4)(3)(3)(3)"),
        ("sq2-x", True, "got b(1)(3)(3)(5) + b(3)(1)(5)(3) + b(3)(3)(3)(3)"),
        ("sq4-x", True, "got b(1)(3)(3)(3) + b(3)(1)(3)(3)"),
        (
            "sq2-symmetrized-x",
            True,
            "got b(3)(1)(5)(3) + b(3)(3)(1)(5) + b(3)(3)(3)(3) + b(3)(5)(1)(3) + b(5)(1)(3)(3)",
        ),
        ("fixture-transfer-class", True, "class = h_{2,1}^2 h_{2,0}^2"),
    ),
    "rank4-degree17-existence": (
        ("h20h21^3-attained", True, "dim H_17(BV_4) = 1140, kernel dim = 87, class span dim = 1"),
        ("only-nontrivial-type-is-2555", False, "computed types: [(2, 2, 5, 8), (2, 5, 5, 5)]"),
        (
            "no-annihilated-element-has-2258-term",
            True,
            "0 of 87 kernel basis vectors meet the 12 (2,2,5,8)-type monomials",
        ),
        (
            "class-depends-only-on-2555-terms",
            True,
            "annihilated elements with no (2,5,5,5)-type term: dim 83, class rank on them 0",
        ),
        ("candidate-fixture-report", True, "44 terms, annihilated: True, class = h_{2,1}^3 h_{2,0}"),
    ),
    "cobar-consistency": (
        ("differential-squares-to-zero-e2", True, "lengths <= 4, degrees <= 26; offenders: []"),
        ("differential-squares-to-zero-full", True, "lengths <= 2, degrees <= 12; offenders: []"),
        (
            "cohomology-dims-match-h-monomial-counts",
            True,
            "n <= 4, t <= 26; mismatches: []; dim at (4,24) = 3",
        ),
    ),
    "kameko-frobenius": (
        ("doubled-elements-killed-by-Pt0", True, "offenders: []"),
        ("doubling-intertwines-Pts", True, "(Sq0 z)P_t^s = Sq0(z P_t^(s-1)); offenders: []"),
        ("f-star-odd-is-square", True, "f(2k+1) = f(k)^2, k <= 100; offenders: []"),
        ("chain-level-doubling-squares-slots", True, "offenders: []"),
    ),
    "paired-spike-family": (
        ("family-a2-annihilated-distinct-cograded", True, "pairs [(11, 15)], common degree 26"),
        ("family-a2-degree-off-by-one-flagged", True, "stated degree 27, actual 26"),
        ("family-a3-annihilated-distinct-cograded", True, "pairs [(23, 95), (55, 63)], common degree 118"),
        ("family-a3-degree-off-by-one-flagged", True, "stated degree 119, actual 118"),
        (
            "family-a4-annihilated-distinct-cograded",
            True,
            "pairs [(47, 447), (111, 383), (239, 255)], common degree 494",
        ),
        ("family-a4-degree-off-by-one-flagged", True, "stated degree 495, actual 494"),
    ),
    "stratified-invariance-example": (
        ("invariant-under-sq-2^k", True, "k <= 6"),
        ("single-stratum-terms-excluded", True, "some term uses one s value with a generator outside t = 2"),
    ),
    "diagonal-spike-transfer": (
        ("b0-maps-to-xi1^1", True, "image [((1, 1),)]"),
        ("b5-maps-to-xi2^2", True, "image [((2, 2),)]"),
        ("b27-maps-to-xi3^4", True, "image [((3, 4),)]"),
        ("b119-maps-to-xi4^8", True, "image [((4, 8),)]"),
    ),
}


def test_report_covers_every_criterion():
    assert list(REPORT) == list(CRITERIA)


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name):
    report = run_criterion(name)
    for line in report.lines():
        print(line)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert failed == REFUTED.get(name, {}), "\n".join(report.lines())
    assert report.passed is not (name in REFUTED)
    passed = {c.name for c in report.checks if c.passed}
    assert SETTLED.get(name, set()) <= passed
    assert tuple((c.name, c.passed, c.detail) for c in report.checks) == REPORT[name]
