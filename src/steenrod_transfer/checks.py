"""Bundled verification suites.

Each criterion below reruns one of the computations the workbench was
built around, from scratch, and reports a pass/fail verdict with enough
detail to see what went wrong.  The checks are grouped into named suites
(`SUITES`) that the command line exposes; `all` runs everything.

A criterion is a function returning a list of CheckResult.  Everything
is recomputed on each run and nothing is read from disk: the rank-4
elements are written in the paper's digit notation and read_terms reads
them where they are used.
"""

from __future__ import annotations

import random
import re
import time
from itertools import permutations
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Set, Tuple

from .bv import (
    HElement,
    annihilated_subspace,
    basis_dim,
    coinvariant_quotient,
    degree_basis,
    gl_act,
    is_D_annihilated_rank1,
    is_Em_annihilated_rank1,
    kameko_sq0,
    right_action,
    swap_matrix,
)
from .cobar import (
    cohomology_dim,
    differential_matrix,
    h_monomials,
    hclass_str,
)
from .gf2 import GF2Subspace, image_of
from .hit import PolyElement, apply_op, chi_sq, is_hit, peterson_wood
from .milnor import Profile, Pst, frobenius, generators, xi
from .stratr import is_invariant, parse_r_text, same_s_excluded
from .transfer import f_star, presentable, slot_types, transfer_chain, transfer_class

__all__ = [
    "CheckResult",
    "CriterionReport",
    "CRITERIA",
    "SUITES",
    "read_terms",
    "run_criterion",
    "spike_pairs",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class CriterionReport(NamedTuple):
    name: str
    passed: bool
    elapsed: float
    checks: Tuple[CheckResult, ...]

    def lines(self) -> List[str]:
        verdict = "PASS" if self.passed else "FAIL"
        out = [f"{verdict}  {self.name}  ({self.elapsed:.1f}s)"]
        for c in self.checks:
            if not c.passed:
                out.append(f"      failed: {c.name}" + (f" -- {c.detail}" if c.detail else ""))
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


_EXPONENTS = r"[0-9]+(?:,[0-9]+)*"
# a prefix, then perhaps a group; or a bracketed group
_TOKEN = re.compile(rf"((?:{_EXPONENTS})?)(?:\(({_EXPONENTS})\))?|\[\(({_EXPONENTS})\)\]")


def _exponents(text: str) -> Tuple[int, ...]:
    return tuple(map(int, text.split(",") if "," in text else text))


def read_terms(text: str) -> FrozenSet[Tuple[int, ...]]:
    """The exponent tuples of a sum in the paper's notation, mod 2.  One
    exponent per digit, or all comma-separated: "4433", "1,1,10,5".
    "P(Q)" is the distinct permutations of Q after P, each part read so,
    "[(Q)]" those of the whole tuple; "+" adds, empty tokens skipped."""
    acc: Set[Tuple[int, ...]] = set()
    for token in filter(None, text.split("+")):
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ValueError(f"cannot read {token!r} as exponents")
        prefix, group, whole = (_exponents(part or "") for part in m.groups())
        acc ^= {prefix + p for p in set(permutations(group or whole))}
    return frozenset(acc)


def _hel(text: str, rank: int, degree: int) -> HElement:
    return HElement(rank, degree, read_terms(text))


def _hmono(*pairs: Tuple[int, int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(pairs, reverse=True))


E1, E2, E3 = Profile.E(1), Profile.E(2), Profile.E(3)
FULL, DIAG = Profile.full(), Profile.D()


# -- rank-1 action against the closed binomial formula ------------------


def _binom_odd(n: int, r: int) -> bool:
    return n >= r >= 0 and (n - r) & r == 0


def _rank1_elements() -> List[HElement]:
    """b_0, ..., b_256, built once for a rank-1 criterion's whole window."""
    return [HElement.b(k) for k in range(257)]


def crit_rank1_action_binomial() -> List[CheckResult]:
    """right_action on b_k agrees with b_k P_t^s = C(k-2^s(2^t-1), 2^s) b_{k-2^s(2^t-1)},
    both through the coaction (expand_action, via P_t^s dual) and through
    the closed-form forward rule (via the Pst itself)."""
    out = []
    elements = _rank1_elements()
    singletons = [frozenset({(j,)}) for j in range(257)]
    for name, route in (
        ("coaction-route-equals-binomial", lambda op: op.dual),
        ("forward-rule-equals-binomial", lambda op: op),
    ):
        bad = []
        for s in range(5):
            for t in range(1, 6):
                op = route(Pst(s, t))
                drop = (1 << s) * ((1 << t) - 1)
                for k in range(drop, 257):
                    got = right_action(elements[k], op)
                    want = singletons[k - drop] if _binom_odd(k - drop, 1 << s) else frozenset()
                    if got.terms != want:
                        bad.append((k, s, t))
        out.append(
            CheckResult(name, not bad, f"checked s<=4, t<=5, k<=256; mismatches: {bad[:5]}")
        )
    return out


# -- rank-1 annihilation predicates --------------------------------------


def crit_rank1_annihilation() -> List[CheckResult]:
    out = []
    # the (k, s, t) with b_k P_t^s != 0, k <= 256; both predicates read it
    nonzero = set()
    elements = _rank1_elements()
    for s in range(5):
        for t in range(1, 6):
            op = Pst(s, t)
            nonzero.update(
                (k, s, t) for k in range(op.degree, 257) if right_action(elements[k], op).terms
            )

    bad_vanish = [
        (k, s, t)
        for s in range(5)
        for t in range(1, 6)
        for k in range(257)
        if bool(k < (1 << (s + t)) or (k >> s) & 1) == ((k, s, t) in nonzero)
    ]
    out.append(
        CheckResult(
            "vanishing-predicate",
            not bad_vanish,
            f"b_k P_t^s = 0 iff k < 2^(s+t) or bit s of k; mismatches: {bad_vanish[:5]}",
        )
    )

    # image clause, in the corrected form: b_k lies in the image of P_t^s
    # iff bit s of k is set (the source coefficient is C(k, 2^s)); the
    # displayed guard k >= 2^(s+t) is too strong at small k
    bad_image = []
    for s in range(5):
        for t in range(1, 6):
            drop = (1 << s) * ((1 << t) - 1)
            for k in range(257 - drop):
                if ((k + drop, s, t) in nonzero) != bool((k >> s) & 1):
                    bad_image.append((k, s, t))
    out.append(
        CheckResult(
            "image-predicate-corrected",
            not bad_image,
            f"b_k hit by P_t^s iff bit s of k; mismatches: {bad_image[:5]}",
        )
    )

    bad_em = []
    for m in range(1, 6):
        prof = Profile.E(m)
        for k in range(257):
            computed = annihilated_subspace(prof, 1, k).dim == 1
            if computed != is_Em_annihilated_rank1(k, m):
                bad_em.append((k, m))
    out.append(
        CheckResult(
            "em-predicate",
            not bad_em,
            f"kappa >= m or rho <= 2^(m-1), m <= 5, k <= 256; mismatches: {bad_em[:5]}",
        )
    )

    bad_d = []
    for k in range(257):
        computed = annihilated_subspace(DIAG, 1, k).dim == 1
        if computed != is_D_annihilated_rank1(k):
            bad_d.append(k)
    out.append(
        CheckResult(
            "diagonal-predicate",
            not bad_d,
            f"rho <= 2^kappa, k <= 256; mismatches: {bad_d[:5]}",
        )
    )
    return out


# -- transfer image windows ----------------------------------------------


def crit_transfer_windows() -> List[CheckResult]:
    out = []

    bad = []
    for m in range(1, 4):
        prof = Profile.E(m)
        for k in range(201):
            if bool(f_star(k, prof)) != presentable(k, m):
                bad.append((k, m))
    out.append(
        CheckResult(
            "nontrivial-iff-presentable",
            not bad,
            f"partition oracle, m <= 3, k <= 200; mismatches: {bad[:5]}",
        )
    )

    # the E(1) transfer lands in the h_{1,0} polynomial range and hits it
    bad_e1 = []
    hit_powers = True
    for n in range(1, 4):
        for d in range(13):
            power = frozenset({((1, 0),) * n})
            for v in annihilated_subspace(E1, n, d).basis:
                cls = transfer_class(HElement.from_coords(n, d, v), E1)
                want = power if d == 0 else frozenset()
                if cls != want:
                    bad_e1.append((n, d))
        if transfer_class(HElement.b(*([0] * n)), E1) != frozenset({((1, 0),) * n}):
            hit_powers = False
    out.append(
        CheckResult(
            "e1-range-is-h10-polynomials",
            not bad_e1 and hit_powers,
            f"ranks <= 3, degrees <= 12; offenders: {bad_e1[:5]}",
        )
    )

    bad_spike = []
    for m in range(1, 5):
        for s in range(m):
            k = (1 << s) * ((1 << m) - 1) - 1
            if not _spike_transfers(is_Em_annihilated_rank1(k, m), k, m, s, Profile.E(m)):
                bad_spike.append((m, s))
    out.append(
        CheckResult(
            "b(2^s(2^m-1)-1)-maps-to-xi_m^2^s",
            not bad_spike,
            f"s < m <= 4; offenders: {bad_spike}",
        )
    )
    return out


def _spike_transfers(annihilated: bool, k: int, t: int, s: int, prof: Profile) -> bool:
    """Whether b_k is annihilated, its f_star is the single monomial
    xi_t^{2^s}, and its class is h_{t,s}."""
    return (
        annihilated
        and f_star(k, prof) == frozenset({xi(t, 1 << s)})
        and transfer_class(HElement.b(k), prof) == frozenset({((t, s),)})
    )


# -- the rank-2 degree-11 witness ----------------------------------------


B_WITNESS = HElement(2, 11, frozenset({(6, 5), (3, 8), (9, 2), (10, 1), (7, 4)}))
TAU_B = HElement(2, 11, frozenset({(5, 6), (8, 3), (2, 9), (1, 10), (4, 7)}))
SHEAR = ((1, 1), (1, 0))


def crit_degree11_witness() -> List[CheckResult]:
    out = []
    anni = annihilated_subspace(E2, 2, 11)
    listed = [HElement.b(0, 11), HElement.b(11, 0), B_WITNESS, TAU_B]
    spans = GF2Subspace(anni.ambient_dim, [x.to_coords() for x in listed])
    out.append(
        CheckResult(
            "annihilated-dim-4-with-listed-basis",
            anni.dim == 4 and spans == anni,
            f"dim = {anni.dim}; listed elements span: {spans == anni}",
        )
    )

    quo = coinvariant_quotient(anni, 2, 11)
    out.append(
        CheckResult(
            "witness-class-nonzero",
            not quo.is_zero_class(B_WITNESS),
            f"coinvariant dim = {quo.dim}",
        )
    )

    b11b0, b0b11 = HElement.b(11, 0), HElement.b(0, 11)
    b9b2, b2b9 = HElement.b(9, 2), HElement.b(2, 9)

    # the stated triviality rests on the second shear identity below; the
    # corrected identity leaves [b] = [b9b2], which the computation
    # confirms is nonzero in both meets
    for m in (1, 3):
        meet = E2.meet(Profile.E(m))
        sub = coinvariant_quotient(annihilated_subspace(meet, 2, 11), 2, 11)
        out.append(
            CheckResult(
                f"witness-class-zero-in-meet-with-E{m}",
                sub.is_zero_class(B_WITNESS),
                f"coinvariant dim = {sub.dim}, [b] reduces to {sub.reduce(B_WITNESS)}",
            )
        )
        out.append(
            CheckResult(
                f"witness-class-equals-b9b2-nonzero-in-meet-with-E{m}",
                sub.same_class(B_WITNESS, b9b2) and not sub.is_zero_class(b9b2),
                f"coinvariant dim = {sub.dim}, [b9b2] reduces to {sub.reduce(b9b2)}",
            )
        )

    lhs1 = b11b0 ^ gl_act(SHEAR, b11b0)
    out.append(
        CheckResult(
            "shear-identity-b11b0",
            lhs1 == B_WITNESS ^ TAU_B ^ b0b11,
            "b11b0 + g(b11b0) = b + tau(b) + b0b11 for g = [[1,1],[1,0]]",
        )
    )

    # second identity, exactly as displayed; the computed difference is
    # b2b9, so the displayed right-hand side is missing tau(b9b2)
    lhs2 = b9b2 ^ gl_act(SHEAR, b9b2)
    diff = lhs2 ^ B_WITNESS ^ b11b0
    out.append(
        CheckResult(
            "shear-identity-b9b2-as-displayed",
            diff.is_zero(),
            f"difference = {diff}; identity holds after adding tau(b9b2)",
        )
    )
    out.append(
        CheckResult(
            "shear-identity-b9b2-corrected",
            lhs2 == B_WITNESS ^ b11b0 ^ b2b9,
            "b9b2 + g(b9b2) = b + b11b0 + b2b9, where b2b9 = tau(b9b2)",
        )
    )

    cls = transfer_class(B_WITNESS, E2)
    out.append(
        CheckResult(
            "witness-transfer-class",
            cls == frozenset({_hmono((3, 0), (2, 1))}),
            f"class = {hclass_str(cls) if cls else cls}",
        )
    )
    return out


# -- rank 4, degree 20 ----------------------------------------------------


def crit_degree20_kernel() -> List[CheckResult]:
    out = []
    out.append(
        CheckResult(
            "5555-is-hit",
            is_hit(PolyElement.x(5, 5, 5, 5)),
            "x1^5 x2^5 x3^5 x4^5 lies in the span of the Sq^(2^j) images",
        )
    )

    conj = apply_op(chi_sq(8), PolyElement.x(1, 1, 1, 1))
    want = PolyElement(4, 12, read_terms("[(4422)]+[(8211)]"))
    out.append(
        CheckResult(
            "chi-sq8-on-1111",
            conj == want and peterson_wood((10, 4, 3, 3)),
            f"chi(Sq^8)(1111) has {len(conj.terms)} terms; "
            f"peterson_wood((10,4,3,3)) = {peterson_wood((10, 4, 3, 3))}",
        )
    )

    dim_h = basis_dim(4, 20)
    kernel = annihilated_subspace(FULL, 4, 20)
    h21_4 = _hmono((2, 1), (2, 1), (2, 1), (2, 1))
    offenders = []
    for v in kernel.basis:
        cls = transfer_class(HElement.from_coords(4, 20, v), E2)
        if cls is None or h21_4 in cls:
            offenders.append(v)
    out.append(
        CheckResult(
            "no-h21^4-coefficient-in-degree-20",
            dim_h == 1771 and not offenders,
            f"dim H_20(BV_4) = {dim_h}, kernel dim = {kernel.dim}, "
            f"offending basis vectors: {len(offenders)}",
        )
    )
    return out


# -- rank 4, degree 14 ----------------------------------------------------


D0_X_TEXT = "2255+2165+1256+1166+4253+4163+3263+2435+1436+2336+4433"
D0_EXTRA_TEXT = "3155+5513+5135+5315+5333"


def crit_degree14_fixture() -> List[CheckResult]:
    out = []
    # the representative is x symmetrised over two slot swaps, plus D0_EXTRA_TEXT
    x = _hel(D0_X_TEXT, 4, 14)
    y = x ^ gl_act(swap_matrix(4, 1, 2), x) ^ gl_act(swap_matrix(4, 0, 2), x)
    z = y ^ _hel(D0_EXTRA_TEXT, 4, 14)
    kernel = annihilated_subspace(FULL, 4, 14)
    out.append(
        CheckResult(
            "fixture-annihilated",
            kernel.contains(z.to_coords()),
            f"dim H_14(BV_4) = {basis_dim(4, 14)}, kernel dim = {kernel.dim}",
        )
    )

    steps = [
        ("sq1-x", right_action(x, Pst(0, 1)), _hel("4333+3433", 4, 13)),
        ("sq2-x", right_action(x, Pst(1, 1)), _hel("3153+1335+3333", 4, 12)),
        ("sq4-x", right_action(x, Pst(2, 1)), _hel("1333+3133", 4, 10)),
        ("sq2-symmetrized-x", right_action(y, Pst(1, 1)), _hel("3153+3513+3315+5133+3333", 4, 12)),
    ]
    for name, got, want in steps:
        out.append(CheckResult(name, got == want, f"got {got}"))

    cls = transfer_class(z, E2)
    want = frozenset({_hmono((2, 0), (2, 0), (2, 1), (2, 1))})
    out.append(
        CheckResult(
            "fixture-transfer-class",
            cls == want,
            f"class = {hclass_str(cls) if cls else cls}",
        )
    )
    return out


# -- rank 4, degree 17 ----------------------------------------------------


# the paper's candidate, a token with a multi-digit exponent listing all
# of them; this reading is the element checked, perhaps not the printed one
E0_CANDIDATE = (
    "2555+1655+18(53)+17(63)+14(75)+13(76)+14(93)+23(93)"
    "+12(95)+1,1,10,5+1169+12(11,3)+4(355)+1,1,12,3+1,1,4,11+"
    "+1187+2177+1,1,2,13+1,1,1,14+3356+3635+3563"
    "+5336+5633+5363+6(335)+8333+7433+7253+7163"
    "+2933+1,10,3,3+2735+2375+2357+1736+1376+1367"
)


def crit_degree17_existence() -> List[CheckResult]:
    out = []
    dim_h = basis_dim(4, 17)
    kernel = annihilated_subspace(FULL, 4, 17)
    hms = h_monomials(E2, 4, 21)
    idx = {hm: i for i, hm in enumerate(hms)}
    vectors = []
    for v in kernel.basis:
        cls = transfer_class(HElement.from_coords(4, 17, v), E2)
        bits = 0
        for hm in cls or ():
            bits |= 1 << idx[hm]
        vectors.append(bits)
    span = GF2Subspace(len(hms), vectors)
    target = _hmono((2, 0), (2, 1), (2, 1), (2, 1))
    attained = target in idx and span.contains(1 << idx[target])
    out.append(
        CheckResult(
            "h20h21^3-attained",
            dim_h == 1140 and attained,
            f"dim H_17(BV_4) = {dim_h}, kernel dim = {kernel.dim}, "
            f"class span dim = {span.dim}",
        )
    )

    # monomial types all of whose slots have nontrivial image
    types = slot_types(E2, 4, 17)
    out.append(
        CheckResult(
            "only-nontrivial-type-is-2555",
            types == [(2, 5, 5, 5)],
            f"computed types: {types}",
        )
    )

    # the finer question: which types annihilated elements carry, and
    # which carry the class.  Kernel coordinates on each type's monomials
    # are set against the class vectors above; the class depends on the
    # (2,5,5,5) terms alone iff pairing their projection with the class
    # vector adds no rank
    def type_mask(ty: Tuple[int, ...]) -> int:
        basis = degree_basis(4, 17)
        return sum(1 << i for i, e in enumerate(basis) if tuple(sorted(e)) == ty)

    m2258, m2555 = type_mask((2, 2, 5, 8)), type_mask((2, 5, 5, 5))
    carriers = sum(1 for v in kernel.basis if v & m2258)
    out.append(
        CheckResult(
            "no-annihilated-element-has-2258-term",
            kernel.dim > 0 and carriers == 0,
            f"{carriers} of {kernel.dim} kernel basis vectors meet the "
            f"{m2258.bit_count()} (2,2,5,8)-type monomials",
        )
    )
    proj = GF2Subspace(dim_h, [v & m2555 for v in kernel.basis])
    graph = GF2Subspace(
        dim_h + len(hms),
        [(v & m2555) << len(hms) | c for v, c in zip(kernel.basis, vectors)],
    )
    out.append(
        CheckResult(
            "class-depends-only-on-2555-terms",
            graph.dim == proj.dim,
            f"annihilated elements with no (2,5,5,5)-type term: dim "
            f"{kernel.dim - proj.dim}, class rank on them {graph.dim - proj.dim}",
        )
    )

    cand = _hel(E0_CANDIDATE, 4, 17)
    in_kernel = kernel.contains(cand.to_coords())
    detail = f"{len(cand.terms)} terms, annihilated: {in_kernel}"
    if in_kernel:
        cls = transfer_class(cand, E2)
        detail += f", class = {hclass_str(cls) if cls else cls}"
    out.append(CheckResult("candidate-fixture-report", True, detail))
    return out


# -- cobar consistency -----------------------------------------------------


def crit_cobar_consistency() -> List[CheckResult]:
    out = []

    def composite_vanishes(profile: Profile, max_len: int, max_deg: int) -> List[tuple]:
        # rows of a differential matrix are indexed by target words with
        # source bits, so row i of the composite is the xor of d1 rows
        # over the support of d2's row i
        bad = []
        for length in range(1, max_len + 1):
            for deg in range(max_deg + 1):
                d1 = differential_matrix(profile, length, deg)
                d2 = differential_matrix(profile, length + 1, deg)
                for i, r in enumerate(d2.rows):
                    if image_of(r, d1.rows):
                        bad.append((length, deg, i))
        return bad

    bad_e2 = composite_vanishes(E2, 4, 26)
    out.append(
        CheckResult(
            "differential-squares-to-zero-e2",
            not bad_e2,
            f"lengths <= 4, degrees <= 26; offenders: {bad_e2[:5]}",
        )
    )
    bad_full = composite_vanishes(FULL, 2, 12)
    out.append(
        CheckResult(
            "differential-squares-to-zero-full",
            not bad_full,
            f"lengths <= 2, degrees <= 12; offenders: {bad_full[:5]}",
        )
    )

    bad_dim = []
    for n in range(5):
        for t in range(27):
            if cohomology_dim(E2, n, t) != len(h_monomials(E2, n, t)):
                bad_dim.append((n, t))
    explicit = cohomology_dim(E2, 4, 24)
    out.append(
        CheckResult(
            "cohomology-dims-match-h-monomial-counts",
            not bad_dim and explicit == 3,
            f"n <= 4, t <= 26; mismatches: {bad_dim[:5]}; dim at (4,24) = {explicit}",
        )
    )
    return out


# -- doubling map and Frobenius -------------------------------------------


def _random_element(rng: random.Random, rank: int, degree: int) -> HElement:
    basis = degree_basis(rank, degree)
    terms = frozenset(rng.sample(basis, k=min(len(basis), rng.randint(1, 3))))
    return HElement(rank, degree, terms)


def crit_kameko_frobenius() -> List[CheckResult]:
    out = []
    rng = random.Random(0x5E2)

    bad_kill, bad_shift = [], []
    for rank in range(1, 4):
        for _ in range(6):
            z = _random_element(rng, rank, rng.randint(0, 20))
            dz = kameko_sq0(z)
            for t in range(1, 5):
                if not right_action(dz, Pst(0, t)).is_zero():
                    bad_kill.append((rank, z.degree, t))
                for s in range(1, 4):
                    if right_action(dz, Pst(s, t)) != kameko_sq0(
                        right_action(z, Pst(s - 1, t))
                    ):
                        bad_shift.append((rank, z.degree, s, t))
    out.append(
        CheckResult(
            "doubled-elements-killed-by-Pt0",
            not bad_kill,
            f"offenders: {bad_kill[:5]}",
        )
    )
    out.append(
        CheckResult(
            "doubling-intertwines-Pts",
            not bad_shift,
            f"(Sq0 z)P_t^s = Sq0(z P_t^(s-1)); offenders: {bad_shift[:5]}",
        )
    )

    bad_frob = [
        k for k in range(101) if f_star(2 * k + 1) != frobenius(f_star(k))
    ]
    out.append(
        CheckResult(
            "f-star-odd-is-square",
            not bad_frob,
            f"f(2k+1) = f(k)^2, k <= 100; offenders: {bad_frob[:5]}",
        )
    )

    bad_chain = []
    for rank in range(1, 3):
        for _ in range(5):
            z = _random_element(rng, rank, rng.randint(0, 8))
            doubled = transfer_chain(kameko_sq0(z)).words
            squared = frozenset(
                tuple(tuple((t, 2 * e) for t, e in letter) for letter in w)
                for w in transfer_chain(z).words
            )
            if doubled != squared:
                bad_chain.append((rank, z.degree))
    out.append(
        CheckResult(
            "chain-level-doubling-squares-slots",
            not bad_chain,
            f"offenders: {bad_chain[:5]}",
        )
    )
    return out


# -- the paired-spike family ----------------------------------------------


def spike_pairs(a: int) -> List[Tuple[int, int]]:
    """The exponents (k, l) of the paired spikes b_k b_l of family a,
    k = 2^a(2^(i+1) - 1) - 1 and l = 2^(a+i+1)(2^(a-i) - 1) - 1 for
    i = 1..a-1: a - 1 of the family's a pairs, all of degree
    2^(2a+1) - 2^a - 2."""
    return [
        (
            (1 << a) * (2 * (1 << i) - 1) - 1,
            (1 << (a + i + 1)) * (2 * (1 << (a - i - 1)) - 1) - 1,
        )
        for i in range(1, a)
    ]


def crit_paired_spikes() -> List[CheckResult]:
    out = []
    for a in (2, 3, 4):
        monos = spike_pairs(a)
        degrees = {k + el for k, el in monos}
        displayed = (1 << (2 * a + 1)) - (1 << a) - 1
        common = degrees.pop() if len(degrees) == 1 else None

        not_killed = []
        for k, el in monos:
            z = HElement.b(k, el)
            for op in generators(DIAG, z.degree):
                if not right_action(z, op).is_zero():
                    not_killed.append((k, el, op))
                    break
        out.append(
            CheckResult(
                f"family-a{a}-annihilated-distinct-cograded",
                not not_killed and len(set(monos)) == a - 1 and common is not None,
                f"pairs {monos}, common degree {common}",
            )
        )
        out.append(
            CheckResult(
                f"family-a{a}-degree-off-by-one-flagged",
                common is not None and common == displayed - 1,
                f"stated degree {displayed}, actual {common}",
            )
        )
    return out


# -- the stratified invariance example --------------------------------------


Z_12_80 = "h[2,0]^8 * h[3,1]^4 + h[3,0]^8 * h[2,1]^4 + h[2,1]^11 * h[3,1]"


def crit_stratified_example() -> List[CheckResult]:
    z = parse_r_text(Z_12_80)
    return [
        CheckResult("invariant-under-sq-2^k", is_invariant(z, 6), "k <= 6"),
        CheckResult(
            "single-stratum-terms-excluded",
            same_s_excluded(z, 2),
            "some term uses one s value with a generator outside t = 2",
        ),
    ]


# -- diagonal-profile spikes ------------------------------------------------


def crit_diagonal_spikes() -> List[CheckResult]:
    out = []
    for t in range(1, 5):
        k = (1 << (t - 1)) * ((1 << t) - 1) - 1
        out.append(
            CheckResult(
                f"b{k}-maps-to-xi{t}^{1 << (t - 1)}",
                _spike_transfers(is_D_annihilated_rank1(k), k, t, t - 1, DIAG),
                f"image {sorted(f_star(k, DIAG))}",
            )
        )
    return out


# -- registry ----------------------------------------------------------------


CRITERIA: Dict[str, Callable[[], List[CheckResult]]] = {
    "rank1-action-binomial-oracle": crit_rank1_action_binomial,
    "rank1-annihilation-predicates": crit_rank1_annihilation,
    "transfer-image-windows": crit_transfer_windows,
    "rank2-degree11-witness": crit_degree11_witness,
    "rank4-degree20-kernel": crit_degree20_kernel,
    "rank4-degree14-fixture": crit_degree14_fixture,
    "rank4-degree17-existence": crit_degree17_existence,
    "cobar-consistency": crit_cobar_consistency,
    "kameko-frobenius": crit_kameko_frobenius,
    "paired-spike-family": crit_paired_spikes,
    "stratified-invariance-example": crit_stratified_example,
    "diagonal-spike-transfer": crit_diagonal_spikes,
}

SUITES: Dict[str, Tuple[str, ...]] = {
    "thm1.1-g": ("rank4-degree20-kernel",),
    "thm1.1-d0": ("rank4-degree14-fixture",),
    "thm1.1-e0": ("rank4-degree17-existence",),
    "lemmas": (
        "rank1-action-binomial-oracle",
        "rank1-annihilation-predicates",
        "transfer-image-windows",
        "kameko-frobenius",
    ),
    "props": (
        "rank2-degree11-witness",
        "cobar-consistency",
        "diagonal-spike-transfer",
    ),
    "remark3.5": ("paired-spike-family",),
    "example5.11": ("stratified-invariance-example",),
    "all": tuple(CRITERIA),
}


def run_criterion(name: str) -> CriterionReport:
    start = time.perf_counter()
    checks = tuple(CRITERIA[name]())
    elapsed = time.perf_counter() - start
    return CriterionReport(name, all(c.passed for c in checks), elapsed, checks)
