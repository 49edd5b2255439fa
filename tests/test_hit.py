"""Squares on polynomials, hit subspaces and conjugation.

The module under test is built from the Cartan formula only, so the
checks against the coaction-based homology action (transposed matrices,
dimension duality) tie two independent code paths together.
"""

import ast
import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer import hit
from steenrod_transfer.bv import (
    _basis_index,
    action_matrix,
    annihilated_subspace,
    basis_dim,
    degree_basis,
)
from steenrod_transfer.hit import (
    PolyElement,
    _sq_mono,
    apply_op,
    chi_sq,
    decomposables,
    is_hit,
    peterson_wood,
    sq,
    sq_matrix,
)
from steenrod_transfer.milnor import Profile, Pst


def reference_sq_mono(i, mono):
    """Sq^i on one monomial as a set of monomials, by the Cartan formula
    over the variables one at a time, with no memo: the enumeration that
    hit._sq_mono replaced."""
    partial = [((), i)]  # (exponents so far, part of i left)
    left = sum(mono)
    for e in mono:
        left -= e
        nxt = []
        for acc, rem in partial:
            # binom(e, j) odd iff the digits of j lie inside e; the later
            # variables take rem - j, at most their degree
            cand = e & ((1 << rem.bit_length()) - 1)
            j = cand
            while j >= rem - left:
                if j <= rem:
                    nxt.append((acc + (e + j,), rem - j))
                if not j:
                    break
                j = (j - 1) & cand
        partial = nxt
    return {acc for acc, _ in partial}


def sq_oracle_rank1(i, e):
    """Single variable: Sq^i x^e = binom(e, i) x^{e+i} by counting."""
    from math import comb

    return {(e + i,)} if comb(e, i) % 2 else set()


@st.composite
def poly_elements(draw, max_rank=3, max_exp=6, max_terms=3):
    rank = draw(st.integers(1, max_rank))
    degree = draw(st.integers(0, max_exp * rank))
    basis = degree_basis(rank, degree)
    if not basis:
        return PolyElement.zero(rank, degree)
    terms = draw(st.sets(st.sampled_from(basis), max_size=max_terms))
    return PolyElement(rank, degree, frozenset(terms))


class TestSq:
    def test_sq1_product_rule(self):
        assert sq(1, PolyElement.x(2, 1)) == PolyElement.x(2, 2)

    def test_sq2_cartan_split(self):
        assert sq(2, PolyElement.x(1, 1)) == PolyElement.x(2, 2)

    def test_sq0_identity(self):
        p = PolyElement(2, 5, frozenset({(4, 1), (2, 3)}))
        assert sq(0, p) == p

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_rank1_against_binomial(self, i, e):
        got = sq(i, PolyElement.x(e)).terms
        assert set(got) == sq_oracle_rank1(i, e)

    @given(poly_elements())
    def test_vanishing_above_degree(self, p):
        assert sq(p.degree + 1, p).is_zero()

    @given(poly_elements(max_rank=2, max_exp=4))
    def test_top_square(self, p):
        doubled = frozenset(tuple(2 * e for e in t) for t in p.terms)
        assert sq(p.degree, p).terms == doubled

    @given(st.data(), st.integers(1, 2), st.integers(0, 6))
    def test_cartan_formula(self, data, rank, k):
        def element():
            degree = data.draw(st.integers(0, 6))
            basis = degree_basis(rank, degree)
            terms = data.draw(st.sets(st.sampled_from(basis), max_size=2)) if basis else set()
            return PolyElement(rank, degree, frozenset(terms))

        p, q = element(), element()
        total = sq(k, p * q)
        split = PolyElement.zero(p.rank, p.degree + q.degree + k)
        for i in range(k + 1):
            split = split ^ sq(i, p) * sq(k - i, q)
        assert total == split

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_sq_mono_matches_enumeration(self, rank):
        # every monomial of degree <= 12, every i <= 16, in the full basis
        # and, for the positive monomials, in the positive part's basis;
        # the tails are memoised across the sweep as within one caller,
        # and not at all
        for least in (0, 1):
            tails = {}
            for degree in range(13):
                for mono in degree_basis(rank, degree, least):
                    for i in range(17):
                        idx = _basis_index(rank, degree + i, least)
                        want = sum(1 << idx[m] for m in reference_sq_mono(i, mono))
                        assert _sq_mono(i, mono, degree, least, tails) == want, (i, mono, least)
                        assert _sq_mono(i, mono, degree, least, {}) == want, (i, mono, least)

    def test_rank_zero_has_no_basis(self):
        # H^*(BV_0) has no degree_basis, so a positive square of its unit
        # is refused like sq_matrix at rank 0, not built inconsistently
        one = PolyElement(0, 0, {()})
        assert sq(0, one) == one
        for i in range(1, 4):
            with pytest.raises(ValueError, match="rank must be positive"):
                sq(i, one)
            with pytest.raises(ValueError, match="rank must be positive"):
                sq_matrix(i, 0, 0)

    @given(poly_elements(max_rank=4, max_exp=4, max_terms=4), st.integers(0, 16))
    def test_sq_matches_enumeration(self, p, i):
        want = set()
        for mono in p.terms:
            want ^= reference_sq_mono(i, mono)
        assert sq(i, p).terms == want

    def test_matrix_route_matches(self):
        for rank, degree, i in [(2, 5, 2), (3, 4, 1), (1, 7, 4)]:
            cols = sq_matrix(i, rank, degree).columns()
            for j, mono in enumerate(degree_basis(rank, degree)):
                img = PolyElement.from_coords(rank, degree + i, cols[j])
                assert img == sq(i, PolyElement(rank, degree, frozenset({mono})))


class TestTransposeDuality:
    """Sq^{2^s} is the basis element dual to xi_1^{2^s}, so its matrix
    must be the transpose of the homology action matrix, which was coded
    from the coaction with no shared machinery."""

    @pytest.mark.parametrize("s", [0, 1, 2])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_transpose_of_action(self, s, rank):
        k = 1 << s
        for degree in range(k, 9):
            lhs = sq_matrix(k, rank, degree - k)
            rhs = action_matrix(Pst(s, 1).dual, rank, degree)
            assert tuple(lhs.columns()) == rhs.rows and lhs.nrows == rhs.ncols


class TestDecomposables:
    def test_rank1_unhit_iff_spike(self):
        for d in range(1, 41):
            unhit = basis_dim(1, d) - decomposables(1, d).dim
            assert unhit == (1 if d + 1 == 1 << (d + 1).bit_length() - 1 else 0)

    def test_5555_is_hit(self):
        assert is_hit(PolyElement.x(5, 5, 5, 5))

    def test_duality_with_annihilated(self):
        for rank in (1, 2, 3):
            for degree in range(0, 17):
                hit_codim = basis_dim(rank, degree) - decomposables(rank, degree).dim
                assert hit_codim == annihilated_subspace(Profile.full(), rank, degree).dim

    def test_duality_rank4(self):
        for degree, total in ((14, 680), (17, 1140), (20, 1771)):
            assert basis_dim(4, degree) == total
            hit_codim = total - decomposables(4, degree).dim
            assert hit_codim == annihilated_subspace(Profile.full(), 4, degree).dim

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(0, 12))
    def test_is_hit_matches_decomposables(self, data, rank, degree):
        # a few monomials over several supports, zero exponents included
        # (in degree 0 the unit), plus squares of monomials, which are hit
        basis = degree_basis(rank, degree)
        p = PolyElement(rank, degree, data.draw(st.sets(st.sampled_from(basis), max_size=4)))
        for i in data.draw(st.lists(st.integers(1, degree), max_size=3) if degree else st.just([])):
            mono = data.draw(st.sampled_from(degree_basis(rank, degree - i)))
            p = p ^ sq(i, PolyElement(rank, degree - i, {mono}))
        assert is_hit(p) == decomposables(rank, degree).contains(p.to_coords())

    def test_decomposables_is_operator_stable(self):
        # applying any Sq to a hit class keeps it hit
        sub = decomposables(2, 6)
        for v in sub.basis:
            p = PolyElement.from_coords(2, 6, v)
            for i in (1, 2, 3):
                q = sq(i, p)
                assert q.is_zero() or is_hit(q)


# what hit.py takes from bv today: how the bases are enumerated and
# indexed, and the element class; never the homology action
BV_NAMES = {"GradedElement", "Monomial", "basis_dim", "degree_basis", "terms_to_coords", "_basis_index", "_embed_supports"}


def test_hit_stays_independent_of_the_homology_action():
    """hit's subspaces are the cohomology side that the homology action is
    checked against, so hit may import from the package only gf2 and
    bv's basis enumeration and coordinates: no speed-up may route them
    through the action they cross-check."""
    from_bv = set()
    for node in ast.walk(ast.parse(inspect.getsource(hit))):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("steenrod_transfer") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert not (node.module or "").startswith("steenrod_transfer"), node.module
                continue
            assert node.level == 1 and node.module in ("bv", "gf2"), (node.level, node.module)
            if node.module == "bv":
                from_bv |= {a.name for a in node.names}
    assert from_bv <= BV_NAMES, from_bv - BV_NAMES


class TestChiSq:
    def test_small_values(self):
        assert chi_sq(0) == frozenset({()})
        assert chi_sq(1) == frozenset({(1,)})
        assert chi_sq(2) == frozenset({(2,), (1, 1)})
        assert chi_sq(3) == frozenset({(3,), (1, 2), (2, 1), (1, 1, 1)})

    @given(st.integers(1, 7), poly_elements(max_rank=2, max_exp=3, max_terms=2))
    @settings(deadline=None)
    def test_defining_recursion_evaluates_to_zero(self, k, p):
        # sum_{i+j=k} Sq^i chi(Sq^j) is zero as an operation
        total = PolyElement.zero(p.rank, p.degree + k)
        for i in range(0, k + 1):
            total = total ^ sq(i, apply_op(chi_sq(k - i), p))
        assert total.is_zero()

    def test_chi_sq8_on_1111(self):
        got = apply_op(chi_sq(8), PolyElement.x(1, 1, 1, 1))
        # the distinct permutations of (4,4,2,2) and of (8,2,1,1)
        want = {*itertools.permutations((4, 4, 2, 2)), *itertools.permutations((8, 2, 1, 1))}
        assert got == PolyElement(4, 12, want)

    def test_apply_op_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            apply_op([(1,), (2,)], PolyElement.x(1))


class TestChiTrick:
    """u Sq^k(v) + chi(Sq^k)(u) v is always hit."""

    def test_degree20_instance(self):
        u, v = PolyElement.x(1, 1, 1, 1), PolyElement.x(2, 2, 2, 2)
        assert is_hit(u * sq(8, v) ^ apply_op(chi_sq(8), u) * v)

    @given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4),
           st.integers(0, 4), st.integers(0, 4))
    @settings(deadline=None, max_examples=40)
    def test_rank2_monomials(self, k, a, b, c, d):
        u = PolyElement.x(a, b)
        v = PolyElement.x(c, d)
        assert is_hit(u * sq(k, v) ^ apply_op(chi_sq(k), u) * v)


class TestPetersonWood:
    def test_instances(self):
        assert peterson_wood((10, 4, 3, 3))
        assert peterson_wood((6, 6, 4, 4))
        assert not peterson_wood((5, 5, 5, 5))
        assert not peterson_wood((1,))

    def test_criterion_implies_hit(self):
        for rank in (1, 2, 3):
            for degree in range(1, 15):
                for mono in degree_basis(rank, degree):
                    if peterson_wood(mono):
                        assert is_hit(PolyElement(rank, degree, frozenset({mono})))

    def test_rank4_instances_are_hit(self):
        assert is_hit(PolyElement.x(10, 4, 3, 3))
        assert is_hit(PolyElement.x(6, 6, 4, 4))


class TestPolyElement:
    def test_mul_is_frobenius_on_sums(self):
        p = PolyElement(1, 1, frozenset({(1,)}))
        q = PolyElement(1, 2, frozenset({(2,)}))
        s = p ^ PolyElement(1, 1, frozenset())  # just p
        assert (s * s).terms == q.terms  # (x)^2 = x^2

    def test_square_of_sum_has_no_cross_terms(self):
        p = PolyElement(2, 1, frozenset({(1, 0), (0, 1)}))
        assert (p * p).terms == frozenset({(2, 0), (0, 2)})

    def test_coords_roundtrip(self):
        p = PolyElement(3, 4, frozenset({(2, 1, 1), (4, 0, 0)}))
        assert PolyElement.from_coords(3, 4, p.to_coords()) == p

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PolyElement(2, 3, frozenset({(1, 1)}))
