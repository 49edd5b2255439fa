import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer.cobar import (
    bidegree_report,
    cell_basis,
    class_of,
    cohomology_dim,
    differential,
    differential_matrix,
    h_monomials,
    hclass_str,
    hmono_str,
    is_cocycle,
    is_primitive,
    word_degree,
    word_of,
    word_str,
    wordsum_degree,
)
from steenrod_transfer.bv import HElement, degree_basis
from steenrod_transfer.milnor import ONE, Profile, antipode, coproduct, dual_basis, mono_mul, xi
from steenrod_transfer.transfer import f_star, transfer_chain, verify_cocycle

PROFILES = {
    "full": Profile.full(),
    "E1": Profile.E(1),
    "E2": Profile.E(2),
    "D": Profile.D(),
}

# the profiles the grouped differential is checked on against the reference
REFERENCE_PROFILES = {
    "full": Profile.full(),
    "E1": Profile.E(1),
    "E2": Profile.E(2),
    "E3": Profile.E(3),
    "D2": Profile.D(2),
    "D": Profile.D(),
}


def reference_differential(ws, profile):
    """d word by word: every coproduct choice is multiplied out and sent
    through the antipode on its own, with no grouping or cancellation
    before chi."""
    out = set()
    for w in ws:
        if not w:
            continue
        expanded = [tuple(coproduct(a, profile)) for a in w]
        for choice in itertools.product(*expanded):
            rights = tuple(b for _, b in choice)
            if any(b == ONE for b in rights):
                continue
            prod = ONE
            for a, _ in choice:
                prod = mono_mul(prod, a)
            if prod == ONE:
                continue
            for head in antipode(prod):
                if profile.mono_survives(head):
                    out.symmetric_difference_update({(head,) + rights})
    return frozenset(out)


def poly_ext_dim(m, n, t):
    """Multiset count of h_{t,s} with s < m <= t, independent route."""
    pairs = []
    tt = m
    while (1 << tt) - 1 <= t:
        for s in range(m):
            if (1 << s) * ((1 << tt) - 1) <= t:
                pairs.append((tt, s))
        tt += 1
    if n == 0:
        return 1 if t == 0 else 0
    count = 0
    for combo in itertools.combinations_with_replacement(pairs, n):
        if sum((1 << s) * ((1 << u) - 1) for u, s in combo) == t:
            count += 1
    return count


class TestDifferential:
    def test_primitive_letters_are_cocycles(self):
        assert differential((xi(1),), Profile.full()) == frozenset()
        assert differential((xi(2),), Profile.E(2)) == frozenset()
        assert differential((xi(3, 4),), Profile.E(3)) == frozenset()

    def test_square_of_primitive(self):
        # char 2: the reduced coproduct of xi_1^2 is empty
        assert differential((xi(1, 2),), Profile.full()) == frozenset()

    def test_xi2_full(self):
        assert differential((xi(2),), Profile.full()) == frozenset(
            {(xi(1, 2), xi(1))}
        )

    def test_conjugate_xi2(self):
        z = frozenset({(xi(2),), (xi(1, 3),)})
        assert differential(z, Profile.full()) == frozenset({(xi(1), xi(1, 2))})

    def test_nonprimitive_letter_e2(self):
        got = differential((xi(2, 3),), Profile.E(2))
        assert got == frozenset({(xi(2, 2), xi(2)), (xi(2), xi(2, 2))})

    def test_empty_word(self):
        assert differential((), Profile.full()) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(PROFILES)),
        st.integers(1, 3),
        st.integers(1, 10),
        st.data(),
    )
    def test_d_squared_zero(self, name, n, t, data):
        prof = PROFILES[name]
        basis = cell_basis(prof, n, t)
        if not basis:
            return
        w = data.draw(st.sampled_from(basis))
        assert differential(differential(w, prof), prof) == frozenset()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2), st.integers(2, 9), st.data())
    def test_image_degree(self, n, t, data):
        prof = Profile.full()
        basis = cell_basis(prof, n, t)
        if not basis:
            return
        w = data.draw(st.sampled_from(basis))
        img = differential(w, prof)
        if img:
            assert wordsum_degree(img) == (n + 1, t)


class TestGroupedDifferential:
    """The grouped routine against the word-by-word reference."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(REFERENCE_PROFILES)),
        st.integers(1, 3),
        st.integers(1, 12),
        st.data(),
    )
    def test_word_sums_match_reference(self, name, n, t, data):
        prof = REFERENCE_PROFILES[name]
        basis = cell_basis(prof, n, t)
        if not basis:
            return
        ws = frozenset(data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=5)))
        assert differential(ws, prof) == reference_differential(ws, prof)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(REFERENCE_PROFILES)),
        st.integers(1, 4),
        st.data(),
    )
    def test_factored_check_matches_words(self, name, rank, data):
        # random sums of terms with a nonzero image: most are not
        # annihilated, so most images are not cocycles
        prof = REFERENCE_PROFILES[name]
        degree = data.draw(st.integers(0, (30, 16, 12, 10)[rank - 1]))
        live = [e for e in degree_basis(rank, degree) if all(f_star(k, prof) for k in e)]
        if not live:
            return
        terms = data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=4))
        img = transfer_chain(HElement(rank, degree, frozenset(terms)), prof)
        d = differential(img.factors, prof)
        assert d == differential(img.words, prof) == reference_differential(img.words, prof)
        assert verify_cocycle(img, prof) == (not d)

    def test_non_cocycle_image(self):
        # b(1,2,3,8) is not annihilated; its 8-word image is no cocycle
        img = transfer_chain(HElement.b(1, 2, 3, 8), Profile.full())
        assert len(img.words) == 8
        d = differential(img.factors, Profile.full())
        assert len(d) == 67
        assert d == differential(img.words, Profile.full())
        assert d == reference_differential(img.words, Profile.full())
        assert not verify_cocycle(img, Profile.full())

    def test_matrix_columns_match_reference(self):
        for prof in REFERENCE_PROFILES.values():
            for n in (1, 2):
                src = cell_basis(prof, n, 9)
                tgt = cell_basis(prof, n + 1, 9)
                cols = differential_matrix(prof, n, 9).columns()
                for w, col in zip(src, cols):
                    want = reference_differential({w}, prof)
                    assert col == sum(1 << tgt.index(u) for u in want)


class TestCells:
    def test_lengths_and_degrees(self):
        for w in cell_basis(Profile.full(), 2, 5):
            assert len(w) == 2 and word_degree(w) == 5

    def test_full_2_5_count(self):
        counts = {d: len(dual_basis(Profile.full(), d)) for d in range(1, 5)}
        expected = sum(counts[d] * counts[5 - d] for d in range(1, 5))
        assert len(cell_basis(Profile.full(), 2, 5)) == expected

    def test_e2_4_21(self):
        assert len(cell_basis(Profile.E(2), 4, 21)) == 16

    def test_e2_4_24(self):
        assert len(cell_basis(Profile.E(2), 4, 24)) == 27

    def test_degenerate(self):
        assert cell_basis(Profile.full(), 0, 0) == ((),)
        assert cell_basis(Profile.full(), 0, 3) == ()
        assert cell_basis(Profile.full(), 3, 2) == ()

    def test_wordsum_degree_checks(self):
        with pytest.raises(ValueError):
            wordsum_degree(frozenset({(xi(1),), (xi(1, 2),)}))
        assert wordsum_degree(frozenset()) is None


class TestCohomology:
    def test_h0(self):
        assert cohomology_dim(Profile.full(), 0, 0) == 1
        assert cohomology_dim(Profile.full(), 0, 5) == 0

    def test_h1_full_is_two_powers(self):
        # primitives of the full dual algebra sit in degrees 2^j
        for t in range(1, 17):
            want = 1 if t & (t - 1) == 0 else 0
            assert cohomology_dim(Profile.full(), 1, t) == want

    def test_h1_e2_degree9(self):
        # xi_2^3 is a letter but not a cocycle
        assert cohomology_dim(Profile.E(2), 1, 9) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 16))
    def test_em_polynomial_dims(self, m, n, t):
        assert cohomology_dim(Profile.E(m), n, t) == poly_ext_dim(m, n, t)

    def test_e2_4_21_dim(self):
        assert cohomology_dim(Profile.E(2), 4, 21) == 1

    def test_e2_4_24_dim(self):
        assert cohomology_dim(Profile.E(2), 4, 24) == 3

    def test_h_monomials_match_dims(self):
        for n in range(1, 4):
            for t in range(0, 15):
                assert len(h_monomials(Profile.E(2), n, t)) == cohomology_dim(
                    Profile.E(2), n, t
                )


class TestPrimitives:
    def test_full(self):
        assert is_primitive(Profile.full(), xi(1, 4))
        assert not is_primitive(Profile.full(), xi(2))
        assert not is_primitive(Profile.full(), xi(1, 3))

    def test_e2(self):
        assert is_primitive(Profile.E(2), xi(2))
        assert is_primitive(Profile.E(2), xi(3, 2))
        assert not is_primitive(Profile.E(2), xi(2, 3))


class TestClassOf:
    def test_single_letters(self):
        assert class_of((xi(2),), Profile.E(2)) == frozenset({((2, 0),)})
        assert class_of((xi(1, 2),), Profile.full()) == frozenset({((1, 1),)})

    def test_permutation_invariance(self):
        a = class_of((xi(3), xi(2, 2)), Profile.E(2))
        b = class_of((xi(2, 2), xi(3)), Profile.E(2))
        assert a == b == frozenset({((3, 0), (2, 1))})

    def test_coboundary_is_zero_class(self):
        z = differential((xi(2, 3),), Profile.E(2))
        assert class_of(z, Profile.E(2)) == frozenset()

    def test_shifted_representative(self):
        z = differential((xi(2, 3),), Profile.E(2))
        w = frozenset({word_of(((2, 1), (2, 0)))}) ^ z
        assert class_of(w, Profile.E(2)) == frozenset({((2, 1), (2, 0))})

    def test_not_cocycle_raises(self):
        with pytest.raises(ValueError):
            class_of((xi(2, 3),), Profile.E(2))

    def test_concatenation_descends_to_classes(self):
        # [v][w] classes multiply: coboundary shifts on either factor only
        # contribute coboundaries to the product
        prof = Profile.E(2)
        v = frozenset({word_of(((2, 1), (2, 0)))}) ^ differential(
            (xi(2, 3),), prof
        )
        w_shifted = frozenset({word_of(((3, 1), (3, 0)))}) ^ differential(
            (xi(3, 3),), prof
        )
        for w, hm in (
            (frozenset({word_of(((2, 0),))}), ((2, 0),)),
            (frozenset({word_of(((3, 1),))}), ((3, 1),)),
            (w_shifted, ((3, 1), (3, 0))),
        ):
            vw = frozenset()
            for a in v:
                for b in w:
                    vw ^= {a + b}
            expected = tuple(sorted(((2, 1), (2, 0)) + hm, reverse=True))
            assert class_of(vw, prof) == frozenset({expected})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 14))
    def test_identity_on_candidates(self, m, n, t):
        prof = Profile.E(m)
        for hm in h_monomials(prof, n, t):
            assert class_of(word_of(hm), prof) == frozenset({hm})

    def test_zero(self):
        assert class_of(frozenset(), Profile.E(2)) == frozenset()


class TestDisplay:
    def test_bidegree_report_elementary(self):
        rep = bidegree_report(Profile.E(2), 4, 24)
        assert rep["s"] == 4 and rep["t"] == 24
        assert rep["dim"] == 3 == len(rep["basis"])
        assert all(b.startswith("h_{") for b in rep["basis"])

    def test_bidegree_report_full_uses_words(self):
        rep = bidegree_report(Profile.full(), 2, 5)
        assert rep["dim"] == len(rep["basis"])
        if rep["basis"]:
            assert rep["basis"][0].startswith("[")

    def test_hmono_str(self):
        assert hmono_str(((2, 1), (2, 1), (2, 0), (2, 0))) == "h_{2,1}^2 h_{2,0}^2"
        assert hmono_str(()) == "1"

    def test_hclass_str(self):
        assert hclass_str(frozenset()) == "0"

    def test_word_str(self):
        assert word_str((xi(3), xi(2, 2))) == "[xi3 | xi2^2]"

    def test_matrix_shapes(self):
        m = differential_matrix(Profile.E(2), 1, 9)
        assert m.ncols == len(cell_basis(Profile.E(2), 1, 9))
        assert m.nrows == len(cell_basis(Profile.E(2), 2, 9))
