import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer.cobar import (
    _FIELD,
    _WIDTH,
    _pack,
    _rights,
    _sorted_differential,
    _unpack,
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
    is_symmetric_cocycle,
    word_degree,
    word_of,
    wordsum_degree,
)
from steenrod_transfer.bv import HElement, degree_basis
from steenrod_transfer.gf2 import GF2Matrix, common_kernel
from steenrod_transfer.milnor import (
    ONE,
    Profile,
    antipode,
    coproduct,
    dual_basis,
    mono_degree,
    mono_mul,
    xi,
)
from steenrod_transfer.transfer import f_star, transfer_chain

from gf2_reference import reference_kernel, reference_rref, reference_solve

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


@st.composite
def profiles(draw):
    """Non-decreasing heads, then a const tail at least the last head
    (None is the infinite tail)."""
    heads = sorted(draw(st.lists(st.integers(0, 4), max_size=3)))
    tail = draw(st.one_of(st.none(), st.integers(heads[-1] if heads else 0, 5)))
    return Profile(tuple(heads), "const", tail)


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
        self.check_d_squared_zero(PROFILES[name], n, t, data)

    @settings(max_examples=60, deadline=None)
    @given(profiles(), st.integers(1, 3), st.integers(1, 10), st.data())
    def test_d_squared_zero_random_profile(self, prof, n, t, data):
        self.check_d_squared_zero(prof, n, t, data)

    @staticmethod
    def check_d_squared_zero(prof, n, t, data):
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
        assert is_cocycle(img.factors, prof) == (not d)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from(sorted(REFERENCE_PROFILES)), min_size=2, max_size=2, unique=True),
        st.integers(2, 4),
        st.booleans(),
        st.data(),
    )
    def test_slot_permutation(self, names, n, from_transfer, data):
        # d(sigma.P) is d(P) with its right-hand slots permuted by sigma;
        # the two profiles alternate, so an orbit or left memoised under
        # one cannot stand in for the other
        a, b = (REFERENCE_PROFILES[k] for k in names)
        both = a.meet(b)
        if from_transfer:
            degree = data.draw(st.integers(0, (16, 12, 10)[n - 2]))
            live = [e for e in degree_basis(n, degree) if all(f_star(k, both) for k in e)]
            if not live:
                return
            term = data.draw(st.sampled_from(live))
            (product,) = transfer_chain(HElement(n, degree, frozenset({term})), both).factors
            words = frozenset(itertools.product(*product))
        else:
            basis = cell_basis(both, n, data.draw(st.integers(n, 14)))
            if not basis:
                return
            product = data.draw(st.sampled_from(basis))
            words = frozenset({product})
        sigma = data.draw(st.permutations(range(n)))
        moved = tuple(product[i] for i in sigma)
        for prof in (a, b, a, b):
            want = frozenset(
                (w[0],) + tuple(w[1 + i] for i in sigma)
                for w in reference_differential(words, prof)
            )
            assert differential(moved, prof) == want
            assert differential(product, prof) == reference_differential(words, prof)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(REFERENCE_PROFILES)), st.integers(2, 4), st.data())
    def test_sums_cancel_across_and_within_orbits(self, name, n, data):
        # a product, a slot-permuted copy of it (the same orbit), and one
        # product twice (the same sorted product): d of the list is the
        # XOR of the reference over each product's words
        prof = REFERENCE_PROFILES[name]
        degree = data.draw(st.integers(0, (16, 12, 10)[n - 2]))
        live = [e for e in degree_basis(n, degree) if all(f_star(k, prof) for k in e)]
        if not live:
            return
        terms = data.draw(st.lists(st.sampled_from(live), min_size=2, max_size=2))
        first, second = (tuple(f_star(k, prof) for k in e) for e in terms)
        sigma = data.draw(st.permutations(range(n)))
        products = [first, tuple(first[i] for i in sigma), second, second]
        want: set = set()
        for product in products:
            want.symmetric_difference_update(
                reference_differential(frozenset(itertools.product(*product)), prof)
            )
        assert differential(products, prof) == frozenset(want)
        assert differential(products[2:], prof) == frozenset()

    def test_non_cocycle_image(self):
        # b(1,2,3,8) is not annihilated; its 8-word image is no cocycle
        img = transfer_chain(HElement.b(1, 2, 3, 8), Profile.full())
        assert len(img.words) == 8
        d = differential(img.factors, Profile.full())
        assert len(d) == 67
        assert d == differential(img.words, Profile.full())
        assert d == reference_differential(img.words, Profile.full())
        assert not is_cocycle(img.factors, Profile.full())

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["full", "E2", "D"]), st.integers(1, 4), st.data())
    def test_symmetric_check_matches_full_check(self, name, rank, data):
        # an orbit sum x = sigma . x has d(Tr x) invariant under permuting
        # the right-hand slots; most are not annihilated, so both verdicts
        # are met
        prof = REFERENCE_PROFILES[name]
        degree = data.draw(st.integers(0, (30, 16, 12, 10)[rank - 1]))
        live = [e for e in degree_basis(rank, degree) if all(f_star(k, prof) for k in e)]
        if not live:
            return
        terms: set = set()
        for e in data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=3)):
            terms.symmetric_difference_update(set(itertools.permutations(e)))
        img = transfer_chain(HElement(rank, degree, frozenset(terms)), prof)
        assert is_symmetric_cocycle(img.factors, prof) == is_cocycle(img.factors, prof)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(REFERENCE_PROFILES)), st.integers(1, 4), st.data())
    def test_sorted_differential_is_reference_on_sorted_tails(self, name, rank, data):
        # on any sum of products, not only symmetric ones, the walk yields
        # exactly the words whose tails do not decrease in (degree, number)
        prof = REFERENCE_PROFILES[name]
        degree = data.draw(st.integers(0, (30, 16, 12, 10)[rank - 1]))
        live = [e for e in degree_basis(rank, degree) if all(f_star(k, prof) for k in e)]
        if not live:
            return
        terms = data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=3))
        img = transfer_chain(HElement(rank, degree, frozenset(terms)), prof)
        got = _sorted_differential(img.factors, prof)
        number = _rights(prof)  # every letter of a tail is numbered by now

        def key(m):
            return mono_degree(m), number[m]

        want = frozenset(
            w
            for w in reference_differential(img.words, prof)
            if all(key(a) <= key(b) for a, b in zip(w[1:], w[2:]))
        )
        assert got == want

    def test_matrix_columns_match_reference(self):
        # at length 3 an orbit of words under slot permutations holds up
        # to 6 words, which share one computed differential
        cells = [(prof, n, 9) for prof in REFERENCE_PROFILES.values() for n in (1, 2, 3)]
        # at length 4 every word of these cells repeats a letter, so the
        # stabilisers are nontrivial (E2 at degree 12 has one word and no
        # target, hence degree 22 there)
        cells += [(Profile.E(2), 4, 22), (Profile.D(), 4, 12)]
        # letters such as xi_1^15 and xi_1^5 xi_2^3 have exponents of many
        # binary digits, and chi of their lefts has many terms
        cells += [(Profile.full(), 2, 16)]
        for prof, n, degree in cells:
            src = cell_basis(prof, n, degree)
            tgt = {u: i for i, u in enumerate(cell_basis(prof, n + 1, degree))}
            cols = differential_matrix(prof, n, degree).columns()
            assert len(cols) == len(src)
            for w, col in zip(src, cols):
                want = reference_differential({w}, prof)
                assert col == sum(1 << tgt[u] for u in want)


# exponents of up to _WIDTH binary digits
EXPONENTS = st.integers(0, _FIELD)


@st.composite
def monomials(draw, exponents=EXPONENTS):
    es = draw(st.lists(exponents, max_size=6))
    return tuple((t, e) for t, e in enumerate(es, 1) if e)


class TestPackedMonomials:
    @given(monomials())
    def test_round_trip(self, m):
        assert _unpack(_pack(m)) == m
        assert _pack(ONE) == 0

    @given(monomials(st.integers(0, _FIELD // 2)), monomials(st.integers(0, _FIELD // 2 + 1)))
    def test_sum_is_product(self, a, b):
        assert _unpack(_pack(a) + _pack(b)) == mono_mul(a, b)

    def test_degree_bound(self):
        # xi_1^(2^k) for k < _WIDTH: degree 2^_WIDTH - 1, the largest that
        # cannot carry; one more xi_1 could, and raises before the walk
        word = tuple(xi(1, 1 << k) for k in reversed(range(_WIDTH)))
        assert word_degree(word) == _FIELD
        assert differential(word, Profile.full()) == frozenset()
        with pytest.raises(ValueError):
            differential(word + (xi(1),), Profile.full())
        with pytest.raises(ValueError):
            _sorted_differential([word + (xi(1),)], Profile.full())

    def test_many_digit_exponents(self):
        # lefts such as xi_1^2050 and xi_1^2 xi_2^1024, whose chi has several terms
        for word in [(xi(2, 1025),), (xi(2, 1025), xi(2, 3)), (((1, 1024), (2, 513)), xi(1, 3))]:
            prof = Profile.full()
            assert differential(word, prof) == reference_differential({word}, prof)


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
        assert cell_basis(Profile.full(), -1, 0) == ()

    @pytest.mark.parametrize("name", sorted(REFERENCE_PROFILES))
    def test_negative_length_matrix(self, name):
        # C^{-1} = 0, so d into C^0 is the zero map with no columns
        d = differential_matrix(REFERENCE_PROFILES[name], -1, 0)
        assert (d.ncols, d.rows) == (0, (0,))

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
        assert cohomology_dim(Profile.E(2), 4, 24) == 3 == len(h_monomials(Profile.E(2), 4, 24))

    def test_full_ext2_adams(self):
        # Ext_A^2 has basis h_i h_j, i <= j, j != i + 1 (Adams), h_i in t = 2^i
        for t in range(21):
            want = sum((1 << i) + (1 << j) == t for j in range(5) for i in range(j + 1) if j != i + 1)
            assert cohomology_dim(Profile.full(), 2, t) == want, t

    def test_full_ext3_wang(self):
        # Ext_A^3: h_i h_j h_k, i <= j <= k, j != i + 1, k != j + 1, less
        # h_i h_{i+2}^2 = 0 and h_i^2 h_{i+2} = h_{i+1}^3, plus c_0 in t = 11 (Wang)
        monos = [
            (i, j, k)
            for k in range(4) for j in range(k + 1) for i in range(j + 1)
            if j != i + 1 and k != j + 1 and (j, k) != (i + 2, i + 2) and (j, k) != (i, i + 2)
        ]
        for t in range(17):
            want = sum((1 << i) + (1 << j) + (1 << k) == t for i, j, k in monos) + (t == 11)
            assert cohomology_dim(Profile.full(), 3, t) == want, t

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


def reference_class(ws, profile):
    """class_of by another route: solve [h-words | coboundaries] x = z,
    then reduce the h-part of x modulo the h-parts of the kernel, all by
    the column-scan reference elimination."""
    if not ws:
        return frozenset()
    length, degree = wordsum_degree(ws)
    basis = cell_basis(profile, length, degree)
    hms = h_monomials(profile, length, degree)
    columns = [1 << basis.index(word_of(hm)) for hm in hms]
    columns += differential_matrix(profile, length - 1, degree).columns()
    system = GF2Matrix(columns, len(basis)).columns()
    x = reference_solve(system, len(columns), sum(1 << basis.index(w) for w in ws))
    if x is None:
        return None
    h_part = (1 << len(hms)) - 1
    kernel = reference_kernel(system, len(columns))
    coeffs = x & h_part
    for r, p in zip(*reference_rref([v & h_part for v in kernel], len(hms))):
        if coeffs >> p & 1:
            coeffs ^= r
    return frozenset(hm for j, hm in enumerate(hms) if coeffs >> j & 1)


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

    @pytest.mark.parametrize("name", ["full", "E1", "E2", "E3", "D"])
    def test_unit_word(self, name):
        # the length-0 unit word is the class of the empty h-monomial
        prof = REFERENCE_PROFILES[name]
        assert h_monomials(prof, 0, 0) == ((),)
        assert class_of((), prof) == frozenset({()})

    def test_coboundary_off_em(self):
        # H^{2,3} of A is 0, so the cocycle h_{1,1} h_{1,0} is a coboundary
        assert cohomology_dim(Profile.full(), 2, 3) == 0
        assert class_of(word_of(((1, 1), (1, 0))), Profile.full()) == frozenset()

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(REFERENCE_PROFILES)),
        st.integers(2, 3),
        st.integers(3, 12),
        st.data(),
    )
    def test_independent_of_representative(self, name, n, t, data):
        # z and z + d(u) are the same class, whichever h-monomials relate
        prof = REFERENCE_PROFILES[name]
        cocycles = [frozenset({word_of(hm)}) for hm in h_monomials(prof, n, t)]
        basis = cell_basis(prof, n, t)
        d = differential_matrix(prof, n, t)
        cocycles += [
            frozenset(w for i, w in enumerate(basis) if z >> i & 1)
            for z in common_kernel([d.nrows], lambda k: d.rows, d.ncols).basis
        ]
        chains = cell_basis(prof, n - 1, t)
        if not cocycles or not chains:
            return
        z = frozenset()
        for c in data.draw(st.lists(st.sampled_from(cocycles), min_size=1, max_size=4)):
            z ^= c
        u = data.draw(st.sets(st.sampled_from(chains), min_size=1, max_size=4))
        assert class_of(z ^ differential(u, prof), prof) == class_of(z, prof)
        assert class_of(z, prof) == reference_class(z, prof)


class TestDisplay:
    def test_hmono_str(self):
        assert hmono_str(((2, 1), (2, 1), (2, 0), (2, 0))) == "h_{2,1}^2 h_{2,0}^2"
        assert hmono_str(()) == "1"

    def test_hclass_str(self):
        assert hclass_str(frozenset()) == "0"

    def test_matrix_shapes(self):
        m = differential_matrix(Profile.E(2), 1, 9)
        assert m.ncols == len(cell_basis(Profile.E(2), 1, 9))
        assert m.nrows == len(cell_basis(Profile.E(2), 2, 9))
