import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer import transfer
from steenrod_transfer.bv import (
    HElement,
    annihilated_subspace,
    degree_basis,
    gl_act,
    swap_matrix,
)
from steenrod_transfer.cobar import class_of, differential, is_cocycle, wordsum_degree
from steenrod_transfer.milnor import Profile, frobenius, mono_degree, mono_mul, xi
from steenrod_transfer.transfer import (
    cocycle_verdicts,
    f_star,
    slot_types,
    transfer_chain,
    transfer_class,
)

FULL = Profile.full()
E1, E2, E3 = Profile.E(1), Profile.E(2), Profile.E(3)


def expanded_product(profile, top):
    """prod_i (1 + sum_t x^{2^i(2^t - 1)} xi_t^{2^i}) over the factors
    with i < h(t), multiplied out below x^{top + 1}: power -> monomials."""
    coeffs = {0: {()}}
    i = 0
    while (1 << i) <= top:
        new = {p: set(ms) for p, ms in coeffs.items()}
        t = 1
        while (w := (1 << i) * ((1 << t) - 1)) <= top:
            if i < profile(t):
                for p, ms in coeffs.items():
                    if p + w <= top:
                        for m in ms:
                            new.setdefault(p + w, set()).symmetric_difference_update(
                                {mono_mul(m, xi(t, 1 << i))}
                            )
            t += 1
        coeffs = new
        i += 1
    return coeffs


class TestRankOne:
    def test_full_values(self):
        assert f_star(0) == frozenset({xi(1)})
        assert f_star(3) == frozenset({xi(1, 4)})
        assert f_star(4) == frozenset({xi(1, 5), mono_mul(xi(1, 2), xi(2))})
        assert f_star(7) == frozenset({xi(1, 8)})

    def test_e2_values(self):
        assert f_star(2, E2) == frozenset({xi(2)})
        assert f_star(5, E2) == frozenset({xi(2, 2)})
        assert f_star(6, E2) == frozenset({xi(3)})
        assert f_star(8, E2) == frozenset({xi(2, 3)})
        assert f_star(11, E2) == frozenset()

    def test_e2_b20(self):
        assert f_star(20, E2) == frozenset(
            {mono_mul(xi(2, 2), xi(4)), xi(3, 3)}
        )

    @pytest.mark.parametrize("prof", [FULL, E1, E2, E3, Profile.D()], ids=["full", "E1", "E2", "E3", "D"])
    def test_matches_product_expansion(self, prof):
        # every k <= 200: the factors multiplied out term by term, against
        # _rank1's walk over the set bits of k + 1
        coeffs = expanded_product(prof, 201)
        for k in range(201):
            assert f_star(k, prof) == frozenset(coeffs.get(k + 1, ())), k

    @given(st.integers(0, 80), st.sampled_from(["full", "E1", "E2", "D"]))
    def test_degree_homogeneous(self, k, name):
        prof = {"full": FULL, "E1": E1, "E2": E2, "D": Profile.D()}[name]
        p = f_star(k, prof)
        if p:
            assert {mono_degree(m) for m in p} == {k + 1}

    @given(st.integers(0, 40), st.sampled_from(["full", "E2", "D"]))
    def test_frobenius_on_odd(self, k, name):
        # squaring shifts every factor index up by one, so the odd image
        # is the square of the even one, cut down to surviving monomials
        prof = {"full": FULL, "E2": E2, "D": Profile.D()}[name]
        assert f_star(2 * k + 1, prof) == prof.project(frobenius(f_star(k, prof)))

    @given(st.integers(0, 40))
    def test_frobenius_on_odd_full(self, k):
        assert f_star(2 * k + 1) == frobenius(f_star(k))

    @given(st.integers(0, 60), st.integers(1, 3))
    def test_projection_compatible(self, k, m):
        prof = Profile.E(m)
        assert f_star(k, prof) == prof.project(f_star(k))

    @given(st.integers(0, 40))
    def test_e1_support(self, k):
        p = f_star(k, E1)
        if (k + 2) & (k + 1) == 0 and k > 0 or k == 0:
            # k + 1 = 2^t - 1: the exterior transfer hits xi_t exactly
            t = (k + 1).bit_length()
            assert p == frozenset({xi(t)})
        else:
            assert p == frozenset()

    @given(st.integers(1, 4), st.data())
    def test_em_spike_images(self, m, data):
        # b_{2^s(2^m - 1) - 1} maps to xi_m^{2^s} for s < m
        s = data.draw(st.integers(0, m - 1))
        k = (1 << s) * ((1 << m) - 1) - 1
        assert f_star(k, Profile.E(m)) == frozenset({xi(m, 1 << s)})

    @given(st.integers(2, 4))
    def test_diagonal_profile_spikes(self, t):
        # b_{2^{t-1}(2^t - 1) - 1} maps to xi_t^{2^{t-1}} and represents
        # the class h_{t,t-1}
        k = (1 << (t - 1)) * ((1 << t) - 1) - 1
        d = Profile.D()
        assert f_star(k, d) == frozenset({xi(t, 1 << (t - 1))})
        assert class_of((xi(t, 1 << (t - 1)),), d) == frozenset({((t, t - 1),)})


class TestChain:
    def test_degree_bookkeeping(self):
        x = HElement.b(6, 5)
        img = transfer_chain(x, E2)
        assert wordsum_degree(img.words) == (2, 13)

    def test_witness_degree11(self):
        b = HElement(2, 11, frozenset({(6, 5), (3, 8), (9, 2), (10, 1), (7, 4)}))
        img = transfer_chain(b, E2)
        # only the (6,5) term survives the exterior-of-xi1 bottleneck
        assert img.words == frozenset({(xi(3), xi(2, 2))})
        assert is_cocycle(img.words, E2)
        assert transfer_class(b, E2) == frozenset({((3, 0), (2, 1))})

    def test_swap_gives_same_class(self):
        b = HElement(2, 11, frozenset({(6, 5), (3, 8), (9, 2), (10, 1), (7, 4)}))
        tb = gl_act(swap_matrix(2, 0, 1), b)
        assert transfer_class(tb, E2) == transfer_class(b, E2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_permutation_covariance_chain_level(self, data):
        # transposing slots before the chain map transposes word slots after
        rank = data.draw(st.integers(2, 3))
        degree = data.draw(st.integers(1, 10))
        basis = degree_basis(rank, degree)
        terms = data.draw(st.sets(st.sampled_from(basis), min_size=1, max_size=3))
        i = data.draw(st.integers(0, rank - 2))
        j = data.draw(st.integers(i + 1, rank - 1))
        x = HElement(rank, degree, frozenset(terms))
        prof = data.draw(st.sampled_from([FULL, E2]))

        def swap_word(w):
            s = list(w)
            s[i], s[j] = s[j], s[i]
            return tuple(s)

        direct = transfer_chain(gl_act(swap_matrix(rank, i, j), x), prof)
        assert direct.words == frozenset(
            swap_word(w) for w in transfer_chain(x, prof).words
        )

    def test_cancellation_to_zero_class(self):
        x = HElement.b(6, 5) ^ HElement.b(5, 6)
        cls = transfer_class(x, E2)
        assert cls == frozenset()

    def test_zero_image(self):
        x = HElement.b(1, 1)
        assert transfer_chain(x, E2).is_zero()
        assert transfer_class(x, E2) == frozenset()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 9))
    def test_annihilated_rank1_images_are_cocycles(self, d):
        sub = annihilated_subspace(FULL, 1, d)
        for v in sub.basis:
            x = HElement.from_coords(1, d, v)
            img = transfer_chain(x, FULL)
            assert is_cocycle(img.words, FULL)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 12))
    def test_annihilated_rank2_images_are_cocycles_e2(self, d):
        sub = annihilated_subspace(E2, 2, d)
        for v in sub.basis:
            x = HElement.from_coords(2, d, v)
            img = transfer_chain(x, E2)
            assert is_cocycle(img.words, E2)

    def test_rank4_cells_pinned(self):
        # A r4 d14/15/17: dims, total image words, all images cocycles;
        # then, with the orbit memo warm, a non-cocycle is still seen
        for d, dim, words in ((14, 50, 3390), (15, 75, 7920), (17, 87, 6428)):
            sub = annihilated_subspace(FULL, 4, d)
            assert sub.dim == dim
            imgs = [transfer_chain(HElement.from_coords(4, d, v), FULL) for v in sub.basis]
            assert sum(len(img.words) for img in imgs) == words
            assert all(is_cocycle(img.factors, FULL) for img in imgs)
        img = transfer_chain(HElement.b(1, 2, 3, 8), FULL)
        assert len(differential(img.factors, FULL)) == 67
        assert not is_cocycle(img.factors, FULL)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([FULL, E1, E2, E3, Profile.D()]), st.integers(1, 4), st.data())
    def test_word_count_needs_no_words(self, prof, rank, data):
        # a letter in slot v has degree e_v + 1, so distinct terms give
        # distinct words and the count of each term's words is exact
        degree = data.draw(st.integers(0, (40, 20, 14, 11)[rank - 1]))
        terms = data.draw(st.sets(st.sampled_from(degree_basis(rank, degree)), max_size=5))
        img = transfer_chain(HElement(rank, degree, frozenset(terms)), prof)
        assert img.word_count() == len(img.words)
        assert img.is_zero() == (not img.words)


def images_of(profile, rank, degree, basis):
    return [transfer_chain(HElement.from_coords(rank, degree, v), profile) for v in basis]


def count_checks(monkeypatch):
    """Record the images each cocycle check of transfer is given, by name;
    the checks themselves still run."""
    checked = {}

    def counted(name):
        check, seen = getattr(transfer, name), checked.setdefault(name, [])

        def run(ws, profile):
            seen.append(ws)
            return check(ws, profile)

        return run

    for name in ("is_cocycle", "is_symmetric_cocycle"):
        monkeypatch.setattr(transfer, name, counted(name))
    return checked


class TestCocycleVerdicts:
    @pytest.mark.parametrize("prof", [FULL, E2], ids=["A", "E2"])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_each_image_checked(self, prof, rank):
        for d in range(31):
            basis = annihilated_subspace(prof, rank, d).basis
            imgs = images_of(prof, rank, d, basis)
            assert cocycle_verdicts(rank, d, basis, imgs, prof) == [
                is_cocycle(img.factors, prof) for img in imgs
            ]

    @pytest.mark.parametrize(
        "prof,rank,degree,cocycles",
        [(FULL, 2, 5, 0), (FULL, 2, 7, 2), (FULL, 3, 7, 6), (E2, 2, 10, 9), (E2, 3, 12, 88)],
        ids=["A-r2-d5", "A-r2-d7", "A-r3-d7", "E2-r2-d10", "E2-r3-d12"],
    )
    def test_stable_space_with_non_cocycles(self, prof, rank, degree, cocycles):
        # the whole cell is Sigma_n-stable but not annihilated: a generator's
        # image fails, and every image is then checked
        basis = [1 << i for i in range(len(degree_basis(rank, degree)))]
        imgs = images_of(prof, rank, degree, basis)
        verdicts = cocycle_verdicts(rank, degree, basis, imgs, prof)
        assert verdicts == [is_cocycle(img.factors, prof) for img in imgs]
        assert sum(verdicts) == cocycles

    def test_unstable_basis_raises(self):
        x = HElement.b(1, 2)
        with pytest.raises(ValueError, match="Sigma_n-stable"):
            cocycle_verdicts(2, 3, [x.to_coords()], [transfer_chain(x, FULL)], FULL)
        # its orbit is stable, in either order
        y = HElement.b(2, 1)
        basis = [y.to_coords(), x.to_coords()]
        assert cocycle_verdicts(2, 3, basis, images_of(FULL, 2, 3, basis), FULL) == [False, False]

    @pytest.mark.parametrize(
        "prof,degree,dim,generators,symmetric",
        [
            (FULL, 14, 50, 8, 0),
            (FULL, 15, 75, 8, 1),
            (FULL, 17, 87, 10, 0),
            (E2, 17, 379, 2, 0),
            (E2, 20, 537, 2, 1),
        ],
        ids=["A-d14", "A-d15", "A-d17", "E2-d17", "E2-d20"],
    )
    def test_checks_only_generators(self, monkeypatch, prof, degree, dim, generators, symmetric):
        # the orbits of a few basis vectors span the rank-4 annihilated
        # space; under E2 most monomials have a slot with f_star = 0, and
        # only the live ones enter the span.  A generator whose orbit adds
        # one dimension goes the symmetric route.
        checked = count_checks(monkeypatch)
        basis = annihilated_subspace(prof, 4, degree).basis
        imgs = images_of(prof, 4, degree, basis)
        assert cocycle_verdicts(4, degree, basis, imgs, prof) == [True] * dim
        assert len(checked["is_cocycle"]) + len(checked["is_symmetric_cocycle"]) == generators
        assert len(checked["is_symmetric_cocycle"]) == symmetric

    @pytest.mark.parametrize(
        "degree,exponents,plus_heaviest",
        [(14, (2, 2, 4, 6), False), (17, (1, 2, 6, 8), False), (14, (1, 1, 6, 6), True), (17, (3, 3, 5, 6), True)],
        ids=["A-d14", "A-d17", "A-d14-repeats", "A-d17-repeats"],
    )
    def test_one_dimension_generator_that_fails(self, monkeypatch, degree, exponents, plus_heaviest):
        # the annihilated space plus x, the orbit sum of a type that is not
        # annihilated, or that plus the heaviest annihilated vector.  Either
        # way sigma . x - x is annihilated and x weighs more than every kept
        # vector: it is kept last, its orbit adds one dimension, and its
        # image is no cocycle.  With repeated exponents d(Tr x) is nonzero
        # only on tails that repeat a letter.
        basis = annihilated_subspace(FULL, 4, degree).basis
        x = HElement(4, degree, frozenset(itertools.permutations(exponents))).to_coords()
        if plus_heaviest:
            x ^= max(basis, key=lambda v: transfer_chain(HElement.from_coords(4, degree, v), FULL).word_count())
        basis = [*basis, x]
        imgs = images_of(FULL, 4, degree, basis)
        checked = count_checks(monkeypatch)
        verdicts = cocycle_verdicts(4, degree, basis, imgs, FULL)
        assert checked["is_symmetric_cocycle"] == [imgs[-1].factors]
        assert verdicts == [is_cocycle(img.factors, FULL) for img in imgs]
        assert verdicts == [True] * (len(basis) - 1) + [False]


class TestSlotTypes:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize(
        "prof", [FULL, E1, E2, E3, Profile.D()], ids=["full", "E1", "E2", "E3", "D"]
    )
    def test_matches_product_over_alive_exponents(self, prof, rank):
        top = 18
        alive = [k for k in range(top + 1) if f_star(k, prof)]
        types = {}
        for e in itertools.product(alive, repeat=rank):
            if sum(e) <= top:
                types.setdefault(sum(e), set()).add(tuple(sorted(e)))
        for degree in range(top + 1):
            assert slot_types(prof, rank, degree) == sorted(types.get(degree, ()))
