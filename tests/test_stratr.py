"""The limit algebra: relation, generator squares, shift, exclusions."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer import criteria
from steenrod_transfer.bv import HElement, annihilated_subspace
from steenrod_transfer.milnor import Profile
from steenrod_transfer.stratr import (
    R_ONE,
    R_ZERO,
    _sq_any,
    is_invariant,
    parse_r_text,
    r_mono,
    same_s_excluded,
    sq_2k,
)
from steenrod_transfer.transfer import transfer_class

Z_12_80 = parse_r_text(criteria.Z_12_80)


def gens(max_t=4):
    return [(t, s) for t in range(1, max_t + 1) for s in range(t)]


@st.composite
def r_elements(draw, max_t=4, max_len=4, max_terms=3):
    monos = draw(
        st.lists(
            st.lists(st.sampled_from(gens(max_t)), min_size=0, max_size=max_len),
            max_size=max_terms,
        )
    )
    return r_sum(r_mono(*pairs) for pairs in monos)


def r_sum(elements):
    return functools.reduce(operator.xor, elements, R_ZERO)


def r_product(a, b):
    """The product in R: concatenate monomials; r_mono applies the relation."""
    return r_sum(r_mono(*(u + v)) for u in a for v in b)


class TestRelation:
    def test_survives(self):
        assert r_mono((2, 1), (3, 1)) != R_ZERO

    def test_killed(self):
        assert r_mono((2, 1), (3, 2)) == R_ZERO
        assert r_mono((3, 2), (2, 1)) == R_ZERO  # order of writing is irrelevant

    def test_powers_survive(self):
        assert r_mono((2, 1), (2, 1)) != R_ZERO

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError):
            r_mono((2, 2))


class TestGeneratorSquares:
    def test_sq1_h30(self):
        assert sq_2k(0, r_mono((3, 0))) == r_mono((2, 1))

    def test_sq4_h32(self):
        assert sq_2k(2, r_mono((3, 2))) == R_ZERO

    def test_sq2_h21(self):
        assert sq_2k(1, r_mono((2, 1))) == R_ZERO

    def test_sq2_h20(self):
        assert sq_2k(1, r_mono((2, 0))) == r_mono((1, 0))

    def test_h10_powers_invariant(self):
        for j in (1, 2, 5):
            assert is_invariant(r_mono(*[(1, 0)] * j), 8)

    def test_h20_not_invariant(self):
        assert not is_invariant(r_mono((2, 0)), 3)

    @given(st.integers(0, 5), r_elements(max_t=3))
    @settings(deadline=None)
    def test_length_preserved(self, k, z):
        # every copy maps to a single generator, so word length is stable
        # (internal degree is not: Sq^{2^s} h_{t,s} = h_{t-1,s+1} drops it)
        lengths = {len(m) for m in z}
        assert {len(m) for m in sq_2k(k, z)} <= lengths

    @given(st.integers(1, 16), r_elements(max_t=3, max_len=3, max_terms=2),
           r_elements(max_t=3, max_len=3, max_terms=2))
    @settings(deadline=None, max_examples=60)
    def test_cartan_consistency(self, budget, a, b):
        direct = _sq_any(budget, r_product(a, b))
        split = R_ZERO
        for i in range(budget + 1):
            split = split ^ r_product(_sq_any(i, a), _sq_any(budget - i, b))
        assert direct == split


class TestPalmieriExample:
    def test_shape(self):
        assert len(Z_12_80) == 3
        # (length, internal degree), h_{t,s} in degree 2^s (2^t - 1)
        degrees = {(len(m), sum((1 << s) * ((1 << t) - 1) for t, s in m)) for m in Z_12_80}
        assert degrees == {(12, 80)}

    def test_invariance(self):
        assert is_invariant(Z_12_80, 6)

    def test_higher_squares_vanish_for_degree_reasons(self):
        # per-copy spending tops out well below 2^7
        assert sq_2k(7, Z_12_80) == R_ZERO

    def test_single_s_term_flags_it(self):
        assert same_s_excluded(Z_12_80, 2)

    def test_g_restriction_is_silent(self):
        assert not same_s_excluded(r_mono(*[(2, 1)] * 4), 2)

    def test_mixed_s_is_silent(self):
        for m in (2, 3):
            assert not same_s_excluded(r_mono((m, 0), (m, 1)), m)


class TestTransferConsistency:
    def test_e2_classes_never_flagged(self):
        # everything the rank-2 E(2)-transfer hits in low degrees must
        # avoid the excluded shape
        E2 = Profile.E(2)
        for degree in range(0, 13):
            sub = annihilated_subspace(E2, 2, degree)
            for v in sub.basis:
                x = HElement.from_coords(2, degree, v)
                cls = transfer_class(x, E2)
                assert cls is not None
                assert not same_s_excluded(frozenset(cls), 2)

    def test_rank4_window_classes_never_flagged(self):
        # the fully annihilated rank-4 kernels restrict into E(2) with
        # classes that always mix s values
        E2 = Profile.E(2)
        for degree in (14, 17, 20):
            sub = annihilated_subspace(Profile.full(), 4, degree)
            for v in sub.basis:
                x = HElement.from_coords(4, degree, v)
                cls = transfer_class(x, E2)
                assert cls is not None
                assert not same_s_excluded(frozenset(cls), 2)


class TestSerialization:
    def test_parse_text(self):
        assert Z_12_80 == r_sum(
            [
                r_mono(*[(2, 0)] * 8 + [(3, 1)] * 4),
                r_mono(*[(3, 0)] * 8 + [(2, 1)] * 4),
                r_mono(*[(2, 1)] * 11 + [(3, 1)]),
            ]
        )

    def test_zero_and_one(self):
        assert parse_r_text("0") == R_ZERO
        assert parse_r_text("1") == R_ONE

    def test_bad_text(self):
        with pytest.raises(ValueError):
            parse_r_text("h[2,0] * x")
