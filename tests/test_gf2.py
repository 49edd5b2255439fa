import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steenrod_transfer.bv import HElement, annihilated_subspace, gl_act, swap_matrix, transvection
from steenrod_transfer.gf2 import (
    BudgetError,
    GF2Matrix,
    GF2Subspace,
    _rref,
    common_kernel,
    set_bit_budget,
)
from steenrod_transfer.milnor import Profile

from gf2_reference import reference_kernel, reference_rref


def span(vectors, ncols):
    """All linear combinations, by brute force.  Oracle for small cases."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def bits(s):
    """'110' -> int with bit 0 = leftmost char, matching written-out vectors."""
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def rref_lists(rows):
    """_rref as (rows, pivot columns) in pivot order, the form of
    reference_rref."""
    pivots, pivot_bits = _rref(rows)
    assert pivot_bits == sum(pivots)
    return list(pivots.values()), [low.bit_length() - 1 for low in pivots]


def random_matrix(rng, nrows, ncols):
    return GF2Matrix([rng.getrandbits(ncols) for _ in range(nrows)], ncols)


@st.composite
def bit_rows(draw, max_rows=14, max_cols=40):
    """(rows, ncols) with rows either dense or with a few bits each."""
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(0, max_rows))
    if ncols == 0:
        return [0] * nrows, ncols
    if draw(st.booleans()):
        row = st.integers(0, 2**ncols - 1)
    else:
        row = st.lists(st.integers(0, ncols - 1), max_size=3).map(
            lambda js: sum({1 << j for j in js})
        )
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


class TestAgainstColumnScan:
    @given(bit_rows())
    def test_rref_rows_and_pivots(self, case):
        rows, ncols = case
        assert rref_lists(rows) == reference_rref(rows, ncols)
        assert GF2Subspace(ncols, rows).basis == tuple(reference_rref(rows, ncols)[0])

    @given(bit_rows())
    def test_kernel(self, case):
        rows, ncols = case
        assert GF2Matrix(rows, ncols).kernel().basis == tuple(reference_kernel(rows, ncols))

    def test_back_reduction_needed(self):
        # echelon form alone would leave bit 1 in the first row
        assert rref_lists([0b011, 0b010]) == ([0b001, 0b010], [0, 1])

    def test_seeded_coinvariant_relations(self):
        # a fixed input of 220 vectors: p + g p at A r4 d20 over the three
        # adjacent swaps and one transvection
        space = annihilated_subspace(Profile.full(), 4, 20)
        gens = [swap_matrix(4, i, i + 1) for i in range(3)] + [transvection(4, 0, 1)]
        vecs = [
            v ^ gl_act(g, HElement.from_coords(4, 20, v)).to_coords()
            for v in space.basis
            for g in gens
        ]
        assert len(vecs) == 220
        want = reference_rref(vecs, space.ambient_dim)
        assert rref_lists(vecs) == want
        m = GF2Matrix(vecs, space.ambient_dim)
        ker = m.kernel()
        assert ker.dim == space.ambient_dim - len(want[0])
        assert all(m.mul_vec(v) == 0 for v in ker.basis)


class TestRank:
    def test_small_oracle(self):
        vecs = [bits("110"), bits("011"), bits("101")]
        # 101 = 110 + 011, so the span has 4 elements
        assert len(span(vecs, 3)) == 4
        assert GF2Subspace(3, vecs).dim == 2

    def test_identity(self):
        assert GF2Subspace(17, [1 << i for i in range(17)]).dim == 17

    def test_zero(self):
        assert GF2Subspace(5, [0, 0, 0]).dim == 0

    @given(st.lists(st.integers(0, 2**6 - 1), max_size=6))
    def test_rank_equals_log2_span(self, rows):
        assert 2 ** GF2Subspace(6, rows).dim == len(span(rows, 6))

    @given(st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=12))
    def test_rank_transpose(self, rows):
        m = GF2Matrix(rows, 8)
        assert GF2Subspace(8, m.rows).dim == GF2Subspace(m.nrows, m.transpose().rows).dim


class TestRowSpace:
    def test_canonical(self):
        a = GF2Subspace(3, [bits("110"), bits("011")])
        b = GF2Subspace(3, [bits("101"), bits("011"), bits("110")])
        assert a == b
        assert a.dim == 2

    @given(st.lists(st.integers(0, 2**7 - 1), max_size=8))
    def test_membership_matches_enumeration(self, rows):
        sub = GF2Subspace(7, rows)
        full = span(rows, 7)
        for v in range(2**7):
            assert sub.contains(v) == (v in full)

    @given(st.lists(st.integers(0, 2**6 - 1), max_size=6), st.integers(0, 2**6 - 1))
    def test_reduce_is_coset_invariant(self, rows, v):
        sub = GF2Subspace(6, rows)
        for b in sub.basis:
            assert sub.reduce(v ^ b) == sub.reduce(v)
        assert sub.contains(v ^ sub.reduce(v))

    def test_coords_roundtrip(self):
        sub = GF2Subspace(4, [bits("1100"), bits("0110"), bits("0011")])
        for v in range(16):
            c = sub.coords(v)
            if c is None:
                assert not sub.contains(v)
                continue
            acc = 0
            for i, r in enumerate(sub.basis):
                if c >> i & 1:
                    acc ^= r
            assert acc == v


class TestKernel:
    def test_all_ones_row(self):
        ker = GF2Matrix([bits("111")], 3).kernel()
        # even-weight vectors
        expected = {v for v in range(8) if bin(v).count("1") % 2 == 0}
        assert {v for v in range(8) if ker.contains(v)} == expected

    @given(st.lists(st.integers(0, 2**6 - 1), min_size=1, max_size=8))
    def test_kernel_by_enumeration(self, rows):
        m = GF2Matrix(rows, 6)
        ker = m.kernel()
        expected = {v for v in range(2**6) if m.mul_vec(v) == 0}
        assert {v for v in range(2**6) if ker.contains(v)} == expected
        assert ker.dim == 6 - GF2Subspace(6, rows).dim


class TestCommonKernel:
    @given(st.lists(st.lists(st.integers(0, 2**7 - 1), max_size=5), max_size=4))
    def test_matches_stacked_kernel(self, blocks):
        mats = [GF2Matrix(rows, 7) for rows in blocks]
        stacked = [r for rows in blocks for r in rows]
        assert common_kernel(mats, 7).basis == tuple(reference_kernel(stacked, 7))

    def test_seeded_large(self):
        rng = random.Random(5)
        mats = [random_matrix(rng, n, 120) for n in (30, 0, 45, 20)]
        stacked = [r for m in mats for r in m.rows]
        got = common_kernel(mats, 120)
        assert got.basis == tuple(reference_kernel(stacked, 120))
        assert got.dim == 120 - len(reference_rref(stacked, 120)[0])

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            common_kernel([GF2Matrix([1], 3), GF2Matrix([1], 4)], 3)


class TestTranspose:
    @given(st.lists(st.integers(0, 2**9 - 1), max_size=9))
    def test_involution(self, rows):
        m = GF2Matrix(rows, 9)
        assert m.transpose().transpose() == m

    def test_entries(self):
        m = GF2Matrix([bits("10"), bits("11"), bits("01")], 2)
        t = m.transpose()
        for i in range(m.nrows):
            for j in range(m.ncols):
                assert (m.rows[i] >> j & 1) == (t.rows[j] >> i & 1)


class TestBudget:
    def test_budget_respected(self):
        old = set_bit_budget(100)
        try:
            with pytest.raises(BudgetError):
                GF2Matrix([0] * 11, 10)
            GF2Matrix([0] * 10, 10)  # exactly at budget is fine
        finally:
            assert set_bit_budget(old) == 100
