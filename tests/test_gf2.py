import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steenrod_transfer.bv import HElement, annihilated_subspace, gl_act, swap_matrix, transvection
from steenrod_transfer import gf2
from steenrod_transfer.gf2 import (
    BudgetError,
    GF2Matrix,
    GF2Subspace,
    _rref,
    common_kernel,
    image_of,
)
from steenrod_transfer.milnor import Profile

from gf2_reference import (
    reference_kernel,
    reference_kernel_on,
    reference_mul_vec,
    reference_rref,
    sequential_kernel,
)


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
    reference_rref.  _rref keys each row by its pivot column."""
    pivots, pivot_bits = _rref(rows)
    assert pivot_bits == sum(1 << j for j in pivots)
    assert all(r & -r == 1 << j for j, r in pivots.items())
    return list(pivots.values()), list(pivots)


def random_matrix(rng, nrows, ncols):
    return GF2Matrix([rng.getrandbits(ncols) for _ in range(nrows)], ncols)


def kernel_of(row_lists, ncols, start=None):
    """common_kernel of the blocks with the given rows."""
    return common_kernel([len(rows) for rows in row_lists], row_lists.__getitem__, ncols, start)


class Recorder:
    """The shapes of blocks with the given rows, and a rows(k) that records
    which blocks it built."""

    def __init__(self, row_lists):
        self.row_lists = row_lists
        self.shapes = [len(rows) for rows in row_lists]
        self.built = []

    def rows(self, k):
        self.built.append(k)
        return self.row_lists[k]


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
        assert kernel_of([rows], ncols).basis == tuple(reference_kernel(rows, ncols))

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
        ker = kernel_of([vecs], space.ambient_dim)
        assert ker.dim == space.ambient_dim - len(want[0])
        assert all(reference_mul_vec(vecs, v) == 0 for v in ker.basis)


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
        assert GF2Subspace(8, m.rows).dim == GF2Subspace(m.nrows, m.columns()).dim


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

    # F2^3 holds neither bit 3 nor a negative int's infinite run of ones
    @pytest.mark.parametrize("vectors", [[0b1000, 0b11], [-1]], ids=["bit-3", "negative"])
    def test_vector_outside_ambient_raises(self, vectors):
        with pytest.raises(ValueError, match="outside ambient"):
            GF2Subspace(3, vectors)

    @pytest.mark.parametrize("v", [0b1000, -1, -2], ids=["bit-3", "minus-1", "minus-2"])
    def test_reduce_and_contains_reject_outside_vectors(self, v):
        sub = GF2Subspace(3, [1])
        with pytest.raises(ValueError, match="outside ambient"):
            sub.reduce(v)
        with pytest.raises(ValueError, match="outside ambient"):
            sub.contains(v)


class TestImageOf:
    @given(st.lists(st.integers(0, 2**8 - 1), max_size=9), st.data())
    def test_matches_reference_product(self, images, data):
        v = data.draw(st.integers(0, (1 << len(images)) - 1))
        # the matrix whose column j is images[j]
        rows = [sum((img >> i & 1) << j for j, img in enumerate(images)) for i in range(8)]
        want = reference_mul_vec(rows, v)
        assert image_of(v, images) == want
        assert image_of(v, dict(enumerate(images))) == want


class TestKernel:
    def test_all_ones_row(self):
        ker = kernel_of([[bits("111")]], 3)
        # even-weight vectors
        expected = {v for v in range(8) if bin(v).count("1") % 2 == 0}
        assert {v for v in range(8) if ker.contains(v)} == expected

    @given(st.lists(st.integers(0, 2**6 - 1), min_size=1, max_size=8))
    def test_kernel_by_enumeration(self, rows):
        ker = kernel_of([rows], 6)
        expected = {v for v in range(2**6) if reference_mul_vec(rows, v) == 0}
        assert {v for v in range(2**6) if ker.contains(v)} == expected
        assert ker.dim == 6 - GF2Subspace(6, rows).dim


@st.composite
def kernel_cases(draw, ncols=8):
    """(row lists, start) for common_kernel over ncols bits.  The start is
    all of F2^ncols (None), empty, a few sparse vectors, such vectors with
    the sum of two of them added, or sparse vectors that a first block
    of unit rows kills."""
    blocks = draw(st.lists(st.lists(st.integers(0, 2**ncols - 1), max_size=5), max_size=4))
    sparse = st.lists(st.integers(0, ncols - 1), min_size=1, max_size=3).map(
        lambda js: sum({1 << j for j in js})
    )
    kind = draw(st.sampled_from(["all", "empty", "sparse", "dependent", "killed"]))
    if kind == "all":
        return blocks, None
    if kind == "empty":
        return blocks, []
    start = draw(st.lists(sparse, min_size=1, max_size=6))
    if kind == "dependent":
        i, j = draw(st.integers(0, len(start) - 1)), draw(st.integers(0, len(start) - 1))
        start.insert(draw(st.integers(0, len(start))), start[i] ^ start[j])
    if kind == "killed":
        blocks = [[1 << j for j in range(ncols)]] + blocks
    return blocks, start


class TestCommonKernel:
    @given(kernel_cases())
    def test_matches_references(self, case):
        blocks, start = case
        got = kernel_of(blocks, 8, start).basis
        stacked = [r for rows in blocks for r in rows]
        basis = [1 << j for j in range(8)] if start is None else start
        assert got == tuple(reference_kernel_on(stacked, 8, basis))
        assert got == tuple(sequential_kernel(blocks, 8, start))

    @given(st.lists(st.lists(st.integers(0, 2**7 - 1), max_size=5), max_size=4))
    def test_matches_stacked_kernel(self, blocks):
        stacked = [r for rows in blocks for r in rows]
        assert kernel_of(blocks, 7).basis == tuple(reference_kernel(stacked, 7))

    def test_seeded_large(self):
        rng = random.Random(5)
        mats = [random_matrix(rng, n, 120) for n in (30, 0, 45, 20)]
        stacked = [r for m in mats for r in m.rows]
        got = kernel_of([m.rows for m in mats], 120)
        assert got.basis == tuple(reference_kernel(stacked, 120))
        assert got.dim == 120 - len(reference_rref(stacked, 120)[0])

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            kernel_of([[1], [1 << 3]], 3)

    def test_empty_start_builds_no_block(self):
        rec = Recorder([[0b1], [0b10]])
        assert common_kernel(rec.shapes, rec.rows, 2, []).dim == 0
        assert rec.built == []

    def test_surviving_start_builds_every_block(self):
        rec = Recorder([[0b0011], [0b0110], [0b1100]])
        assert common_kernel(rec.shapes, rec.rows, 4, [0b0001, 0b1111]).basis == (0b1111,)
        assert rec.built == [0, 1, 2]


class TestTranspose:
    """columns() is the transpose's rows."""

    @given(st.lists(st.integers(0, 2**9 - 1), max_size=9))
    def test_involution(self, rows):
        m = GF2Matrix(rows, 9)
        back = GF2Matrix(GF2Matrix(m.columns(), m.nrows).columns(), m.ncols)
        assert (back.rows, back.ncols) == (m.rows, m.ncols)

    def test_entries(self):
        m = GF2Matrix([bits("10"), bits("11"), bits("01")], 2)
        cols = m.columns()
        for i in range(m.nrows):
            for j in range(m.ncols):
                assert (m.rows[i] >> j & 1) == (cols[j] >> i & 1)


class TestBudget:
    def test_budget_respected(self, monkeypatch):
        monkeypatch.setattr(gf2, "_BIT_BUDGET", 100)
        with pytest.raises(BudgetError):
            GF2Matrix([0] * 11, 10)
        GF2Matrix([0] * 10, 10)  # exactly at budget is fine

    def test_kernel_budget_fires_before_any_block_is_built(self, monkeypatch):
        # 3 start vectors, each stacked over 4 + 2 image rows and its 5
        # source bits, and the rows and columns of the widest block:
        # 3 * (6 + 5) + 2 * 4 * 5 = 73 bits held at once
        rec = Recorder([[1, 2, 4, 8], [16, 3]])
        monkeypatch.setattr(gf2, "_BIT_BUDGET", 72)
        with pytest.raises(BudgetError):
            common_kernel(rec.shapes, rec.rows, 5, [1, 2, 4])
        assert rec.built == []
        monkeypatch.setattr(gf2, "_BIT_BUDGET", 73)
        assert common_kernel(rec.shapes, rec.rows, 5, [1, 2, 4]).dim == 0
