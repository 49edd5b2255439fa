"""Dense linear algebra over GF(2) with Python-int bitset rows.

A matrix is a tuple of ints; bit j of a row is the entry in column j.
Everything is immutable; operations return new objects.  Subspaces are
kept in reduced row echelon form so equal subspaces compare equal.

A row's pivot is its lowest set bit, and _eliminate is the one
elimination routine: _rref (behind GF2Subspace) and common_kernel
(behind kernel) both reduce vectors with it against a dict of pivot
rows keyed by that bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "common_kernel",
    "BudgetError",
    "set_bit_budget",
]

# rows*cols guard for a single matrix; keeps runaway degree/rank requests
# from allocating silly amounts of memory.
_BIT_BUDGET = 1 << 26


class BudgetError(Exception):
    """A requested object exceeds the configured size budget."""


def set_bit_budget(bits: int) -> int:
    """Set the global rows*cols budget, returning the previous value."""
    global _BIT_BUDGET
    if bits <= 0:
        raise ValueError("budget must be positive")
    old = _BIT_BUDGET
    _BIT_BUDGET = bits
    return old


def _check_budget(nrows: int, ncols: int) -> None:
    if nrows * ncols > _BIT_BUDGET:
        raise BudgetError(
            f"matrix of {nrows}x{ncols} bits exceeds budget {_BIT_BUDGET}"
        )


def _eliminate(pivots: Dict[int, int], v: int, mask: int = -1) -> int:
    """Reduce v against pivots, keyed by their lowest set bit, while v & mask
    is nonzero.  If the lowest bit of v is free, v is stored there as a new
    pivot and 0 is returned; otherwise the reduced v is returned."""
    while v & mask:
        low = v & -v
        p = pivots.get(low)
        if p is None:
            pivots[low] = v
            return 0
        v ^= p
    return v


def _rref(rows: Iterable[int]) -> Tuple[Dict[int, int], int]:
    """Reduced row echelon form: the nonzero rows keyed by their pivot bit,
    in pivot order, and the union of the pivot bits."""
    pivots: Dict[int, int] = {}
    for r in rows:
        _eliminate(pivots, r)
    # the keys are distinct powers of two, so their sum is their union
    pivot_bits = sum(pivots)
    # a row holds only bits above its pivot, so reducing from the highest
    # pivot down leaves each row free of every other pivot bit
    order = sorted(pivots)
    for low in reversed(order):
        v = pivots[low]
        hits = (v & pivot_bits) ^ low
        while hits:
            bit = hits & -hits
            v ^= pivots[bit]
            hits ^= bit
        pivots[low] = v
    return {low: pivots[low] for low in order}, pivot_bits


class GF2Matrix:
    """Immutable bit matrix.  rows[i] holds row i, LSB = column 0."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[int], ncols: int):
        rows = tuple(rows)
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        mask = (1 << ncols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        _check_budget(len(rows), ncols)
        self.rows = rows
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"

    def columns(self) -> List[int]:
        """Column j as a bitset over the rows: the image of basis vector j."""
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= bit
                r &= r - 1
        return cols

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(self.columns(), self.nrows)

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector: bit i of the result is <row i, v>."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def kernel(self) -> "GF2Subspace":
        """Null space {v : M.mul_vec(v) == 0} as a subspace of F2^ncols."""
        return common_kernel([self], self.ncols)


def common_kernel(
    mats: Iterable[GF2Matrix], ncols: int, start: Optional[Iterable[int]] = None
) -> "GF2Subspace":
    """{v in start : M.mul_vec(v) == 0 for every M}, the kernel of the
    matrices' rows stacked into one, computed one matrix at a time.

    start is a basis of the subspace to begin from, all of F2^ncols by
    default.  The current kernel basis is pushed through the next matrix
    through its columns; each image, with its source vector carried above
    bit nrows, is eliminated until its image bits are zero or it becomes
    a pivot.  The source parts of the vectors whose image cancels span
    the next kernel.
    """
    basis = [1 << j for j in range(ncols)] if start is None else list(start)
    for mat in mats:
        if mat.ncols != ncols:
            raise ValueError("column count mismatch")
        if not basis:
            break
        cols = mat.columns()
        shift = mat.nrows
        image_mask = (1 << shift) - 1
        pivots: Dict[int, int] = {}
        survivors = []
        for b in basis:
            img = 0
            rest = b
            while rest:
                low = rest & -rest
                img ^= cols[low.bit_length() - 1]
                rest ^= low
            v = _eliminate(pivots, img | (b << shift), image_mask)
            if v:
                survivors.append(v >> shift)
        basis = survivors
    return GF2Subspace(ncols, basis)


class GF2Subspace:
    """A subspace of F2^ambient_dim, stored as an RREF basis.

    Each basis row holds exactly one pivot bit, so reducing v takes the
    row of each pivot bit set in v, once.
    """

    __slots__ = ("ambient_dim", "basis", "_rows", "_pivot_bits")

    def __init__(self, ambient_dim: int, vectors: Iterable[int]):
        self._rows, self._pivot_bits = _rref(vectors)
        self.ambient_dim = ambient_dim
        self.basis = tuple(self._rows.values())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"GF2Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def reduce(self, v: int) -> int:
        """Canonical coset representative of v modulo this subspace."""
        if v.bit_length() > self.ambient_dim:
            raise ValueError("vector outside ambient space")
        rows = self._rows
        hits = v & self._pivot_bits
        while hits:
            bit = hits & -hits
            v ^= rows[bit]
            hits ^= bit
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def coords(self, v: int) -> Optional[int]:
        """Coefficients of v over the RREF basis rows, or None: bit i for
        the row of the i-th pivot, the pivots v holds."""
        if self.reduce(v) != 0:
            return None
        pivot_bits = self._pivot_bits
        hits = v & pivot_bits
        out = 0
        while hits:
            bit = hits & -hits
            out |= 1 << (pivot_bits & (bit - 1)).bit_count()
            hits ^= bit
        return out
