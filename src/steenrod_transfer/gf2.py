"""Dense linear algebra over GF(2) with Python-int bitset rows.

A matrix is a tuple of ints; bit j of a row is the entry in column j.
Everything is immutable; operations return new objects.  Subspaces are
kept in reduced row echelon form so equal subspaces compare equal.

The module has two walks over the set bits of a vector.  _eliminate is
the one elimination routine: a row's pivot is its lowest set bit, and
_rref (behind GF2Subspace) and common_kernel both reduce vectors with
it against a dict of pivot rows; common_kernel tests nothing before it
eliminates but an empty start, whose kernel is 0 without any block.
image_of is the one linear map, the XOR of a table's images over the
set bits of a vector; bv._map_bits is image_of over a table that
computes each image on first lookup.  Every
dict keyed by a bit, here and in bv, is keyed by its column index j,
never by the bit 1 << j itself, which is as wide as the space and would
be hashed again on every lookup.  A walk that may take the bits in any
order takes the highest first, j = v.bit_length() - 1, which costs
fewer big-int operations than the lowest.

The budget, the module constant _BIT_BUDGET (2^31), bounds the bits
one step holds at once, each int counted as wide as its top bit can
reach: rows x cols for a GF2Matrix, and for common_kernel its stacked
images with their sources plus the rows and columns of one block.
common_kernel checks it before it allocates them; GF2Matrix checks it
when it is constructed, after its caller (action_matrix,
differential_matrix, sq_matrix) has built every row.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "common_kernel",
    "image_of",
    "BudgetError",
]

# bits held at once: A r5 d30's kernel step holds at most 2^30.6, d31's
# just over 2^31
_BIT_BUDGET = 1 << 31


class BudgetError(Exception):
    """A requested object exceeds the configured size budget."""


def _eliminate(pivots: Dict[int, int], v: int, limit: int = sys.maxsize) -> int:
    """Reduce v against pivots, keyed by the column of their lowest set bit,
    while v's lowest set bit is below column limit.  If that column is
    free, v is stored there as a new pivot and 0 is returned; otherwise
    the reduced v is returned."""
    while v:
        j = (v & -v).bit_length() - 1
        if j >= limit:
            break
        p = pivots.get(j)
        if p is None:
            pivots[j] = v
            return 0
        v ^= p
    return v


def image_of(v: int, images: Union[Sequence[int], Mapping[int, int]]) -> int:
    """The XOR of images[j] over the set bits j of v: v's image under the
    linear map sending basis vector j to images[j]."""
    w = 0
    while v:
        j = v.bit_length() - 1
        w ^= images[j]
        v ^= 1 << j
    return w


def _rref(rows: Iterable[int]) -> Tuple[Dict[int, int], int]:
    """Reduced row echelon form: the nonzero rows keyed by their pivot
    column, in pivot order, and the union of the pivot bits."""
    pivots: Dict[int, int] = {}
    for r in rows:
        _eliminate(pivots, r)
    order = sorted(pivots)
    pivot_bits = sum(1 << j for j in order)
    # a row holds only bits above its pivot, so reducing from the highest
    # pivot down leaves each row free of every other pivot bit
    for j in reversed(order):
        v = pivots[j]
        pivots[j] = v ^ image_of((v & pivot_bits) ^ (1 << j), pivots)  # not its own pivot
    return {j: pivots[j] for j in order}, pivot_bits


def _columns(rows: Iterable[int], ncols: int) -> List[int]:
    """Column j of the rows as a bitset over them: the image of basis
    vector j."""
    cols = [0] * ncols
    for i, r in enumerate(rows):
        if r.bit_length() > ncols:
            raise ValueError("row has bits outside the column range")
        bit = 1 << i
        while r:
            j = r.bit_length() - 1
            cols[j] |= bit
            r ^= 1 << j
    return cols


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
        if len(rows) * ncols > _BIT_BUDGET:
            raise BudgetError(f"matrix of {len(rows)}x{ncols} bits exceeds budget {_BIT_BUDGET}")
        self.rows = rows
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"

    def columns(self) -> List[int]:
        """Column j as a bitset over the rows: the image of basis vector j."""
        return _columns(self.rows, self.ncols)


def common_kernel(
    shapes: Sequence[int],
    rows: Callable[[int], Sequence[int]],
    ncols: int,
    start: Optional[Iterable[int]] = None,
) -> "GF2Subspace":
    """{v in start : every block's rows times v are 0}, the kernel of the
    blocks' rows stacked into one.

    start is a basis of the subspace to begin from, all of F2^ncols by
    default; it is meant to be sparse.  Block k has shapes[k] rows over
    ncols bits, which rows(k) builds when the block is reached, in order.
    Each start vector is mapped through each block by the block's
    columns, and its images, block after block, with the vector itself
    above them, make one stacked vector.  The stacked vectors are
    eliminated in one pass until their image bits are zero or they become
    pivots; the source parts of those whose images cancel span the
    kernel.  An empty start has kernel 0 and builds no block.
    """
    basis = [1 << j for j in range(ncols)] if start is None else list(start)
    held = len(basis) * (sum(shapes) + ncols) + 2 * max(shapes, default=0) * ncols
    if held > _BIT_BUDGET:
        raise BudgetError(
            f"kernel step of {len(basis)} vectors over {sum(shapes)}+{ncols} bits"
            f" holds {held}, over budget {_BIT_BUDGET}"
        )
    if not basis:
        return GF2Subspace._from_reduced(ncols, ())
    stack = [0] * len(basis)
    shift = 0
    for k, nrows in enumerate(shapes):
        cols = _columns(rows(k), ncols)
        for i, b in enumerate(basis):
            stack[i] |= image_of(b, cols) << shift
        del cols  # before the next block's rows are built
        shift += nrows
    # each stacked vector is dropped once eliminated, and the pivots before
    # the kernel's RREF, so that one stack is held at a time
    pivots: Dict[int, int] = {}
    survivors = []
    for i, b in enumerate(basis):
        v = _eliminate(pivots, stack[i] | b << shift, shift)
        stack[i] = 0
        if v:
            survivors.append(v >> shift)
    del pivots
    if len(survivors) < 2:  # one nonzero vector is already reduced
        return GF2Subspace._from_reduced(ncols, survivors)
    return GF2Subspace(ncols, survivors)


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
        # the RREF rows span the vectors, so one of them is negative or
        # reaches past the space exactly when one of the vectors does
        for r in self.basis:
            if r < 0 or r.bit_length() > ambient_dim:
                raise ValueError("vector outside ambient space")

    @classmethod
    def _from_reduced(cls, ambient_dim: int, rows: Iterable[int]) -> "GF2Subspace":
        """The span of rows that are already reduced: each nonzero, inside
        the space, and with no bit at the lowest set bit of another, its
        pivot.  Nothing is eliminated; the rows are only put in pivot order."""
        self = cls.__new__(cls)
        pivots = {(r & -r).bit_length() - 1: r for r in rows}
        self._rows = {j: pivots[j] for j in sorted(pivots)}
        self._pivot_bits = sum(1 << j for j in self._rows)
        self.ambient_dim = ambient_dim
        self.basis = tuple(self._rows.values())
        return self

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
        if v < 0 or v.bit_length() > self.ambient_dim:
            raise ValueError("vector outside ambient space")
        return v ^ image_of(v & self._pivot_bits, self._rows)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0
