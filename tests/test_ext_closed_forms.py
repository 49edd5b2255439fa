"""The coinvariant dimensions at ranks 1-3 against the closed forms of Ext.

The transfer is an isomorphism at ranks 1 and 2 (W. Singer, Math. Z. 202,
1989) and at rank 3 (J. M. Boardman, Contemp. Math. 146, 1993), so over
the full algebra dim F2 (x)_{GL_n} PH_d(BV_n) equals dim Ext_A^{n,n+d},
whose bases are known in every stem d:
- rank 1: h_i, in stem 2^i - 1;
- rank 2: h_i h_j with i <= j and j != i + 1 (J. F. Adams, Annals 72, 1960);
- rank 3: h_i h_j h_k with i <= j <= k, j != i + 1 and k != j + 1, less
  h_i h_{i+2}^2 = 0 and h_i^2 h_{i+2} = h_{i+1}^3, plus c_i in stem
  11 * 2^i - 3 (J. S. P. Wang, Illinois J. Math. 11, 1967).
"""

from collections import Counter

import pytest

from steenrod_transfer.bv import annihilated_subspace, coinvariant_quotient
from steenrod_transfer.milnor import Profile

DEGREES = range(101)
# h_7 lies in stem 127, past the window
H = range(8)


def ext_dims(rank: int, with_c: bool = True) -> Counter:
    """dim Ext_A^{rank, rank + d} by stem d, from the closed forms."""
    if rank == 1:
        monos = [(i,) for i in H]
    elif rank == 2:
        monos = [(i, j) for j in H for i in range(j + 1) if j != i + 1]
    else:
        monos = [
            (i, j, k)
            for k in H for j in range(k + 1) for i in range(j + 1)
            if j != i + 1 and k != j + 1 and (j, k) not in ((i + 2, i + 2), (i, i + 2))
        ]
    dims = Counter(sum((1 << i) - 1 for i in m) for m in monos)
    if rank == 3 and with_c:
        dims.update(11 * (1 << i) - 3 for i in H)
    return dims


@pytest.fixture(scope="module")
def coinvariant_dims():
    full = Profile.full()
    return {
        n: [coinvariant_quotient(annihilated_subspace(full, n, d), n, d).dim for d in DEGREES]
        for n in (1, 2, 3)
    }


def mismatches(got, want):
    return [d for d in DEGREES if got[d] != want[d]]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coinvariants_match_ext(coinvariant_dims, rank):
    assert mismatches(coinvariant_dims[rank], ext_dims(rank)) == []


def test_c_i_are_seen(coinvariant_dims):
    # negative control: without Wang's c_i the rank-3 forms miss exactly
    # their stems in the window
    assert mismatches(coinvariant_dims[3], ext_dims(3, with_c=False)) == [8, 19, 41, 85]
