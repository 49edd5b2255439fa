#!/usr/bin/env python3
"""Cross-check the reduced annihilator against the direct route.

For every full-algebra cell (rank, degree) in the window, compare
annihilated_subspace, which applies Wood's vanishing, Kameko's doubling
and the closed-form ker Sq^1 start, with the direct route: the common
kernel of the action matrices of every generator, from all of H_degree.
The coinvariant dimensions of the two subspaces are compared too.

    python scripts/check_reductions.py                # r1-4 d0-35, r5 d0-19
    python scripts/check_reductions.py --ranks 1,2,3 --max-degree 20

The default window is every cell whose direct route fits the default
bit budget.  Prints one line per rank and exits 1 at the first mismatch.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steenrod_transfer.bv import action_matrix, annihilated_subspace, basis_dim, coinvariant_quotient
from steenrod_transfer.gf2 import common_kernel
from steenrod_transfer.milnor import Profile, generators

# largest degree per rank whose direct route fits the default budget
WINDOW = {1: 35, 2: 35, 3: 35, 4: 35, 5: 19}


def direct_annihilated(profile, rank, degree):
    mats = (action_matrix(op, rank, degree) for op in generators(profile, degree))
    return common_kernel(mats, basis_dim(rank, degree))


def check_rank(rank, max_degree):
    full = Profile.full()
    for d in range(max_degree + 1):
        reduced = annihilated_subspace(full, rank, d)
        direct = direct_annihilated(full, rank, d)
        if reduced != direct:
            print(f"MISMATCH r{rank} d{d}: reduced dim {reduced.dim}, direct dim {direct.dim}")
            return False
        dims = {coinvariant_quotient(space, rank, d).dim for space in (reduced, direct)}
        if len(dims) != 1:
            print(f"MISMATCH r{rank} d{d}: coinvariant dims {sorted(dims)}")
            return False
        action_matrix.cache_clear()
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", default="1,2,3,4,5", help="comma-separated ranks, each 1..5")
    parser.add_argument("--max-degree", type=int, default=35, help="caps each rank's window")
    args = parser.parse_args(argv)
    ranks = [int(r) for r in args.ranks.split(",")]
    if not set(ranks) <= set(WINDOW):
        parser.error(f"ranks must be among {sorted(WINDOW)}")
    for rank in ranks:
        top = min(WINDOW[rank], args.max_degree)
        start = time.perf_counter()
        if not check_rank(rank, top):
            return 1
        print(f"r{rank} d0..{top}: reduced = direct ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
