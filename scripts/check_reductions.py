#!/usr/bin/env python3
"""Cross-check the default annihilator against the direct route.

For every cell (algebra, rank, degree) in the window, compare
annihilated_subspace, which solves the positive parts once per rank and
embeds them over every support (with the rank-1 forward rule, Wood's
vanishing, Kameko's doubling and the closed-form ker Sq^1 start), with
the direct route: the common kernel of every generator's action matrix
over all of H_degree.  The coinvariant dimensions of the two subspaces
are compared too.  At ranks 1-3 the default route is also compared with
the exhaustive oracle (annihilated_subspace with exhaustive=True), the
common kernel of every Milnor basis element of positive degree.  The
matrices of both come from expand_action's coaction walk (action_matrix
takes a P_t^s as Pst.dual), which shares no code with the forward rule
of the default route, so each run of the script checks the forward rule
against that walk, and the walk at scale.  Over the full
algebra at ranks 1-4, dim H_degree - dim (A^+ H^*)_degree, from
hit.decomposables, must equal the annihilated dimension: the hit
subspace is the annihilator of the annihilated space under the duality
of H^* and H_*, so this checks the Cartan-formula code of hit.py, which
shares nothing with the action routes, on every such cell of the window.

    python scripts/check_reductions.py                # A, E1-E3, D: r1-4 d0-35, r5 d0-19; A r4 d36-40
    python scripts/check_reductions.py --ranks 1,2,3 --max-degree 20

The window is every cell up to degree 35 at ranks 1-4 and 19 at rank 5,
and the full algebra's rank-4 cells of degrees 36 to 40.  The direct
route fits the default bit budget on all of them: it holds at most
2^29.8 bits at once, at A r4 d40.  The whole window takes ~85 s on a
2-vCPU machine: the direct route ~37 s of it, the coinvariants of both
subspaces ~28 s, the oracle ~11 s, most of it at A r3, and the hit
subspaces ~5 s, most of it at A r4 d25-40.  Prints one line per
algebra and rank and exits 1 at the first mismatch; a malformed
argument exits 2.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steenrod_transfer.bv import action_matrix, annihilated_subspace, basis_dim, coinvariant_quotient
from steenrod_transfer.gf2 import common_kernel
from steenrod_transfer.hit import decomposables
from steenrod_transfer.milnor import Profile, generators

PROFILES = {"A": Profile.full(), "E1": Profile.E(1), "E2": Profile.E(2), "E3": Profile.E(3), "D": Profile.D()}

# largest degree checked per rank
WINDOW = {1: 35, 2: 35, 3: 35, 4: 35, 5: 19}

# ranks at which the exhaustive oracle is compared too
ORACLE_RANKS = (1, 2, 3)

# ranks at which the full algebra's hit subspace is compared too
DUALITY_RANKS = (1, 2, 3, 4)

# full-algebra rank-4 degrees past the window; at d40 the direct route
# stacks the images of 12,341 unit vectors over 40,914 rows
REACH = range(36, 41)


def direct_annihilated(profile, rank, degree):
    ops = generators(profile, degree)
    shapes = [basis_dim(rank, degree - op.degree) for op in ops]
    return common_kernel(shapes, lambda k: action_matrix(ops[k].dual, rank, degree).rows, basis_dim(rank, degree))


def check_cell(name, rank, d):
    profile = PROFILES[name]
    reduced = annihilated_subspace(profile, rank, d)
    direct = direct_annihilated(profile, rank, d)
    action_matrix.cache_clear()
    if reduced != direct:
        print(f"MISMATCH {name} r{rank} d{d}: reduced dim {reduced.dim}, direct dim {direct.dim}")
        return False
    if rank in ORACLE_RANKS:
        oracle = annihilated_subspace(profile, rank, d, exhaustive=True)
        action_matrix.cache_clear()
        if reduced != oracle:
            print(f"MISMATCH {name} r{rank} d{d}: reduced dim {reduced.dim}, oracle dim {oracle.dim}")
            return False
    if name == "A" and rank in DUALITY_RANKS:
        unhit = basis_dim(rank, d) - decomposables(rank, d).dim
        if unhit != reduced.dim:
            print(f"MISMATCH A r{rank} d{d}: annihilated dim {reduced.dim}, unhit dim {unhit}")
            return False
    dims = {coinvariant_quotient(space, rank, d).dim for space in (reduced, direct)}
    if len(dims) != 1:
        print(f"MISMATCH {name} r{rank} d{d}: coinvariant dims {sorted(dims)}")
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", default="1,2,3,4,5", help="comma-separated ranks, each 1..5")
    parser.add_argument("--max-degree", type=int, default=40, help="caps each rank's window")
    args = parser.parse_args(argv)
    # a malformed argument exits 2 through parser.error, never 1, which means a mismatch
    try:
        ranks = [int(r) for r in args.ranks.split(",")]
    except ValueError:
        ranks = None
    if ranks is None or not set(ranks) <= set(WINDOW):
        parser.error(f"--ranks must be comma-separated ranks among {sorted(WINDOW)}, not {args.ranks!r}")
    if args.max_degree < 0:
        parser.error(f"--max-degree must be nonnegative, not {args.max_degree}")
    for name in PROFILES:
        for rank in ranks:
            degrees = list(range(WINDOW[rank] + 1))
            if name == "A" and rank == 4:
                degrees += REACH
            degrees = [d for d in degrees if d <= args.max_degree]
            start = time.perf_counter()
            if not all(check_cell(name, rank, d) for d in degrees):
                return 1
            routes = "direct = oracle" if rank in ORACLE_RANKS else "direct"
            if name == "A" and rank in DUALITY_RANKS:
                routes += " = dim H - hit"
            print(f"{name} r{rank} d0..{degrees[-1]}: reduced = {routes} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
