"""The recursive helpers of the action, the squares, the transfer, the
dual basis, the limit algebra and the cobar differential leave no
reference cycles behind: a helper written as a nested function that
calls itself holds itself through its closure, so every call would leave
garbage that only the cyclic collector frees."""

import gc

from steenrod_transfer import bv, checks
from steenrod_transfer.bv import HElement, annihilated_subspace, right_action
from steenrod_transfer.cobar import (
    differential_matrix,
    h_monomials,
    is_cocycle,
    is_symmetric_cocycle,
)
from steenrod_transfer.hit import PolyElement, sq
from steenrod_transfer.milnor import Profile, Pst, dual_basis
from steenrod_transfer.stratr import is_invariant, parse_r_text
from steenrod_transfer.transfer import cocycle_verdicts, f_star, presentable, transfer_chain


def test_hot_helpers_leave_no_cycles():
    gc.collect()
    gc.disable()
    try:
        for s in range(3):
            for t in range(1, 4):
                op = Pst(s, t)
                for k in range(op.degree, 64):
                    right_action(HElement.b(k), op)
                    right_action(HElement.b(k), op.dual)
        for rank in (2, 3, 4):
            for degree in range(1, 12):
                bv._pst_rows(rank, degree, 0, 1)
                bv._pst_rows(rank, degree, 1, 1)
        for i in range(12):
            sq(i, PolyElement.x(3, 0, 5))
        for k in range(40):
            f_star.__wrapped__(k, Profile.E(2))  # without its lru_cache
            presentable(k, 2)
        h_monomials(Profile.E(2), 3, 12)
        for d in range(13):
            dual_basis.__wrapped__(Profile.E(2), d)  # without its lru_cache
        is_invariant(parse_r_text(checks.Z_12_80), 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cobar_paths_leave_no_cycles():
    full = Profile.full()
    basis = annihilated_subspace(full, 4, 15).basis
    images = [transfer_chain(HElement.from_coords(4, 15, v), full) for v in basis]
    gc.collect()
    gc.disable()
    try:
        for img in images:
            is_cocycle(img.factors, full)
            is_symmetric_cocycle(img.factors, full)
        cocycle_verdicts(4, 15, basis, images, full)
        uncached = differential_matrix.__wrapped__  # without its lru_cache
        for length in (1, 2, 3):
            for degree in range(length, 10):
                uncached(Profile.E(2), length, degree)
        assert gc.collect() == 0
    finally:
        gc.enable()
