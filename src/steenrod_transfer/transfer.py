"""Chain-level algebraic transfer into the cobar complex.

The rank-1 map sends b_k to the coefficient of x^{k+1} in

    prod_{i >= 0} ( 1  +  sum_t x^{2^i (2^t - 1)} xi_t^{2^i} ),

restricted to the factors with i < h(t) for the chosen profile; every
monomial of the result has degree k + 1, and distinct factor selections
give distinct monomials.  The rank-n map is the slotwise product: a term
b_{e_1} ... b_{e_n} contributes the words built from one monomial of
f_star(e_v) per slot.  On elements killed by the profile's algebra the
image is a cocycle and its class is the value of the transfer.

The image keeps its slot factors (f_star(e_1) | ... | f_star(e_n)), one
per surviving term, next to the words.  The cocycle check differentiates
the factors, so each slot's coproduct is formed and cancelled once per
term rather than once per word; the words are kept for printing and
counting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Optional, Tuple

from .bv import HElement
from .cobar import WordSum, class_of, is_cocycle
from .milnor import ONE, DualPoly, Profile, Xi, mono_mul, xi

__all__ = [
    "f_star",
    "TransferImage",
    "transfer_chain",
    "transfer_class",
    "verify_cocycle",
]


@lru_cache(maxsize=None)
def f_star(k: int, profile: Profile = Profile.full()) -> DualPoly:
    """Rank-1 transfer of b_k, as a polynomial of degree k + 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    memo: Dict[tuple, DualPoly] = {}

    def rec(i: int, rem: int) -> DualPoly:
        if rem == 0:
            return frozenset({ONE})
        if (1 << i) > rem:  # every later factor contributes at least 2^i
            return frozenset()
        key = (i, rem)
        if key in memo:
            return memo[key]
        acc = set(rec(i + 1, rem))
        t = 1
        while (w := (1 << i) * ((1 << t) - 1)) <= rem:
            if i < profile(t):
                for m in rec(i + 1, rem - w):
                    acc ^= {mono_mul(m, xi(t, 1 << i))}
            t += 1
        out = frozenset(acc)
        memo[key] = out
        return out

    return rec(0, k + 1)


@dataclass(frozen=True)
class TransferImage:
    """Image of a homology element in the length-rank cobar cell."""

    rank: int
    degree: int  # cobar degree: homology degree + rank
    words: WordSum
    # (f_star(e_1), ..., f_star(e_n)) per term; the words are their expansion
    factors: FrozenSet[Tuple[DualPoly, ...]]

    def is_zero(self) -> bool:
        return not self.words


def transfer_chain(x: HElement, profile: Profile = Profile.full()) -> TransferImage:
    words: set = set()
    factors: set = set()
    for term in x.terms:
        polys = tuple(f_star(e, profile) for e in term)
        if any(not p for p in polys):
            continue
        factors ^= {polys}
        for combo in itertools.product(*polys):
            words ^= {combo}
    return TransferImage(x.rank, x.degree + x.rank, frozenset(words), frozenset(factors))


def verify_cocycle(img: TransferImage, profile: Profile) -> bool:
    """Whether a transfer image is closed under the cobar differential,
    computed from its slot factors."""
    return is_cocycle(img.factors, profile)


def transfer_class(
    x: HElement, profile: Profile = Profile.full()
) -> Optional[FrozenSet]:
    """Class of the transfer image; empty set means it dies.

    Raises if the image is not a cocycle, which happens when x is not
    annihilated by the profile's algebra.
    """
    img = transfer_chain(x, profile)
    if img.is_zero():
        return frozenset()
    return class_of(img.words, profile)
