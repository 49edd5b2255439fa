"""Chain-level algebraic transfer into the cobar complex.

The rank-1 map sends b_k to the coefficient of x^{k+1} in

    prod_{i >= 0} ( 1  +  sum_t x^{2^i (2^t - 1)} xi_t^{2^i} ),

restricted to the factors with i < h(t) for the chosen profile; every
monomial of the result has degree k + 1, and distinct factor selections
give distinct monomials.  The rank-n map is the slotwise product: a term
b_{e_1} ... b_{e_n} contributes the words built from one monomial of
f_star(e_v) per slot.  On elements killed by the profile's algebra the
image is a cocycle and its class is the value of the transfer.

The image keeps only its slot factors (f_star(e_1) | ... | f_star(e_n)),
one per surviving term.  The cocycle check differentiates the factors,
so each f_star's coproduct is cancelled once, and is_cocycle walks its
choices once per orbit of terms under slot permutations rather than once
per word, as cobar describes.  The words are built on demand, for
printing or class solving; their count needs none of them.  It is exact:
a letter in slot v has degree e_v + 1, so each word fixes its term, and
distinct terms give distinct words.

cocycle_verdicts checks the images of a whole basis by checking few of
them.  Permuting slots commutes with the chain, Tr(sigma . x) =
sigma . Tr(x), and the cobar differential has d(sigma . P) =
(1 | sigma) . d(P), so the x whose image is a cocycle form a
Sigma_n-stable subspace.  It holds a Sigma_n-stable space exactly when it
holds a set whose Sigma_n-orbits span that space, and only that set's
images are differentiated, in order.  If g's orbit adds one dimension to
the span S of the earlier orbits, each sigma . g - g lies in S, whose
images have passed, so d Tr(g) = d Tr(sigma . g) = (1 | sigma) . d Tr(g).
Such a g is checked by is_symmetric_cocycle, on sorted right-hand tuples.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .bv import HElement, _basis_index, _map_bits, _rotate, _swap, degree_basis
from .cobar import WordSum, class_of, is_cocycle, is_symmetric_cocycle
from .gf2 import GF2Subspace, _eliminate
from .milnor import ONE, DualPoly, Profile, mono_mul, xi

__all__ = [
    "f_star",
    "presentable",
    "slot_types",
    "TransferImage",
    "transfer_chain",
    "cocycle_verdicts",
    "transfer_class",
]


@lru_cache(maxsize=None)
def f_star(k: int, profile: Profile = Profile.full()) -> DualPoly:
    """Rank-1 transfer of b_k, as a polynomial of degree k + 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _rank1(profile, 0, k + 1)


@lru_cache(maxsize=None)
def _rank1(profile: Profile, i: int, rem: int) -> DualPoly:
    """The coefficient of x^rem in the factors from i on, for rem a
    multiple of 2^i; no k enters it, so every f_star of one profile
    shares it.  Factor j adds x^(2^j (2^t - 1)), an odd multiple of 2^j,
    or nothing, and the later factors only multiples of 2^(j+1), so it
    adds a term exactly when bit j of what is left is set.  The
    profile is non-decreasing, so factor i holds every t from the least
    with i < h(t) on, and distinct choices give distinct monomials: the
    terms of each t are added with nothing to cancel."""
    if rem == 0:
        return frozenset({ONE})
    while not rem >> i & 1:
        i += 1
    step = 1 << i
    t = 1
    while (w := step * ((1 << t) - 1)) <= rem and profile(t) <= i:
        t += 1
    out: List = []
    while (w := step * ((1 << t) - 1)) <= rem:
        x = xi(t, step)
        out += [mono_mul(m, x) for m in _rank1(profile, i + 1, rem - w)]
        t += 1
    return frozenset(out)


def presentable(k: int, m: int) -> bool:
    """k+1 a sum of parts 2^s(2^t - 1) with pairwise distinct s < m <= t:
    the partition oracle for f_star(k, E(m)) being nonzero.  Each s in
    turn adds its part, or none, to the sums reachable so far."""
    n = k + 1
    reached = {0}
    for s in range(m):
        parts = [(1 << s) * ((1 << t) - 1) for t in range(m, n.bit_length() + 1)]
        reached |= {r + w for r in reached for w in parts if r + w <= n}
    return n in reached


def slot_types(profile: Profile, rank: int, degree: int) -> List[Tuple[int, ...]]:
    """The exponent types, sorted exponent tuples, of the b_E in
    H_degree(BV_rank) whose every slot has a nonzero f_star; sorted."""
    return sorted(
        {tuple(sorted(e)) for e in degree_basis(rank, degree) if all(f_star(k, profile) for k in e)}
    )


class TransferImage(NamedTuple):
    """Image of a homology element in the length-rank cobar cell: factors
    holds (f_star(e_1), ..., f_star(e_n)) per term, and the words are
    their expansion."""

    factors: FrozenSet[Tuple[DualPoly, ...]]

    @property
    def words(self) -> WordSum:
        return frozenset(w for polys in self.factors for w in itertools.product(*polys))

    def word_count(self) -> int:
        return sum(math.prod(map(len, polys)) for polys in self.factors)

    def is_zero(self) -> bool:
        return not self.factors


def transfer_chain(x: HElement, profile: Profile = Profile.full()) -> TransferImage:
    factors = (tuple(f_star(e, profile) for e in term) for term in x.terms)
    return TransferImage(frozenset(p for p in factors if all(p)))


def cocycle_verdicts(
    rank: int, degree: int, basis: Sequence[int], images: Sequence[TransferImage], profile: Profile
) -> List[bool]:
    """Whether each of images, the transfer images of the vectors of a
    Sigma_n-stable basis in degree_basis(rank, degree) coordinates, is a
    cocycle.

    Only the images of _orbit_generators are differentiated.  If each of
    them is a cocycle, so is every image; if one is not, every image is
    differentiated, so that the verdicts name the failing ones.  Raises
    if the span of the basis is not Sigma_n-stable on its live part.
    """
    generators = _orbit_generators(rank, degree, basis, images, profile)
    checks = (is_cocycle, is_symmetric_cocycle)
    if all(checks[symmetric](images[i].factors, profile) for i, symmetric in generators):
        return [True] * len(images)
    return [is_cocycle(img.factors, profile) for img in images]


def _orbit_generators(
    rank: int, degree: int, basis: Sequence[int], images: Sequence[TransferImage], profile: Profile
) -> List[Tuple[int, bool]]:
    """Indices of basis vectors whose Sigma_n-orbits span the basis on its
    live part, each with whether its orbit added one dimension only.

    A monomial b_E is live when every f_star(e_v) is nonzero.  The chain
    drops the others, and permuting slots keeps the live set, so keeping
    only a vector's live monomials changes no image and commutes with
    Sigma_n; the span is built from these live parts.  The vectors are
    taken lightest image first, by word_count, and one is kept when its
    live part is not yet in the span, which is then closed under the
    n-cycle (_rotate) and the swap of slots 0 and 1 (_swap), generators
    of Sigma_n.  Each vector the closure adds must lie in the span of
    the basis's live parts; one that does not raises.
    """
    terms = degree_basis(rank, degree)
    idx = _basis_index(rank, degree)
    dead = {k for k in range(degree + 1) if not f_star(k, profile)}
    live = sum(1 << j for j, e in enumerate(terms) if dead.isdisjoint(e))
    parts = [v & live for v in basis]
    space = GF2Subspace(len(terms), parts)
    moves = (_rotate, _swap) if rank > 1 else ()
    pivots: Dict[int, int] = {}
    generators = []
    for i in sorted(range(len(parts)), key=lambda i: images[i].word_count()):
        size = len(pivots)
        if not _insert(pivots, parts[i]):
            continue
        fresh = [parts[i]]
        while fresh:
            if not all(map(space.contains, fresh)):
                raise ValueError("the basis does not span a Sigma_n-stable space")
            moved = [w for move in moves for w in _map_bits(fresh, lambda j: move(terms[j], idx))]
            fresh = [w for w in moved if _insert(pivots, w)]
        generators.append((i, len(pivots) == size + 1))
    return generators


def _insert(pivots: Dict[int, int], v: int) -> bool:
    """Add v to the span held by pivots; whether it was not already in it."""
    size = len(pivots)
    _eliminate(pivots, v)
    return len(pivots) > size


def transfer_class(
    x: HElement, profile: Profile = Profile.full()
) -> Optional[FrozenSet]:
    """Class of the transfer image; empty set means it dies.

    Raises if the image is not a cocycle, which happens when x is not
    annihilated by the profile's algebra.
    """
    return class_of(transfer_chain(x, profile).words, profile)
