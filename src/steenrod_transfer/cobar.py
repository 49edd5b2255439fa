"""Cobar complex of a quotient dual algebra, computing Ext over the
corresponding sub-Hopf algebra.

A degree-n cochain is a sum of words (a_1 | ... | a_n) whose letters are
positive-degree monomials of the quotient algebra.  The differential
coproducts every letter and collects the twisted terms

    d(a_1 | ... | a_n) = sum  chi(a_1' ... a_n') | a_1'' | ... | a_n''

over all coproduct choices, projecting into the quotient throughout and
discarding any term in which some slot (including the new first one) is
the unit.  Words made of primitive letters are automatically cocycles.

The differential is computed on sums of slot products (p_1 | ... | p_n),
where each slot holds a monomial or a whole polynomial; a word is the
case of monomial slots.  The monomials met under a profile are numbered
once, the lefts (each with chi of it, projected) and the right-hand
letters apart.  Each slot's coproduct is cancelled mod 2 once per
profile, into a cached table sorted by the key (degree, number) of its
right-hand letters, and one walk over a product's tables cancels the
left products of all choices per right-hand tuple.  The terms before chi
are held as one set of numbered right-hand tuples per left number; a sum
of products XORs those sets, and since chi is linear it is then applied,
with the profile projection, once per surviving left.

The sets are computed once per orbit of slot products under permuting
the slots.  A_* is commutative, so chi(a_1' ... a_n') does not depend
on the slot order, and for a permutation sigma

    d(sigma . P) = (1 | sigma) . d(P):

the same heads over the same right-hand tuples, with the tuples
permuted.  So the sets of a product sorted into a canonical slot order
(no hash seed affects it) are memoised, and differential and
differential_matrix read them through one map that permutes the tuples
back to the product's slot order.  A d that permuting the right-hand
slots leaves fixed is zero exactly when it is zero on the tuples that do
not decrease, since each orbit of tuples holds one; is_symmetric_cocycle
walks only those, bounding each slot's keys by bisection.

For the profiles E(m) the cohomology is polynomial on classes h_{t,s}
with s < m <= t, where h_{t,s} is the class of the one-letter extension
of [xi_t^{2^s}]; class_of expresses a cocycle in that basis by reducing
it modulo the span of the cell's h-monomial words and coboundaries.  Off
E(m) the h-monomials may be related in cohomology, and class_of returns
the normal form of the coefficients modulo those relations (zero at the
pivots of their RREF basis), which depends only on the class; on E(m)
there are no relations and it is the unique expansion.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from .gf2 import GF2Matrix, GF2Subspace
from .milnor import (
    ONE,
    DualPoly,
    Profile,
    Xi,
    antipode,
    coproduct,
    dual_basis,
    mono_degree,
    mono_mul,
)

__all__ = [
    "Word",
    "WordSum",
    "word_degree",
    "wordsum_degree",
    "differential",
    "is_cocycle",
    "is_symmetric_cocycle",
    "cell_basis",
    "differential_matrix",
    "cohomology_dim",
    "is_primitive",
    "HMono",
    "h_monomials",
    "word_of",
    "class_of",
    "hmono_str",
    "hclass_str",
]

Word = Tuple[Xi, ...]
WordSum = FrozenSet[Word]

# a slot holds a monomial or a polynomial; a word is a product of monomials
Slot = Union[Xi, DualPoly]
SlotProduct = Tuple[Slot, ...]

# a product of h_{t,s} classes, as (t, s) pairs sorted descending
HMono = Tuple[Tuple[int, int], ...]


def word_degree(w: Word) -> int:
    return sum(mono_degree(a) for a in w)


def wordsum_degree(ws: WordSum) -> Optional[Tuple[int, int]]:
    """(length, degree) of a homogeneous word sum, None if zero."""
    shapes = {(len(w), word_degree(w)) for w in ws}
    if not shapes:
        return None
    if len(shapes) > 1:
        raise ValueError(f"inhomogeneous word sum: {sorted(shapes)}")
    return shapes.pop()


class _Numbering(dict):
    """The monomials met under one profile, mapped to their numbers in
    order of arrival; looking up a new one numbers it and computes its
    value once.  Entries are only appended, so a memoised number keeps
    its meaning."""

    def __init__(self, value: Callable[[Xi], object]):
        super().__init__()
        self.value = value
        self.values: list = []

    def __missing__(self, m: Xi) -> int:
        i = self[m] = len(self.values)
        self.values.append(self.value(m))
        return i


@lru_cache(maxsize=None)
def _lefts(profile: Profile) -> _Numbering:
    """Left monomials, each valued at chi of it projected to the profile:
    the heads it contributes."""
    return _Numbering(lambda m: profile.project(antipode(m)))


@lru_cache(maxsize=None)
def _rights(profile: Profile) -> _Numbering:
    """Right-hand monomials, each valued at itself for decoding."""
    return _Numbering(lambda m: m)


# a slot's reduced coproduct: its right-hand letters' keys, sorted, and their lefts
SlotTable = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[Xi, ...], ...]]


@lru_cache(maxsize=None)
def _slot_table(slot: Slot, profile: Profile) -> SlotTable:
    """Delta(slot) mod 2 without its (a, 1) terms, by right-hand letter."""
    by_right: Dict[Xi, Set[Xi]] = {}
    for m in (slot,) if isinstance(slot, tuple) else slot:
        for a, b in coproduct(m, profile):
            if b != ONE:
                by_right.setdefault(b, set()).symmetric_difference_update((a,))
    num = _rights(profile)
    table = sorted(((mono_degree(b), num[b]), tuple(a)) for b, a in by_right.items() if a)
    return tuple(k for k, _ in table), tuple(a for _, a in table)


def _walk(
    slots: List[SlotTable],
    tops: Optional[List[Tuple[float, ...]]],
    v: int,
    low: Tuple[int, ...],
    rights: Tuple[int, ...],
    left: Iterable[Xi],
    acc: Dict[Xi, Set[Tuple[int, ...]]],
) -> None:
    """Walk the coproduct choices of slots v on, multiplying their lefts
    into left mod 2, and XOR each finished right-hand tuple into the set
    of each left of it in acc.  With tops, slot v takes only the keys
    from low up to tops[v], and the key it takes is the next slot's low.
    A left 1 heads a (1 | w) term, which d discards, so it gets no set."""
    keys, lefts = slots[v]
    lo, hi = (bisect_left(keys, low), bisect_right(keys, tops[v])) if tops else (0, len(keys))
    last = v + 1 == len(slots)
    for j in range(lo, hi):
        prod: Set[Xi] = set()
        for a in left:
            for c in lefts[j]:
                prod.symmetric_difference_update((mono_mul(a, c),))
        if not prod:
            continue
        tail = rights + (keys[j][1],)
        if last:
            for m in prod:
                if m != ONE:
                    acc.setdefault(m, set()).symmetric_difference_update((tail,))
        else:
            _walk(slots, tops, v + 1, keys[j], tail, prod, acc)


@lru_cache(maxsize=None)
def _orbit_groups(
    product: SlotProduct, profile: Profile
) -> Tuple[Tuple[int, FrozenSet[Tuple[int, ...]]], ...]:
    """d of one slot product in canonical order before chi, as pairs (left
    number, its right-hand tuples), shared by every product in its
    slot-permutation orbit."""
    slots = [_slot_table(p, profile) for p in product]
    acc: Dict[Xi, Set[Tuple[int, ...]]] = {}
    if slots and all(keys for keys, _ in slots):
        _walk(slots, None, 0, (), (), (ONE,), acc)
    num = _lefts(profile)
    return tuple((num[m], frozenset(rights)) for m, rights in acc.items())


def _slot_key(slot: Slot) -> Tuple[Xi, ...]:
    """A total order on slots that no hash seed affects: a monomial sorts
    as itself, a polynomial as its sorted monomials."""
    return (slot,) if isinstance(slot, tuple) else tuple(sorted(slot))


def _product_groups(product: SlotProduct, profile: Profile) -> Iterable[Tuple[int, Iterable]]:
    """The groups of product's orbit, from _orbit_groups on its sorted
    slots, with their right-hand tuples permuted back to product's slot
    order; each tuple set may be iterated once."""
    identity = list(range(len(product)))
    order = sorted(identity, key=lambda i: _slot_key(product[i]))
    groups = _orbit_groups(tuple(product[i] for i in order), profile)
    if order == identity:
        return groups
    back = itemgetter(*sorted(identity, key=order.__getitem__))  # order^-1
    return [(i, map(back, rights)) for i, rights in groups]


def differential(ws: Union[SlotProduct, Iterable[SlotProduct]], profile: Profile) -> WordSum:
    """d of a word, a word sum, or a sum of slot products, collecting
    before the antipode: the groups of each product are XORed into one
    set per left number."""
    acc: Dict[int, Set[Tuple[int, ...]]] = {}
    for product in (ws,) if isinstance(ws, tuple) else ws:
        for i, rights in _product_groups(product, profile):
            acc.setdefault(i, set()).symmetric_difference_update(rights)
    return _decoded(acc, profile)


def _decoded(acc: Dict[int, Set[Tuple[int, ...]]], profile: Profile) -> WordSum:
    """The words of the numbered right-hand tuples per left number: chi
    and the profile projection run once per left, as its memoised heads."""
    heads = _lefts(profile).values
    by_head: Dict[Xi, Set[Tuple[int, ...]]] = {}
    for i, rights in acc.items():
        for h in heads[i]:
            by_head.setdefault(h, set()).symmetric_difference_update(rights)
    decode = _rights(profile).values.__getitem__
    return frozenset((h,) + tuple(map(decode, r)) for h, rs in by_head.items() for r in rs)


def is_cocycle(ws: Union[SlotProduct, Iterable[SlotProduct]], profile: Profile) -> bool:
    return not differential(ws, profile)


def is_symmetric_cocycle(products: Iterable[SlotProduct], profile: Profile) -> bool:
    """is_cocycle of a sum of slot products whose d is invariant under
    permuting the right-hand slots: such a d is zero exactly when it is
    zero on the non-decreasing tuples, the only ones _sorted_differential
    forms."""
    return not _sorted_differential(products, profile)


def _sorted_differential(products: Iterable[SlotProduct], profile: Profile) -> WordSum:
    """The words of d whose right-hand tuples do not decrease in the key
    (degree, number) of their letters.  Each product is walked in its own
    slot order, with slot v bounded by the least largest key of the later
    slots.  Ordering by degree first keeps the light slots of a transfer
    term from pairing with heavy later ones."""
    acc: Dict[Xi, Set[Tuple[int, ...]]] = {}
    for product in products:
        slots = [_slot_table(p, profile) for p in product]
        if slots and all(keys for keys, _ in slots):
            # a slot's key is at most each later slot's, so at most their least largest key
            later = itertools.accumulate((k[-1] for k, _ in slots[:0:-1]), min, initial=(math.inf,))
            _walk(slots, list(later)[::-1], 0, (), (), (ONE,), acc)
    num = _lefts(profile)
    return _decoded({num[m]: rights for m, rights in acc.items()}, profile)


@lru_cache(maxsize=None)
def cell_basis(profile: Profile, length: int, degree: int) -> Tuple[Word, ...]:
    """All words of the given length and total degree, sorted: each first
    letter of degree k before each word of length - 1 and degree - k."""
    if length == 0:
        return ((),) if degree == 0 else ()
    words = [
        (m,) + rest
        for k in range(1, degree - length + 2)  # letters have degree >= 1
        for m in dual_basis(profile, k)
        for rest in cell_basis(profile, length - 1, degree - k)
    ]
    return tuple(sorted(words))


@lru_cache(maxsize=None)
def differential_matrix(profile: Profile, length: int, degree: int) -> GF2Matrix:
    """Matrix of d: C^{length} -> C^{length+1} in cell_basis coordinates.

    Each source word takes each head of each left over the right-hand
    tuples of _product_groups, so the words of one slot-permutation orbit
    share its _orbit_groups entry.  Target words are looked up by head and
    numbered tail, as the groups hold them.
    """
    src = cell_basis(profile, length, degree)
    tgt = cell_basis(profile, length + 1, degree)
    num = _rights(profile).__getitem__
    tgt_idx = {(w[0], tuple(map(num, w[1:]))): i for i, w in enumerate(tgt)}
    heads = _lefts(profile).values
    rows = [0] * len(tgt)
    for j, w in enumerate(src):
        bit = 1 << j
        for i, rights in _product_groups(w, profile):
            for r in rights:
                for h in heads[i]:
                    rows[tgt_idx[h, r]] ^= bit
    return GF2Matrix(rows, len(src))


def cohomology_dim(profile: Profile, length: int, degree: int) -> int:
    """dim ker d_length - dim im d_{length-1} in one degree, from the ranks
    of the cached differential matrices."""
    if length == 0:
        return int(degree == 0)
    d_out, d_in = (differential_matrix(profile, n, degree) for n in (length, length - 1))
    return d_out.ncols - sum(GF2Subspace(d.ncols, d.rows).dim for d in (d_out, d_in))


@lru_cache(maxsize=None)
def is_primitive(profile: Profile, m: Xi) -> bool:
    if m == ONE:
        return False
    return coproduct(m, profile) == frozenset({(m, ONE), (ONE, m)})


@lru_cache(maxsize=None)
def _primitive_letters(profile: Profile, max_degree: int) -> Tuple[Tuple[int, int], ...]:
    """(t, s) with xi_t^{2^s} a surviving primitive, degree <= max_degree."""
    out = [
        (t, s)
        for t in range(1, (max_degree + 1).bit_length())  # 2^t - 1 <= max_degree
        for s in range((max_degree // ((1 << t) - 1)).bit_length())  # 2^s (2^t - 1) <= max_degree
        if s < profile(t) and is_primitive(profile, ((t, 1 << s),))
    ]
    return tuple(sorted(out, reverse=True))


def h_monomials(profile: Profile, length: int, degree: int) -> Tuple[HMono, ...]:
    """Degree-matching multisets of h_{t,s} indices, letters primitive."""
    letters = _primitive_letters(profile, degree)
    # (letters so far, index of the last, degree left), one slot at a time
    partial: List[Tuple[HMono, int, int]] = [((), 0, degree)]
    for slots in range(length, 0, -1):
        nxt = []
        for acc, i, remaining in partial:
            for j in range(i, len(letters)):
                t, s = letters[j]
                d = (1 << s) * ((1 << t) - 1)
                if d <= remaining - (slots - 1):
                    nxt.append((acc + ((t, s),), j, remaining - d))
        partial = nxt
    return tuple(sorted(acc for acc, _, remaining in partial if remaining == 0))


def word_of(hm: HMono) -> Word:
    """The candidate cocycle word of an h-monomial, letters descending."""
    return tuple(((t, 1 << s),) for t, s in hm)


@lru_cache(maxsize=None)
def _class_solver(
    profile: Profile, length: int, degree: int
) -> Tuple[Dict[Word, int], Tuple[HMono, ...], GF2Subspace]:
    """The span of [h-monomial words | coboundaries] for one cell, each
    h-word carrying the bit of its monomial above the cell's bits, cached
    so that expressing many cocycles in the same bidegree stays cheap.
    Its RREF rows with no cell bits span the relations among the
    h-monomials in cohomology."""
    basis = cell_basis(profile, length, degree)
    idx = {w: i for i, w in enumerate(basis)}
    hms = h_monomials(profile, length, degree)
    vectors = [(1 << idx[word_of(hm)]) | (1 << (len(basis) + j)) for j, hm in enumerate(hms)]
    vectors += differential_matrix(profile, length - 1, degree).columns()
    return idx, hms, GF2Subspace(len(basis) + len(hms), vectors)


def class_of(
    ws: Union[Word, WordSum], profile: Profile
) -> Optional[FrozenSet[HMono]]:
    """Express a cocycle as a sum of h-monomial classes.

    Reduces z modulo the span of the h-words and coboundaries; if no
    cell bit is left, z = sum c_M w(M) + d(u) with the c_M left in the
    h-bits, already in normal form modulo the relations among the
    h-monomials.  Returns None when z is not in the span, which means
    the h-monomials do not exhaust the cohomology there.  Raises if z is
    not a cocycle.
    """
    if isinstance(ws, tuple):
        ws = frozenset({ws})
    if not ws:
        return frozenset()
    length, degree = wordsum_degree(ws)
    if differential(ws, profile):
        raise ValueError("not a cocycle")
    idx, hms, span = _class_solver(profile, length, degree)
    target = 0
    for w in ws:
        target |= 1 << idx[w]
    rest = span.reduce(target)
    if rest & ((1 << len(idx)) - 1):
        return None
    return frozenset(hm for j, hm in enumerate(hms) if rest >> (len(idx) + j) & 1)


def hmono_str(hm: HMono) -> str:
    if not hm:
        return "1"
    parts = []
    for (t, s), grp in itertools.groupby(hm):
        k = len(list(grp))
        parts.append(f"h_{{{t},{s}}}" + (f"^{k}" if k > 1 else ""))
    return " ".join(parts)


def hclass_str(c: FrozenSet[HMono]) -> str:
    if not c:
        return "0"
    return " + ".join(hmono_str(hm) for hm in sorted(c))
