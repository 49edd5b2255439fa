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
case of monomial slots.  Each slot's coproduct is formed and cancelled
mod 2 once, and the left products of all choices are cancelled mod 2
per right-hand tuple.  The monomials met under a profile are numbered
once, the lefts (each with chi of it, projected) and the right-hand
letters apart, so the terms before chi are held as one set of numbered
right-hand tuples per left number.  A sum of products XORs those sets,
and since chi is linear it is then applied, with the profile
projection, once per surviving left rather than once per choice.

The sets are computed once per orbit of slot products under permuting
the slots.  A_* is commutative, so chi(a_1' ... a_n') does not depend
on the slot order, and for a permutation sigma

    d(sigma . P) = (1 | sigma) . d(P):

the same heads over the same right-hand tuples, with the tuples
permuted.  A product is therefore sorted into a canonical slot order
(a monomial by itself, a polynomial by its sorted monomials, which no
hash seed affects), the sets of the sorted product are memoised, and
each product maps them back by permuting their right-hand tuples.  A d
that permuting the right-hand slots leaves fixed is zero exactly when it
is zero on the tuples that do not decrease, since each orbit of tuples
holds one; is_symmetric_cocycle forms only those.

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


def _reduced_coproduct(slot: Slot, profile: Profile) -> Dict[int, Set[Xi]]:
    """Delta(slot) mod 2 as right number -> lefts, dropping the (a, 1)
    terms."""
    num = _rights(profile).__getitem__
    by_right: Dict[int, Set[Xi]] = {}
    for m in (slot,) if isinstance(slot, tuple) else slot:
        for a, b in coproduct(m, profile):
            if b != ONE:
                by_right.setdefault(num(b), set()).symmetric_difference_update((a,))
    return {b: lefts for b, lefts in by_right.items() if lefts}


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


def _collect(
    slots: List[Dict[int, Set[Xi]]],
    rights: Tuple[int, ...],
    left: Iterable[Xi],
    num: Callable[[Xi], int],
    groups: Dict[int, Set[Tuple[int, ...]]],
) -> None:
    """Walk the coproduct choices of the slots after the first len(rights),
    multiplying their lefts into left mod 2, and add the finished
    right-hand tuple to the group of each left's number.  The walk reaches
    each tuple once, with its lefts already cancelled.  A left 1 heads a
    (1 | w) term, which d discards, so it gets no group."""
    v = len(rights)
    if v == len(slots):
        for m in left:
            if m != ONE:
                groups.setdefault(num(m), set()).add(rights)
        return
    for b, lefts in slots[v].items():
        prod: Set[Xi] = set()
        for a in left:
            for c in lefts:
                prod.symmetric_difference_update((mono_mul(a, c),))
        if prod:
            _collect(slots, rights + (b,), prod, num, groups)


@lru_cache(maxsize=None)
def _orbit_groups(
    product: SlotProduct, profile: Profile
) -> Tuple[Tuple[int, FrozenSet[Tuple[int, ...]]], ...]:
    """d of one slot product in canonical order before chi, as pairs (left
    number, its right-hand tuples), shared by every product in its
    slot-permutation orbit."""
    slots = [_reduced_coproduct(p, profile) for p in product]
    groups: Dict[int, Set[Tuple[int, ...]]] = {}
    if slots and all(slots):
        _collect(slots, (), (ONE,), _lefts(profile).__getitem__, groups)
    return tuple((i, frozenset(rights)) for i, rights in groups.items())


def _slot_key(slot: Slot) -> Tuple[Xi, ...]:
    """A total order on slots that no hash seed affects: a monomial sorts
    as itself, a polynomial as its sorted monomials."""
    return (slot,) if isinstance(slot, tuple) else tuple(sorted(slot))


def differential(ws: Union[SlotProduct, Iterable[SlotProduct]], profile: Profile) -> WordSum:
    """d of a word, a word sum, or a sum of slot products, collecting
    before the antipode.

    Each product is sorted into its orbit's canonical order, whose groups
    come from _orbit_groups; their right-hand tuples are permuted back to
    the product's slot order and XORed into one set per left number.
    chi and the profile projection then run once per left, as its
    memoised heads.
    """
    acc: Dict[int, Set[Tuple[int, ...]]] = {}
    for product in (ws,) if isinstance(ws, tuple) else ws:
        identity = list(range(len(product)))
        order = sorted(identity, key=lambda i: _slot_key(product[i]))
        groups = _orbit_groups(tuple(product[i] for i in order), profile)
        if order != identity:
            back = itemgetter(*sorted(identity, key=order.__getitem__))  # order^-1
            groups = [(i, map(back, rights)) for i, rights in groups]
        for i, rights in groups:
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
    slot order, as _collect does, but slot v takes only the keys from the
    previous slot's up to the least largest key of the later slots, found
    by bisection.  Ordering by degree first keeps the light slots of a
    transfer term from pairing with heavy later ones."""
    letters, num = _rights(profile).values, _lefts(profile).__getitem__
    by_slot: Dict[Slot, Tuple[List[Tuple[int, int]], List[Set[Xi]]]] = {}
    acc: Dict[Xi, Set[Tuple[int, ...]]] = {}

    def walk(v: int, low: Tuple[int, ...], rights: Tuple[int, ...], left: Iterable[Xi]) -> None:
        keys, lefts = slots[v]
        for j in range(bisect_left(keys, low), bisect_right(keys, tops[v])):
            prod: Set[Xi] = set()
            for a in left:
                for c in lefts[j]:
                    prod.symmetric_difference_update((mono_mul(a, c),))
            if v + 1 < len(slots):
                if prod:
                    walk(v + 1, keys[j], rights + (keys[j][1],), prod)
                continue
            for m in prod:  # the last slot: the tuple is finished
                if m != ONE:
                    acc.setdefault(m, set()).symmetric_difference_update((rights + (keys[j][1],),))

    for product in products:
        for p in set(product) - by_slot.keys():
            delta = _reduced_coproduct(p, profile).items()
            by_key = sorted(((mono_degree(letters[b]), b), lefts) for b, lefts in delta)
            by_slot[p] = ([k for k, _ in by_key], [lefts for _, lefts in by_key])
        slots = [by_slot[p] for p in product]
        if slots and all(keys for keys, _ in slots):
            # a slot's key is at most each later slot's, so at most their least largest key
            later = itertools.accumulate((k[-1] for k, _ in slots[:0:-1]), min, initial=(math.inf,))
            tops = list(later)[::-1]
            walk(0, (), (), (ONE,))
    return _decoded({num(m): rights for m, rights in acc.items()}, profile)


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

    The groups of each slot-permutation orbit of source words come from
    _orbit_groups, on its sorted word; since d(sigma . w) = (1 | sigma) .
    d(w), every word of the orbit takes each head of each left over the
    right-hand tuples permuted to its own slot order.  Target words are
    looked up by head and numbered tail, as the groups hold them.
    """
    src = cell_basis(profile, length, degree)
    tgt = cell_basis(profile, length + 1, degree)
    num = _rights(profile).__getitem__
    tgt_idx = {(w[0], tuple(map(num, w[1:]))): i for i, w in enumerate(tgt)}
    heads = _lefts(profile).values
    rows = [0] * len(tgt)
    orbits: Dict[Word, List[int]] = {}
    for j, w in enumerate(src):
        orbits.setdefault(tuple(sorted(w)), []).append(j)
    for key, members in orbits.items():
        groups = _orbit_groups(key, profile)
        terms = [(h, r) for i, rights in groups for h in heads[i] for r in rights]
        for j in members:
            w = src[j]
            moved = terms
            if w != key:  # so length > 1, and itemgetter gives tuples
                # slot i of w holds letter pos[i] of the sorted word
                order = sorted(range(length), key=w.__getitem__)
                pos = sorted(range(length), key=order.__getitem__)
                perm = itemgetter(*pos)
                moved = [(h, perm(r)) for h, r in terms]
            bit = 1 << j
            for t in map(tgt_idx.__getitem__, moved):
                rows[t] ^= bit
    return GF2Matrix(rows, len(src))


def cohomology_dim(profile: Profile, length: int, degree: int) -> int:
    """dim ker d_length - dim im d_{length-1} in one degree, from the ranks
    of the cached differential matrices."""
    if length == 0:
        return int(degree == 0)
    d_out = differential_matrix(profile, length, degree)
    d_in = differential_matrix(profile, length - 1, degree)
    return d_out.ncols - _rank(d_out) - _rank(d_in)


def _rank(mat: GF2Matrix) -> int:
    return GF2Subspace(mat.ncols, mat.rows).dim


@lru_cache(maxsize=None)
def is_primitive(profile: Profile, m: Xi) -> bool:
    if m == ONE:
        return False
    return coproduct(m, profile) == frozenset({(m, ONE), (ONE, m)})


@lru_cache(maxsize=None)
def _primitive_letters(profile: Profile, max_degree: int) -> Tuple[Tuple[int, int], ...]:
    """(t, s) with xi_t^{2^s} a surviving primitive, degree <= max_degree."""
    out = []
    t = 1
    while (1 << t) - 1 <= max_degree:
        s = 0
        while (1 << s) * ((1 << t) - 1) <= max_degree:
            if s < profile(t) and is_primitive(profile, ((t, 1 << s),)):
                out.append((t, s))
            s += 1
        t += 1
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
