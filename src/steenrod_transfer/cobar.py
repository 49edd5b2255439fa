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
mod 2 once, the left products of all choices are grouped by their
right-hand tuple and cancelled mod 2, and since chi is linear it is then
applied, with the profile projection, once per surviving left rather
than once per choice.

For the profiles E(m) the cohomology is polynomial on classes h_{t,s}
with s < m <= t, where h_{t,s} is the class of the one-letter extension
of [xi_t^{2^s}]; class_of expresses a cocycle in that basis by solving
a linear system over the cell's candidate words and coboundaries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

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
    mono_str,
)

__all__ = [
    "Word",
    "WordSum",
    "word_degree",
    "wordsum_degree",
    "differential",
    "is_cocycle",
    "cell_basis",
    "differential_matrix",
    "cohomology_dim",
    "cohomology",
    "is_primitive",
    "HMono",
    "h_monomials",
    "word_of",
    "class_of",
    "hmono_str",
    "hclass_str",
    "word_str",
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


def _reduced_coproduct(slot: Slot, profile: Profile) -> Dict[Xi, Set[Xi]]:
    """Delta(slot) mod 2 as right side -> lefts, dropping the (a, 1) terms."""
    by_right: Dict[Xi, Set[Xi]] = {}
    for m in (slot,) if isinstance(slot, tuple) else slot:
        for a, b in coproduct(m, profile):
            if b != ONE:
                by_right.setdefault(b, set()).symmetric_difference_update((a,))
    return {b: lefts for b, lefts in by_right.items() if lefts}


def _collect(
    slots: List[Dict[Xi, Set[Xi]]],
    rights: Word,
    left: Iterable[Xi],
    index: Dict[Xi, int],
    groups: Dict[Word, int],
) -> None:
    """Walk the coproduct choices of the slots after the first len(rights),
    multiplying their lefts into left mod 2, and XOR the finished left
    sums into groups[rights] as bitmasks over index."""
    v = len(rights)
    if v == len(slots):
        mask = groups.pop(rights, 0)
        for m in left:
            mask ^= 1 << index.setdefault(m, len(index))
        if mask:
            groups[rights] = mask
        return
    for b, lefts in slots[v].items():
        prod: Set[Xi] = set()
        for a in left:
            for c in lefts:
                prod.symmetric_difference_update((mono_mul(a, c),))
        if prod:
            _collect(slots, rights + (b,), prod, index, groups)


def _differential(products: Iterable[SlotProduct], profile: Profile) -> WordSum:
    """d of a sum of slot products, collecting before the antipode.

    The left products of all choices are summed mod 2 per right-hand
    tuple, each group a bitmask over an index of left monomials, and a
    group that cancels is deleted at once; chi and the profile
    projection then run once per surviving left.
    """
    index: Dict[Xi, int] = {}
    groups: Dict[Word, int] = {}
    for product in products:
        slots = [_reduced_coproduct(p, profile) for p in product]
        if slots and all(slots):
            _collect(slots, (), (ONE,), index, groups)

    lefts = list(index)
    heads_of: Dict[int, FrozenSet[Xi]] = {}
    out: set = set()
    for rights, mask in groups.items():
        heads: Set[Xi] = set()
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if i not in heads_of:
                left = lefts[i]
                heads_of[i] = frozenset() if left == ONE else profile.project(antipode(left))
            heads ^= heads_of[i]
        out.update((h,) + rights for h in heads)
    return frozenset(out)


def differential(ws: Union[SlotProduct, Iterable[SlotProduct]], profile: Profile) -> WordSum:
    """d of a word, a word sum, or a sum of slot products."""
    return _differential((ws,) if isinstance(ws, tuple) else ws, profile)


def is_cocycle(ws: Union[SlotProduct, Iterable[SlotProduct]], profile: Profile) -> bool:
    return not differential(ws, profile)


@lru_cache(maxsize=None)
def cell_basis(profile: Profile, length: int, degree: int) -> Tuple[Word, ...]:
    """All words of the given length and total degree, sorted."""
    if length == 0:
        return ((),) if degree == 0 else ()
    if degree < length:  # letters have degree >= 1
        return ()
    out: List[Word] = []

    def rec(slots: int, remaining: int, acc: List[Xi]):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(acc))
            return
        # leave at least 1 per later slot
        for d in range(1, remaining - (slots - 1) + 1):
            for m in dual_basis(profile, d):
                acc.append(m)
                rec(slots - 1, remaining - d, acc)
                acc.pop()

    rec(length, degree, [])
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def differential_matrix(profile: Profile, length: int, degree: int) -> GF2Matrix:
    """Matrix of d: C^{length} -> C^{length+1} in cell_basis coordinates."""
    src = cell_basis(profile, length, degree)
    tgt = cell_basis(profile, length + 1, degree)
    tgt_idx = {w: i for i, w in enumerate(tgt)}
    rows = [0] * len(tgt)
    for j, w in enumerate(src):
        for image in _differential((w,), profile):
            rows[tgt_idx[image]] ^= 1 << j
    return GF2Matrix(rows, len(src))


def cohomology_dim(profile: Profile, length: int, degree: int) -> int:
    if length == 0:
        return 1 if degree == 0 else 0
    out_rank = differential_matrix(profile, length, degree).rank()
    cycles = len(cell_basis(profile, length, degree)) - out_rank
    boundaries = (
        differential_matrix(profile, length - 1, degree).rank() if length > 1 else 0
    )
    return cycles - boundaries


def cohomology(
    profile: Profile, length: int, degree: int
) -> Tuple[int, Tuple[WordSum, ...]]:
    """Dimension plus representative cocycles for one bidegree.

    Kernel vectors of the outgoing differential are reduced modulo the
    boundary subspace; the nonzero reductions stay cocycles, stay fixed
    under further reduction, and so form a basis of the quotient.
    """
    if length == 0:
        return (1, (frozenset({()}),)) if degree == 0 else (0, ())
    basis = cell_basis(profile, length, degree)
    cycles = differential_matrix(profile, length, degree).kernel()
    if length > 1:
        boundaries = (
            differential_matrix(profile, length - 1, degree).transpose().row_space()
        )
    else:
        boundaries = GF2Subspace(len(basis), [])
    reps = GF2Subspace(len(basis), [boundaries.reduce(z) for z in cycles.basis])
    words = tuple(
        frozenset(basis[i] for i in range(len(basis)) if v >> i & 1)
        for v in reps.basis
    )
    return reps.dim, words


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
    out: List[HMono] = []

    def rec(i: int, slots: int, remaining: int, acc: List[Tuple[int, int]]):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for j in range(i, len(letters)):
            t, s = letters[j]
            d = (1 << s) * ((1 << t) - 1)
            if d > remaining - (slots - 1):
                continue
            acc.append((t, s))
            rec(j, slots - 1, remaining - d, acc)
            acc.pop()

    rec(0, length, degree, [])
    return tuple(sorted(out))


def word_of(hm: HMono) -> Word:
    """The candidate cocycle word of an h-monomial, letters descending."""
    return tuple(((t, 1 << s),) for t, s in hm)


@lru_cache(maxsize=None)
def _class_solver(
    profile: Profile, length: int, degree: int
) -> Tuple[Tuple[Word, ...], Tuple[HMono, ...], GF2Matrix]:
    """The [h-monomial words | coboundaries] system for one cell, cached
    so that expressing many cocycles in the same bidegree stays cheap."""
    basis = cell_basis(profile, length, degree)
    idx = {w: i for i, w in enumerate(basis)}
    hms = h_monomials(profile, length, degree)
    columns = [1 << idx[word_of(hm)] for hm in hms]
    columns += differential_matrix(profile, length - 1, degree).columns()
    rows = [0] * len(basis)
    for j, col in enumerate(columns):
        while col:
            i = (col & -col).bit_length() - 1
            rows[i] |= 1 << j
            col &= col - 1
    return basis, hms, GF2Matrix(rows, len(columns))


def class_of(
    ws: Union[Word, WordSum], profile: Profile
) -> Optional[FrozenSet[HMono]]:
    """Express a cocycle as a sum of h-monomial classes.

    Solves z = sum c_M w(M) + d(u) in its cell.  Returns None when z is
    not in the span, which means the h-monomials do not exhaust the
    cohomology there.  Raises if z is not a cocycle.
    """
    if isinstance(ws, tuple):
        ws = frozenset({ws})
    if not ws:
        return frozenset()
    length, degree = wordsum_degree(ws)
    if differential(ws, profile):
        raise ValueError("not a cocycle")
    basis, hms, system = _class_solver(profile, length, degree)
    idx = {w: i for i, w in enumerate(basis)}
    target = 0
    for w in ws:
        target |= 1 << idx[w]
    sol = system.solve(target)
    if sol is None:
        return None
    return frozenset(hm for j, hm in enumerate(hms) if sol >> j & 1)


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


def word_str(w: Word) -> str:
    if not w:
        return "[]"
    return "[" + " | ".join(mono_str(a) for a in w) + "]"


def bidegree_report(profile: Profile, length: int, degree: int) -> dict:
    """JSON-ready summary of one cohomology bidegree.

    For the E(m) the h-monomials are a basis and the entries are labeled
    by them; for any other profile a monomial count matching the
    dimension proves nothing, so the entries are representative cocycles
    written out word by word.
    """
    dim, reps = cohomology(profile, length, degree)
    if profile.is_elementary():
        hms = h_monomials(profile, length, degree)
        assert len(hms) == dim
        basis = [hmono_str(hm) for hm in hms]
    else:
        basis = [" + ".join(word_str(w) for w in sorted(ws)) for ws in reps]
    return {"s": length, "t": degree, "dim": dim, "basis": basis}
