"""Steenrod squares on H^*(BV_n) and the hit problem.

This is the cohomology side of the story, built deliberately from the
Cartan formula alone: Sq^i on a monomial distributes i over the
variables, and Sq^j(x^e) = binom(e, j) x^{e+j} with the binomial odd
exactly when the digits of j sit inside those of e.  Nothing here knows
about coactions or digit assignments, so agreement of its transposed
action matrices with the homology module is a real consistency check,
not a tautology.

A class is hit when it lies in A^+ H^*; since the Sq^{2^j} generate, the
hit elements of one degree are spanned by the images of the Sq^{2^j}
alone.  They keep the support of a monomial (Sq^j x^0 = 0 for j > 0),
so the hit subspace is the direct sum over the supports of size k of
the hit subspace of the positive part of H^degree(BV_k), the monomials
with every exponent positive, which _positive_hit computes once per
(k, degree).  Conjugates chi(Sq^k) are kept as sums of Sq compositions
and only ever evaluated, never straightened through Adem relations.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .bv import GradedElement, Monomial, basis_dim, degree_basis
from .bv import _basis_index, _embed_supports  # coordinates of the support summands
from .gf2 import GF2Matrix, GF2Subspace, _columns

__all__ = [
    "PolyElement",
    "sq",
    "sq_matrix",
    "decomposables",
    "is_hit",
    "chi_sq",
    "apply_op",
    "peterson_wood",
]


class PolyElement(GradedElement):
    """A sum of monomials in H^degree(BV_rank), exponent tuples mod 2."""

    __slots__ = ()

    @classmethod
    def x(cls, *exponents: int) -> "PolyElement":
        return cls(len(exponents), sum(exponents), frozenset({tuple(exponents)}))

    def __mul__(self, other: "PolyElement") -> "PolyElement":
        if not isinstance(other, PolyElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("mismatched rank")
        acc: Set[Monomial] = set()
        for a in self.terms:
            for b in other.terms:
                acc ^= {tuple(p + q for p, q in zip(a, b))}
        return PolyElement._unchecked(self.rank, self.degree + other.degree, frozenset(acc))


def _sq_mono(i: int, mono: Monomial, degree: int, least: int, tails: Dict) -> int:
    """Sq^i on x^mono, a monomial of the given degree whose exponents are
    all at least least, as a vector over degree_basis(len(mono),
    degree + i, least), by the Cartan formula over the first variable:
    Sq^i(x^e x^T) is the sum over the j with binom(e, j) odd, the digits
    of j inside those of e, of x^(e+j) Sq^(i-j)(x^T).  The targets with
    first exponent e + j form one block of the sorted basis, inside which
    x^(e+j) x^U sits where x^U does one rank lower, so each term is the
    tail's vector shifted to its block.  The tails' vectors are kept in
    tails, keyed (i - j, T), for the caller's whole run."""
    if not mono:  # the unit: Sq^0 1 = 1 and Sq^i 1 = 0 for i > 0
        return int(not i)
    e = mono[0]
    tail = mono[1:]
    if not tail:
        return int(i & e == i)
    left = degree - e
    k = len(tail)
    # the targets with first exponent at least f number
    # C(degree + i - f - k least + k, k); those below e + j precede its block
    rest = degree + i - e - k * least
    top = math.comb(rest + e - least + k, k)
    v = 0
    cand = e & ((1 << i.bit_length()) - 1)
    j = cand
    while j >= i - left:  # the tail takes i - j, at most its degree
        if j <= i:
            key = (i - j, tail)
            sub = tails.get(key)
            if sub is None:
                sub = tails[key] = _sq_mono(i - j, tail, left, least, tails)
            if sub:
                v |= sub << (top - math.comb(rest - j + k, k))
        if not j:
            break
        j = (j - 1) & cand
    return v


def sq(i: int, p: PolyElement) -> PolyElement:
    """Total Steenrod square Sq^i."""
    return _sq(i, p, {})


def _sq(i: int, p: PolyElement, tails: Dict) -> PolyElement:
    """Sq^i p, its monomials' images and their tails kept in tails, which
    a caller may share between squares: keyed (i, T), a vector depends on
    nothing else."""
    if i < 0:
        raise ValueError("negative square")
    if i == 0:
        return p
    v = 0
    for mono in p.terms:
        key = (i, mono)
        w = tails.get(key)
        if w is None:
            w = tails[key] = _sq_mono(i, mono, p.degree, 0, tails)
        v ^= w
    return PolyElement.from_coords(p.rank, p.degree + i, v)


@lru_cache(maxsize=None)
def sq_matrix(i: int, rank: int, degree: int) -> GF2Matrix:
    """Matrix of Sq^i: H^degree -> H^{degree+i}, target rows over source
    columns, in degree_basis coordinates on both sides."""
    tails: Dict = {}
    cols = [_sq_mono(i, mono, degree, 0, tails) for mono in degree_basis(rank, degree)]
    return GF2Matrix(_columns(cols, basis_dim(rank, degree + i)), len(cols))


@lru_cache(maxsize=None)
def _positive_hit(rank: int, degree: int) -> GF2Subspace:
    """The hit subspace of the positive part of H^degree(BV_rank), for
    degree >= 1, in degree_basis(rank, degree, 1) coordinates.  The
    positive monomials of degree - 2^j span the source of Sq^(2^j)
    there, since the squares keep the support.  The images are
    eliminated sparsest first, which keeps the pivot rows sparse: at
    rank 4, degree 20 that halves the elimination steps."""
    tails: Dict = {}
    vectors: List[int] = []
    for j in range(degree.bit_length()):  # the 2^j <= degree
        source = degree - (1 << j)
        for mono in degree_basis(rank, source, 1):
            v = _sq_mono(1 << j, mono, source, 1, tails)
            if v:
                vectors.append(v)
    return GF2Subspace(basis_dim(rank, degree, 1), sorted(vectors, key=int.bit_count))


def decomposables(rank: int, degree: int) -> GF2Subspace:
    """The hit subspace (A^+ H^*)_degree of H^degree(BV_rank): the hit
    subspace of each positive part (_positive_hit) embedded over every
    support of its size."""
    vectors = _embed_supports(rank, degree, lambda k: _positive_hit(k, degree).basis)
    return GF2Subspace(basis_dim(rank, degree), vectors)


def is_hit(p: PolyElement) -> bool:
    """Whether p is hit, tested one support at a time: the part of p on
    a support of size k, its zero exponents dropped, against the hit
    subspace of the positive part of H^degree(BV_k)."""
    if p.degree == 0:
        return not p.terms  # the unit is not hit
    parts: Dict[Tuple[int, ...], int] = {}  # support -> positive coordinates
    for m in p.terms:
        support = tuple(v for v, e in enumerate(m) if e)
        bit = 1 << _basis_index(len(support), p.degree, 1)[tuple(m[v] for v in support)]
        parts[support] = parts.get(support, 0) | bit
    return all(_positive_hit(len(support), p.degree).contains(v) for support, v in parts.items())


@lru_cache(maxsize=None)
def chi_sq(k: int) -> FrozenSet[Tuple[int, ...]]:
    """chi(Sq^k) as a parity set of Sq compositions, via the recursion
    chi(Sq^k) = sum_{i=1..k} Sq^i chi(Sq^{k-i}); no Adem straightening."""
    if k < 0:
        raise ValueError("negative square")
    if k == 0:
        return frozenset({()})
    acc: Set[Tuple[int, ...]] = set()
    for i in range(1, k + 1):
        for comp in chi_sq(k - i):
            acc ^= {(i,) + comp}
    return frozenset(acc)


def apply_op(compositions: Iterable[Tuple[int, ...]], p: PolyElement) -> PolyElement:
    """Evaluate a parity set of Sq compositions, rightmost factor first."""
    comps = sorted(compositions)
    if not comps:
        raise ValueError("empty operation")
    k = sum(comps[0])
    if any(sum(c) != k for c in comps):
        raise ValueError("inhomogeneous operation")
    total = PolyElement.zero(p.rank, p.degree + k)
    tails: Dict = {}  # shared by every square of every composition
    for comp in comps:
        q = p
        for i in reversed(comp):
            q = _sq(i, q, tails)
        total = total ^ q
    return total


def peterson_wood(mono: Monomial) -> bool:
    """The spike-avoidance criterion: a monomial of degree d with r odd
    exponents is hit whenever alpha(d + r) > r."""
    d = sum(mono)
    r = sum(1 for e in mono if e & 1)
    return bin(d + r).count("1") > r
