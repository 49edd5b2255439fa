"""Homology and cohomology of elementary abelian 2-groups.

H^*(BV_n) is the polynomial algebra on n degree-1 generators; a monomial
is its exponent tuple.  H_*(BV_n) is the dual divided power algebra with
basis dual to the monomials, written b_E.  Elements here are sets of
exponent tuples (coefficients in GF(2)); HElement fixes rank and degree.

The right action on homology is the transpose pairing
<b.theta, z> = <b, theta z>.  For the Milnor primitives P_t^s, dual to
xi_t^{2^s}, it has a closed form (Milnor's rank-1 formula
P_t^s x^f = binom(f, 2^s) x^{f + 2^s(2^t-1)} split over the variables by
the Cartan formula), the forward rule

    b_E . P_t^s = sum over a with sum_v a_v = 2^s of b_{E - a(2^t-1)},

where a term is kept when every a_v is a binary submask of its target
exponent E_v - a_v(2^t-1) (Lucas).  It runs in two directions:
right_action applies it per source, term by term, and _pst_rows builds
each row per target over the positive parts, block by block: the
sorted basis groups the sources by first exponent, so fixing a_0 fixes
the block, and the row is the OR of the rank-(n-1) rows of the tail
shifted to their blocks.  action_matrix shares no code with it: it
takes a Milnor monomial xi^mu (a P_t^s as Pst.dual) and extracts its
coefficients from the coaction on a rank-1 class x^d (x^{2^j} goes to
sum_i x^{2^{i+j}} (x) xi_i^{2^j}, multiplicatively over the binary
digits of d) by assigning binary digits of the exponents to the xi_t
(expand_action).  That coaction walk is the one oracle, for the
exhaustive annihilator and the cross-checks.

The forward rule keeps the support of b_F (the v with F_v > 0): a_v = 0
where F_v = 0, and where F_v > 0 the target exponent is F_v itself
(a_v = 0) or holds the submask a_v > 0.  So
H_d(BV_n) is, as a module, the direct sum over the supports S of copies
of the positive part of H_d(BV_|S|), spanned by the b_F with every
F_v >= 1 (degree_basis(k, d, 1), of dimension C(d - 1, k - 1)), and
so is its annihilated subspace.  annihilated_subspace solves each
positive part once per k = 1..n and embeds it over the C(n, k)
supports; at A r4 d22 that is problems of dimension 1,330, 210 and 21
instead of one of 2,300.  The rank-1 positive part, b_d alone, takes
no kernel step: b_d is killed exactly when no generator P_t^s has bit s
of d - |P_t^s| set (_positive).  Over the full algebra a higher
positive part is first reduced by Wood's vanishing and Kameko's
doubling; otherwise the generator kernels are intersected from ker
Sq^1.  The union is the whole annihilated subspace, which is
GL(n, 2)-stable although no single summand is, so coinvariant_quotient
takes it unchanged.

The general linear group acts by divided power substitution: for g in
GL(n, 2) the generator a_j goes to sum_i g[i][j] a_i (column convention),
expanded with gamma_k(u + v) = sum gamma_i(u) gamma_j(v) and the product
rule a^(p) a^(q) = binom(p+q, p) a^(p+q), odd exactly when p & q == 0.
gl_act does this for any matrix.  The coinvariants need only the two
generators of gl_generators, which have closed forms: the n-cycle
rotates the exponents, and the transvection a_1 -> a_0 + a_1 sends b_E
to the sum of b_{(e_0+c, e_1-c, e_2, ...)} over c <= e_1 with
c & e_0 == 0.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .gf2 import GF2Matrix, GF2Subspace, common_kernel, image_of
from .milnor import Profile, Pst, Xi, dual_basis, generator_degrees, mono_degree

__all__ = [
    "Monomial",
    "GradedElement",
    "HElement",
    "degree_basis",
    "basis_dim",
    "terms_to_coords",
    "coords_to_terms",
    "expand_action",
    "action_matrix",
    "right_action",
    "annihilated_subspace",
    "kappa_rho",
    "is_Em_annihilated_rank1",
    "is_D_annihilated_rank1",
    "kameko_sq0",
    "GLMatrix",
    "swap_matrix",
    "transvection",
    "gl_generators",
    "gl_act",
    "CoinvariantPresentation",
    "coinvariant_quotient",
]

Monomial = Tuple[int, ...]
GLMatrix = Tuple[Tuple[int, ...], ...]
Operation = Union[Pst, Xi]


@lru_cache(maxsize=None)
def degree_basis(rank: int, degree: int, least: int = 0) -> Tuple[Monomial, ...]:
    """All exponent tuples of the given total degree with every exponent
    at least `least`, sorted: the basis of H_degree(BV_rank), or with
    least = 1 of its positive part.  The tuples with first exponent f are
    f followed by the rank - 1 basis of degree - f, so listing them by f
    keeps the order."""
    if rank < 1:
        raise ValueError("rank must be positive")
    if rank == 1:
        return ((degree,),) if degree >= least else ()
    return tuple((f,) + tail for f in range(least, degree + 1) for tail in _basis(rank - 1, degree - f, least))


def _basis(rank: int, degree: int, least: int) -> Tuple[Monomial, ...]:
    """degree_basis, cached under the key of a caller that leaves least out
    when it is 0."""
    return degree_basis(rank, degree, least) if least else degree_basis(rank, degree)


@lru_cache(maxsize=None)
def _basis_index(rank: int, degree: int, least: int = 0) -> Dict[Monomial, int]:
    return {m: i for i, m in enumerate(_basis(rank, degree, least))}


def basis_dim(rank: int, degree: int, least: int = 0) -> int:
    degree -= least * rank
    if degree < 0:
        return 0
    return math.comb(degree + rank - 1, rank - 1)


def terms_to_coords(rank: int, degree: int, terms: Iterable[Monomial]) -> int:
    """Bitset of distinct exponent tuples, bit i for degree_basis index i."""
    idx = _basis_index(rank, degree)
    v = 0
    for m in terms:
        v |= 1 << idx[m]
    return v


def coords_to_terms(rank: int, degree: int, v: int) -> FrozenSet[Monomial]:
    """The exponent tuples at the set bits of v; inverse of terms_to_coords."""
    basis = degree_basis(rank, degree)
    terms = set()
    while v:
        terms.add(basis[(v & -v).bit_length() - 1])
        v &= v - 1
    return frozenset(terms)


class GradedElement:
    """A homogeneous element of rank and degree fixed, as a set of exponent
    tuples with coefficients in GF(2).  Immutable, equal only within one
    subclass, and hashed and pickled by its fields.  Not a tuple: a
    tuple's +, *, len and in would give wrong answers on a GF(2) vector."""

    __slots__ = _fields = ("rank", "degree", "terms")

    def __init__(self, rank: int, degree: int, terms: Iterable[Monomial]):
        terms = frozenset(terms)
        for m in terms:
            if len(m) != rank or any(e < 0 for e in m):
                raise ValueError(f"bad term {m} for rank {rank}")
            if sum(m) != degree:
                raise ValueError(f"term {m} not of degree {degree}")
        _set_rank(self, rank)
        _set_degree(self, degree)
        _set_terms(self, terms)

    @classmethod
    def _unchecked(cls, rank: int, degree: int, terms: FrozenSet[Monomial]):
        """The element of terms that the library itself produced, of this
        rank and degree by construction, so not checked again: the
        constructor is for terms from outside."""
        self = _new(cls)
        _set_rank(self, rank)
        _set_degree(self, degree)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __repr__(self) -> str:
        # sorted, so that equal elements print alike however their sets were built
        terms = f"frozenset({{{', '.join(map(repr, sorted(self.terms)))}}})" if self.terms else "frozenset()"
        return f"{type(self).__name__}(rank={self.rank!r}, degree={self.degree!r}, terms={terms})"

    def __reduce__(self):
        return type(self), (self.rank, self.degree, self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.degree, self.terms))

    @classmethod
    def zero(cls, rank: int, degree: int):
        return cls._unchecked(rank, degree, frozenset())

    def is_zero(self) -> bool:
        return not self.terms

    def __xor__(self, other):
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("rank/degree mismatch")
        return self._unchecked(self.rank, self.degree, self.terms ^ other.terms)

    def to_coords(self) -> int:
        return terms_to_coords(self.rank, self.degree, self.terms)

    @classmethod
    def from_coords(cls, rank: int, degree: int, v: int):
        return cls._unchecked(rank, degree, coords_to_terms(rank, degree, v))


# every constructor fills the slots through their descriptors: __setattr__ raises
_new = object.__new__
_set_rank = GradedElement.rank.__set__
_set_degree = GradedElement.degree.__set__
_set_terms = GradedElement.terms.__set__


class HElement(GradedElement):
    """A homogeneous element of H_degree(BV_rank), as a set of b_E terms."""

    __slots__ = ()

    @classmethod
    def b(cls, *exponents: int) -> "HElement":
        if min(exponents, default=0) < 0:
            raise ValueError(f"negative exponent in {exponents}")
        self = _new(cls)
        _set_rank(self, len(exponents))
        _set_degree(self, sum(exponents))
        _set_terms(self, frozenset((exponents,)))
        return self

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "degree": self.degree,
            "terms": sorted(list(m) for m in self.terms),
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join("b" + "".join(f"({e})" for e in m) for m in sorted(self.terms))


# Steenrod action ------------------------------------------------------


def expand_action(mu: Xi, source: Monomial) -> FrozenSet[Monomial]:
    """Cohomology action of the Milnor basis element dual to xi^mu on x^E.

    Each xi_t in mu takes over a subset of the binary digits of the
    per-variable exponents: a digit 2^j assigned to xi_t turns into
    2^{j+t} in the target exponent, and the digit sets chosen for the
    different xi_t must be disjoint and sum to mu's exponents overall.
    Each valid assignment contributes one target monomial; parity counts.

    The variables are walked breadth-first over the states (owed to each
    xi_t, target exponents so far), kept mod 2; in one variable the xi_t
    take disjoint submasks of its exponent, each at most what it is owed.
    Once no later variable has a positive exponent, the variable must pay
    each xi_t all it still owes, so that is the one split tried.
    """
    weights = tuple((1 << t) - 1 for t, _ in mu)
    paid = (0,) * len(mu)
    states = {(tuple(e for _, e in mu), ())}
    left = sum(source)
    for ev in source:
        left -= ev
        nxt: set = set()
        for owed, target in states:
            if not left:
                free = fv = ev
                for w, r in zip(weights, owed):
                    if r & free != r:
                        break
                    free ^= r
                    fv += r * w
                else:
                    nxt.symmetric_difference_update(((paid, target + (fv,)),))
                continue
            # (digits still free, owed after the xi_t so far, target exponent)
            splits = [(ev, (), ev)]
            for w, r in zip(weights, owed):
                low = (1 << r.bit_length()) - 1
                more = []
                for free, done, fv in splits:
                    cand = free & low
                    a = cand
                    while True:
                        if a <= r:
                            more.append((free ^ a, done + (r - a,), fv + a * w))
                        if not a:
                            break
                        a = (a - 1) & cand
                splits = more
            for _, done, fv in splits:
                if sum(done) <= left:  # the later variables can still pay
                    nxt.symmetric_difference_update(((done, target + (fv,)),))
        states = nxt
    return frozenset(target for owed, target in states if not any(owed))


def _pst_image(source: Monomial, s: int, t: int) -> List[Monomial]:
    """Terms of b_source . P_t^s by the forward rule: b_{F - a(2^t - 1)}
    over the splits sum a_v = 2^s whose parts a_v are binary submasks of
    the target exponents F_v - a_v(2^t - 1), built one variable at a
    time; the last variable takes what is left."""
    m = (1 << t) - 1
    partial = [((), 1 << s)]  # (target exponents so far, part of 2^s left)
    for f in source[:-1]:
        nxt = []
        for acc, rem in partial:
            for a in range(min(rem, f // m) + 1):
                e = f - a * m
                if a & e == a:
                    nxt.append((acc + (e,), rem - a))
        partial = nxt
    f = source[-1]
    out = []
    for acc, rem in partial:
        e = f - rem * m
        if e >= 0 and rem & e == rem:
            out.append(acc + (e,))
    return out


@lru_cache(maxsize=None)
def action_matrix(mu: Xi, rank: int, degree: int) -> GF2Matrix:
    """Right action of the Milnor basis element dual to xi^mu,
    H_degree -> H_{degree-|mu|}, in basis coordinates, from the coaction
    walk (expand_action) alone: row E (target basis) has bit F set iff
    x^F occurs in the cohomology expansion of mu on x^E.  A P_t^s is
    passed as Pst.dual.
    """
    if isinstance(mu, Pst):
        raise TypeError(f"action_matrix takes a Milnor monomial; pass {mu}.dual")
    targets = degree_basis(rank, degree - mono_degree(mu))
    rows = [terms_to_coords(rank, degree, expand_action(mu, e)) for e in targets]
    return GF2Matrix(rows, basis_dim(rank, degree))


@lru_cache(maxsize=None)
def _block_starts(rank: int, degree: int) -> Tuple[int, ...]:
    """Index in degree_basis(rank, degree, 1) of the first monomial with
    first exponent f, at position f - 1: the basis is sorted, so the
    monomials with first exponent f form one block of
    basis_dim(rank - 1, degree - f, 1)."""
    sizes = (basis_dim(rank - 1, degree - f, 1) for f in range(1, degree))
    return tuple(itertools.accumulate(sizes, initial=0))


def _pst_rows(rank: int, degree: int, s: int, t: int) -> List[int]:
    """Rows of the action of P_t^s on the targets of the given degree in
    the positive part, which P_t^s preserves, over degree_basis(rank, _, 1)
    on both sides, for rank >= 2.

    The row of target E under a total r has a bit at each source
    E + a(2^t - 1) with sum a_v = r and every a_v a binary submask of E_v.
    Fixing a_0 fixes the source's first exponent e_0 + a_0(2^t - 1), i.e.
    its block (_block_starts), inside which the source sits where its tail
    sits in the basis one rank lower: the row is the OR over a_0 of the
    tail's row under r - a_0, shifted to that block.  Rank-2 rows are
    memoized for this call; a rank-2 source sits at its first exponent
    minus 1.
    """
    m = (1 << t) - 1
    pairs: Dict[Tuple[int, int, int], int] = {}
    r = 1 << s
    basis = degree_basis(rank, degree, 1)
    if rank == 2:
        return [_pair_row(e0, e1, r, m, pairs) for e0, e1 in basis]
    return [_row(e, degree, r, m, pairs) for e in basis]


def _pair_row(e0: int, e1: int, r: int, m: int, pairs: Dict) -> int:
    """The rank-2 row of _pst_rows for target (e0, e1) under the total r,
    with m = 2^t - 1, memoized in pairs."""
    key = (e0, e1, r)
    bits = pairs.get(key)
    if bits is None:
        bits = 0
        cand = e0 & ((1 << r.bit_length()) - 1)
        a = cand
        while a >= r - e1:
            if a <= r and (r - a) & e1 == r - a:
                bits |= 1 << (e0 + a * m - 1)
            if not a:
                break
            a = (a - 1) & cand
        pairs[key] = bits
    return bits


def _row(e: Monomial, d: int, r: int, m: int, pairs: Dict) -> int:
    """The row of _pst_rows for a target e of rank >= 3 and degree d under
    the total r: the tail's rows shifted to their blocks."""
    e0 = e[0]
    tail = e[1:]
    d_tail = d - e0
    starts = _block_starts(len(e), d + r * m)
    short = len(tail) == 2
    bits = 0
    cand = e0 & ((1 << r.bit_length()) - 1)
    a = cand
    # the tail takes r - a, at most its degree
    while a >= r - d_tail:
        if a <= r:
            if short:
                sub = _pair_row(tail[0], tail[1], r - a, m, pairs)
            else:
                sub = _row(tail, d_tail, r - a, m, pairs)
            if sub:
                bits |= sub << starts[e0 + a * m - 1]
        if not a:
            break
        a = (a - 1) & cand
    return bits


def right_action(x: HElement, op: Operation) -> HElement:
    """x . op in homology, computed term by term without matrices.

    A Pst maps each term forward by the closed-form rule; any other
    operation scans the target basis through expand_action.
    """
    terms = x.terms
    if isinstance(op, Pst):
        s, t = op
        if len(terms) == 1:
            # one source's images are distinct, so nothing cancels
            (source,) = terms
            out = frozenset(_pst_image(source, s, t))
        else:
            acc: set = set()
            for source in terms:
                acc.symmetric_difference_update(_pst_image(source, s, t))
            out = frozenset(acc)
        return HElement._unchecked(x.rank, x.degree - ((1 << s) * ((1 << t) - 1)), out)
    degree = x.degree - mono_degree(op)
    hits = frozenset(
        target for target in degree_basis(x.rank, degree) if len(expand_action(op, target) & terms) & 1
    )
    return HElement._unchecked(x.rank, degree, hits)


def annihilated_subspace(
    profile: Profile,
    rank: int,
    degree: int,
    exhaustive: bool = False,
    matrix: Optional[Callable[[Xi, int, int], GF2Matrix]] = None,
) -> GF2Subspace:
    """Elements of H_degree(BV_rank) killed by the profile's algebra.

    exhaustive=True intersects the kernels (common_kernel) of every Milnor
    basis element of positive degree, one at a time, so that each is
    applied to what the ones before it left: the definition, and the
    reference.  matrix swaps in another action-matrix source for it, e.g.
    a timed wrapper.  The default computes the positive parts once per
    rank and embeds them over every support (_annihilated).
    """
    if exhaustive:
        make = matrix if matrix is not None else action_matrix
        dim = basis_dim(rank, degree)
        basis = [1 << j for j in range(dim)]
        for op in (m for d in range(1, degree + 1) for m in dual_basis(profile, d)):
            shape = basis_dim(rank, degree - mono_degree(op))
            basis = common_kernel([shape], lambda k: make(op, rank, degree).rows, dim, basis).basis
        return GF2Subspace(dim, basis)
    return _annihilated(profile, rank, degree)


def _annihilated(profile: Profile, rank: int, degree: int) -> GF2Subspace:
    """The default route of annihilated_subspace: the annihilated positive
    part of each size k (_positive), embedded over the C(rank, k)
    supports of that size.  Embedding keeps the order of the monomials
    and different supports share none, so the union is already reduced
    and is not eliminated again.
    """
    dim = basis_dim(rank, degree)
    if degree == 0:
        return GF2Subspace(dim, (1,))  # b_0 is killed by everything
    return GF2Subspace._from_reduced(dim, _embed_supports(rank, degree, lambda k: _positive(profile, k, degree)))


def _embed_supports(rank: int, degree: int, positive: Callable[[int], Sequence[int]]) -> List[int]:
    """The vectors positive(k) of the positive part of each size k = 1..rank,
    in degree_basis(k, degree, 1) coordinates, embedded over the C(rank, k)
    supports of that size into degree_basis(rank, degree) coordinates."""
    idx = _basis_index(rank, degree)
    out: List[int] = []
    for k in range(1, min(rank, degree) + 1):
        vecs = positive(k)
        if not vecs:
            continue
        basis = degree_basis(k, degree, 1)
        for support in itertools.combinations(range(rank), k):
            out += _map_bits(vecs, lambda i: 1 << idx[_embed(basis[i], support, rank)])
    return out


def _embed(term: Monomial, support: Tuple[int, ...], rank: int) -> Monomial:
    """The rank-`rank` exponent tuple with term's exponents at support."""
    full = [0] * rank
    for v, e in zip(support, term):
        full[v] = e
    return tuple(full)


class _Images(dict):
    """Basis images keyed by bit, each computed by image on first lookup."""

    def __init__(self, image: Callable[[int], int]):
        super().__init__()
        self.image = image

    def __missing__(self, i: int) -> int:
        img = self[i] = self.image(i)
        return img


def _map_bits(vectors: Iterable[int], image: Callable[[int], int]) -> List[int]:
    """The vectors with each bit i replaced by the vector image(i), summed
    over GF(2): image_of over the linear map sending basis vector i to
    image(i), which is computed once per bit the vectors hold and dropped
    on return."""
    images = _Images(image)
    return [image_of(v, images) for v in vectors]


def _positive(profile: Profile, rank: int, degree: int) -> Sequence[int]:
    """Basis of the annihilated subspace of the positive part of
    H_degree(BV_rank), in degree_basis(rank, degree, 1) coordinates.

    At rank 1 the positive part is b_degree alone, and the forward rule
    b_k . P_t^s = C(k - |P_t^s|, 2^s) b_(k - |P_t^s|) decides it (Lucas):
    b_degree is killed exactly when no generator P_t^s has bit s of
    degree - |P_t^s| set.

    Over the full algebra, with mu(d) the least number of terms 2^k - 1
    summing to d (mu(d) <= n exactly when alpha(d + n) <= n, alpha
    counting binary digits):
    - mu(degree) > rank: it is 0 (Wood 1989, dual form);
    - mu(degree) == rank and degree = 2h + rank with h > 0: doubling
      b_E -> b_{2E+1} (kameko_sq0) is an isomorphism from all of
      H_h(BV_rank) (Kameko 1990), and its image is positive.
    Otherwise common_kernel maps the start basis through every generator
    at once and eliminates the stacked images in one pass.  The start is
    the closed-form basis of ker Sq^1 (_sq1_kernel), at most rank terms a
    vector, when Sq^1 is a generator.  P_t^s acts as 0 on H_degree when
    2^(s+t) > degree (its excess 2^s is above the degree of the target),
    so those are skipped.
    """
    if rank == 1:
        ops, degrees = generator_degrees(profile, degree)
        return () if any((degree - d) >> s & 1 for (s, _), d in zip(ops, degrees)) else (1,)
    if profile.is_full():
        if (degree + rank).bit_count() > rank:  # mu(degree) > rank
            return ()
        half, odd = divmod(degree - rank, 2)
        # mu(degree) == rank: not above rank, and above rank - 1
        if half > 0 and not odd and (degree + rank - 1).bit_count() >= rank:
            low = degree_basis(rank, half)
            idx = _basis_index(rank, degree, 1)
            return _map_bits(
                _annihilated(profile, rank, half).basis,
                lambda i: 1 << idx[tuple(2 * e + 1 for e in low[i])],
            )
    # (|P_t^s|, s, t), the degrees as cached with the generators
    ops = [(d, s, t) for (s, t), d in zip(*generator_degrees(profile, degree)) if 1 << (s + t) <= degree]
    start = None
    if ops and ops[0] == (1, 0, 1):  # Sq^1
        ops, start = ops[1:], _sq1_kernel(rank, degree)
        if not start:
            return ()
    # row and column counts: the positive part in degree d >= 1 has
    # basis_dim's C(d - 1, rank - 1), counted inline since it runs for
    # every generator of every cell
    return common_kernel(
        [math.comb(degree - d - 1, rank - 1) for d, _, _ in ops],
        lambda k: _pst_rows(rank, degree - ops[k][0], ops[k][1], ops[k][2]),
        math.comb(degree - 1, rank - 1),
        start,
    ).basis


def _sq1_kernel(rank: int, degree: int) -> List[int]:
    """A basis of ker Sq^1 on the positive part of H_degree(BV_rank), in
    degree_basis(rank, degree, 1) coordinates, for degree >= 1.

    b_F . Sq^1 is the sum of b_{F - e_v} over the v with F_v even, which
    for positive F stay positive: a differential, acyclic because H_*(BV)
    is acyclic above degree 0 and this is a summand.  Matching F, where
    F_0 is even, with F - e_0 is a discrete Morse matching, so the
    b_F . Sq^1 for those F of degree + 1 are a basis of the image, which
    is the kernel; each has at most rank terms.
    """
    idx = _basis_index(rank, degree, 1)
    out = []
    for f in degree_basis(rank, degree + 1, 1):
        if f[0] & 1:
            continue
        w = 0
        for v in range(rank):
            if not f[v] & 1:
                w |= 1 << idx[f[:v] + (f[v] - 1,) + f[v + 1 :]]
        out.append(w)
    return out


# rank-1 arithmetic ----------------------------------------------------


def kappa_rho(k: int) -> Tuple[int, int]:
    """The unique (kappa, rho) with k + 1 = 2^kappa (2 rho - 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = k + 1
    kappa = (m & -m).bit_length() - 1
    rho = ((m >> kappa) + 1) // 2
    return kappa, rho


def is_Em_annihilated_rank1(k: int, m: int) -> bool:
    """Whether b_k in H_*(BZ/2) is killed by the E(m) algebra.

    Arithmetic form: kappa >= m or rho <= 2^{m-1}.
    """
    kappa, rho = kappa_rho(k)
    return kappa >= m or rho <= 1 << (m - 1)


def is_D_annihilated_rank1(k: int) -> bool:
    """Whether b_k is killed by the diagonal-profile algebra: rho <= 2^kappa."""
    kappa, rho = kappa_rho(k)
    return rho <= 1 << kappa


def kameko_sq0(x: HElement) -> HElement:
    """Doubling map b_E -> b_{2E+1} on every exponent."""
    return HElement._unchecked(
        x.rank,
        2 * x.degree + x.rank,
        frozenset(tuple(2 * e + 1 for e in m) for m in x.terms),
    )


# GL(n, 2) -------------------------------------------------------------


def swap_matrix(n: int, i: int, j: int) -> GLMatrix:
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(tuple(1 if perm[r] == c else 0 for c in range(n)) for r in range(n))


def transvection(n: int, i: int, j: int) -> GLMatrix:
    """I + E_ij: sends generator a_j to a_i + a_j, fixing the others."""
    if i == j:
        raise ValueError("need i != j")
    return tuple(
        tuple(1 if (r == c or (r == i and c == j)) else 0 for c in range(n))
        for r in range(n)
    )


def gl_generators(n: int) -> Tuple[GLMatrix, ...]:
    """Two generators of GL(n, 2) (Waterhouse 1989): the n-cycle
    a_j -> a_{j+1 mod n} and transvection(n, 0, 1), a_1 -> a_0 + a_1.
    At n = 2 the cycle is the swap; GL(1, 2) is trivial and gets none.
    coinvariant_quotient applies them in closed form (_rotate, _shear).
    """
    if n < 2:
        return ()
    cycle = tuple(tuple(1 if r == (c + 1) % n else 0 for c in range(n)) for r in range(n))
    return (cycle, transvection(n, 0, 1))


def _rotate(term: Monomial, idx: Dict[Monomial, int]) -> int:
    """Coordinates of g . b_term for the n-cycle of gl_generators: a_j^(e)
    becomes a_{j+1}^(e), so the exponents rotate one place right."""
    return 1 << idx[term[-1:] + term[:-1]]


def _swap(term: Monomial, idx: Dict[Monomial, int]) -> int:
    """Coordinates of swap_matrix(n, 0, 1) . b_term: the first two
    exponents change places.  With _rotate it generates Sigma_n."""
    return 1 << idx[term[1::-1] + term[2:]]


def _shear(term: Monomial, idx: Dict[Monomial, int]) -> int:
    """Coordinates of g . b_term for transvection(n, 0, 1): a_0^(e_0)
    gamma_{e_1}(a_0 + a_1) is the sum over c <= e_1 of
    binom(e_0 + c, c) a_0^(e_0 + c) a_1^(e_1 - c), and the binomial is odd
    exactly when c & e_0 == 0 (Lucas)."""
    e0, e1 = term[0], term[1]
    rest = term[2:]
    v = 0
    for c in range(e1 + 1):
        if not c & e0:
            v |= 1 << idx[(e0 + c, e1 - c) + rest]
    return v


def _gl_columns(g: GLMatrix) -> Tuple[Tuple[int, ...], ...]:
    """For each generator a_j, the i with g[i][j] = 1."""
    n = len(g)
    return tuple(tuple(i for i in range(n) if g[i][j]) for j in range(n))


def _gl_term(cols: Tuple[Tuple[int, ...], ...], term: Monomial) -> set:
    """Terms of g . b_term, with g given by _gl_columns: each a_j^(k) is
    expanded over the a_i in its column, one term per composition of k
    (the degree-k basis of that many slots), and multiplied into the
    partial products, a term dying when two divided powers collide."""
    n = len(term)
    partial = {(0,) * n}
    for j in range(n):
        k = term[j]
        if k == 0:
            continue
        if not cols[j]:
            return set()
        nxt: set = set()
        for vec in partial:
            for comp in degree_basis(len(cols[j]), k):
                new = list(vec)
                ok = True
                for i, c in zip(cols[j], comp):
                    if new[i] & c:  # binom(p+q, p) even
                        ok = False
                        break
                    new[i] += c
                if ok:
                    nxt.symmetric_difference_update({tuple(new)})
        partial = nxt
    return partial


def gl_act(g: GLMatrix, x: HElement) -> HElement:
    """Divided power substitution a_j -> sum_i g[i][j] a_i applied to x."""
    cols = _gl_columns(g)
    out: set = set()
    for term in x.terms:
        out ^= _gl_term(cols, term)
    return HElement._unchecked(x.rank, x.degree, frozenset(out))


# coinvariants ---------------------------------------------------------


class CoinvariantPresentation(NamedTuple):
    """A GL-stable subspace P of H_degree together with its coinvariant
    quotient P / span{p + g p}."""

    rank: int
    degree: int
    space: GF2Subspace
    relations: GF2Subspace
    reps: GF2Subspace

    @property
    def dim(self) -> int:
        return self.space.dim - self.relations.dim

    def reduce(self, x: HElement) -> HElement:
        if (x.rank, x.degree) != (self.rank, self.degree):
            raise ValueError(f"element of {(x.rank, x.degree)} in the quotient of {(self.rank, self.degree)}")
        v = x.to_coords()
        if not self.space.contains(v):
            raise ValueError("element not in the subspace")
        return HElement.from_coords(self.rank, self.degree, self.relations.reduce(v))

    def is_zero_class(self, x: HElement) -> bool:
        return self.reduce(x).is_zero()

    def same_class(self, x: HElement, y: HElement) -> bool:
        return self.reduce(x) == self.reduce(y)


def coinvariant_quotient(space: GF2Subspace, rank: int, degree: int) -> CoinvariantPresentation:
    """Quotient of a GL-stable subspace by the augmentation submodule.

    Relations are spanned by p + g p for p over a basis of the space and
    g over the two gl_generators, applied in closed form; stability under
    the generators is enough and is verified here.  An annihilated
    subspace is GL-stable because the two actions commute.
    Each generator maps the basis by one _map_bits call, so it images
    each basis monomial once, and one generator's images are held at a
    time.
    """
    ambient = basis_dim(rank, degree)
    if space.ambient_dim != ambient:
        raise ValueError("subspace not in the right coordinate space")
    basis = degree_basis(rank, degree)
    idx = _basis_index(rank, degree)
    vecs = []
    for image in (_rotate, _shear) if rank > 1 else ():
        moved = _map_bits(space.basis, lambda i: image(basis[i], idx))
        for v, gv in zip(space.basis, moved):
            w = v ^ gv
            if not space.contains(w):
                raise ValueError("subspace is not GL-stable")
            vecs.append(w)
    relations = GF2Subspace(ambient, vecs)
    reps = GF2Subspace(ambient, [relations.reduce(v) for v in space.basis])
    return CoinvariantPresentation(rank, degree, space, relations, reps)
