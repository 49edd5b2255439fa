"""The dual mod-2 Steenrod algebra and its sub-Hopf quotient profiles.

The dual algebra is the polynomial algebra F2[xi_1, xi_2, ...] with
deg(xi_t) = 2^t - 1.  A monomial is a tuple of (t, exponent) pairs with
t strictly increasing and exponents positive; the empty tuple is 1.
A polynomial is a frozenset of monomials (coefficients live in GF(2)).

Coproduct: Delta(xi_n) = sum_i xi_{n-i}^{2^i} (x) xi_i, extended as an
algebra map; powers are computed through the Frobenius, which on pairs
just doubles exponents on both sides.

A Profile records the function h with B* = A*/(xi_t^{2^h(t)}).  The dual
sub-Hopf algebra B contains P_t^s exactly when s < h(t).  Profiles here
are non-decreasing in t, which makes the quotient a Hopf quotient, and
they are closed under pointwise minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "Xi",
    "DualPoly",
    "ONE",
    "ZERO",
    "xi",
    "mono_degree",
    "poly_degree",
    "mono_mul",
    "poly_add",
    "poly_mul",
    "frobenius",
    "coproduct",
    "antipode",
    "Pst",
    "Profile",
    "generators",
    "dual_basis",
    "mono_str",
    "poly_str",
]

Xi = Tuple[Tuple[int, int], ...]
DualPoly = FrozenSet[Xi]
Pair = Tuple[Xi, Xi]

ONE: Xi = ()
ZERO: DualPoly = frozenset()


def xi(t: int, e: int = 1) -> Xi:
    if t < 1 or e < 0:
        raise ValueError("need t >= 1 and e >= 0")
    return ((t, e),) if e else ()


def mono_degree(m: Xi) -> int:
    return sum(e * (2**t - 1) for t, e in m)


def poly_degree(p: DualPoly) -> Optional[int]:
    """Common degree of a homogeneous polynomial; None for the zero one."""
    degs = {mono_degree(m) for m in p}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
    return degs.pop()


def mono_mul(a: Xi, b: Xi) -> Xi:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for t, e in b:
        acc[t] = acc.get(t, 0) + e
    return tuple(sorted(acc.items()))


def poly_add(*ps: Iterable[Xi]) -> DualPoly:
    acc: set = set()
    for p in ps:
        acc ^= set(p)
    return frozenset(acc)


def poly_mul(p: DualPoly, q: DualPoly) -> DualPoly:
    acc: set = set()
    for a in p:
        for b in q:
            acc ^= {mono_mul(a, b)}
    return frozenset(acc)


def frobenius(p: DualPoly, j: int = 1) -> DualPoly:
    """p^(2^j).  Char 2: just shift every exponent."""
    if j == 0:
        return frozenset(p)
    return frozenset(tuple((t, e << j) for t, e in m) for m in p)


def _pair_frobenius(pairs: FrozenSet[Pair], j: int) -> FrozenSet[Pair]:
    if j == 0:
        return pairs
    return frozenset(
        (tuple((t, e << j) for t, e in a), tuple((t, e << j) for t, e in b))
        for a, b in pairs
    )


def _pair_mul(ps: FrozenSet[Pair], qs: FrozenSet[Pair]) -> FrozenSet[Pair]:
    acc: set = set()
    for a, b in ps:
        for c, d in qs:
            acc ^= {(mono_mul(a, c), mono_mul(b, d))}
    return frozenset(acc)


@lru_cache(maxsize=None)
def _coproduct_xi(n: int) -> FrozenSet[Pair]:
    # Delta(xi_n) = sum_{i=0}^{n} xi_{n-i}^{2^i} (x) xi_i, xi_0 = 1
    return frozenset(
        (xi(n - i, 1 << i) if i < n else ONE, xi(i) if i else ONE)
        for i in range(n + 1)
    )


@lru_cache(maxsize=None)
def _coproduct_mono(m: Xi) -> FrozenSet[Pair]:
    acc: FrozenSet[Pair] = frozenset({(ONE, ONE)})
    for t, e in m:
        j = 0
        while e:
            if e & 1:
                acc = _pair_mul(acc, _pair_frobenius(_coproduct_xi(t), j))
            e >>= 1
            j += 1
    return acc


def coproduct(m: Xi, profile: Optional["Profile"] = None) -> FrozenSet[Pair]:
    """Full coproduct of a monomial; with a profile, both sides are
    projected to the quotient and dead terms dropped."""
    pairs = _coproduct_mono(m)
    if profile is None or profile.is_full():
        return pairs
    return frozenset(
        (a, b) for a, b in pairs
        if profile.mono_survives(a) and profile.mono_survives(b)
    )


@lru_cache(maxsize=None)
def _antipode_xi(n: int) -> DualPoly:
    # chi(xi_n) = sum_{i=1}^{n} chi(xi_{n-i})^{2^i} xi_i, from the antipode
    # axiom applied to Delta(xi_n); chi is an algebra map so it commutes
    # with the Frobenius.
    if n == 0:
        return frozenset({ONE})
    acc: DualPoly = ZERO
    for i in range(1, n + 1):
        term = poly_mul(frobenius(_antipode_xi(n - i), i), frozenset({xi(i)}))
        acc = poly_add(acc, term)
    return acc


@lru_cache(maxsize=None)
def _antipode_mono(m: Xi) -> DualPoly:
    acc: DualPoly = frozenset({ONE})
    for t, e in m:
        base = _antipode_xi(t)
        j = 0
        while e:
            if e & 1:
                acc = poly_mul(acc, frobenius(base, j))
            e >>= 1
            j += 1
    return acc


def antipode(p: Union[Xi, DualPoly]) -> DualPoly:
    if isinstance(p, tuple):
        return _antipode_mono(p)
    acc: DualPoly = ZERO
    for m in p:
        acc = poly_add(acc, _antipode_mono(m))
    return acc


class Pst(NamedTuple):
    """Index of the Milnor primitive P_t^s, dual to xi_t^{2^s}."""

    s: int
    t: int

    @property
    def degree(self) -> int:
        return (1 << self.s) * ((1 << self.t) - 1)

    @property
    def dual(self) -> Xi:
        return xi(self.t, 1 << self.s)

    @property
    def label(self) -> str:
        return f"P_{self.t}^{self.s}"


@dataclass(frozen=True)
class Profile:
    """Non-decreasing h: {1,2,...} -> {0,1,...,inf}.

    heads give h(1..len(heads)); past them the tail rule applies:
    "const" with tail_value (None = infinity), or "diag" with h(t) = t.
    Stored normalized, so equal functions compare equal.
    """

    heads: Tuple[int, ...] = ()
    tail: str = "const"
    tail_value: Optional[int] = None

    def __post_init__(self):
        if self.tail not in ("const", "diag"):
            raise ValueError(f"unknown tail rule {self.tail!r}")
        if self.tail == "diag" and self.tail_value is not None:
            raise ValueError("diag tail takes no tail_value")
        if self.tail_value is not None and self.tail_value < 0:
            raise ValueError("tail_value must be nonnegative")
        heads = list(self.heads)
        if any(h < 0 for h in heads):
            raise ValueError("profile values must be nonnegative")
        # strip heads the tail rule already implies
        while heads:
            t = len(heads)
            implied = t if self.tail == "diag" else self.tail_value
            if implied is None or heads[-1] != implied:
                break
            heads.pop()
        object.__setattr__(self, "heads", tuple(heads))
        vals = [self(t) for t in range(1, len(self.heads) + 2)]
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"profile not non-decreasing: {vals}")

    def __call__(self, t: int) -> Union[int, float]:
        if t < 1:
            raise ValueError("t starts at 1")
        if t <= len(self.heads):
            return self.heads[t - 1]
        if self.tail == "diag":
            return t
        return math.inf if self.tail_value is None else self.tail_value

    # common families --------------------------------------------------

    @classmethod
    def full(cls) -> "Profile":
        return cls()

    @classmethod
    def E(cls, m: int) -> "Profile":
        """h = (0, ..., 0, m, m, ...): the P_t^s with s < m <= t."""
        if m < 1:
            raise ValueError("need m >= 1")
        return cls(heads=(0,) * (m - 1), tail="const", tail_value=m)

    @classmethod
    def D(cls, m: Optional[int] = None) -> "Profile":
        """h(t) = t for t <= m, infinity past m; no m means h(t) = t."""
        if m is None:
            return cls(tail="diag")
        if m < 0:
            raise ValueError("need m >= 0")
        return cls(heads=tuple(range(1, m + 1)), tail="const", tail_value=None)

    def is_full(self) -> bool:
        return not self.heads and self.tail == "const" and self.tail_value is None

    def is_elementary(self) -> bool:
        """True exactly for the E(m), whose duals are exterior on primitives:
        h = (0, ..., 0, m, m, ...) with m - 1 zeros, for any m >= 1."""
        m = self.tail_value
        return self.tail == "const" and m is not None and m >= 1 and self.heads == (0,) * (m - 1)

    def meet(self, other: "Profile") -> "Profile":
        """Pointwise minimum."""
        if self.tail == "diag" and other.tail == "diag":
            tail, tv = "diag", None
        elif self.tail == "diag" or other.tail == "diag":
            c = other.tail_value if self.tail == "diag" else self.tail_value
            tail, tv = (("diag", None) if c is None else ("const", c))
        else:
            a, b = self.tail_value, other.tail_value
            tv = b if a is None else a if b is None else min(a, b)
            tail = "const"
        horizon = max(len(self.heads), len(other.heads), 1)
        if tail == "const" and tv is not None:
            horizon = max(horizon, tv)  # a diag side can dip below tv until t = tv
        heads: List[int] = []
        for t in range(1, horizon + 1):
            v = min(self(t), other(t))
            if v == math.inf:
                # both infinite from here on (each is non-decreasing)
                tail, tv = "const", None
                break
            heads.append(int(v))
        return Profile(tuple(heads), tail, tv)

    # membership -------------------------------------------------------

    def survives(self, op: Pst) -> bool:
        """P_t^s lies in the dual sub-Hopf algebra iff s < h(t)."""
        return op.s < self(op.t)

    def mono_survives(self, m: Xi) -> bool:
        """Nonzero in the quotient iff every exponent is below 2^h(t)."""
        return all(e.bit_length() <= self(t) for t, e in m)

    def project(self, p: DualPoly) -> DualPoly:
        return frozenset(m for m in p if self.mono_survives(m))

    def __str__(self) -> str:
        n = max(len(self.heads) + 2, 4)
        vals = []
        for t in range(1, n + 1):
            v = self(t)
            vals.append("inf" if v == math.inf else str(v))
        return "(" + ", ".join(vals) + ", ...)"


def generators(profile: Profile, max_degree: int) -> Tuple[Pst, ...]:
    """The P_t^s of the profile's algebra with degree <= max_degree.

    For a right module, vanishing under these forces vanishing under the
    whole augmentation ideal: products act leftmost-first, and the P_t^s
    generate the algebra.  For the full algebra the list is reduced to
    t = 1, the Sq^{2^s}, which already generate; every other profile
    keeps all its P_t^s since no smaller generating set is available in
    general.
    """
    t_cap = 1 if profile.is_full() else None
    out = []
    t = 1
    while (1 << t) - 1 <= max_degree and (t_cap is None or t <= t_cap):
        s = 0
        while (1 << s) * ((1 << t) - 1) <= max_degree:
            op = Pst(s, t)
            if profile.survives(op):
                out.append(op)
            s += 1
        t += 1
    out.sort(key=lambda op: (op.degree, op.t, op.s))
    return tuple(out)


@lru_cache(maxsize=None)
def dual_basis(profile: Profile, degree: int) -> Tuple[Xi, ...]:
    """All monomials of the quotient algebra in the given degree."""
    if degree < 0:
        return ()
    tmax = 0
    while (1 << (tmax + 1)) - 1 <= degree:
        tmax += 1
    out: List[Xi] = []

    def rec(t: int, remaining: int, acc: List[Tuple[int, int]]):
        if t == 0:
            if remaining == 0:
                out.append(tuple(reversed(acc)))
            return
        w = (1 << t) - 1
        emax = remaining // w
        h = profile(t)
        if h != math.inf:
            emax = min(emax, (1 << int(h)) - 1)
        for e in range(emax + 1):
            if e:
                acc.append((t, e))
            rec(t - 1, remaining - e * w, acc)
            if e:
                acc.pop()

    rec(tmax, degree, [])
    return tuple(sorted(out))


def mono_str(m: Xi) -> str:
    if not m:
        return "1"
    return " ".join(f"xi{t}^{e}" if e > 1 else f"xi{t}" for t, e in m)


def poly_str(p: DualPoly) -> str:
    if not p:
        return "0"
    return " + ".join(mono_str(m) for m in sorted(p))
