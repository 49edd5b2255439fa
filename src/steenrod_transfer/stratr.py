"""The limit algebra R = F2[h_{t,s} | s < t] / (h_{t,s} h_{v,u} | u >= t)
with its Steenrod action on generators and the single-s exclusion test.

R is where the elementary transfers eventually land: a monomial is the
same data as a product of cobar classes h_{t,s}, and the encoding here
matches the HMono tuples of the cobar module on purpose.

The squares act through the generator rules

    Sq^{2^s}       h_{t,s} = h_{t-1,s+1}   when t-1 > s+1, else 0
    Sq^{2^{s+t-1}} h_{t,s} = h_{t-1,s}     when t-1 > s,   else 0

with every other Sq^{2^k} vanishing on h_{t,s}, extended to products by
the Cartan formula: each copy of a generator receives either the
identity or one of its two active squares, and the spent degrees must
add up.  Choosing a copies of one branch and b of the other out of e
equal factors carries the multinomial binom(e,a) binom(e-a,b), odd
exactly when the digit sets are nested.  Non-2-power squares are never
applied from outside, but they do appear internally when the budget
splits, and the same copy rule is their only consistent extension.

Nothing here computes the invariant ring itself; is_invariant probes
annihilation by Sq^{2^k} for k up to a caller-chosen bound, which
suffices because the 2-power squares generate.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import FrozenSet, Iterable, List, Set, Tuple

__all__ = [
    "RMonomial",
    "RElement",
    "r_mono",
    "sq_2k",
    "is_invariant",
    "same_s_excluded",
    "parse_r_text",
]

# a product of h_{t,s}, as (t, s) pairs sorted descending; () is 1
RMonomial = Tuple[Tuple[int, int], ...]
RElement = FrozenSet[RMonomial]

R_ZERO: RElement = frozenset()
R_ONE: RElement = frozenset({()})


def _canonical(pairs: Iterable[Tuple[int, int]]) -> RMonomial:
    out = tuple(sorted(pairs, reverse=True))
    for t, s in out:
        if not 0 <= s < t:
            raise ValueError(f"h[{t},{s}] is not a generator (need 0 <= s < t)")
    return out


def _killed(mono: RMonomial) -> bool:
    """The defining relation: h_{t,s} h_{v,u} = 0 whenever u >= t."""
    return any(
        u >= t for (t, _), (_, u) in itertools.permutations(mono, 2)
    )


def r_mono(*pairs: Tuple[int, int]) -> RElement:
    """A single monomial, or zero if the relation kills it."""
    m = _canonical(pairs)
    return R_ZERO if _killed(m) else frozenset({m})


def _submasks(e: int):
    j = e
    while True:
        yield j
        if j == 0:
            return
        j = (j - 1) & e


def _sq_any_mono(budget: int, mono: RMonomial) -> RElement:
    """Sq^budget on one monomial by distributing 2-powers over copies, one
    group of equal generators at a time."""
    partial: List[Tuple[RMonomial, int]] = [((), budget)]  # (built so far, budget left)
    for (t, s), e in sorted(Counter(mono).items(), reverse=True):
        ups = tuple(_submasks(e)) if t - 1 > s + 1 else (0,)  # h_{t-1,s+1} exists
        down_ok = t - 1 > s  # h_{t-1,s} exists
        nxt = []
        for built, rem in partial:
            for a in ups:
                cost_a = a << s
                if cost_a > rem:
                    continue
                for b in _submasks(e - a) if down_ok else (0,):
                    cost = cost_a + (b << (s + t - 1))
                    if cost <= rem:
                        grown = ((t, s),) * (e - a - b) + ((t - 1, s + 1),) * a + ((t - 1, s),) * b
                        nxt.append((built + grown, rem - cost))
        partial = nxt
    acc: Set[RMonomial] = set()
    for built, rem in partial:
        if rem == 0:
            m = _canonical(built)
            if not _killed(m):
                acc.symmetric_difference_update({m})
    return frozenset(acc)


def _sq_any(budget: int, z: RElement) -> RElement:
    if budget == 0:
        return z
    acc: Set[RMonomial] = set()
    for mono in z:
        acc ^= _sq_any_mono(budget, mono)
    return frozenset(acc)


def sq_2k(k: int, z: RElement) -> RElement:
    """The generating operation Sq^{2^k} on a sum of monomials."""
    if k < 0:
        raise ValueError("negative index")
    return _sq_any(1 << k, z)


def is_invariant(z: RElement, k_max: int) -> bool:
    """Annihilation by Sq^{2^k} for 0 <= k <= k_max.

    The 2-power squares generate, so once k_max is large enough that
    2^{k_max} exceeds every internal degree appearing in z this decides
    invariance under the whole augmentation ideal.
    """
    return all(not sq_2k(k, z) for k in range(k_max + 1))


def same_s_excluded(z: RElement, m: int) -> bool:
    """Whether some term is h_{t_1,s} ... h_{t_k,s} with one fixed s and
    not all t_i equal to m; such a term certifies that z cannot come
    through the E(m)-transfer."""
    for mono in z:
        if not mono:
            continue
        ss = {s for _, s in mono}
        if len(ss) == 1 and any(t != m for t, _ in mono):
            return True
    return False


# text form ------------------------------------------------------------


def parse_r_text(text: str) -> RElement:
    acc: Set[RMonomial] = set()
    for term in text.split("+"):
        term = term.strip()
        if not term or term == "0":
            continue
        if term == "1":
            acc ^= {()}
            continue
        pairs: List[Tuple[int, int]] = []
        for factor in term.split("*"):
            m = re.fullmatch(r"\s*h\[(\d+),(\d+)\](?:\^(\d+))?\s*", factor)
            if not m:
                raise ValueError(f"cannot read factor {factor!r}")
            t, s = int(m.group(1)), int(m.group(2))
            e = int(m.group(3) or 1)
            pairs.extend([(t, s)] * e)
        mono = _canonical(pairs)
        if not _killed(mono):
            acc ^= {mono}
    return frozenset(acc)
