"""Independent cross-checks of the counterexamples the acceptance run pins.

`rank2-degree11-witness` and `rank4-degree17-existence` report FAIL
because their computations refute the values they were given.  The
values they print are rederived here by brute force, sharing no action,
GL or f_star code with the program, and compared with the program's
where it exposes them:

- the Steenrod action on H_*(BV_n) is the dual Cartan formula, with the
  Milnor primitives Q_k acting as derivations;
- GL(2,2) acts by divided-power substitution, products of divided powers
  taking their binomial coefficients from math.comb;
- the E(2) transfer of b_k is read off the closed-form factor list in
  transfer.py's docstring, by enumerating part sets.
"""

import itertools
from math import comb

from steenrod_transfer.criteria import B_WITNESS
from steenrod_transfer.milnor import Profile, Pst, generators, xi
from steenrod_transfer.transfer import f_star

E2 = Profile.E(2)


# -- GF(2) linear algebra on int bit vectors --------------------------------


def echelon(vectors):
    """Pivot (lowest set bit) -> row, for the span of vectors."""
    rows = {}
    for v in vectors:
        v = remainder(rows, v)
        if v:
            rows[v & -v] = v
    return rows


def remainder(rows, v):
    """Canonical remainder of v modulo the span of an echelon form."""
    out = 0
    while v:
        low = v & -v
        if low in rows:
            v ^= rows[low]  # clears low, touches higher bits only
        else:
            out |= low
            v ^= low
    return out


def kernel(images):
    """Basis of the kernel of the map sending source bit i to images[i]."""
    pivots, out = {}, []
    for i, img in enumerate(images):
        comb_ = 1 << i
        while img:
            low = img & -img
            if low not in pivots:
                pivots[low] = (img, comb_)
                break
            p_img, p_comb = pivots[low]
            img ^= p_img
            comb_ ^= p_comb
        else:
            out.append(comb_)
    return out


def bits(terms, index):
    v = 0
    for m in terms:
        v ^= 1 << index[m]
    return v


def monomials(rank, degree):
    return [
        m
        for m in itertools.product(range(degree + 1), repeat=rank)
        if sum(m) == degree
    ]


# -- rank 2, degree 11 -------------------------------------------------------


def q_image(mono, t):
    """b_E Q_{t-1}: a derivation, b_n Q_{t-1} = (n - d) b_{n-d}, d = 2^t - 1."""
    d = (1 << t) - 1
    out = set()
    for v, n in enumerate(mono):
        if n >= d and (n - d) % 2:
            out ^= {mono[:v] + (n - d,) + mono[v + 1 :]}
    return out


def dp_mul(x, y):
    """Product of two sums of divided-power monomials."""
    out = set()
    for e in x:
        for f in y:
            if all(comb(a + b, a) % 2 for a, b in zip(e, f)):
                out ^= {tuple(a + b for a, b in zip(e, f))}
    return out


def dp_act(g, mono):
    """Substitute a_j -> sum_i g[i][j] a_i in a_1^(e_1) ... a_n^(e_n).

    The divided power of a sum is the sum over compositions:
    (u + v)^(n) = sum_k u^(k) v^(n-k).
    """
    n = len(mono)
    out = {(0,) * n}
    for j, e in enumerate(mono):
        rows = [i for i in range(n) if g[i][j]]
        power = set()
        for parts in itertools.product(range(e + 1), repeat=len(rows)):
            if sum(parts) == e:
                m = [0] * n
                for i, c in zip(rows, parts):
                    m[i] = c
                power ^= {tuple(m)}
        out = dp_mul(out, power)
    return out


GL2 = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product((0, 1), repeat=4)
    if (a * d + b * c) % 2
]
SHEAR = ((1, 1), (1, 0))


class TestDegree11Witness:
    MONOS = monomials(2, 11)
    INDEX = {m: i for i, m in enumerate(MONOS)}

    def el(self, *terms):
        return bits(terms, self.INDEX)

    def meet_data(self, m):
        """P and its GL(2,2) relations for E(2) ^ E(m), by brute force."""
        ops = generators(E2.meet(Profile.E(m)), 11)
        # P_t^0 is the Milnor primitive Q_{t-1}, which acts as a derivation;
        # the meets here are generated by primitives alone
        assert all(op.s == 0 for op in ops)
        # Q_(t-1) lands in H_(11-d)(BV_2), whose monomials are fixed by
        # their first exponent; block k of the image holds the k-th op
        width = len(self.MONOS)
        images = []
        for mono in self.MONOS:
            img = 0
            for k, op in enumerate(ops):
                for tgt in q_image(mono, op.t):
                    img ^= 1 << (k * width + tgt[0])
            images.append(img)
        p_basis = kernel(images)
        relations = []
        for v in p_basis:
            terms = [self.MONOS[i] for i in range(width) if v >> i & 1]
            for g in GL2:
                gv = 0
                for mono in terms:
                    gv ^= bits(dp_act(g, mono), self.INDEX)
                relations.append(v ^ gv)
        return echelon(p_basis), echelon(relations)

    def test_generators_of_the_meets(self):
        assert generators(E2.meet(Profile.E(1)), 11) == (Pst(0, 2), Pst(0, 3))
        assert generators(E2.meet(Profile.E(3)), 11) == (Pst(0, 3),)

    def test_dims_and_class_of_witness(self):
        assert len(GL2) == 6
        b = bits(B_WITNESS.terms, self.INDEX)
        b9b2 = self.el((9, 2))
        for m, dim_p, dim_coinv in ((1, 6, 1), (3, 10, 2)):
            p, rel = self.meet_data(m)
            assert len(p) == dim_p
            # P is GL-stable, so the relations lie in it
            assert all(remainder(p, r) == 0 for r in rel.values())
            assert len(p) - len(rel) == dim_coinv
            assert remainder(p, b) == 0 and remainder(p, b9b2) == 0
            # [b] = [b9b2], and that class is nonzero
            assert remainder(rel, b) == remainder(rel, b9b2) != 0

    def test_shear_identities_by_lucas(self):
        b = bits(B_WITNESS.terms, self.INDEX)
        tau_b = bits({(j, i) for i, j in B_WITNESS.terms}, self.INDEX)
        b11b0, b0b11 = self.el((11, 0)), self.el((0, 11))
        b9b2, b2b9 = self.el((9, 2)), self.el((2, 9))

        # g a_1 = a_1 + a_2, g a_2 = a_1, so g(b11b0) = (a_1 + a_2)^(11),
        # the sum of all twelve b_k b_(11-k)
        g_b11b0 = self.el(*self.MONOS)
        assert b11b0 ^ g_b11b0 == b ^ tau_b ^ b0b11

        # g(b9b2) = sum_k a_1^(k) a_1^(2) a_2^(9-k), and by Lucas
        # a^(k) a^(2) = C(k+2, 2) a^(k+2) is odd iff bit 1 of k+2 is set
        g_b9b2 = self.el(*[(k + 2, 9 - k) for k in range(10) if (k + 2) >> 1 & 1])
        assert b9b2 ^ g_b9b2 == b ^ b11b0 ^ b2b9
        assert b9b2 ^ g_b9b2 != b ^ b11b0  # the display misses b2b9 = tau(b9b2)

        # the substitution route agrees with both closed forms
        assert bits(dp_act(SHEAR, (11, 0)), self.INDEX) == g_b11b0
        assert bits(dp_act(SHEAR, (9, 2)), self.INDEX) == g_b9b2


# -- rank 4, degree 17 -------------------------------------------------------


def e2_presentations(n):
    """Part sets {2^i (2^t - 1)} with i < 2 <= t and distinct i, summing to n."""
    parts = [(i, t) for i in range(2) for t in range(2, 6)]
    out = []
    for r in range(len(parts) + 1):
        for choice in itertools.combinations(parts, r):
            if len({i for i, _ in choice}) == r and sum(
                (1 << i) * ((1 << t) - 1) for i, t in choice
            ) == n:
                out.append(choice)
    return out


E2_ALIVE_TO_17 = {2, 5, 6, 8, 12, 13, 14, 16}
TYPES_17 = [(2, 2, 5, 8), (2, 5, 5, 5)]


def sq_image(mono, k):
    """b_E Sq^k by the dual Cartan formula: sum over splits k = sum k_v of
    prod_v C(e_v - k_v, k_v) b_(E - k)."""
    out = set()
    for split in itertools.product(*(range(min(e, k) + 1) for e in mono)):
        if sum(split) == k and all(
            comb(e - c, c) % 2 for e, c in zip(mono, split)
        ):
            out ^= {tuple(e - c for e, c in zip(mono, split))}
    return out


class TestDegree17Types:
    def test_closed_form_alive_set(self):
        alive = {k for k in range(18) if e2_presentations(k + 1)}
        assert alive == E2_ALIVE_TO_17
        assert {k for k in range(18) if f_star(k, E2)} == alive

    def test_f_star_8_is_xi2_cubed(self):
        # 9 = 3 + 6 only: xi_2 from (i, t) = (0, 2) times xi_2^2 from (1, 2)
        assert e2_presentations(9) == [((0, 2), (1, 2))]
        assert f_star(8, E2) == frozenset({xi(2, 3)})

    def test_four_part_types(self):
        types = sorted(
            {
                tuple(sorted(c))
                for c in itertools.product(sorted(E2_ALIVE_TO_17), repeat=4)
                if sum(c) == 17
            }
        )
        assert types == TYPES_17

    def test_annihilated_elements_carry_no_2258_term(self):
        monos = monomials(4, 17)
        assert len(monos) == 1140
        index = {}
        images = []
        for mono in monos:
            img = 0
            for s in range(5):  # the Sq^(2^s) generate the algebra
                for tgt in sq_image(mono, 1 << s):
                    img ^= 1 << index.setdefault((s, tgt), len(index))
            images.append(img)
        ker = kernel(images)
        assert len(ker) == 87

        def mask(ty):
            return sum(1 << i for i, m in enumerate(monos) if tuple(sorted(m)) == ty)

        m2258, m2555 = mask((2, 2, 5, 8)), mask((2, 5, 5, 5))
        assert bin(m2258).count("1") == 12 and bin(m2555).count("1") == 4
        assert not any(v & m2258 for v in ker)
        # the annihilated elements with no (2,5,5,5)-type term form an
        # 83-dimensional subspace; all their terms are of dead types, so
        # their E(2) transfer vanishes term by term
        assert len(ker) - len(echelon(v & m2555 for v in ker)) == 83
        alive_terms = sum(
            1 << i for i, m in enumerate(monos) if all(e in E2_ALIVE_TO_17 for e in m)
        )
        assert alive_terms == m2258 | m2555
