import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer.milnor import (
    ONE,
    Profile,
    Pst,
    antipode,
    coproduct,
    dual_basis,
    frobenius,
    generators,
    mono_degree,
    mono_mul,
    poly_add,
    poly_mul,
    xi,
)


@st.composite
def monomials(draw, max_t=4, max_factor_exp=7, max_deg=40):
    m = ONE
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(1, max_t))
        e = draw(st.integers(1, max_factor_exp))
        cand = mono_mul(m, xi(t, e))
        if mono_degree(cand) <= max_deg:
            m = cand
    return m


def pair_sum_of_products(pairs):
    """sum chi-free a*b over a coproduct, as a polynomial."""
    acc = frozenset()
    for a, b in pairs:
        acc = poly_add(acc, {mono_mul(a, b)})
    return acc


class TestRing:
    def test_degrees(self):
        assert mono_degree(xi(1)) == 1
        assert mono_degree(xi(3)) == 7
        assert mono_degree(mono_mul(xi(1, 4), xi(2))) == 7

    @given(monomials(), monomials())
    def test_mono_mul_commutes(self, a, b):
        assert mono_mul(a, b) == mono_mul(b, a)
        assert mono_degree(mono_mul(a, b)) == mono_degree(a) + mono_degree(b)

    def test_add_cancels(self):
        p = frozenset({xi(1)})
        assert poly_add(p, p) == frozenset()

    @given(monomials())
    def test_frobenius_is_squaring(self, m):
        p = frozenset({m, xi(1, 9)})
        assert frobenius(p, 1) == poly_mul(p, p)


class TestCoproduct:
    def test_xi1_primitive(self):
        assert coproduct(xi(1)) == frozenset({(xi(1), ONE), (ONE, xi(1))})

    def test_xi2(self):
        assert coproduct(xi(2)) == frozenset(
            {(xi(2), ONE), (xi(1, 2), xi(1)), (ONE, xi(2))}
        )

    def test_xi3(self):
        assert coproduct(xi(3)) == frozenset(
            {(xi(3), ONE), (xi(2, 2), xi(1)), (xi(1, 4), xi(2)), (ONE, xi(3))}
        )

    @given(monomials())
    def test_counit(self, m):
        pairs = coproduct(m)
        assert {b for a, b in pairs if a == ONE} == {m}
        assert {a for a, b in pairs if b == ONE} == {m}

    @given(monomials())
    def test_degree_split(self, m):
        d = mono_degree(m)
        for a, b in coproduct(m):
            assert mono_degree(a) + mono_degree(b) == d

    @settings(max_examples=40, deadline=None)
    @given(monomials())
    def test_coassociative(self, m):
        left = set()
        right = set()
        for a, b in coproduct(m):
            for x, y in coproduct(a):
                left ^= {(x, y, b)}
            for x, y in coproduct(b):
                right ^= {(a, x, y)}
        assert left == right

    @settings(deadline=None)
    @given(monomials(), monomials())
    def test_multiplicative(self, a, b):
        prod = set()
        for x1, y1 in coproduct(a):
            for x2, y2 in coproduct(b):
                prod ^= {(mono_mul(x1, x2), mono_mul(y1, y2))}
        assert frozenset(prod) == coproduct(mono_mul(a, b))


class TestAntipode:
    def test_small_xis(self):
        assert antipode(xi(1)) == frozenset({xi(1)})
        assert antipode(xi(2)) == frozenset({xi(2), xi(1, 3)})
        assert antipode(xi(3)) == frozenset(
            {
                xi(3),
                mono_mul(xi(1), xi(2, 2)),
                mono_mul(xi(1, 4), xi(2)),
                xi(1, 7),
            }
        )

    @given(monomials(max_deg=30))
    def test_antipode_axiom(self, m):
        # sum chi(a) b = counit(m) = 0 for deg > 0, and symmetrically
        left = frozenset()
        right = frozenset()
        for a, b in coproduct(m):
            left = poly_add(left, poly_mul(antipode(a), frozenset({b})))
            right = poly_add(right, poly_mul(frozenset({a}), antipode(b)))
        expected = frozenset({ONE}) if m == ONE else frozenset()
        assert left == expected
        assert right == expected

    @given(monomials(max_deg=25))
    def test_involution(self, m):
        assert antipode(antipode(frozenset({m}))) == frozenset({m})

    @given(monomials(max_deg=20), monomials(max_deg=20))
    def test_algebra_map(self, a, b):
        assert antipode(mono_mul(a, b)) == poly_mul(antipode(a), antipode(b))

    @given(monomials(max_deg=30))
    def test_degree_preserved(self, m):
        p = antipode(m)
        assert p and {mono_degree(q) for q in p} == {mono_degree(m)}


class TestPst:
    def test_degree_and_dual(self):
        op = Pst(1, 2)
        assert op.degree == 6
        assert op.dual == xi(2, 2)
        assert Pst(0, 1).degree == 1
        assert Pst(3, 1).degree == 8


class TestProfile:
    def test_families(self):
        full = Profile.full()
        assert full(1) == math.inf and full(10) == math.inf
        e2 = Profile.E(2)
        assert [e2(t) for t in range(1, 5)] == [0, 2, 2, 2]
        d2 = Profile.D(2)
        assert [d2(t) for t in range(1, 4)] == [1, 2, math.inf]
        d = Profile.D()
        assert [d(t) for t in range(1, 5)] == [1, 2, 3, 4]

    def test_normalized_equality(self):
        assert Profile((0, 2, 2), "const", 2) == Profile.E(2)
        assert Profile((1, 2, 3), "diag") == Profile.D()
        assert Profile((1, 2), "const", None) == Profile.D(2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Profile((2, 1), "const", None)  # decreasing
        with pytest.raises(ValueError):
            Profile((), "diag", 3)
        with pytest.raises(ValueError):
            Profile((5,), "const", 1)  # head above constant tail

    def test_meet_known(self):
        assert Profile.E(2).meet(Profile.E(1)) == Profile((0,), "const", 1)
        assert Profile.E(2).meet(Profile.E(3)) == Profile((0, 0), "const", 2)
        assert Profile.D().meet(Profile.full()) == Profile.D()
        assert Profile.D().meet(Profile.E(2)) == Profile.E(2)
        assert Profile.D(3).meet(Profile.D()) == Profile.D()
        assert Profile.full().meet(Profile.full()) == Profile.full()

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 12))
    def test_meet_is_pointwise_min(self, m1, m2, t):
        a, b = Profile.E(m1), Profile.D(m2)
        assert a.meet(b)(t) == min(a(t), b(t))
        assert b.meet(a) == a.meet(b)

    def test_survives(self):
        e2 = Profile.E(2)
        assert not e2.survives(Pst(0, 1))
        assert e2.survives(Pst(0, 2)) and e2.survives(Pst(1, 2))
        assert not e2.survives(Pst(2, 2))
        assert Profile.full().survives(Pst(9, 3))

    def test_mono_survives(self):
        e2 = Profile.E(2)
        assert not e2.mono_survives(xi(1))
        assert e2.mono_survives(xi(2, 3))
        assert not e2.mono_survives(xi(2, 4))
        assert e2.project(frozenset({xi(2, 4), xi(2, 3)})) == frozenset({xi(2, 3)})

    @given(
        st.sampled_from(["E1", "E2", "E3", "D2", "D"]),
        st.sets(monomials(max_deg=20), max_size=3),
        st.sets(monomials(max_deg=20), max_size=3),
    )
    def test_project_is_algebra_map(self, name, ps, qs):
        # the dead monomials form a multiplicatively closed ideal, so
        # projecting before or after multiplying agrees
        prof = {
            "E1": Profile.E(1),
            "E2": Profile.E(2),
            "E3": Profile.E(3),
            "D2": Profile.D(2),
            "D": Profile.D(),
        }[name]
        p, q = frozenset(ps), frozenset(qs)
        direct = prof.project(poly_mul(p, q))
        staged = prof.project(poly_mul(prof.project(p), prof.project(q)))
        assert direct == staged

    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_primitives_in_quotient(self, m, t, data):
        # in E(m)* every surviving xi_t^{2^s} is primitive
        prof = Profile.E(m)
        h = prof(t)
        if h == 0:
            return
        s = data.draw(st.integers(0, int(h) - 1))
        mono = xi(t, 1 << s)
        assert coproduct(mono, prof) == frozenset({(mono, ONE), (ONE, mono)})

    def test_is_elementary_for_every_em(self):
        for m in range(1, 41):
            assert Profile.E(m).is_elementary()
            assert Profile((0,) * (m - 1), "const", m).is_elementary()

    def test_is_elementary_false_elsewhere(self):
        for prof in (
            Profile.full(),
            Profile.D(),
            Profile.D(3),
            Profile((0, 1), "const", 1),
            Profile((0,), "const", 1),  # h = (0, 1, 1, ...) is not E(1)
            Profile((0, 0), "const", 2),
            Profile((), "const", 0),
        ):
            assert not prof.is_elementary()


class TestGenerators:
    def test_full_through_7(self):
        # the full algebra hands back its algebra generators only
        ops = generators(Profile.full(), 7)
        assert [(op.s, op.t, op.degree) for op in ops] == [(0, 1, 1), (1, 1, 2), (2, 1, 4)]

    def test_full_reduction_same_kernel(self):
        # the reduced list annihilates the same rank-1 window as the
        # exhaustive definition
        from steenrod_transfer.bv import annihilated_subspace

        for k in range(13):
            assert annihilated_subspace(Profile.full(), 1, k) == annihilated_subspace(
                Profile.full(), 1, k, exhaustive=True
            )

    def test_e2_through_20(self):
        ops = generators(Profile.E(2), 20)
        assert {(op.s, op.t) for op in ops} == {(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)}
        assert sorted(op.degree for op in ops) == [3, 6, 7, 14, 15]

    def test_prefixes_of_one_list(self):
        # each answer is read off a cached list for degrees below a power
        # of two, so compare across those bucket boundaries
        for profile in (Profile.full(), Profile.E(2), Profile.D(), Profile.D(2)):
            top = generators(profile, 255)
            assert [op.degree for op in top] == sorted(op.degree for op in top)
            for d in range(-1, 256):
                assert generators(profile, d) == tuple(op for op in top if op.degree <= d)


def brute_monomial_count(profile, degree, tmax=6):
    """Independent count: enumerate exponent vectors directly."""
    count = 0
    stack = [(1, degree)]
    while stack:
        t, rem = stack.pop()
        if rem == 0:
            count += 1
            continue
        if t > tmax or (1 << t) - 1 > rem:
            continue
        w = (1 << t) - 1
        h = profile(t)
        emax = rem // w
        if h != math.inf:
            emax = min(emax, (1 << int(h)) - 1)
        for e in range(emax + 1):
            stack.append((t + 1, rem - e * w))
    return count


class TestDualBasis:
    def test_degree_zero(self):
        assert dual_basis(Profile.full(), 0) == (ONE,)

    def test_full_degree_3(self):
        assert set(dual_basis(Profile.full(), 3)) == {xi(1, 3), xi(2)}

    @given(st.integers(0, 12), st.sampled_from(["full", "E1", "E2", "D"]))
    def test_counts_against_enumeration(self, d, name):
        prof = {
            "full": Profile.full(),
            "E1": Profile.E(1),
            "E2": Profile.E(2),
            "D": Profile.D(),
        }[name]
        basis = dual_basis(prof, d)
        assert len(set(basis)) == len(basis)
        assert len(basis) == brute_monomial_count(prof, d)
        for m in basis:
            assert mono_degree(m) == d
            assert prof.mono_survives(m)

    def test_whole_lists_against_enumeration(self):
        # every exponent vector of xi_1..xi_5 up to degree 40, kept where
        # each exponent is below 2^h(t)
        max_degree = 40
        weights = [(t, (1 << t) - 1) for t in range(1, 6)]
        by_degree = {}
        for exps in itertools.product(*(range(max_degree // w + 1) for _, w in weights)):
            d = sum(e * w for e, (_, w) in zip(exps, weights))
            if d <= max_degree:
                m = tuple((t, e) for (t, _), e in zip(weights, exps) if e)
                by_degree.setdefault(d, []).append(m)
        for prof in (Profile.full(), Profile.E(1), Profile.E(2), Profile.D()):
            for d in range(max_degree + 1):
                want = sorted(m for m in by_degree[d] if all(e < 2 ** prof(t) for t, e in m))
                assert list(dual_basis(prof, d)) == want, (prof, d)

    def test_e1_subset_sums(self):
        # exterior profile: exponents are 0/1, so counts are subset sums
        # of {1, 3, 7, 15, ...}
        assert len(dual_basis(Profile.E(1), 4)) == 1
        assert len(dual_basis(Profile.E(1), 2)) == 0
        assert len(dual_basis(Profile.E(1), 11)) == 1
