import ast
import functools
import inspect
import itertools
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod_transfer import bv
from steenrod_transfer.bv import (
    HElement,
    _basis_index,
    _map_bits,
    _pst_image,
    _pst_rows,
    _rotate,
    _shear,
    _sq1_kernel,
    _swap,
    action_matrix,
    annihilated_subspace,
    basis_dim,
    coinvariant_quotient,
    degree_basis,
    expand_action,
    gl_act,
    gl_generators,
    kameko_sq0,
    kappa_rho,
    right_action,
    swap_matrix,
    transvection,
)
from steenrod_transfer.gf2 import GF2Subspace, common_kernel, image_of
from steenrod_transfer.milnor import Profile, Pst, dual_basis, generators, xi

from gf2_reference import reference_kernel, reference_mul_vec


def eq22_oracle(k, s, t):
    """Rank-1 right action straight from the binomial rule:
    b_k P_t^s = binom(k - 2^s(2^t - 1), 2^s) b_{k - 2^s(2^t - 1)}."""
    d = (1 << s) * ((1 << t) - 1)
    if k - d < 0 or math.comb(k - d, 1 << s) % 2 == 0:
        return None
    return k - d


def four_generators(n):
    """A second generating set of GL(n, 2), independent of gl_generators:
    the adjacent swaps plus one transvection."""
    return [swap_matrix(n, i, i + 1) for i in range(n - 1)] + [transvection(n, 0, 1)]


def reference_coinvariants(space, rank, degree, gens):
    """(relations, reps) of coinvariant_quotient, with each relation
    p + g p built element by element through gl_act over gens."""
    vecs = [
        v ^ gl_act(g, HElement.from_coords(rank, degree, v)).to_coords()
        for v in space.basis
        for g in gens
    ]
    relations = GF2Subspace(space.ambient_dim, vecs)
    return relations, GF2Subspace(space.ambient_dim, [relations.reduce(v) for v in space.basis])


COINVARIANT_CELLS = [(Profile.E(2), 2, 11)] + [(Profile.full(), 3, d) for d in range(7, 16)] + [
    (Profile.full(), 4, 14)
]


@functools.lru_cache(maxsize=None)
def _coinvariant_cell(profile, rank, degree):
    """The quotient of the cell's annihilated subspace, and the relations
    of reference_coinvariants."""
    space = annihilated_subspace(profile, rank, degree)
    relations, _ = reference_coinvariants(space, rank, degree, four_generators(rank))
    return coinvariant_quotient(space, rank, degree), relations


@st.composite
def helements(draw, max_rank=3, max_degree=9):
    rank = draw(st.integers(1, max_rank))
    degree = draw(st.integers(0, max_degree))
    basis = degree_basis(rank, degree)
    terms = draw(st.sets(st.sampled_from(basis)) if basis else st.just(set()))
    return HElement(rank, degree, frozenset(terms))


class TestBasis:
    @given(st.integers(1, 4), st.integers(0, 12))
    def test_dim(self, n, d):
        basis = degree_basis(n, d)
        assert len(basis) == basis_dim(n, d) == math.comb(d + n - 1, n - 1)
        assert len(set(basis)) == len(basis)
        assert all(len(m) == n and sum(m) == d for m in basis)

    def test_negative_degree(self):
        assert degree_basis(2, -1) == ()
        assert basis_dim(2, -3) == 0


class TestHElement:
    def test_b_constructor(self):
        x = HElement.b(3, 8)
        assert x.rank == 2 and x.degree == 11
        assert str(x) == "b(3)(8)"

    def test_validation(self):
        with pytest.raises(ValueError):
            HElement(2, 5, frozenset({(1, 2)}))
        with pytest.raises(ValueError):
            HElement(2, 3, frozenset({(1, 2, 0)}))

    def test_xor(self):
        x = HElement.b(3, 8) ^ HElement.b(9, 2)
        assert len(x.terms) == 2
        assert (x ^ x).is_zero()

    @given(helements())
    def test_coords_roundtrip(self, x):
        assert HElement.from_coords(x.rank, x.degree, x.to_coords()) == x

    @given(helements(max_rank=4, max_degree=12))
    def test_built_without_checks_like_constructor(self, x):
        # b and from_coords fill the slots without the constructor's checks
        built = [HElement.from_coords(x.rank, x.degree, x.to_coords())]
        if len(x.terms) == 1:
            built.append(HElement.b(*next(iter(x.terms))))
        for y in built:
            assert type(y) is HElement
            assert y == x and hash(y) == hash(x)
            loaded = pickle.loads(pickle.dumps(y))
            assert loaded == x and hash(loaded) == hash(x)
            for name in ("rank", "degree", "terms", "extra"):
                with pytest.raises(AttributeError):
                    setattr(y, name, None)

    @given(helements(max_rank=4, max_degree=12), st.randoms(use_true_random=False))
    def test_repr_canonical(self, x, rnd):
        # equal elements print alike however their term sets were built:
        # terms given in another order, read from coordinates, summed one
        # b_E at a time
        terms = list(x.terms)
        rnd.shuffle(terms)
        summed = HElement.zero(x.rank, x.degree)
        for m in reversed(terms):
            summed = summed ^ HElement.b(*m)
        built = [HElement(x.rank, x.degree, terms), HElement.from_coords(x.rank, x.degree, x.to_coords()), summed]
        for y in built:
            assert y == x and repr(y) == repr(x)
        assert eval(repr(x), {"HElement": HElement}) == x

    def test_repr_sorts_terms(self):
        x = HElement(2, 1, {(1, 0), (0, 1)})
        assert repr(x) == repr(HElement.from_coords(2, 1, 0b11))
        assert repr(x) == "HElement(rank=2, degree=1, terms=frozenset({(0, 1), (1, 0)}))"
        assert repr(HElement.zero(3, 4)) == "HElement(rank=3, degree=4, terms=frozenset())"

    @given(helements())
    def test_dict_shape(self, x):
        d = x.to_dict()
        assert list(d) == ["rank", "degree", "terms"]
        assert (d["rank"], d["degree"]) == (x.rank, x.degree)
        assert all(type(m) is list and len(m) == x.rank for m in d["terms"])
        assert d["terms"] == sorted(d["terms"]) and {tuple(m) for m in d["terms"]} == x.terms


class TestRankOneAction:
    @given(st.integers(0, 60), st.integers(0, 3), st.integers(1, 3))
    def test_matches_binomial_rule(self, k, s, t):
        got = right_action(HElement.b(k), Pst(s, t))
        want = eq22_oracle(k, s, t)
        if want is None:
            assert got.is_zero()
        else:
            assert got == HElement.b(want)

    @given(st.integers(0, 60), st.integers(0, 3), st.integers(1, 3))
    def test_vanishing_criterion(self, k, s, t):
        # zero iff k < 2^{s+t} or bit s of k is set
        got = right_action(HElement.b(k), Pst(s, t))
        assert got.is_zero() == (k < 1 << (s + t) or bool(k >> s & 1))

    @settings(max_examples=60, deadline=None)
    @given(helements(max_rank=4, max_degree=16), st.integers(0, 3), st.integers(1, 3))
    def test_additive_over_terms(self, x, s, t):
        # the many-term path equals the sum of the one-term images
        op = Pst(s, t)
        total = HElement.zero(x.rank, x.degree - op.degree)
        for term in x.terms:
            one = right_action(HElement.b(*term), op)
            assert len(one.terms) == len(_pst_image(term, s, t))
            total ^= one
        assert right_action(x, op) == total

    def test_specific_values(self):
        assert right_action(HElement.b(4), Pst(1, 1)) == HElement.b(2)
        assert right_action(HElement.b(10), Pst(0, 2)) == HElement.b(7)
        assert right_action(HElement.b(9), Pst(0, 2)).is_zero()


def brute_expand(mu, source):
    """expand_action by brute force: each set binary digit 2^j of each
    exponent is left alone or owned by one xi_t of mu, where it becomes
    2^(j+t); an assignment counts when every xi_t owns digits summing to
    its exponent, and the targets are kept mod 2."""
    digits = [(v, 1 << j) for v, e in enumerate(source) for j in range(e.bit_length()) if e >> j & 1]
    owed = [e for _, e in mu]
    out = set()
    for owners in itertools.product(range(len(mu) + 1), repeat=len(digits)):
        paid = [0] * len(mu)
        target = list(source)
        for (v, d), owner in zip(digits, owners):
            if owner:
                t = mu[owner - 1][0]
                paid[owner - 1] += d
                target[v] += d * ((1 << t) - 1)
        if paid == owed:
            out ^= {tuple(target)}
    return frozenset(out)


def submask_expand(mu, source):
    """expand_action as a breadth-first walk over the variables in which
    every variable, the last included, enumerates every split of its
    binary digits among the xi_t (disjoint submasks, each at most what
    that xi_t is owed) and keeps the splits the later variables can
    still pay for."""
    states = {(tuple(e for _, e in mu), ())}
    left = sum(source)
    for ev in source:
        left -= ev
        nxt = set()
        for owed, target in states:
            splits = [(ev, (), ev)]
            for (t, _), r in zip(mu, owed):
                low = (1 << r.bit_length()) - 1
                w = (1 << t) - 1
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
                if sum(done) <= left:
                    nxt ^= {(done, target + (fv,))}
        states = nxt
    return frozenset(target for owed, target in states if not any(owed))


REFERENCE_PROFILES = {"A": Profile.full(), "E2": Profile.E(2), "D": Profile.D()}


@st.composite
def milnor_monomials(draw, max_degree=16):
    """A Milnor basis monomial of A, E2 or D of degree at most max_degree."""
    prof = REFERENCE_PROFILES[draw(st.sampled_from(sorted(REFERENCE_PROFILES)))]
    basis = [mu for d in range(max_degree + 1) for mu in dual_basis(prof, d)]
    return draw(st.sampled_from(basis))


class TestExpandAction:
    def test_sq1_is_derivation(self):
        assert expand_action(xi(1), (1, 1)) == frozenset({(2, 1), (1, 2)})

    def test_sq2_cartan(self):
        assert expand_action(xi(1, 2), (1, 1)) == frozenset({(2, 2)})

    def test_identity_op(self):
        assert expand_action((), (3, 4)) == frozenset({(3, 4)})

    @given(st.integers(0, 12))
    def test_unstable_vanishing(self, d):
        # Sq^k z = 0 for k > deg z
        assert expand_action(xi(1, d + 1), (d,)) == frozenset()

    def test_top_square(self):
        # Sq^d z = z^2 in degree d
        assert expand_action(xi(1, 3), (2, 1)) == frozenset({(4, 2)})

    @pytest.mark.parametrize("name", ["full", "E2"])
    def test_matches_brute_force(self, name):
        # every Milnor monomial up to degree 8, term by term, on every
        # source of rank <= 3 and degree <= 12
        prof = {"full": Profile.full(), "E2": Profile.E(2)}[name]
        for d in range(9):
            for mu in dual_basis(prof, d):
                for rank in (1, 2, 3):
                    for degree in range(13):
                        for source in degree_basis(rank, degree):
                            assert expand_action(mu, source) == brute_expand(mu, source)

    @pytest.mark.parametrize("name", sorted(REFERENCE_PROFILES))
    def test_matches_submask_enumeration(self, name):
        # every Milnor monomial up to degree 12 on every source of rank
        # <= 3 and degree <= 12
        prof = REFERENCE_PROFILES[name]
        for d in range(13):
            for mu in dual_basis(prof, d):
                for rank in (1, 2, 3):
                    for degree in range(13):
                        for source in degree_basis(rank, degree):
                            assert expand_action(mu, source) == submask_expand(mu, source), (mu, source)

    @settings(max_examples=300, deadline=None)
    @given(milnor_monomials(), st.tuples(*[st.integers(0, 12)] * 4))
    def test_matches_submask_enumeration_rank4(self, mu, source):
        assert expand_action(mu, source) == submask_expand(mu, source)


class TestActionMatrix:
    # action_matrix is the coaction walk (expand_action), the reference;
    # right_action on a Pst and _pst_rows run the forward rule, and each
    # comparison sets one side against the other

    @settings(max_examples=30, deadline=None)
    @given(helements(max_rank=3, max_degree=8), st.integers(0, 2), st.integers(1, 2))
    def test_agrees_with_right_action(self, x, s, t):
        op = Pst(s, t)
        m = action_matrix(op.dual, x.rank, x.degree)
        got = reference_mul_vec(m.rows, x.to_coords())
        assert HElement.from_coords(x.rank, x.degree - op.degree, got) == right_action(x, op)

    @settings(max_examples=20, deadline=None)
    @given(helements(max_rank=2, max_degree=8), st.integers(0, 1), st.integers(1, 2), st.integers(0, 1), st.integers(1, 2))
    def test_composition_order(self, x, s1, t1, s2, t2):
        # right module: (x . P) . Q computed either way
        a, b = Pst(s1, t1), Pst(s2, t2)
        assert right_action(right_action(x, a), b) == HElement.from_coords(
            x.rank,
            x.degree - a.degree - b.degree,
            reference_mul_vec(
                action_matrix(b.dual, x.rank, x.degree - a.degree).rows,
                reference_mul_vec(action_matrix(a.dual, x.rank, x.degree).rows, x.to_coords()),
            ),
        )

    @pytest.mark.parametrize("rank,top", [(2, 32), (3, 20), (4, 14), (5, 12)])
    def test_forward_rule_matches_coaction(self, rank, top):
        # _pst_rows against the coaction matrix's rows and columns on the
        # positive part, which holds every bit of those rows
        for d in range(top + 1):
            full = _basis_index(rank, d)
            cols = [full[f] for f in degree_basis(rank, d, 1)]
            inside = sum(1 << c for c in cols)
            for s in range(5):
                for t in range(1, 4):
                    op = Pst(s, t)
                    if op.degree > d:
                        continue
                    rows = action_matrix(op.dual, rank, d).rows
                    targets = _basis_index(rank, d - op.degree)
                    want = []
                    for e in degree_basis(rank, d - op.degree, 1):
                        row = rows[targets[e]]
                        assert row & ~inside == 0, (op, e)
                        want.append(sum(1 << j for j, c in enumerate(cols) if row >> c & 1))
                    assert _pst_rows(rank, d - op.degree, s, t) == want, (op, d)

    def test_takes_no_pst(self):
        # a P_t^s reaches the coaction walk only as its dual monomial
        with pytest.raises(TypeError):
            action_matrix(Pst(0, 1), 2, 3)

    def test_stays_independent_of_the_forward_rule(self):
        """action_matrix is the oracle the forward rule is checked against,
        so neither it nor any function of bv it reaches may name the
        forward rule's code."""
        forward = {"_pst_rows", "_pst_image", "_row", "_pair_row"}
        seen, todo = set(), ["action_matrix"]
        while todo:
            name = todo.pop()
            seen.add(name)
            for node in ast.walk(ast.parse(inspect.getsource(getattr(bv, name)))):
                if isinstance(node, ast.Name) and node.id not in seen:
                    assert node.id not in forward, (name, node.id)
                    func = inspect.unwrap(getattr(bv, node.id, None))
                    if inspect.isfunction(func) and func.__module__ == bv.__name__:
                        todo.append(node.id)
        assert {"expand_action", "degree_basis", "terms_to_coords"} <= seen

    @settings(max_examples=60, deadline=None)
    @given(helements(max_rank=4, max_degree=14), st.integers(0, 3), st.integers(1, 3))
    def test_forward_right_action_matches_coaction(self, x, s, t):
        op = Pst(s, t)
        assert right_action(x, op) == right_action(x, op.dual)


class TestAnnihilated:
    @pytest.mark.parametrize("name", ["full", "E2", "D"])
    def test_kernel_matches_stacked_reference(self, name):
        prof = {"full": Profile.full(), "E2": Profile.E(2), "D": Profile.D()}[name]
        cells = [(4, 14), (4, 17)] + [(3, d) for d in range(21)]
        for rank, d in cells:
            rows = [r for op in generators(prof, d) for r in action_matrix(op.dual, rank, d).rows]
            want = reference_kernel(rows, basis_dim(rank, d))
            assert annihilated_subspace(prof, rank, d).basis == tuple(want)

    def test_rank1_full(self):
        # only b_{2^j - 1} survives everything
        for d in range(1, 36):
            dim = annihilated_subspace(Profile.full(), 1, d).dim
            assert dim == (1 if (d + 1) & d == 0 else 0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 8),
        st.sampled_from(["full", "E1", "E2", "D"]),
        st.integers(1, 2),
    )
    def test_generators_suffice(self, d, name, rank):
        prof = {
            "full": Profile.full(),
            "E1": Profile.E(1),
            "E2": Profile.E(2),
            "D": Profile.D(),
        }[name]
        fast = annihilated_subspace(prof, rank, d)
        slow = annihilated_subspace(prof, rank, d, exhaustive=True)
        assert fast == slow

    def test_e2_degree11_rank2(self):
        # spanned by b(0)(11), b(11)(0), b, tau b
        sub = annihilated_subspace(Profile.E(2), 2, 11)
        assert sub.dim == 4
        b = HElement(
            2, 11, frozenset({(6, 5), (3, 8), (9, 2), (10, 1), (7, 4)})
        )
        assert sub.contains(b.to_coords())
        assert sub.contains(HElement.b(11, 0).to_coords())
        assert sub.contains(HElement.b(0, 11).to_coords())

    def test_concatenation_closure(self):
        # H(BV_n) (x) H(BV_m) -> H(BV_{n+m}) by slot concatenation; the
        # Cartan coproduct makes the product of annihilated elements
        # annihilated again
        for prof in (Profile.full(), Profile.E(2), Profile.D()):
            for d1 in range(1, 8):
                left = annihilated_subspace(prof, 1, d1)
                if left.dim == 0:
                    continue
                for d2 in range(1, 9):
                    right = annihilated_subspace(prof, 2, d2)
                    target = annihilated_subspace(prof, 3, d1 + d2)
                    for v in left.basis:
                        x = HElement.from_coords(1, d1, v)
                        for w in right.basis:
                            y = HElement.from_coords(2, d2, w)
                            xy = HElement(
                                3,
                                d1 + d2,
                                frozenset(
                                    i + j for i in x.terms for j in y.terms
                                ),
                            )
                            assert target.contains(xy.to_coords())


def direct_annihilated(profile, rank, degree):
    """The route without reductions: every generator's kernel, from all of
    H_degree."""
    ops = generators(profile, degree)
    shapes = [basis_dim(rank, degree - op.degree) for op in ops]
    return common_kernel(shapes, lambda k: action_matrix(ops[k].dual, rank, degree).rows, basis_dim(rank, degree))


def positive_rows(op, rank, degree):
    """Rows of op on the positive part of H_degree, target by source, from
    right_action term by term; a target outside the positive part would
    have no index."""
    target = _basis_index(rank, degree - op.degree, 1)
    rows = [0] * basis_dim(rank, degree - op.degree, 1)
    for j, f in enumerate(degree_basis(rank, degree, 1)):
        for e in right_action(HElement.b(*f), op).terms:
            rows[target[e]] |= 1 << j
    return rows


PROFILES = {
    "A": Profile.full(),
    "E1": Profile.E(1),
    "E2": Profile.E(2),
    "E3": Profile.E(3),
    "D": Profile.D(),
}

# the rank-1 cross-check adds the witness meets and the zero profile,
# whose algebra is F2 alone
RANK1_PROFILES = dict(
    PROFILES,
    E4=Profile.E(4),
    E5=Profile.E(5),
    D2=Profile.D(2),
    E2_E1=Profile.E(2).meet(Profile.E(1)),
    E2_E3=Profile.E(2).meet(Profile.E(3)),
    zero=Profile((), "const", 0),
)


class TestSummands:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=5), st.integers(0, 4), st.integers(1, 4))
    def test_pst_keeps_support(self, f, s, t):
        f = tuple(f)
        for e in _pst_image(f, s, t):
            assert [x > 0 for x in e] == [x > 0 for x in f]

    @pytest.mark.parametrize(
        "name, rank, top",
        [pytest.param(name, 1, 40, id=f"r1-{name}") for name in sorted(RANK1_PROFILES)]
        + [
            pytest.param(name, rank, top, id=f"r{rank}-{name}")
            for rank, top in [(2, 24), (3, 18), (4, 14)]
            for name in sorted(PROFILES)
        ],
    )
    def test_matches_exhaustive(self, name, rank, top):
        prof = RANK1_PROFILES[name]
        for d in range(top + 1):
            assert annihilated_subspace(prof, rank, d) == annihilated_subspace(prof, rank, d, exhaustive=True), d
        if rank == 1:
            # decided by the forward rule alone, so also checked against
            # every generator's kernel far past the oracle's reach
            for d in range(top + 1, 601):
                assert annihilated_subspace(prof, 1, d) == direct_annihilated(prof, 1, d), d

    def test_unstable_pst_act_as_zero(self):
        # P_t^s has excess 2^s, above the target degree when 2^(s+t) > d
        count = 0
        for rank in range(1, 5):
            for d in range(1, {1: 64, 2: 40, 3: 24, 4: 16}[rank]):
                for t in range(1, d.bit_length() + 1):
                    for s in range(d.bit_length()):
                        op = Pst(s, t)
                        if op.degree <= d < 1 << (s + t):
                            assert not any(action_matrix(op.dual, rank, d).rows), (op, rank, d)
                            count += 1
        assert count > 100


class TestReductions:
    # (rank, largest degree) with positive dimension at most 1,001
    SQ1_CELLS = {1: 60, 2: 40, 3: 24, 4: 16, 5: 15}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_morse_basis_spans_ker_sq1(self, data):
        # on the positive part, the summand the default route starts from
        rank = data.draw(st.integers(1, 5), label="rank")
        d = data.draw(st.integers(1, self.SQ1_CELLS[rank]), label="degree")
        dim = basis_dim(rank, d, 1)
        vecs = _sq1_kernel(rank, d)
        assert all(0 < v.bit_count() <= rank for v in vecs)
        span = GF2Subspace(dim, vecs)
        assert span.dim == len(vecs)  # independent
        want = reference_kernel(positive_rows(Pst(0, 1), rank, d), dim)
        assert span.basis == tuple(want)

    @pytest.mark.parametrize(
        "rank, degrees",
        [(1, range(201)), (2, range(61)), (3, range(31)), (4, range(29))],
        ids=["r1", "r2", "r3", "r4"],
    )
    def test_reduced_matches_direct(self, rank, degrees):
        # r4 d27 is the Wood cell (mu = 5); r4 d20, d24 and d28 are Kameko cells
        full = Profile.full()
        for d in degrees:
            reduced = annihilated_subspace(full, rank, d)
            direct = direct_annihilated(full, rank, d)
            assert reduced == direct, d
            assert coinvariant_quotient(reduced, rank, d).dim == coinvariant_quotient(direct, rank, d).dim

    def test_reductions_skip_matrices(self, monkeypatch):
        import steenrod_transfer.bv as bv

        full = Profile.full()
        calls = []
        rows = bv._pst_rows

        def record(rank, degree, s, t):
            op = Pst(s, t)
            calls.append((op, degree + op.degree))
            return rows(rank, degree, s, t)

        monkeypatch.setattr(bv, "_pst_rows", record)
        # Wood: mu(27) = 5 is above every summand's rank, so no rows at all
        assert annihilated_subspace(full, 4, 27).dim == 0
        assert calls == []
        # Kameko: 20 = 2 * 8 + 4 with mu(20) = 4, so only degree-8 rows
        annihilated_subspace(full, 4, 20)
        assert {d for _, d in calls} == {8}
        # ker Sq^1 is in closed form: its rows are never built
        calls.clear()
        for prof in (full, Profile.E(1), Profile.D()):
            annihilated_subspace(prof, 3, 11)
        assert calls and Pst(0, 1) not in {op for op, _ in calls}

    def test_rank1_builds_no_rows(self, monkeypatch):
        # at rank 1 the positive part is b_d alone, which the forward rule
        # decides without any generator's rows
        import steenrod_transfer.bv as bv

        calls = []
        rows = bv._pst_rows

        def record(*args):
            calls.append(args)
            return rows(*args)

        monkeypatch.setattr(bv, "_pst_rows", record)
        for prof in (Profile.E(1), Profile.E(2), Profile.E(3), Profile.D()):
            for d in range(1, 130):
                annihilated_subspace(prof, 1, d)
        assert calls == []


class TestKappaRho:
    @given(st.integers(0, 10**6))
    def test_reconstruction(self, k):
        kappa, rho = kappa_rho(k)
        assert rho >= 1
        assert k + 1 == (1 << kappa) * (2 * rho - 1)

    def test_values(self):
        assert kappa_rho(0) == (0, 1)
        assert kappa_rho(7) == (3, 1)
        assert kappa_rho(11) == (2, 2)


class TestKameko:
    def test_exponents(self):
        assert kameko_sq0(HElement.b(3)) == HElement.b(7)
        assert kameko_sq0(HElement.b(1, 0)) == HElement.b(3, 1)

    @settings(max_examples=30, deadline=None)
    @given(helements(max_rank=2, max_degree=7), st.integers(1, 3), st.integers(0, 2))
    def test_commutation_rule(self, z, t, s):
        # (Sq0 z) P_t^0 = 0 and (Sq0 z) P_t^s = Sq0 (z P_t^{s-1})
        lifted = kameko_sq0(z)
        if s == 0:
            assert right_action(lifted, Pst(0, t)).is_zero()
        else:
            assert right_action(lifted, Pst(s, t)) == kameko_sq0(
                right_action(z, Pst(s - 1, t))
            )


class TestGL:
    def test_swap_permutes(self):
        g = swap_matrix(2, 0, 1)
        assert gl_act(g, HElement.b(3, 5)) == HElement.b(5, 3)

    def test_identity(self):
        x = HElement.b(3, 5) ^ HElement.b(8, 0)
        assert gl_act(((1, 0), (0, 1)), x) == x

    def test_transvection_divided_power(self):
        # gamma_k(a1 + a2) spreads over all b(p)(q) with p + q = k
        g = transvection(2, 0, 1)
        got = gl_act(g, HElement.b(0, 11))
        assert got.terms == {(p, 11 - p) for p in range(12)}

    def test_divided_power_collision(self):
        # a1^(9) gamma_2(a1+a2): the a1^(9) a1^(1) a2^(1) term dies since
        # binom(10, 1) is even, leaving binom(11, 2) b(11)(0) + b(9)(2)
        g = transvection(2, 0, 1)
        got = gl_act(g, HElement.b(9, 2))
        assert got.terms == {(11, 0), (9, 2)}

    def test_sigma_on_b9b2(self):
        # order-3 element: a1 -> a1 + a2, a2 -> a1
        sigma = ((1, 1), (1, 0))
        got = gl_act(sigma, HElement.b(9, 2))
        assert got.terms == {(a, 11 - a) for a in (2, 3, 6, 7, 10, 11)}

    def test_sigma_on_b11b0(self):
        sigma = ((1, 1), (1, 0))
        got = gl_act(sigma, HElement.b(11, 0))
        assert got.terms == {(a, 11 - a) for a in range(12)}

    @pytest.mark.parametrize("n,order", [(2, 6), (3, 168), (4, 20160)])
    def test_two_generators_generate(self, n, order):
        # closure of the identity under left multiplication by the
        # generators; |GL(n, 2)| = prod (2^n - 2^i)
        assert order == math.prod((1 << n) - (1 << i) for i in range(n))
        gens = gl_generators(n)
        assert len(gens) == 2

        def mul(g, h):
            return tuple(
                tuple(sum(g[i][k] * h[k][j] for k in range(n)) % 2 for j in range(n))
                for i in range(n)
            )

        seen = {tuple(tuple(int(i == j) for j in range(n)) for i in range(n))}
        frontier = list(seen)
        while frontier:
            frontier = [y for y in {mul(g, x) for x in frontier for g in gens} if y not in seen]
            seen.update(frontier)
        assert len(seen) == order

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_closed_forms_match_substitution(self, rank):
        # coinvariant_quotient's images of each basis monomial, against
        # the divided power substitution on the same matrices
        cycle, shear = gl_generators(rank)
        swap = swap_matrix(rank, 0, 1)
        for d in range(13):
            idx = _basis_index(rank, d)
            for term in degree_basis(rank, d):
                b = HElement(rank, d, {term})
                assert _rotate(term, idx) == gl_act(cycle, b).to_coords()
                assert _shear(term, idx) == gl_act(shear, b).to_coords()
                assert _swap(term, idx) == gl_act(swap, b).to_coords()

    def test_cycle_rotates(self):
        cycle, _ = gl_generators(3)
        assert gl_act(cycle, HElement.b(1, 2, 4)) == HElement.b(4, 1, 2)
        assert gl_generators(2) == (swap_matrix(2, 0, 1), transvection(2, 0, 1))
        assert gl_generators(1) == ()

    @settings(max_examples=25, deadline=None)
    @given(helements(max_rank=2, max_degree=8), st.data())
    def test_group_law(self, x, data):
        gens = gl_generators(x.rank)
        if not gens:
            return
        g = data.draw(st.sampled_from(gens))
        h = data.draw(st.sampled_from(gens))
        n = x.rank
        gh = tuple(
            tuple(sum(g[i][k] * h[k][j] for k in range(n)) % 2 for j in range(n))
            for i in range(n)
        )
        assert gl_act(g, gl_act(h, x)) == gl_act(gh, x)

    @settings(max_examples=25, deadline=None)
    @given(helements(max_rank=2, max_degree=8), st.integers(0, 1), st.integers(1, 2), st.data())
    def test_commutes_with_steenrod(self, x, s, t, data):
        gens = gl_generators(x.rank)
        if not gens:
            return
        g = data.draw(st.sampled_from(gens))
        op = Pst(s, t)
        assert gl_act(g, right_action(x, op)) == right_action(gl_act(g, x), op)


class TestMapBits:
    def test_images_each_bit_met_once(self):
        calls = []

        def image(i):
            calls.append(i)
            return 0b11 << i

        vectors = [0b1011, 0b0011, 0, 0b1000, 0b1010]
        got = _map_bits(vectors, image)
        # bit 2 is in no vector, and bits 0, 1 and 3 are in several
        assert sorted(calls) == [0, 1, 3]
        assert got == [image_of(v, [0b11 << i for i in range(4)]) for v in vectors]


class TestCoinvariants:
    def test_natural_module_dies(self):
        space = GF2Subspace(2, [0b01, 0b10])
        pres = coinvariant_quotient(space, 2, 1)
        assert pres.dim == 0
        assert pres.is_zero_class(HElement.b(1, 0))

    def test_rank1_trivial_group(self):
        space = GF2Subspace(1, [1])
        pres = coinvariant_quotient(space, 1, 5)
        assert pres.dim == 1

    def test_not_stable_raises(self):
        # the line through b(2)(0) is not GL-stable
        space = GF2Subspace(basis_dim(2, 2), [1 << 0])
        with pytest.raises(ValueError):
            coinvariant_quotient(space, 2, 2)

    @pytest.mark.parametrize(
        "profile, rank, degrees",
        [(Profile.full(), 4, range(18, 25)), (Profile.E(2), 3, range(1, 21))],
        ids=["A-r4", "E2-r3"],
    )
    def test_matches_reference(self, profile, rank, degrees):
        for d in degrees:
            space = annihilated_subspace(profile, rank, d)
            pres = coinvariant_quotient(space, rank, d)
            want = reference_coinvariants(space, rank, d, four_generators(rank))
            assert (pres.relations, pres.reps) == want

    def test_class_arithmetic(self):
        sub = annihilated_subspace(Profile.E(2), 2, 11)
        pres = coinvariant_quotient(sub, 2, 11)
        x = HElement.b(11, 0)
        y = HElement.b(0, 11)
        # swap identifies the two spikes
        assert pres.same_class(x, y)
        assert pres.is_zero_class(x ^ y)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_classes_match_reference(self, data):
        # the relations of reference_coinvariants, built through gl_act,
        # decide both tests; y is x plus a relation half of the time, so
        # that same_class holds as often as not
        profile, rank, degree = data.draw(st.sampled_from(COINVARIANT_CELLS))
        pres, relations = _coinvariant_cell(profile, rank, degree)
        space = pres.space

        def combination(basis):
            picks = data.draw(st.integers(0, (1 << len(basis)) - 1))
            return image_of(picks, basis)

        x = combination(space.basis)
        y = x ^ combination(relations.basis) if data.draw(st.booleans()) else combination(space.basis)
        hx, hy = (HElement.from_coords(rank, degree, v) for v in (x, y))
        assert pres.same_class(hx, hy) == relations.contains(x ^ y)
        assert pres.is_zero_class(hx) == relations.contains(x)

    @pytest.mark.parametrize("x", [HElement.b(0, 10), HElement.b(0, 0, 11)], ids=["degree", "rank"])
    @pytest.mark.parametrize("method", ["reduce", "is_zero_class", "same_class"])
    def test_element_of_another_cell_raises(self, method, x):
        # its coordinates would otherwise be read as those of the quotient's cell
        pres = coinvariant_quotient(annihilated_subspace(Profile.E(2), 2, 11), 2, 11)
        args = (HElement.b(11, 0), x) if method == "same_class" else (x,)
        with pytest.raises(ValueError, match=re.escape(f"{(x.rank, x.degree)} in the quotient of (2, 11)")):
            getattr(pres, method)(*args)
