import pickle

import pytest

from steenrod_transfer.bv import HElement, annihilated_subspace, coinvariant_quotient
from steenrod_transfer.checks import CheckResult, CriterionReport
from steenrod_transfer.hit import PolyElement
from steenrod_transfer.milnor import Profile
from steenrod_transfer.transfer import transfer_chain


def test_equal_only_within_a_class():
    # same field values, different classes
    h, p = HElement.b(1, 2), PolyElement.x(1, 2)
    assert (h.rank, h.degree, h.terms) == (p.rank, p.degree, p.terms)
    assert h != p and not h == p
    assert h == HElement.b(1, 2) and hash(h) == hash(HElement.b(1, 2))
    assert p == PolyElement.x(1, 2) and hash(p) == hash(PolyElement.x(1, 2))
    assert Profile.E(2) == Profile((0,), "const", 2) != Profile.E(3)
    assert hash(Profile.E(2)) == hash(Profile((0,), "const", 2))
    assert transfer_chain(h) == transfer_chain(HElement.b(1, 2))


def test_elements_check_outside_terms():
    # elements the library computes skip the checks; those built from
    # given terms or exponents do not
    with pytest.raises(ValueError):
        HElement.b(2, -1)
    with pytest.raises(ValueError):
        HElement(2, 3, {(1, 1)})
    with pytest.raises(ValueError):
        PolyElement(2, 3, {(3,)})
    assert HElement.from_coords(2, 3, 0b1010) == HElement(2, 3, {(1, 2), (3, 0)})


def test_profile_stays_normalized():
    assert Profile.E(2)._replace(heads=(0, 2)) == Profile.E(2)
    with pytest.raises(ValueError):
        Profile.E(2)._replace(tail="diag")


def test_immutable():
    for obj, name in ((HElement.b(3), "terms"), (PolyElement.x(3), "rank"), (Profile.full(), "tail")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_repr():
    assert repr(CheckResult("a", True)) == "CheckResult(name='a', passed=True, detail='')"
    assert repr(Profile.full()) == "Profile(heads=(), tail='const', tail_value=None)"
    assert repr(HElement.b(1, 2)) == "HElement(rank=2, degree=3, terms=frozenset({(1, 2)}))"


def _records():
    check = CheckResult("a", True, "x")
    space = annihilated_subspace(Profile.E(2), 2, 11)
    return [
        HElement.b(1, 2),
        PolyElement.x(1, 2),
        Profile.E(2),
        Profile((2,), "diag"),
        coinvariant_quotient(space, 2, 11),
        transfer_chain(HElement.b(1, 2)),
        check,
        CriterionReport("c", False, 0.25, (check, CheckResult("b", False))),
    ]


def test_hash_is_the_hash_of_the_fields():
    # set iteration orders, and so every printed output, rest on these hashes
    for obj in _records():
        assert hash(obj) == hash(tuple(getattr(obj, name) for name in type(obj)._fields))


def test_graded_elements_are_not_sequences():
    # a tuple's +, *, len and in would give wrong answers on a GF(2) vector
    for obj in (HElement.b(1, 2), PolyElement.x(1, 2)):
        with pytest.raises(TypeError):
            obj + obj
        with pytest.raises(TypeError):
            obj * 2
        with pytest.raises(TypeError):
            2 * obj
        with pytest.raises(TypeError):
            len(obj)
        with pytest.raises(TypeError):
            (1, 2) in obj


def test_pickle_roundtrip():
    # a forked worker of the CLI sends its results back pickled
    for obj in _records():
        loaded = pickle.loads(pickle.dumps(obj))
        assert type(loaded) is type(obj)
        assert loaded == obj and hash(loaded) == hash(obj)
        assert repr(loaded) == repr(obj)
        with pytest.raises(AttributeError):
            setattr(loaded, type(obj)._fields[0], None)
        with pytest.raises(AttributeError):
            loaded.extra = 1
