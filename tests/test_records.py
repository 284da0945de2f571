"""The frozen records behind the value classes (`errors._Record`): they keep
the behaviour of the frozen dataclasses they replaced, so reprs, equality,
hashes and set orders are those callers saw before."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from spinpicard import (
    BIReport,
    BIViolation,
    BoundaryCase,
    ExceptionalProfile,
    Multidegree,
    PicardParams,
    SplitCurveRow,
    SubcurveProfile,
    Vertex,
)

Y = frozenset({"a"})

#: One instance of each record class, by its positional arguments, and its
#: repr, as the frozen dataclasses wrote it.
SAMPLES = {
    "Vertex": (Vertex, ("a", 2, 1), "Vertex(id='a', pa=2, self_nodes=1)"),
    "Multidegree": (
        Multidegree, ((("b", -1), ("a", 3)),), "Multidegree(items=(('a', 3), ('b', -1)))",
    ),
    "SubcurveProfile": (
        SubcurveProfile, (Y, 2, 3, Fraction(7, 2), 5),
        "SubcurveProfile(subcurve=frozenset({'a'}), genus=2, contact=3, "
        "lower=Fraction(7, 2), degree=5)",
    ),
    "BIViolation": (
        BIViolation, (Y, 1, Fraction(3, 2), Fraction(9, 2)),
        "BIViolation(subcurve=frozenset({'a'}), degree=1, lower=Fraction(3, 2), "
        "upper=Fraction(9, 2))",
    ),
    "BIReport": (
        BIReport, (False, (BIViolation(frozenset({"b"}), 0, Fraction(1), Fraction(4)),)),
        "BIReport(satisfied=False, violations=(BIViolation(subcurve=frozenset({'b'}), "
        "degree=0, lower=Fraction(1, 1), upper=Fraction(4, 1)),))",
    ),
    "ExceptionalProfile": (
        ExceptionalProfile, (Y, 1, 1, 0, 0, 2),
        "ExceptionalProfile(subcurve=frozenset({'a'}), components=1, core_components=1, "
        "internal_nodes=0, core_internal_nodes=0, core_contact=2)",
    ),
    "BoundaryCase": (
        BoundaryCase, (Y, 19, Fraction(39, 2), 4, 4, False, False, True, True),
        "BoundaryCase(subcurve=frozenset({'a'}), degree=19, lower=Fraction(39, 2), "
        "contact=4, core_contact=4, at_min=False, at_max=False, "
        "inner_exceptionals_avoid_complement=True, outer_exceptionals_avoid_subcurve=True)",
    ),
    "SplitCurveRow": (
        SplitCurveRow, (3, 10, 2, 1, 19, 23),
        "SplitCurveRow(genus=3, t=10, s=2, sigma=1, d1=19, d2=23)",
    ),
    "PicardParams": (PicardParams, (5, 30), "PicardParams(g=5, d=30)"),
}
NAMES = sorted(SAMPLES)


def _sample(name):
    cls, args, _ = SAMPLES[name]
    return cls(*args)


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__match_args__)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_frozen_dataclass_repr(name):
    assert repr(_sample(name)) == SAMPLES[name][2]


@pytest.mark.parametrize("name", NAMES)
def test_hash_and_equality_are_the_field_tuples(name):
    x, y = _sample(name), _sample(name)
    assert x == y and x is not y
    assert hash(x) == hash(y) == hash(_fields(x))
    # Only instances of one class compare: not the field tuple, nor a subclass.
    assert x != _fields(x) and x.__eq__(_fields(x)) is NotImplemented
    subclass = type("Sub", (type(x),), {})
    assert x != subclass(*SAMPLES[name][1])
    assert type(x).__match_args__ == tuple(vars(x))


@pytest.mark.parametrize("name", NAMES)
def test_init_by_position_keyword_and_default(name):
    cls, args, _ = SAMPLES[name]
    x = cls(*args)
    assert cls(**dict(zip(cls.__match_args__, args))) == x
    assert list(vars(cls(**dict(zip(cls.__match_args__, args))))) == list(cls.__match_args__)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])


def test_defaults_are_those_of_the_dataclasses():
    assert Vertex("a", 2) == Vertex("a", 2, 0) == Vertex(id="a", pa=2)
    assert SubcurveProfile(Y, 2, 3, Fraction(7, 2)).degree is None


@pytest.mark.parametrize("name", NAMES)
def test_fields_refuse_assignment_and_deletion(name):
    x = _sample(name)
    for field in (*type(x).__match_args__, "other"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, field)
    assert repr(x) == SAMPLES[name][2]


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trips(name):
    x = _sample(name)
    if isinstance(x, Multidegree):
        x["a"]  # a cached lookup dict travels with the instance
    copies = [copy.copy(x), copy.deepcopy(x)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(x, protocol)))
    for y in copies:
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert vars(y) == vars(x)
        with pytest.raises(AttributeError):
            setattr(y, type(y).__match_args__[0], None)


def test_match_reads_the_fields_by_position():
    match Vertex("a", 2, 1):
        case Vertex(vid, pa, self_nodes):
            assert (vid, pa, self_nodes) == ("a", 2, 1)
        case _:
            pytest.fail("a vertex matched no vertex pattern")
