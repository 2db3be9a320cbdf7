"""The value classes' construction, equality, hashing, immutability and repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    CircleModule,
    Diagram,
    GridModule,
    GridMorphism,
    InvariantMatching,
    LineInterval,
    LineModule,
    OrbitPair,
    PartialMatching,
    PlanePoint,
    QuotientDiagram,
    QuotientPoint,
)
from circlepers.gf2 import Matrix

F = Fraction

ONE = Matrix((1,), 1)
HALF = (QuotientPoint(F(0), F(1, 2)),)

# class -> (its fields in constructor order, each set to a value the
# constructor stores unchanged; how many fields have no default; a class
# with the same fields whose objects must never equal these)
CASES = {
    Matrix: ({"rows": (1, 2), "cols": 2}, 2, None),
    GridModule: ({"resolution": 2, "dims": (1, 1), "steps": (ONE, Matrix((0,), 1))}, 3, None),
    GridMorphism: ({"shift": 1, "maps": (ONE, ONE)}, 2, None),
    LineInterval: ({"lo": F(0), "hi": F(1, 2), "lo_kind": CLOSED, "hi_kind": OPEN}, 2, CircleInterval),
    CircleInterval: ({"lo": F(1, 4), "hi": F(3, 2), "lo_kind": OPEN, "hi_kind": CLOSED}, 4, LineInterval),
    LineModule: ({"intervals": ()}, 0, CircleModule),
    CircleModule: ({"intervals": (CircleInterval(F(0), F(1, 2)),)}, 1, None),
    OrbitPair: ({"a": 0, "b": 1, "shift": -2}, 3, None),
    InvariantMatching: ({"classes_a": HALF, "classes_b": HALF, "orbit_pairs": frozenset()}, 2, None),
    PlanePoint: ({"a": F(1, 4), "b": F(1, 2)}, 2, QuotientPoint),
    Diagram: ({"points": HALF}, 1, QuotientDiagram),
    PartialMatching: (
        {"pairs": frozenset({(0, 1)}), "unmatched_a": frozenset({1}), "unmatched_b": frozenset({0})},
        3,
        None,
    ),
    QuotientPoint: ({"a": F(1, 4), "b": F(1, 2)}, 2, PlanePoint),
    QuotientDiagram: ({"points": ()}, 0, Diagram),
}

IDENTITY_EQUAL = {GridModule, GridMorphism}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    fields, required, twin = CASES[cls]
    values = tuple(fields.values())
    built = [cls(*values), cls(**fields), cls(*values[:required])]
    for value in built:
        assert tuple(getattr(value, name) for name in fields) == values

    value = built[0]
    if cls in IDENTITY_EQUAL:
        assert value == value and value != built[1]
        assert hash(value) == object.__hash__(value)
    else:
        assert built[0] == built[1] == built[2]
        assert hash(built[0]) == hash(built[1]) == hash(built[2])
    if twin is not None:
        assert value != twin(**fields) and twin(**fields) != value

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values

    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"

    for clone in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and repr(clone) == repr(value)
        assert (clone == value) is (cls not in IDENTITY_EQUAL)
