"""The public data types behave as immutable values: compared, hashed, shown,
copied and pickled by their fields, with pinned constructor signatures."""

import copy
import inspect
import pickle

import pytest

from topictree.ingest import ValidationIssue, ValidationReport
from topictree.layout import CanvasSpec
from topictree.model import (
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    _Value,
)


def _profile():
    return TemporalTopicProfile(
        (TopicRecord("t0", 0, 0.5, 2000, ("a", "b"), label="L"), TopicRecord("t1", 1, 0.25, 2001, ("c",)))
    )


def _tet():
    return Tet(_profile(), (TetEdge(-1, 0, 1.0), TetEdge(0, 1, 0.5)), EvolutionParams())


def _report():
    report = ValidationReport()
    report.error(2, "weight", "BadWeight", "not a number")
    report.warning(None, 3, "RowsResorted", "re-sorted")
    return report


#: name -> (factory of equal values, factory of a value that differs in one field)
VALUES = {
    "TopicRecord": (
        lambda: TopicRecord("t0", 0, 0.5, 2000, ("a", "b"), label="L"),
        lambda: TopicRecord("t0", 0, 0.5, 2000, ("a", "b")),
    ),
    "TemporalTopicProfile": (_profile, lambda: TemporalTopicProfile(_profile().topics[:1])),
    "TesMatrix": (lambda: TesMatrix(((), ((0, 0.5),))), lambda: TesMatrix(((), ((0, 0.75),)))),
    "EvolutionParams": (EvolutionParams, lambda: EvolutionParams(min_dead=3)),
    "TetEdge": (lambda: TetEdge(0, 1, 0.5), lambda: TetEdge(0, 2, 0.5)),
    "Tet": (_tet, lambda: Tet(_profile(), (TetEdge(-1, 0, 1.0), TetEdge(-1, 1, 1.0)), EvolutionParams())),
    "ValidationIssue": (
        lambda: ValidationIssue(2, "weight", "BadWeight", "not a number"),
        lambda: ValidationIssue(3, "weight", "BadWeight", "not a number"),
    ),
    "ValidationReport": (_report, ValidationReport),
    "CanvasSpec": (CanvasSpec, lambda: CanvasSpec(width=800.0)),
}

# Pinned from the dataclass-based types these replaced.
REPRS = {
    "TopicRecord": "TopicRecord(id='t0', index=0, weight=0.5, year=2000, words=('a', 'b'), label='L')",
    "TemporalTopicProfile": (
        "TemporalTopicProfile(topics=(TopicRecord(id='t0', index=0, weight=0.5, year=2000, "
        "words=('a', 'b'), label='L'), TopicRecord(id='t1', index=1, weight=0.25, year=2001, "
        "words=('c',), label=None)))"
    ),
    "TesMatrix": "TesMatrix(columns=((), ((0, 0.5),)))",
    "EvolutionParams": (
        "EvolutionParams(min_tes=0.2, min_reborn=2, min_dead=1, "
        "threshold_mode=<ThresholdMode.INCLUSIVE: 'inclusive'>)"
    ),
    "TetEdge": "TetEdge(from_index=0, to_index=1, tes=0.5)",
    "Tet": (
        "Tet(profile=TemporalTopicProfile(topics=(TopicRecord(id='t0', index=0, weight=0.5, "
        "year=2000, words=('a', 'b'), label='L'), TopicRecord(id='t1', index=1, weight=0.25, "
        "year=2001, words=('c',), label=None))), edges=(TetEdge(from_index=-1, to_index=0, tes=1.0), "
        "TetEdge(from_index=0, to_index=1, tes=0.5)), params=EvolutionParams(min_tes=0.2, "
        "min_reborn=2, min_dead=1, threshold_mode=<ThresholdMode.INCLUSIVE: 'inclusive'>))"
    ),
    "ValidationIssue": "ValidationIssue(row=2, column='weight', code='BadWeight', message='not a number')",
    "ValidationReport": (
        "ValidationReport(errors=[ValidationIssue(row=2, column='weight', code='BadWeight', "
        "message='not a number')], warnings=[ValidationIssue(row=None, column=3, "
        "code='RowsResorted', message='re-sorted')])"
    ),
    "CanvasSpec": "CanvasSpec(width=1000.0, height=600.0)",
}

_NO_DEFAULT = inspect.Parameter.empty

# Constructor parameters in order, with their defaults.
SIGNATURES = {
    "TopicRecord": [
        ("id", _NO_DEFAULT), ("index", _NO_DEFAULT), ("weight", _NO_DEFAULT),
        ("year", _NO_DEFAULT), ("words", _NO_DEFAULT), ("label", None),
    ],
    "TemporalTopicProfile": [("topics", _NO_DEFAULT)],
    "TesMatrix": [("columns", _NO_DEFAULT)],
    "EvolutionParams": [
        ("min_tes", 0.2), ("min_reborn", 2), ("min_dead", 1), ("threshold_mode", ThresholdMode.INCLUSIVE),
    ],
    "TetEdge": [("from_index", _NO_DEFAULT), ("to_index", _NO_DEFAULT), ("tes", _NO_DEFAULT)],
    "Tet": [("profile", _NO_DEFAULT), ("edges", _NO_DEFAULT), ("params", _NO_DEFAULT)],
    "ValidationIssue": [
        ("row", _NO_DEFAULT), ("column", _NO_DEFAULT), ("code", _NO_DEFAULT), ("message", _NO_DEFAULT),
    ],
    "CanvasSpec": [("width", 1000.0), ("height", 600.0)],
}

#: The one mutable type; its lists fill as a parse finds issues.
MUTABLE = {"ValidationReport"}
#: Types that hold a list or dict, so they cannot be hashed.
UNHASHABLE = {"ValidationReport"}
#: Types held once per topic or edge, stored in slots without a per-instance dict.
SLOTTED = {"TetEdge", "TopicRecord"}

NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_make_equal_values(name):
    make, make_other = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != make_other() and not a == make_other()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_never_equal_to_another_class(name):
    value = VALUES[name][0]()
    subclass = type("Sub", (type(value),), {})
    names = list(inspect.signature(type(value)).parameters)
    fields = tuple(getattr(value, field) for field in names)
    others = [fields, dict(zip(names, fields)), object(), subclass(*fields)]
    others += [VALUES[other][0]() for other in NAMES if other != name]
    for other in others:
        assert value != other and other != value
        assert not value == other and not other == value


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(VALUES[name][0]()) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_read_only(name):
    value = VALUES[name][0]()
    field = next(iter(inspect.signature(type(value)).parameters))
    if name in SLOTTED:
        assert not hasattr(value, "__dict__")
    if name in MUTABLE:
        setattr(value, field, [])
        assert getattr(value, field) == []
        return
    before = getattr(value, field)
    for attempt in (lambda: setattr(value, field, before), lambda: delattr(value, field)):
        with pytest.raises(AttributeError):
            attempt()
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
def test_copies_and_pickles_are_equal(name, duplicate):
    value = VALUES[name][0]()
    twin = duplicate(value)
    assert twin == value and type(twin) is type(value)
    assert repr(twin) == repr(value)


def test_slots_must_be_the_fields():
    with pytest.raises(TypeError, match="__slots__ must be its fields"):

        class Swapped(_Value):
            __slots__ = ("b", "a")

            def __init__(self, a, b):
                self._store(a, b)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_constructor_signature_is_pinned(name):
    cls = type(VALUES[name][0]())
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]


def test_report_defaults_to_fresh_empty_lists():
    assert list(inspect.signature(ValidationReport).parameters) == ["errors", "warnings"]
    a, b = ValidationReport(), ValidationReport()
    assert a.errors == a.warnings == [] and a == b
    a.error(1, None, "BadCsv", "x")
    assert b.errors == [] and a != b
    issue, other = ValidationIssue(1, None, "BadCsv", "x"), ValidationIssue(None, 2, "RowsResorted", "y")
    assert ValidationReport([issue], [other]).errors == [issue]


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
def test_cached_properties_survive_copies(duplicate):
    tet = _tet()
    cold = duplicate(tet)
    states = tet.states
    years = tet.profile.distinct_years
    warm = duplicate(tet)
    for twin in (cold, warm):
        assert twin.states == states
        assert twin.profile.distinct_years == years == (2000, 2001)
        assert twin.parents_of(1) == (0,)
        assert twin == tet == _tet()
    # a cached value is not a field: it shows in neither equality nor repr
    assert repr(warm) == REPRS["Tet"]
