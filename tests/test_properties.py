"""Every public constructor and function either returns or raises `ValueError`,
whatever mix of valid values and wrongly shaped arguments it is given."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import topictree
from topictree import (
    CanvasSpec,
    CsvValidationError,
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    ValidationIssue,
    ValidationReport,
    build_tet,
    parse_profile,
    parse_tes,
    profile_to_csv,
    tes_to_csv,
    tet_from_json,
    to_dot,
    to_json,
    to_svg,
)

PROFILE = TemporalTopicProfile(
    (TopicRecord("t0", 0, 0.5, 2000, ("a",)), TopicRecord("t1", 1, 0.25, 2001, ("b",), label="L"))
)
MATRIX = TesMatrix(((), ((0, 0.5),)))
PARAMS = EvolutionParams()
TET = build_tet(PROFILE, MATRIX, PARAMS)

# On a failure hypothesis imports libcst to suggest a patch, and libcst's import
# warns; as an error under this suite's filter, that warning would abort the
# whole run instead of reporting the failing example.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

# Wrong shapes for any argument: None, str, bytes, bool, float and nested tuples.
WRONG = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.booleans(),
    st.floats(),
    st.recursive(
        st.none() | st.integers(-2, 3) | st.floats(0, 1) | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3).map(tuple),
        max_leaves=6,
    ),
)
NUMBER = st.integers(-3, 3000) | st.floats()
INDEX = st.integers(-2, 3)
WORDS = st.lists(st.text(max_size=3), max_size=3).map(tuple)

# name -> (callable, one strategy of valid values per positional argument)
CALLS = {
    "CanvasSpec": (CanvasSpec, (NUMBER, NUMBER)),
    "CsvValidationError": (CsvValidationError, (st.builds(ValidationReport),)),
    "EmergingState": (EmergingState, (st.sampled_from([s.value for s in EmergingState]),)),
    "EvolutionParams": (EvolutionParams, (NUMBER, INDEX, INDEX, st.sampled_from(ThresholdMode))),
    "EvolvingState": (EvolvingState, (st.sampled_from([s.value for s in EvolvingState]),)),
    "TemporalTopicProfile": (TemporalTopicProfile, (st.just(PROFILE.topics),)),
    "TesMatrix": (TesMatrix, (st.sampled_from([MATRIX.columns, ((),), ((), ())]),)),
    "Tet": (Tet, (st.just(PROFILE), st.just(TET.edges), st.just(PARAMS))),
    "TetEdge": (TetEdge, (INDEX, INDEX, NUMBER)),
    "ThresholdMode": (ThresholdMode, (st.sampled_from([m.value for m in ThresholdMode]),)),
    "TopicRecord": (TopicRecord, (st.text(max_size=3), INDEX, NUMBER, NUMBER, WORDS, st.text(max_size=3))),
    "ValidationIssue": (ValidationIssue, (INDEX, st.text(max_size=3), st.text(max_size=3), st.text(max_size=3))),
    "ValidationReport": (ValidationReport, (st.just([]), st.just([]))),
    "build_tet": (build_tet, (st.just(PROFILE), st.just(MATRIX), st.just(PARAMS))),
    "parse_profile": (parse_profile, (st.just(profile_to_csv(PROFILE)),)),
    "parse_tes": (parse_tes, (st.just(tes_to_csv(MATRIX)), st.just(PROFILE), st.booleans())),
    "profile_to_csv": (profile_to_csv, (st.just(PROFILE),)),
    "tes_to_csv": (tes_to_csv, (st.just(MATRIX),)),
    "tet_from_json": (tet_from_json, (st.just(to_json(TET)),)),
    "to_dot": (to_dot, (st.just(TET), st.booleans())),
    "to_json": (to_json, (st.just(TET),)),
    "to_svg": (to_svg, (st.just(TET), st.builds(CanvasSpec), st.booleans())),
}


def test_every_public_callable_is_covered():
    assert set(CALLS) == {name for name in topictree.__all__ if callable(getattr(topictree, name))}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_returns_or_raises_value_error(name, data):
    function, valid = CALLS[name]
    args = data.draw(st.tuples(*(strategy | WRONG for strategy in valid)))
    try:
        function(*args)
    except ValueError:
        pass
