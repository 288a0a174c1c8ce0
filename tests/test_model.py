import io
import math
import re

import pytest

from helpers import dense, tes_matrix
from topictree.builder import build_tet
from topictree.ingest import (
    CsvValidationError,
    ValidationIssue,
    ValidationReport,
    parse_profile,
    parse_tes,
    profile_to_csv,
    tes_to_csv,
)
from topictree.layout import CanvasSpec
from topictree.model import (
    ROOT_INDEX,
    EmergingState,
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    ancestor_mask,
)
from topictree.render import tet_from_json, to_dot, to_json, to_svg


def topic(index, year, weight=0.5, **kw):
    kw.setdefault("id", f"t{index}")
    kw.setdefault("words", ("w",))
    return TopicRecord(index=index, year=year, weight=weight, **kw)


def profile_of(*year_list):
    return TemporalTopicProfile(topics=tuple(topic(i, y) for i, y in enumerate(year_list)))


class TestTopicRecord:
    def test_valid(self):
        t = topic(0, 2001, weight=0.75, label="A")
        assert t.display_label == "A"

    def test_label_falls_back_to_id(self):
        assert topic(0, 2001).display_label == "t0"

    @pytest.mark.parametrize("weight", [-0.01, 1.01, 2.0])
    def test_weight_out_of_range(self, weight):
        with pytest.raises(ValueError, match="weight"):
            topic(0, 2001, weight=weight)

    def test_weight_bounds_are_allowed(self):
        topic(0, 2001, weight=0.0)
        topic(0, 2001, weight=1.0)

    def test_empty_words(self):
        with pytest.raises(ValueError, match="words"):
            TopicRecord(id="t0", index=0, weight=0.5, year=2001, words=())

    def test_empty_id(self):
        with pytest.raises(ValueError, match="id"):
            TopicRecord(id="", index=0, weight=0.5, year=2001, words=("w",))


class TestTemporalTopicProfile:
    def test_distinct_years_sorted_and_deduplicated(self):
        p = profile_of(2001, 2001, 2003, 2005)
        assert p.distinct_years == (2001, 2003, 2005)
        assert p.latest_year == 2005

    def test_indices_must_cover_range(self):
        with pytest.raises(ValueError, match="0..1"):
            TemporalTopicProfile(topics=(topic(0, 2001), topic(2, 2002)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="^topic ids must be unique, but id 'x' repeats$"):
            TemporalTopicProfile(topics=(topic(0, 2001, id="x"), topic(1, 2002, id="x")))

    def test_duplicate_indices_rejected(self):
        # checked before the 0..N-1 range, which a repeated index also breaks
        with pytest.raises(ValueError, match=r"^topic indices must be unique, but index 0 repeats$"):
            TemporalTopicProfile(topics=(topic(0, 2001, id="a"), topic(0, 2002, id="b")))

    def test_unsorted_topics_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            TemporalTopicProfile(topics=(topic(0, 2002), topic(1, 2001)))

    def test_year_tie_breaks_by_index(self):
        with pytest.raises(ValueError, match="sorted"):
            TemporalTopicProfile(topics=(topic(1, 2001), topic(0, 2001)))

    @pytest.mark.parametrize(
        "topics,message",
        [
            # of the repeated indices or ids, the one that occurs first
            ((topic(1, 2001), topic(2, 2001), topic(2, 2002, id="b"), topic(1, 2002, id="a")), "index 1 repeats"),
            ((topic(0, 2001, id="y"), topic(1, 2001, id="x"), topic(2, 2002, id="x"), topic(3, 2002, id="y")), "id 'y' repeats"),
            # the lowest missing index
            ((topic(0, 2001), topic(3, 2001), topic(4, 2002), topic(5, 2002), topic(6, 2003)), "but index 1 is missing"),
            # the first topic out of order, not the topic that would sort first
            (
                (topic(0, 2001), topic(2, 2003), topic(1, 2002), topic(3, 2000)),
                "but topic 1 (year 2002) follows topic 2 (year 2003)",
            ),
        ],
    )
    def test_faults_name_the_culprit(self, topics, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            TemporalTopicProfile(topics=topics)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TemporalTopicProfile(topics=())

    def test_position_differs_from_index_when_years_disagree(self):
        p = TemporalTopicProfile(topics=(topic(1, 2000), topic(0, 2005)))
        assert p.position_of(1) == 0
        assert p.position_of(0) == 1
        assert p.topic(0).year == 2005


class TestTesMatrix:
    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="at least one"):
            TesMatrix(columns=())
        assert TesMatrix(columns=((), ())).n == 2  # no listed cell: every TES is 0
        for columns in (
            (((0, 0.5),),),  # position 0 in column 0
            ((), ((1, 0.5),)),  # position == j
            ((), (), ((3, 0.5),)),  # position > j
            ((), (), ((-1, 0.5),)),
            ((), (), ((0.5, 0.5),)),
        ):
            with pytest.raises(ValueError, match="below"):
                TesMatrix(columns=columns)

    def test_positions_strictly_increase(self):
        for column in (((1, 0.5), (1, 0.4)), ((1, 0.5), (0, 0.4))):
            with pytest.raises(ValueError, match="above 1"):
                TesMatrix(columns=((), (), column))
        TesMatrix(columns=((), (), ((0, 0.5), (1, 0.4))))

    def test_range_enforced(self):
        for tes in (1.5, 1.0000001):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                TesMatrix(columns=((), ((0, tes),)))
        TesMatrix(columns=((), ((0, 1.0),)))

    def test_stored_zero_rejected(self):
        # an unlisted cell is the one spelling of 0
        for tes in (0.0, -0.0, -0.5):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                TesMatrix(columns=((), ((0, tes),)))

    def test_odd_types_rejected(self):
        for tes in ("0.5", None, True):
            with pytest.raises(ValueError, match=r"^matrix entry \(0, 1\) must be a number, got "):
                TesMatrix(columns=((), ((0, tes),)))
        with pytest.raises(ValueError, match="position True must be an integer"):
            TesMatrix(columns=((), (), ((True, 0.5),)))
        assert TesMatrix(columns=((), ((0, 1),))).columns[1] == ((0, 1),)  # an int is a number

    def test_columns_accessor(self):
        m = TesMatrix(columns=((), ((0, 0.7),), ((1, 0.4),)))
        assert m.n == 3
        assert m.columns[1] == ((0, 0.7),)
        assert m.columns[2] == ((1, 0.4),)
        assert m == tes_matrix(((), (0.7,), (0.0, 0.4)))
        assert dense(m) == [[], [0.7], [0.0, 0.4]]


class TestEvolutionParams:
    def test_defaults(self):
        p = EvolutionParams()
        assert (p.min_tes, p.min_reborn, p.min_dead) == (0.2, 2, 1)
        assert p.threshold_mode is ThresholdMode.INCLUSIVE

    def test_admits_inclusive_vs_exclusive(self):
        inc = EvolutionParams(min_tes=0.2)
        exc = EvolutionParams(min_tes=0.2, threshold_mode=ThresholdMode.EXCLUSIVE)
        assert inc.admits(0.2) and not exc.admits(0.2)
        assert inc.admits(0.21) and exc.admits(0.21)
        assert not inc.admits(0.19)

    @pytest.mark.parametrize(
        "kw",
        [
            {"min_tes": -0.1},
            {"min_tes": 1.1},
            {"min_reborn": -1},
            {"min_dead": -1},
            {"threshold_mode": "inclusive"},
        ],
    )
    def test_bounds(self, kw):
        with pytest.raises(ValueError):
            EvolutionParams(**kw)


class TestTetEdge:
    def test_root_edge_requires_unit_tes(self):
        with pytest.raises(ValueError, match="root"):
            TetEdge(from_index=ROOT_INDEX, to_index=0, tes=0.5)

    def test_tes_range(self):
        with pytest.raises(ValueError, match="tes"):
            TetEdge(from_index=0, to_index=1, tes=1.2)

    @pytest.mark.parametrize("tes", [1, -0.0])
    def test_tes_stored_as_positive_float(self, tes):
        # as tet_from_json reads it back, so the JSON of the tree round-trips
        stored = TetEdge(from_index=0, to_index=1, tes=tes).tes
        assert type(stored) is float and math.copysign(1.0, stored) == 1.0


# Each integer field takes exactly what tet_from_json reads: an int, not a
# bool or a float, or the tree would write JSON it cannot read back.
_NOT_INTEGERS = [True, 1.0, 1.5, "1"]


class TestIntegerFields:
    @pytest.mark.parametrize("value", _NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["index", "year"])
    def test_topic_record(self, name, value):
        kw = {"id": "t0", "index": 0, "weight": 0.5, "year": 2000, "words": ("w",), name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TopicRecord(**kw)

    @pytest.mark.parametrize("value", _NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["from_index", "to_index"])
    def test_tet_edge(self, name, value):
        kw = {"from_index": 0, "to_index": 1, "tes": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TetEdge(**kw)

    @pytest.mark.parametrize("value", _NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["min_reborn", "min_dead"])
    def test_evolution_params(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EvolutionParams(**{name: value})


class TestNumberFields:
    # Each number field takes an int or a float; a bool or a string is
    # rejected, not compared or stored as 1.0.
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_topic_record_weight(self, value):
        with pytest.raises(ValueError, match="weight must be a number"):
            topic(0, 2001, weight=value)

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_tet_edge_tes(self, value):
        with pytest.raises(ValueError, match="tes must be a number"):
            TetEdge(from_index=0, to_index=1, tes=value)

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_evolution_params_min_tes(self, value):
        with pytest.raises(ValueError, match="min_tes must be a number"):
            EvolutionParams(min_tes=value)

    def test_tet_edge_keeps_a_nonzero_float(self):
        tes = 0.5
        assert TetEdge(from_index=0, to_index=1, tes=tes).tes is tes


class TestTextFields:
    # Ids, labels and words take only what the JSON document writes back as
    # the same value: a str for ids and labels, a list or tuple of str for words.
    def test_words_as_a_bare_string_rejected(self):
        # A str would be written as its characters, ["a", "b", "c"].
        with pytest.raises(ValueError, match="words must be a list of strings"):
            topic(0, 2001, words="abc")

    def test_words_holding_a_number_rejected(self):
        with pytest.raises(ValueError, match="words must be a list of strings"):
            topic(0, 2001, words=("x", 3))

    def test_words_list_stored_as_tuple(self):
        assert topic(0, 2001, words=["a", "b"]).words == ("a", "b")

    def test_integer_id_rejected(self):
        with pytest.raises(ValueError, match="^id must be a string, got 7$"):
            topic(0, 2001, id=7)

    def test_integer_label_rejected(self):
        with pytest.raises(ValueError, match="label must be a string, got 5"):
            topic(0, 2001, label=5)

    def test_falsy_integer_label_rejected(self):
        # 0 once passed as "no XML-breaking character" and crashed to_svg.
        with pytest.raises(ValueError, match="label must be a string, got 0"):
            topic(0, 2001, label=0)

    def test_number_messages_print_the_stored_float(self):
        with pytest.raises(ValueError, match=r"weight must be in \[0, 1\], got 2\.0$"):
            topic(0, 2001, weight=2)


# A constructor's message starts with the faulty field, so that a reader of a
# document can prefix it with the record's path: nodes[3].weight must be ...
FIELD_FIRST = [
    (lambda v: topic(0, 2001, id=v), "id", [7, "", "a\x01"]),
    (lambda v: topic(0, 2001, label=v), "label", [5, "a\x01"]),
    (lambda v: topic(v, 2001), "index", [True, -1]),
    (lambda v: topic(0, v), "year", [2001.0]),
    (lambda v: topic(0, 2001, weight=v), "weight", ["0.5", 2, 10**400]),
    (lambda v: topic(0, 2001, words=v), "words", ["abc", ()]),
    (lambda v: TetEdge(from_index=v, to_index=1, tes=0.5), "from_index", [0.0, -2]),
    (lambda v: TetEdge(from_index=0, to_index=v, tes=0.5), "to_index", ["1", -1]),
    (lambda v: TetEdge(from_index=0, to_index=1, tes=v), "tes", [True, 1.5]),
    (lambda v: TetEdge(from_index=ROOT_INDEX, to_index=1, tes=v), "tes", [0.5]),
    (lambda v: EvolutionParams(min_tes=v), "min_tes", ["0.2", 1.5]),
    (lambda v: EvolutionParams(min_reborn=v), "min_reborn", [1.0, -1]),
    (lambda v: EvolutionParams(min_dead=v), "min_dead", [None, -1]),
    (lambda v: EvolutionParams(threshold_mode=v), "threshold_mode", ["inclusive"]),
    (lambda v: CanvasSpec(width=v), "width", ["1000", math.inf, math.nan, 250]),
    (lambda v: CanvasSpec(height=v), "height", [None, 1e7, -math.inf, 80.0]),
]


@pytest.mark.parametrize("make,field,value", [(make, field, v) for make, field, values in FIELD_FIRST for v in values])
def test_constructor_names_the_faulty_field_first(make, field, value):
    with pytest.raises(ValueError, match=rf"^{field} "):
        make(value)


def make_tet(profile, edge_triples):
    edges = tuple(TetEdge(from_index=a, to_index=b, tes=t) for a, b, t in edge_triples)
    return Tet(profile=profile, edges=edges, params=EvolutionParams())


class TestTet:
    def test_minimal(self):
        p = profile_of(2001, 2002)
        tet = make_tet(p, [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5)])
        assert tet.parents_of(1) == (0,)
        assert not tet.parents_of(0) and tet.parents_of(1)

    def test_edge_must_advance_in_time(self):
        p = profile_of(2001, 2001)
        with pytest.raises(ValueError, match="advance"):
            make_tet(p, [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5)])

    def test_unreachable_node_rejected(self):
        p = profile_of(2001, 2002)
        with pytest.raises(ValueError, match="unreachable"):
            make_tet(p, [(ROOT_INDEX, 0, 1.0)])

    def test_root_edge_and_parent_both_rejected(self):
        p = profile_of(2001, 2002)
        with pytest.raises(ValueError, match="both"):
            make_tet(p, [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 1, 1.0), (0, 1, 0.5)])

    def test_duplicate_edge_rejected(self):
        p = profile_of(2001, 2002)
        with pytest.raises(ValueError, match="duplicate"):
            make_tet(p, [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (0, 1, 0.5)])

    def test_duplicate_root_edge_rejected(self):
        p = profile_of(2001, 2002)
        with pytest.raises(ValueError) as info:
            make_tet(p, [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 0, 1.0), (0, 1, 0.5)])
        assert str(info.value) == "duplicate edge -1->0"

    @pytest.mark.parametrize(
        "edge_triples,message",
        [
            ([(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (0, 1, 0.5), (0, 9, 0.5)], "duplicate edge 0->1"),
            ([(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (0, 9, 0.5), (0, 1, 0.5)], "edge targets unknown topic index 9"),
            ([(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 9, 1.0)], "duplicate edge -1->0"),
            ([(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 9, 1.0), (ROOT_INDEX, 0, 1.0)], "edge targets unknown topic index 9"),
            # A root edge beside parents is found after the edge loop, a
            # repeated root edge inside it, wherever the parent edges stand.
            ([(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (ROOT_INDEX, 1, 1.0)], "topic 1 has both a root edge and parents"),
            ([(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (ROOT_INDEX, 1, 1.0), (0, 9, 0.5)], "edge targets unknown topic index 9"),
            ([(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 1, 1.0), (0, 1, 0.5)], "topic 1 has both a root edge and parents"),
            ([(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 1, 1.0), (0, 1, 0.5), (0, 9, 0.5)], "edge targets unknown topic index 9"),
            ([(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (ROOT_INDEX, 1, 1.0), (ROOT_INDEX, 1, 1.0)], "duplicate edge -1->1"),
        ],
        ids=[
            "duplicate-then-unknown",
            "unknown-then-duplicate",
            "root-duplicate-then-unknown",
            "root-unknown-then-duplicate",
            "root-after-parent",
            "root-after-parent-then-unknown",
            "parent-after-root",
            "parent-after-root-then-unknown",
            "root-duplicate-after-parent",
        ],
    )
    def test_first_faulty_edge_in_edge_order(self, edge_triples, message):
        with pytest.raises(ValueError) as info:
            make_tet(profile_of(2001, 2002), edge_triples)
        assert str(info.value) == message

    def test_wide_fan_in_accepted(self):
        # one topic with 5000 unrelated parents, each attached to the root
        n = 5000
        p = profile_of(*[2001] * n, 2002)
        edges = [(ROOT_INDEX, u, 1.0) for u in range(n)] + [(u, n, 0.5) for u in range(n)]
        tet = make_tet(p, edges)
        assert tet.parents_of(n) == tuple(range(n))
        assert tet.states[n][0] is EmergingState.FUSED

    def test_related_parents_rejected(self):
        # 0 -> 1 -> 2 plus 0 -> 2: parents {0, 1} of 2 lie on one pathway
        p = profile_of(2001, 2002, 2003)
        with pytest.raises(ValueError, match="same pathway"):
            make_tet(p, [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])

    def test_unrelated_parents_accepted(self):
        p = profile_of(2001, 2001, 2002)
        tet = make_tet(
            p, [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 1, 1.0), (0, 2, 0.5), (1, 2, 0.5)]
        )
        assert set(tet.parents_of(2)) == {0, 1}

    def test_latest_year_must_match_profile(self):
        # derived from the profile, so a disagreeing value cannot be passed in
        p = profile_of(2001, 2002)
        edges = (TetEdge(ROOT_INDEX, 0, 1.0), TetEdge(0, 1, 0.5))
        assert make_tet(p, [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5)]).profile.latest_year == 2002
        with pytest.raises(TypeError, match="latest_year"):
            Tet(profile=p, edges=edges, params=EvolutionParams(), latest_year=2003)

    @pytest.mark.parametrize(
        "edge_triples,message",
        [
            ([(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 2, 1.0), (ROOT_INDEX, 4, 1.0)], "topic 1 is unreachable from the root"),
            (
                [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 2, 1.0), (0, 3, 0.5), (0, 4, 0.5), (3, 4, 0.5)],
                "topic 1 is unreachable from the root",
            ),
            (
                [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 2, 1.0), (0, 3, 0.5), (0, 1, 0.5), (3, 1, 0.5), (0, 4, 0.5), (3, 4, 0.5)],
                "parents 0 and 3 of topic 1 lie on the same pathway",
            ),
            (
                [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 2, 1.0), (ROOT_INDEX, 1, 1.0), (0, 1, 0.5), (0, 4, 0.5)],
                "topic 1 has both a root edge and parents",
            ),
            (
                [(ROOT_INDEX, 0, 1.0), (ROOT_INDEX, 2, 1.0), (ROOT_INDEX, 3, 1.0), (0, 3, 0.5), (0, 4, 0.5)],
                "topic 1 is unreachable from the root",
            ),
        ],
        ids=["two-unreachable", "unreachable-and-pathway", "two-pathway-faults", "both-then-unreachable", "unreachable-then-both"],
    )
    def test_first_error_in_ascending_index(self, edge_triples, message):
        # profile order is 0, 2, 3, 1, 4: topic 3 comes before topic 1
        years = (2000, 2002, 2000, 2001, 2003)
        p = TemporalTopicProfile(tuple(sorted((topic(i, y) for i, y in enumerate(years)), key=lambda t: (t.year, t.index))))
        with pytest.raises(ValueError) as info:
            make_tet(p, edge_triples)
        assert str(info.value) == message

    def test_ancestors_of_transitive(self):
        # chain 0 -> 1 -> 3, and 4 fused from the unrelated 1 and 2
        p = profile_of(2001, 2002, 2002, 2003, 2003)
        tet = make_tet(
            p,
            [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (ROOT_INDEX, 2, 1.0), (1, 3, 0.5), (1, 4, 0.5), (2, 4, 0.5)],
        )
        masks = {}
        for t in p.topics:  # profile order visits every parent before its children
            masks[t.index] = ancestor_mask(masks, tet.parents_of(t.index))
        ancestors = {v: {u for u in range(len(p)) if masks[v] >> u & 1} for v in range(len(p))}
        assert all(0 <= mask < 1 << len(p) for mask in masks.values())  # topic bits only
        assert ancestors[1] == {0}  # direct parent; the topic itself is excluded
        assert ancestors[0] == set()  # the root is excluded, and so are descendants
        assert ancestors[2] == set()
        assert ancestors[3] == {0, 1}  # transitive
        assert ancestors[4] == {0, 1, 2}  # union over several parents


_ROOT_ONLY = (TetEdge(ROOT_INDEX, 0, 1.0),)

# Each call passes one argument of the wrong type; the rest are valid.
WRONG_TYPES = {
    "tet-params-none": lambda: Tet(profile_of(2001), _ROOT_ONLY, None),
    "tet-params-str": lambda: Tet(profile_of(2001), _ROOT_ONLY, "junk"),
    "tet-profile-none": lambda: Tet(None, _ROOT_ONLY, EvolutionParams()),
    "tet-edges-none": lambda: Tet(profile_of(2001), None, EvolutionParams()),
    "tet-edge-tuple": lambda: Tet(profile_of(2001), ((ROOT_INDEX, 0, 1.0),), EvolutionParams()),
    "matrix-entry-float": lambda: TesMatrix(((), (0.5,))),
    "matrix-column-int": lambda: TesMatrix(((), 5)),
    "profile-topic-int": lambda: TemporalTopicProfile((1,)),
    "build-params-none": lambda: build_tet(profile_of(2001), TesMatrix(((),)), None),
    "svg-canvas-str": lambda: to_svg(Tet(profile_of(2001), _ROOT_ONLY, EvolutionParams()), "x"),
    "svg-tet-none": lambda: to_svg(None),
    "dot-tet-none": lambda: to_dot(None),
    "json-tet-none": lambda: to_json(None),
    "from-json-none": lambda: tet_from_json(None),
    "profile-csv-none": lambda: profile_to_csv(None),
    "tes-csv-none": lambda: tes_to_csv(None),
    "canvas-width-str": lambda: CanvasSpec("1000"),
    "canvas-width-none": lambda: CanvasSpec(None),
    "parse-profile-none": lambda: parse_profile(None),
    "parse-profile-str": lambda: parse_profile("text"),
    "parse-tes-profile-none": lambda: parse_tes(b"", None),
    "parse-tes-data-str": lambda: parse_tes("", profile_of(2001)),
    "parse-profile-text-stream": lambda: parse_profile(io.StringIO("id,index,weight,year,words\n")),
    "parse-tes-text-stream": lambda: parse_tes(io.StringIO("1\n"), profile_of(2001)),
    "csv-error-report-none": lambda: CsvValidationError(None),
    "report-errors-int": lambda: ValidationReport(errors=5),
    "report-warnings-tuple": lambda: ValidationReport(warnings=()),
    "report-error-none": lambda: ValidationReport(errors=[None]),
    "report-warning-str": lambda: ValidationReport(warnings=["re-sorted"]),
    "csv-error-report-entry-none": lambda: CsvValidationError(ValidationReport(errors=[None])),
    "issue-row-str": lambda: ValidationIssue("2", "weight", "BadWeight", "x"),
    "issue-row-bool": lambda: ValidationIssue(True, "weight", "BadWeight", "x"),
    "issue-column-float": lambda: ValidationIssue(2, 1.5, "BadWeight", "x"),
    "issue-code-none": lambda: ValidationIssue(2, "weight", None, "x"),
    "issue-message-int": lambda: ValidationIssue(2, "weight", "BadWeight", 7),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_wrong_argument_type_raises_value_error(name):
    with pytest.raises(ValueError, match="must be a"):
        WRONG_TYPES[name]()
