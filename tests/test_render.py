import hashlib
import json
import random
import tracemalloc
import xml.etree.ElementTree as ET

import pyparsing
import pytest

from dot_checker import check_dot
from helpers import crowded_instance, odd_tets, random_instance, tes_matrix, tet_from_json_whole, to_json_reference
from topictree.builder import build_tet
from topictree.model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    Tet,
    TetEdge,
    TopicRecord,
)
from topictree.render import tet_from_json, to_dot, to_json, to_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_root(text: str) -> ET.Element:
    return ET.fromstring(text)


def node_groups(root: ET.Element) -> list[ET.Element]:
    return [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "node"]


def edge_paths(root: ET.Element) -> list[ET.Element]:
    return [p for p in root.iter(f"{SVG_NS}path") if p.get("class") == "edge"]


def all_text(root: ET.Element) -> list[str]:
    return [t.text for t in root.iter(f"{SVG_NS}text")]


def tiny_tet(n_topics=3, year=2001):
    # contemporaries only: every topic is born, no visible edges
    topics = tuple(
        TopicRecord(id=f"t{i}", index=i, weight=(i + 1) / (n_topics + 1), year=year, words=("w",))
        for i in range(n_topics)
    )
    profile = TemporalTopicProfile(topics=topics)
    columns = tuple((0.0,) * j for j in range(n_topics))
    return build_tet(profile, tes_matrix(columns), EvolutionParams())


class TestSvg:
    def test_fixture_structure(self, tet_exclusive):
        root = svg_root(to_svg(tet_exclusive))
        assert len(node_groups(root)) == 11
        assert len(edge_paths(root)) == 9
        texts = all_text(root)
        for year in range(2001, 2006):
            assert str(year) in texts
        assert "Evolution states" in texts
        assert "Evolutionary strength" in texts

    def test_inclusive_has_ten_edges(self, tet_inclusive):
        assert len(edge_paths(svg_root(to_svg(tet_inclusive)))) == 10

    def test_edge_ids_stable(self, tet_exclusive):
        root = svg_root(to_svg(tet_exclusive))
        ids = {p.get("id") for p in edge_paths(root)}
        assert "edge-0-5" in ids  # A -> F
        assert "edge-7-10" in ids  # H -> K
        names = {g.get("id") for g in node_groups(root)}
        assert names == {f"node-{i}" for i in range(11)}

    def test_all_born_tet_has_no_edge_paths(self):
        root = svg_root(to_svg(tiny_tet()))
        assert len(node_groups(root)) == 3
        assert edge_paths(root) == []

    def test_show_root_adds_root_glyph_and_edges(self, tet_exclusive):
        shown = svg_root(to_svg(tet_exclusive, show_root=True))
        assert len(edge_paths(shown)) == 9 + 3  # three born topics
        root_groups = [g for g in shown.iter(f"{SVG_NS}g") if g.get("id") == "node-root"]
        assert len(root_groups) == 1

    def test_byte_deterministic(self, tet_exclusive):
        assert to_svg(tet_exclusive) == to_svg(tet_exclusive)

    def test_crowded_trees_pinned(self):
        # The digest pins the SVG bytes of these crowded charts, with and
        # without the root, as written when label boxes were scored as Rects.
        rng = random.Random(3)
        digest = hashlib.sha256()
        for _ in range(3):
            tet = build_tet(*crowded_instance(rng))
            for show_root in (False, True):
                digest.update(to_svg(tet, show_root=show_root).encode())
        assert digest.hexdigest() == "fc42610fe19456f3ca4e1ca5b045aa813974db2fe12c0aee1e480f97be62b975"

    def test_label_text_escaped(self):
        topics = (
            TopicRecord(id="a<b>&c", index=0, weight=0.5, year=2001, words=("w",)),
        )
        profile = TemporalTopicProfile(topics=topics)
        tet = build_tet(profile, tes_matrix(((),)), EvolutionParams())
        root = svg_root(to_svg(tet))  # would raise on ill-formed XML
        assert "a<b>&c" in all_text(root)


class TestDot:
    def test_fixture_parses_and_carries_tes(self, tet_exclusive):
        dot = to_dot(tet_exclusive)
        check_dot(dot)
        assert '"t1" -> "t6" [tes="0.9"];' in dot
        assert '"root"' not in dot

    def test_single_topic(self):
        dot = to_dot(tiny_tet(n_topics=1))
        check_dot(dot)
        assert "->" not in dot

    def test_show_root_includes_root_statements(self, tet_exclusive):
        dot = to_dot(tet_exclusive, show_root=True)
        check_dot(dot)
        assert '"root" -> "t1";' in dot

    def test_states_present_as_attributes(self, tet_exclusive):
        dot = to_dot(tet_exclusive)
        assert 'emerging="reborn"' in dot
        assert 'evolving="dead"' in dot

    def test_quotes_escaped(self):
        topics = (
            TopicRecord(id='say "hi"', index=0, weight=0.5, year=2001, words=("w",)),
        )
        profile = TemporalTopicProfile(topics=topics)
        tet = build_tet(profile, tes_matrix(((),)), EvolutionParams())
        check_dot(to_dot(tet))

    def test_checker_rejects_malformed(self):
        with pytest.raises(pyparsing.ParseBaseException):
            check_dot("digraph { ->")
        with pytest.raises(pyparsing.ParseBaseException):
            check_dot('digraph { "a" - "b"; }')

    def test_byte_deterministic(self, tet_exclusive):
        assert to_dot(tet_exclusive) == to_dot(tet_exclusive)


class TestJson:
    def test_fixture_document(self, tet_exclusive):
        doc = json.loads(to_json(tet_exclusive))
        assert doc["params"] == {
            "min_tes": 0.2,
            "min_reborn": 2,
            "min_dead": 1,
            "threshold_mode": "exclusive",
        }
        assert doc["latest_year"] == 2005
        assert len(doc["nodes"]) == 11
        h = doc["nodes"][7]
        assert (h["label"], h["emerging_state"], h["evolving_state"]) == ("H", "reborn", "split")
        root_edges = [e for e in doc["edges"] if e["from_index"] == -1]
        assert {e["to_index"] for e in root_edges} == {0, 1, 4}

    def test_key_order_fixed(self, tet_exclusive):
        pairs = json.loads(to_json(tet_exclusive), object_pairs_hook=lambda p: p)
        assert [k for k, _ in pairs] == ["params", "latest_year", "nodes", "edges"]
        node_pairs = dict(pairs)["nodes"][0]
        assert [k for k, _ in node_pairs] == [
            "id",
            "index",
            "label",
            "year",
            "weight",
            "words",
            "emerging_state",
            "evolving_state",
        ]

    def test_round_trip_identity(self, tet_exclusive, tet_inclusive):
        for tet in (tet_exclusive, tet_inclusive):
            assert tet_from_json(to_json(tet)) == tet

    def test_integer_tes_round_trips_byte_for_byte(self):
        topics = tuple(TopicRecord(id=f"t{i}", index=i, weight=0.5, year=2001 + i, words=("w",)) for i in range(2))
        edges = (TetEdge(from_index=ROOT_INDEX, to_index=0, tes=1), TetEdge(from_index=0, to_index=1, tes=1))
        tet = Tet(profile=TemporalTopicProfile(topics=topics), edges=edges, params=EvolutionParams())
        text = to_json(tet)
        assert to_json(tet_from_json(text)) == text

    def test_weights_read_back_exactly(self, tet_exclusive):
        doc = tet_from_json(to_json(tet_exclusive))
        assert doc.profile.topic(0).weight == 0.75
        assert doc.profile.topic(5).weight == 0.8
        # plain JSON integers are numbers too, and read back as floats
        raw = json.loads(to_json(tet_exclusive))
        raw["nodes"][0]["weight"] = 1
        raw["edges"][0]["tes"] = 1  # a root edge
        topic = tet_from_json(json.dumps(raw)).profile.topic(0)
        assert topic.weight == 1.0 and type(topic.weight) is float

    def test_byte_deterministic(self, tet_exclusive):
        assert to_json(tet_exclusive) == to_json(tet_exclusive)

    def test_matches_reference_on_random_trees(self):
        rng = random.Random(20261018)
        for _ in range(300):
            tet = build_tet(*random_instance(rng, max_n=30))
            assert to_json(tet) == to_json_reference(tet)

    @pytest.mark.parametrize("tet", odd_tets(), ids=["odd-text-and-numbers", "root-only"])
    def test_matches_reference_on_odd_trees(self, tet):
        assert to_json(tet) == to_json_reference(tet)
        assert tet_from_json(to_json(tet)) == tet

    def test_random_trees_pinned(self):
        # The digest pins the tet.json bytes of these trees as json.dumps(doc, indent=2) wrote them.
        rng = random.Random(14)
        digest = hashlib.sha256()
        for _ in range(300):
            digest.update(to_json(build_tet(*random_instance(rng, max_n=30))).encode())
        assert digest.hexdigest() == "e880dfbbd6daa0428838f6741f2f17354e9a0acef00c884bbcfc80a6f478d48a"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("nodes"),
            lambda doc: doc["nodes"][0].pop("weight"),
            lambda doc: doc["nodes"][0].update(weight=2.0),
            lambda doc: doc["edges"][0].update(to_index="xyz"),
            lambda doc: doc["params"].update(threshold_mode="sometimes"),
            lambda doc: doc["nodes"][0].update(emerging_state="zombie"),
            lambda doc: doc.update(latest_year=1900),
            lambda doc: next(e for e in doc["edges"] if e["from_index"] >= 0).update(tes=0.05),
        ],
    )
    def test_malformed_documents_rejected(self, tet_exclusive, mutate):
        doc = json.loads(to_json(tet_exclusive))
        mutate(doc)
        with pytest.raises(ValueError):
            tet_from_json(json.dumps(doc))

    def test_bad_number_named_by_its_path(self, tet_exclusive):
        doc = json.loads(to_json(tet_exclusive))
        doc["nodes"][0]["weight"] = True
        with pytest.raises(ValueError, match=r"^nodes\[0\]\.weight must be a number"):
            tet_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("id", 7, "id must be a string"),
            ("label", 5, "label must be a string"),
            ("words", "abc", "words must be a list of strings"),
            ("words", ["x", 3], "words must be a list of strings"),
        ],
    )
    def test_bad_text_named_by_its_path(self, tet_exclusive, field, value, message):
        doc = json.loads(to_json(tet_exclusive))
        doc["nodes"][0][field] = value
        with pytest.raises(ValueError, match=rf"^nodes\[0\]\.{message}"):
            tet_from_json(json.dumps(doc))

    #: (record, field, value, message): every field of a node (nodes[2]), a non-root edge (edges[3]),
    #: a root edge (edges[4]) and params, given a wrong type and, where the field has a range, a value
    #: of its type outside it; then a missing key and a record that is not an object, for each record.
    RECORD_FAULTS = [
        ("nodes[2]", "id", 7, "nodes[2].id must be a string, got 7"),
        ("nodes[2]", "id", "", "nodes[2].id must be non-empty"),
        ("nodes[2]", "index", "2", "nodes[2].index must be an integer, got '2'"),
        ("nodes[2]", "index", -1, "nodes[2].index must be >= 0, got -1"),
        ("nodes[2]", "label", 5, "nodes[2].label must be a string, got 5"),
        ("nodes[2]", "year", 2002.5, "nodes[2].year must be an integer, got 2002.5"),
        ("nodes[2]", "weight", True, "nodes[2].weight must be a number, got True"),
        ("nodes[2]", "weight", 2, "nodes[2].weight must be in [0, 1], got 2.0"),
        ("nodes[2]", "words", "abc", "nodes[2].words must be a list of strings, got 'abc'"),
        ("nodes[2]", "words", [], "nodes[2].words must be non-empty"),
        ("edges[3]", "from_index", 1.0, "edges[3].from_index must be an integer, got 1.0"),
        ("edges[3]", "from_index", -5, "edges[3].from_index must be >= -1, got -5"),
        ("edges[3]", "to_index", None, "edges[3].to_index must be an integer, got None"),
        ("edges[3]", "to_index", -1, "edges[3].to_index must be >= 0, got -1"),
        ("edges[3]", "tes", "0.5", "edges[3].tes must be a number, got '0.5'"),
        ("edges[3]", "tes", 1.5, "edges[3].tes must be in [0, 1], got 1.5"),
        ("edges[4]", "tes", 0.5, "edges[4].tes of a root edge must be 1, got 0.5"),
        ("params", "min_tes", "0.2", "params.min_tes must be a number, got '0.2'"),
        ("params", "min_tes", -0.5, "params.min_tes must be in [0, 1], got -0.5"),
        ("params", "min_reborn", True, "params.min_reborn must be an integer, got True"),
        ("params", "min_reborn", -1, "params.min_reborn must be >= 0, got -1"),
        ("params", "min_dead", 1.5, "params.min_dead must be an integer, got 1.5"),
        ("params", "min_dead", -1, "params.min_dead must be >= 0, got -1"),
        ("params", "threshold_mode", 1, "params.threshold_mode must be a ThresholdMode, got int"),
        ("params", "threshold_mode", "sometimes", "params.threshold_mode must be a ThresholdMode, got str"),
        ("nodes[2]", "weight", KeyError, "malformed TET JSON: nodes[2] has no key 'weight'"),
        ("nodes[2]", "emerging_state", KeyError, "malformed TET JSON: nodes[2] has no key 'emerging_state'"),
        ("edges[3]", "tes", KeyError, "malformed TET JSON: edges[3] has no key 'tes'"),
        ("params", "min_dead", KeyError, "malformed TET JSON: params has no key 'min_dead'"),
        ("nodes[2]", None, [1], "malformed TET JSON: nodes[2] must be an object, got list"),
        ("edges[3]", None, None, "malformed TET JSON: edges[3] must be an object, got NoneType"),
        ("params", None, "x", "malformed TET JSON: params must be an object, got str"),
    ]

    @pytest.mark.parametrize("record,field,value,message", RECORD_FAULTS)
    def test_record_fault_names_its_record(self, tet_exclusive, record, field, value, message):
        doc = json.loads(to_json(tet_exclusive))
        name, _, position = record.partition("[")
        holder, key = (doc[name], int(position[:-1])) if position else (doc, name)
        if field is None:
            holder[key] = value
        elif value is KeyError:
            del holder[key][field]
        else:
            holder[key][field] = value
        for order in (doc, dict(reversed(doc.items()))):
            assert read_outcome(json.dumps(order)) == (ValueError, message)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            tet_from_json("not json at all {")

    def test_read_memory_is_bounded(self):
        # 122 topics and 2167 edges peak at about 0.42 MB on CPython 3.11,
        # the finished tree and its validation, and the bound leaves 20 %
        # headroom. Parsing the whole document with json.loads first, a dict
        # per node and edge, reads about 0.55 MB; keeping every parsed edge
        # record until the last edge is made about 0.69 MB, and keeping them
        # or a set of edge pairs through validation about 0.99 MB.
        tet = build_tet(*random_instance(random.Random(12), max_n=200))
        assert len(tet.edges) >= 2000
        text = to_json(tet)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert tet_from_json(text) == tet
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 505_000


def read_outcome(text, read=tet_from_json):
    """What ``read`` makes of ``text``: the tree, or the error's type and message."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


#: A value of each JSON type, for a record field, a params field or a whole member, and an
#: edge-shaped and a node-shaped object, which then stand outside the record arrays.
JSON_VALUES = (
    None, True, False, 0, -3, 2.5, "x", "", [], [1], {}, {"k": 1},
    {"from_index": 0, "to_index": 1, "tes": 0.5},
    {"id": "t0", "index": 0, "label": None, "year": 2000, "weight": 0.5, "words": ["w"]},
)  # fmt: skip


def _a_record(rng, doc):
    return rng.choice(doc[rng.choice(("nodes", "edges"))])


def _drop_record_key(rng, doc):
    record = _a_record(rng, doc)
    del record[rng.choice(list(record))]


def _set_record_field(rng, doc):
    record = _a_record(rng, doc)
    record[rng.choice(list(record))] = rng.choice(JSON_VALUES)


def _set_params_field(rng, doc):
    doc["params"][rng.choice(list(doc["params"]))] = rng.choice(JSON_VALUES)


#: Values of a field's type outside its range, as (array, field, value).
OUT_OF_RANGE = (("edges", "tes", 1.5), ("nodes", "weight", 2), ("nodes", "id", ""), ("edges", "from_index", -5))


def _set_out_of_range(rng, doc):
    """A record field set outside its range, or the tes of a root edge set to 0.5."""
    if rng.random() < 0.2:
        doc["edges"][0]["tes"] = 0.5  # the first edge build_tet makes is the first topic's root edge
        return
    array, field, value = rng.choice(OUT_OF_RANGE)
    rng.choice(doc[array])[field] = value


def _move_record(rng, doc):
    """A copy of a record put into the other array, where it is out of place."""
    source, target = rng.sample(("nodes", "edges"), 2)
    doc[target].insert(rng.randint(0, len(doc[target])), dict(rng.choice(doc[source])))


def _set_member(rng, doc):
    doc[rng.choice(list(doc))] = rng.choice(JSON_VALUES)


def _drop_member(rng, doc):
    del doc[rng.choice(list(doc))]


def _add_member(rng, doc):
    doc[rng.choice(("note", "version", "Nodes"))] = rng.choice(JSON_VALUES)


#: The faults, those inside a record or ``params`` first, so that each still finds its target
#: when a document gets two of them in this order.
DOCUMENT_FAULTS = (
    _drop_record_key, _set_record_field, _set_out_of_range, _set_params_field, _move_record, _set_member, _drop_member,
    _add_member,
)  # fmt: skip


class TestRecordReader:
    """``tet_from_json`` converts each node and edge record as it is decoded; it
    must read what ``json.loads`` reads, and fail as the whole-document reader does."""

    def test_every_spelling_of_a_tree_reads_back_equal(self):
        rng = random.Random(20261020)
        for _ in range(300):
            tet = build_tet(*random_instance(rng, max_n=30))
            text = to_json(tet)
            doc = json.loads(text)
            variants = [
                text,
                json.dumps(doc, separators=(",", ":")),
                json.dumps(dict(reversed(doc.items()))),
                '{"comment": {"nodes": [1], "edges": "x"}, ' + text[1:],
                # a repeated key is read as json.loads reads it: the last one wins
                '{"edges": [null, {"tes": "x"}, 5], ' + text[1:],
            ]
            for variant in variants:
                assert tet_from_json(variant) == tet

    def test_syntax_errors_are_those_of_json_loads(self, tet_exclusive):
        text = to_json(tet_exclusive)
        rng = random.Random(7)
        variants = [text[:k] for k in range(len(text))]
        variants += [text[:k] + text[k + 1 :] for k in (rng.randrange(len(text)) for _ in range(200))]
        for variant in variants:
            try:
                json.loads(variant)
            except ValueError as exc:
                assert read_outcome(variant) == (type(exc), str(exc)), variant
            else:
                # still JSON: the outcome depends on the decoded document alone
                assert read_outcome(variant) == read_outcome(json.dumps(json.loads(variant))), variant

    def test_nesting_too_deep_inside_a_record_is_located(self, tet_exclusive):
        doc = json.loads(to_json(tet_exclusive))
        doc["edges"][0]["note"] = 0
        text = json.dumps(doc).replace('"note": 0', '"note": ' + "[" * 100_000 + "]" * 100_000)
        column = text.index("[" * 100_000) + 100_000
        assert read_outcome(text) == (ValueError, f"malformed TET JSON: nested too deeply to parse at line 1, column {column}")

    def test_syntax_error_read_memory_is_bounded(self):
        # A syntax error in the last edge is reported by the one decode, which
        # has turned every record before it into its value. So the read peaks
        # at about 0.24 MB on CPython 3.11, the bound leaves 20 % headroom, and
        # a document of one dict per record, which json.loads alone makes
        # before the same error, reads about 0.53 MB.
        text = to_json(build_tet(*random_instance(random.Random(12), max_n=200)))
        k = text.rindex('"tes"')
        text = text[:k] + '"tes" 1' + text[k + 6 :]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match="Expecting ':' delimiter"):
                tet_from_json(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 284_000

    def test_record_fault_read_memory_is_bounded(self):
        # A bad tes in the last edge is found by the check after the decode, on
        # the record the decode left a dict; the document is not decoded again.
        # The read peaks at about 0.26 MB on CPython 3.11, and the bound is
        # that of a valid read. Decoding again on any fault reads about 0.69 MB.
        text = to_json(build_tet(*random_instance(random.Random(12), max_n=200)))
        k = text.rindex('"tes": ')
        text = text[:k] + '"tes": "x"' + text[text.index("\n", k) :]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match=r"^edges\[2166\]\.tes must be a number"):
                tet_from_json(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 505_000

    def test_faulty_documents_read_as_the_whole_document_reader_reads_them(self):
        rng = random.Random(27)
        for _ in range(40):
            tet = build_tet(*random_instance(rng))
            for _ in range(50):
                doc = json.loads(to_json(tet))
                for k in sorted(rng.randrange(len(DOCUMENT_FAULTS)) for _ in range(rng.randint(1, 2))):
                    DOCUMENT_FAULTS[k](rng, doc)
                members = list(doc.items())
                rng.shuffle(members)
                for order in (members, members[::-1]):
                    text = json.dumps(dict(order))
                    assert read_outcome(text) == read_outcome(text, tet_from_json_whole), text

    #: One fault in each stage of the read, in the order the stages run, with
    #: the stage's name.
    FAULTS = [
        ("params", lambda doc: doc["params"].update(min_dead=-1)),
        ("nodes", lambda doc: doc["nodes"][3].update(weight="heavy")),
        ("edges", lambda doc: doc["edges"][4].update(tes="strong")),
        ("latest_year", lambda doc: doc.update(latest_year="soon")),
        ("tree", lambda doc: doc["edges"][5].update(to_index=99)),
        ("states", lambda doc: doc["nodes"][5].pop("emerging_state")),
    ]

    @pytest.mark.parametrize("first,second", [(a, b) for a in range(6) for b in range(a + 1, 6)])
    def test_the_earlier_stage_fault_is_raised_in_any_member_order(self, tet_exclusive, first, second):
        base = json.loads(to_json(tet_exclusive))
        alone = json.loads(to_json(tet_exclusive))
        self.FAULTS[first][1](alone)
        expected = read_outcome(json.dumps(alone))
        assert isinstance(expected, tuple)
        for mutate in (self.FAULTS[first][1], self.FAULTS[second][1]):
            mutate(base)
        assert read_outcome(json.dumps(base)) == expected
        assert read_outcome(json.dumps(dict(reversed(base.items())))) == expected
