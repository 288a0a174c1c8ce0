import json
import xml.etree.ElementTree as ET

import pyparsing
import pytest

from dot_checker import check_dot
from topictree.builder import build_tet
from topictree.model import (
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
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
    return build_tet(profile, TesMatrix(columns=columns), EvolutionParams())


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

    def test_label_text_escaped(self):
        topics = (
            TopicRecord(id="a<b>&c", index=0, weight=0.5, year=2001, words=("w",)),
        )
        profile = TemporalTopicProfile(topics=topics)
        tet = build_tet(profile, TesMatrix(columns=((),)), EvolutionParams())
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
        tet = build_tet(profile, TesMatrix(columns=((),)), EvolutionParams())
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

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            tet_from_json("not json at all {")
