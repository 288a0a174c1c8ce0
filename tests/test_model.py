import pytest

from topictree.model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
)


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
        with pytest.raises(ValueError, match="unique"):
            TemporalTopicProfile(topics=(topic(0, 2001, id="x"), topic(1, 2002, id="x")))

    def test_unsorted_topics_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            TemporalTopicProfile(topics=(topic(0, 2002), topic(1, 2001)))

    def test_year_tie_breaks_by_index(self):
        with pytest.raises(ValueError, match="sorted"):
            TemporalTopicProfile(topics=(topic(1, 2001), topic(0, 2001)))

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
        for columns in (((), ()), ((0.5,),), ((), (0.5, 0.5))):
            with pytest.raises(ValueError, match="must hold"):
                TesMatrix(columns=columns)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TesMatrix(columns=((), (1.5,)))

    def test_columns_accessor(self):
        m = TesMatrix(columns=((), (0.7,), (0.0, 0.4)))
        assert m.n == 3
        assert m.columns[1][0] == 0.7
        assert m.columns[2] == (0.0, 0.4)


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

    @pytest.mark.parametrize("kw", [{"min_tes": -0.1}, {"min_tes": 1.1}, {"min_reborn": -1}, {"min_dead": -1}])
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


def make_tet(profile, edge_triples):
    edges = tuple(TetEdge(from_index=a, to_index=b, tes=t) for a, b, t in edge_triples)
    return Tet(profile=profile, edges=edges, params=EvolutionParams(), latest_year=profile.latest_year)


class TestTet:
    def test_minimal(self):
        p = profile_of(2001, 2002)
        tet = make_tet(p, [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5)])
        assert tet.parents_of(1) == (0,)
        assert tet.children_of(0) == (1,)
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
        p = profile_of(2001, 2002)
        with pytest.raises(ValueError, match="latest_year"):
            Tet(
                profile=p,
                edges=(TetEdge(ROOT_INDEX, 0, 1.0), TetEdge(0, 1, 0.5)),
                params=EvolutionParams(),
                latest_year=2003,
            )

    def test_ancestors_of_transitive(self):
        # chain 0 -> 1 -> 3, and 4 fused from the unrelated 1 and 2
        p = profile_of(2001, 2002, 2002, 2003, 2003)
        tet = make_tet(
            p,
            [(ROOT_INDEX, 0, 1.0), (0, 1, 0.5), (ROOT_INDEX, 2, 1.0), (1, 3, 0.5), (1, 4, 0.5), (2, 4, 0.5)],
        )
        assert tet.ancestors_of(1) == {0}  # direct parent; the topic itself is excluded
        assert tet.ancestors_of(0) == set()  # the root is excluded, and so are descendants
        assert tet.ancestors_of(2) == set()
        assert tet.ancestors_of(3) == {0, 1}  # transitive
        assert tet.ancestors_of(4) == {0, 1, 2}  # union over several parents
