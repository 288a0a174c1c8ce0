import math
import random

import pytest

from helpers import (
    ancestor_masks,
    dense,
    independent_ancestors,
    independent_candidates,
    oracle_retained,
    random_instance,
    structural_violations,
    tes_matrix,
)
from topictree.builder import (
    build_tet,
    candidate_parents,
    prune_candidates,
)
from topictree.ingest import parse_tes
from topictree.model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    ancestor_mask,
)

A, B, C, D, E, F, G, H, I, J, K = range(11)


def edge_pairs(tet):
    return {(e.from_index, e.to_index) for e in tet.edges if not e.is_root_edge}


def root_children(tet):
    return {e.to_index for e in tet.edges if e.is_root_edge}


def mini_profile(years: list[int]) -> TemporalTopicProfile:
    topics = [
        TopicRecord(id=f"t{i}", index=i, weight=0.5, year=y, words=("w",))
        for i, y in enumerate(years)
    ]
    topics.sort(key=lambda t: (t.year, t.index))
    return TemporalTopicProfile(topics=tuple(topics))


def matrix_from(profile: TemporalTopicProfile, tes: dict[tuple[int, int], float]) -> TesMatrix:
    columns = [[0.0] * j for j in range(len(profile))]
    for (u, v), value in tes.items():
        columns[profile.position_of(v)][profile.position_of(u)] = value
    return tes_matrix(columns)


class TestCandidateParents:
    def test_inclusive_order_on_fixture(self, fixture_matrix, fixture_profile, inclusive_params):
        # D and A tie at 0.9; D wins by later year. E enters at exactly 0.2.
        assert candidate_parents(F, fixture_matrix, fixture_profile, inclusive_params) == [
            (D, 0.9),
            (A, 0.9),
            (E, 0.2),
        ]

    def test_exclusive_drops_threshold_ties(self, fixture_matrix, fixture_profile, exclusive_params):
        assert candidate_parents(F, fixture_matrix, fixture_profile, exclusive_params) == [
            (D, 0.9),
            (A, 0.9),
        ]

    def test_earliest_topic_has_no_candidates(self, fixture_matrix, fixture_profile, inclusive_params):
        assert candidate_parents(A, fixture_matrix, fixture_profile, inclusive_params) == []

    def test_contemporaries_excluded(self, inclusive_params):
        profile = mini_profile([2001, 2001])
        matrix = matrix_from(profile, {})
        assert candidate_parents(1, matrix, profile, inclusive_params) == []

    def test_zero_tes_passes_inclusive_zero_gate(self):
        # a stored 0 is a strength like any other: min_tes 0 (inclusive) admits it
        profile = mini_profile([2001, 2001, 2002])
        matrix = matrix_from(profile, {})
        params = EvolutionParams(min_tes=0.0, threshold_mode=ThresholdMode.INCLUSIVE)
        assert candidate_parents(1, matrix, profile, params) == []
        assert candidate_parents(2, matrix, profile, params) == [(0, 0.0), (1, 0.0)]
        tet = build_tet(profile, matrix, params)
        assert tet.parents_of(2) == (0, 1)
        assert {e.tes for e in tet.edges if not e.is_root_edge} == {0.0}
        exclusive = EvolutionParams(min_tes=0.0, threshold_mode=ThresholdMode.EXCLUSIVE)
        assert candidate_parents(2, matrix, profile, exclusive) == []

    def test_equal_key_tie_breaks_by_lower_index(self):
        profile = mini_profile([2001, 2001, 2002])
        matrix = matrix_from(profile, {(0, 2): 0.5, (1, 2): 0.5})
        cands = candidate_parents(2, matrix, profile, EvolutionParams(min_tes=0.2))
        assert cands == [(0, 0.5), (1, 0.5)]


class TestImplicitZero:
    def test_candidates_match_dense_scan(self):
        # unlisted cells are TES 0: they must enter exactly when a dense scan admits them
        zero_gates = (
            EvolutionParams(min_tes=0.0, threshold_mode=ThresholdMode.INCLUSIVE),
            EvolutionParams(min_tes=0.0, threshold_mode=ThresholdMode.EXCLUSIVE),
        )
        rng = random.Random(3003)
        for _ in range(300):
            profile, matrix, params = random_instance(rng, max_n=30)
            columns = dense(matrix)
            for gate in (params, *zero_gates):
                for topic in profile.topics:
                    expected = independent_candidates(profile, columns, gate, topic.index)
                    assert candidate_parents(topic.index, matrix, profile, gate) == expected

    def test_negative_zero_cell_is_unlisted(self):
        # "-0" parses to -0.0, which is a zero like "0": the edge the zero gate admits carries +0.0
        profile = mini_profile([2001, 2002])
        matrix, _ = parse_tes(b"1,-0\n,1\n", profile)
        assert matrix.columns == ((), ())
        tet = build_tet(profile, matrix, EvolutionParams(min_tes=0.0))
        assert [math.copysign(1.0, e.tes) for e in tet.edges if not e.is_root_edge] == [1.0]

    def test_scan_gates_listed_cells_only(self, monkeypatch):
        n, nnz = 700, 500
        profile = mini_profile([2000 + v // 10 for v in range(n)])  # 70 years of 10 topics
        rng = random.Random(700)
        tes: dict[tuple[int, int], float] = {}
        while len(tes) < nnz:
            u, v = sorted(rng.sample(range(n), 2))
            if profile.year_of(u) < profile.year_of(v):
                tes[u, v] = rng.randint(1, 10) / 10
        matrix = matrix_from(profile, tes)
        params = EvolutionParams()
        calls = 0
        admits = EvolutionParams.admits

        def counting_admits(self, value):
            nonlocal calls
            calls += 1
            return admits(self, value)

        monkeypatch.setattr(EvolutionParams, "admits", counting_admits)
        for topic in profile.topics:
            candidate_parents(topic.index, matrix, profile, params)
        # once per listed cell, plus once per topic for the implicit zero
        assert calls <= nnz + n
        calls = 0
        tet = build_tet(profile, matrix, params)
        # `Tet` validation gates each edge once more
        assert calls <= nnz + n + sum(not e.is_root_edge for e in tet.edges)


def ancestors(edges, u):
    """Ancestor set of `u`, folding `ancestor_mask` over the edges as `build_tet` does."""
    parents: dict[int, list[int]] = {}
    for e in edges:
        if not e.is_root_edge:
            parents.setdefault(e.to_index, []).append(e.from_index)

    def mask(v):
        ps = parents.get(v, ())
        return ancestor_mask({p: mask(p) for p in ps}, ps)

    m = mask(u)
    return {w for w in range(m.bit_length()) if m >> w & 1}


class TestAncestors:
    def test_direct_parent(self):
        assert ancestors([TetEdge(B, C, 0.3)], C) == {B}

    def test_root_excluded(self):
        assert ancestors([TetEdge(ROOT_INDEX, A, 1.0)], A) == set()

    def test_transitive(self):
        edges = [TetEdge(B, C, 0.3), TetEdge(C, 5, 0.9)]
        assert ancestors(edges, 5) == {B, C}

    def test_self_not_included(self):
        assert ancestors([TetEdge(B, C, 0.3)], B) == set()


class TestPruneCandidates:
    def test_pathway_scenario_keeps_unrelated_keeps_best(self):
        # B(2001) -> C(2002), B -> D(2002); F(2003) sees C and D stronger than B.
        anc = {0: 0, 1: 1 << 0, 2: 1 << 0}
        candidates = [(1, 0.9), (2, 0.9), (0, 0.5)]
        assert prune_candidates(candidates, anc) == [(1, 0.9), (2, 0.9)]

    def test_single_candidate_unchanged(self):
        assert prune_candidates([(0, 0.4)], {0: 0}) == [(0, 0.4)]

    def test_chain_keeps_strongest_only(self):
        anc = {0: 0, 1: 1 << 0}  # 0 -> 1
        assert prune_candidates([(0, 0.9), (1, 0.5)], anc) == [(0, 0.9)]

    def test_descendant_of_accepted_is_dropped(self):
        # weaker ancestor first is impossible by ordering, but a descendant
        # appearing later must also be dropped
        anc = {0: 0, 1: 1 << 0}  # 0 -> 1
        assert prune_candidates([(1, 0.9), (0, 0.5)], anc) == [(1, 0.9)]


class TestBuildTet:
    def test_fixture_exclusive_edge_set(self, tet_exclusive):
        assert edge_pairs(tet_exclusive) == {
            (A, F),
            (A, H),
            (B, C),
            (B, D),
            (D, F),
            (E, G),
            (G, I),
            (H, J),
            (H, K),
        }
        assert root_children(tet_exclusive) == {A, B, E}

    def test_fixture_edge_tes_values(self, tet_exclusive):
        tes = {(e.from_index, e.to_index): e.tes for e in tet_exclusive.edges if not e.is_root_edge}
        assert tes[(A, F)] == 0.9
        assert tes[(A, H)] == 0.7
        assert tes[(B, C)] == 0.3
        assert tes[(G, I)] == 0.75

    def test_fixture_inclusive_adds_one_edge(self, tet_exclusive, tet_inclusive):
        assert edge_pairs(tet_inclusive) == edge_pairs(tet_exclusive) | {(E, F)}
        assert set(tet_inclusive.parents_of(F)) == {A, D, E}

    def test_single_topic(self):
        profile = mini_profile([2001])
        tet = build_tet(profile, matrix_from(profile, {}), EvolutionParams())
        assert tet.edges == (TetEdge(ROOT_INDEX, 0, 1.0),)

    def test_dimension_mismatch(self, fixture_profile):
        matrix = tes_matrix(((), (0.5,)))
        with pytest.raises(ValueError, match=r"^matrix is 2x2 but the profile has 11 topics$"):
            build_tet(fixture_profile, matrix, EvolutionParams())

    def test_deterministic(self, fixture_profile, fixture_matrix, exclusive_params):
        first = build_tet(fixture_profile, fixture_matrix, exclusive_params)
        second = build_tet(fixture_profile, fixture_matrix, exclusive_params)
        assert first == second

    def test_structural_invariants_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(200):
            profile, matrix, params = random_instance(rng)
            tet = build_tet(profile, matrix, params)
            assert structural_violations(tet, matrix, params) == []

    def test_prune_matches_bruteforce_oracle_sample(self):
        rng = random.Random(99)
        for _ in range(200):
            profile, matrix, params = random_instance(rng)
            edges = []
            for topic in profile.topics:
                cands = independent_candidates(profile, dense(matrix), params, topic.index)
                assert cands == candidate_parents(topic.index, matrix, profile, params)
                pairs = {(e.from_index, e.to_index) for e in edges}
                anc = {u: independent_ancestors(pairs, u) for u, _ in cands}
                keys = {u: (tes, profile.year_of(u), -u) for u, tes in cands}
                expected = oracle_retained(cands, anc, keys)
                got = [u for u, _ in prune_candidates(cands, ancestor_masks(anc))]
                assert got == expected
                if expected:
                    edges.extend(
                        TetEdge(u, topic.index, tes) for u, tes in cands if u in set(expected)
                    )
                else:
                    edges.append(TetEdge(ROOT_INDEX, topic.index, 1.0))


class TestYearCut:
    def test_a_year_cut_builds_the_first_edges_of_the_full_tree(self):
        # A topic's parents depend only on strictly older topics, so building
        # the topics older than a year, renumbered in index order so that the
        # tie order holds, gives the full build's edges into them, and those
        # come first. The zero-admit gate is one of the three modes.
        rng = random.Random(2027)
        cuts = 0
        for _ in range(300):
            profile, matrix, params = random_instance(rng, max_n=30)
            modes = [(params.min_tes, ThresholdMode.INCLUSIVE), (params.min_tes, ThresholdMode.EXCLUSIVE), (0.0, ThresholdMode.INCLUSIVE)]
            for min_tes, mode in modes:
                built = EvolutionParams(min_tes, params.min_reborn, params.min_dead, mode)
                full = build_tet(profile, matrix, built).edges
                for year in profile.distinct_years[1:]:
                    older = [t for t in profile.topics if t.year < year]
                    old_index = sorted(t.index for t in older)
                    new_index = {index: k for k, index in enumerate(old_index)}
                    cut = TemporalTopicProfile(
                        topics=tuple(
                            TopicRecord(id=t.id, index=new_index[t.index], weight=t.weight, year=t.year, words=t.words, label=t.label)
                            for t in older
                        )
                    )
                    prefix = build_tet(cut, TesMatrix(matrix.columns[: len(older)]), built)
                    mapped = [
                        TetEdge(e.from_index if e.is_root_edge else old_index[e.from_index], old_index[e.to_index], e.tes)
                        for e in prefix.edges
                    ]
                    assert mapped == list(full[: len(mapped)])
                    assert all(e.to_index not in new_index for e in full[len(mapped) :])
                    cuts += 1
        assert cuts > 1000  # 1467 cuts over the three modes


class TestMonotonicity:
    def test_candidates_shrink_as_threshold_rises(self):
        rng = random.Random(7)
        for _ in range(300):
            profile, matrix, params = random_instance(rng)
            lo = params
            hi = EvolutionParams(
                min_tes=min(1.0, params.min_tes + rng.choice([0.1, 0.2, 0.3])),
                min_reborn=params.min_reborn,
                min_dead=params.min_dead,
                threshold_mode=params.threshold_mode,
            )
            for topic in profile.topics:
                low_list = candidate_parents(topic.index, matrix, profile, lo)
                high_list = candidate_parents(topic.index, matrix, profile, hi)
                # the high-threshold list is the low one filtered, order preserved
                high_set = set(high_list)
                assert high_set.issubset(set(low_list))
                assert [c for c in low_list if c in high_set] == high_list

    def test_fixture_edge_set_shrinks_along_threshold_ladder(
        self, fixture_profile, fixture_matrix
    ):
        # below 0.2 pruning outcomes change (E acquires parents and is pruned
        # from F's candidates), which the shrinkage property excludes
        ladder = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        previous = None
        for min_tes in ladder:
            params = EvolutionParams(min_tes=min_tes, threshold_mode=ThresholdMode.INCLUSIVE)
            current = edge_pairs(build_tet(fixture_profile, fixture_matrix, params))
            if previous is not None:
                assert current.issubset(previous)
            previous = current
