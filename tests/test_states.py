import random

from helpers import random_instance, tes_matrix
from topictree.builder import build_tet
from topictree.model import (
    ROOT_INDEX,
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    TopicRecord,
)

A, B, C, D, E, F, G, H, I, J, K = range(11)

BORN = EmergingState.BORN
FUSED = EmergingState.FUSED
REBORN = EmergingState.REBORN
EM_FLOURISHING = EmergingState.FLOURISHING
SPLIT = EvolvingState.SPLIT
DEAD = EvolvingState.DEAD
EV_FLOURISHING = EvolvingState.FLOURISHING


def two_topic_tet(year_a, year_b, tes, params):
    topics = (
        TopicRecord(id="x", index=0, weight=0.5, year=year_a, words=("w",)),
        TopicRecord(id="y", index=1, weight=0.5, year=year_b, words=("w",)),
    )
    profile = TemporalTopicProfile(topics=topics)
    matrix = tes_matrix(((), (tes,)))
    return build_tet(profile, matrix, params)


class TestEmerging:
    def test_fixture_born(self, tet_exclusive):
        assert tet_exclusive.states[A][0] is BORN

    def test_fixture_fused(self, tet_exclusive):
        assert tet_exclusive.states[F][0] is FUSED

    def test_fixture_reborn_gap_exceeds_threshold(self, tet_exclusive):
        # H's sole parent is three years back, min_reborn is 2
        assert tet_exclusive.states[H][0] is REBORN

    def test_two_parents_is_fused_even_with_large_gaps(self):
        # fused beats reborn when both could apply
        topics = (
            TopicRecord(id="a", index=0, weight=0.5, year=2000, words=("w",)),
            TopicRecord(id="b", index=1, weight=0.5, year=2001, words=("w",)),
            TopicRecord(id="c", index=2, weight=0.5, year=2009, words=("w",)),
        )
        profile = TemporalTopicProfile(topics=topics)
        matrix = tes_matrix(((), (0.0,), (0.9, 0.9)))
        tet = build_tet(profile, matrix, EvolutionParams(min_reborn=2))
        assert tet.states[2][0] is FUSED

    def test_gap_equal_to_threshold_is_flourishing(self):
        tet = two_topic_tet(2000, 2002, 0.9, EvolutionParams(min_reborn=2))
        assert tet.states[1][0] is EM_FLOURISHING


class TestEvolving:
    def test_fixture_split(self, tet_exclusive):
        assert tet_exclusive.states[A][1] is SPLIT

    def test_fixture_dead(self, tet_exclusive):
        assert tet_exclusive.states[C][1] is DEAD

    def test_fixture_incubating_is_flourishing(self, tet_exclusive):
        # I is childless with gap 1, and 1 > min_dead=1 is false
        assert tet_exclusive.states[I][1] is EV_FLOURISHING

    def test_childless_latest_year_topic_is_flourishing(self, tet_exclusive):
        assert tet_exclusive.states[K][1] is EV_FLOURISHING


class TestClassifyAll:
    def test_fixture_state_table(self, tet_exclusive):
        expected = {
            A: (BORN, SPLIT),
            B: (BORN, SPLIT),
            C: (EM_FLOURISHING, DEAD),
            D: (EM_FLOURISHING, EV_FLOURISHING),
            E: (BORN, EV_FLOURISHING),
            F: (FUSED, DEAD),
            G: (EM_FLOURISHING, EV_FLOURISHING),
            H: (REBORN, SPLIT),
            I: (EM_FLOURISHING, EV_FLOURISHING),
            J: (EM_FLOURISHING, EV_FLOURISHING),
            K: (EM_FLOURISHING, EV_FLOURISHING),
        }
        assert tet_exclusive.states == expected

    def test_single_topic(self):
        topics = (TopicRecord(id="x", index=0, weight=0.5, year=2001, words=("w",)),)
        profile = TemporalTopicProfile(topics=topics)
        matrix = tes_matrix(((),))
        tet = build_tet(profile, matrix, EvolutionParams())
        assert tet.states == {0: (BORN, EV_FLOURISHING)}

    def test_long_gap_child(self):
        tet = two_topic_tet(2000, 2005, 0.5, EvolutionParams(min_reborn=2, min_dead=1))
        assert tet.states[0] == (BORN, EV_FLOURISHING)  # has a child
        assert tet.states[1] == (REBORN, EV_FLOURISHING)

    def test_states_depend_only_on_structure(self, fixture_profile, fixture_matrix, exclusive_params):
        relabeled = TemporalTopicProfile(
            topics=tuple(
                TopicRecord(
                    id=f"renamed-{t.index}",
                    index=t.index,
                    weight=t.weight,
                    year=t.year,
                    words=t.words,
                    label=None,
                )
                for t in fixture_profile.topics
            )
        )
        tet = build_tet(relabeled, fixture_matrix, exclusive_params)
        reference = build_tet(fixture_profile, fixture_matrix, exclusive_params)
        assert tet.states == reference.states

    def test_exhaustive_and_exclusive_on_random_instances(self):
        # each topic's pair, re-derived from the edges by the README's rules
        rng = random.Random(4321)
        seen = set()
        for _ in range(300):
            profile, matrix, params = random_instance(rng)
            tet = build_tet(profile, matrix, params)
            year = {t.index: t.year for t in profile.topics}
            latest = max(year.values())
            parents = {v: [] for v in year}
            children = {v: [] for v in year}
            for e in tet.edges:
                if e.from_index != ROOT_INDEX:
                    parents[e.to_index].append(e.from_index)
                    children[e.from_index].append(e.to_index)
            expected = {}
            for v in year:
                ps, cs = parents[v], children[v]
                if not ps:
                    emerging = BORN
                elif len(ps) >= 2:
                    emerging = FUSED
                elif year[v] - year[ps[0]] > params.min_reborn:
                    emerging = REBORN
                else:
                    emerging = EM_FLOURISHING
                if len(cs) >= 2:
                    evolving = SPLIT
                elif not cs and latest - year[v] > params.min_dead:
                    evolving = DEAD
                else:
                    evolving = EV_FLOURISHING
                expected[v] = (emerging, evolving)
            assert list(tet.states.items()) == list(expected.items())
            seen.update(state for pair in expected.values() for state in pair)
        assert seen == set(EmergingState) | set(EvolvingState)
