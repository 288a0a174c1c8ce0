import random
import xml.etree.ElementTree as ET

import pytest

from helpers import random_instance
from topictree.builder import build_tet
from topictree.layout import (
    COMPASS,
    CanvasSpec,
    FontMetrics,
    axis_ticks,
    compute_layout,
    compute_positions,
    place_labels,
    state_colors,
    tes_color,
)
from topictree.model import (
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    TesMatrix,
    TopicRecord,
)
from topictree.render import TES_FILL, to_svg

A, B, C, D, E, F, G, H, I, J, K = range(11)

DEFAULT = CanvasSpec()
SVG_NS = "{http://www.w3.org/2000/svg}"


def flat_tet(records):
    profile = TemporalTopicProfile(topics=tuple(records))
    columns = tuple((0.0,) * j for j in range(len(profile)))
    return build_tet(profile, TesMatrix(columns=columns), EvolutionParams())


def rec(index, year, weight, **kw):
    kw.setdefault("id", f"t{index}")
    kw.setdefault("words", ("w",))
    return TopicRecord(index=index, year=year, weight=weight, **kw)


class TestPositions:
    def test_fixture_f_position(self, tet_exclusive):
        positions = compute_positions(tet_exclusive)
        x, y = positions[F]
        assert x == DEFAULT.plot_left + 0.5 * DEFAULT.plot_width  # 2003 is mid-span
        assert y == DEFAULT.plot_bottom - 0.8 * DEFAULT.plot_height

    def test_zero_weight_sits_on_axis_floor(self):
        tet = flat_tet([rec(0, 2001, 0.0)])
        positions = compute_positions(tet)
        assert positions[0][1] == DEFAULT.plot_bottom

    def test_unit_weight_sits_on_top(self):
        tet = flat_tet([rec(0, 2001, 1.0)])
        assert compute_positions(tet)[0][1] == DEFAULT.plot_top

    def test_coincident_topics_jittered(self):
        tet = flat_tet([rec(0, 2002, 0.4), rec(1, 2002, 0.4)])
        positions = compute_positions(tet)
        (x0, y0), (x1, y1) = positions[0], positions[1]
        assert y0 == y1
        assert x0 != x1
        assert x0 < x1  # lower index left
        center = DEFAULT.plot_left + DEFAULT.plot_width / 2
        assert x0 + x1 == pytest.approx(2 * center)

    def test_x_monotone_in_year(self, tet_exclusive):
        positions = compute_positions(tet_exclusive)
        years = {v: tet_exclusive.profile.year_of(v) for v in positions}
        for v in positions:
            for w in positions:
                if years[v] < years[w]:
                    assert positions[v][0] < positions[w][0]

    def test_weight_order_preserved_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(50):
            profile, matrix, params = random_instance(rng)
            tet = build_tet(profile, matrix, params)
            positions = compute_positions(tet)
            for t1 in profile.topics:
                for t2 in profile.topics:
                    if t1.weight > t2.weight:
                        assert positions[t1.index][1] < positions[t2.index][1]

    def test_jitter_bounded_by_half_band(self):
        members = [rec(i, 2001, 0.5) for i in range(10)] + [rec(10, 2002, 0.5)]
        tet = flat_tet(members)
        canvas = CanvasSpec(width=320, height=300)
        positions = compute_positions(tet, canvas)
        band = canvas.plot_width / 1  # two distinct years
        base = canvas.plot_left
        for i in range(10):
            assert abs(positions[i][0] - base) < band / 2


class TestTesColor:
    @pytest.mark.parametrize(
        "tes,token",
        [
            (0.0, "tes-1"),
            (0.19, "tes-1"),
            (0.2, "tes-2"),
            (0.39, "tes-2"),
            (0.4, "tes-3"),
            (0.6, "tes-4"),
            (0.75, "tes-4"),
            (0.8, "tes-5"),
            (0.9, "tes-5"),
            (1.0, "tes-5"),
        ],
    )
    def test_bins(self, tes, token):
        assert tes_color(tes) == token

    @pytest.mark.parametrize("tes", [-0.1, 1.1])
    def test_out_of_range_rejected(self, tes):
        with pytest.raises(ValueError):
            tes_color(tes)


class TestStateColors:
    def test_born_split(self):
        assert state_colors((EmergingState.BORN, EvolvingState.SPLIT)) == ("green", "blue")

    def test_flourishing_uncolored(self):
        assert state_colors((EmergingState.FLOURISHING, EvolvingState.FLOURISHING)) == (None, None)

    def test_fused_dead(self):
        assert state_colors((EmergingState.FUSED, EvolvingState.DEAD)) == ("purple", "red")

    def test_reborn_orange(self):
        assert state_colors((EmergingState.REBORN, EvolvingState.SPLIT))[0] == "orange"


class TestPlaceLabels:
    def test_distant_nodes_default_north(self):
        positions = {0: (100.0, 100.0), 1: (500.0, 400.0)}
        anchors = place_labels(positions, {0: "alpha", 1: "beta"})
        assert anchors[0].direction == "N"
        assert anchors[1].direction == "N"

    def test_fixture_labels_disjoint(self, tet_exclusive):
        layout = compute_layout(tet_exclusive)
        anchors = list(layout.label_anchors.values())
        for i, a in enumerate(anchors):
            for b in anchors[i + 1 :]:
                assert not a.box.intersects(b.box)

    def test_coincident_jittered_nodes_take_different_sides(self):
        tet = flat_tet([rec(0, 2002, 0.4), rec(1, 2002, 0.4)])
        positions = compute_positions(tet)
        anchors = place_labels(positions, {0: "first", 1: "second"})
        assert anchors[0].direction != anchors[1].direction
        assert not anchors[0].box.intersects(anchors[1].box)

    def test_every_direction_is_legal(self):
        positions = {0: (100.0, 100.0)}
        for direction in COMPASS:
            anchors = place_labels(positions, {0: "x"})
            assert anchors[0].direction in COMPASS

    def test_font_metrics_scale_box(self):
        font = FontMetrics(char_width=10.0, height=20.0)
        anchors = place_labels({0: (50.0, 50.0)}, {0: "abcd"}, font=font)
        box = anchors[0].box
        assert box.x1 - box.x0 == 40.0
        assert box.y1 - box.y0 == 20.0


class TestAxisTicks:
    def test_fixture_year_ticks(self, tet_exclusive):
        x_ticks, y_ticks = axis_ticks(tet_exclusive)
        assert [year for year, _ in x_ticks] == [2001, 2002, 2003, 2004, 2005]
        assert [v for v, _ in y_ticks] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_year_has_one_tick(self):
        tet = flat_tet([rec(0, 2001, 0.5)])
        x_ticks, _ = axis_ticks(tet)
        assert len(x_ticks) == 1

    def test_tick_spacing_linear_in_year_gap(self):
        tet = flat_tet([rec(0, 2001, 0.1), rec(1, 2002, 0.2), rec(2, 2004, 0.3)])
        x_ticks, _ = axis_ticks(tet)
        xs = {year: x for year, x in x_ticks}
        assert xs[2004] - xs[2002] == pytest.approx(2 * (xs[2002] - xs[2001]))


class TestComputeLayout:
    def test_deterministic(self, tet_exclusive):
        assert compute_layout(tet_exclusive) == compute_layout(tet_exclusive)

    def test_edge_colors_match_tes_bins(self, tet_exclusive, fixture_matrix, fixture_profile):
        root = ET.fromstring(to_svg(tet_exclusive))
        strokes = {p.get("id"): p.get("stroke") for p in root.iter(f"{SVG_NS}path") if p.get("class") == "edge"}
        non_root = [e for e in tet_exclusive.edges if not e.is_root_edge]
        assert len(strokes) == len(non_root)
        for e in non_root:
            entry = fixture_matrix.columns[fixture_profile.position_of(e.to_index)][
                fixture_profile.position_of(e.from_index)
            ]
            assert strokes[f"edge-{e.from_index}-{e.to_index}"] == TES_FILL[tes_color(entry)]

    def test_margins_must_leave_plot_area(self):
        with pytest.raises(ValueError):
            CanvasSpec(width=200, height=600)
