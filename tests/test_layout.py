import math
import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from helpers import (
    crowded_instance,
    dense,
    intersects,
    label_direction,
    place_labels_bruteforce,
    random_instance,
    tes_matrix,
)
from topictree.builder import build_tet
from topictree.layout import (
    _CELL,
    _CHAR_WIDTH,
    _LINE_HEIGHT,
    _OFFSETS,
    COMPASS,
    CanvasSpec,
    _Grid,
    _label_box,
    compute_positions,
    place_labels,
)
from topictree.model import (
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    TopicRecord,
)
from topictree.render import EMERGING_FILL, EVOLVING_FILL, tes_bin, to_svg

A, B, C, D, E, F, G, H, I, J, K = range(11)

DEFAULT = CanvasSpec()
SVG_NS = "{http://www.w3.org/2000/svg}"


def flat_tet(records):
    profile = TemporalTopicProfile(topics=tuple(records))
    columns = tuple((0.0,) * j for j in range(len(profile)))
    return build_tet(profile, tes_matrix(columns), EvolutionParams())


def rec(index, year, weight, **kw):
    kw.setdefault("id", f"t{index}")
    kw.setdefault("words", ("w",))
    return TopicRecord(index=index, year=year, weight=weight, **kw)


def _coordinate(rng, span):
    """A coordinate in [-span, span]: anywhere, on a grid line, next to one, or
    where a glyph or a one-character label box edge lands on one."""
    kind = rng.randrange(4)
    line = rng.randint(-span // int(_CELL), span // int(_CELL)) * _CELL
    if kind == 0:
        return rng.uniform(-span, span)
    if kind == 1:
        return line
    if kind == 2:
        return math.nextafter(line, rng.choice((-math.inf, math.inf)))
    return line + rng.choice((-1, 1)) * rng.choice((DEFAULT.glyph_radius, _CHAR_WIDTH / 2, _LINE_HEIGHT / 2))


def placed(positions, boxes):
    """Each placed label as (node, direction, box), in placement order."""
    return [(v, label_direction(positions[v], box), box) for v, box in boxes.items()]


def tick_labels(tet, axis):
    """The text and the `axis` coordinate of each tick label on that axis of the tree's SVG."""
    root = ET.fromstring(to_svg(tet))
    texts = [t for t in root.iter(f"{SVG_NS}text") if t.get("class") == f"{axis}-tick-label"]
    return [(t.text, float(t.get(axis))) for t in texts]


def random_label_input(rng):
    """Positions and labels for `place_labels`: crowded or sparse, with negative
    coordinates, coordinates on and beside cell boundaries, coincident nodes,
    nodes given no label, and empty, short and very long labels."""
    n = rng.randint(1, 24)
    span = rng.choice((40, 160, 640))
    positions = {}
    for v in rng.sample(range(3 * n), n):
        if positions and rng.random() < 0.15:
            positions[v] = rng.choice(list(positions.values()))
        else:
            positions[v] = (_coordinate(rng, span), _coordinate(rng, span))
    labels = {}
    for v in positions:
        if rng.random() < 0.2:
            continue
        length = rng.choice((0, 1, rng.randint(2, 12), rng.randint(40, 300)))
        labels[v] = "éx" * (length // 2) + "y" * (length % 2)
    return positions, labels


class TestPositions:
    def test_fixture_f_position(self, tet_exclusive):
        positions = compute_positions(tet_exclusive, DEFAULT)
        x, y = positions[F]
        assert x == DEFAULT.plot_left + 0.5 * DEFAULT.plot_width  # 2003 is mid-span
        assert y == DEFAULT.plot_bottom - 0.8 * DEFAULT.plot_height

    def test_zero_weight_sits_on_axis_floor(self):
        tet = flat_tet([rec(0, 2001, 0.0)])
        positions = compute_positions(tet, DEFAULT)
        assert positions[0][1] == DEFAULT.plot_bottom

    def test_unit_weight_sits_on_top(self):
        tet = flat_tet([rec(0, 2001, 1.0)])
        assert compute_positions(tet, DEFAULT)[0][1] == DEFAULT.plot_top

    def test_coincident_topics_jittered(self):
        tet = flat_tet([rec(0, 2002, 0.4), rec(1, 2002, 0.4)])
        positions = compute_positions(tet, DEFAULT)
        (x0, y0), (x1, y1) = positions[0], positions[1]
        assert y0 == y1
        assert x0 != x1
        assert x0 < x1  # lower index left
        center = DEFAULT.plot_left + DEFAULT.plot_width / 2
        assert x0 + x1 == pytest.approx(2 * center)

    def test_x_monotone_in_year(self, tet_exclusive):
        positions = compute_positions(tet_exclusive, DEFAULT)
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
            positions = compute_positions(tet, DEFAULT)
            for t1 in profile.topics:
                for t2 in profile.topics:
                    if t1.weight > t2.weight:
                        assert positions[t1.index][1] < positions[t2.index][1]

    def test_jitter_bounded_by_half_band(self):
        inputs = [
            ([rec(i, 2001, 0.5) for i in range(10)] + [rec(10, 2002, 0.5)], CanvasSpec(width=320, height=300)),
            # uneven years: 2001 lies far closer to the crowded 2000 than the plot width over two gaps
            ([rec(i, 2000, 0.5) for i in range(40)] + [rec(40, 2001, 0.5), rec(41, 2010, 0.5)], DEFAULT),
        ]
        for records, canvas in inputs:
            positions = compute_positions(flat_tet(records), canvas)
            years = sorted({r.year for r in records})
            x_of = {y: canvas.plot_left + (y - years[0]) / (years[-1] - years[0]) * canvas.plot_width for y in years}
            for r in records:
                nearest = min(abs(x_of[r.year] - x_of[y]) for y in years if y != r.year)
                assert abs(positions[r.index][0] - x_of[r.year]) < nearest / 2, r


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
            (math.nextafter(0.2, 0), "tes-1"),
            (math.nextafter(0.4, 0), "tes-2"),
            (math.nextafter(0.6, 0), "tes-3"),
            (math.nextafter(0.8, 0), "tes-4"),
        ],
    )
    def test_bins(self, tes, token):
        assert tes_bin(tes)[0] == token


class TestStateColors:
    def test_born_split(self):
        assert (EMERGING_FILL[EmergingState.BORN], EVOLVING_FILL[EvolvingState.SPLIT]) == ("#2ca02c", "#1f77b4")

    def test_flourishing_uncolored(self):
        assert EMERGING_FILL[EmergingState.FLOURISHING] == EVOLVING_FILL[EvolvingState.FLOURISHING] == "#ffffff"

    def test_fused_dead(self):
        assert (EMERGING_FILL[EmergingState.FUSED], EVOLVING_FILL[EvolvingState.DEAD]) == ("#9467bd", "#d62728")

    def test_reborn_orange(self):
        assert EMERGING_FILL[EmergingState.REBORN] == "#ff7f0e"


class TestPlaceLabels:
    def test_distant_nodes_default_north(self):
        positions = {0: (100.0, 100.0), 1: (500.0, 400.0)}
        boxes = place_labels(positions, {0: "alpha", 1: "beta"})
        assert label_direction(positions[0], boxes[0]) == "N"
        assert label_direction(positions[1], boxes[1]) == "N"

    def test_fixture_labels_disjoint(self, tet_exclusive):
        positions = compute_positions(tet_exclusive, DEFAULT)
        labels = {t.index: t.display_label for t in tet_exclusive.profile.topics}
        boxes = list(place_labels(positions, labels).values())
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert not intersects(a, b)

    def test_coincident_jittered_nodes_take_different_sides(self):
        tet = flat_tet([rec(0, 2002, 0.4), rec(1, 2002, 0.4)])
        positions = compute_positions(tet, DEFAULT)
        boxes = place_labels(positions, {0: "first", 1: "second"})
        assert label_direction(positions[0], boxes[0]) != label_direction(positions[1], boxes[1])
        assert not intersects(boxes[0], boxes[1])

    def test_every_direction_is_legal(self):
        # each direction is taken when an unlabelled glyph sits on the centre
        # of every other offset's box
        x, y = 100.0, 100.0
        for direction in COMPASS:
            positions = {0: (x, y)}
            for k, other in enumerate(COMPASS, start=1):
                if other != direction:
                    sx, sy, share = _OFFSETS[other]
                    x0, y0, x1, y1 = _label_box(x, y, _CHAR_WIDTH, _LINE_HEIGHT, sx, sy, DEFAULT.glyph_radius * share)
                    positions[k] = ((x0 + x1) / 2, (y0 + y1) / 2)
            assert label_direction((x, y), place_labels(positions, {0: "x"})[0]) == direction

    def test_grid_matches_all_pairs_scan(self):
        rng = random.Random(5)
        for _ in range(2000):
            positions, labels = random_label_input(rng)
            got = place_labels(positions, labels)
            want = place_labels_bruteforce(positions, labels)
            assert placed(positions, got) == placed(positions, want)

    def test_grid_near_keeps_insertion_order(self):
        # Overlaps are summed in the all-pairs order, so `near` must return
        # boxes as they were added: here that differs from cell order, and each
        # box but the last spans several cells the query shares.
        boxes = [
            (150.0, 150.0, 230.0, 170.0),
            (10.0, 10.0, 20.0, 20.0),
            (100.0, 20.0, 120.0, 200.0),
            (-40.0, -40.0, 90.0, 40.0),
            (300.0, 300.0, 310.0, 310.0),  # no cell in common with the query
            (30.0, 160.0, 180.0, 230.0),
        ]
        grid = _Grid((-4, -4, 12, 12))
        for box in boxes:
            grid.add(box)
        near = [k for k in range(len(boxes)) if k != 4]
        for split in range(len(boxes) + 1):
            assert grid.near((0.0, 0.0, 240.0, 240.0), split) == (
                [boxes[k] for k in near if k < split],
                [boxes[k] for k in near if k >= split],
            )

    def test_crowded_canvas_matches_all_pairs_scan(self):
        # Hundreds of labels on a few years and weight levels, as on a crowded
        # chart: many boxes share each cell and every direction gets taken.
        rng = random.Random(2)
        taken = set()
        for _ in range(4):
            profile, matrix, params = crowded_instance(rng)
            positions = compute_positions(build_tet(profile, matrix, params), DEFAULT)
            labels = {t.index: t.display_label for t in profile.topics}
            got = place_labels(positions, labels)
            want = place_labels_bruteforce(positions, labels)
            assert placed(positions, got) == placed(positions, want)
            taken |= {direction for _, direction, _ in placed(positions, got)}
        assert taken == set(COMPASS)

    def test_long_labels_cost_bounded_memory(self):
        # The grid covers only the cells near the nodes, however far a label reaches.
        positions = {0: (100.0, 100.0), 1: (100.0, 100.0)}
        labels = {0: "x" * 10**6, 1: "y" * 10**6}
        tracemalloc.start()
        try:
            got = place_labels(positions, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        want = place_labels_bruteforce(positions, labels)
        assert placed(positions, got) == placed(positions, want)

    def test_font_metrics_scale_box(self):
        # 7.2 units per character, 12 units per line
        x0, y0, x1, y1 = place_labels({0: (50.0, 50.0)}, {0: "abcd"})[0]
        assert x1 - x0 == pytest.approx(28.8)
        assert y1 - y0 == pytest.approx(12.0)


class TestAxisTicks:
    def test_fixture_year_ticks(self, tet_exclusive):
        assert [int(text) for text, _ in tick_labels(tet_exclusive, "x")] == [2001, 2002, 2003, 2004, 2005]
        assert [float(text) for text, _ in tick_labels(tet_exclusive, "y")] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_year_has_one_tick(self):
        tet = flat_tet([rec(0, 2001, 0.5)])
        assert len(tick_labels(tet, "x")) == 1

    def test_tick_spacing_linear_in_year_gap(self):
        tet = flat_tet([rec(0, 2001, 0.1), rec(1, 2002, 0.2), rec(2, 2004, 0.3)])
        xs = {int(text): x for text, x in tick_labels(tet, "x")}
        assert xs[2004] - xs[2002] == pytest.approx(2 * (xs[2002] - xs[2001]))


class TestComputeLayout:
    """The layout as `to_svg` computes it: positions, label boxes and edge colours."""

    def test_deterministic(self, tet_exclusive):
        labels = {t.index: t.display_label for t in tet_exclusive.profile.topics}
        layouts = []
        for _ in range(2):
            positions = compute_positions(tet_exclusive, DEFAULT)
            layouts.append((positions, place_labels(positions, labels)))
        assert layouts[0] == layouts[1]

    def test_edge_colors_match_tes_bins(self, tet_exclusive, fixture_matrix, fixture_profile):
        root = ET.fromstring(to_svg(tet_exclusive))
        strokes = {p.get("id"): p.get("stroke") for p in root.iter(f"{SVG_NS}path") if p.get("class") == "edge"}
        non_root = [e for e in tet_exclusive.edges if not e.is_root_edge]
        assert len(strokes) == len(non_root)
        for e in non_root:
            entry = dense(fixture_matrix)[fixture_profile.position_of(e.to_index)][
                fixture_profile.position_of(e.from_index)
            ]
            assert strokes[f"edge-{e.from_index}-{e.to_index}"] == tes_bin(entry)[1]

    def test_margins_must_leave_plot_area(self):
        with pytest.raises(ValueError):
            CanvasSpec(width=200, height=600)
