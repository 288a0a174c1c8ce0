"""Geometry for rendering: positions, ticks and label placement.

Node position is meaning, not aesthetics: x is linear in the topic's year,
y is linear in its weight, so the picture reads as a timeline with topic
importance on the vertical axis. The only adjustment is a deterministic
horizontal jitter separating topics that share both year and weight, bounded
so a node never crosses the midpoint towards an adjacent year band.

All coordinates are in canvas units with the origin at the top-left (SVG
orientation): larger weight means smaller y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Tet

# Unit step of each compass direction, y growing downwards. A diagonal label
# clears the glyph's rim at 45 degrees: radius * _DIAG along each axis.
_OFFSETS = {
    "N": (0, -1), "NE": (1, -1), "E": (1, 0), "SE": (1, 1),
    "S": (0, 1), "SW": (-1, 1), "W": (-1, 0), "NW": (-1, -1),
}

#: Compass directions tried for a label, in scan order.
COMPASS = tuple(_OFFSETS)

_DIAG = 0.7071067811865476  # 1/sqrt(2)
_LABEL_GAP = 3.0
_JITTER_STEP = 8.0

# Crude text box model: a label is as wide as its characters and one line high.
_CHAR_WIDTH = 7.2
_LINE_HEIGHT = 12.0

# Side of the square cells that label placement buckets boxes into.
_CELL = 32.0


@dataclass(frozen=True)
class CanvasSpec:
    """Abstract canvas: overall size plus margins reserved for axes and legends."""

    width: float = 1000.0
    height: float = 600.0

    # Fixed for every canvas: unannotated, so they are not dataclass fields.
    margin_left = 60.0
    margin_right = 190.0
    margin_top = 30.0
    margin_bottom = 50.0
    glyph_radius = 10.0
    #: Largest width or height: coordinates stay short decimals and box centres cannot overflow.
    max_size = 1e6

    def __post_init__(self) -> None:
        # written so that NaN fails it too
        if not (self.width <= self.max_size and self.height <= self.max_size):
            raise ValueError(f"canvas sizes must be finite and at most {self.max_size:g}")
        if self.plot_width <= 0 or self.plot_height <= 0:
            raise ValueError("margins leave no plot area")

    @property
    def plot_left(self) -> float:
        return self.margin_left

    @property
    def plot_right(self) -> float:
        return self.width - self.margin_right

    @property
    def plot_top(self) -> float:
        return self.margin_top

    @property
    def plot_bottom(self) -> float:
        return self.height - self.margin_bottom

    @property
    def plot_width(self) -> float:
        return self.plot_right - self.plot_left

    @property
    def plot_height(self) -> float:
        return self.plot_bottom - self.plot_top


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def intersection_area(self, other: "Rect") -> float:
        dx = min(self.x1, other.x1) - max(self.x0, other.x0)
        dy = min(self.y1, other.y1) - max(self.y0, other.y0)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy

    @classmethod
    def centered(cls, cx: float, cy: float, w: float, h: float) -> "Rect":
        return cls(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


@dataclass(frozen=True)
class LabelAnchor:
    """Chosen compass offset and the final label bounding box."""

    direction: str
    box: Rect


@dataclass(frozen=True)
class TetLayout:
    positions: dict[int, tuple[float, float]]
    label_anchors: dict[int, LabelAnchor]
    x_ticks: list[tuple[int, float]]
    y_ticks: list[tuple[float, float]]
    canvas: CanvasSpec = field(default_factory=CanvasSpec)


def _x_of_year(year: int, years: tuple[int, ...], canvas: CanvasSpec) -> float:
    if len(years) == 1:
        return canvas.plot_left + canvas.plot_width / 2
    span = years[-1] - years[0]
    return canvas.plot_left + (year - years[0]) / span * canvas.plot_width


def _y_of_weight(weight: float, canvas: CanvasSpec) -> float:
    return canvas.plot_bottom - weight * canvas.plot_height


def compute_positions(tet: Tet, canvas: CanvasSpec | None = None) -> dict[int, tuple[float, float]]:
    """Per-topic canvas coordinates; the dummy root gets none.

    Topics sharing both year and weight are spread horizontally around the
    year's base x, lower index leftmost, never past the midpoint to the next
    year band.
    """
    canvas = canvas or CanvasSpec()
    years = tet.profile.distinct_years
    band = canvas.plot_width if len(years) == 1 else canvas.plot_width / (len(years) - 1)

    groups: dict[tuple[int, float], list[int]] = {}
    for topic in tet.profile.topics:
        groups.setdefault((topic.year, topic.weight), []).append(topic.index)

    positions: dict[int, tuple[float, float]] = {}
    for (year, weight), members in groups.items():
        base_x = _x_of_year(year, years, canvas)
        y = _y_of_weight(weight, canvas)
        members.sort()
        m = len(members)
        step = _JITTER_STEP if m == 1 else min(_JITTER_STEP, 0.9 * band / (m - 1))
        for i, v in enumerate(members):
            positions[v] = (base_x + (i - (m - 1) / 2) * step, y)
    return positions


def _direction_box(
    direction: str, x: float, y: float, w: float, h: float, radius: float
) -> Rect:
    sx, sy = _OFFSETS[direction]
    r = radius * _DIAG if sx and sy else radius
    return Rect.centered(
        x + sx * r + sx * _LABEL_GAP + sx * w / 2, y + sy * r + sy * _LABEL_GAP + sy * h / 2, w, h
    )


def _cells(box: Rect) -> list[tuple[int, int]]:
    """Grid cells a box touches, boundaries included.

    Two boxes with a positive intersection share a point, and that point's
    cell is in both lists.
    """
    xs = range(math.floor(box.x0 / _CELL), math.floor(box.x1 / _CELL) + 1)
    ys = range(math.floor(box.y0 / _CELL), math.floor(box.y1 / _CELL) + 1)
    return [(i, j) for i in xs for j in ys]


class _Grid:
    """Boxes bucketed into every grid cell they touch, in insertion order."""

    def __init__(self) -> None:
        self.boxes: list[Rect] = []
        self.buckets: dict[tuple[int, int], list[int]] = {}

    def add(self, box: Rect) -> None:
        for cell in _cells(box):
            self.buckets.setdefault(cell, []).append(len(self.boxes))
        self.boxes.append(box)

    def near(self, cells: list[tuple[int, int]]) -> list[Rect]:
        """Each box bucketed in any of ``cells``, once, in insertion order."""
        found = {k for cell in cells for k in self.buckets.get(cell, ())}
        return [self.boxes[k] for k in sorted(found)]


def place_labels(
    positions: dict[int, tuple[float, float]], labels: dict[int, str]
) -> dict[int, LabelAnchor]:
    """Greedy one-pass label placement over 8 compass offsets.

    Nodes are visited in index order; each label takes the first offset with
    the least total overlap against already-placed labels and all node
    glyphs. Best effort: a single pass, deterministic.

    Glyph boxes and placed label boxes sit in a uniform grid of square
    cells, so an offset is scored only against the boxes that share a cell
    with it. The boxes left out overlap it by exactly 0.0, and the rest are
    summed in the all-pairs order (glyphs in ``positions`` order, then labels
    in placement order), so every sum, tie-break and box matches a scan of
    all glyphs and labels.
    """
    glyph_radius = CanvasSpec.glyph_radius
    glyphs = _Grid()
    for x, y in positions.values():
        glyphs.add(Rect.centered(x, y, 2 * glyph_radius, 2 * glyph_radius))
    placed_boxes = _Grid()
    placed: dict[int, LabelAnchor] = {}
    for v in sorted(labels):
        x, y = positions[v]
        w, h = max(1, len(labels[v])) * _CHAR_WIDTH, _LINE_HEIGHT
        best: tuple[float, str, Rect] | None = None
        for direction in COMPASS:
            box = _direction_box(direction, x, y, w, h, glyph_radius)
            cells = _cells(box)
            overlap = sum(box.intersection_area(g) for g in glyphs.near(cells))
            overlap += sum(box.intersection_area(a) for a in placed_boxes.near(cells))
            if best is None or overlap < best[0]:
                best = (overlap, direction, box)
            if overlap == 0.0:
                break
        assert best is not None
        placed[v] = LabelAnchor(direction=best[1], box=best[2])
        placed_boxes.add(best[2])
    return placed


def axis_ticks(
    tet: Tet, canvas: CanvasSpec | None = None
) -> tuple[list[tuple[int, float]], list[tuple[float, float]]]:
    """One x tick per distinct profile year; y ticks at 0, 0.25, 0.5, 0.75, 1."""
    canvas = canvas or CanvasSpec()
    years = tet.profile.distinct_years
    x_ticks = [(year, _x_of_year(year, years, canvas)) for year in years]
    y_ticks = [(v, _y_of_weight(v, canvas)) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return x_ticks, y_ticks


def compute_layout(tet: Tet, canvas: CanvasSpec | None = None) -> TetLayout:
    """Assemble the full layout for a tree."""
    canvas = canvas or CanvasSpec()
    positions = compute_positions(tet, canvas)
    labels = {topic.index: topic.display_label for topic in tet.profile.topics}
    x_ticks, y_ticks = axis_ticks(tet, canvas)
    return TetLayout(
        positions=positions,
        label_anchors=place_labels(positions, labels),
        x_ticks=x_ticks,
        y_ticks=y_ticks,
        canvas=canvas,
    )
