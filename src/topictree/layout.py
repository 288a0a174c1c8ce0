"""Geometry for rendering: positions, axis coordinates and label placement.

Node position is meaning, not aesthetics: x is linear in the topic's year,
y is linear in its weight, so the picture reads as a timeline with topic
importance on the vertical axis. The only adjustment is a deterministic
horizontal jitter separating topics that share both year and weight, bounded
so a node never crosses the midpoint towards the nearest other year.

All coordinates are in canvas units with the origin at the top-left (SVG
orientation): larger weight means smaller y.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .model import Tet, _Value, require_number

_DIAG = 0.7071067811865476  # 1/sqrt(2)

# Unit step of each compass direction, y growing downwards, and the share of
# the glyph radius a label clears along each stepped axis. A diagonal label
# clears the glyph's rim at 45 degrees: radius * _DIAG along each axis.
_OFFSETS = {
    "N": (0, -1, 1.0), "NE": (1, -1, _DIAG), "E": (1, 0, 1.0), "SE": (1, 1, _DIAG),
    "S": (0, 1, 1.0), "SW": (-1, 1, _DIAG), "W": (-1, 0, 1.0), "NW": (-1, -1, _DIAG),
}

#: Compass directions tried for a label, in scan order.
COMPASS = tuple(_OFFSETS)

_LABEL_GAP = 3.0
_JITTER_STEP = 8.0

# Crude text box model: a label is as wide as its characters and one line high.
_CHAR_WIDTH = 7.2
_LINE_HEIGHT = 12.0

# Side of the square cells that label placement buckets boxes into.
_CELL = 32.0


class CanvasSpec(_Value):
    """Abstract canvas: overall size plus margins reserved for axes and legends."""

    # Fixed for every canvas: class attributes, not fields.
    margin_left = 60.0
    margin_right = 190.0
    margin_top = 30.0
    margin_bottom = 50.0
    glyph_radius = 10.0
    #: Largest width or height: coordinates stay short decimals and box centres cannot overflow.
    max_size = 1e6

    def __init__(self, width: float = 1000.0, height: float = 600.0) -> None:
        self._store(require_number(width, "width"), require_number(height, "height"))
        for name, size in (("width", self.width), ("height", self.height)):
            if not size <= self.max_size:  # written so that NaN fails it too
                raise ValueError(f"{name} must be finite and at most {self.max_size:g}, got {size}")
        for name, size, plot, margins in (
            ("width", self.width, self.plot_width, self.margin_left + self.margin_right),
            ("height", self.height, self.plot_height, self.margin_top + self.margin_bottom),
        ):
            if plot <= 0:
                raise ValueError(f"{name} must be more than {margins:g} to leave a plot area, got {size}")

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


def _year_xs(years: tuple[int, ...], canvas: CanvasSpec) -> tuple[dict[int, float], float]:
    """Each of the sorted distinct ``years`` with its x, and the least gap between two x (the plot width for one year)."""
    if len(years) == 1:
        return {years[0]: canvas.plot_left + canvas.plot_width / 2}, canvas.plot_width
    span = years[-1] - years[0]
    xs = {year: canvas.plot_left + (year - years[0]) / span * canvas.plot_width for year in years}
    # scaled from the least gap in years, so evenly spaced years give plot_width / (len(years) - 1) exactly
    return xs, canvas.plot_width / (span / min(b - a for a, b in zip(years, years[1:])))


def _y_of_weight(weight: float, canvas: CanvasSpec) -> float:
    return canvas.plot_bottom - weight * canvas.plot_height


def compute_positions(tet: Tet, canvas: CanvasSpec) -> dict[int, tuple[float, float]]:
    """Per-topic canvas coordinates; the dummy root gets none.

    Topics sharing both year and weight are spread horizontally around the
    year's base x, lower index leftmost, never past the midpoint to the
    nearest other year's x.
    """
    xs, band = _year_xs(tet.profile.distinct_years, canvas)

    # Profile order is (year, index), so each group lists its members by index.
    groups: dict[tuple[int, float], list[int]] = {}
    for topic in tet.profile.topics:
        groups.setdefault((topic.year, topic.weight), []).append(topic.index)

    positions: dict[int, tuple[float, float]] = {}
    for (year, weight), members in groups.items():
        y = _y_of_weight(weight, canvas)
        m = len(members)
        step = _JITTER_STEP if m == 1 else min(_JITTER_STEP, 0.9 * band / (m - 1))
        for i, v in enumerate(members):
            positions[v] = (xs[year] + (i - (m - 1) / 2) * step, y)
    return positions


#: A box as ``(x0, y0, x1, y1)``: what label placement scores and returns.
_Box = tuple[float, float, float, float]


def _label_box(x: float, y: float, w: float, h: float, sx: int, sy: int, r: float) -> _Box:
    """``(x0, y0, x1, y1)`` of a w x h label one unit step ``(sx, sy)`` from a
    node at (x, y): r clear of the node's centre, then ``_LABEL_GAP`` clear."""
    cx = x + sx * r + sx * _LABEL_GAP + sx * w / 2
    cy = y + sy * r + sy * _LABEL_GAP + sy * h / 2
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def _cells(box: _Box, limits: tuple[int, int, int, int]) -> list[tuple[int, int]]:
    """Grid cells a box touches, boundaries included, within the cell range
    ``limits`` = (first column, first row, last column, last row).

    Two boxes with a positive intersection share a point. When that point
    lies inside ``limits``, its cell is in both lists.
    """
    i0, j0, i1, j1 = limits
    xs = range(max(i0, math.floor(box[0] / _CELL)), min(i1, math.floor(box[2] / _CELL)) + 1)
    ys = range(max(j0, math.floor(box[1] / _CELL)), min(j1, math.floor(box[3] / _CELL)) + 1)
    return [(i, j) for i in xs for j in ys]


class _Grid:
    """Boxes bucketed into every grid cell they touch, numbered in insertion order."""

    def __init__(self, limits: tuple[int, int, int, int]) -> None:
        self.limits = limits
        self.boxes: list[_Box] = []
        self.buckets: dict[tuple[int, int], list[int]] = {}

    def add(self, box: _Box) -> None:
        for cell in _cells(box, self.limits):
            self.buckets.setdefault(cell, []).append(len(self.boxes))
        self.boxes.append(box)

    def near(self, box: _Box, split: int) -> tuple[list[_Box], list[_Box]]:
        """Each box that shares a cell with ``box``, once, in insertion order:
        those numbered below ``split``, then the rest."""
        found = sorted({k for cell in _cells(box, self.limits) for k in self.buckets.get(cell, ())})
        at = bisect_left(found, split)
        return [self.boxes[k] for k in found[:at]], [self.boxes[k] for k in found[at:]]


def _overlap(box: _Box, others: list[_Box]) -> float:
    """Total intersection area of ``box`` with ``others``, summed from zero in their order.

    A box whose x or y interval does not overlap ``box``'s is skipped before
    any arithmetic: its intersection area is exactly 0.0, and leaving out a
    0.0 term changes no sum of non-negative terms. As no box has x0 > x1 or
    y0 > y1, any other box has dx >= 0 and dy >= 0, and dx * dy is its
    intersection area (0.0 when dx or dy is 0). ``min`` and ``max``
    are written out as the comparisons the builtins make, to save the calls.
    The terms go through ``sum`` as in the all-pairs scan: from Python 3.12
    ``sum`` compensates float rounding, which a plain ``+=`` loop would not.
    """
    x0, y0, x1, y1 = box
    return sum(
        ((a1 if a1 < x1 else x1) - (a0 if a0 > x0 else x0))
        * ((b1 if b1 < y1 else y1) - (b0 if b0 > y0 else y0))
        for a0, b0, a1, b1 in others
        if a0 < x1 and a1 > x0 and b0 < y1 and b1 > y0
    )


def place_labels(
    positions: dict[int, tuple[float, float]], labels: dict[int, str]
) -> dict[int, _Box]:
    """Greedy one-pass label placement over 8 compass offsets: the box each label takes.

    Nodes are visited in index order; each label takes the first offset with
    the least total overlap against already-placed labels and all node
    glyphs. Best effort: a single pass, deterministic.

    Boxes are plain ``(x0, y0, x1, y1)`` float tuples. Glyph boxes and
    placed label boxes sit in one uniform grid of square cells, so a label's
    offsets are scored only against the boxes that share a cell with the
    region their eight boxes span, and a box whose x or y interval does not
    overlap the offset's is skipped before any arithmetic. Every box left
    out overlaps the offset by exactly 0.0, and the rest are summed in the
    all-pairs order (glyphs in ``positions`` order, then labels in placement
    order), so every sum, tie-break and box matches a scan of all glyphs and
    labels.

    The grid covers only the cells around the nodes: their bounding box
    widened by the glyph radius, the label gap and one more cell. Each label
    box has a point that close to its node along each axis, and each glyph
    box holds its node, so two boxes that overlap share a point in that
    range. A long label therefore costs a bounded number of cells.
    """
    radius = CanvasSpec.glyph_radius
    margin = radius + _LABEL_GAP
    xs = [x for x, _ in positions.values()] or [0.0]
    ys = [y for _, y in positions.values()] or [0.0]
    limits = (
        math.floor((min(xs) - margin) / _CELL) - 1,
        math.floor((min(ys) - margin) / _CELL) - 1,
        math.floor((max(xs) + margin) / _CELL) + 1,
        math.floor((max(ys) + margin) / _CELL) + 1,
    )
    # Glyphs first, then labels as they are placed: the all-pairs scan order.
    grid = _Grid(limits)
    for x, y in positions.values():
        grid.add((x - radius, y - radius, x + radius, y + radius))
    n_glyphs = len(grid.boxes)
    steps = [(sx, sy, radius * k) for sx, sy, k in _OFFSETS.values()]
    placed: dict[int, _Box] = {}
    for v in sorted(labels):
        x, y = positions[v]
        w, h = max(1, len(labels[v])) * _CHAR_WIDTH, _LINE_HEIGHT
        boxes = [_label_box(x, y, w, h, sx, sy, r) for sx, sy, r in steps]
        x0s, y0s, x1s, y1s = zip(*boxes)
        region = (min(x0s), min(y0s), max(x1s), max(y1s))
        near_glyphs, near_labels = grid.near(region, n_glyphs)
        best: tuple[float, _Box] | None = None
        for box in boxes:
            overlap = _overlap(box, near_glyphs)
            overlap += _overlap(box, near_labels)
            if best is None or overlap < best[0]:
                best = (overlap, box)
            if overlap == 0.0:
                break
        assert best is not None
        placed[v] = best[1]
        grid.add(best[1])
    return placed
