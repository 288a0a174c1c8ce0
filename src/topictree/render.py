"""Serialization of a tree: SVG picture, DOT graph, JSON document.

All three emitters are pure and byte-deterministic: element ids are stable
(``node-<index>``, ``edge-<from>-<to>``), floats are written in a fixed
format, and iteration follows profile/edge order. The JSON document is the
canonical machine-readable form and round-trips losslessly through
:func:`tet_from_json`. Each emitter joins the lines of a private generator
(``_svg_lines``, ``_dot_lines``, ``_json_lines``), which the CLI writes as
they are made instead.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .layout import CanvasSpec, _x_of_year, _y_of_weight, compute_positions, place_labels
from .model import (
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    format_number,
    require_int,
    require_number,
    require_str,
    require_type,
    require_words,
)

#: Glyph fills: a topic's circle is split vertically, the left half showing
#: its emerging state and the right half its evolving state. Flourishing is
#: left white.
EMERGING_FILL = {
    EmergingState.BORN: "#2ca02c",
    EmergingState.FUSED: "#9467bd",
    EmergingState.REBORN: "#ff7f0e",
    EmergingState.FLOURISHING: "#ffffff",
}

EVOLVING_FILL = {
    EvolvingState.SPLIT: "#1f77b4",
    EvolvingState.DEAD: "#d62728",
    EvolvingState.FLOURISHING: "#ffffff",
}

#: The five equal-width TES bins, light to dark: (token, fill, legend label).
TES_BINS = (
    ("tes-1", "#deebf7", "[0.0, 0.2)"),
    ("tes-2", "#9ecae1", "[0.2, 0.4)"),
    ("tes-3", "#6baed6", "[0.4, 0.6)"),
    ("tes-4", "#3182bd", "[0.6, 0.8)"),
    ("tes-5", "#08519c", "[0.8, 1.0]"),
)

_ROOT_STROKE = "#999999"
_AXIS_STROKE = "#333333"
_FONT = "font-family=\"sans-serif\""


def tes_bin(tes: float) -> tuple[str, str, str]:
    """The :data:`TES_BINS` entry of a TES in [0, 1]; bins are left-closed, the top bin closed."""
    return TES_BINS[bisect_right((0.2, 0.4, 0.6, 0.8), tes)]


def _escape(text: str) -> str:
    """XML character data: the three characters that markup would claim."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    """Canvas coordinate: two decimals, trailing zeros stripped."""
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


# --------------------------------------------------------------------------
# SVG
# --------------------------------------------------------------------------


def _svg_half_circle(cx: float, cy: float, r: float, left: bool, fill: str) -> str:
    sweep = 0 if left else 1
    d = f"M {_fmt(cx)} {_fmt(cy - r)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(cx)} {_fmt(cy + r)} Z"
    return f'<path d="{d}" fill="{fill}" stroke="none"/>'


def _svg_edge_path(
    e: TetEdge, p1: tuple[float, float], p2: tuple[float, float], r: float, stroke: str, token: str
) -> str:
    """The arrowed path of edge ``e`` from p1 to p2, its marker ``arrow-<token>``; root edges are dashed."""
    (x1, y1), (x2, y2) = p1, p2
    length = math.hypot(x2 - x1, y2 - y1)
    if length > 2 * r + 4:
        ux, uy = (x2 - x1) / length, (y2 - y1) / length
        x1, y1 = x1 + ux * r, y1 + uy * r
        x2, y2 = x2 - ux * (r + 3), y2 - uy * (r + 3)
    dash = ' stroke-dasharray="4 3"' if e.is_root_edge else ""
    return (
        f'<path id="edge-{e.from_index}-{e.to_index}" class="edge" d="M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="1.8" fill="none" marker-end="url(#arrow-{token})"{dash}/>'
    )


def _svg_axis_line(x1: float, y1: float, x2: float, y2: float) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{_AXIS_STROKE}"/>'


def _svg_legend_row(x: float, y: float, fill: str, name: str) -> list[str]:
    """A legend swatch and its name, on the baseline y."""
    return [
        f'<rect x="{_fmt(x)}" y="{_fmt(y - 10)}" width="14" height="12" fill="{fill}" stroke="#333333" stroke-width="0.7"/>',
        f'<text x="{_fmt(x + 20)}" y="{_fmt(y)}" {_FONT} font-size="11">{name}</text>',
    ]


def _svg_legends(canvas: CanvasSpec) -> list[str]:
    x = canvas.plot_right + 24
    out = ['<g id="legend-states">']
    y = canvas.plot_top + 10
    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="13" font-weight="bold">Evolution states</text>')
    y += 16
    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="10" fill="#555555">left half: emerging, right half: evolving</text>')
    # flourishing is white in both halves, so it is listed once, last
    entries = [(state.value, fill) for state, fill in EMERGING_FILL.items() if state is not EmergingState.FLOURISHING]
    entries += [(state.value, fill) for state, fill in EVOLVING_FILL.items()]
    for name, fill in entries:
        y += 17
        out += _svg_legend_row(x, y, fill, name)
    out.append("</g>")

    out.append('<g id="legend-strength">')
    y += 34
    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="13" font-weight="bold">Evolutionary strength</text>')
    for _, fill, label in TES_BINS:
        y += 17
        out += _svg_legend_row(x, y, fill, label)
    out.append("</g>")
    return out


def _svg_axes(years: tuple[int, ...], canvas: CanvasSpec) -> list[str]:
    out = ['<g id="axes">']
    out.append(_svg_axis_line(canvas.plot_left, canvas.plot_bottom, canvas.plot_right, canvas.plot_bottom))
    out.append(_svg_axis_line(canvas.plot_left, canvas.plot_top, canvas.plot_left, canvas.plot_bottom))
    for year in years:
        x = _x_of_year(year, years, canvas)
        out.append(_svg_axis_line(x, canvas.plot_bottom, x, canvas.plot_bottom + 5))
        out.append(
            f'<text class="x-tick-label" x="{_fmt(x)}" y="{_fmt(canvas.plot_bottom + 18)}" '
            f'{_FONT} font-size="11" text-anchor="middle">{year}</text>'
        )
    for value in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _y_of_weight(value, canvas)
        out.append(_svg_axis_line(canvas.plot_left - 5, y, canvas.plot_left, y))
        out.append(
            f'<text class="y-tick-label" x="{_fmt(canvas.plot_left - 9)}" y="{_fmt(y + 4)}" '
            f'{_FONT} font-size="11" text-anchor="end">{format_number(value)}</text>'
        )
    mid_x = (canvas.plot_left + canvas.plot_right) / 2
    out.append(
        f'<text x="{_fmt(mid_x)}" y="{_fmt(canvas.plot_bottom + 36)}" {_FONT} font-size="12" '
        f'text-anchor="middle">year</text>'
    )
    mid_y = (canvas.plot_top + canvas.plot_bottom) / 2
    out.append(
        f'<text x="16" y="{_fmt(mid_y)}" {_FONT} font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(mid_y)})">topic weight</text>'
    )
    out.append("</g>")
    return out


def to_svg(tet: Tet, canvas: CanvasSpec | None = None, show_root: bool = False) -> str:
    """Render the tree as a standalone SVG 1.1 document on ``canvas``
    (the default :class:`CanvasSpec` when None).

    One split-circle group per topic, one arrowed path per edge colored by
    its TES bin, axes with year/weight ticks, and the two legends. The root
    and its edges are hidden unless ``show_root`` is set.
    """
    return "\n".join(_svg_lines(tet, canvas, show_root)) + "\n"


def _svg_lines(tet: Tet, canvas: CanvasSpec | None, show_root: bool) -> Iterator[str]:
    """The lines of :func:`to_svg`'s document, without newlines; the checks and the layout run before the first."""
    require_type(tet, Tet, "tet")
    canvas = CanvasSpec() if canvas is None else canvas
    require_type(canvas, CanvasSpec, "canvas")
    positions = compute_positions(tet, canvas)
    boxes = place_labels(positions, {t.index: t.display_label for t in tet.profile.topics})
    r = canvas.glyph_radius

    yield '<?xml version="1.0" encoding="UTF-8"?>'
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(canvas.width)}" '
        f'height="{_fmt(canvas.height)}" viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">'
    )
    yield "<defs>"
    for token, fill, _ in (*TES_BINS, ("root", _ROOT_STROKE, "")):
        yield (
            f'<marker id="arrow-{token}" viewBox="0 0 10 10" refX="9" refY="5" '
            f'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
            f'<path d="M 0 0 L 10 5 L 0 10 Z" fill="{fill}"/></marker>'
        )
    yield "</defs>"
    yield f'<rect width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" fill="#ffffff"/>'
    yield from _svg_axes(tet.profile.distinct_years, canvas)

    root_pos = (canvas.plot_left - 35, (canvas.plot_top + canvas.plot_bottom) / 2)

    yield '<g id="edges">'
    for e in tet.edges:
        if e.is_root_edge:
            if not show_root:
                continue
            start, token, stroke = root_pos, "root", _ROOT_STROKE
        else:
            start = positions[e.from_index]
            token, stroke, _ = tes_bin(e.tes)
        yield _svg_edge_path(e, start, positions[e.to_index], r, stroke, token)
    yield "</g>"

    yield '<g id="nodes">'
    if show_root:
        rx, ry = root_pos
        yield '<g id="node-root" class="node-root">'
        yield (
            f'<circle cx="{_fmt(rx)}" cy="{_fmt(ry)}" r="{_fmt(r * 0.6)}" fill="{_ROOT_STROKE}" stroke="none"/>'
        )
        yield "</g>"
    for topic in tet.profile.topics:
        x, y = positions[topic.index]
        emerging, evolving = tet.states[topic.index]
        yield f'<g id="node-{topic.index}" class="node">'
        yield _svg_half_circle(x, y, r, True, EMERGING_FILL[emerging])
        yield _svg_half_circle(x, y, r, False, EVOLVING_FILL[evolving])
        yield (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="none" stroke="#333333" stroke-width="1"/>'
        )
        yield "</g>"
    yield "</g>"

    yield '<g id="labels">'
    for topic in tet.profile.topics:
        x0, y0, x1, y1 = boxes[topic.index]
        cx = (x0 + x1) / 2
        baseline = (y0 + y1) / 2 + 4
        yield (
            f'<text class="node-label" x="{_fmt(cx)}" y="{_fmt(baseline)}" {_FONT} '
            f'font-size="11" text-anchor="middle">{_escape(topic.display_label)}</text>'
        )
    yield "</g>"

    yield from _svg_legends(canvas)
    yield "</svg>"


# --------------------------------------------------------------------------
# DOT
# --------------------------------------------------------------------------


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(tet: Tet, show_root: bool = False) -> str:
    """Emit a Graphviz digraph: states as node attributes, TES on edges.

    Node statements are ordered by index and edges by (from, to); the root
    is omitted unless requested, so the default output contains exactly the
    topics and their evolutionary relationships.
    """
    return "\n".join(_dot_lines(tet, show_root)) + "\n"


def _dot_lines(tet: Tet, show_root: bool) -> Iterator[str]:
    """The lines of :func:`to_dot`'s document, without newlines; the check and the sorts run before the first."""
    require_type(tet, Tet, "tet")
    topics = sorted(tet.profile.topics, key=lambda t: t.index)
    edges = sorted(tet.edges, key=attrgetter("to_index"))
    edges.sort(key=attrgetter("from_index"))  # stable, so by (from, to), with no key tuple per edge
    yield "digraph tet {"
    yield "  rankdir=LR;"
    if show_root:
        yield '  "root" [shape=point, label="root"];'
    for topic in topics:
        emerging, evolving = tet.states[topic.index]
        yield (
            f"  {_dot_quote(topic.id)} [label={_dot_quote(topic.display_label)}, "
            f'year="{topic.year}", weight="{format_number(topic.weight)}", '
            f'emerging="{emerging.value}", evolving="{evolving.value}"];'
        )
    for e in edges:
        if e.is_root_edge:
            if not show_root:
                continue
            yield f'  "root" -> {_dot_quote(tet.profile.topic(e.to_index).id)};'
        else:
            yield (
                f"  {_dot_quote(tet.profile.topic(e.from_index).id)} -> "
                f'{_dot_quote(tet.profile.topic(e.to_index).id)} [tes="{format_number(e.tes)}"];'
            )
    yield "}"


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def to_json(tet: Tet) -> str:
    """Canonical JSON document; fixed key order, lossless round-trip.

    The bytes are those of ``json.dumps(doc, indent=2)``, written from one
    template per node and per edge with the primitives that encoder uses.
    """
    return "\n".join(_json_lines(tet)) + "\n"


def _json_lines(tet: Tet) -> Iterator[str]:
    """:func:`to_json`'s document in pieces joined by newlines: the header,
    each node and edge record with its separating comma, and the closers.
    The check runs before the first piece."""
    require_type(tet, Tet, "tet")
    s, i, f = encode_basestring_ascii, int.__repr__, float.__repr__
    p = tet.params
    yield (
        f'{{\n  "params": {{\n    "min_tes": {f(p.min_tes)},\n    "min_reborn": {i(p.min_reborn)},\n'
        f'    "min_dead": {i(p.min_dead)},\n    "threshold_mode": {s(p.threshold_mode.value)}\n  }},\n'
        f'  "latest_year": {i(tet.profile.latest_year)},\n  "nodes": ['
    )
    # The model guarantees non-empty nodes, edges and words, so no list is ever written as [].
    topics = tet.profile.topics
    for k, t in enumerate(topics, 1):
        emerging, evolving = tet.states[t.index]
        label = "null" if t.label is None else s(t.label)
        words = ",\n        ".join(map(s, t.words))
        comma = "," if k < len(topics) else ""
        yield (
            f'    {{\n      "id": {s(t.id)},\n      "index": {i(t.index)},\n      "label": {label},\n'
            f'      "year": {i(t.year)},\n      "weight": {f(t.weight)},\n      "words": [\n        {words}\n      ],\n'
            f'      "emerging_state": {s(emerging.value)},\n      "evolving_state": {s(evolving.value)}\n    }}{comma}'
        )
    yield '  ],\n  "edges": ['
    edges = tet.edges
    for k, e in enumerate(edges, 1):
        comma = "," if k < len(edges) else ""
        yield f'    {{\n      "from_index": {i(e.from_index)},\n      "to_index": {i(e.to_index)},\n      "tes": {f(e.tes)}\n    }}{comma}'
    yield "  ]\n}"


# A JSON string literal (closed or not) or one bracket; strings are skipped whole.
# Compiled on first use: only a document too deep to parse needs it.
_JSON_BRACKET = r'"(?:[^"\\]|\\.)*"?|[\[{\]}]'


def _deepest_bracket(text: str) -> str:
    """Line and column of the first ``[`` or ``{`` at the document's greatest nesting depth."""
    depth = deepest = at = 0
    for match in re.finditer(_JSON_BRACKET, text, re.DOTALL):
        bracket = match.group()
        if bracket in "[{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, match.start()
        elif bracket in "]}":
            depth -= 1
    line = text.count("\n", 0, at) + 1
    column = at - text.rfind("\n", 0, at)
    return f"line {line}, column {column}"


#: The C scanner that ``json.loads`` runs, called here a value at a time.
_scan = json.JSONDecoder().scan_once
_space = json.decoder.WHITESPACE.match
# A comma between JSON whitespace, compiled on first use, so that only a read pays for it.
_COMMA = r"[ \t\n\r]*,[ \t\n\r]*"


def _items(text: str, i: int, close: str, item: Callable[[int], int]) -> int:
    """Walk the array or object opened at ``text[i]``, ``item`` reading each item from its
    start to the end it returns; returns the end of ``close`` and the space after it.
    A fault raises without a location, which ``json.loads`` then gives."""
    comma_at = re.compile(_COMMA).match
    i = _space(text, i + 1).end()
    if not text.startswith(close, i):
        i = item(i)
        while comma := comma_at(text, i):
            i = item(comma.end())
        i = _space(text, i).end()
        if text[i] != close:
            raise ValueError(i)
    return _space(text, i + 1).end()


class _Records(list):
    """A ``nodes`` or ``edges`` member, each record converted as it is read, until one faults."""

    def __init__(self, convert: Callable[[int, dict], object]) -> None:
        self.convert, self.fault = convert, None

    def add(self, raws: Iterable[dict]) -> None:
        try:
            for raw in raws if self.fault is None else ():
                self.append(self.convert(len(self), raw))
        except (KeyError, TypeError, ValueError) as exc:
            self.fault = exc  # raised after the walk, so that a syntax error anywhere comes first


#: A stored state that its node record lacks; the state check raises its ``KeyError``.
_ABSENT = object()


def _topic(i: int, node: dict) -> tuple[TopicRecord, tuple[object, object]]:
    """Node record ``i`` as its topic, and its stored states for the last check."""
    label = node["label"]
    topic = TopicRecord(
        label=label if label is None else require_str(label, f"nodes[{i}].label"),
        id=require_str(node["id"], f"nodes[{i}].id"),
        words=require_words(node["words"], f"nodes[{i}].words"),
        index=require_int(node["index"], f"nodes[{i}].index"),
        weight=require_number(node["weight"], f"nodes[{i}].weight"),
        year=require_int(node["year"], f"nodes[{i}].year"),
    )
    return topic, (node.get("emerging_state", _ABSENT), node.get("evolving_state", _ABSENT))


def _edge(k: int, e: dict) -> TetEdge:
    return TetEdge(
        from_index=require_int(e["from_index"], f"edges[{k}].from_index"),
        to_index=require_int(e["to_index"], f"edges[{k}].to_index"),
        tes=require_number(e["tes"], f"edges[{k}].tes"),
    )


def tet_from_json(text: str) -> Tet:
    """Parse the JSON document back into a tree; inverse of :func:`to_json`.

    The states and ``latest_year`` are derived from the tree, and a document
    whose stored values disagree with them is rejected. Raises ``ValueError`` on
    malformed input, including structural problems that violate tree
    invariants; a JSON syntax error comes first, as ``json.loads`` raises it.
    Each ``nodes`` and ``edges`` record becomes its value as it is read.
    """
    require_str(text, "text")
    doc, records = {}, {}

    def member(i: int) -> int:
        key, i = _scan(text, i)
        i = _space(text, i).end()
        if type(key) is not str or text[i] != ":":
            raise ValueError(i)
        i = _space(text, i + 1).end()
        if key not in ("nodes", "edges"):
            doc[key], i = _scan(text, i)
            return i
        section = records[key] = _Records(_topic if key == "nodes" else _edge)  # so the last of a repeated key wins
        if not text.startswith("[", i):  # iterated, as the records of an array are
            raws, i = _scan(text, i)
            section.add(raws)
            return i

        def record(j: int) -> int:
            raw, j = _scan(text, j)
            section.add((raw,))
            return j

        return _items(text, i, "]", record)

    try:
        try:
            i = _space(text).end()
            if not text.startswith("{", i):
                doc = json.loads(text)  # not an object, so rejected below
            elif _items(text, i, "}", member) != len(text):
                raise ValueError("extra data")
        except (ValueError, IndexError, StopIteration) as fault:
            fault.with_traceback(None)  # the walk's frames hold records: they go,
            records.clear()  # so that json.loads does not read the whole document beside them
            json.loads(text)  # json's own error for the first fault
            raise
    except RecursionError:
        raise ValueError(
            f"malformed TET JSON: nested too deeply to parse at {_deepest_bracket(text)}"
        ) from None
    del text  # only the walk and its errors read it, so it is freed before the tree is built
    try:
        raw_params = doc["params"]
        params = EvolutionParams(
            min_tes=require_number(raw_params["min_tes"], "params.min_tes"),
            min_reborn=require_int(raw_params["min_reborn"], "params.min_reborn"),
            min_dead=require_int(raw_params["min_dead"], "params.min_dead"),
            threshold_mode=ThresholdMode(raw_params["threshold_mode"]),
        )
        for key in ("nodes", "edges"):
            if records[key].fault is not None:
                raise records[key].fault
        latest_year = require_int(doc["latest_year"], "latest_year")
        profile = TemporalTopicProfile(topics=tuple(topic for topic, _ in records["nodes"]))
        tet = Tet(profile=profile, edges=tuple(records.pop("edges")), params=params)
        if latest_year != tet.profile.latest_year:
            raise ValueError(f"latest_year {latest_year} does not match profile ({tet.profile.latest_year})")
        for topic, stored in records["nodes"]:
            if _ABSENT in stored:
                raise KeyError(("emerging_state", "evolving_state")[stored.index(_ABSENT)])
            derived = tuple(state.value for state in tet.states[topic.index])
            if stored != derived:
                raise ValueError(
                    f"topic {topic.index} is stored as {stored} but the tree makes it {derived}"
                )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed TET JSON: {exc!r}") from exc
    return tet
