"""Serialization of a tree: SVG picture, DOT graph, JSON document.

All three emitters are pure and byte-deterministic: element ids are stable
(``node-<index>``, ``edge-<from>-<to>``), floats are written in a fixed
format, and iteration follows profile/edge order. The JSON document is the
canonical machine-readable form and round-trips losslessly through
:func:`tet_from_json`.
"""

from __future__ import annotations

import json
import math
from xml.sax.saxutils import escape, quoteattr

from .ingest import format_number
from .layout import CanvasSpec, TetLayout, compute_layout, state_colors, tes_color
from .model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
)

STATE_FILL = {
    "green": "#2ca02c",
    "purple": "#9467bd",
    "orange": "#ff7f0e",
    "blue": "#1f77b4",
    "red": "#d62728",
    None: "#ffffff",
}

TES_FILL = {
    "tes-1": "#deebf7",
    "tes-2": "#9ecae1",
    "tes-3": "#6baed6",
    "tes-4": "#3182bd",
    "tes-5": "#08519c",
}

TES_BIN_LABELS = {
    "tes-1": "[0.0, 0.2)",
    "tes-2": "[0.2, 0.4)",
    "tes-3": "[0.4, 0.6)",
    "tes-4": "[0.6, 0.8)",
    "tes-5": "[0.8, 1.0]",
}

_ROOT_STROKE = "#999999"
_AXIS_STROKE = "#333333"
_FONT = "font-family=\"sans-serif\""


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
    eid: str, p1: tuple[float, float], p2: tuple[float, float], r: float, stroke: str, marker: str, dashed: bool
) -> str:
    (x1, y1), (x2, y2) = p1, p2
    length = math.hypot(x2 - x1, y2 - y1)
    if length > 2 * r + 4:
        ux, uy = (x2 - x1) / length, (y2 - y1) / length
        x1, y1 = x1 + ux * r, y1 + uy * r
        x2, y2 = x2 - ux * (r + 3), y2 - uy * (r + 3)
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (
        f'<path id={quoteattr(eid)} class="edge" d="M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="1.8" fill="none" marker-end="url(#{marker})"{dash}/>'
    )


def _svg_legends(canvas: CanvasSpec) -> list[str]:
    x = canvas.plot_right + 24
    out = ['<g id="legend-states">']
    y = canvas.plot_top + 10
    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="13" font-weight="bold">Evolution states</text>')
    y += 16
    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="10" fill="#555555">left half: emerging, right half: evolving</text>')
    entries = [
        ("born", STATE_FILL["green"]),
        ("fused", STATE_FILL["purple"]),
        ("reborn", STATE_FILL["orange"]),
        ("split", STATE_FILL["blue"]),
        ("dead", STATE_FILL["red"]),
        ("flourishing", STATE_FILL[None]),
    ]
    for name, fill in entries:
        y += 17
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y - 10)}" width="14" height="12" fill="{fill}" stroke="#333333" stroke-width="0.7"/>'
        )
        out.append(f'<text x="{_fmt(x + 20)}" y="{_fmt(y)}" {_FONT} font-size="11">{name}</text>')
    out.append("</g>")

    out.append('<g id="legend-strength">')
    y += 34
    out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="13" font-weight="bold">Evolutionary strength</text>')
    for token in ("tes-1", "tes-2", "tes-3", "tes-4", "tes-5"):
        y += 17
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y - 10)}" width="14" height="12" fill="{TES_FILL[token]}" stroke="#333333" stroke-width="0.7"/>'
        )
        out.append(f'<text x="{_fmt(x + 20)}" y="{_fmt(y)}" {_FONT} font-size="11">{TES_BIN_LABELS[token]}</text>')
    out.append("</g>")
    return out


def _svg_axes(layout: TetLayout) -> list[str]:
    canvas = layout.canvas
    out = ['<g id="axes">']
    out.append(
        f'<line x1="{_fmt(canvas.plot_left)}" y1="{_fmt(canvas.plot_bottom)}" '
        f'x2="{_fmt(canvas.plot_right)}" y2="{_fmt(canvas.plot_bottom)}" stroke="{_AXIS_STROKE}"/>'
    )
    out.append(
        f'<line x1="{_fmt(canvas.plot_left)}" y1="{_fmt(canvas.plot_top)}" '
        f'x2="{_fmt(canvas.plot_left)}" y2="{_fmt(canvas.plot_bottom)}" stroke="{_AXIS_STROKE}"/>'
    )
    for year, x in layout.x_ticks:
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(canvas.plot_bottom)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(canvas.plot_bottom + 5)}" stroke="{_AXIS_STROKE}"/>'
        )
        out.append(
            f'<text class="x-tick-label" x="{_fmt(x)}" y="{_fmt(canvas.plot_bottom + 18)}" '
            f'{_FONT} font-size="11" text-anchor="middle">{year}</text>'
        )
    for value, y in layout.y_ticks:
        out.append(
            f'<line x1="{_fmt(canvas.plot_left - 5)}" y1="{_fmt(y)}" x2="{_fmt(canvas.plot_left)}" '
            f'y2="{_fmt(y)}" stroke="{_AXIS_STROKE}"/>'
        )
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


def to_svg(tet: Tet, layout: TetLayout | None = None, show_root: bool = False) -> str:
    """Render the tree as a standalone SVG 1.1 document.

    One split-circle group per topic, one arrowed path per edge colored by
    its TES bin, axes with year/weight ticks, and the two legends. The root
    and its edges are hidden unless ``show_root`` is set.
    """
    if layout is None:
        layout = compute_layout(tet)
    canvas = layout.canvas
    r = canvas.glyph_radius

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(canvas.width)}" '
        f'height="{_fmt(canvas.height)}" viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">',
        "<defs>",
    ]
    for token, fill in TES_FILL.items():
        lines.append(
            f'<marker id="arrow-{token}" viewBox="0 0 10 10" refX="9" refY="5" '
            f'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
            f'<path d="M 0 0 L 10 5 L 0 10 Z" fill="{fill}"/></marker>'
        )
    lines.append(
        f'<marker id="arrow-root" viewBox="0 0 10 10" refX="9" refY="5" '
        f'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        f'<path d="M 0 0 L 10 5 L 0 10 Z" fill="{_ROOT_STROKE}"/></marker>'
    )
    lines.append("</defs>")
    lines.append(f'<rect width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" fill="#ffffff"/>')
    lines.extend(_svg_axes(layout))

    root_pos = (canvas.plot_left - 35, (canvas.plot_top + canvas.plot_bottom) / 2)

    lines.append('<g id="edges">')
    for e in tet.edges:
        if e.is_root_edge:
            if not show_root:
                continue
            eid = f"edge-{ROOT_INDEX}-{e.to_index}"
            lines.append(
                _svg_edge_path(eid, root_pos, layout.positions[e.to_index], r, _ROOT_STROKE, "arrow-root", True)
            )
        else:
            token = tes_color(e.tes)
            eid = f"edge-{e.from_index}-{e.to_index}"
            lines.append(
                _svg_edge_path(
                    eid,
                    layout.positions[e.from_index],
                    layout.positions[e.to_index],
                    r,
                    TES_FILL[token],
                    f"arrow-{token}",
                    False,
                )
            )
    lines.append("</g>")

    lines.append('<g id="nodes">')
    if show_root:
        rx, ry = root_pos
        lines.append('<g id="node-root" class="node-root">')
        lines.append(
            f'<circle cx="{_fmt(rx)}" cy="{_fmt(ry)}" r="{_fmt(r * 0.6)}" fill="{_ROOT_STROKE}" stroke="none"/>'
        )
        lines.append("</g>")
    for topic in tet.profile.topics:
        x, y = layout.positions[topic.index]
        emerging_fill, evolving_fill = (STATE_FILL[c] for c in state_colors(tet.states[topic.index]))
        lines.append(f'<g id="node-{topic.index}" class="node">')
        lines.append(_svg_half_circle(x, y, r, True, emerging_fill))
        lines.append(_svg_half_circle(x, y, r, False, evolving_fill))
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="none" stroke="#333333" stroke-width="1"/>'
        )
        lines.append("</g>")
    lines.append("</g>")

    lines.append('<g id="labels">')
    for topic in tet.profile.topics:
        anchor = layout.label_anchors[topic.index]
        cx = (anchor.box.x0 + anchor.box.x1) / 2
        baseline = (anchor.box.y0 + anchor.box.y1) / 2 + 4
        lines.append(
            f'<text class="node-label" x="{_fmt(cx)}" y="{_fmt(baseline)}" {_FONT} '
            f'font-size="11" text-anchor="middle">{escape(topic.display_label)}</text>'
        )
    lines.append("</g>")

    lines.extend(_svg_legends(canvas))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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
    lines = ["digraph tet {", "  rankdir=LR;"]
    if show_root:
        lines.append('  "root" [shape=point, label="root"];')
    for topic in sorted(tet.profile.topics, key=lambda t: t.index):
        emerging, evolving = tet.states[topic.index]
        lines.append(
            f"  {_dot_quote(topic.id)} [label={_dot_quote(topic.display_label)}, "
            f'year="{topic.year}", weight="{format_number(topic.weight)}", '
            f'emerging="{emerging.value}", evolving="{evolving.value}"];'
        )
    for e in sorted(tet.edges, key=lambda e: (e.from_index, e.to_index)):
        if e.is_root_edge:
            if not show_root:
                continue
            lines.append(f'  "root" -> {_dot_quote(tet.profile.topic(e.to_index).id)};')
        else:
            lines.append(
                f"  {_dot_quote(tet.profile.topic(e.from_index).id)} -> "
                f'{_dot_quote(tet.profile.topic(e.to_index).id)} [tes="{format_number(e.tes)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def to_json(tet: Tet) -> str:
    """Canonical JSON document; fixed key order, lossless round-trip."""
    doc = {
        "params": {
            "min_tes": tet.params.min_tes,
            "min_reborn": tet.params.min_reborn,
            "min_dead": tet.params.min_dead,
            "threshold_mode": tet.params.threshold_mode.value,
        },
        "latest_year": tet.latest_year,
        "nodes": [
            {
                "id": topic.id,
                "index": topic.index,
                "label": topic.label,
                "year": topic.year,
                "weight": topic.weight,
                "words": list(topic.words),
                "emerging_state": tet.states[topic.index][0].value,
                "evolving_state": tet.states[topic.index][1].value,
            }
            for topic in tet.profile.topics
        ],
        "edges": [
            {"from_index": e.from_index, "to_index": e.to_index, "tes": e.tes} for e in tet.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _integer(value: object, where: str) -> int:
    """A JSON integer; booleans, floats and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value: object, where: str) -> float:
    """A JSON number as a float; booleans and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} is too large, got {value!r}") from None


def tet_from_json(text: str) -> Tet:
    """Parse the JSON document back into a tree; inverse of :func:`to_json`.

    The states are derived from the tree, and a document whose stored
    states disagree with them is rejected. Raises ``ValueError`` on
    malformed input, including structural problems that violate tree
    invariants.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("malformed TET JSON: nested too deeply to parse") from None
    try:
        raw_params = doc["params"]
        params = EvolutionParams(
            min_tes=_number(raw_params["min_tes"], "params.min_tes"),
            min_reborn=_integer(raw_params["min_reborn"], "params.min_reborn"),
            min_dead=_integer(raw_params["min_dead"], "params.min_dead"),
            threshold_mode=ThresholdMode(raw_params["threshold_mode"]),
        )
        topics = []
        for i, node in enumerate(doc["nodes"]):
            label = node["label"]
            if label is not None and not isinstance(label, str):
                raise ValueError(f"nodes[{i}].label must be a string or null, got {label!r}")
            if not isinstance(node["id"], str):
                raise ValueError(f"nodes[{i}].id must be a string, got {node['id']!r}")
            words = node["words"]
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise ValueError(f"nodes[{i}].words must be a list of strings, got {words!r}")
            topic = TopicRecord(
                id=node["id"],
                index=_integer(node["index"], f"nodes[{i}].index"),
                weight=_number(node["weight"], f"nodes[{i}].weight"),
                year=_integer(node["year"], f"nodes[{i}].year"),
                words=tuple(words),
                label=label,
            )
            topics.append(topic)
        edges = tuple(
            TetEdge(
                from_index=_integer(e["from_index"], f"edges[{k}].from_index"),
                to_index=_integer(e["to_index"], f"edges[{k}].to_index"),
                tes=_number(e["tes"], f"edges[{k}].tes"),
            )
            for k, e in enumerate(doc["edges"])
        )
        tet = Tet(
            profile=TemporalTopicProfile(topics=tuple(topics)),
            edges=edges,
            params=params,
            latest_year=_integer(doc["latest_year"], "latest_year"),
        )
        for node, topic in zip(doc["nodes"], topics):
            stored = (node["emerging_state"], node["evolving_state"])
            derived = tuple(state.value for state in tet.states[topic.index])
            if stored != derived:
                raise ValueError(
                    f"topic {topic.index} is stored as {stored} but the tree makes it {derived}"
                )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed TET JSON: {exc!r}") from exc
    return tet
